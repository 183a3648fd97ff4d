"""Run-length compressed bitvectors with word-aligned logical operations.

The dims-as-attributes comparator (`baseline.DimsAttsIndex`) keeps its
bitmaps in this form and answers a range from them with AND, OR and
AND-NOT only; a version-1 saved index holds leaf bitmaps in it, read by
``from_bytes`` and then dropped.  The index tree itself keeps no bitmaps
over cells.

Physical layout: a vector is a sequence of 64-bit words over 63-bit bit
groups.  Bit index i is the i-th least significant logical bit; group
g = i // 63 holds it at payload bit i % 63.

  literal word: bit 63 clear, bits 0..62 hold one group verbatim
  fill word:    bit 63 set, bit 62 is the fill value, bits 0..61 count
                how many identical groups the word stands for

Canonical form is enforced after every operation: fills are maximal, never
empty and never of length 1 (a single uniform group is stored as a
literal).  Two vectors are therefore equal iff their word sequences are
equal.  Logical operations walk the compressed runs of both operands and
never expand fills.

Kernels: group g is bits 63g .. 63g + 62, first bit least significant.
Packing runs one little-endian ``np.packbits`` over the bits and cuts the
packed 64-bit words into 63-bit groups with shifts.
Unpacking runs ``np.unpackbits`` over the 8 bytes of each word, row-wise
with ``count=63``.  Decoding a vector with no fill word unpacks
its words directly, with no run expansion.

Serialized form (``to_bytes``): little-endian header
``{logical_length: u64, word_count: u64}`` followed by the words.
``from_bytes`` reads the words as a view into the caller's buffer.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError, InputError

GROUP_BITS = 63
_ONES = np.uint64((1 << 63) - 1)  # all 63 payload bits set
_FILL_FLAG = np.uint64(1 << 63)
_FILL_VALUE = np.uint64(1 << 62)
_LEN_MASK = np.uint64((1 << 62) - 1)
_HEADER = struct.Struct("<QQ")  # logical length, word count

_OPS = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
}


def _pack_groups(bits: np.ndarray) -> np.ndarray:
    """Pack a 1-d boolean array into 63-bit groups.

    Returns a uint64 array, high bits clear.  The bits are packed
    little-endian into 64-bit words, one spare zero word after them, and
    group g is the 63 bits from bit 63 g on: the top of word 63 g // 64
    joined to the bottom of the next.
    """
    n = bits.size
    ngroups = -(-n // GROUP_BITS)
    raw = np.zeros(8 * (n // 64 + 2), np.uint8)
    raw[: -(-n // 8)] = np.packbits(bits, bitorder="little")
    words = raw.view("<u8").astype(np.uint64, copy=False)
    q, r = np.divmod(GROUP_BITS * np.arange(ngroups, dtype=np.uint64), np.uint64(64))
    return ((words[q] >> r) | (words[q + 1] << (np.uint64(64) - r))) & _ONES


def _unpack_groups(groups: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`_pack_groups`; returns a fresh boolean array of nbits."""
    if nbits == 0:
        return np.empty(0, bool)
    octets = np.ascontiguousarray(groups, "<u8").view(np.uint8).reshape(-1, 8)
    rows = np.unpackbits(octets, axis=1, count=GROUP_BITS, bitorder="little")
    return rows.reshape(-1)[:nbits].view(bool)


def _compress_segments(values: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Build canonical words from (payload, group-run-length) segments.

    Only all-zero and all-one payloads merge into fills.  Any other payload
    comes from one literal group (length 1) and stays one word, even next to
    an equal one.  No `lengths` means one group per segment.
    """
    if values.size == 0:
        return np.empty(0, np.uint64)
    uniform = (values == 0) | (values == _ONES)
    starts = np.empty(values.size, bool)
    starts[0] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    starts[1:] |= ~uniform[1:]
    starts = np.flatnonzero(starts)
    words = values[starts]
    if lengths is None:
        run_lens = np.diff(starts, append=values.size)
    else:
        run_lens = np.add.reduceat(lengths, starts)
    fill = uniform[starts] & (run_lens >= 2)
    if fill.any():
        words[fill] = _FILL_FLAG | (words[fill] & _FILL_VALUE) | run_lens[fill].astype(np.uint64)
    return words


def _decode(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split words into (group counts, per-run payload) without expanding."""
    is_fill = words >= _FILL_FLAG
    counts = np.where(is_fill, (words & _LEN_MASK).astype(np.int64), 1)
    payload = np.where(
        is_fill, np.where(words & _FILL_VALUE, _ONES, np.uint64(0)), words
    )
    return counts, payload


class BitVector:
    """Immutable compressed bitvector; all operations return new vectors."""

    __slots__ = ("_n", "_words")

    def __init__(self, length: int, words: np.ndarray):
        self._n = int(length)
        self._words = words

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        ngroups = -(-length // GROUP_BITS)
        if ngroups == 0:
            words = np.empty(0, np.uint64)
        elif ngroups == 1:
            words = np.zeros(1, np.uint64)
        else:
            words = np.array([_FILL_FLAG | np.uint64(ngroups)], np.uint64)
        return cls(length, words)

    @classmethod
    def from_dense(cls, bits: np.ndarray) -> "BitVector":
        """One vector from a 1-d boolean array."""
        bits = np.asarray(bits, bool)
        if bits.ndim != 1:
            raise InputError("from_dense expects a 1-d boolean array")
        return cls(bits.size, _compress_segments(_pack_groups(bits), None))

    # -- introspection ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def word_count(self) -> int:
        return self._words.size

    def to_dense(self) -> np.ndarray:
        groups = self._words
        if groups.size and groups.max() >= _FILL_FLAG:
            counts, payload = _decode(groups)
            groups = np.repeat(payload, counts)
        return _unpack_groups(groups, self._n)

    def to_positions(self) -> np.ndarray:
        return np.flatnonzero(self.to_dense()).astype(np.int64)

    def count_ones(self) -> int:
        counts, payload = _decode(self._words)
        return int(np.bitwise_count(payload).astype(np.int64) @ counts)

    # -- operators ----------------------------------------------------

    def __and__(self, other: "BitVector") -> "BitVector":
        return logical("and", self, other)

    def __or__(self, other: "BitVector") -> "BitVector":
        return logical("or", self, other)

    def andnot(self, other: "BitVector") -> "BitVector":
        return logical("andnot", self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._words, other._words)

    def __repr__(self) -> str:
        return f"BitVector(len={self._n}, words={self.word_count}, ones={self.count_ones()})"

    # -- serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(self._n, self._words.size)
        return header + self._words.astype("<u8", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data, offset: int = 0) -> tuple["BitVector", int]:
        """Read one vector at `offset` of `data`; returns it and the end offset.

        The words are a read-only view into `data`, not a copy.
        """
        try:
            n, nwords = _HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise DataError(f"corrupt bitvector header: {exc}") from None
        start = offset + _HEADER.size
        end = start + 8 * nwords
        if nwords > -(-n // GROUP_BITS) or end > len(data):
            raise DataError(
                f"corrupt bitvector at byte {offset}: {nwords} words for {n} bits"
                f" in {len(data) - start} bytes"
            )
        words = np.frombuffer(data, "<u8", count=nwords, offset=start)
        words.flags.writeable = False
        return cls(n, words), end


def logical(op: str, a: BitVector, b: BitVector) -> BitVector:
    """Apply "and", "or" or "andnot" to two equal-length vectors, run by run."""
    if a._n != b._n:
        raise InputError(f"length mismatch: {a._n} != {b._n}")
    if a._n == 0:
        return BitVector(0, np.empty(0, np.uint64))
    counts_a, pay_a = _decode(a._words)
    counts_b, pay_b = _decode(b._words)
    ends_a = np.cumsum(counts_a)
    ends_b = np.cumsum(counts_b)
    ends = np.union1d(ends_a, ends_b)
    va = pay_a[np.searchsorted(ends_a, ends, side="left")]
    vb = pay_b[np.searchsorted(ends_b, ends, side="left")]
    if op == "andnot":
        merged = va & (vb ^ _ONES)
    else:
        try:
            merged = _OPS[op](va, vb)
        except KeyError:
            raise InputError(f"unknown logical op: {op!r}") from None
    lens = np.diff(ends, prepend=0)
    return BitVector(a._n, _compress_segments(merged, lens))

