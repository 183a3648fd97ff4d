import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.bitvec import (
    BitVector,
    _FILL_FLAG,
    _decode,
    logical,
)
from arraybit.errors import DataError, InputError
from testutil import bitvector_from_positions, reference_bitvector_bytes


def random_bits(rng, n, style=None):
    """Boolean array with a mix of dense noise and long runs."""
    if style is None:
        style = rng.integers(0, 4)
    if style == 0:
        return rng.random(n) < rng.random()
    if style == 1:  # sparse
        return rng.random(n) < 0.001
    if style == 2:  # long runs
        out = np.zeros(n, bool)
        pos = 0
        val = bool(rng.integers(0, 2))
        while pos < n:
            run = int(rng.integers(1, max(2, n // 4)))
            out[pos : pos + run] = val
            pos += run
            val = not val
        return out
    return np.ones(n, bool) if rng.integers(0, 2) else np.zeros(n, bool)


def is_canonical(v: BitVector) -> bool:
    counts, payload = _decode(v._words)
    groups = np.repeat(payload, counts)
    return BitVector.from_dense(v.to_dense()) == v and groups.size == -(-len(v) // 63)


def test_from_positions_empty():
    v = bitvector_from_positions([], 8)
    assert v.count_ones() == 0
    assert len(v) == 8


def test_from_positions_rendering():
    # bits 0 and 2 of a 4-bit vector read "0101" with bit 0 rightmost
    v = bitvector_from_positions([0, 2], 4)
    dense = v.to_dense()
    text = "".join("1" if b else "0" for b in dense[::-1])
    assert text == "0101"


def test_from_positions_out_of_range():
    with pytest.raises(InputError):
        bitvector_from_positions([4], 4)
    with pytest.raises(InputError):
        bitvector_from_positions([-1], 4)


def test_positions_roundtrip_large():
    rng = np.random.default_rng(7)
    pos = np.unique(rng.integers(0, 10**6, size=1000))
    v = bitvector_from_positions(pos, 10**6)
    assert np.array_equal(v.to_positions(), pos)
    assert v.count_ones() == pos.size


def test_logical_identities():
    rng = np.random.default_rng(1)
    x = BitVector.from_dense(random_bits(rng, 5000))
    zeros = BitVector.zeros(5000)
    assert logical("and", x, zeros) == zeros
    assert logical("or", x, zeros) == x
    assert logical("and", x, x) == x
    assert logical("or", x, x) == x
    assert x.andnot(x) == zeros
    assert x.andnot(zeros) == x


def test_logical_length_mismatch():
    with pytest.raises(InputError):
        logical("and", BitVector.zeros(4), BitVector.zeros(5))


def test_logical_unknown_op():
    with pytest.raises(InputError):
        logical("nand", BitVector.zeros(4), BitVector.zeros(4))


def test_complement_padding_stays_zero():
    # length not a multiple of 63: padding must not leak into count
    v = BitVector.from_dense(np.ones(100, bool))
    assert v.count_ones() == 100
    assert np.array_equal(v.to_positions(), np.arange(100))
    assert int(v._words[-1]) == (1 << 37) - 1  # the last group's padding bits are clear


def test_count_ones_basics():
    assert BitVector.zeros(100).count_ones() == 0
    assert BitVector.from_dense(np.ones(100, bool)).count_ones() == 100
    assert BitVector.from_dense(np.ones(126, bool)).count_ones() == 126


def test_worst_case_size_bound():
    rng = np.random.default_rng(4)
    for n in [1, 63, 64, 1000, 12345]:
        v = BitVector.from_dense(random_bits(rng, n, style=0))
        assert v.word_count <= -(-n // 63) + 1


def test_pathological_pattern_has_no_fills():
    # 01000 repeated: every 63-bit group is non-uniform, so zero fill words
    n = 5 * 4000
    dense = np.zeros(n, bool)
    dense[1::5] = True
    v = BitVector.from_dense(dense)
    assert not bool((v._words >= _FILL_FLAG).any())
    assert v.word_count == -(-n // 63)


def test_serialization_roundtrip():
    rng = np.random.default_rng(5)
    for n in [0, 1, 63, 1000, 50000]:
        v = BitVector.from_dense(random_bits(rng, n))
        w, end = BitVector.from_bytes(v.to_bytes())
        assert w == v
        assert end == len(v.to_bytes())


def test_serialization_is_little_endian_and_stable():
    v = bitvector_from_positions([0, 2], 4)
    raw = v.to_bytes()
    assert raw[:8] == (4).to_bytes(8, "little")
    assert raw[8:16] == (1).to_bytes(8, "little")
    assert int.from_bytes(raw[16:24], "little") == 0b101


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000))
def test_ops_match_oracle(seed, n):
    rng = np.random.default_rng(seed)
    a = random_bits(rng, n)
    b = random_bits(rng, n)
    va, vb = BitVector.from_dense(a), BitVector.from_dense(b)
    assert np.array_equal(logical("and", va, vb).to_dense(), a & b)
    assert np.array_equal(logical("or", va, vb).to_dense(), a | b)
    assert np.array_equal(va.andnot(vb).to_dense(), a & ~b)
    assert va.count_ones() == int(a.sum())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000))
def test_results_are_canonical(seed, n):
    rng = np.random.default_rng(seed)
    a = random_bits(rng, n)
    b = random_bits(rng, n)
    out = logical("or", BitVector.from_dense(a), BitVector.from_dense(b))
    assert is_canonical(out)
    assert is_canonical(out.andnot(BitVector.from_dense(b)))


# lengths at the edges of a group and of a 4096-bit leaf bitmap
_CODEC_LENGTHS = sorted(
    {0, 1, 2} | {m * k + d for m in (63, 4096) for k in (1, 2, 3) for d in (-1, 0, 1)}
)


def pattern_bits(rng, n, pattern):
    if pattern == "zeros":
        return np.zeros(n, bool)
    if pattern == "ones":
        return np.ones(n, bool)
    if pattern == "sparse":
        return rng.random(n) < 0.01
    out = np.zeros(n, bool)  # clustered: a few runs of set bits
    for _ in range(int(rng.integers(1, 6))):
        start = int(rng.integers(0, max(n, 1)))
        out[start : start + int(rng.integers(1, 400))] = True
    return out


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from(_CODEC_LENGTHS),
    pattern=st.sampled_from(["zeros", "ones", "sparse", "clustered"]),
    seed=st.integers(0, 2**32 - 1),
    offset=st.integers(0, 24),
)
def test_codec_matches_reference_encoder(n, pattern, seed, offset):
    bits = pattern_bits(np.random.default_rng(seed), n, pattern)
    v = BitVector.from_dense(bits)
    raw = v.to_bytes()
    assert raw == reference_bitvector_bytes(bits)
    dense = v.to_dense()
    assert dense.dtype == bool and np.array_equal(dense, bits)
    # read back in place from the middle of a larger buffer
    buf = bytes(range(offset)) + raw + b"\xff" * 8
    w, end = BitVector.from_bytes(buf, offset)
    assert end == offset + len(raw)
    assert w == v
    assert not w._words.flags.writeable
    assert n == 0 or np.shares_memory(w._words, np.frombuffer(buf, np.uint8))
    assert np.array_equal(w.to_dense(), bits)
    assert logical("or", w, v) == v
    assert w.andnot(v) == BitVector.zeros(n)
    assert BitVector.from_dense(np.ones(n, bool)).andnot(w).count_ones() == n - int(bits.sum())


def test_from_bytes_rejects_truncated_input():
    raw = BitVector.from_dense(np.arange(200) % 3 == 0).to_bytes()
    for cut in (0, 10, 16, len(raw) - 1):
        with pytest.raises(DataError):
            BitVector.from_bytes(raw[:cut])
