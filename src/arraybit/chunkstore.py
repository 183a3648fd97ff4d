"""Array data model: schema, regular grid chunking, ingestion and the
per-chunk binned bitmap index used at the leaves.

Cells are laid out row-major inside each chunk; boundary chunks are clipped
by the global shape.  Empty cells are NaN for float attributes and a
declared sentinel for integer attributes; internally only the non-empty
mask is authoritative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binning import equi_depth_exact
from .bitvec import BitVector
from .errors import DataError, InputError

_DTYPES = {"float64": np.float64, "int64": np.int64}


@dataclass
class QueryStats:
    """Operational counters collected while answering a query.

    bitmap_fetches counts bitmaps fetched for bin spans, and
    candidate_bitmap_fetches those fetched only to isolate the boundary bins
    of the candidate check; the bitmap resolver of a leaf decodes each of
    its bitmaps at most once per query and counts only that decode.
    leaves_scanned counts the partial leaves that :func:`leaf_query`
    resolved by a scan of the query's box, every one whose runs neither
    miss nor cover it.  candidate_checks counts the cells whose value was
    compared: the candidates of the bitmap resolver and every non-empty
    cell of a scanned box.
    """

    nodes_evaluated: int = 0
    bitmap_fetches: int = 0
    candidate_bitmap_fetches: int = 0
    candidate_checks: int = 0
    leaves_scanned: int = 0
    blocks_read: int = 0
    _blocks: set = field(default_factory=set, repr=False)

    def touch_block(self, key) -> None:
        if key not in self._blocks:
            self._blocks.add(key)
            self.blocks_read += 1


@dataclass(frozen=True)
class ArraySchema:
    """A<a_1..a_m>[d_1..d_n] with a regular chunk grid."""

    dims: tuple  # ((name, extent), ...)
    attributes: tuple  # ((name, "float64"|"int64"), ...)
    chunk_shape: tuple
    empty_values: dict = field(default_factory=dict)  # int attrs need one

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple((str(n), int(e)) for n, e in self.dims))
        object.__setattr__(
            self, "attributes", tuple((str(n), str(t)) for n, t in self.attributes)
        )
        object.__setattr__(self, "chunk_shape", tuple(int(c) for c in self.chunk_shape))
        # NaN is the implied float sentinel; drop explicit ones so schema
        # equality is well defined
        floats = {n for n, t in self.attributes if t == "float64"}
        cleaned = {
            k: v
            for k, v in self.empty_values.items()
            if not (k in floats and isinstance(v, float) and np.isnan(v))
        }
        object.__setattr__(self, "empty_values", cleaned)
        if not self.dims or not self.attributes:
            raise InputError("schema needs at least one dimension and one attribute")
        if any(e < 1 for _, e in self.dims):
            raise InputError("dimension extents must be >= 1")
        if len(self.chunk_shape) != len(self.dims):
            raise InputError("chunk_shape rank must match dimension count")
        if any(c < 1 for c in self.chunk_shape):
            raise InputError("chunk extents must be >= 1")
        for name, typ in self.attributes:
            if typ not in _DTYPES:
                raise InputError(f"unsupported attribute type {typ!r}")
            if typ == "int64" and name not in self.empty_values:
                raise InputError(f"integer attribute {name!r} needs an empty sentinel")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple:
        return tuple(e for _, e in self.dims)

    @property
    def dim_names(self) -> tuple:
        return tuple(n for n, _ in self.dims)

    @property
    def chunk_grid(self) -> tuple:
        return tuple(-(-e // c) for e, c in zip(self.shape, self.chunk_shape))

    def attr_type(self, name: str) -> str:
        for n, t in self.attributes:
            if n == name:
                return t
        raise InputError(f"unknown attribute {name!r}")

    def empty_value(self, name: str):
        typ = self.attr_type(name)
        if typ == "float64":
            return self.empty_values.get(name, float("nan"))
        return self.empty_values[name]

    def with_extents(self, extents) -> "ArraySchema":
        dims = tuple((n, e) for (n, _), e in zip(self.dims, extents))
        return ArraySchema(dims, self.attributes, self.chunk_shape, dict(self.empty_values))


def locate(schema: ArraySchema, cell) -> tuple:
    """Map a global cell to (chunk grid coords, local row-major offset)."""
    cell = tuple(int(c) for c in cell)
    if len(cell) != schema.ndim:
        raise InputError("cell rank mismatch")
    for c, e in zip(cell, schema.shape):
        if not 0 <= c < e:
            raise InputError(f"cell {cell} outside array extents {schema.shape}")
    coords = tuple(c // s for c, s in zip(cell, schema.chunk_shape))
    shape = chunk_shape_at(schema, coords)
    local = tuple(c - g * s for c, g, s in zip(cell, coords, schema.chunk_shape))
    return coords, int(np.ravel_multi_index(local, shape))


def delocate(schema: ArraySchema, coords, offset: int) -> tuple:
    """Inverse of :func:`locate`."""
    shape = chunk_shape_at(schema, coords)
    local = np.unravel_index(offset, shape)
    return tuple(int(g * s + l) for g, s, l in zip(coords, schema.chunk_shape, local))


def chunk_shape_at(schema: ArraySchema, coords) -> tuple:
    """Chunk shape at a grid position, clipped by the global shape."""
    return tuple(
        min((g + 1) * s, e) - g * s
        for g, s, e in zip(coords, schema.chunk_shape, schema.shape)
    )


class Chunk:
    """One grid tile: row-major attribute payloads plus the non-empty mask.

    The value blocks and the mask are made read-only: an index and its
    queries only read them, and a write through any view raises.
    """

    __slots__ = ("coords", "offsets", "shape", "values", "nonempty", "nonempty_count")

    def __init__(self, coords, offsets, shape, values, nonempty):
        self.coords = tuple(coords)
        self.offsets = tuple(offsets)
        self.shape = tuple(shape)
        for arr in (*values.values(), nonempty):
            arr.flags.writeable = False
        self.values = values
        self.nonempty = nonempty
        self.nonempty_count = int(nonempty.sum())

    @property
    def cell_count(self) -> int:
        return math.prod(self.shape)

    @property
    def extent(self) -> tuple:
        return tuple((o, o + s - 1) for o, s in zip(self.offsets, self.shape))

    def values_flat(self, attr: str) -> np.ndarray:
        return self.values[attr].reshape(-1)


class ChunkStore:
    """All non-empty chunks of one array, keyed by grid coordinates."""

    def __init__(self, schema: ArraySchema, chunks: dict):
        self.schema = schema
        self.chunks = chunks
        self._slabs: dict = {}

    @classmethod
    def from_dense(cls, schema: ArraySchema, data: dict) -> "ChunkStore":
        """Chunk dense global arrays; tiles with no non-empty cell are omitted."""
        for name, _ in schema.attributes:
            if name not in data:
                raise InputError(f"missing data for attribute {name!r}")
            if tuple(data[name].shape) != schema.shape:
                raise InputError(f"attribute {name!r} shape mismatch")
        chunks = {}
        for coords in np.ndindex(*schema.chunk_grid):
            offsets = tuple(g * s for g, s in zip(coords, schema.chunk_shape))
            shape = chunk_shape_at(schema, coords)
            sl = tuple(slice(o, o + s) for o, s in zip(offsets, shape))
            vals = {}
            nonempty = None
            for name, typ in schema.attributes:
                # a copy: later writes to `data` leave the store unchanged
                block = np.array(data[name][sl], dtype=_DTYPES[typ], order="C")
                vals[name] = block
                mask = _nonempty_mask(block, typ, schema.empty_value(name))
                nonempty = mask if nonempty is None else (nonempty | mask)
            if nonempty.any():
                chunks[coords] = Chunk(coords, offsets, shape, vals, nonempty)
        return cls(schema, chunks)

    def nonempty_total(self) -> int:
        return sum(c.nonempty_count for c in self.chunks.values())

    def iter_chunks(self):
        for coords in sorted(self.chunks):
            yield self.chunks[coords]

    def dense(self, attr: str) -> np.ndarray:
        """Reassemble the global array, empties filled with the sentinel."""
        typ = self.schema.attr_type(attr)
        out = np.full(self.schema.shape, self.schema.empty_value(attr), _DTYPES[typ])
        for chunk in self.chunks.values():
            sl = tuple(slice(o, o + s) for o, s in zip(chunk.offsets, chunk.shape))
            out[sl] = chunk.values[attr]
        return out

    def nonempty_dense(self) -> np.ndarray:
        out = np.zeros(self.schema.shape, bool)
        for chunk in self.chunks.values():
            sl = tuple(slice(o, o + s) for o, s in zip(chunk.offsets, chunk.shape))
            out[sl] = chunk.nonempty
        return out

    def slab_dense(self, shape: tuple, dim: int, lo: int, hi: int) -> np.ndarray:
        """Cells of a chunk of `shape` whose dim-coordinate lies in [lo, hi].

        Identical for every chunk of the same (clipped) shape, so cached.
        """
        key = (shape, dim, lo, hi)
        got = self._slabs.get(key)
        if got is None:
            n = int(np.prod(shape))
            stride = int(np.prod(shape[dim + 1 :]))
            coord = (np.arange(n) // stride) % shape[dim]
            got = (coord >= lo) & (coord <= hi)
            self._slabs[key] = got
        return got


def _nonempty_mask(block, typ, sentinel):
    if typ == "float64":
        if np.isnan(sentinel):
            return ~np.isnan(block)
        return block != sentinel
    return block != sentinel


# ---------------------------------------------------------------------------
# binned bitmap index (shared by chunk leaves and the linearized baseline)

# one pass of the leaf builder sorts at most this many cells and encodes at
# most this many dense bitmap bits; a single row may exceed it
_BATCH_CELLS = 1 << 20

# the bitmaps of a leaf with k bins, as two slices (lo, hi) of its k + 1
# planes (see BinnedBitmapIndex.build_rows): bitmap i is plane lo[i] XOR
# plane hi[i], the cells of bins lo[i] to hi[i] - 1
_WINDOWS = {
    "equality": lambda k: (slice(0, k), slice(1, k + 1)),
    "range": lambda k: (slice(0, 1), slice(1, k)),
    "interval": lambda k: (slice(0, -(-k // 2)), slice(-(-k // 2), 2 * -(-k // 2))),
}


class BinnedBitmapIndex:
    """Equi-depth binned bitmaps over one value column in a fixed cell order.

    Encodings:
      equality  one bitmap per bin (|B| bitmaps)
      range     cumulative prefixes, |B|-1 bitmaps (the full prefix is the
                non-empty mask itself)
      interval  sliding windows of ceil(|B|/2) consecutive bins,
                ceil(|B|/2) bitmaps; any contiguous bin range is two fetches
    """

    __slots__ = ("binning", "encoding", "bitmaps", "span_lo", "span_hi", "ebm", "length", "count",
                 "amin", "amax")

    def __init__(self, binning, encoding, bitmaps, span_lo, span_hi, ebm, count: int):
        """`count` is the number of set bits of `ebm`, the non-empty cells,
        which the builder and the loader already know."""
        self.binning = binning
        self.encoding = encoding
        self.bitmaps = bitmaps
        self.span_lo = span_lo
        self.span_hi = span_hi
        self.ebm = ebm
        self.length = len(ebm)
        self.count = count
        self.amin = float(span_lo[0])
        self.amax = float(span_hi[-1])

    @property
    def nbins(self) -> int:
        return self.binning.nbins

    @classmethod
    def build(cls, values: np.ndarray, nonempty: np.ndarray, bins: int,
              encoding: str) -> "BinnedBitmapIndex":
        """Index one value column over its non-empty cells."""
        return cls.build_rows(values[None], nonempty[None], bins, encoding)[0]

    @classmethod
    def build_rows(cls, values: np.ndarray, nonempty: np.ndarray, bins: int,
                   encoding: str) -> list:
        """Index each row of a (rows, cells) value array over its non-empty
        cells, every row in one pass: one sort, one binning over all the
        rows' histograms and one encode of all their bitmaps.  Integer
        values are binned as float64.
        """
        if encoding not in _WINDOWS:
            raise InputError(f"unknown encoding {encoding!r}")
        nrows, ncells = values.shape
        live = nonempty.sum(axis=1)
        if not live.all():
            raise InputError("cannot index an all-empty column")
        # empties become NaN, which sorts last and compares false
        cells = np.where(nonempty, values, np.nan)
        ordered = np.sort(cells, axis=1)
        if np.isnan(ordered[np.arange(nrows), live - 1]).any():
            raise InputError("cannot index NaN values")

        # each row's histogram: its distinct values and their counts
        first = np.empty((nrows, ncells), bool)
        first[:, 0] = True
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
        first &= np.arange(ncells) < live[:, None]
        at = np.flatnonzero(first)  # flat position of each distinct value
        row_start = np.searchsorted(at, np.arange(nrows) * ncells)
        # a value's run ends at the next distinct value or its row's last live cell
        stop = np.append(at[1:], 0)
        stop[np.append(row_start[1:], at.size) - 1] = np.arange(nrows) * ncells + live
        uniq = ordered.reshape(-1)[at]
        binnings, edges = equi_depth_exact(uniq, stop - at, bins, row_start)

        # a bin's span runs from its first distinct value to its last; an
        # empty bin keeps (inf, -inf).  A row's last bin is never empty.
        filled = edges[1:] > edges[:-1]
        span_lo = np.where(filled, uniq[edges[:-1]], np.inf)
        span_hi = np.where(filled, uniq[edges[1:] - 1], -np.inf)

        # bitmaps: bin j holds the cells x with t_j <= x < t_j+1, where t_0
        # is -inf, t_k is NaN (so the top bin keeps a live +inf) and the
        # others are the kept midpoints.  With plane j = (x >= t_j), the
        # cells of bins [lo, hi] are plane lo XOR plane hi + 1, and the
        # non-empty mask, bins [0, k - 1], comes first.  Rows with one bin
        # count share their planes' layout and are encoded together.
        nbins = np.array([b.nbins for b in binnings])
        first_bin = np.cumsum(nbins) - nbins
        vecs = [None] * nrows
        for k in np.unique(nbins).tolist():
            rows = np.flatnonzero(nbins == k)
            lo, hi = _WINDOWS[encoding](k)
            cuts = np.empty((rows.size, k + 1))
            cuts[:, 0] = -np.inf
            cuts[:, 1:k] = [binnings[r].boundaries[1:-1] for r in rows.tolist()]
            cuts[:, k] = np.nan
            step = max(1, _BATCH_CELLS // (ncells * (k + 1)))
            for a in range(0, rows.size, step):
                part = rows[a : a + step]
                planes = cells[part, None, :] >= cuts[a : a + step, :, None]
                bits = np.empty((part.size, 1 + len(range(k + 1)[hi]), ncells), bool)
                bits[:, 0] = nonempty[part]
                np.bitwise_xor(planes[:, lo], planes[:, hi], out=bits[:, 1:])
                got = BitVector.from_dense(bits.reshape(-1, ncells))
                for i, r in enumerate(part.tolist()):
                    vecs[r] = got[i * bits.shape[1] : (i + 1) * bits.shape[1]]

        leaves = []
        for r, (binning, fb, n) in enumerate(zip(binnings, first_bin.tolist(), live.tolist())):
            k = binning.nbins
            leaves.append(cls(binning, encoding, vecs[r][1:], span_lo[fb : fb + k],
                              span_hi[fb : fb + k], vecs[r][0], n))
        return leaves

    # -- bin-range evaluation ------------------------------------------

    def _get(self, j: int, stats, candidate: bool) -> BitVector:
        if stats is not None:
            if candidate:
                stats.candidate_bitmap_fetches += 1
            else:
                stats.bitmap_fetches += 1
        return self.bitmaps[j]

    def _combine(self, a: int, b: int, get, ebm, AND, OR, ANDNOT):
        """Bin range [a, b] as a combination of at most two fetched bitmaps
        (plus the non-empty mask), independent of the bitmap domain."""
        k = self.nbins
        if a == 0 and b == k - 1:
            return ebm()
        if self.encoding == "equality":
            out = get(a)
            for j in range(a + 1, b + 1):
                out = OR(out, get(j))
            return out
        if self.encoding == "range":
            hi = ebm() if b == k - 1 else get(b)
            return hi if a == 0 else ANDNOT(hi, get(a - 1))
        # interval windows: W_s covers bins [s, s + m - 1]
        m = -(-k // 2)

        def prefix(p):  # bins [0, p], p < k - 1
            if p <= m - 2:
                return ANDNOT(get(0), get(p + 1))
            if p == m - 1:
                return get(0)
            return OR(get(0), get(p + 1 - m))

        if a == 0:
            return prefix(b)
        if b == k - 1:
            return ANDNOT(ebm(), prefix(a - 1))
        if b - a + 1 > m:
            return OR(get(a), get(b + 1 - m))
        if b <= m - 2:
            return ANDNOT(get(a), get(b + 1))
        if b == m - 1:
            return AND(get(a), get(0))
        if a >= m:
            return ANDNOT(get(b + 1 - m), get(a - m))
        return AND(get(a), get(b + 1 - m))

    def bins_bitmap(self, a: int, b: int, stats=None, candidate=False) -> BitVector:
        """Cells whose bin lies in [a, b]; at most two fetches except equality."""
        if a > b:
            return BitVector.zeros(self.length)
        return self._combine(
            a, b,
            get=lambda j: self._get(j, stats, candidate),
            ebm=lambda: self.ebm,
            AND=lambda x, y: x & y,
            OR=lambda x, y: x | y,
            ANDNOT=lambda x, y: x.andnot(y),
        )

    def decoder(self, stats=None):
        """A `decode(j, candidate)` that turns bitmap j into a read-only
        boolean array, decoding each bitmap at most once.

        A first decode counts as a bitmap fetch, or as a candidate fetch when
        `candidate` is set; handing back an already decoded bitmap is free.
        """
        decoded = {}

        def decode(j: int, candidate: bool = False) -> np.ndarray:
            bits = decoded.get(j)
            if bits is None:
                bits = decoded[j] = self.bitmaps[j].to_dense()
                bits.flags.writeable = False
                if stats is not None:
                    if candidate:
                        stats.candidate_bitmap_fetches += 1
                    else:
                        stats.bitmap_fetches += 1
            return bits

        return decode

    def bins_dense(self, a: int, b: int, ebm_dense, decode, candidate=False) -> np.ndarray:
        """Dense-domain twin of :meth:`bins_bitmap` for short leaf vectors.

        `decode` comes from :meth:`decoder`.  The result may be a decoded
        bitmap or `ebm_dense` itself, so callers only read it.
        """
        if a > b:
            return np.zeros(self.length, bool)
        return self._combine(
            a, b,
            get=lambda j: decode(j, candidate),
            ebm=lambda: ebm_dense,
            AND=np.logical_and,
            OR=np.logical_or,
            ANDNOT=lambda x, y: x & ~y,
        )

    def _query_bins(self, lo: float, hi: float):
        """Bin span of [lo, hi] plus the boundary bins needing verification."""
        k = self.nbins
        amin, amax = self.amin, self.amax
        if hi < amin or lo > amax:
            return None
        bounds = self.binning.boundaries
        lo_bin = 0 if lo <= amin else min(int(np.searchsorted(bounds, lo, "right")) - 1, k - 1)
        hi_bin = k - 1 if hi >= amax else min(int(np.searchsorted(bounds, hi, "right")) - 1, k - 1)
        cand_bins = []
        if not lo <= self.span_lo[lo_bin]:
            cand_bins.append(lo_bin)
        if not hi >= self.span_hi[hi_bin] and hi_bin not in cand_bins:
            cand_bins.append(hi_bin)
        return lo_bin, hi_bin, cand_bins

    def range_query(self, lo: float, hi: float, stats=None):
        """Split [lo, hi] into (certain hits, candidate cells to verify)."""
        plan = self._query_bins(lo, hi)
        if plan is None:
            zeros = BitVector.zeros(self.length)
            return zeros, zeros
        lo_bin, hi_bin, cand_bins = plan
        span = self.bins_bitmap(lo_bin, hi_bin, stats)
        if not cand_bins:
            return span, BitVector.zeros(self.length)
        cand = self.bins_bitmap(cand_bins[0], cand_bins[0], stats, candidate=True)
        for j in cand_bins[1:]:
            cand = cand | self.bins_bitmap(j, j, stats, candidate=True)
        return span.andnot(cand), cand

    def range_query_dense(self, lo: float, hi: float, ebm_dense, decode):
        """Dense-domain twin of :meth:`range_query`; `decode` comes from
        :meth:`decoder`.  Either part is None when it is empty; both may be
        shared with `decode`'s bitmaps and are only to be read."""
        plan = self._query_bins(lo, hi)
        if plan is None:
            return None, None
        lo_bin, hi_bin, cand_bins = plan
        span = self.bins_dense(lo_bin, hi_bin, ebm_dense, decode)
        if not cand_bins:
            return span, None
        if lo_bin == hi_bin:  # the span is its one candidate bin
            return None, span
        cand = self.bins_dense(cand_bins[0], cand_bins[0], ebm_dense, decode, candidate=True)
        for j in cand_bins[1:]:
            cand = cand | self.bins_dense(j, j, ebm_dense, decode, candidate=True)
        return span & ~cand, cand

    def size_bytes(self) -> int:
        n = len(self.ebm.to_bytes())
        n += sum(len(b.to_bytes()) for b in self.bitmaps)
        n += self.binning.boundaries.nbytes + self.binning.weights.nbytes
        n += self.span_lo.nbytes + self.span_hi.nbytes
        return n


@dataclass(frozen=True)
class PlainLeaf:
    """Marker for chunks too small to index; queries scan the raw values."""

    amin: float
    amax: float
    count: int
    binning = None


def build_leaf_index(chunks, attr: str, bins: int, encoding: str, e: int = 4) -> list:
    """The leaf of each chunk, in order: None for a chunk with no non-empty
    cell, a plain value list below e*bins non-empty cells, else its binned
    bitmap index.  Chunks of one cell count are indexed together, up to
    _BATCH_CELLS cells per pass."""
    leaves = [None] * len(chunks)
    by_size: dict = {}
    for i, chunk in enumerate(chunks):
        n = chunk.nonempty_count
        if n == 0:
            continue
        if n < e * bins:
            live = chunk.values_flat(attr)[chunk.nonempty.reshape(-1)]
            leaves[i] = PlainLeaf(float(live.min()), float(live.max()), n)
        else:
            by_size.setdefault(chunk.nonempty.size, []).append(i)
    for ncells, members in by_size.items():
        step = max(1, _BATCH_CELLS // ncells)
        for a in range(0, len(members), step):
            part = members[a : a + step]
            values = np.stack([chunks[i].values_flat(attr) for i in part])
            nonempty = np.stack([chunks[i].nonempty.reshape(-1) for i in part])
            for i, leaf in zip(part, BinnedBitmapIndex.build_rows(values, nonempty, bins, encoding)):
                leaves[i] = leaf
    return leaves


def in_runs(vals: np.ndarray, runs) -> np.ndarray:
    """Mask of `vals` lying in any of the sorted, disjoint inclusive runs."""
    los = np.array([lo for lo, _ in runs])
    his = np.array([hi for _, hi in runs])
    i = np.searchsorted(los, vals, side="right") - 1
    return (i >= 0) & (vals <= his[np.maximum(i, 0)])


def _overlapping(runs, leaf) -> list:
    return [(lo, hi) for lo, hi in runs if hi >= leaf.amin and lo <= leaf.amax]


def _box(chunk: Chunk, dim_ranges) -> tuple:
    """The chunk-local query box, one slice per dimension."""
    box = []
    for rng, s in zip(dim_ranges, chunk.shape):
        lo, hi = (0, s - 1) if rng is None else (max(rng[0], 0), min(rng[1], s - 1))
        box.append(slice(lo, max(hi + 1, lo)))
    return tuple(box)


def _int_base(leaf, vals: np.ndarray, cell_count: int):
    """amin of the leaf as an int, for an integer column whose [amin, amax]
    is exact in float64 and holds at most `cell_count` integers; else None."""
    amin, amax = leaf.amin, leaf.amax
    if vals.dtype.kind == "i" and amax - amin + 1 <= cell_count and -2**53 <= amin and amax <= 2**53:
        return int(amin)
    return None


def _match_runs(vals: np.ndarray, runs, leaf, cell_count: int) -> np.ndarray:
    """Fresh mask of `vals` lying in the runs, exact for the values within
    [amin, amax] of the leaf; others (empty cells) may match.

    One run takes two comparisons.  More runs take a lookup table over
    [amin, amax] when :func:`_int_base` allows one, else :func:`in_runs`.
    """
    base = _int_base(leaf, vals, cell_count)
    if base is None:
        if len(runs) == 1:
            lo, hi = runs[0]
            return (vals >= lo) & (vals <= hi)
        return in_runs(vals, runs)
    # the integers of each run within [amin, amax], as offsets from amin
    amin, amax = leaf.amin, leaf.amax
    spans = [(math.ceil(max(lo, amin)) - base, math.floor(min(hi, amax)) - base)
             for lo, hi in runs]
    if len(spans) == 1:  # integer bounds: the values are not converted to float
        a, b = spans[0]
        return (vals >= base + a) & (vals <= base + b)
    lut = np.zeros(int(amax) - base + 1, bool)
    for a, b in spans:
        if a <= b:
            lut[a : b + 1] = True
    return lut.take(vals - base, mode="clip")


def leaf_query_bitmaps(chunk: Chunk, leaf: BinnedBitmapIndex, attr: str, runs, dim_ranges,
                       store: ChunkStore, stats: QueryStats | None = None) -> np.ndarray:
    """Exact matching cells of one chunk, as a fresh flat boolean array,
    from the binned bitmaps of its leaf plus a candidate check: the
    resolution of the source paper, which queries no longer take (see
    :func:`leaf_query`) and the tests keep as a reference.

    Interior bins of each run contribute without touching raw values; the
    boundary bins are verified cell by cell.  Each bitmap of the leaf is
    decoded at most once per call, however many runs use it.  The
    dimension ranges are applied last, as cached slab masks of `store`.
    Arguments are those of :func:`leaf_query`.
    """
    ebm_dense = chunk.nonempty.reshape(-1)
    decode = leaf.decoder(stats)
    result = np.zeros(chunk.cell_count, bool)
    cand = None
    for lo, hi in runs:
        certain, maybe = leaf.range_query_dense(lo, hi, ebm_dense, decode)
        if certain is not None:
            result |= certain
        if maybe is not None:
            cand = maybe if cand is None else (cand | maybe)
    if cand is not None:
        pos = np.flatnonzero(cand & ~result)
        ok = _match_runs(chunk.values_flat(attr)[pos], runs, leaf, chunk.cell_count)
        if stats is not None:
            stats.candidate_checks += pos.size
        result[pos[ok]] = True
    for d, rng in enumerate(dim_ranges):
        if rng is None:
            continue
        lo, hi = rng
        if lo <= 0 and hi >= chunk.shape[d] - 1:
            continue
        result &= store.slab_dense(chunk.shape, d, max(lo, 0), min(hi, chunk.shape[d] - 1))
    return result


def leaf_query(
    chunk: Chunk,
    leaf,
    attr: str,
    runs,
    dim_ranges,
    store: ChunkStore,
    stats: QueryStats | None = None,
) -> np.ndarray:
    """Exact matching cells of one chunk, as a fresh flat boolean array.

    runs are the attribute constraint as sorted, disjoint inclusive
    (lo, hi) value runs: one run for a range query, one per value (or per
    stretch of consecutive integers) for a membership query.  dim_ranges
    are chunk-local inclusive (lo, hi) per dimension (None for the whole
    extent).  The chunk's arrays are only read.

    Runs that miss [amin, amax] of the leaf are dropped; with none left the
    answer is empty, and a run covering [amin, amax] answers with the
    non-empty cells of the box.  Otherwise the values in the box are
    scanned: one run by two comparisons, several by a lookup table over
    [amin, amax] or by :func:`in_runs` (see :func:`_match_runs`), and the
    hits are written into the box of a fresh zero array.  The box's
    non-empty cells count as `candidate_checks`.  No bitmap is read and
    `store` is not used.

    Why a scan and not :func:`leaf_query_bitmaps`, which decodes bitmaps
    of the whole leaf: on one 2-D float64 chunk of 4096 cells with 16
    bins, the whole chunk in the box (best of 10, a 2-CPU x86-64 host),
    one run took 22-24 us from one decoded bitmap, 34-38 us from two and
    about 14 us by the scan, and every leaf of the `perfbench` workloads
    has 4096 cells.  At 1048576 cells one decode (544-728 us) beats the
    scan (about 1100 us), but no workload has leaves that large.
    """
    runs = _overlapping(runs, leaf)
    if not runs:
        return np.zeros(chunk.cell_count, bool)
    box = _box(chunk, dim_ranges)
    nonempty = chunk.nonempty[box]
    out = np.zeros(chunk.shape, bool)
    if any(lo <= leaf.amin and leaf.amax <= hi for lo, hi in runs):
        out[box] = nonempty
        return out.reshape(-1)
    hits = _match_runs(chunk.values[attr][box], runs, leaf, chunk.cell_count)
    hits &= nonempty
    out[box] = hits
    if stats is not None:
        stats.leaves_scanned += 1
        stats.candidate_checks += int(np.count_nonzero(nonempty))
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# ingestion


def write_raw(header_path, schema: ArraySchema, data: dict, origin=None) -> None:
    """Write one block of dense row-major data plus its sidecar header.

    If the header already exists, the block is appended and extents grow to
    cover it; otherwise a fresh single-block header is written.
    """
    header_path = Path(header_path)
    origin = tuple(int(o) for o in (origin or (0,) * schema.ndim))
    shape = tuple(next(iter(data.values())).shape)
    stem = header_path.stem + "".join(f"_{o}" for o in origin)
    files = {}
    for name, typ in schema.attributes:
        fname = f"{stem}.{name}.bin"
        arr = np.ascontiguousarray(data[name], dtype=_DTYPES[typ])
        if tuple(arr.shape) != shape:
            raise InputError("all attribute blocks must share one shape")
        arr.astype("<f8" if typ == "float64" else "<i8").tofile(header_path.parent / fname)
        files[name] = fname
    block = {"origin": list(origin), "shape": list(shape), "files": files}
    if header_path.exists():
        head = json.loads(header_path.read_text())
        head["blocks"].append(block)
        head["dims"] = [
            [n, max(e, o + s)]
            for (n, e), o, s in zip(
                ((n, e) for n, e in head["dims"]), origin, shape
            )
        ]
    else:
        empty = {
            name: (None if typ == "float64" and np.isnan(schema.empty_value(name))
                   else schema.empty_value(name))
            for name, typ in schema.attributes
        }
        head = {
            "format": "arraybit-raw-v1",
            "dims": [[n, max(e, o + s)] for (n, e), o, s in zip(schema.dims, origin, shape)],
            "attributes": [list(a) for a in schema.attributes],
            "empty": empty,
            "chunk_shape": list(schema.chunk_shape),
            "blocks": [block],
        }
    header_path.write_text(json.dumps(head, indent=1))


def read_header(header_path) -> tuple:
    """Parse a sidecar header; returns (schema, blocks)."""
    header_path = Path(header_path)
    try:
        head = json.loads(header_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read header {header_path}: {exc}") from exc
    if head.get("format") != "arraybit-raw-v1":
        raise DataError(f"{header_path} is not an arraybit raw header")
    empty = {
        k: (float("nan") if v is None else v) for k, v in head.get("empty", {}).items()
    }
    schema = ArraySchema(
        tuple((n, e) for n, e in head["dims"]),
        tuple((n, t) for n, t in head["attributes"]),
        tuple(head["chunk_shape"]),
        empty,
    )
    return schema, head["blocks"]


def load_store(header_path, chunk_shape=None) -> ChunkStore:
    """Load every block referenced by a header into one chunked store."""
    header_path = Path(header_path)
    schema, blocks = read_header(header_path)
    if chunk_shape is not None:
        schema = ArraySchema(schema.dims, schema.attributes, chunk_shape, schema.empty_values)
    data = {
        name: np.full(schema.shape, schema.empty_value(name), _DTYPES[typ])
        for name, typ in schema.attributes
    }
    for block in blocks:
        origin = tuple(block.get("origin", (0,) * schema.ndim))
        shape = tuple(block["shape"])
        sl = tuple(slice(o, o + s) for o, s in zip(origin, shape))
        for name, typ in schema.attributes:
            path = header_path.parent / block["files"][name]
            try:
                raw = np.fromfile(path, dtype="<f8" if typ == "float64" else "<i8")
            except OSError as exc:
                raise DataError(f"cannot read {path}: {exc}") from exc
            if raw.size != int(np.prod(shape)):
                raise DataError(f"{path}: expected {np.prod(shape)} cells, got {raw.size}")
            data[name][sl] = raw.reshape(shape)
    return ChunkStore.from_dense(schema, data)


def ingest_csv(path, schema: ArraySchema) -> ChunkStore:
    """Load `d_1,...,d_n,a_1,...,a_m` lines (header row optional)."""
    path = Path(path)
    ncoords = schema.ndim
    names = [n for n, _ in schema.attributes]
    data = {
        name: np.full(schema.shape, schema.empty_value(name), _DTYPES[typ])
        for name, typ in schema.attributes
    }
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and not _is_number(parts[0]):
                continue  # header row
            if len(parts) != ncoords + len(names):
                raise DataError(f"{path}:{lineno}: expected {ncoords + len(names)} fields")
            try:
                cell = tuple(int(p) for p in parts[:ncoords])
                for name, raw in zip(names, parts[ncoords:]):
                    if raw != "":
                        data[name][cell] = float(raw)
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return ChunkStore.from_dense(schema, data)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
