"""Array data model: schema, regular grid chunking, ingestion, the leaf
of each chunk and its exact resolution, and the binned bitmap index of the
linearized baseline.

A chunk's leaf is the index tree's level-0 node: the chunk's coordinates
and extent, its value range, its non-empty count and, above a size
threshold, the equi-depth binning of its values, which feeds its parent's
merged bins.  Unlike the source paper's leaves it holds no bitmaps: the
paper's leaf bitmaps spare reading cell values from disk, while here every
chunk is resident and a partial leaf is resolved by a scan of the query's
box in its chunk (:func:`leaf_query`).  Bitmaps over cells remain only in
:class:`BinnedBitmapIndex`, the dims-as-attributes comparator's index.

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
from typing import NamedTuple

import numpy as np

from .binning import Binning, equi_depth_exact
from .bitvec import BitVector
from .errors import DataError, InputError

_DTYPES = {"float64": np.float64, "int64": np.int64}


@dataclass
class QueryStats:
    """Operational counters collected while answering a query.

    nodes_fetched counts the tree nodes the descent fetched, leaves
    included.  leaves_scanned counts the partial leaves that
    :func:`leaf_query` resolved by a scan of the query's box, every one
    whose runs neither miss nor cover it.  candidate_checks counts the
    cells whose value was compared: every non-empty cell of a scanned box,
    and the candidates of `baseline.DimsAttsIndex`.  Bitmap fetches come
    only from that baseline, whose queries read bitmaps: bitmap_fetches
    counts those fetched for bin spans, and candidate_bitmap_fetches those
    fetched only to isolate the boundary bins of the candidate check.  The
    tree's queries fetch none.
    """

    nodes_evaluated: int = 0
    nodes_fetched: int = 0
    bitmap_fetches: int = 0
    candidate_bitmap_fetches: int = 0
    candidate_checks: int = 0
    leaves_scanned: int = 0


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


def _nonempty_mask(block, typ, sentinel):
    if typ == "float64":
        if np.isnan(sentinel):
            return ~np.isnan(block)
        return block != sentinel
    return block != sentinel


# ---------------------------------------------------------------------------
# chunk leaves, and the binned bitmap index of the linearized baseline

# one pass of the leaf builder sorts at most this many cells; a single row
# may exceed it
_BATCH_CELLS = 1 << 20


class Leaf(NamedTuple):
    """One chunk's leaf, the level-0 node of the index tree: the chunk's
    grid coordinates and global cell extent ((lo, hi) per dimension), the
    least and greatest non-empty value, the non-empty cell count, and the
    equi-depth binning of the values, None for a plain leaf.  The binning's
    bins and weights feed the parent's merged bins; the leaf keeps no
    bitmaps, since a query scans the resident chunk itself
    (:func:`leaf_query`)."""

    coords: tuple
    extent: tuple
    amin: float
    amax: float
    count: int
    binning: Binning | None = None


def _bin_rows(ordered: np.ndarray, live: np.ndarray, bins: int) -> tuple:
    """:func:`equi_depth_exact` of each row of a (rows, cells) array sorted
    along its rows, whose empty cells are NaN (they sort last); `live`
    counts each row's non-empty cells."""
    if not live.all():
        raise InputError("cannot index an all-empty column")
    if np.isnan(ordered[np.arange(live.size), live - 1]).any():
        raise InputError("cannot index NaN values")
    return equi_depth_exact(ordered, live, bins)


def build_leaf_index(chunks, attr: str, bins: int, e: int = 4) -> list:
    """The leaf of each chunk, in order: None for a chunk with no non-empty
    cell, a plain `Leaf` below e*bins non-empty cells, else a `Leaf` with
    the equi-depth binning of its values (integers binned as float64).
    Chunks of one cell count are binned together, one sort per pass of up
    to _BATCH_CELLS cells."""
    leaves = [None] * len(chunks)
    by_size: dict = {}
    for i, chunk in enumerate(chunks):
        n = chunk.nonempty_count
        if n == 0:
            continue
        if n < e * bins:
            live = chunk.values_flat(attr)[chunk.nonempty.reshape(-1)]
            leaves[i] = Leaf(chunk.coords, chunk.extent, float(live.min()), float(live.max()), n)
        else:
            by_size.setdefault(chunk.nonempty.size, []).append(i)
    for ncells, members in by_size.items():
        step = max(1, _BATCH_CELLS // ncells)
        for a in range(0, len(members), step):
            part = members[a : a + step]
            # the batch's one copy: stacked as float64, emptied to NaN and
            # sorted in place
            cells = np.stack([chunks[i].values_flat(attr) for i in part], dtype=np.float64)
            nonempty = np.stack([chunks[i].nonempty.reshape(-1) for i in part])
            np.copyto(cells, np.nan, where=~nonempty)
            cells.sort(axis=1)
            binnings, _, _ = _bin_rows(cells, nonempty.sum(axis=1), bins)
            for i, binning in zip(part, binnings):
                c, bounds = chunks[i], binning.boundaries
                leaves[i] = Leaf(c.coords, c.extent, float(bounds[0]), float(bounds[-1]),
                                 c.nonempty_count, binning)
    return leaves


def _windows(encoding: str, k: int) -> list:
    """The bins [a, b) of each bitmap of a column with k bins."""
    if encoding == "equality":
        return [(j, j + 1) for j in range(k)]
    if encoding == "range":
        return [(0, j) for j in range(1, k)]
    if encoding == "interval":
        m = -(-k // 2)
        return [(s, s + m) for s in range(m)]
    raise InputError(f"unknown encoding {encoding!r}")


class BinnedBitmapIndex:
    """Equi-depth binned bitmaps over one value column in a fixed cell
    order: the attribute and dimension indexes of the linearized baseline
    (`baseline.DimsAttsIndex`).

    Encodings:
      equality  one bitmap per bin (|B| bitmaps)
      range     cumulative prefixes, |B|-1 bitmaps (the full prefix is the
                non-empty mask itself)
      interval  sliding windows of ceil(|B|/2) consecutive bins,
                ceil(|B|/2) bitmaps; any contiguous bin range is two fetches

    `ebm` is the non-empty mask and `bitmaps` the encoded bitmaps.
    """

    __slots__ = ("binning", "encoding", "span_lo", "span_hi", "length", "amin", "amax", "ebm",
                 "bitmaps")

    def __init__(self, binning, encoding, span_lo, span_hi, ebm: BitVector, bitmaps: list):
        self.binning = binning
        self.encoding = encoding
        self.span_lo = span_lo
        self.span_hi = span_hi
        self.length = len(ebm)
        self.amin = float(span_lo[0])
        self.amax = float(span_hi[-1])
        self.ebm = ebm
        self.bitmaps = bitmaps

    @property
    def nbins(self) -> int:
        return self.binning.nbins

    @classmethod
    def build(cls, values: np.ndarray, nonempty: np.ndarray, bins: int,
              encoding: str) -> "BinnedBitmapIndex":
        """Index one value column over its non-empty cells; integer values
        are binned as float64.

        Bin j holds the cells x with t_j <= x < t_j+1, where t_0 is -inf,
        t_k is +inf inclusive and the others are the binning's inner
        boundaries.  Each cell's bin is found once, and each bitmap is its
        bin range compared with that and encoded on its own.
        """
        cells = np.where(nonempty, values, np.nan)
        (binning,), span_lo, span_hi = _bin_rows(
            np.sort(cells)[None], np.array([np.count_nonzero(nonempty)]), bins)
        at = np.searchsorted(binning.boundaries[1:-1], cells, side="right")
        at[~nonempty] = -1
        windows = _windows(encoding, binning.nbins)
        bitmaps = [BitVector.from_dense((at >= a) & (at < b)) for a, b in windows]
        return cls(binning, encoding, span_lo, span_hi, BitVector.from_dense(nonempty), bitmaps)

    # -- bin-range evaluation ------------------------------------------

    def _get(self, j: int, stats, candidate: bool) -> BitVector:
        if stats is not None:
            if candidate:
                stats.candidate_bitmap_fetches += 1
            else:
                stats.bitmap_fetches += 1
        return self.bitmaps[j]

    def bins_bitmap(self, a: int, b: int, stats=None, candidate=False) -> BitVector:
        """Cells whose bin lies in [a, b]: at most two fetched bitmaps (plus
        the non-empty mask), except equality."""
        if a > b:
            return BitVector.zeros(self.length)
        k = self.nbins
        if a == 0 and b == k - 1:
            return self.ebm

        def get(j):
            return self._get(j, stats, candidate)

        if self.encoding == "equality":
            out = get(a)
            for j in range(a + 1, b + 1):
                out = out | get(j)
            return out
        if self.encoding == "range":
            hi = self.ebm if b == k - 1 else get(b)
            return hi if a == 0 else hi.andnot(get(a - 1))
        # interval windows: W_s covers bins [s, s + m - 1]
        m = -(-k // 2)

        def prefix(p):  # bins [0, p], p < k - 1
            if p <= m - 2:
                return get(0).andnot(get(p + 1))
            if p == m - 1:
                return get(0)
            return get(0) | get(p + 1 - m)

        if a == 0:
            return prefix(b)
        if b == k - 1:
            return self.ebm.andnot(prefix(a - 1))
        if b - a + 1 > m:
            return get(a) | get(b + 1 - m)
        if b <= m - 2:
            return get(a).andnot(get(b + 1))
        if b == m - 1:
            return get(a) & get(0)
        if a >= m:
            return get(b + 1 - m).andnot(get(a - m))
        return get(a) & get(b + 1 - m)

    def range_query(self, lo: float, hi: float, stats=None):
        """Split [lo, hi] into (certain hits, candidate cells to verify)."""
        k = self.nbins
        amin, amax = self.amin, self.amax
        if hi < amin or lo > amax:
            zeros = BitVector.zeros(self.length)
            return zeros, zeros
        bounds = self.binning.boundaries
        lo_bin = 0 if lo <= amin else min(int(np.searchsorted(bounds, lo, "right")) - 1, k - 1)
        hi_bin = k - 1 if hi >= amax else min(int(np.searchsorted(bounds, hi, "right")) - 1, k - 1)
        cand_bins = []
        if not lo <= self.span_lo[lo_bin]:
            cand_bins.append(lo_bin)
        if not hi >= self.span_hi[hi_bin] and hi_bin not in cand_bins:
            cand_bins.append(hi_bin)
        span = self.bins_bitmap(lo_bin, hi_bin, stats)
        if not cand_bins:
            return span, BitVector.zeros(self.length)
        cand = self.bins_bitmap(cand_bins[0], cand_bins[0], stats, candidate=True)
        for j in cand_bins[1:]:
            cand = cand | self.bins_bitmap(j, j, stats, candidate=True)
        return span.andnot(cand), cand

    def size_bytes(self) -> int:
        n = len(self.ebm.to_bytes())
        n += sum(len(b.to_bytes()) for b in self.bitmaps)
        n += self.binning.boundaries.nbytes + self.binning.weights.nbytes
        n += self.span_lo.nbytes + self.span_hi.nbytes
        return n


def in_runs(vals: np.ndarray, runs) -> np.ndarray:
    """Mask of `vals` lying in any of the sorted, disjoint inclusive runs."""
    los = np.array([lo for lo, _ in runs])
    his = np.array([hi for _, hi in runs])
    i = np.searchsorted(los, vals, side="right") - 1
    return (i >= 0) & (vals <= his[np.maximum(i, 0)])


def _overlapping(runs, leaf) -> list:
    return [(lo, hi) for lo, hi in runs if hi >= leaf.amin and lo <= leaf.amax]


def _box(chunk: Chunk, dim_runs) -> tuple:
    """The chunk-local box from the first run's low to the last run's high
    end per dimension, clipped to the chunk, and the box's non-empty cells
    that lie in the runs: a 1-D slab mask is ANDed only for a dimension
    with more than one run.  (Plain comparisons, not min and max: this runs
    once per resolved leaf.)"""
    box, slabs = [], []
    ndim = len(chunk.shape)
    for runs, o, s in zip(dim_runs, chunk.offsets, chunk.shape):
        if runs is None:
            box.append(slice(0, s))
            continue
        lo, hi = runs[0][0] - o, runs[-1][1] + 1 - o
        if lo < 0:
            lo = 0
        if hi > s:
            hi = s
        if hi < lo:
            hi = lo
        if len(runs) > 1:
            slab = np.zeros(hi - lo, bool)
            for a, b in runs:
                slab[max(a - o - lo, 0) : max(b + 1 - o - lo, 0)] = True
            d = len(box)
            slabs.append(slab.reshape([-1 if i == d else 1 for i in range(ndim)]))
        box.append(slice(lo, hi))
    box = tuple(box)
    nonempty = chunk.nonempty[box]
    for slab in slabs:
        nonempty = nonempty & slab
    return box, nonempty


def _int_base(amin: float, amax: float, cells: int):
    """The integer at the first entry of a lookup table over [amin, amax]
    of an integer column, or None when no table of at most `cells` entries
    spans it exactly in float64.  The base is 0 when 0..amax fits, so the
    values index the table unshifted; else amin."""
    if 0 <= amin and amax < cells:
        return 0
    if amax - amin + 1 <= cells and -2**53 <= amin and amax <= 2**53:
        return int(amin)
    return None


def _spans(runs, amin: float, amax: float, base: int) -> list:
    """The integers of each run within [amin, amax], as inclusive offsets
    from `base`; a run holding none gives a > b."""
    return [(math.ceil(max(lo, amin)) - base, math.floor(min(hi, amax)) - base)
            for lo, hi in runs]


def _lut(spans, size: int) -> np.ndarray:
    lut = np.zeros(size, bool)
    for a, b in spans:
        if a <= b:
            lut[a : b + 1] = True
    return lut


def _match_runs(vals: np.ndarray, runs, leaf, cell_count: int) -> np.ndarray:
    """Fresh mask of `vals` lying in the runs, exact for the values within
    [amin, amax] of the leaf; others (empty cells) may match.

    One run takes two comparisons.  More runs take a lookup table over
    [amin, amax] when :func:`_int_base` allows one for the chunk's
    `cell_count`, else :func:`in_runs`.
    """
    amin, amax = leaf.amin, leaf.amax
    base = _int_base(amin, amax, cell_count) if vals.dtype.kind == "i" else None
    if base is None:
        if len(runs) == 1:
            lo, hi = runs[0]
            return (vals >= lo) & (vals <= hi)
        return in_runs(vals, runs)
    spans = _spans(runs, amin, amax, base)
    if len(spans) == 1:  # integer bounds: the values are not converted to float
        a, b = spans[0]
        return (vals >= base + a) & (vals <= base + b)
    return _lut(spans, int(amax) - base + 1).take(vals - base if base else vals, mode="clip")


def run_matcher(runs, integral: bool, amin: float, amax: float, cells: int):
    """How the leaves of one query match their values against its runs: a
    function of (values, the leaf's runs, leaf, chunk cell count) giving a
    fresh mask, exact for the leaf's non-empty values.

    For an integer column and two or more runs, one lookup table over the
    column's [amin, amax], built here once, when :func:`_int_base` allows
    one for `cells`, the cells the query scans at most; every leaf then
    matches with one `take`.  Otherwise each leaf matches by its own rules
    (:func:`_match_runs`).
    """
    base = _int_base(amin, amax, cells) if integral and len(runs) > 1 else None
    if base is None:
        return _match_runs
    lut = _lut(_spans(runs, amin, amax, base), int(amax) - base + 1)

    def match(vals, leaf_runs, leaf, cell_count):
        return lut.take(vals - base if base else vals, mode="clip")

    return match


def leaf_query(
    chunk: Chunk,
    leaf,
    attr: str,
    runs,
    dim_runs,
    stats: QueryStats | None = None,
    match=_match_runs,
) -> np.ndarray:
    """Exact matching cells of one chunk inside the query's box, as a
    boolean array of the box's shape.

    runs are the attribute constraint as sorted, disjoint inclusive
    (lo, hi) value runs: one run for a range query, one per value (or per
    stretch of consecutive integers) for a membership query.  dim_runs
    hold per dimension the sorted, disjoint inclusive (lo, hi) index runs
    in array coordinates, which may reach past the chunk (None for the
    chunk's whole extent); the chunk's offsets make them local.  The box
    spans them, clipped to the chunk (see :func:`_box`), and a dimension
    with more than one run also masks it by a 1-D slab.  The chunk's
    arrays are only read: the answer is a fresh array, or for a leaf that
    a run covers the box's non-empty mask, which may be a read-only view
    of the chunk's.

    Runs that miss [amin, amax] of the leaf are dropped; with none left no
    cell hits.  A run covering [amin, amax] answers with the non-empty
    cells of the box in the dimension runs.  Otherwise the values in the
    box are scanned by `match`: per leaf, one run by two comparisons and
    several by a lookup table over [amin, amax] or by :func:`in_runs` (see
    :func:`_match_runs`), or one table for the whole query
    (:func:`run_matcher`).  The non-empty cells of the box in the
    dimension runs count as `candidate_checks`.  No bitmap is read.

    Leaves hold no bitmaps to resolve from: the source paper's leaf
    bitmaps spare reading cell values from disk, and here every chunk is
    resident.  On one 2-D float64 chunk of 4096 cells with 16 bins, the
    whole chunk in the box (best of 10, a 2-CPU x86-64 host), one run took
    22-24 us from one decoded bitmap, 34-38 us from two and about 14 us by
    the scan; a whole bitmap resolver (span and candidate bitmaps, their
    ANDs and the candidate check) lost to the scan at every chunk size from
    64x64 to 1024x1024 cells.
    """
    runs = _overlapping(runs, leaf)
    box, nonempty = _box(chunk, dim_runs)
    if not runs:
        return np.zeros(nonempty.shape, bool)
    if any(lo <= leaf.amin and leaf.amax <= hi for lo, hi in runs):
        return nonempty
    hits = match(chunk.values[attr][box], runs, leaf, chunk.cell_count)
    hits &= nonempty
    if stats is not None:
        stats.leaves_scanned += 1
        stats.candidate_checks += int(np.count_nonzero(nonempty))
    return hits


# ---------------------------------------------------------------------------
# ingestion


def write_raw(header_path, schema: ArraySchema, data: dict, origin=None) -> None:
    """Write one block of dense row-major data plus its sidecar header.

    If the header already exists, the block is appended and extents grow to
    cover it; otherwise a fresh single-block header is written.  InputError,
    before any file is written, for a header of other dimensions or
    attributes, or a block at an origin the header already lists, whose
    files it would overwrite.
    """
    header_path = Path(header_path)
    origin = tuple(int(o) for o in (origin or (0,) * schema.ndim))
    arrays = {name: np.ascontiguousarray(data[name], dtype=_DTYPES[typ])
              for name, typ in schema.attributes}
    shape = next(iter(arrays.values())).shape
    if any(arr.shape != shape for arr in arrays.values()):
        raise InputError("all attribute blocks must share one shape")
    head = None
    if header_path.exists():
        held, blocks = read_header(header_path)
        if held.dim_names != schema.dim_names or held.attributes != schema.attributes:
            raise InputError(f"{header_path} holds an array of other dimensions or attributes")
        if any(tuple(b["origin"]) == origin for b in blocks):
            raise InputError(f"{header_path} already holds a block at origin {list(origin)}")
        head = json.loads(header_path.read_text())
    stem = header_path.stem + "".join(f"_{o}" for o in origin)
    files = {}
    for name, typ in schema.attributes:
        fname = f"{stem}.{name}.bin"
        arr = arrays[name].astype("<f8" if typ == "float64" else "<i8")
        arr.tofile(header_path.parent / fname)
        files[name] = fname
    block = {"origin": list(origin), "shape": list(shape), "files": files}
    if head is not None:
        head["blocks"].append(block)
        head["dims"] = [[n, max(e, o + s)] for (n, e), o, s in zip(head["dims"], origin, shape)]
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


def _ints(value, n: int | None = None) -> bool:
    """Whether a JSON value is a list of integers (of length n if given)."""
    return (isinstance(value, list) and (n is None or len(value) == n)
            and all(type(v) is int for v in value))


def _pairs(value, second: type) -> bool:
    """Whether a JSON value is a list of [name, value] pairs."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and type(p[1]) is second
        for p in value)


_HEADER_FIELDS = (
    ("dims", lambda v: _pairs(v, int), "a list of [name, extent] pairs"),
    ("attributes", lambda v: _pairs(v, str), "a list of [name, type] pairs"),
    ("chunk_shape", _ints, "a list of integers"),
    ("blocks", lambda v: isinstance(v, list) and all(isinstance(b, dict) for b in v),
     "a list of blocks"),
)


def read_header(header_path) -> tuple:
    """Parse a sidecar header; returns (schema, blocks), every block with
    its origin.  DataError, naming the field, for a field that is missing
    or of the wrong form, a schema the fields do not make, or a block whose
    rank is not the array's or that reaches past its extents."""
    header_path = Path(header_path)
    try:
        head = json.loads(header_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read header {header_path}: {exc}") from exc
    if not isinstance(head, dict) or head.get("format") != "arraybit-raw-v1":
        raise DataError(f"{header_path} is not an arraybit raw header")
    for key, ok, form in _HEADER_FIELDS:
        if key not in head:
            raise DataError(f"{header_path}: header field {key!r} is missing")
        if not ok(head[key]):
            raise DataError(f"{header_path}: header field {key!r} is not {form}")
    empty = head.get("empty", {})
    if not isinstance(empty, dict) or not all(
            v is None or type(v) in (int, float) for v in empty.values()):
        raise DataError(f"{header_path}: header field 'empty' is not a map to numbers or null")
    try:
        schema = ArraySchema(
            tuple(map(tuple, head["dims"])),
            tuple(map(tuple, head["attributes"])),
            tuple(head["chunk_shape"]),
            {k: (float("nan") if v is None else v) for k, v in empty.items()},
        )
    except InputError as exc:
        raise DataError(f"{header_path}: header schema: {exc}") from None
    blocks = []
    for i, block in enumerate(head["blocks"]):
        origin, shape = block.get("origin", [0] * schema.ndim), block.get("shape")
        for key, value in (("origin", origin), ("shape", shape)):
            if not _ints(value, schema.ndim):
                raise DataError(f"{header_path}: blocks[{i}].{key} is missing or not "
                                f"{schema.ndim} integers")
        files = block.get("files")
        if not isinstance(files, dict) or not all(
                isinstance(files.get(name), str) for name, _ in schema.attributes):
            raise DataError(f"{header_path}: blocks[{i}].files does not name a file for "
                            "every attribute")
        if any(o < 0 or s < 0 or o + s > e for o, s, e in zip(origin, shape, schema.shape)):
            raise DataError(f"{header_path}: blocks[{i}] at origin {origin} of shape {shape} "
                            f"reaches past the extents {list(schema.shape)}")
        blocks.append({**block, "origin": origin})
    return schema, blocks


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
        origin, shape = block["origin"], block["shape"]
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
