"""Ground-truth full scan and the linearized dimension-as-attribute
baseline index used for correctness checks and comparative benchmarks.

The baseline materializes one integer auxiliary column per dimension over
the row-major linearized array and bitmap-indexes each column plus the
attribute.  Candidate checks read the stored auxiliary columns, and those
columns count toward the index size, exactly as a relational bitmap engine
would pay for them.  It is the source paper's comparator, and the only
index here that keeps bitmaps over cells: the tree's leaves keep none
(see `chunkstore`), so a size ratio of the two compares a tree without
leaf bitmaps with a bitmap index.

This module owns that bitmap index (:class:`BinnedBitmapIndex`, with its
three encodings); it and `bitvec` are the only code that knows the bitmap
encoding.  It bins a column by `binning.equi_depth_exact`, as the leaf
builder bins a chunk.
"""

from __future__ import annotations

import numpy as np

from .binning import Binning, equi_depth_exact
from .bitvec import BitVector
from .chunkstore import ArraySchema, ChunkStore, QueryStats, in_runs
from .errors import InputError
from .query import Query

__all__ = ["full_scan", "DimsAttsIndex", "dimension_column"]


def full_scan(store: ChunkStore, attribute: str, query: Query) -> np.ndarray:
    """Reference answer: test every non-empty cell against all constraints,
    comparing it with each run of each axis.

    Returns sorted global row-major cell ids.
    """
    schema = store.schema
    parts = []
    for chunk in store.iter_chunks():
        vals = chunk.values[attribute]
        mask = np.zeros(vals.shape, bool)
        for lo, hi in query.attr_runs:
            mask |= (vals >= lo) & (vals <= hi)
        mask &= chunk.nonempty
        for d, runs in enumerate(query.dim_ranges):
            idx = np.arange(chunk.shape[d]) + chunk.offsets[d]
            keep = np.zeros(idx.size, bool)
            for qlo, qhi in runs:
                keep |= (idx >= qlo) & (idx <= qhi)
            mask &= keep.reshape([-1 if i == d else 1 for i in range(schema.ndim)])
        pos = np.flatnonzero(mask.reshape(-1))
        if pos.size:
            local = np.unravel_index(pos, chunk.shape)
            coords = tuple(l + o for l, o in zip(local, chunk.offsets))
            parts.append(np.ravel_multi_index(coords, schema.shape))
    if not parts:
        return np.empty(0, np.int64)
    return np.sort(np.concatenate(parts)).astype(np.int64)


def dimension_column(schema: ArraySchema, d: int) -> np.ndarray:
    """The auxiliary attribute for dimension d over the linearized array."""
    n = int(np.prod(schema.shape))
    stride = int(np.prod(schema.shape[d + 1 :]))
    return (np.arange(n) // stride) % schema.shape[d]


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
    order: the attribute and dimension indexes of :class:`DimsAttsIndex`.

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
        live, ordered = np.count_nonzero(nonempty), np.sort(cells)
        if not live or np.isnan(ordered[live - 1]):  # NaN sorts last
            raise InputError("cannot index NaN values" if live else "cannot index an empty column")
        _, bounds, weights, span_lo, span_hi = equi_depth_exact(ordered[None], [live], bins)
        binning = Binning(bounds, weights)
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



class DimsAttsIndex:
    """Bitmap indexes over the attribute and one auxiliary column per
    dimension, all on the row-major linearization of the array."""

    def __init__(self, store: ChunkStore, attribute: str | None = None,
                 bins: int = 32, encoding: str = "range"):
        schema = store.schema
        self.attribute = attribute or schema.attributes[0][0]
        self.bins = bins
        self.encoding = encoding
        self.values = store.dense(self.attribute).reshape(-1)
        nonempty = store.nonempty_dense().reshape(-1)
        self.attr_index = BinnedBitmapIndex.build(self.values, nonempty, bins, encoding)
        self.dim_columns = []
        self.dim_indexes = []
        every = np.ones(self.values.size, bool)
        for d in range(schema.ndim):
            col = dimension_column(schema, d).astype(np.int64)
            self.dim_columns.append(col)
            self.dim_indexes.append(
                BinnedBitmapIndex.build(col.astype(np.float64), every, bins, encoding)
            )

    def size_bytes(self) -> int:
        """The attribute's index (its non-empty mask included), and each
        dimension's auxiliary column and index."""
        n = self.attr_index.size_bytes()
        for col, idx in zip(self.dim_columns, self.dim_indexes):
            n += col.nbytes + idx.size_bytes()
        return n

    def query(self, query: Query, stats: QueryStats | None = None) -> np.ndarray:
        """Exact matching cells as sorted global row-major ids.

        Each constraint (the attribute and every dimension) is a list of
        runs; its certain and possible cells are ORed over its runs with
        one `range_query` each, and the constraints are ANDed.  Cells that
        are possible but not certain are checked against the stored values.
        """
        constraints = [(self.attr_index, query.attr_runs, self.values)]
        constraints += zip(self.dim_indexes, query.dim_ranges, self.dim_columns)
        if not all(runs for _, runs, _ in constraints):  # a constraint meets no cell
            return np.empty(0, np.int64)
        certain = possible = None
        for idx, runs, _ in constraints:
            cert = poss = None
            for lo, hi in runs:
                c, cand = idx.range_query(float(lo), float(hi), stats)
                cert = c if cert is None else (cert | c)
                poss = (c | cand) if poss is None else (poss | c | cand)
            certain = cert if certain is None else (certain & cert)
            possible = poss if possible is None else (possible & poss)
        hits = [certain.to_positions()]
        pos = possible.andnot(certain).to_positions()
        if pos.size:
            if stats is not None:
                stats.candidate_checks += pos.size
            ok = np.ones(pos.size, bool)
            for _, runs, column in constraints:
                ok &= in_runs(column[pos], runs)
            hits.append(pos[ok])
        return np.sort(np.concatenate(hits)).astype(np.int64)
