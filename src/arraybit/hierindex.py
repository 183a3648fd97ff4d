"""The n-dimensional index tree: Z-order layout, double range encoded
internal nodes, precomputed dimension bitmaps, persistence and appending.

Node-level bitmaps have exactly F bits (one per child slot) and are kept
uncompressed as plain integers.  Each level is one column table
(`Index.tables`): the columns it is saved as, and those a load derives
from them.  A leaf is a row of the leaf table: its chunk's z, extent,
value range, count and equi-depth bins, all but z and extent from
`chunkstore.build_leaf_index`.  It holds
no bitmaps over cells, since every chunk is resident and a query scans it
(`chunkstore.leaf_query`).
A node is addressed by (level, row) in its level's table, whose rows lie
in z order; a parent's z is its children's z >> slot bits.  The descent
fetches each node by row (`Index.fetch`): a leaf's row, or an internal
node's `TreeNode`, whose int masks it tests.  An internal node's children
are one run of rows of the level below, from its `first` (a column derived
with the others, never saved), in slot order, so the child in slot s is
row `first` plus the number of children in the slots below s.  A
`TreeNode` is made from its row the first time it is fetched
(`Index._maker`) and kept in its level's row-indexed cache, so a load, a
build or an append makes none; once made, a fetch is one list lookup.
Leaf resolution finds each leaf's chunk through one z join of the leaf
table with the store's chunk arrays (`Index._join`), which `Index.attach`
checks and keeps.

A tree is only ever grown: `Index._grow` merges the leaf rows of some
chunks into the leaf table by z and derives each level above whole from
the one below.  `build_index` grows an empty tree by every chunk of a
store, `Index.append` a tree by the chunks it is given.  A level is made
in one pass: one `build_internal_node` call makes the bins of every parent
whose children changed, the one heuristic part of a node, by one
`_spread_weights` over all their children and then a merge per parent;
`_derive_parents` derives everything else its children fix, for all the
level's parents at once; and `serialize` writes of each table the columns
no other column gives (`_table_bytes`).

Saved format, version 5.  Integers and floats are little-endian; every
table column starts on a multiple of 8 bytes.

  preamble   24 bytes: b"ABIX", u32 version, u32 crc, u32 levels,
             u64 metadata length
  directory  per level, leaves first: u64 nodes, u64 table offset,
             u64 table size
  metadata   JSON: the schema (`ArraySchema.to_json`) and the build
             parameters
  tables     one run of columns per level, n rows each in z order:
               leaves        z Z[n], amin f64[n], amax f64[n],
                             count C[n], nbins B[n] (k, 0 for a plain
                             leaf), then per binned leaf its k - 1 inner
                             boundaries f64, then its k weights C
               above them    nbins B[n] (k), then per node its k + 1
                             boundaries f64, then its k weights f64

Z, C and B are each the narrowest unsigned type (`np.min_scalar_type`)
that holds the largest value the metadata allows: Z the greatest z-index,
F**depth - 1 for F children per node; C a chunk's cell count, which bounds
a leaf's count and each of its weights; B the parameter `bins`.  A leaf's
first and last boundary are its amin and amax, bit for bit, and are not
saved; an internal node's are, as its amin and amax, derived from its
children, may hold the other signed zero.

crc is the CRC32 of bytes 0-7 and of bytes 12 to the end of the file.

A file holds each fact once.  `Index.load` reads version 5 only: a file of
another version fails with DataError, and is rebuilt from its data by
`arraybit build`.  It checks the CRC, reads every column with
`np.frombuffer`, widens it to the type the tables hold and checks the
leaves: z increasing and inside the tree, each leaf's chunk
(`_chunk_extents` of its z, its extent) inside the array, a count the chunk
can hold, amin <= amax, and 0 bins below e * bins cells, else 1 to `bins`.
It then makes each level from the one below, as the build does: the
parents are the distinct z >> slot bits of the level below, one saved row
each, and everything but their bins comes from `_derive_parents`.  Every
node's bins must number 1 to `bins` above the leaves, increase, and weigh
what it counts; above the leaves each boundary must be the amin or amax of
one of the node's children, and the first and last its own (`_check_bins`).
That a leaf's bins run from its amin to its amax, and that its weights are
whole numbers >= 0, the layout itself holds.
The checked and derived columns are the index's tables; no node object is
made until a query fetches it.  A file left inconsistent by a wrong writer
or a hand edit fails with DataError naming the node.

What a file alone cannot prove, and so no load rule checks: a leaf's
inner bin edges and how its weights split its count, which only its
chunk's values fix; its count when no data is attached (`attach` compares
each leaf's count with its chunk's); and a leaf's amin and amax where
neither is a boundary, amin or amax of its parent.  `attach` does not
read the chunks' values, so a leaf range saved narrower than its chunk's
values loads and attaches, and a query that covers the saved range counts
the chunk's cells outside it.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import Binning, merge_bins_iterative
from .chunkstore import ArraySchema, ChunkStore, ChunkTable, build_leaf_index
from .errors import DataError, InputError, InternalError

_MAGIC = b"ABIX"
_VERSION = 5
# magic, version, crc, levels, metadata length
_PREAMBLE = struct.Struct("<4sIIIQ")
_DIRECTORY = struct.Struct("<QQQ")  # nodes, table offset, table size
# int64 values are queried and saved as float64, exact below 2**53; 2**53
# itself is refused too, as a query value 2**53 + 1 rounds onto it
_INT_BOUND = 2**53
_MAX_FANOUT = 4096  # children per node; DimensionBitmaps holds F_d x F bits a dimension


# ---------------------------------------------------------------------------
# fanout and Z-order arithmetic


@dataclass(frozen=True)
class Fanout:
    """Children per node: F total, F_d per dimension (a power of two)."""

    per_dim: int
    ndim: int

    @classmethod
    def from_total(cls, total: int, ndim: int) -> "Fanout":
        fd = 1
        while (fd * 2) ** ndim <= total:
            fd *= 2
        if fd < 2:
            raise InputError(f"fanout {total} leaves less than 2 children per dimension")
        return cls(fd, ndim)

    @property
    def total(self) -> int:
        return self.per_dim**self.ndim

    @property
    def bits(self) -> int:
        return self.per_dim.bit_length() - 1

    @property
    def slot_bits(self) -> int:
        return self.bits * self.ndim


def zorder_encode_many(coords: np.ndarray, bits: int) -> np.ndarray:
    """The z-index of each row of an (n, ndim) array of coordinates, as
    int64: their bits interleaved, dimension 0 in the least significant
    slot.  InputError for a coordinate that does not fit in `bits` bits, or
    for a z-index longer than 63 bits."""
    coords = np.asarray(coords, np.int64)
    ndim = coords.shape[1]
    if bits * ndim > 63:
        raise InputError(f"{ndim} coordinates of {bits} bits exceed a 63-bit z-index")
    bad = (coords < 0) | (coords >= 1 << bits)
    if bad.any():
        raise InputError(f"coordinate {int(coords[bad][0])} does not fit in {bits} bits")
    spread = _spread(ndim, min(bits, 8))
    z = np.zeros(coords.shape[0], np.int64)
    for d in range(ndim):
        for t in range(0, bits, 8):  # one gather per byte of the coordinate
            z |= spread[coords[:, d] >> t & 255] << (t * ndim + d)
    return z


@functools.cache
def _spread(ndim: int, bits: int) -> np.ndarray:
    """Each value of `bits` bits (8 at most) with its bits spread `ndim`
    apart, bit t moved to bit t * ndim, as int64: a read-only table."""
    values, table = np.arange(1 << bits), np.zeros(1 << bits, np.int64)
    for t in range(bits):
        table |= (values >> t & 1) << (t * ndim)
    table.flags.writeable = False
    return table


def zorder_decode_many(z: np.ndarray, ndim: int, bits: int) -> np.ndarray:
    """The coordinates of every z-index of an array, as (n, ndim) int64:
    the inverse of :func:`zorder_encode_many`."""
    z = z.astype(np.int64)
    coords = np.zeros((z.size, ndim), np.int64)
    for t in range(bits):
        for d in range(ndim):
            coords[:, d] |= (z >> (t * ndim + d) & 1) << t
    return coords


class DimensionBitmaps:
    """Precomputed child-slot masks for dimension constraints.

    partial[d][b] flags children whose d-coordinate equals bucket b;
    begin[d][b] flags coordinate >= b and end[d][b] coordinate <= b, so a
    contiguous bucket range is one AND of a begin and an end mask.
    """

    def __init__(self, fanout: Fanout):
        self.fanout = fanout
        fd, n, total = fanout.per_dim, fanout.ndim, fanout.total
        coords = zorder_decode_many(np.arange(total), n, fanout.bits)
        b, mb = np.arange(fd)[:, None], -(-total // 8)
        self.partial = [_masks(_packed(coords[:, d] == b), mb) for d in range(n)]
        self.begin = [_masks(_packed(coords[:, d] >= b), mb) for d in range(n)]
        self.end = [_masks(_packed(coords[:, d] <= b), mb) for d in range(n)]

    def bucket_range(self, d: int, lo: int, hi: int) -> int:
        """Mask of children whose d-bucket lies in [lo, hi]."""
        fd = self.fanout.per_dim
        if lo > hi or lo >= fd or hi < 0:
            return 0
        return self.begin[d][max(lo, 0)] & self.end[d][min(hi, fd - 1)]


# the masks depend only on the fanout, so every index of one fanout shares
# them; a fanout is at most 4096 children, so the cache stays small
_dimension_bitmaps = functools.cache(DimensionBitmaps)


# ---------------------------------------------------------------------------
# tree nodes


@dataclass
class TreeNode:
    """Internal node: child occupancy, merged bins and both range tables.

    Both tables have a row per bin boundary, and sp_bounds and al_bounds
    are the boundaries: sp_masks[r] is the exact set of children whose
    subtree minimum is <= boundary r, al_masks[r] those whose maximum is
    >= it.  `first` is the row of its first child in the level below; the
    child in slot s is row first + (child_mask & ((1 << s) - 1)).bit_count().
    """

    level: int
    z: int
    first: int
    extent: tuple  # ((lo, hi), ...) global cells
    amin: float
    amax: float
    count: int
    child_mask: int
    binning: Binning
    sp_bounds: np.ndarray
    sp_masks: list
    al_bounds: np.ndarray
    al_masks: list


def _spread_weights(bounds: np.ndarray, nb: np.ndarray, kids: dict, at: np.ndarray) -> np.ndarray:
    """Bin weights of the parents of one level over their bounds: each
    child's bin weights spread evenly over its bins (a point-mass child's
    weight lands in the one bin holding it), summed per bin in child order.
    Parent p has `nb[p]` bounds, back to back in `bounds`, among them every
    amin and amax of its children, and gets `nb[p] - 1` weights, back to
    back in the result.  `kids` holds the children's columns (amin, amax,
    count, nbins, bounds and weights, laid out as in the leaf table); a
    plain child is one bin [amin, amax] of weight count.  `at[i]` is child
    i's parent, nondecreasing.

    A child's cumulative weight at a bound is `np.interp` over its bin
    edges, evaluated for every (child, bound) pair at once with the same
    arithmetic.  Its slope (weight / width) overflows to inf on a
    subnormally narrow bin, so points left non-finite are placed by their
    fraction of the bin instead.  Only bounds inside a child's range can
    move its cumulative weight; every other term is an exact zero and is
    skipped, which leaves each sum unchanged.

    Passes: one search places every child's edges among its parent's
    bounds, keyed by parent; a count of those edges over the pair slots
    gives each pair's bin, whose slope is computed once per bin.  The
    retries and fixes run only on the pairs that need them.  A point mass
    has one pair, whose term is its weight, so the terms lie in child
    order; `np.bincount` sums them per bin one at a time in that order, as
    ``np.add.at`` would, so appended and full builds sum alike.  A spread
    child's first term is +0.0, which changes no sum.
    """
    k = kids["nbins"].astype(np.intp)
    plain = k == 0
    sizes = np.where(plain, 1, k)
    xoff = np.cumsum(sizes + 1) - (sizes + 1)
    xp = np.empty(int(xoff[-1] + sizes[-1] + 1))
    xp[np.repeat(~plain, sizes + 1)] = kids["bounds"]
    xp[xoff[plain]], xp[xoff[plain] + 1] = kids["amin"][plain], kids["amax"][plain]
    w = np.empty(int(sizes.sum()))
    w[np.repeat(~plain, sizes)] = kids["weights"]
    w[(xoff - np.arange(sizes.size))[plain]] = kids["count"][plain]
    padded = np.zeros((sizes.size, sizes.max()))
    padded[np.arange(sizes.max()) < sizes[:, None]] = w
    fp = np.zeros((sizes.size, sizes.max() + 1))
    np.cumsum(padded, axis=1, out=fp[:, 1:])  # each child's own running sum
    fp = fp[np.arange(sizes.max() + 1) <= sizes[:, None]]

    # each edge's rank among its parent's bounds: one search over
    # (parent, value) keys, which complex numbers order lexicographically
    start = np.cumsum(nb) - nb
    key = np.empty(bounds.size, complex)
    key.real, key.imag = np.repeat(np.arange(nb.size), nb), bounds
    parent = np.repeat(at, sizes + 1)
    edge = np.empty(xp.size, complex)
    edge.real, edge.imag = parent, xp
    rank = np.searchsorted(key, edge) - start[parent]
    i0, i1 = rank[xoff], rank[xoff + sizes]  # each child's amin and amax

    # (child, bound) pairs from its amin to its amax; one for a point mass,
    # none under a parent of one bound, which has no bins
    spread = i1 > i0
    n = np.where(spread, i1 - i0 + 1, nb[at] > 1).astype(np.intp)
    first = np.cumsum(n) - n
    shift = first - i0  # a bound's pair slot in its child, less its rank
    pc = np.repeat(np.arange(sizes.size), n)
    bi = np.arange(pc.size) + (start[at] - shift)[pc]  # each pair's bound
    x = bounds[bi]
    # each pair's bin b, its index in w: the child's bins whose lower edge
    # is at or below its bound, counted over the pair slots.  A child's
    # lower edges fall in its own slots (with no pairs, in the next child's
    # first), so the count runs on from the bins of the children before it
    lower = np.ones(xp.size, bool)
    lower[xoff + sizes] = False
    b = np.cumsum(np.bincount(np.repeat(shift, sizes) + rank[lower], minlength=pc.size + 1)
                  [: pc.size]) - 1
    g = b + pc  # its lower edge in xp
    xj, yj = xp[g], fp[g]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.interp's steps: the slope form, its retries when that is NaN,
        # then exact values at an edge and outside the child's range, which
        # only a child's first and last pair are
        slope = np.diff(fp) / np.diff(xp)  # per lower edge (and, unused, per last edge)
        cdf = slope[g] * (x - xj) + yj
        nan = np.flatnonzero(np.isnan(cdf))
        gn = g[nan]
        cdf[nan] = slope[gn] * (x[nan] - xp[gn + 1]) + fp[gn + 1]
        flat = nan[np.isnan(cdf[nan]) & (fp[gn] == fp[gn + 1])]
        cdf[flat] = yj[flat]
        cdf = np.where(x == xj, yj, cdf)
        has = n > 0
        ends = first[has]
        cdf[ends] = 0.0
        cdf[ends + n[has] - 1] = fp[(xoff + sizes)[has]]
        bad = np.flatnonzero(~np.isfinite(cdf))
        gb = g[bad]
        frac = np.clip((x[bad] - xp[gb]) / (xp[gb + 1] - xp[gb]), 0.0, 1.0)
        cdf[bad] = yj[bad] + w[b[bad]] * frac
    # a pair's term is its rise from the pair before, into the bin below
    # its bound.  A child's first is its rise from 0: +0.0 for a spread
    # child, into any bin (slot 0, dropped, if it has none below), and for a
    # point mass its weight, into the bin from its value (the last bin at
    # the last bound).  A slot is a bin's index in the result, plus one
    prev = np.empty_like(cdf)
    prev[1:] = cdf[:-1]
    prev[ends] = 0.0
    slot = bi + (np.where(spread, 0, i0 < nb[at] - 1) - at)[pc]
    return np.bincount(slot, weights=cdf - prev, minlength=int((nb - 1).sum()) + 1)[1:]


def build_internal_node(kids: dict, at: np.ndarray, bins: int) -> list:
    """The bins of the internal nodes of one level, a Binning each.  `kids`
    holds their children's rows of the level below, and `at[i]` is child
    i's node, nondecreasing from 0.  A node's bounds are its children's
    minima and maxima; one :func:`_spread_weights` spreads the children's
    weights over the bounds of every node of the level, and each node's
    bins are then merged down to at most `bins`.  A node whose children
    all hold one value gets one bin [v, v] of their count."""
    cut = np.searchsorted(at, np.arange(int(at[-1]) + 2)).tolist()
    runs = list(zip(cut[:-1], cut[1:]))  # each node's children
    # which of -0.0 and +0.0 np.unique keeps depends on the values it is
    # given, so each node's bounds come from its own children alone, alike
    # in a build and an append
    own = [np.unique(np.concatenate((kids["amin"][a:b], kids["amax"][a:b]))) for a, b in runs]
    nb = np.array([bounds.size for bounds in own])
    weights = _spread_weights(np.concatenate(own), nb, kids, at)
    out, w = [], 0
    for bounds, (a, b) in zip(own, runs):
        if bounds.size == 1:
            out.append(Binning(np.array([bounds[0], bounds[0]]),
                               np.array([float(kids["count"][a:b].sum())])))
        else:
            out.append(merge_bins_iterative(Binning(bounds, weights[w : w + bounds.size - 1]),
                                            bins))
        w += bounds.size - 1
    return out


def _chunk_extents(coords: np.ndarray, schema: ArraySchema) -> np.ndarray:
    """The extents, (n, ndim, 2) u64 inclusive lo and hi, of the chunks
    at (n, ndim) grid coordinates `coords`: the array's edge clips them."""
    cs = np.array(schema.chunk_shape)
    lo = coords * cs
    return np.stack((lo, np.minimum(lo + cs, schema.shape) - 1), axis=-1).astype("<u8")


def _take(cols: dict, rows) -> dict:
    """Rows `rows` of the leaf table, or of bin columns, in that order: the
    one-per-node columns indexed, and each node's run of the others moved
    along with it: its k + 1 boundaries (none for a plain leaf) and k
    weights."""
    k = cols["nbins"].astype(np.intp)
    runs = {"bounds": k + (k > 0), "weights": k}
    rows = np.asarray(rows, np.intp)
    out = {name: col[rows] for name, col in cols.items() if name not in runs}
    for name, n in runs.items():
        size, start = n[rows], np.cumsum(n) - n
        out[name] = cols[name][np.repeat(start[rows] - (np.cumsum(size) - size), size)
                               + np.arange(size.sum())]
    return out


def _derive_parents(kids: dict, at: np.ndarray, nbins: np.ndarray, bounds: np.ndarray,
                    fanout: Fanout) -> dict:
    """What their children fix about internal nodes, of one level or more
    laid end to end, as their table's columns: child masks, each node's
    first child's row in `kids` (`first`), counts, value ranges, extents,
    and the sp and al tables over each node's own bins.
    `kids` holds the children's z, extent, amin, amax and count columns;
    `at[i]` is child i's parent, nondecreasing, and every parent has a
    child; parent j has `nbins[j]` bins, its boundaries back to back in
    `bounds`.

    A child is in its parent's sp rows from p, the count of the parent's
    boundaries below its amin, and in its al rows before q, the count at or
    below its amax.  Both tables have a row per boundary, laid out as
    `bounds`.  Returns the columns and each child's p and q, (2, children)."""
    total, npar = fanout.total, nbins.size
    n = np.bincount(at, minlength=npar)
    first = np.cumsum(n) - n
    cell = at * total + (kids["z"] & ((1 << fanout.slot_bits) - 1)).astype(np.intp)
    child = np.zeros(npar * total, bool)
    child[cell] = True
    ext = kids["extent"]
    out = {
        "child": _packed(child.reshape(npar, total)),
        "first": first,
        "count": np.add.reduceat(kids["count"], first),
        "amin": np.minimum.reduceat(kids["amin"], first),
        "amax": np.maximum.reduceat(kids["amax"], first),
        "extent": np.where([True, False], np.minimum.reduceat(ext, first),
                           np.maximum.reduceat(ext, first)),  # least lo, greatest hi
    }
    nb = nbins.astype(np.intp) + 1
    width = int(nb.max())
    small = np.min_scalar_type(-width - 1)
    valid = np.arange(width) < nb[:, None]
    padded = np.full(valid.shape, np.nan)  # past a parent's last, below no value
    padded[valid] = bounds
    below = np.repeat(padded.T, n, axis=1)  # each child's parent's, as a column
    # each child's p and q, in table t (0 sp, 1 al)
    edge = np.empty((2, at.size), small)
    (below < kids["amin"]).sum(axis=0, out=edge[0])
    (below <= kids["amax"]).sum(axis=0, out=edge[1])
    slots = np.full((2, npar * total), [[width], [0]], small)  # no child: in no row
    slots[:, cell] = edge
    # row r of sp holds the children with p <= r, row r of al those with q > r
    kp, kr = np.nonzero(valid)
    sp, al = _packed((kr.astype(small)[:, None] >= slots.reshape(2, npar, total)[:, kp])
                     ^ np.array([False, True])[:, None, None])
    out.update(sp=sp, al=al)
    return out, edge


# ---------------------------------------------------------------------------
# the index


class Index:
    """A built tree over a chunk store, navigable by (level, row).

    `tables[l]` is level l's column table in increasing z, and
    :meth:`fetch` gives the node at a row of it: at level 0 the row
    itself, above it a `TreeNode`, made from its row the first time it is
    fetched.  A load, a build and an append make no `TreeNode`.  Leaf
    resolution finds each leaf's chunk through :meth:`leaf_chunks`, the z
    join that :meth:`attach` checks.
    """

    def __init__(self, schema, store, attribute, fanout, bins, e, tables):
        self.schema = schema
        self.store = store
        self.attribute = attribute
        self.fanout = fanout
        self.bins = bins
        self.e = e
        self.dimbitmaps = _dimension_bitmaps(fanout)
        self._use(tables)

    def _use(self, tables: list) -> None:
        """Hold `tables`, checked or just derived, with each level's nodes
        by row: the leaves' rows themselves, and a cache of None per
        internal node, each filled by its level's maker on first fetch."""
        self.tables = tables
        self._chunks = None  # (store, leaf_chunks(store))
        self._nodes = [[None] * cols["z"].size if level else range(cols["z"].size)
                       for level, cols in enumerate(tables)]
        self._make = [self._maker(level, cols) if level else None
                      for level, cols in enumerate(tables)]

    @property
    def depth(self) -> int:
        """Number of levels below the root (0 for an empty index)."""
        return max(len(self.tables) - 1, 0)

    @property
    def root(self):
        """The root's `TreeNode`, None for an empty index: read from the
        cache as :meth:`fetch` reads it, but not counted as a fetch."""
        return self._node(self.depth, 0) if self.tables else None

    def fetch(self, level: int, row: int, stats=None):
        """The node at row `row` of level `level`'s table, counted in
        `stats`: a leaf's row, or an internal node's `TreeNode`, made on
        its first fetch."""
        if stats is not None:
            stats.nodes_fetched += 1
        # :meth:`_node` inline: the descent calls this once per node
        node = self._nodes[level][row]
        return self._make[level](row) if node is None else node

    def _node(self, level: int, row: int):
        """:meth:`fetch` without counting it."""
        node = self._nodes[level][row]
        return self._make[level](row) if node is None else node

    @property
    def levels(self) -> list:
        """Each level's nodes by z, in z order: a leaf's row, or an
        internal node's `TreeNode`, every one made.  A new dict per level on
        each call, for checks over whole trees; the descent fetches by row."""
        return [{z: self._node(level, row) for row, z in enumerate(cols["z"].tolist())}
                for level, cols in enumerate(self.tables)]

    def node_count(self) -> int:
        return sum(cols["z"].size for cols in self.tables)

    def child_span(self, level: int) -> tuple:
        """Cell extent per dimension of one child of a level-`level` node."""
        fd = self.fanout.per_dim
        return tuple(cs * fd ** (level - 1) for cs in self.schema.chunk_shape)

    def node_origin(self, level: int, extent) -> tuple:
        """The first cell, per dimension, of the region of a level-`level`
        node of `extent`, ((lo, hi), ...): the region spans chunk * F_d**level
        cells along each dimension and holds the node's cells, so it starts
        at lo rounded down to a multiple of that."""
        fd = self.fanout.per_dim
        return tuple(lo - lo % (cs * fd**level)
                     for (lo, _), cs in zip(extent, self.schema.chunk_shape))

    # -- construction ---------------------------------------------------

    def _tree_depth(self) -> int:
        grid = self.schema.chunk_grid
        fd = self.fanout.per_dim
        depth = 1
        while any(-(-g // fd**depth) > 1 for g in grid):
            depth += 1
        return depth

    def _grow(self, chunks: ChunkTable, schema: ArraySchema) -> None:
        """Add the leaves of the chunks of `chunks`, a :class:`ChunkTable`,
        none of them in the tree yet, under
        `schema`, which covers them and the tree, then derive every level
        above the leaves again (:meth:`_level_above`): parents keep their
        bins unless their children changed, or the level is above the old
        root's.  A leaf's z and extent come from its chunk's coordinates
        (:func:`_chunk_extents`).  On an empty tree this is the whole build.
        InputError, the tree unchanged, for an int64 value past ±(2**53 - 1)."""
        fo = self.fanout
        new = build_leaf_index(chunks, self.attribute, self.bins, self.e)
        if schema.attr_type(self.attribute) == "int64" and _inexact(new):
            raise InputError(f"int64 attribute {self.attribute!r} holds a value past ±(2**53 - 1)")
        self.schema = schema
        old, old_depth, depth = self.tables, self.depth, self._tree_depth()
        coords = new.pop("coords").reshape(-1, fo.ndim)
        new["extent"] = _chunk_extents(coords, schema)
        new["z"] = added = zorder_encode_many(coords, fo.bits * depth).astype("<u8")
        if old:
            new = {name: np.concatenate((old[0][name], new[name])) for name in old[0]}
        if not new["z"].size:
            self._use([])
            return
        tables = [_take(new, np.argsort(new["z"], kind="stable"))]
        for level in range(1, depth + 1):
            added = added >> fo.slot_bits
            tables.append(self._level_above(tables[-1], old[level] if level <= old_depth else None,
                                            added))
        if tables[-1]["z"].size != 1:
            raise InternalError("the tree did not converge to a single root")
        self._use(tables)

    def _level_above(self, below: dict, old: dict | None, changed: np.ndarray) -> dict:
        """The table of the parents of the nodes of `below`, made in the one
        pass of the module docstring.  A parent keeps its bins from `old`,
        the level's table before a change, unless its z is in `changed`;
        with no `old` every parent's bins are merged anew."""
        up = below["z"] >> self.fanout.slot_bits
        pz, at = np.unique(up, return_inverse=True)
        redo = np.ones(pz.size, bool) if old is None else np.isin(pz, changed)
        kids = {n: below[n] for n in ("amin", "amax", "count", "nbins", "bounds", "weights")}
        rows = np.flatnonzero(redo[at])  # the children of the parents merged anew
        if rows.size < at.size:
            kids = _take(kids, rows)
        merged = build_internal_node(kids, (np.cumsum(redo) - 1)[at[rows]],
                                     self.bins) if rows.size else []
        bins = {"nbins": np.array([b.nbins for b in merged], "<u4"),
                "bounds": np.concatenate([np.empty(0), *(b.boundaries for b in merged)]),
                "weights": np.concatenate([np.empty(0), *(b.weights for b in merged)])}
        if old is not None:  # each parent's bins: its old row, or merged after them
            src = np.searchsorted(old["z"], pz)
            src[redo] = old["z"].size + np.arange(len(merged))
            bins = _take({name: np.concatenate((old[name], col)) for name, col in bins.items()},
                         src)
        cols, _ = _derive_parents(below, at, bins["nbins"], bins["bounds"], self.fanout)
        cols.update(z=pz, **bins)
        return cols

    # -- appending --------------------------------------------------------

    def append(self, additions: ChunkStore) -> None:
        """Grow the tree by grid-aligned new chunks (see :meth:`_grow`) and
        its extents to theirs, even where no added chunk holds a non-empty
        cell; an attached store takes them in too."""
        new_schema = additions.schema
        if new_schema.chunk_shape != self.schema.chunk_shape:
            raise InputError("appended data must use the same chunk shape")
        if new_schema.attributes != self.schema.attributes:
            raise InputError("appended data must use the same attributes")
        if new_schema.to_json()["empty"] != self.schema.to_json()["empty"]:
            raise InputError("appended data must use the same empty sentinels")
        for (old_name, old_e), (new_name, new_e), cs in zip(
            self.schema.dims, new_schema.dims, self.schema.chunk_shape
        ):
            if old_name != new_name:
                raise InputError("appended data must use the same dimensions")
            if new_e < old_e:
                raise InputError("appended extents cannot shrink")
            if new_e > old_e and old_e % cs != 0:
                raise InputError(
                    f"extension along {old_name!r} is not aligned to the chunk grid"
                )
        added = additions.table()
        if self.tables:  # an added chunk's z among the leaves' (none fits past the tree)
            bits, leaves = self.fanout.bits * self.depth, self.tables[0]["z"]
            coords = added.coords[(added.coords < 1 << bits).all(axis=1)]
            z = zorder_encode_many(coords, bits).astype("<u8")
            overlap = coords[leaves[np.minimum(np.searchsorted(leaves, z), leaves.size - 1)] == z]
            if overlap.size:
                overlap = overlap[np.lexsort(overlap.T[::-1])]  # the least coordinates first
                raise InputError(f"appended chunks collide with existing ones: "
                                 f"{list(map(tuple, overlap[:3].tolist()))}")

        merged_extents = tuple(max(a, b) for (_, a), (_, b) in zip(self.schema.dims, new_schema.dims))
        self._grow(added, self.schema.with_extents(merged_extents))
        if self.store is not None:
            self.store = self.store.merged(additions, self.schema)

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        Path(path).write_bytes(self.serialize())

    def serialize(self) -> bytes:
        """The index in the saved format of version 5 (module docstring)."""
        meta = {
            "schema": self.schema.to_json(),
            "params": {
                "attribute": self.attribute,
                "bins": self.bins,
                "e": self.e,
                "fanout_per_dim": self.fanout.per_dim,
            },
        }
        meta_b = json.dumps(meta).encode()
        tables = [_table_bytes(cols, self._int_types(self.depth)) for cols in self.tables]
        head = _PREAMBLE.size + _DIRECTORY.size * len(tables) + len(meta_b)
        offset = head + -head % 8
        directory = bytearray()
        for cols, table in zip(self.tables, tables):
            directory += _DIRECTORY.pack(cols["z"].size, offset, len(table))
            offset += len(table)
        rest = struct.pack("<IQ", len(tables), len(meta_b)) + directory + meta_b + bytes(-head % 8)
        lead = _MAGIC + struct.pack("<I", _VERSION)
        crc = zlib.crc32(rest, zlib.crc32(lead))
        for table in tables:
            crc = zlib.crc32(table, crc)
        return b"".join([lead, struct.pack("<I", crc), rest, *tables])

    def _pack_leaf(self, z, row: int, ndim) -> bytes:
        """Canonical bytes of the leaf at `row` of the leaf table, of z-index
        `z`: its saved tables as a one-leaf level."""
        return _table_bytes(_take(self.tables[0], [row]), self._int_types(self.depth))

    def leaf_coords(self, rows=slice(None)) -> list:
        """The grid coordinates of the chunks of the leaves at `rows` of the
        leaf table, all of them by default, as tuples."""
        if not self.tables:
            return []
        lo = self.tables[0]["extent"][rows, :, 0].astype(np.int64)
        return list(zip(*(lo // np.array(self.schema.chunk_shape)).T.tolist()))

    @classmethod
    def load(cls, path, store: ChunkStore | None = None) -> "Index":
        """Read a saved index (version 5 only), then :meth:`attach` `store`."""
        buf = Path(path).read_bytes()
        try:
            idx = cls._parse(buf)
            if store is not None:
                idx.attach(store)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        # a short buffer, bad JSON, a bad field or an unknown id in a record
        except (struct.error, ValueError, json.JSONDecodeError, KeyError, IndexError,
                TypeError, OverflowError) as exc:
            raise DataError(f"{path}: truncated or corrupt index ({exc})") from None
        return idx

    def attach(self, store: ChunkStore) -> None:
        """Answer queries from `store`.  DataError, naming what differs,
        unless its shape, chunk shape and indexed attribute's type and empty
        sentinel are the index's, and its non-empty chunks, with their
        non-empty cell counts, are exactly the leaves' coordinates and
        counts (:meth:`_join`): data that changed since the index was built
        would give wrong answers."""
        data, own, attr = store.schema, self.schema, self.attribute
        for what, got, need in (("shape", data.shape, own.shape),
                                ("chunk shape", data.chunk_shape, own.chunk_shape),
                                (f"attribute {attr!r}", dict(data.attributes).get(attr, "missing"),
                                 own.attr_type(attr)),
                                (f"empty sentinel of {attr!r}", data.to_json()["empty"].get(attr),
                                 own.to_json()["empty"][attr])):
            if got != need:
                raise DataError(f"the data's {what} is {got}, not the index's {need}")
        chunks = self._join(store)
        self.store = store
        self._chunks = (store, chunks)

    def leaf_chunks(self, store: ChunkStore | None = None) -> ChunkTable:
        """The chunk of each leaf in `store`, by default the attached one,
        as a `ChunkTable` of one entry per row of the leaf table
        (:meth:`_join`).  It is joined once per store and kept until the
        next store or change of the tree.  DataError without a store."""
        store = self.store if store is None else store
        if store is None:
            raise DataError("index has no attached data store for leaf resolution")
        if self._chunks is None or self._chunks[0] is not store:
            self._chunks = (store, self._join(store))
        return self._chunks[1]

    def _join(self, store: ChunkStore) -> ChunkTable:
        """Each leaf's chunk in `store`, in leaf-table order, by one z join
        of the store's :meth:`ChunkStore.table`: its non-empty chunks' z,
        sorted, must be the leaves' z, and each chunk's count its leaf's.
        DataError naming level 0 otherwise: for another number of non-empty
        chunks or other coordinates, and for the least coordinates whose
        count differs."""
        table = store.table()
        live = np.flatnonzero(table.count)
        if not self.tables:
            if live.size:
                raise DataError(f"level 0: the data's {live.size} non-empty chunks are not the "
                                f"index's 0 leaves")
            return table.take(live)
        leaves, bits = self.tables[0], self.fanout.bits * self.depth
        coords = table.coords[live]
        same = live.size == leaves["z"].size and bool(((coords >= 0) & (coords < 1 << bits)).all())
        if same:  # each non-empty chunk inside the tree: join by z
            z = zorder_encode_many(coords, bits).astype("<u8")
            order = np.argsort(z)
            same, live = np.array_equal(z[order], leaves["z"]), live[order]
        if not same:
            raise DataError(f"level 0: the data's {live.size} non-empty chunks are not the "
                            f"index's {leaves['z'].size} leaves")
        chunks = table.take(live)
        bad = np.flatnonzero(chunks.count != leaves["count"])
        if bad.size:
            i = bad[np.lexsort(chunks.coords[bad].T[::-1])[0]]  # the least coordinates
            raise DataError(f"level 0: chunk {tuple(chunks.coords[i].tolist())} has "
                            f"{chunks.count[i]} non-empty cells, its leaf {leaves['count'][i]}")
        return chunks

    @classmethod
    def _parse(cls, buf: bytes) -> "Index":
        if buf[:4] != _MAGIC:
            raise DataError("not an index file")
        version = struct.unpack_from("<I", buf, 4)[0]
        if version != _VERSION:
            raise DataError(f"index version {version} is not read, only version {_VERSION}: "
                            f"rebuild the index with `arraybit build`")
        schema, params, directory = _read_head(buf)
        idx = cls(schema, None, params["attribute"], Fanout(params["fanout_per_dim"], schema.ndim),
                  params["bins"], params["e"], [])
        columns = []
        if directory:  # a tree of the array's depth: one root, over the leaves
            depth = idx._tree_depth()
            _require(len(directory) == depth + 1, "directory",
                     f"the array's tree has {depth + 1} levels, the file {len(directory)}")
            columns = _read_tables(buf, directory, idx._int_types(depth))
            idx._check_leaves(columns[0], depth)
        tables = columns[:1]
        for level, saved in enumerate(columns[1:], 1):
            tables.append(idx._saved_level(level, tables[-1], saved))
        if tables and schema.attr_type(idx.attribute) == "int64":
            _require(not _inexact(tables[-1]), "root", "int64 values reach ±2**53")
        idx._use(tables)
        return idx

    def _int_types(self, depth: int) -> dict:
        """The saved type of each integer column (module docstring) of a
        tree of `depth` levels below its root.  DataError, naming the
        metadata, when a value the schema and parameters allow needs more
        than 64 bits, or a z-index more than 63 (:func:`zorder_encode_many`)."""
        z = self.fanout.total**depth - 1
        _require(z < 2**63, "metadata", "the tree's z-indices need more than 63 bits")
        return _column_types(z, math.prod(self.schema.chunk_shape), self.bins)

    # -- building the levels of a saved index from their columns ----------

    def _check_leaves(self, cols: dict, depth: int) -> None:
        """Checks of the saved leaf table, each naming the first leaf that
        fails it; the table then holds each leaf's extent, its chunk's
        (:func:`_chunk_extents`)."""
        z, count = cols["z"], cols["count"]
        where = "level 0"
        _require(z.size > 0, where, "has no nodes")
        back = np.flatnonzero(z[1:] <= z[:-1])
        if back.size:
            i = back[0] + 1
            raise DataError(f"{where}: node {z[i]} follows node {z[i - 1]}: "
                            f"z-indices do not increase")
        _require_each(z >= self.fanout.total**depth, where, z, "has a z-index out of range")
        coords = zorder_decode_many(z, self.fanout.ndim, self.fanout.bits * depth)
        cols["extent"] = ext = _chunk_extents(coords, self.schema)
        lo, hi = ext[:, :, 0], ext[:, :, 1]
        _require_each((lo > hi).any(axis=1), where, z, "has a chunk outside the array")
        cells = np.prod(hi - lo + 1, axis=1)
        bad = np.flatnonzero((count < 1) | (count > cells))
        if bad.size:
            i = bad[0]
            raise DataError(f"{where}: node {z[i]} counts {count[i]} cells in a "
                            f"{cells[i]}-cell extent")
        _require_each(cols["amin"] > cols["amax"], where, z, "has amin above amax")
        # build_leaf_index bins a leaf of e * bins cells or more, into 1 to
        # `bins` bins, and no other
        k, least = cols["nbins"], self.e * self.bins
        bad = np.flatnonzero((k > 0) == (count < least))
        if bad.size:
            i = bad[0]
            raise DataError(f"{where}: node {z[i]} has {'' if k[i] else 'no '}bins but counts "
                            f"{count[i]} cells: a leaf of {least} or more, e * bins, has bins")
        _require_each(k > self.bins, where, z, f"has more than {self.bins} bins")
        _check_bins(where, cols)

    def _saved_level(self, level: int, below: dict, saved: dict) -> dict:
        """Internal level `level` of a saved index from the checked level
        below it and its own saved bins, one row per parent of the nodes
        below in z order: everything else is derived as the build derives
        it (:func:`_derive_parents`)."""
        pz, at = np.unique(below["z"] >> self.fanout.slot_bits, return_inverse=True)
        where, nbins = f"level {level}", saved["nbins"]
        _require(nbins.size == pz.size, where,
                 f"holds {nbins.size} nodes, not the {pz.size} parents of level {level - 1}")
        _require_each(nbins < 1, where, pz, "has no bins")
        _require_each(nbins > self.bins, where, pz, f"has more than {self.bins} bins")
        cols, edge = _derive_parents(below, at, nbins, saved["bounds"], self.fanout)
        cols.update(z=pz, **saved)
        _check_bins(where, cols, (below, at, edge))
        return cols

    def _maker(self, level: int, cols: dict):
        """The function that makes the `TreeNode` of row i of internal
        level `level`'s columns, checked or just derived, and keeps it in
        the level's cache: the one place a `TreeNode` is made."""
        nb = cols["nbins"].tolist()
        bo = np.cumsum(cols["nbins"] + 1, dtype=np.intp).tolist()  # each node's last bound + 1
        mb = -(-self.fanout.total // 8)
        z, first, extent, amin, amax, count, child, bounds, weights, sp, al = (
            cols[name] for name in ("z", "first", "extent", "amin", "amax", "count", "child",
                                    "bounds", "weights", "sp", "al"))
        nodes = self._nodes[level]

        def make(i: int) -> TreeNode:
            k = nb[i]
            b = bo[i] - k - 1
            w = b - i  # a node's weights start at its bounds' start less one per node before it
            edges = bounds[b : b + k + 1]
            node = nodes[i] = TreeNode(
                level=level, z=int(z[i]), first=int(first[i]),
                extent=tuple(map(tuple, extent[i].tolist())), amin=float(amin[i]),
                amax=float(amax[i]), count=int(count[i]), child_mask=_masks(child[i], mb)[0],
                binning=Binning.prevalidated(edges, weights[w : w + k]),
                sp_bounds=edges, sp_masks=_masks(sp[b : b + k + 1], mb),
                al_bounds=edges, al_masks=_masks(al[b : b + k + 1], mb),
            )
            return node

        return make


def _inexact(cols: dict) -> bool:
    """Whether the value range of a level's nodes reaches ±_INT_BOUND."""
    return bool(cols["amin"].size) and max(-cols["amin"].min(), cols["amax"].max()) >= _INT_BOUND


def _require(ok, where: str, what: str) -> None:
    if not ok:
        raise DataError(f"{where}: {what}")


def _require_each(bad: np.ndarray, where: str, z: np.ndarray, what: str) -> None:
    """DataError naming the first node, of z-indices `z`, that is `bad`."""
    if bad.any():
        raise DataError(f"{where}: node {z[int(np.argmax(bad))]} {what}")


def _check_bins(where: str, cols: dict, kids: tuple | None = None) -> None:
    """DataError naming the first node of a level's table whose bins break
    a rule of the build.  Every node's nbins + 1 boundaries, back to back
    in `bounds` (none for a leaf of 0 bins), increase: strictly for two or
    more bins, and NaN fails both.  Its nbins weights in `weights` sum to
    its count: exactly in a leaf, whose weights the layout keeps whole and
    >= 0.  Above the leaves, where `kids` holds the children's rows, each
    child's node and its p and q (:func:`_derive_parents`): every boundary
    is the amin or amax of one of the node's children; the first and last
    are the node's own amin and amax; and its weights, spread from its
    children's, are finite, >= 0 and sum to its count within a relative
    1e-12.  A node's sp and al bounds are its boundaries, so they increase
    too.  Each rule is one pass over a column; only a failure looks up
    which node the first bad value is in."""
    z, bounds, w = cols["z"], cols["bounds"], cols["weights"]
    k = cols["nbins"]
    rows = np.flatnonzero(k)  # the nodes with bins
    kb = k[rows].astype(np.intp)
    first, last = _ends(k)
    # boundary i and i + 1 of a node: one of two bins or more increases
    up = bounds[1:] > bounds[:-1]
    up[last[:-1]] = True  # a node's last and the next node's first
    one = first[kb == 1]
    up[one] = bounds[one + 1] >= bounds[one]
    _require_all(up, where, z, lambda: np.repeat(rows, kb + 1),
                 "has bin boundaries that do not increase")
    if kids is not None:
        # np.unique and the merge keep only values of the children.  Over
        # increasing boundaries a child's p and q are the ranks of its
        # amin and amax, so boundary p is its amin if any is, and
        # boundary q - 1 its amax
        below, at, (p, q) = kids
        start = first[at]
        hit = np.zeros(bounds.size, bool)
        for rank, value in ((start + p, below["amin"]), (start + q - 1, below["amax"])):
            ok = (rank >= start) & (rank <= last[at])
            hit[rank[ok][bounds[rank[ok]] == value[ok]]] = True
        _require_all(hit, where, z, lambda: np.repeat(rows, kb + 1),
                     "has a bin boundary that is no child's amin or amax")
        _require_each((cols["amin"] != bounds[first]) | (cols["amax"] != bounds[last]), where, z,
                      "has bins that do not run from its amin to its amax")
        _require_all(w >= 0, where, z, lambda: np.repeat(rows, kb),  # NaN fails; an inf fails the sum
                     "has a bin weight below 0")
    count = cols["count"][rows]
    with np.errstate(over="ignore"):
        gap = np.abs(np.add.reduceat(w, first - np.arange(first.size)) - count)
    _require_each(gap > (kids is not None) * 1e-12 * count, where, z[rows],
                  "has bin weights that do not sum to its count")


def _require_all(ok: np.ndarray, where: str, z: np.ndarray, owner, what: str) -> None:
    """DataError naming the node, of z-indices `z`, of the first entry of
    `ok` that is False: `owner()` gives the row of each entry's node."""
    if not ok.all():
        raise DataError(f"{where}: node {z[owner()[int(np.argmin(ok))]]} {what}")


def _ends(k: np.ndarray) -> tuple:
    """Where, in a bounds column of nodes of `k` bins, the first and the
    last boundary of each node with bins lie."""
    kb = k[k > 0].astype(np.intp)
    last = np.cumsum(kb + 1) - 1
    return last - kb, last


def _packed(hit: np.ndarray) -> np.ndarray:
    """Each row of F booleans along the last axis as a child-slot
    mask: ceil(F/8) little-endian bytes."""
    return np.packbits(hit, axis=-1, bitorder="little")


def _masks(raw: np.ndarray, mb: int) -> list:
    """Child-slot masks stored as `mb` little-endian bytes each, as ints."""
    data = raw.tobytes()
    return [int.from_bytes(data[i : i + mb], "little") for i in range(0, len(data), mb)]


# ---------------------------------------------------------------------------
# saved format: writing


def _column_types(z: int, cells: int, bins: int) -> dict:
    """The saved type of each integer column (module docstring): the
    narrowest little-endian unsigned type that holds `z`, the greatest
    z-index, `cells`, a chunk's cell count, or `bins`, the greatest nbins.
    DataError, naming the metadata, for a value past 64 bits."""
    most = {"z": z, "count": cells, "nbins": bins}
    for name, value in most.items():
        _require(value < 2**64, "metadata", f"a {name} of up to {value} needs more than 64 bits")
    return {name: np.min_scalar_type(value).newbyteorder("<") for name, value in most.items()}


def _table_bytes(cols: dict, types: dict) -> bytes:
    """A level's table in the saved layout (module docstring): the columns
    no other column gives, each padded to a multiple of 8 bytes, its
    integer columns of the saved `types` (:func:`_column_types`)."""
    nbins = cols["nbins"]
    if "child" in cols:
        parts = [nbins.astype(types["nbins"]), cols["bounds"], cols["weights"]]
    else:  # the leaves: a binned leaf's first and last boundary are its amin and amax
        parts = [cols["z"].astype(types["z"]), cols["amin"], cols["amax"],
                 cols["count"].astype(types["count"]), nbins.astype(types["nbins"]),
                 np.delete(cols["bounds"], np.concatenate(_ends(nbins))),
                 cols["weights"].astype(types["count"])]
    out = bytearray()
    for col in parts:
        out += np.ascontiguousarray(col).tobytes()
        out += bytes(-len(out) % 8)
    return bytes(out)


# ---------------------------------------------------------------------------
# saved format: reading


class _Cursor:
    """Reads the columns of one level's tables in order, each padded to a
    multiple of 8 bytes, as read-only views of the file buffer."""

    def __init__(self, buf, start: int, end: int, where: str):
        self.buf, self.pos, self.end, self.where = buf, start, end, where

    def take(self, dtype: str, count: int) -> np.ndarray:
        size = np.dtype(dtype).itemsize * count
        _require(0 <= count and self.pos + size <= self.end, self.where,
                 "tables run past their end")
        out = np.frombuffer(self.buf, dtype, count, self.pos)
        self.pos += size + -size % 8
        return out

    def done(self) -> None:
        _require(self.pos == self.end, self.where, f"tables end at byte {self.pos}, not {self.end}")


def _read_meta(raw: bytes) -> tuple:
    """The schema and build parameters in the metadata JSON of a saved
    index; DataError for a schema :meth:`ArraySchema.from_json` refuses,
    and unless the indexed attribute is one of the schema's,
    fanout_per_dim a power of two >= 2 giving at most 4096 children per
    node, and bins and e integers >= 1."""
    meta = json.loads(raw)
    schema, params = ArraySchema.from_json(meta["schema"], "metadata"), meta["params"]
    _require(params["attribute"] in dict(schema.attributes), "metadata",
             f"attribute {params['attribute']!r} is not in the schema")
    fd = params["fanout_per_dim"]
    _require(type(fd) is int and fd >= 2 and fd & (fd - 1) == 0, "metadata",
             f"fanout_per_dim {fd!r} is not a power of two >= 2")
    _require(fd <= _MAX_FANOUT and fd**schema.ndim <= _MAX_FANOUT, "metadata",
             f"fanout_per_dim {fd} gives more than {_MAX_FANOUT} children per node")
    for key in ("bins", "e"):
        _require(_count_param(params[key]), "metadata",
                 f"{key} {params[key]!r} is not an integer >= 1")
    return schema, params


def _count_param(value) -> bool:
    """Whether a bins or e parameter is an int >= 1; bools are refused."""
    return type(value) is int and value >= 1


def _read_head(buf: bytes) -> tuple:
    """(schema, build parameters, directory) of a saved index whose CRC
    holds: the directory a (nodes, table offset, table size) per level."""
    _, _, crc, nlevels, meta_len = _PREAMBLE.unpack_from(buf)
    head = _PREAMBLE.size
    view = memoryview(buf)
    if zlib.crc32(view[12:], zlib.crc32(view[:8])) != crc:
        raise DataError("header or tables fail their CRC32")
    pos = head + _DIRECTORY.size * nlevels
    directory = [_DIRECTORY.unpack_from(buf, head + _DIRECTORY.size * i) for i in range(nlevels)]
    return (*_read_meta(bytes(view[pos : pos + meta_len])), directory)


def _read_tables(buf: bytes, directory: list, types: dict) -> list:
    """The columns per level of a saved index, of the saved integer
    `types` (:func:`_column_types`), in the types the tables hold: u64 z
    and count, u32 nbins and f64 weights, and each binned leaf's bounds
    from its amin to its amax."""
    columns = []
    for level, (n, start, size) in enumerate(directory):
        cur = _Cursor(buf, start, min(start + size, len(buf)), f"level {level}")
        cols = {} if level else {"z": cur.take(types["z"], n), "amin": cur.take("<f8", n),
                                 "amax": cur.take("<f8", n), "count": cur.take(types["count"], n)}
        nbins = cur.take(types["nbins"], n)
        k = nbins.astype(np.int64)  # parts of one column need no padding between them
        binned = int(np.count_nonzero(k))
        if level:
            cols["bounds"] = cur.take("<f8", int(k.sum()) + binned)
            cols["weights"] = cur.take("<f8", int(k.sum()))
        else:
            inner = cur.take("<f8", int(k.sum()) - binned)
            cols["weights"] = cur.take(types["count"], int(k.sum())).astype(np.float64)
            cols["z"], cols["count"] = cols["z"].astype("<u8"), cols["count"].astype("<u8")
            cols["bounds"] = bounds = np.empty(inner.size + 2 * binned)
            first, last = _ends(k)
            keep = np.ones(bounds.size, bool)
            keep[first] = keep[last] = False
            bounds[keep] = inner
            bounds[first], bounds[last] = cols["amin"][k > 0], cols["amax"][k > 0]
        cols["nbins"] = nbins.astype("<u4")
        cur.done()
        columns.append(cols)
    return columns


def build_index(store: ChunkStore, attribute: str | None = None, fanout: int | None = None,
                bins: int = 16, leaf_encoding: str | None = None, e: int = 4) -> Index:
    """Build the tree over a chunk store: an empty tree grown by every chunk
    (:meth:`Index._grow`).  `fanout` is the children per node, by default
    64 up to three dimensions and 256 above.  `leaf_encoding` is ignored:
    leaves hold no bitmaps, so no encoding shapes the tree; it is accepted
    for callers written when it did.  InputError unless `bins` and `e` are
    ints >= 1 (bools refused), the rule a load applies to saved ones, and
    `fanout` at most 4096."""
    schema = store.schema
    attribute = attribute or schema.attributes[0][0]
    schema.attr_type(attribute)  # validate
    for key, value in (("bins", bins), ("e", e)):
        if not _count_param(value):
            raise InputError(f"{key} {value!r} is not an integer >= 1")
    if fanout is None:
        fanout = 64 if schema.ndim <= 3 else 256
    if fanout > _MAX_FANOUT:
        raise InputError(f"fanout {fanout} is above {_MAX_FANOUT} children per node")
    idx = Index(schema, store, attribute, Fanout.from_total(fanout, schema.ndim), bins, e, [])
    idx._grow(store.table(), schema)
    return idx
