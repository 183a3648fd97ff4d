"""The n-dimensional index tree: Z-order layout, double range encoded
internal nodes, precomputed dimension bitmaps, persistence and appending.

Node-level bitmaps have exactly F bits (one per child slot) and are kept
uncompressed as plain integers.  Each level is one column table, the
columns it is saved as plus `nbins` (`Index.tables`).  A leaf is a row of
the leaf table: its chunk's extent, value range, count and equi-depth bins
(`chunkstore.build_leaf_index`); it holds no bitmaps over cells, since
every chunk is resident and a query scans it (`chunkstore.leaf_query`).
Node identity is (level, z-index); parent and child indices are pure bit
arithmetic on the z-index.  `Index.levels[l]` finds a level's nodes by z
for the descent: a leaf's row, or the `TreeNode` that `Index._nodes` makes
from an internal node's row, whose int masks the descent tests.

A tree is only ever grown: `Index._grow` merges the leaf rows of some
chunks into the leaf table by z and derives each level above whole from
the one below.  `build_index` grows an empty tree by every chunk of a
store, `Index.append` a tree by the chunks it is given.  A level is made
in one pass: `build_internal_node` merges the bins of each parent whose
children changed, the one heuristic part of a node; `_derive_parents`
derives everything else its children fix, for all the level's parents at
once; and `serialize` writes the tables as they are (`_table_bytes`).

Saved format, version 3.  Integers and floats are little-endian; every
table column starts on a multiple of 8 bytes.

  preamble   24 bytes: b"ABIX", u32 version, u32 crc, u32 levels,
             u64 metadata length
  directory  per level, leaves first: u64 nodes, u64 table offset,
             u64 table size
  metadata   JSON: the schema and the build parameters
  tables     one run of columns per level, n rows each:
               every level   z u64[n], extent u64[n, ndim, 2] (inclusive
                             lo, hi per dimension), amin f64[n],
                             amax f64[n], count u64[n]
               leaves        bins u32[n] (k, 0 for a plain leaf), bin
                             floats f64: every binned leaf's k + 1
                             boundaries, then their k weights
               internal      sizes u32[n, 3] (bins, sp rows, al rows; see
                             `TreeNode`), child masks u8[n, ceil(F/8)],
                             bin floats f64: boundaries, weights,
                             sp_bounds, al_bounds; range masks
                             u8[rows, ceil(F/8)]: every sp mask, then every al
                             mask

crc is the CRC32 of bytes 0-7 and of bytes 12 to the end of the file.  Leaf
coordinates come from z.

`Index.load` reads version 3 only: a file of another version fails with
DataError, and is rebuilt from its data by `arraybit build`.  It checks the
CRC, reads every column with `np.frombuffer`, checks each level's own
columns, then each level against the one below it (`Index._check_links`):
every parent's child mask, count, value range, extent and range tables
must be what `_derive_parents`, the derivation the build makes each level
with, gives from its children and its own bins.  It then checks each
leaf's extent against its chunk's and every node's bin boundaries, keeps
the checked columns as the index's tables and makes every internal node
eagerly through `Index._nodes`.  A file left inconsistent by a wrong
writer or a hand edit fails with DataError.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import Binning, merge_bins_iterative
from .chunkstore import ArraySchema, ChunkStore, build_leaf_index
from .errors import DataError, InputError, InternalError

_MAGIC = b"ABIX"
_VERSION = 3
# magic, version, crc, levels, metadata length
_PREAMBLE = struct.Struct("<4sIIIQ")
_DIRECTORY = struct.Struct("<QQQ")  # nodes, table offset, table size


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
    z = np.zeros(coords.shape[0], np.int64)
    for t in range(bits):
        for d in range(ndim):
            z |= (coords[:, d] >> t & 1) << (t * ndim + d)
    return z


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


# ---------------------------------------------------------------------------
# tree nodes


@dataclass
class TreeNode:
    """Internal node: child occupancy, merged bins and both range tables.

    sp_masks[j] is the exact set of children whose subtree minimum is <=
    sp_bounds[j]; al_masks[j] the children whose maximum is >= al_bounds[j].
    Both tables are deduplicated, so consecutive masks always differ.
    """

    level: int
    z: int
    coords: tuple
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

    # -- conservative decodings over the merged boundaries ------------

    def started_over(self, a: float) -> int:
        """Superset of children with min <= a."""
        j = int(np.searchsorted(self.sp_bounds, a, side="left"))
        return self.sp_masks[min(j, len(self.sp_masks) - 1)]

    def alive_over(self, a: float) -> int:
        """Superset of children with max >= a."""
        j = int(np.searchsorted(self.al_bounds, a, side="right")) - 1
        return self.child_mask if j < 0 else self.al_masks[j]

    def min_ge_under(self, a: float) -> int:
        """Subset of children whose min is >= a."""
        if a <= self.amin:
            return self.child_mask
        return self.child_mask & ~self.started_over(a)

    def max_le_under(self, a: float) -> int:
        """Subset of children whose max is <= a."""
        return self.child_mask if a >= self.amax else self.child_mask & ~self.alive_over(a)


def _spread_weights(bounds: np.ndarray, kids: dict) -> np.ndarray:
    """Bin weights over `bounds`: each child's bin weights spread evenly
    over its bins (a point-mass child's weight lands in the one bin holding
    it), summed per bin in child order.  `kids` holds the children's
    columns (amin, amax, count, nbins, bounds and weights, laid out as in
    the leaf table); a plain child is one bin [amin, amax] of weight count.

    A child's cumulative weight at a bound is `np.interp` over its bin
    edges, evaluated for every (child, bound) pair at once with the same
    arithmetic.  Its slope (weight / width) overflows to inf on a
    subnormally narrow bin, so points left non-finite are placed by their
    fraction of the bin instead.  Only bounds inside a child's range can
    move its cumulative weight; every other term is an exact zero and is
    skipped, which leaves each sum unchanged.

    Passes: one search places every child's edges among the bounds, and
    one more finds each pair's bin among its child's edges; the terms are
    summed per bin by `np.bincount`, one at a time in child order as
    ``np.add.at`` would, so appended and full builds sum alike.
    """
    k = kids["nbins"].astype(np.intp)
    plain = k == 0
    sizes = np.where(plain, 1, k)
    xoff = np.cumsum(sizes + 1) - (sizes + 1)
    woff = xoff - np.arange(sizes.size)
    xp = np.empty(int(xoff[-1] + sizes[-1] + 1))
    xp[np.repeat(~plain, sizes + 1)] = kids["bounds"]
    xp[xoff[plain]], xp[xoff[plain] + 1] = kids["amin"][plain], kids["amax"][plain]
    w = np.empty(int(sizes.sum()))
    w[np.repeat(~plain, sizes)] = kids["weights"]
    w[woff[plain]] = kids["count"][plain]
    padded = np.zeros((sizes.size, sizes.max()))
    padded[np.arange(sizes.max()) < sizes[:, None]] = w
    fp = np.zeros((sizes.size, sizes.max() + 1))
    np.cumsum(padded, axis=1, out=fp[:, 1:])  # each child's own running sum
    fp = fp[np.arange(sizes.max() + 1) <= sizes[:, None]]
    lo, hi = xp[xoff], xp[xoff + sizes]
    point = lo == hi

    # (child, bound) pairs from the last bound <= the child's min to the
    # first bound >= its max
    spread = np.flatnonzero(~point)
    i0 = np.maximum(np.searchsorted(bounds, lo[spread], side="right") - 1, 0)
    i1 = np.minimum(np.searchsorted(bounds, hi[spread], side="left"), bounds.size - 1)
    n = i1 - i0 + 1
    last = np.cumsum(n) - 1
    pc = np.repeat(spread, n)
    pi = np.arange(n.sum()) - np.repeat(last + 1 - n - i0, n)
    x = bounds[pi]
    # each pair's bin j in its child: the child's edges at or below bound i
    # are those whose first bound at or above them is at most i, counted by
    # one search over every child's edges, keyed by child
    stride = bounds.size + 1
    owner = np.repeat(np.arange(sizes.size), sizes + 1)
    keys = owner * stride + np.searchsorted(bounds, xp)
    at = np.searchsorted(keys, pc * stride + pi, side="right") - xoff[pc]
    j = np.minimum(np.maximum(at - 1, 0), sizes[pc] - 1)
    g = xoff[pc] + j
    xj, xj1 = xp[g], xp[g + 1]
    yj, yj1 = fp[g], fp[g + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.interp's steps: the slope form, its retries when that is NaN,
        # then exact values at an edge and outside the child's range, which
        # only a child's first and last pair are
        slope = (yj1 - yj) / (xj1 - xj)
        cdf = slope * (x - xj) + yj
        retry = np.isnan(cdf)
        cdf[retry] = (slope * (x - xj1) + yj1)[retry]
        flat = np.isnan(cdf) & (yj == yj1)
        cdf[flat] = yj[flat]
        cdf = np.where(x == xj, yj, cdf)
        cdf[last + 1 - n] = 0.0
        cdf[last] = fp[xoff[spread] + sizes[spread]]
        bad = ~np.isfinite(cdf)
        if bad.any():
            frac = np.clip((x[bad] - xj[bad]) / (xj1[bad] - xj[bad]), 0.0, 1.0)
            cdf[bad] = yj[bad] + w[woff[pc[bad]] + j[bad]] * frac
    same = pc[1:] == pc[:-1]
    child = pc[:-1][same]
    slot = pi[:-1][same]
    term = (cdf[1:] - cdf[:-1])[same]

    mass = np.flatnonzero(point)
    if mass.size:
        child = np.concatenate((child, mass))
        slot = np.concatenate((slot, np.minimum(
            np.searchsorted(bounds, lo[mass], side="right") - 1, bounds.size - 2)))
        term = np.concatenate((term, w[woff[mass]]))  # a point mass has one bin
        order = np.argsort(child, kind="stable")
        slot, term = slot[order], term[order]
    # one term at a time, in child order
    return np.bincount(slot, weights=term, minlength=bounds.size - 1)


def build_internal_node(kids: dict, bins: int) -> Binning:
    """The bins of an internal node: its children's weights (`kids` holds
    their rows of the level below) spread over their minima and maxima,
    merged down to at most `bins` bins."""
    bounds = np.unique(np.concatenate((kids["amin"], kids["amax"])))
    if bounds.size == 1:
        return Binning(np.array([bounds[0], bounds[0]]), np.array([float(kids["count"].sum())]))
    return merge_bins_iterative(Binning(bounds, _spread_weights(bounds, kids)), bins)


def _take(cols: dict, rows) -> dict:
    """Rows `rows` of a level's table, in that order: the one-per-node
    columns indexed, and each node's run of the others moved along with
    it: its k + 1 boundaries (none for a plain leaf) and k weights, and
    above the leaves its sp and al rows."""
    k = cols["nbins"].astype(np.intp)
    runs = {"bounds": k + (k > 0), "weights": k}
    if "sizes" in cols:
        _, nsp, nal = cols["sizes"].astype(np.intp).T
        runs.update(sp_bounds=nsp, sp=nsp, al_bounds=nal, al=nal)
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
    laid end to end, as their saved columns: child masks, counts, value
    ranges, extents, sizes, and the sp and al tables over each node's own
    bins.  `kids` holds the children's z, extent, amin, amax and count
    columns; `at[i]` is child i's parent, nondecreasing, and every parent
    has a child; parent j has `nbins[j]` bins, its boundaries back to back
    in `bounds`.

    A child is in its parent's sp rows from p, the count of the parent's
    boundaries below its amin, and in its al rows before q, the count at or
    below its amax.  A table keeps its first row and each row some p (or q)
    names, where its set of children changes."""
    total, npar = fanout.total, nbins.size
    n = np.bincount(at, minlength=npar)
    first = np.cumsum(n) - n
    cell = at * total + (kids["z"] & ((1 << fanout.slot_bits) - 1)).astype(np.intp)
    child = np.zeros(npar * total, bool)
    child[cell] = True
    ext = kids["extent"]
    out = {
        "child": _packed(child.reshape(npar, total)),
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
    # each child's p and q; the kept rows of table t (0 sp, 1 al) of each parent
    edge = np.empty((2, at.size), small)
    (below < kids["amin"]).sum(axis=0, out=edge[0])
    (below <= kids["amax"]).sum(axis=0, out=edge[1])
    keep = np.zeros((2, npar, width + 1), bool)
    keep[0, at, edge[0]] = keep[1, at, edge[1]] = keep[:, :, 0] = True
    t, kp, kr = np.nonzero(keep[:, :, :width] & valid)
    slots = np.full((2, npar * total), [[width], [0]], small)  # no child: in no row
    slots[:, cell] = edge
    # row r of sp holds the children with p <= r, row r of al those with q > r
    masks = _packed((kr.astype(small)[:, None] >= slots.reshape(2, npar, total)[t, kp])
                    ^ t.astype(bool)[:, None])
    rows = np.bincount(t * npar + kp, minlength=2 * npar).reshape(2, npar)
    kept, sp = padded[kp, kr], int(rows[0].sum())
    out.update(sizes=np.concatenate((nbins[None], rows)).T.astype("<u4"), sp_bounds=kept[:sp],
               al_bounds=kept[sp:], sp=masks[:sp], al=masks[sp:])
    return out


# ---------------------------------------------------------------------------
# the index


class Index:
    """A built tree over a chunk store, navigable by (level, z-index).

    `tables[l]` is level l's column table in increasing z, and `levels[l]`
    finds its nodes by z: at level 0 a leaf's row, above it a `TreeNode`.
    """

    def __init__(self, schema, store, attribute, fanout, bins, e, tables):
        self.schema = schema
        self.store = store
        self.attribute = attribute
        self.fanout = fanout
        self.bins = bins
        self.e = e
        self.dimbitmaps = DimensionBitmaps(fanout)
        self._use(tables)

    def _use(self, tables: list) -> None:
        """Hold `tables`, checked or just derived, and look their nodes up."""
        self.tables = tables
        depth = len(tables) - 1
        self.levels = [dict(zip(cols["z"].tolist(), range(cols["z"].size))) if level == 0
                       else self._nodes(level, cols, depth)
                       for level, cols in enumerate(tables)]

    @property
    def depth(self) -> int:
        """Number of levels below the root (0 for an empty index)."""
        return max(len(self.levels) - 1, 0)

    @property
    def root(self):
        return self.levels[-1].get(0) if self.levels else None

    def fetch(self, level: int, z: int, stats=None):
        """The node at (level, z) or None, each found one counted in `stats`."""
        node = self.levels[level].get(z)
        if node is not None and stats is not None:
            stats.nodes_fetched += 1
        return node

    def node_count(self) -> int:
        return sum(len(nodes) for nodes in self.levels)

    def child_span(self, level: int) -> tuple:
        """Cell extent per dimension of one child of a level-`level` node."""
        fd = self.fanout.per_dim
        return tuple(cs * fd ** (level - 1) for cs in self.schema.chunk_shape)

    def node_origin(self, level: int, coords) -> tuple:
        fd = self.fanout.per_dim
        return tuple(
            c * cs * fd**level for c, cs in zip(coords, self.schema.chunk_shape)
        )

    # -- construction ---------------------------------------------------

    def _tree_depth(self) -> int:
        grid = self.schema.chunk_grid
        fd = self.fanout.per_dim
        depth = 1
        while any(-(-g // fd**depth) > 1 for g in grid):
            depth += 1
        return depth

    def _grow(self, chunks: list, schema: ArraySchema) -> None:
        """Add the leaves of `chunks`, none of them in the tree yet, under
        `schema`, which covers them and the tree, then derive every level
        above the leaves again (:meth:`_level_above`): parents keep their
        bins unless their children changed, or the level is above the old
        root's.  On an empty tree this is the whole build."""
        fo = self.fanout
        new = build_leaf_index(chunks, self.attribute, self.bins, self.e)
        self.schema = schema
        old, old_depth, depth = self.tables, self.depth, self._tree_depth()
        new["extent"] = new["extent"].reshape(-1, fo.ndim, 2)
        coords = new["extent"][:, :, 0].astype(np.int64) // np.array(schema.chunk_shape)
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
        pz, first, at = np.unique(up, return_index=True, return_inverse=True)
        redo = np.ones(pz.size, bool) if old is None else np.isin(pz, changed)
        ends = np.append(first[1:], up.size)
        merged = [build_internal_node(_take(below, np.arange(a, b)), self.bins)
                  for a, b in zip(first[redo].tolist(), ends[redo].tolist())]
        bins = {"nbins": np.array([b.nbins for b in merged], "<u4"),
                "bounds": np.concatenate([np.empty(0), *(b.boundaries for b in merged)]),
                "weights": np.concatenate([np.empty(0), *(b.weights for b in merged)])}
        if old is not None:  # each parent's bins: its old row, or merged after them
            src = np.searchsorted(old["z"], pz)
            src[redo] = old["z"].size + np.arange(len(merged))
            bins = _take({name: np.concatenate((old[name], col)) for name, col in bins.items()},
                         src)
        cols = _derive_parents(below, at, bins["nbins"], bins["bounds"], self.fanout)
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
        have = set(self.leaf_coords())
        overlap = sorted(c for c in additions.chunks if c in have)
        if overlap:
            raise InputError(f"appended chunks collide with existing ones: {overlap[:3]}")

        merged_extents = tuple(max(a, b) for (_, a), (_, b) in zip(self.schema.dims, new_schema.dims))
        self._grow([additions.chunks[c] for c in sorted(additions.chunks)],
                   self.schema.with_extents(merged_extents))
        if self.store is not None:
            self.store = ChunkStore(self.schema, {**self.store.chunks, **additions.chunks})

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        Path(path).write_bytes(self.serialize())

    def serialize(self) -> bytes:
        """The index in the saved format of version 3 (module docstring)."""
        meta = {
            "schema": {
                "dims": [list(d) for d in self.schema.dims],
                "attributes": [list(a) for a in self.schema.attributes],
                "chunk_shape": list(self.schema.chunk_shape),
                "empty": {
                    k: (None if isinstance(v, float) and np.isnan(v) else v)
                    for k, v in (
                        (n, self.schema.empty_value(n)) for n, _ in self.schema.attributes
                    )
                },
            },
            "params": {
                "attribute": self.attribute,
                "bins": self.bins,
                "e": self.e,
                "fanout_per_dim": self.fanout.per_dim,
            },
        }
        meta_b = json.dumps(meta).encode()
        tables = [_table_bytes(cols) for cols in self.tables]
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
        return _table_bytes(_take(self.tables[0], [row]))

    def leaf_coords(self, rows=slice(None)) -> list:
        """The grid coordinates of the chunks of the leaves at `rows` of the
        leaf table, all of them by default, as tuples."""
        if not self.tables:
            return []
        lo = self.tables[0]["extent"][rows, :, 0].astype(np.int64)
        return list(zip(*(lo // np.array(self.schema.chunk_shape)).T.tolist()))

    @classmethod
    def load(cls, path, store: ChunkStore | None = None) -> "Index":
        """Read a saved index (version 3 only), then :meth:`attach` `store`."""
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
        """Answer queries from `store`.  DataError unless its shape is the
        index's and its non-empty chunks, with their non-empty cell counts,
        are exactly the leaves' coordinates and counts: data that changed
        since the index was built would give wrong answers.  Each leaf looks
        its chunk up by its coordinates."""
        if store.schema.shape != self.schema.shape:
            raise DataError("store shape does not match the index schema")
        chunks, coords = store.chunks, self.leaf_coords()
        live = sum(1 for chunk in chunks.values() if chunk.nonempty_count)
        # as many non-empty chunks as leaves, each leaf's among them
        if live != len(coords) or not all(c in chunks and chunks[c].nonempty_count
                                          for c in coords):
            raise DataError(f"the data's {live} non-empty chunks are not the "
                            f"index's {len(coords)} leaves")
        counts = self.tables[0]["count"].tolist() if coords else []
        bad = [(c, chunks[c].nonempty_count, n) for c, n in zip(coords, counts)
               if chunks[c].nonempty_count != n]
        if bad:
            at, have, want = min(bad)
            raise DataError(f"chunk {at} has {have} non-empty cells, its leaf {want}")
        self.store = store

    @classmethod
    def _parse(cls, buf: bytes) -> "Index":
        if buf[:4] != _MAGIC:
            raise DataError("not an index file")
        version = struct.unpack_from("<I", buf, 4)[0]
        if version != _VERSION:
            raise DataError(f"index version {version} is not read, only version {_VERSION}: "
                            f"rebuild the index with `arraybit build`")
        meta, columns = _read_tables(buf)
        sch = meta["schema"]
        empty = {k: (float("nan") if v is None else v) for k, v in sch["empty"].items()}
        schema = ArraySchema(
            tuple((n, e) for n, e in sch["dims"]),
            tuple((n, t) for n, t in sch["attributes"]),
            tuple(sch["chunk_shape"]),
            empty,
        )
        params = meta["params"]
        idx = cls(schema, None, params["attribute"], Fanout(params["fanout_per_dim"], schema.ndim),
                  params["bins"], params["e"], [])
        depth = len(columns) - 1
        for level, cols in enumerate(columns):
            idx._check_common(level, depth, cols)
        idx._check_links(columns)
        for level, cols in enumerate(columns):
            if level:
                _require((cols["sizes"] > 0).all(), f"level {level}", "empty table")
            else:
                idx._check_leaf_extents(cols, depth)
            _check_bins(level, cols["nbins"], cols["bounds"], cols["amin"], cols["amax"])
        idx._use(columns)
        return idx

    # -- building the levels of a saved index from their columns ----------

    def _check_common(self, level: int, depth: int, cols: dict) -> None:
        """Checks of the columns every level has, each naming the first node
        that fails it."""
        z, ext, count = cols["z"], cols["extent"], cols["count"]
        where = f"level {level}"
        lo, hi = ext[:, :, 0], ext[:, :, 1]
        _require(z.size > 0, where, "has no nodes")
        back = np.flatnonzero(z[1:] <= z[:-1])
        if back.size:
            i = back[0] + 1
            raise DataError(f"{where}: node {z[i]} follows node {z[i - 1]}: "
                            f"z-indices do not increase")
        _require_each(z >= self.fanout.total ** (depth - level), where, z,
                      "has a z-index out of range")
        _require_each((lo > hi).any(axis=1) | (hi >= np.array(self.schema.shape)).any(axis=1),
                      where, z, "has an extent outside the array")
        cells = np.prod(hi - lo + 1, axis=1)
        bad = np.flatnonzero((count < 1) | (count > cells))
        if bad.size:
            i = bad[0]
            raise DataError(f"{where}: node {z[i]} counts {count[i]} cells in a "
                            f"{cells[i]}-cell extent")
        _require_each(cols["amin"] > cols["amax"], where, z, "has amin above amax")

    def _check_links(self, columns: list) -> None:
        """Checks of each level against the one below it, before any node is
        built: every node below the root has its parent, every parent a
        child and at most `bins` bins, and each parent is what the build
        makes of its children (:func:`_derive_parents`: child mask, count,
        value range, extent, sp and al tables over its own boundaries).  Z
        increases, so each parent's children are one run of the level
        below; the parents of all levels are derived and compared in one
        pass over their columns laid end to end."""
        bits = self.fanout.slot_bits
        ats, ends = [], [0]  # each child's parent in the parents laid end to end
        for level in range(1, len(columns)):
            z, pz = columns[level - 1]["z"], columns[level]["z"]
            up = z >> bits
            at = np.minimum(np.searchsorted(pz, up), pz.size - 1)
            orphan = np.flatnonzero(pz[at] != up)
            if orphan.size:
                i = orphan[0]
                raise DataError(f"level {level - 1}: node {z[i]} has no parent {up[i]} "
                                f"at level {level}")
            ats.append(at + ends[-1])
            ends.append(ends[-1] + pz.size)
        if not ats:
            return
        kids = {name: np.concatenate([c[name] for c in columns[:-1]])
                for name in ("z", "extent", "amin", "amax", "count")}
        cols = {name: np.concatenate([c[name] for c in columns[1:]]) for name in columns[1]}
        pz, at, sizes = cols["z"], np.concatenate(ats), cols["sizes"]

        def check(bad, what):
            if bad.any():
                i = int(np.argmax(bad))
                raise DataError(f"level {np.searchsorted(ends, i, side='right')}: "
                                f"node {pz[i]} has {what}")

        check(np.bincount(at, minlength=pz.size) == 0, "no children")
        check(sizes[:, 0] > self.bins, f"more than {self.bins} bins")  # sizes what follows
        got = _derive_parents(kids, at, sizes[:, 0], cols["bounds"], self.fanout)
        check((got["child"] != cols["child"]).any(axis=1),
              "a child mask other than the slots of its children")
        check(got["count"] != cols["count"], "a count other than the sum of its children's")
        check((got["amin"] != cols["amin"]) | (got["amax"] != cols["amax"]),
              "a value range other than its children's")
        check((got["extent"] != cols["extent"]).any(axis=(1, 2)),
              "an extent other than the span of its children's")
        rows = got["sizes"][:, 1:]
        bad = rows != sizes[:, 1:]  # per parent, sp and al
        if not bad.any():  # the rows line up: compare them one by one
            for k, table in enumerate(("sp", "al")):
                wrong = ((got[table + "_bounds"] != cols[table + "_bounds"])
                         | (got[table] != cols[table]).any(axis=1))
                bad[np.repeat(np.arange(pz.size), rows[:, k])[wrong], k] = True
        check(bad[:, 0], "sp masks other than its children's amin give")
        check(bad[:, 1], "al masks other than its children's amax give")

    def _check_leaf_extents(self, cols: dict, depth: int) -> None:
        """DataError unless each leaf's extent is its chunk's."""
        ext = cols["extent"]
        coords = zorder_decode_many(cols["z"], self.schema.ndim, self.fanout.bits * depth)
        cs, shape = np.array(self.schema.chunk_shape), np.array(self.schema.shape)
        _require((ext[:, :, 0] == coords * cs).all()
                 and (ext[:, :, 1] == np.minimum(coords * cs + cs, shape) - 1).all(),
                 "level 0", "a leaf's extent is not its chunk's")

    def _nodes(self, level: int, cols: dict, depth: int) -> dict:
        """Internal level `level` from its columns, checked or just derived:
        the one place a `TreeNode` is made."""
        nb, nsp, nal = cols["sizes"].astype(np.int64).T
        # where each node's part of each column starts, and the next's
        bo, wo, so, ao = (np.concatenate(([0], np.cumsum(k))).tolist()
                          for k in (nb + 1, nb, nsp, nal))
        bounds, weights = cols["bounds"], cols["weights"]
        sp_bounds, al_bounds = cols["sp_bounds"], cols["al_bounds"]
        mb = -(-self.fanout.total // 8)
        child = _masks(cols["child"], mb)
        sp_masks, al_masks = _masks(cols["sp"], mb), _masks(cols["al"], mb)
        z = cols["z"].tolist()
        coords = map(tuple, zorder_decode_many(cols["z"], self.fanout.ndim,
                                               self.fanout.bits * (depth - level)).tolist())
        ext = (tuple(map(tuple, e)) for e in cols["extent"].tolist())
        nodes = {}
        for i, (zi, c, e, lo, hi, n) in enumerate(zip(z, coords, ext, cols["amin"].tolist(),
                                                      cols["amax"].tolist(),
                                                      cols["count"].tolist())):
            s, a = slice(so[i], so[i + 1]), slice(ao[i], ao[i + 1])
            nodes[zi] = TreeNode(
                level=level, z=zi, coords=c, extent=e, amin=lo, amax=hi, count=n,
                child_mask=child[i],
                binning=Binning.prevalidated(bounds[bo[i] : bo[i + 1]], weights[wo[i] : wo[i + 1]]),
                sp_bounds=sp_bounds[s], sp_masks=sp_masks[s],
                al_bounds=al_bounds[a], al_masks=al_masks[a],
            )
        return nodes


def _require(ok, where: str, what: str) -> None:
    if not ok:
        raise DataError(f"{where}: {what}")


def _require_each(bad: np.ndarray, where: str, z: np.ndarray, what: str) -> None:
    """DataError naming the first node, of z-indices `z`, that is `bad`."""
    if bad.any():
        raise DataError(f"{where}: node {z[int(np.argmax(bad))]} {what}")


def _check_bins(level: int, nbins: np.ndarray, bounds: np.ndarray, amin: np.ndarray,
                amax: np.ndarray) -> None:
    """DataError unless the bin boundaries of each node of a level, nbins + 1
    of them back to back in `bounds` (none for a node of 0 bins), increase
    (strictly for two or more bins) and run from its amin to its amax."""
    where, binned = f"level {level}", nbins > 0
    k = nbins[binned].astype(np.int64)
    _require(_segments_increase(bounds, k + 1, k > 1), where,  # sp, al bounds: some of these
             "bin boundaries do not increase")
    first = np.cumsum(k + 1) - (k + 1)
    _require((amin[binned] == bounds[first]).all() and (amax[binned] == bounds[first + k]).all(),
             where, "amin or amax is not that of the bins")


def _packed(hit: np.ndarray) -> np.ndarray:
    """Each row of F booleans along the last axis as a saved child-slot
    mask: ceil(F/8) little-endian bytes."""
    return np.packbits(hit, axis=-1, bitorder="little")


def _segments_increase(values: np.ndarray, sizes: np.ndarray, strict: np.ndarray) -> bool:
    """Whether each of the back-to-back segments of `values`, of lengths
    `sizes`, increases: strictly where `strict`, else never decreasing.
    NaN fails both."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    inner = owner[1:] == owner[:-1]
    a, b = values[:-1][inner], values[1:][inner]
    return bool(np.where(strict[owner[1:][inner]], b > a, b >= a).all())


def _masks(raw: np.ndarray, mb: int) -> list:
    """Child-slot masks stored as `mb` little-endian bytes each, as ints."""
    data = raw.tobytes()
    return [int.from_bytes(data[i : i + mb], "little") for i in range(0, len(data), mb)]


# ---------------------------------------------------------------------------
# saved format: writing


def _table_bytes(cols: dict) -> bytes:
    """A level's table in the saved layout (module docstring), its columns
    written as they are, each padded to a multiple of 8 bytes: the bin
    floats, and the sp and al masks, are each one column."""
    if "sizes" in cols:
        rest = (cols["sizes"], cols["child"], cols["bounds"], cols["weights"], cols["sp_bounds"],
                cols["al_bounds"], np.concatenate((cols["sp"], cols["al"])))
    else:
        rest = (cols["nbins"], cols["bounds"], cols["weights"])
    out = bytearray()
    for a in (cols["z"], cols["extent"], cols["amin"], cols["amax"], cols["count"], *rest):
        out += np.ascontiguousarray(a).tobytes()
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


def _read_meta(raw: bytes) -> dict:
    """The metadata JSON of a saved index; DataError unless the indexed
    attribute is one of the schema's, fanout_per_dim a power of two >= 2,
    and bins and e integers >= 1."""
    meta = json.loads(raw)
    params = meta["params"]
    _require(params["attribute"] in [n for n, _ in meta["schema"]["attributes"]], "metadata",
             f"attribute {params['attribute']!r} is not in the schema")
    fd = params["fanout_per_dim"]
    _require(type(fd) is int and fd >= 2 and fd & (fd - 1) == 0, "metadata",
             f"fanout_per_dim {fd!r} is not a power of two >= 2")
    for key in ("bins", "e"):
        _require(_count_param(params[key]), "metadata",
                 f"{key} {params[key]!r} is not an integer >= 1")
    return meta


def _count_param(value) -> bool:
    """Whether a bins or e parameter is an int >= 1; bools are refused."""
    return type(value) is int and value >= 1


def _read_tables(buf: bytes) -> tuple:
    """(metadata, columns per level) of a saved index."""
    _, _, crc, nlevels, meta_len = _PREAMBLE.unpack_from(buf)
    head = _PREAMBLE.size
    view = memoryview(buf)
    if zlib.crc32(view[12:], zlib.crc32(view[:8])) != crc:
        raise DataError("header or tables fail their CRC32")
    pos = head + _DIRECTORY.size * nlevels
    directory = [_DIRECTORY.unpack_from(buf, head + _DIRECTORY.size * i) for i in range(nlevels)]
    meta = _read_meta(bytes(view[pos : pos + meta_len]))
    ndim = len(meta["schema"]["dims"])
    fd = meta["params"]["fanout_per_dim"]
    mb = -(-(fd**ndim) // 8)
    columns = []
    for level, (n, start, size) in enumerate(directory):
        cur = _Cursor(buf, start, min(start + size, len(buf)), f"level {level}")
        cols = {
            "z": cur.take("<u8", n),
            "extent": cur.take("<u8", n * ndim * 2).reshape(n, ndim, 2),
            "amin": cur.take("<f8", n),
            "amax": cur.take("<f8", n),
            "count": cur.take("<u8", n),
        }
        if level == 0:  # parts of one f8 column need no padding between them
            cols["nbins"] = cur.take("<u4", n)
            k = cols["nbins"].astype(np.int64)
            cols["bounds"] = cur.take("<f8", int(k.sum()) + int(np.count_nonzero(k)))
            cols["weights"] = cur.take("<f8", int(k.sum()))
        else:
            cols["sizes"] = cur.take("<u4", 3 * n).reshape(n, 3)
            cols["nbins"] = cols["sizes"][:, 0]
            nb, nsp, nal = (int(c.astype(np.int64).sum()) for c in cols["sizes"].T)
            cols["child"] = cur.take("u1", n * mb).reshape(n, mb)
            cols["bounds"] = cur.take("<f8", nb + n)
            cols["weights"] = cur.take("<f8", nb)
            cols["sp_bounds"], cols["al_bounds"] = cur.take("<f8", nsp), cur.take("<f8", nal)
            masks = cur.take("u1", (nsp + nal) * mb).reshape(-1, mb)
            cols["sp"], cols["al"] = masks[:nsp], masks[nsp:]
        cur.done()
        columns.append(cols)
    return meta, columns


def build_index(store: ChunkStore, attribute: str | None = None, fanout: int | None = None,
                bins: int = 16, leaf_encoding: str | None = None, e: int = 4) -> Index:
    """Build the tree over a chunk store: an empty tree grown by every chunk
    (:meth:`Index._grow`).  `fanout` is the children per node, by default
    64 up to three dimensions and 256 above.  `leaf_encoding` is ignored:
    leaves hold no bitmaps, so no encoding shapes the tree; it is accepted
    for callers written when it did.  InputError unless `bins` and `e` are
    ints >= 1 (bools refused), the rule a load applies to saved ones."""
    schema = store.schema
    attribute = attribute or schema.attributes[0][0]
    schema.attr_type(attribute)  # validate
    for key, value in (("bins", bins), ("e", e)):
        if not _count_param(value):
            raise InputError(f"{key} {value!r} is not an integer >= 1")
    if fanout is None:
        fanout = 64 if schema.ndim <= 3 else 256
    idx = Index(schema, store, attribute, Fanout.from_total(fanout, schema.ndim), bins, e, [])
    idx._grow(list(store.iter_chunks()), schema)
    return idx
