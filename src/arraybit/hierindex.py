"""The n-dimensional index tree: Z-order layout, double range encoded
internal nodes, precomputed dimension bitmaps, persistence and appending.

Node-level bitmaps have exactly F bits (one per child slot) and are kept
uncompressed as plain integers.  A leaf is its chunk's `chunkstore.Leaf`
itself: coordinates, extent, value range, count and equi-depth binning.  It
holds no bitmaps over cells, since every chunk is resident and a query
scans it (`chunkstore.leaf_query`).  Node identity is (level, z-index);
parent and child indices are pure bit arithmetic on the z-index.  Each
level is one dict {z: node}.

A tree is only ever grown: `Index._grow` adds the leaves of some chunks and
rebuilds their ancestors, or every level when the tree got deeper.
`build_index` grows an empty tree by every chunk of a store, and
`Index.append` grows a tree by the chunks it is given.

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

`Index.load` checks the CRC, reads every column with `np.frombuffer`,
checks each level with vectorized tests (increasing z, extents inside the
array, a leaf's extent that of its chunk, counts of 1 to the extent's
cells, increasing bin boundaries per segment, a binned leaf's amin and
amax its first and last boundary) and builds every node eagerly.

Older files still load.  Version 2 has the same tables plus, for leaves, a
kind column, bin spans and per-leaf offsets and CRC32s into a bitmap
section after the tables; version 1 is records of one node each, walked
into the same columns.  Their leaf bitmaps are checked (version 2 against
its CRC32s) or walked, then dropped.  `serialize` always writes version 3.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import Binning, merge_bins_iterative
from .bitvec import BitVector
from .chunkstore import ArraySchema, ChunkStore, Leaf, build_leaf_index
from .errors import DataError, InputError, InternalError

_MAGIC = b"ABIX"
_VERSION = 3
# magic, version, crc, levels, metadata length
_PREAMBLE = struct.Struct("<4sIIIQ")
# version 2 adds the offset of its bitmap section
_PREAMBLE_V2 = struct.Struct("<4sIIIQQ")
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
        slots = np.arange(total)
        coords = zorder_decode_many(slots, n, fanout.bits)
        b = np.arange(fd)[:, None]
        self.partial = [_slot_masks(coords[:, d] == b, slots, total) for d in range(n)]
        self.begin = [_slot_masks(coords[:, d] >= b, slots, total) for d in range(n)]
        self.end = [_slot_masks(coords[:, d] <= b, slots, total) for d in range(n)]

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


def _spread_weights(bounds: np.ndarray, nodes: list) -> np.ndarray:
    """Bin weights over `bounds`: each child's bin weights spread evenly
    over its bins (a point-mass child's weight lands in the one bin holding
    it), summed per bin in child order.

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
    edges, wts = [], []
    for c in nodes:
        cb = getattr(c, "binning", None)
        if cb is None:
            edges.append(np.array([c.amin, c.amax]))
            wts.append(np.array([float(c.count)]))
        else:
            edges.append(cb.boundaries)
            wts.append(cb.weights)
    sizes = np.array([w.size for w in wts])
    xp = np.concatenate(edges)
    xoff = np.cumsum(sizes + 1) - (sizes + 1)
    woff = xoff - np.arange(sizes.size)
    w = np.concatenate(wts)
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
        term = np.concatenate((term, [float(wts[c].sum()) for c in mass.tolist()]))
        order = np.argsort(child, kind="stable")
        slot, term = slot[order], term[order]
    # one term at a time, in child order
    return np.bincount(slot, weights=term, minlength=bounds.size - 1)


def _range_table(rb: np.ndarray, hit: np.ndarray, slots: np.ndarray, total: int):
    """Boundaries where the set of hit children changes, with those sets as
    child-slot masks; hit is (boundaries, children)."""
    keep = np.ones(rb.size, bool)
    keep[1:] = (hit[1:] != hit[:-1]).any(axis=1)
    return rb[keep], _slot_masks(hit[keep], slots, total)


def _slot_masks(hit: np.ndarray, slots: np.ndarray, total: int) -> list:
    """Each row of a (rows, children) boolean array as an int with bit
    `slots[i]` set where column i is."""
    dense = np.zeros((hit.shape[0], total), bool)
    dense[:, slots] = hit
    packed = np.packbits(dense, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def build_internal_node(
    children: list, level: int, coords: tuple, fanout: Fanout, bins: int
) -> TreeNode:
    """Aggregate up to F child summaries into one internal node.

    children is a list of (slot, child) where child exposes extent, amin,
    amax, count and optionally a binning with weight estimates.
    """
    if not children:
        raise InputError("an internal node needs at least one child")
    slots = np.array([s for s, _ in children])
    nodes = [c for _, c in children]
    mins = np.array([c.amin for c in nodes])
    maxs = np.array([c.amax for c in nodes])
    flat = itertools.chain.from_iterable
    ext = np.fromiter(flat(flat(c.extent for c in nodes)), np.int64,
                      len(nodes) * fanout.ndim * 2).reshape(len(nodes), fanout.ndim, 2)
    extent = tuple(zip(ext[:, :, 0].min(axis=0).tolist(), ext[:, :, 1].max(axis=0).tolist()))
    count = int(sum(c.count for c in nodes))

    bounds = np.unique(np.concatenate((mins, maxs)))
    if bounds.size == 1:
        binning = Binning(np.array([bounds[0], bounds[0]]), np.array([float(count)]))
    else:
        binning = merge_bins_iterative(Binning(bounds, _spread_weights(bounds, nodes)), bins)

    rb = binning.boundaries
    sp_bounds, sp_masks = _range_table(rb, mins[None, :] <= rb[:, None], slots, fanout.total)
    al_bounds, al_masks = _range_table(rb, maxs[None, :] >= rb[:, None], slots, fanout.total)
    return TreeNode(
        level=level,
        z=0,  # assigned by the builder, which knows the level's bit width
        coords=tuple(coords),
        extent=extent,
        amin=float(mins.min()),
        amax=float(maxs.max()),
        count=count,
        child_mask=_slot_masks(np.ones((1, slots.size), bool), slots, fanout.total)[0],
        binning=binning,
        sp_bounds=sp_bounds,
        sp_masks=sp_masks,
        al_bounds=al_bounds,
        al_masks=al_masks,
    )


# ---------------------------------------------------------------------------
# the index


class Index:
    """A built tree over a chunk store, navigable by (level, z-index).

    `levels[l]` holds the level-l nodes as a dict {z: node} in increasing
    z: `Leaf` records at level 0, `TreeNode`s above.
    """

    def __init__(self, schema, store, attribute, fanout, bins, e, levels):
        self.schema = schema
        self.store = store
        self.attribute = attribute
        self.fanout = fanout
        self.bins = bins
        self.e = e
        self.levels = levels
        self.dimbitmaps = DimensionBitmaps(fanout)

    @property
    def depth(self) -> int:
        """Number of levels below the root (0 for an empty index)."""
        return max(len(self.levels) - 1, 0)

    @property
    def root(self):
        return self.levels[-1].get(0) if self.levels else None

    def fetch(self, level: int, z: int, stats=None, trace=None):
        node = self.levels[level].get(z)
        if node is not None:
            if stats is not None:
                stats.nodes_fetched += 1
            if trace is not None:
                trace.append((self.depth - level, z))
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
        `schema`, which covers them and the tree, then rebuild their
        ancestors, or every level above the old root's when the tree got
        deeper.  On an empty tree this is the whole build."""
        fo = self.fanout
        leaves = [leaf for leaf in build_leaf_index(chunks, self.attribute, self.bins, self.e)
                  if leaf is not None]
        self.schema = schema
        old_depth, depth = self.depth, self._tree_depth()
        coords = np.array([leaf.coords for leaf in leaves], np.int64).reshape(-1, fo.ndim)
        z = zorder_encode_many(coords, fo.bits * depth).tolist()
        levels = [dict(nodes) for nodes in self.levels]
        levels += [{} for _ in range(depth + 1 - len(levels))]
        levels[0].update(zip(z, leaves))
        if not levels[0]:
            self.levels = []
            return
        bits = fo.slot_bits
        affected = {zi >> bits for zi in z}
        for level in range(1, depth + 1):
            rebuilt = self._build_level(level, depth, levels[level - 1],
                                        None if level > old_depth else affected)
            levels[level].update(rebuilt)
            affected = {pz >> bits for pz in rebuilt}
        if len(levels[depth]) != 1:
            raise InternalError("the tree did not converge to a single root")
        self.levels = [dict(sorted(nodes.items())) for nodes in levels]

    def _build_level(self, level: int, depth: int, below: dict, parents=None) -> dict:
        """The level-`level` parents of the nodes in `below`, the level under
        them: all of them, or only those whose z is in `parents`."""
        fo = self.fanout
        bits = fo.slot_bits
        slot = (1 << bits) - 1
        groups: dict = {}
        for z, node in sorted(below.items()):  # children in z order
            pz = z >> bits
            if parents is None or pz in parents:
                groups.setdefault(pz, []).append((z & slot, node))
        coords = zorder_decode_many(np.fromiter(groups, np.int64, len(groups)), fo.ndim,
                                    fo.bits * (depth - level))
        out = {}
        for (pz, members), c in zip(groups.items(), map(tuple, coords.tolist())):
            node = build_internal_node(members, level, c, fo, self.bins)
            node.z = pz
            out[pz] = node
        return out

    # -- appending --------------------------------------------------------

    def append(self, additions: ChunkStore) -> None:
        """Grow the tree by grid-aligned new chunks (see :meth:`_grow`); an
        attached store takes them in too."""
        new_schema = additions.schema
        if new_schema.chunk_shape != self.schema.chunk_shape:
            raise InputError("appended data must use the same chunk shape")
        if new_schema.attributes != self.schema.attributes:
            raise InputError("appended data must use the same attributes")
        if not additions.chunks:
            return
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
        have = {leaf.coords for leaf in self.levels[0].values()} if self.levels else set()
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

    def _mask_bytes(self) -> int:
        return -(-self.fanout.total // 8)

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
        ndim = self.schema.ndim
        tables = [_leaf_tables(list(nodes.items()), ndim) if level == 0
                  else _node_tables(list(nodes.items()), ndim, self._mask_bytes())
                  for level, nodes in enumerate(self.levels)]
        head = _PREAMBLE.size + _DIRECTORY.size * len(tables) + len(meta_b)
        offset = head + -head % 8
        directory = bytearray()
        for nodes, table in zip(self.levels, tables):
            directory += _DIRECTORY.pack(len(nodes), offset, len(table))
            offset += len(table)
        rest = struct.pack("<IQ", len(tables), len(meta_b)) + directory + meta_b + bytes(-head % 8)
        lead = _MAGIC + struct.pack("<I", _VERSION)
        crc = zlib.crc32(rest, zlib.crc32(lead))
        for table in tables:
            crc = zlib.crc32(table, crc)
        return b"".join([lead, struct.pack("<I", crc), rest, *tables])

    @staticmethod
    def _pack_leaf(z, leaf: Leaf, ndim) -> bytes:
        """Canonical bytes of one leaf: its saved tables as a one-leaf level."""
        return _leaf_tables([(z, leaf)], ndim)

    @classmethod
    def load(cls, path, store: ChunkStore | None = None) -> "Index":
        """Read a saved index (version 1, 2 or 3), then :meth:`attach` `store`."""
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
        up its chunk: building a dict of chunk counts per side instead left
        the range-2d queries after a load 3-5% slower (paired perfbench
        runs on a shared 2-CPU x86-64 host)."""
        if store.schema.shape != self.schema.shape:
            raise DataError("store shape does not match the index schema")
        chunks = store.chunks
        leaves = self.levels[0].values() if self.levels else ()
        live = sum(1 for chunk in chunks.values() if chunk.nonempty_count)
        # as many non-empty chunks as leaves, each leaf's among them
        if live != len(leaves) or not all(
                leaf.coords in chunks and chunks[leaf.coords].nonempty_count for leaf in leaves):
            raise DataError(f"the data's {live} non-empty chunks are not the "
                            f"index's {len(leaves)} leaves")
        bad = [(leaf.coords, chunks[leaf.coords].nonempty_count, leaf.count) for leaf in leaves
               if chunks[leaf.coords].nonempty_count != leaf.count]
        if bad:
            at, have, want = min(bad)
            raise DataError(f"chunk {at} has {have} non-empty cells, its leaf {want}")
        self.store = store

    @classmethod
    def _parse(cls, buf: bytes) -> "Index":
        if buf[:4] != _MAGIC:
            raise DataError("not an index file")
        version = struct.unpack_from("<I", buf, 4)[0]
        if version in (2, 3):
            meta, columns = _read_tables(buf, version)
        elif version == 1:
            meta, columns = _walk_v1(buf)
        else:
            raise DataError(f"unsupported index version {version}")
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
        idx.levels = [
            idx._leaves(cols, depth) if level == 0 else idx._nodes(level, cols, depth)
            for level, cols in enumerate(columns)
        ]
        return idx

    # -- building the levels of a saved index from their columns ----------

    def _check_common(self, level: int, depth: int, cols: dict) -> None:
        """Checks of the columns every level has."""
        z, ext, count = cols["z"], cols["extent"], cols["count"]
        where = f"level {level}"
        lo, hi = ext[:, :, 0], ext[:, :, 1]
        _require(z.size > 0, where, "has no nodes")
        _require(not (z[1:] <= z[:-1]).any(), where, "z-indices do not increase")
        _require(int(z[-1]) < self.fanout.total ** (depth - level), where, "z-index out of range")
        _require(not (lo > hi).any() and not (hi >= np.array(self.schema.shape)).any(), where,
                 "extent outside the array")
        cells = np.prod(hi - lo + 1, axis=1)
        bad = np.flatnonzero((count < 1) | (count > cells))
        if bad.size:
            i = bad[0]
            raise DataError(f"{where}: node {z[i]} counts {count[i]} cells in a "
                            f"{cells[i]}-cell extent")
        _require(not (cols["amin"] > cols["amax"]).any(), where, "amin above amax")

    def _leaves(self, cols: dict, depth: int) -> dict:
        """The leaf level."""
        self._check_common(0, depth, cols)
        z, ext, nbins = cols["z"], cols["extent"], cols["nbins"]
        coords = zorder_decode_many(z, self.schema.ndim, self.fanout.bits * depth)
        cs, shape = np.array(self.schema.chunk_shape), np.array(self.schema.shape)
        _require((ext[:, :, 0] == coords * cs).all()
                 and (ext[:, :, 1] == np.minimum(coords * cs + cs, shape) - 1).all(),
                 "level 0", "a leaf's extent is not its chunk's")
        binned = nbins > 0
        k = nbins[binned].astype(np.int64)
        bounds, weights = _split(cols["floats"], k + 1, k)
        bo, wo = np.cumsum(k + 1) - (k + 1), np.cumsum(k) - k
        _require(_segments_increase(bounds, k + 1, k > 1), "level 0",
                 "bin boundaries do not increase")
        _require((cols["amin"][binned] == bounds[bo]).all()
                 and (cols["amax"][binned] == bounds[bo + k]).all(),
                 "level 0", "amin or amax is not that of the bins")

        binnings = iter([Binning.prevalidated(bounds[b : b + n + 1], weights[w : w + n])
                         for b, w, n in zip(bo.tolist(), wo.tolist(), k.tolist())])
        return {zi: Leaf(c, e, lo, hi, n, next(binnings) if nb else None)
                for zi, nb, c, e, lo, hi, n in zip(
                    z.tolist(), nbins.tolist(), map(tuple, coords.tolist()),
                    (tuple(map(tuple, e)) for e in ext.tolist()), cols["amin"].tolist(),
                    cols["amax"].tolist(), cols["count"].tolist())}

    def _nodes(self, level: int, cols: dict, depth: int) -> dict:
        """Internal level `level`."""
        self._check_common(level, depth, cols)
        where = f"level {level}"
        nb, nsp, nal = (col.astype(np.int64) for col in cols["sizes"].T)
        _require((nb > 0).all() and (nsp > 0).all() and (nal > 0).all(), where, "empty table")
        bounds, weights, sp_bounds, al_bounds = _split(cols["floats"], nb + 1, nb, nsp, nal)
        _require(_segments_increase(bounds, nb + 1, nb > 1)
                 and _segments_increase(sp_bounds, nsp, nsp > 0)
                 and _segments_increase(al_bounds, nal, nal > 0), where,
                 "bin boundaries do not increase")
        mb = self._mask_bytes()
        child = _masks(cols["child"], mb)
        masks = _masks(cols["masks"], mb)
        sp_masks, al_masks = masks[: int(nsp.sum())], masks[int(nsp.sum()) :]
        z = cols["z"].tolist()
        coords = map(tuple, zorder_decode_many(cols["z"], self.schema.ndim,
                                               self.fanout.bits * (depth - level)).tolist())
        ext = (tuple(map(tuple, e)) for e in cols["extent"].tolist())
        bo, wo = np.cumsum(nb + 1) - (nb + 1), np.cumsum(nb) - nb
        so, ao = np.cumsum(nsp) - nsp, np.cumsum(nal) - nal
        nodes = {}
        for i, (zi, c, e, lo, hi, n) in enumerate(zip(z, coords, ext, cols["amin"].tolist(),
                                                      cols["amax"].tolist(),
                                                      cols["count"].tolist())):
            b, w, s, a = int(bo[i]), int(wo[i]), int(so[i]), int(ao[i])
            nodes[zi] = TreeNode(
                level=level, z=zi, coords=c, extent=e, amin=lo, amax=hi, count=n,
                child_mask=child[i],
                binning=Binning.prevalidated(bounds[b : b + nb[i] + 1], weights[w : w + nb[i]]),
                sp_bounds=sp_bounds[s : s + nsp[i]], sp_masks=sp_masks[s : s + nsp[i]],
                al_bounds=al_bounds[a : a + nal[i]], al_masks=al_masks[a : a + nal[i]],
            )
        return nodes


def _require(ok, where: str, what: str) -> None:
    if not ok:
        raise DataError(f"{where}: {what}")


def _split(values: np.ndarray, *sizes) -> list:
    """`values` cut into consecutive parts holding sizes[0].sum(),
    sizes[1].sum(), ... values; DataError if they do not add up."""
    ends = np.cumsum([int(s.sum()) for s in sizes])
    if ends[-1] != values.size:
        raise DataError(f"{values.size} bin floats where the bin counts give {ends[-1]}")
    return np.split(values, ends[:-1])


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


def _columns(*arrays) -> bytes:
    """Arrays back to back, each padded to a multiple of 8 bytes."""
    out = bytearray()
    for a in arrays:
        out += np.ascontiguousarray(a).tobytes()
        out += bytes(-len(out) % 8)
    return bytes(out)


def _common_columns(items: list, ndim: int) -> list:
    return [
        np.array([z for z, _ in items], "<u8"),
        np.array([n.extent for _, n in items], "<u8").reshape(len(items), ndim, 2),
        np.array([n.amin for _, n in items], "<f8"),
        np.array([n.amax for _, n in items], "<f8"),
        np.array([n.count for _, n in items], "<u8"),
    ]


def _floats(*parts) -> np.ndarray:
    """Lists of float arrays joined in order as one float64 column."""
    return np.concatenate([np.empty(0)] + [a for part in parts for a in part]).astype("<f8")


def _leaf_tables(items: list, ndim: int) -> bytes:
    """The tables of a leaf level."""
    binnings = [leaf.binning for _, leaf in items if leaf.binning is not None]
    nbins = np.array([0 if leaf.binning is None else leaf.binning.nbins for _, leaf in items],
                     "<u4")
    return _columns(*_common_columns(items, ndim), nbins,
                    _floats([b.boundaries for b in binnings], [b.weights for b in binnings]))


def _node_tables(items: list, ndim: int, mb: int) -> bytes:
    """The tables of an internal level."""
    sizes = np.array([(n.binning.nbins, len(n.sp_masks), len(n.al_masks)) for _, n in items],
                     "<u4")
    child = b"".join(n.child_mask.to_bytes(mb, "little") for _, n in items)
    masks = b"".join(m.to_bytes(mb, "little") for table in ("sp_masks", "al_masks")
                     for _, n in items for m in getattr(n, table))
    floats = _floats([n.binning.boundaries for _, n in items],
                     [n.binning.weights for _, n in items],
                     [n.sp_bounds for _, n in items], [n.al_bounds for _, n in items])
    return _columns(*_common_columns(items, ndim), sizes, np.frombuffer(child, "u1"), floats,
                    np.frombuffer(masks, "u1"))


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


def _read_tables(buf: bytes, version: int) -> tuple:
    """(metadata, columns per level) of a version-2 or version-3 file.  A
    version-2 file's leaf kinds and bitmaps are checked and its bin spans
    skipped; none of them is kept."""
    if version == 2:
        _, _, crc, nlevels, meta_len, end = _PREAMBLE_V2.unpack_from(buf)
        head = _PREAMBLE_V2.size
    else:
        _, _, crc, nlevels, meta_len = _PREAMBLE.unpack_from(buf)
        head, end = _PREAMBLE.size, len(buf)
    view = memoryview(buf)
    if end > len(buf) or zlib.crc32(view[12:end], zlib.crc32(view[:8])) != crc:
        raise DataError("header or tables fail their CRC32")
    pos = head + _DIRECTORY.size * nlevels
    directory = [_DIRECTORY.unpack_from(buf, head + _DIRECTORY.size * i) for i in range(nlevels)]
    meta = _read_meta(bytes(view[pos : pos + meta_len]))
    ndim = len(meta["schema"]["dims"])
    fd = meta["params"]["fanout_per_dim"]
    mb = -(-(fd**ndim) // 8)
    columns = []
    for level, (n, start, size) in enumerate(directory):
        cur = _Cursor(buf, start, min(start + size, end), f"level {level}")
        cols = {
            "z": cur.take("<u8", n),
            "extent": cur.take("<u8", n * ndim * 2).reshape(n, ndim, 2),
            "amin": cur.take("<f8", n),
            "amax": cur.take("<f8", n),
            "count": cur.take("<u8", n),
        }
        if level == 0:
            kind = cur.take("u1", n) if version == 2 else None
            cols["nbins"] = cur.take("<u4", n)
            k = cols["nbins"].astype(np.int64)
            binned = int(np.count_nonzero(k))
            floats = 2 * int(k.sum()) + binned
            if version == 2:  # boundaries and weights come first, then the spans
                cols["floats"] = cur.take("<f8", floats + 2 * int(k.sum()))[:floats]
                _check_v2_bitmaps(kind, k, cur.take("<u8", binned + 1), cur.take("<u4", binned),
                                  view[end:])
            else:
                cols["floats"] = cur.take("<f8", floats)
        else:
            cols["sizes"] = cur.take("<u4", 3 * n).reshape(n, 3)
            nb, nsp, nal = (int(c.astype(np.int64).sum()) for c in cols["sizes"].T)
            cols["child"] = cur.take("u1", n * mb)
            cols["floats"] = cur.take("<f8", 2 * nb + n + nsp + nal)
            cols["masks"] = cur.take("u1", (nsp + nal) * mb)
        cur.done()
        columns.append(cols)
    return meta, columns


def _check_v2_bitmaps(kind: np.ndarray, nbins: np.ndarray, offsets: np.ndarray,
                      crcs: np.ndarray, section: memoryview) -> None:
    """Checks of a version-2 leaf level: each leaf's kind (0 plain, else 1
    + the id of one of three encodings) agrees with its bin count, and each
    binned leaf's words in the bitmap section match their CRC32."""
    _require(not (kind > 3).any() and ((nbins > 0) == (kind > 0)).all(), "level 0",
             "bad leaf kind or bin count")
    steps = np.diff(offsets)
    _require(offsets[0] == 0 and offsets[-1] == len(section) and (steps > 0).all()
             and not (steps % 8).any(), "level 0", "bad bitmap offsets")
    for start, stop, crc in zip(offsets[:-1].tolist(), offsets[1:].tolist(), crcs.tolist()):
        if zlib.crc32(section[start:stop]) != crc:
            raise DataError(f"leaf bitmaps at bitmap-section byte {start} fail their CRC32")


def _walk_v1(buf: bytes) -> tuple:
    """(metadata, columns per level) of a version-1 file, whose levels are
    records walked one at a time; each leaf's bin spans are skipped and its
    bitmaps are read with their headers, checked for their length, and
    dropped."""
    pos = 8
    meta_len = struct.unpack_from("<Q", buf, pos)[0]
    pos += 8
    meta = _read_meta(buf[pos : pos + meta_len])
    pos += meta_len
    nlevels = struct.unpack_from("<I", buf, pos)[0]
    pos += 4
    directory = []
    for _ in range(nlevels):
        directory.append(struct.unpack_from("<IBQQQ", buf, pos))
        pos += struct.calcsize("<IBQQQ")
    ndim = len(meta["schema"]["dims"])
    fd = meta["params"]["fanout_per_dim"]
    mb = -(-(fd**ndim) // 8)
    columns = []
    for level, _, count, offset, size in directory:
        if offset + size > len(buf):
            raise DataError(f"level {level} runs past the end of the file")
        rec = {key: [] for key in ("z", "extent", "amin", "amax", "count", "nbins", "sizes",
                                   "child", "sp_masks", "al_masks")}
        floats = ([], [], [], [])
        walk = _walk_v1_leaf if level == 0 else _walk_v1_node
        p = offset
        for _ in range(count):
            p = walk(buf, p, ndim, mb, rec, floats)
        if p != offset + size:
            raise DataError(f"level {level} ends at byte {p}, not {offset + size}")
        cols = {
            "z": np.array(rec["z"], np.uint64),
            "extent": np.array(rec["extent"], np.uint64).reshape(count, ndim, 2),
            "amin": np.array(rec["amin"], np.float64),
            "amax": np.array(rec["amax"], np.float64),
            "count": np.array(rec["count"], np.uint64),
            "floats": _floats(*floats),
        }
        if level == 0:
            cols["nbins"] = np.array(rec["nbins"], np.uint32)
        else:
            cols["sizes"] = np.array(rec["sizes"], np.uint32).reshape(count, 3)
            cols["child"] = np.frombuffer(b"".join(rec["child"]), np.uint8)
            cols["masks"] = np.frombuffer(b"".join(rec["sp_masks"] + rec["al_masks"]), np.uint8)
        columns.append(cols)
    return meta, columns


def _walk_v1_common(buf, pos: int, ndim: int, rec: dict, coords: bool) -> int:
    rec["z"].append(struct.unpack_from("<Q", buf, pos)[0])
    pos += 8 + 8 * ndim * coords
    rec["extent"].append(struct.unpack_from(f"<{2 * ndim}Q", buf, pos))
    return pos + 16 * ndim


def _walk_v1_leaf(buf, pos: int, ndim: int, mb: int, rec: dict, floats: tuple) -> int:
    pos = _walk_v1_common(buf, pos, ndim, rec, True)
    kind, amin, amax, count = struct.unpack_from("<BddQ", buf, pos)
    pos += struct.calcsize("<BddQ")
    rec["amin"].append(amin)
    rec["amax"].append(amax)
    rec["count"].append(count)
    if kind == 0:
        rec["nbins"].append(0)
        return pos
    enc, nb = struct.unpack_from("<BH", buf, pos)
    pos += 3
    if nb < 2 or enc > 2:
        raise DataError(f"leaf {rec['z'][-1]} has encoding {enc} and {nb} bin boundaries")
    rec["nbins"].append(nb - 1)
    for part, n in zip(floats, (nb, nb - 1)):
        part.append(np.frombuffer(buf, "<f8", n, pos))
        pos += 8 * n
    pos += 16 * (nb - 1)  # the bins' span_lo and span_hi
    ext = rec["extent"][-1]
    cells = int(np.prod(np.subtract(ext[1::2], ext[0::2]) + 1))
    ebm, pos = _unpack_bitvector(buf, pos)
    nbm = struct.unpack_from("<H", buf, pos)[0]
    pos += 2
    vecs = [ebm]
    for _ in range(nbm):
        vec, pos = _unpack_bitvector(buf, pos)
        vecs.append(vec)
    if any(len(v) != cells for v in vecs):
        raise DataError(f"leaf {rec['z'][-1]} has bitmaps of another length than its "
                        f"{cells}-cell chunk")
    return pos


def _walk_v1_node(buf, pos: int, ndim: int, mb: int, rec: dict, floats: tuple) -> int:
    pos = _walk_v1_common(buf, pos, ndim, rec, False)
    amin, amax, count = struct.unpack_from("<ddQ", buf, pos)
    pos += 24
    rec["amin"].append(amin)
    rec["amax"].append(amax)
    rec["count"].append(count)
    rec["child"].append(buf[pos : pos + mb])
    pos += mb
    nb = struct.unpack_from("<H", buf, pos)[0]
    pos += 2
    if nb < 2:
        raise DataError(f"node {rec['z'][-1]} has {nb} bin boundaries")
    for part, n in zip(floats, (nb, nb - 1)):
        part.append(np.frombuffer(buf, "<f8", n, pos))
        pos += 8 * n
    rows = []
    for part, masks in zip(floats[2:], (rec["sp_masks"], rec["al_masks"])):
        cnt = struct.unpack_from("<H", buf, pos)[0]
        pos += 2
        rows.append(cnt)
        bounds = []
        for _ in range(cnt):
            bounds.append(struct.unpack_from("<d", buf, pos)[0])
            masks.append(buf[pos + 8 : pos + 8 + mb])
            pos += 8 + mb
        part.append(np.array(bounds))
    rec["sizes"].append((nb - 1, *rows))
    return pos


def _unpack_bitvector(buf, pos) -> tuple:
    """One length-prefixed version-1 bitvector read in place from the file buffer."""
    ln = struct.unpack_from("<I", buf, pos)[0]
    pos += 4
    vec, end = BitVector.from_bytes(buf, pos)
    if end != pos + ln:
        raise DataError(f"bitvector at byte {pos} does not fit its {ln}-byte record")
    return vec, end


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
