"""The n-dimensional index tree: Z-order layout, double range encoded
internal nodes, precomputed dimension bitmaps, persistence and appending.

Node-level bitmaps have exactly F bits (one per child slot) and are kept
uncompressed as plain integers; compressed bitvectors appear only at the
chunk/cell granularity.  Node identity is (level, z-index); parent and
child indices are pure bit arithmetic on the z-index.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import Binning, merge_bins_iterative
from .bitvec import BitVector
from .chunkstore import (
    ArraySchema,
    BinnedBitmapIndex,
    ChunkStore,
    PlainLeaf,
    build_leaf_index,
)
from .errors import DataError, InputError, InternalError

_MAGIC = b"ABIX"
_VERSION = 1
_ENCODING_IDS = {"equality": 0, "range": 1, "interval": 2}
_ENCODING_NAMES = {v: k for k, v in _ENCODING_IDS.items()}


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


def zorder_encode(coords, bits: int) -> int:
    """Interleave coordinates; dimension 0 takes the least significant slot."""
    z = 0
    n = len(coords)
    for d, c in enumerate(coords):
        c = int(c)
        if c < 0 or c >= (1 << bits):
            raise InputError(f"coordinate {c} does not fit in {bits} bits")
        for t in range(bits):
            if c >> t & 1:
                z |= 1 << (t * n + d)
    return z


def zorder_decode(z: int, ndim: int, bits: int) -> tuple:
    coords = [0] * ndim
    for t in range(bits):
        for d in range(ndim):
            if z >> (t * ndim + d) & 1:
                coords[d] |= 1 << t
    return tuple(coords)


class DimensionBitmaps:
    """Precomputed child-slot masks for dimension constraints.

    partial[d][b] flags children whose d-coordinate equals bucket b;
    begin[d][b] flags coordinate >= b and end[d][b] coordinate <= b, so a
    contiguous bucket range is one AND of a begin and an end mask.
    """

    def __init__(self, fanout: Fanout):
        self.fanout = fanout
        fd, n = fanout.per_dim, fanout.ndim
        self.partial = [[0] * fd for _ in range(n)]
        self.begin = [[0] * fd for _ in range(n)]
        self.end = [[0] * fd for _ in range(n)]
        for slot in range(fanout.total):
            coords = zorder_decode(slot, n, fanout.bits)
            for d, c in enumerate(coords):
                self.partial[d][c] |= 1 << slot
                for b in range(fd):
                    if c >= b:
                        self.begin[d][b] |= 1 << slot
                    if c <= b:
                        self.end[d][b] |= 1 << slot

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
        if a >= self.amax:
            return self.child_mask
        j = int(np.searchsorted(self.al_bounds, a, side="right")) - 1
        over_alive_strict = self.child_mask if j < 0 else self.al_masks[j]
        return self.child_mask & ~over_alive_strict


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
    pc = np.repeat(spread, n)
    pi = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - i0, n)
    x = bounds[pi]
    # each pair's bin j in its child: a search over all children's edges,
    # as ranks offset by child so that the keys are one sorted array
    ranks = np.unique(np.concatenate((xp, bounds)))
    owner = np.repeat(np.arange(sizes.size), sizes + 1)
    keys = owner * ranks.size + np.searchsorted(ranks, xp)
    at = np.searchsorted(keys, pc * ranks.size + np.searchsorted(ranks, x), side="right")
    j = np.clip(at - 1 - xoff[pc], 0, sizes[pc] - 1)
    xj, xj1 = xp[xoff[pc] + j], xp[xoff[pc] + j + 1]
    yj, yj1 = fp[xoff[pc] + j], fp[xoff[pc] + j + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.interp's steps: the slope form, its retries when that is NaN,
        # then exact values at an edge and outside the child's range
        slope = (yj1 - yj) / (xj1 - xj)
        cdf = slope * (x - xj) + yj
        retry = np.isnan(cdf)
        cdf[retry] = (slope * (x - xj1) + yj1)[retry]
        flat = np.isnan(cdf) & (yj == yj1)
        cdf[flat] = yj[flat]
        cdf = np.where(x == xj, yj, cdf)
        cdf = np.where(x <= lo[pc], 0.0, np.where(x >= hi[pc], fp[xoff[pc] + sizes[pc]], cdf))
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
    weights = np.zeros(bounds.size - 1)
    np.add.at(weights, slot, term)  # one term at a time, in child order
    return weights


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
    ext = np.array([c.extent for c in nodes]).reshape(len(nodes), fanout.ndim, 2)
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


@dataclass
class LeafEntry:
    """Level-0 record: one chunk's extent and its (possibly plain) index."""

    coords: tuple
    z: int
    extent: tuple
    leaf: object  # BinnedBitmapIndex | PlainLeaf

    @property
    def amin(self) -> float:
        return self.leaf.amin

    @property
    def amax(self) -> float:
        return self.leaf.amax

    @property
    def count(self) -> int:
        return self.leaf.count

    @property
    def binning(self):
        return getattr(self.leaf, "binning", None)


# ---------------------------------------------------------------------------
# per-level storage


class _DenseLevel:
    """Dense vector over the padded z-space; one block per level."""

    kind = "dense"

    def __init__(self, nodes: dict, zspace: int):
        self.zspace = zspace
        self.vec = [None] * zspace
        for z, node in nodes.items():
            self.vec[z] = node
        self.count = len(nodes)

    def get(self, z: int):
        return self.vec[z] if 0 <= z < self.zspace else None

    def block_id(self, z: int) -> int:
        return 0

    def items(self):
        return ((z, n) for z, n in enumerate(self.vec) if n is not None)


class _BlockLevel:
    """Sorted z keys grouped into runs of consecutive indices."""

    kind = "blocks"

    def __init__(self, nodes: dict, zspace: int):
        self.zspace = zspace
        self.zs = np.array(sorted(nodes), dtype=np.int64)
        self.nodes = [nodes[int(z)] for z in self.zs]
        self.count = len(self.nodes)
        if self.count:
            breaks = np.flatnonzero(np.diff(self.zs) != 1) + 1
            self.run_starts = np.concatenate(([0], breaks))
        else:
            self.run_starts = np.array([0])

    def get(self, z: int):
        i = int(np.searchsorted(self.zs, z))
        if i < self.count and self.zs[i] == z:
            return self.nodes[i]
        return None

    def block_id(self, z: int) -> int:
        i = int(np.searchsorted(self.zs, z))
        return int(np.searchsorted(self.run_starts, i, side="right")) - 1

    def items(self):
        return zip((int(z) for z in self.zs), self.nodes)


# ---------------------------------------------------------------------------
# the index


class Index:
    """A built tree over a chunk store, navigable by (level, z-index)."""

    def __init__(self, schema, store, attribute, fanout, bins, e, leaf_encoding, dense_levels,
                 levels):
        self.schema = schema
        self.store = store
        self.attribute = attribute
        self.fanout = fanout
        self.bins = bins
        self.e = e
        self.leaf_encoding = leaf_encoding
        self.dense_levels = dense_levels
        self.levels = levels  # list of storages, index = level (0 = leaves)
        self.dimbitmaps = DimensionBitmaps(fanout) if fanout else None

    @property
    def depth(self) -> int:
        """Number of levels below the root (0 for an empty index)."""
        return max(len(self.levels) - 1, 0)

    @property
    def root(self):
        return self.levels[-1].get(0) if self.levels else None

    def fetch(self, level: int, z: int, stats=None, trace=None):
        storage = self.levels[level]
        node = storage.get(z)
        if node is not None:
            if stats is not None:
                stats.touch_block((level, storage.block_id(z)))
            if trace is not None:
                trace.append((self.depth - level, z))
        return node

    def node_count(self) -> int:
        return sum(s.count for s in self.levels)

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

    @classmethod
    def build(cls, store: ChunkStore, attribute: str | None = None, fanout: int | None = None,
              bins: int = 16, leaf_encoding: str = "interval", e: int = 4,
              dense_levels: int = 2) -> "Index":
        schema = store.schema
        attribute = attribute or schema.attributes[0][0]
        schema.attr_type(attribute)  # validate
        ndim = schema.ndim
        if fanout is None:
            fanout = 64 if ndim <= 3 else 256
        fo = Fanout.from_total(fanout, ndim)
        idx = cls(schema, store, attribute, fo, bins, e, leaf_encoding, dense_levels, [])
        if store.chunks:
            idx._rebuild_all()
        return idx

    def _tree_depth(self) -> int:
        grid = self.schema.chunk_grid
        fd = self.fanout.per_dim
        depth = 1
        while any(-(-g // fd**depth) > 1 for g in grid):
            depth += 1
        return depth

    def _storage_for(self, level: int, depth: int, nodes: dict):
        zspace = self.fanout.total ** (depth - level)
        if depth - level < self.dense_levels:
            return _DenseLevel(nodes, zspace)
        return _BlockLevel(nodes, zspace)

    def _rebuild_all(self) -> None:
        depth = self._tree_depth()
        bits = self.fanout.bits
        leaves = {}
        chunks = list(self.store.iter_chunks())
        built = build_leaf_index(chunks, self.attribute, self.bins, self.leaf_encoding, self.e)
        for chunk, leaf in zip(chunks, built):
            if leaf is None:
                continue
            z = zorder_encode(chunk.coords, bits * depth)
            leaves[z] = LeafEntry(chunk.coords, z, chunk.extent, leaf)
        level_nodes = [leaves]
        for level in range(1, depth + 1):
            level_nodes.append(
                self._build_level(level, depth, level_nodes[level - 1])
            )
        if len(level_nodes[-1]) != 1:
            raise InternalError("tree did not converge to a single root")
        self.levels = [
            self._storage_for(level, depth, nodes)
            for level, nodes in enumerate(level_nodes)
        ]

    def _build_level(self, level: int, depth: int, below: dict) -> dict:
        """Group level-1 nodes into their parents."""
        bits = self.fanout.bits
        slot_bits = self.fanout.slot_bits
        groups: dict = {}
        for z, node in sorted(below.items()):  # children in z order, as append does
            groups.setdefault(z >> slot_bits, []).append((z & ((1 << slot_bits) - 1), node))
        out = {}
        for pz, members in groups.items():
            coords = zorder_decode(pz, self.fanout.ndim, bits * (depth - level))
            node = build_internal_node(members, level, coords, self.fanout, self.bins)
            node.z = pz
            out[pz] = node
        return out

    # -- appending --------------------------------------------------------

    def append(self, additions: ChunkStore) -> None:
        """Merge grid-aligned new chunks and rebuild the affected ancestors."""
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
        overlap = set(additions.chunks) & set(self.store.chunks if self.store else {})
        if overlap:
            raise InputError(f"appended chunks collide with existing ones: {sorted(overlap)[:3]}")

        merged_extents = tuple(max(a, b) for (_, a), (_, b) in zip(self.schema.dims, new_schema.dims))
        self.schema = self.schema.with_extents(merged_extents)
        if self.store is None or not self.store.chunks:
            chunks = dict(additions.chunks)
            self.store = ChunkStore(self.schema, chunks)
            self._rebuild_all()
            return
        chunks = dict(self.store.chunks)
        chunks.update(additions.chunks)
        self.store = ChunkStore(self.schema, chunks)
        self.store.schema = self.schema

        old_depth = self.depth
        depth = self._tree_depth()
        bits = self.fanout.bits
        slot_bits = self.fanout.slot_bits

        level_nodes = [dict(storage.items()) for storage in self.levels]
        while len(level_nodes) < depth + 1:
            level_nodes.append({})
        affected = set()
        chunks = [additions.chunks[coords] for coords in sorted(additions.chunks)]
        built = build_leaf_index(chunks, self.attribute, self.bins, self.leaf_encoding, self.e)
        for chunk, leaf in zip(chunks, built):
            if leaf is None:
                continue
            z = zorder_encode(chunk.coords, bits * depth)
            level_nodes[0][z] = LeafEntry(chunk.coords, z, chunk.extent, leaf)
            affected.add(z >> slot_bits)

        for level in range(1, depth + 1):
            if level > old_depth:
                affected = set(z >> slot_bits for z in level_nodes[level - 1])
            rebuilt = set()
            for pz in sorted(affected):
                members = [
                    (cz & ((1 << slot_bits) - 1), level_nodes[level - 1][cz])
                    for cz in range(pz << slot_bits, (pz + 1) << slot_bits)
                    if cz in level_nodes[level - 1]
                ]
                if not members:
                    level_nodes[level].pop(pz, None)
                    continue
                coords = zorder_decode(pz, self.fanout.ndim, bits * (depth - level))
                node = build_internal_node(members, level, coords, self.fanout, self.bins)
                node.z = pz
                level_nodes[level][pz] = node
                rebuilt.add(pz >> slot_bits)
            affected = rebuilt
        if len(level_nodes[depth]) != 1:
            raise InternalError("append did not converge to a single root")
        self.levels = [
            self._storage_for(level, depth, nodes)
            for level, nodes in enumerate(level_nodes)
        ]

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        Path(path).write_bytes(self.serialize())

    def serialize(self) -> bytes:
        ndim = self.schema.ndim
        mask_bytes = -(-self.fanout.total // 8) if self.fanout else 1
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
                "leaf_encoding": self.leaf_encoding,
                "dense_levels": self.dense_levels,
                "fanout_per_dim": self.fanout.per_dim if self.fanout else 0,
            },
        }
        meta_b = json.dumps(meta).encode()
        payloads = []
        directory = []
        for level, storage in enumerate(self.levels):
            buf = bytearray()
            for z, node in storage.items():
                if level == 0:
                    buf += self._pack_leaf(z, node, ndim)
                else:
                    buf += self._pack_node(z, node, ndim, mask_bytes)
            payloads.append(bytes(buf))
            directory.append((level, 0 if storage.kind == "dense" else 1, storage.count))
        head = bytearray()
        head += _MAGIC + struct.pack("<I", _VERSION)
        head += struct.pack("<Q", len(meta_b)) + meta_b
        head += struct.pack("<I", len(self.levels))
        offset = len(head) + len(self.levels) * struct.calcsize("<IBQQQ")
        for (level, kind, count), payload in zip(directory, payloads):
            head += struct.pack("<IBQQQ", level, kind, count, offset, len(payload))
            offset += len(payload)
        return bytes(head) + b"".join(payloads)

    @staticmethod
    def _pack_node(z, node: TreeNode, ndim, mask_bytes) -> bytes:
        out = bytearray()
        out += struct.pack("<Q", z)
        for lo, hi in node.extent:
            out += struct.pack("<QQ", lo, hi)
        out += struct.pack("<ddQ", node.amin, node.amax, node.count)
        out += node.child_mask.to_bytes(mask_bytes, "little")
        nb = node.binning.boundaries.size
        out += struct.pack("<H", nb)
        out += node.binning.boundaries.astype("<f8").tobytes()
        out += node.binning.weights.astype("<f8").tobytes()
        for bounds, masks in ((node.sp_bounds, node.sp_masks), (node.al_bounds, node.al_masks)):
            out += struct.pack("<H", len(masks))
            for b, m in zip(bounds, masks):
                out += struct.pack("<d", b) + m.to_bytes(mask_bytes, "little")
        return bytes(out)

    @staticmethod
    def _unpack_node(buf, pos, level, ndim, mask_bytes) -> tuple:
        z = struct.unpack_from("<Q", buf, pos)[0]
        pos += 8
        extent = []
        for _ in range(ndim):
            lo, hi = struct.unpack_from("<QQ", buf, pos)
            extent.append((lo, hi))
            pos += 16
        amin, amax, count = struct.unpack_from("<ddQ", buf, pos)
        pos += 24
        child_mask = int.from_bytes(buf[pos : pos + mask_bytes], "little")
        pos += mask_bytes
        nb = struct.unpack_from("<H", buf, pos)[0]
        pos += 2
        boundaries = np.frombuffer(buf, "<f8", nb, pos).copy()
        pos += nb * 8
        weights = np.frombuffer(buf, "<f8", nb - 1, pos).copy()
        pos += (nb - 1) * 8
        tables = []
        for _ in range(2):
            cnt = struct.unpack_from("<H", buf, pos)[0]
            pos += 2
            bounds, masks = [], []
            for _ in range(cnt):
                bounds.append(struct.unpack_from("<d", buf, pos)[0])
                pos += 8
                masks.append(int.from_bytes(buf[pos : pos + mask_bytes], "little"))
                pos += mask_bytes
            tables.append((np.array(bounds), masks))
        node = TreeNode(
            level=level,
            z=z,
            coords=(),
            extent=tuple(extent),
            amin=amin,
            amax=amax,
            count=count,
            child_mask=child_mask,
            binning=Binning(boundaries, weights),
            sp_bounds=tables[0][0],
            sp_masks=tables[0][1],
            al_bounds=tables[1][0],
            al_masks=tables[1][1],
        )
        return node, pos

    @staticmethod
    def _pack_leaf(z, entry: LeafEntry, ndim) -> bytes:
        out = bytearray()
        out += struct.pack("<Q", z)
        for c in entry.coords:
            out += struct.pack("<Q", c)
        for lo, hi in entry.extent:
            out += struct.pack("<QQ", lo, hi)
        leaf = entry.leaf
        if isinstance(leaf, PlainLeaf):
            out += struct.pack("<BddQ", 0, leaf.amin, leaf.amax, leaf.count)
            return bytes(out)
        out += struct.pack("<BddQ", 1, leaf.amin, leaf.amax, leaf.count)
        out += struct.pack("<B", _ENCODING_IDS[leaf.encoding])
        nb = leaf.binning.boundaries.size
        out += struct.pack("<H", nb)
        out += leaf.binning.boundaries.astype("<f8").tobytes()
        out += leaf.binning.weights.astype("<f8").tobytes()
        out += leaf.span_lo.astype("<f8").tobytes()
        out += leaf.span_hi.astype("<f8").tobytes()
        ebm = leaf.ebm.to_bytes()
        out += struct.pack("<I", len(ebm)) + ebm
        out += struct.pack("<H", len(leaf.bitmaps))
        for bm in leaf.bitmaps:
            raw = bm.to_bytes()
            out += struct.pack("<I", len(raw)) + raw
        return bytes(out)

    @staticmethod
    def _unpack_leaf(buf, pos, ndim) -> tuple:
        z = struct.unpack_from("<Q", buf, pos)[0]
        pos += 8
        coords = struct.unpack_from("<" + "Q" * ndim, buf, pos)
        pos += 8 * ndim
        extent = []
        for _ in range(ndim):
            lo, hi = struct.unpack_from("<QQ", buf, pos)
            extent.append((lo, hi))
            pos += 16
        kind, amin, amax, count = struct.unpack_from("<BddQ", buf, pos)
        pos += struct.calcsize("<BddQ")
        if kind == 0:
            return LeafEntry(tuple(coords), z, tuple(extent), PlainLeaf(amin, amax, count)), pos
        enc = _ENCODING_NAMES[struct.unpack_from("<B", buf, pos)[0]]
        pos += 1
        nb = struct.unpack_from("<H", buf, pos)[0]
        pos += 2
        boundaries = np.frombuffer(buf, "<f8", nb, pos).copy()
        pos += nb * 8
        weights = np.frombuffer(buf, "<f8", nb - 1, pos).copy()
        pos += (nb - 1) * 8
        span_lo = np.frombuffer(buf, "<f8", nb - 1, pos).copy()
        pos += (nb - 1) * 8
        span_hi = np.frombuffer(buf, "<f8", nb - 1, pos).copy()
        pos += (nb - 1) * 8
        ebm, pos = _unpack_bitvector(buf, pos)
        nbm = struct.unpack_from("<H", buf, pos)[0]
        pos += 2
        bitmaps = []
        for _ in range(nbm):
            bm, pos = _unpack_bitvector(buf, pos)
            bitmaps.append(bm)
        if count > len(ebm):
            raise DataError(f"leaf {z} counts {count} cells in a {len(ebm)}-cell chunk")
        idx = BinnedBitmapIndex(Binning(boundaries, weights), enc, bitmaps, span_lo, span_hi, ebm,
                                count)
        return LeafEntry(tuple(coords), z, tuple(extent), idx), pos

    @classmethod
    def load(cls, path, store: ChunkStore | None = None) -> "Index":
        buf = Path(path).read_bytes()
        try:
            idx = cls._parse(buf)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        # a short buffer, bad JSON, a bad field or an unknown id in a record
        except (struct.error, ValueError, json.JSONDecodeError, KeyError, IndexError,
                TypeError, OverflowError) as exc:
            raise DataError(f"{path}: truncated or corrupt index ({exc})") from None
        if store is not None and store.schema.shape != idx.schema.shape:
            raise DataError("store shape does not match the index schema")
        idx.store = store
        return idx

    @classmethod
    def _parse(cls, buf: bytes) -> "Index":
        if buf[:4] != _MAGIC:
            raise DataError("not an index file")
        version = struct.unpack_from("<I", buf, 4)[0]
        if version != _VERSION:
            raise DataError(f"unsupported index version {version}")
        pos = 8
        meta_len = struct.unpack_from("<Q", buf, pos)[0]
        pos += 8
        meta = json.loads(buf[pos : pos + meta_len])
        pos += meta_len
        sch = meta["schema"]
        empty = {k: (float("nan") if v is None else v) for k, v in sch["empty"].items()}
        schema = ArraySchema(
            tuple((n, e) for n, e in sch["dims"]),
            tuple((n, t) for n, t in sch["attributes"]),
            tuple(sch["chunk_shape"]),
            empty,
        )
        params = meta["params"]
        nlevels = struct.unpack_from("<I", buf, pos)[0]
        pos += 4
        directory = []
        for _ in range(nlevels):
            directory.append(struct.unpack_from("<IBQQQ", buf, pos))
            pos += struct.calcsize("<IBQQQ")
        fo = Fanout(params["fanout_per_dim"], schema.ndim) if params["fanout_per_dim"] else None
        idx = cls(
            schema, None, params["attribute"], fo, params["bins"], params["e"],
            params["leaf_encoding"], params["dense_levels"], [],
        )
        mask_bytes = -(-fo.total // 8) if fo else 1
        ndim = schema.ndim
        depth = nlevels - 1
        levels = []
        for level, kind, count, offset, size in directory:
            if offset + size > len(buf):
                raise DataError(f"level {level} runs past the end of the file")
            nodes = {}
            p = offset
            for _ in range(count):
                if level == 0:
                    entry, p = cls._unpack_leaf(buf, p, ndim)
                    nodes[entry.z] = entry
                else:
                    node, p = cls._unpack_node(buf, p, level, ndim, mask_bytes)
                    node.coords = zorder_decode(node.z, ndim, fo.bits * (depth - level))
                    nodes[node.z] = node
            if p != offset + size:
                raise DataError(f"level {level} ends at byte {p}, not {offset + size}")
            levels.append(idx._storage_for(level, depth, nodes))
        idx.levels = levels
        return idx


def _unpack_bitvector(buf, pos) -> tuple:
    """One length-prefixed bitvector read in place from the file buffer."""
    ln = struct.unpack_from("<I", buf, pos)[0]
    pos += 4
    vec, end = BitVector.from_bytes(buf, pos)
    if end != pos + ln:
        raise DataError(f"bitvector at byte {pos} does not fit its {ln}-byte record")
    return vec, end


def build_index(store: ChunkStore, attribute: str | None = None, fanout: int | None = None,
                bins: int = 16, leaf_encoding: str = "interval", e: int = 4,
                dense_levels: int = 2) -> Index:
    """Build the full tree bottom-up over a chunk store."""
    return Index.build(store, attribute, fanout, bins, leaf_encoding, e, dense_levels)
