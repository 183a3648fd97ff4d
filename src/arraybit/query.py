"""Query normalization, per-node match evaluation and breadth-first
traversal with exact leaf resolution, cardinality estimation and
membership queries.

A query is answered in a single descent: at every node the children are
matched as partial or complete for the attribute and for the dimensions,
and the two combine into the children to take whole and those to descend.
Complete children are taken whole without touching cell data; partial
children are descended and, at the leaves, resolved exactly into a flat
boolean array over the chunk's cells, which stays the leaf's only form
until cell ids.  A partial leaf is resolved by a scan of the values in
the query's box of its chunk (`chunkstore.leaf_query`); leaves hold no
bitmaps, since every chunk is resident, and on the 4096-cell chunks of the
benchmark the scan costs less than decoding one bitmap would.  Internal
nodes are matched from their child-slot bitmaps.

The attribute constraint is a list of sorted, disjoint value runs: a range
query is one run, a membership query one run per value (consecutive
integers of an integer attribute coalesce).  Each dimension's constraint
is likewise a tuple of sorted, disjoint integer index runs: a range is one
run, a dimension value set such as `d1 in {2, 5}` one run per stretch of
consecutive indices.  Range, membership, dimension-set and estimate
queries all share the same descent over those runs, and their cells come
out in global row-major order.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from math import ceil, floor, prod

import numpy as np

from .chunkstore import ArraySchema, ChunkStore, Leaf, QueryStats, leaf_query
from .errors import DataError, InputError
from .hierindex import Index

__all__ = [
    "RawQuery",
    "Query",
    "ResultSet",
    "CompleteRegion",
    "normalize",
    "value_runs",
    "attribute_runs",
    "attribute_match",
    "runs_match",
    "dimension_match",
    "eval_node",
    "execute",
    "membership",
    "estimate",
    "QueryStats",
]


@dataclass
class RawQuery:
    """Constraints as parsed; missing pieces are filled by normalization."""

    attr_lo: float | None = None
    attr_hi: float | None = None
    dims: dict = field(default_factory=dict)  # name -> (lo | None, hi | None)
    values: tuple | None = None  # attribute membership set
    dim_values: dict = field(default_factory=dict)  # name -> index value set


@dataclass(frozen=True)
class Query:
    """A complete query: every dimension constrained, inclusive bounds.

    dim_ranges holds, per dimension in schema order, a tuple of sorted,
    disjoint and non-adjacent inclusive integer (lo, hi) runs; a dimension
    with no run matches no cell.
    """

    attr_lo: float
    attr_hi: float
    dim_ranges: tuple  # (((lo, hi), ...), ...) in schema dimension order
    values: tuple | None = None


@dataclass(frozen=True)
class CompleteRegion:
    """A subtree whose every non-empty cell satisfies the query."""

    level: int
    z: int
    extent: tuple
    count: int


class ResultSet:
    """Complete regions plus, per partial chunk, the flat boolean array of
    its hits in row-major cell order, as leaf resolution returned it."""

    def __init__(self, schema: ArraySchema):
        self.schema = schema
        self.complete: list[CompleteRegion] = []
        self.partial: dict = {}  # chunk coords -> flat boolean hits

    @property
    def count(self) -> int:
        return sum(r.count for r in self.complete) + sum(
            int(np.count_nonzero(hits)) for hits in self.partial.values()
        )

    def cell_ids(self, store: ChunkStore) -> np.ndarray:
        """All matching cells as global row-major ids, strictly increasing.

        Each piece (a complete chunk's non-empty mask, a partial chunk's
        hits) is copied into one boolean array over the pieces' bounding
        box; row-major order in the box is global order, so no sort.
        """
        pieces = [(store.chunks[coords], hits) for coords, hits in self.partial.items()]
        cs = self.schema.chunk_shape
        for region in self.complete:
            grid = (range(lo // c, hi // c + 1) for (lo, hi), c in zip(region.extent, cs))
            for coords in itertools.product(*grid):
                chunk = store.chunks.get(coords)
                if chunk is not None:
                    pieces.append((chunk, chunk.nonempty))
        if not pieces:
            return np.empty(0, np.int64)
        lo = np.min([c.offsets for c, _ in pieces], axis=0)
        box = np.zeros(np.max([np.add(c.offsets, c.shape) for c, _ in pieces], axis=0) - lo, bool)
        for c, block in pieces:
            at = tuple(slice(o - l, o - l + s) for o, l, s in zip(c.offsets, lo, c.shape))
            box[at] = block.reshape(c.shape)
        ids = np.flatnonzero(box)
        shape = self.schema.shape
        out = ids + int(np.ravel_multi_index(tuple(lo), shape))
        for d in range(len(shape) - 1):  # the array cells the box skips per step along d
            gap = prod(shape[d + 1:]) - box.shape[d + 1] * prod(shape[d + 2:])
            if gap:
                out += ids // prod(box.shape[d + 1:]) * gap
        return out


# ---------------------------------------------------------------------------
# normalization


def normalize(raw: RawQuery, schema: ArraySchema, attr_bounds=None) -> Query:
    """Fill missing constraints to a complete query over all dimensions.

    A dimension's bounds round inwards to whole indices (a low bound up, a
    high bound down) and clip to its extent; a value set keeps its integral
    members within those bounds, consecutive ones coalesced into runs.  A
    dimension left with no index has no runs, and the query matches no
    cell.
    """
    names = schema.dim_names
    for name in itertools.chain(raw.dims, raw.dim_values):
        if name not in names:
            raise InputError(f"unknown dimension {name!r}")
    lo_default = attr_bounds[0] if attr_bounds else -np.inf
    hi_default = attr_bounds[1] if attr_bounds else np.inf
    values = None
    if raw.values is not None:
        if raw.attr_lo is not None or raw.attr_hi is not None:
            raise InputError("attribute membership and range cannot be combined")
        values = tuple(sorted(set(float(v) for v in raw.values)))
        attr_lo = min(values) if values else lo_default
        attr_hi = max(values) if values else hi_default
    else:
        attr_lo = lo_default if raw.attr_lo is None else float(raw.attr_lo)
        attr_hi = hi_default if raw.attr_hi is None else float(raw.attr_hi)
        if attr_lo > attr_hi:
            raise InputError(f"inverted attribute range [{attr_lo}, {attr_hi}]")
    ranges = []
    for name, extent in schema.dims:
        lo, hi = raw.dims.get(name, (None, None))
        lo = 0 if lo is None else max(lo, 0)  # a NaN bound stays NaN and meets no index
        hi = extent - 1 if hi is None else min(hi, extent - 1)
        if name in raw.dim_values:
            members = [v for v in raw.dim_values[name] if lo <= v <= hi and float(v).is_integer()]
            runs = tuple((int(a), int(b)) for a, b in value_runs(members, True))
        else:
            runs = ((ceil(lo), floor(hi)),) if lo <= hi else ()
        ranges.append(runs if runs and runs[0][0] <= runs[0][1] else ())
    return Query(attr_lo, attr_hi, tuple(ranges), values)


def value_runs(values, integral: bool) -> tuple:
    """Sorted, disjoint inclusive (lo, hi) runs covering exactly `values`.

    With `integral` (an integer attribute) consecutive integers coalesce
    into one run; any other value stays a degenerate (v, v) run, so every
    run matches exactly the cells whose value is in the set.
    """
    runs: list = []
    for v in sorted(set(float(v) for v in values)):
        if (runs and integral and v.is_integer() and runs[-1][1].is_integer()
                and v == runs[-1][1] + 1):
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return tuple(runs)


def attribute_runs(index: Index, query: Query) -> tuple:
    """The query's attribute constraint as value runs over the index attribute."""
    if query.values is None:
        return ((query.attr_lo, query.attr_hi),)
    return value_runs(query.values, index.schema.attr_type(index.attribute) == "int64")


# ---------------------------------------------------------------------------
# per-node evaluation


def attribute_match(node, a_lo: float, a_hi: float) -> tuple:
    """Child masks (partial, complete) for the attribute range.

    The partial side over-approximates across merged bins and is verified
    later; the complete side requires the child's whole value range inside
    the query and never over-approximates.  Four table lookups total.
    """
    mask = node.child_mask
    c = node.min_ge_under(a_lo) & node.max_le_under(a_hi) & mask
    p = node.started_over(a_hi) & node.alive_over(a_lo) & mask & ~c
    return p, c


def runs_match(node, runs) -> tuple:
    """Child masks (partial, complete) for a set of value runs.

    A child is complete if it lies inside one run and partial if any run
    may overlap it; :func:`attribute_match` is looked up once per run that
    overlaps the node.
    """
    p = c = 0
    for lo, hi in runs:
        if hi < node.amin or lo > node.amax:
            continue
        rp, rc = attribute_match(node, lo, hi)
        p |= rp
        c |= rc
    return p & ~c, c


def dimension_match(node, query: Query, dimbm, index: Index) -> tuple:
    """Child masks (partial, complete) for all dimension runs.

    Per dimension, the children whose buckets meet a run within the node's
    extent are ORed over the runs, and a run bound cutting strictly inside
    a child slab flags the whole slab as partial; runs that miss the extent
    are skipped.  A bound at a clipped child's actual border still demotes
    that child from complete to partial (the lookup sees only bucket
    geometry), which is harmless because partial children are verified
    downstream.
    """
    span = index.child_span(node.level)
    origin = index.node_origin(node.level, node.coords)
    p = 0
    c = node.child_mask
    for d, runs in enumerate(query.dim_ranges):
        dlo, dhi = node.extent[d]
        o, s = origin[d], span[d]
        partial = dimbm.partial[d]
        c_d = 0
        for qlo, qhi in runs:
            if qhi < dlo or qlo > dhi:
                continue
            if qlo > dlo and (qlo - o) % s != 0:
                p |= partial[(qlo - o) // s]
            if qhi < dhi and (qhi - o + 1) % s != 0:
                p |= partial[(qhi - o) // s]
            c_d |= dimbm.bucket_range(d, (max(qlo, dlo) - o) // s, (min(qhi, dhi) - o) // s)
        c &= c_d
    p &= c
    c &= ~p
    return p, c


def eval_node(node, query: Query, index: Index, stats: QueryStats | None = None,
              runs=None) -> tuple:
    """Combined (partial, complete) child masks for one node: complete
    children are complete for the attribute and the dimensions, partial
    ones overlap both and are not complete.

    `runs` are the query's attribute runs (:func:`attribute_runs`); a
    descent passes them in so they are derived once per query.
    """
    if stats is not None:
        stats.nodes_evaluated += 1
    if runs is None:
        runs = attribute_runs(index, query)
    if _node_disjoint(node, query, runs):
        return 0, 0
    p, c = runs_match(node, runs)
    p_dim, c_dim = dimension_match(node, query, index.dimbitmaps, index)
    c_star = c & c_dim & node.child_mask
    p_star = (p | c) & (p_dim | c_dim) & ~c_star & node.child_mask
    return p_star, c_star


# ---------------------------------------------------------------------------
# traversal


def _node_disjoint(node, query: Query, runs) -> bool:
    if not any(hi >= node.amin and lo <= node.amax for lo, hi in runs):
        return True
    for dim_runs, (dlo, dhi) in zip(query.dim_ranges, node.extent):
        for qlo, qhi in dim_runs:
            if qhi >= dlo and qlo <= dhi:
                break
        else:  # no run of this dimension meets the node
            return True
    return False


def _node_complete(node, query: Query, runs) -> bool:
    if not any(lo <= node.amin and node.amax <= hi for lo, hi in runs):
        return False
    for dim_runs, (dlo, dhi) in zip(query.dim_ranges, node.extent):
        for qlo, qhi in dim_runs:
            if qlo <= dlo and dhi <= qhi:
                break
        else:  # no run of this dimension covers the node
            return False
    return True


def _iter_slots(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _prepare(index: Index, query) -> Query:
    if isinstance(query, RawQuery):
        root = index.root
        bounds = (root.amin, root.amax) if root is not None else None
        query = normalize(query, index.schema, bounds)
    return query


def _resolve_leaf(index: Index, leaf: Leaf, query: Query, runs, stats):
    store = index.store
    if store is None:
        raise DataError("index has no attached data store for leaf resolution")
    chunk = store.chunks[leaf.coords]
    return leaf_query(chunk, leaf, index.attribute, runs, query.dim_ranges, stats)


def _descend(index: Index, query: Query, runs, budget: int, stats=None, trace=None):
    """The one breadth-first descent behind :func:`execute` and :func:`estimate`.

    Yields (kind, level, z, node) for every node the descent stops at, in
    strict (level, z) order: "complete" subtrees, partial "leaf" entries to
    resolve exactly, and "frontier" nodes left partial by the level budget.
    Internal nodes are evaluated down to depth `budget` - 1 and leaves are
    resolved when they lie at depth <= `budget`.
    """
    root = index.root
    if root is None or _node_disjoint(root, query, runs):
        return
    depth = index.depth
    slot_bits = index.fanout.slot_bits
    queue = deque([(depth, 0, _node_complete(root, query, runs))])
    while queue:
        level, z, is_complete = queue.popleft()
        node = index.fetch(level, z, stats, trace)
        d = depth - level
        if is_complete:
            yield "complete", level, z, node
        elif level == 0:
            yield ("leaf" if d <= budget else "frontier"), level, z, node
        elif d >= budget:
            yield "frontier", level, z, node
        else:
            p_star, c_star = eval_node(node, query, index, stats, runs)
            base = z << slot_bits
            for slot in _iter_slots(p_star | c_star):
                queue.append((level - 1, base | slot, bool(c_star >> slot & 1)))


def execute(index: Index, query, stats: QueryStats | None = None,
            trace: list | None = None) -> ResultSet:
    """Answer a range or membership query with one breadth-first traversal."""
    query = _prepare(index, query)
    runs = attribute_runs(index, query)
    rs = ResultSet(index.schema)
    for kind, level, z, node in _descend(index, query, runs, index.depth, stats, trace):
        if kind == "complete":
            rs.complete.append(CompleteRegion(level, z, node.extent, node.count))
            continue
        hits = _resolve_leaf(index, node, query, runs, stats)
        if hits.any():
            rs.partial[node.coords] = hits
    return rs


def membership(index: Index, query, stats: QueryStats | None = None,
               trace: list | None = None) -> ResultSet:
    """Answer a value-set query; the same single descent as :func:`execute`."""
    query = _prepare(index, query)
    if not query.values:
        return ResultSet(index.schema)
    return execute(index, query, stats, trace)


def estimate(index: Index, query, level_budget: int,
             stats: QueryStats | None = None) -> tuple:
    """Bounds (min, max) on the matching cell count within a level budget.

    The minimum counts complete subtrees found so far; the maximum adds the
    still-unresolved partial frontier.  With a budget reaching the leaves
    the frontier resolves exactly and both bounds meet.
    """
    if level_budget < 0:
        raise InputError("level budget must be >= 0")
    query = _prepare(index, query)
    runs = attribute_runs(index, query)
    lo = frontier = 0
    for kind, _, _, node in _descend(index, query, runs, level_budget, stats):
        if kind == "complete":
            lo += node.count
        elif kind == "leaf":
            lo += int(np.count_nonzero(_resolve_leaf(index, node, query, runs, stats)))
        else:
            frontier += node.count
    return lo, lo + frontier
