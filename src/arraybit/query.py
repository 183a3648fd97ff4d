"""Query normalization, per-node match evaluation and the one descent
behind range, membership, dimension-set and estimate queries.

The attribute constraint is a list of sorted, disjoint value runs: a range
query is one run, a value set one run per value (consecutive integers of
an integer attribute coalesce), and an empty value set none.  Each
dimension's constraint is likewise a tuple of sorted, disjoint index runs:
a range is one run, a set such as `d1 in {2, 5}` one run per stretch of
consecutive indices.

Every query is one breadth-first descent over those runs (`_descend`): at
each node the children are matched, from its child-slot bitmaps, as
partial or complete for the attribute and for the dimensions.  Complete
children are taken whole without reading a cell; partial ones are
descended to the leaves, or to an estimate's level budget.  `execute`,
which is also `membership`, then resolves the partial leaves exactly in
one batch per block of their chunks (`chunkstore.leaf_query`), straight
into the answer over the chunk-aligned cover of the query's box, which
holds the complete nodes too.  Leaves hold no bitmaps, since every chunk
is resident: on the benchmark's 4096-cell chunks the scan costs less than
decoding one bitmap would.  Cell ids crop the answer to the box once;
row-major order in it is global order, so they need no sort.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from math import ceil, floor, prod

import numpy as np

from .chunkstore import (
    ArraySchema,
    ChunkStore,
    Cover,
    QueryStats,
    leaf_query,
    put_chunks,
    query_box,
    query_cover,
    run_matcher,
    tile_batches,
)
from .errors import DataError, InputError
from .hierindex import Index

__all__ = [
    "RawQuery",
    "Query",
    "ResultSet",
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


@dataclass(frozen=True, eq=False)
class ResultSet:
    """The answer of one descent.

    `complete` holds the nodes it took whole, every non-empty cell under
    them a match.  `partial` maps each partial chunk with a hit to its hit
    count.  `cover` (:func:`query_cover`) holds the partial leaves' hits,
    and :meth:`cell_ids` adds the complete nodes' cells.  `box`, (lo, hi)
    per dimension, holds every match; None for the whole cover.  Both are
    None when the descent stopped at no node.
    """

    schema: ArraySchema
    complete: list = field(default_factory=list)
    partial: dict = field(default_factory=dict)  # chunk coords -> hit count
    cover: Cover | None = None
    box: tuple | None = None

    @property
    def count(self) -> int:
        return sum(node.count for node in self.complete) + sum(self.partial.values())

    def cell_ids(self, store: ChunkStore) -> np.ndarray:
        """All matching cells as global row-major ids, strictly increasing.

        The non-empty rows of the chunks under the complete nodes are
        written into the cover's answer, which holds them all, one
        assignment per block.  The answer is cropped to the box once;
        row-major order in it is global order, so one `np.flatnonzero` and
        no sort.
        """
        cover = self.cover
        if cover is None:
            return np.empty(0, np.int64)
        cs = cover.chunk_shape
        chunks = []
        for node in self.complete:
            grid = (range(lo // c, hi // c + 1) for (lo, hi), c in zip(node.extent, cs))
            for coords in itertools.product(*grid):
                chunk = store.chunks.get(coords)
                if chunk is not None:
                    chunks.append(chunk)
        put_chunks(cover, chunks)
        box, lo = cover.answer, cover.origin
        if self.box is not None:
            at = [max(a, o) for (a, _), o in zip(self.box, lo)]
            box = box[tuple(slice(a - o, b + 1 - o) for a, (_, b), o in zip(at, self.box, lo))]
            lo = at
        ids = np.flatnonzero(box)
        shape = self.schema.shape
        for d in reversed(range(len(shape) - 1)):
            # the ids already count the dimensions after d as the array
            # does; a step along d spans `row` of them, `gap` fewer than
            # the array's step (negative where the box passes the edge)
            row = box.shape[d + 1] * prod(shape[d + 2:])
            gap = prod(shape[d + 1:]) - row
            if gap:
                step = ids // row
                step *= gap
                ids += step
        ids += int(np.ravel_multi_index(tuple(lo), shape))
        return ids


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


def eval_node(node, query: Query, index: Index, runs,
              stats: QueryStats | None = None) -> tuple:
    """Combined (partial, complete) child masks for one node: complete
    children are complete for the attribute and the dimensions, partial
    ones overlap both and are not complete.

    `runs` are the query's attribute runs (:func:`attribute_runs`), derived
    once per query.  A node that no run, or no run of some dimension,
    meets gets (0, 0): :func:`runs_match` then keeps no child, or
    :func:`dimension_match` none along that dimension.
    """
    if stats is not None:
        stats.nodes_evaluated += 1
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


def _resolve(index: Index, runs, leaves: list, cover: Cover, stats) -> dict:
    """Resolve the partial `leaves` into `cover.answer` in one batch per
    block of their chunks (:func:`leaf_query`), masked by the cover's
    dimension windows, with one attribute matcher for all of them; returns
    the hit count per chunk with a hit."""
    store = index.store
    if store is None:
        raise DataError("index has no attached data store for leaf resolution")
    schema = index.schema
    root = index.root
    match = run_matcher(runs, schema.attr_type(index.attribute) == "int64", root.amin,
                        root.amax, len(leaves) * prod(schema.chunk_shape))
    chunks = [store.chunks[leaf.coords] for leaf in leaves]
    hits = {}
    for block, members, rows, at in tile_batches(chunks, cover.first):
        batch = [leaves[i] for i in members]
        counts = leaf_query(block, rows, at, batch, index.attribute, runs, match, cover, stats)
        for leaf, n in zip(batch, counts.tolist()):
            if n:
                hits[leaf.coords] = n
    return hits


def _descend(index: Index, query: Query, runs, budget: int, stats=None) -> tuple:
    """The one breadth-first descent behind every query kind.

    Returns the nodes it stops at, as lists in (level, z) order: the
    complete subtrees, the partial leaves to resolve exactly, and the
    frontier left partial by the level budget.  Internal nodes are
    evaluated down to depth `budget` - 1 and leaves are resolved when they
    lie at depth <= `budget`.  A query whose attribute runs, or the runs of
    some dimension, miss the root stops at no node: an empty value set has
    no runs.
    """
    complete, leaves, frontier = [], [], []
    root = index.root
    if root is None or _node_disjoint(root, query, runs):
        return complete, leaves, frontier
    depth = index.depth
    slot_bits = index.fanout.slot_bits
    queue = deque([(depth, 0, _node_complete(root, query, runs))])
    while queue:
        level, z, is_complete = queue.popleft()
        node = index.fetch(level, z, stats)
        d = depth - level
        if is_complete:
            complete.append(node)
        elif level == 0 and d <= budget:
            leaves.append(node)
        elif level == 0 or d >= budget:
            frontier.append(node)
        else:
            p_star, c_star = eval_node(node, query, index, runs, stats)
            base = z << slot_bits
            for slot in _iter_slots(p_star | c_star):
                queue.append((level - 1, base | slot, bool(c_star >> slot & 1)))
    return complete, leaves, frontier


def execute(index: Index, query, stats: QueryStats | None = None) -> ResultSet:
    """Answer a range, membership or dimension-set query with one
    breadth-first descent."""
    query = _prepare(index, query)
    runs = attribute_runs(index, query)
    complete, leaves, _ = _descend(index, query, runs, index.depth, stats)
    if not (complete or leaves):
        return ResultSet(index.schema)
    schema = index.schema
    cover = query_cover(query.dim_ranges, schema.shape, schema.chunk_shape)
    partial = _resolve(index, runs, leaves, cover, stats) if leaves else {}
    return ResultSet(schema, complete, partial, cover, query_box(query.dim_ranges, schema.shape))


# a value set is one attribute run per stretch of values: the same descent
membership = execute


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
    complete, leaves, frontier = _descend(index, query, runs, level_budget, stats)
    lo = sum(node.count for node in complete)
    if leaves:
        cover = query_cover(query.dim_ranges, index.schema.shape, index.schema.chunk_shape)
        lo += sum(_resolve(index, runs, leaves, cover, stats).values())
    return lo, lo + sum(node.count for node in frontier)
