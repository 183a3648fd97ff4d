"""Query normalization, per-node match evaluation and the one descent
behind range, membership, dimension-set and estimate queries.

A normalized query holds one constraint form per axis, the attribute and
each dimension: a tuple of sorted, disjoint inclusive runs.  A range is
one run.  A set keeps its members inside the axis's range, one run per
member, or per stretch of consecutive integers on an integer axis (an
int64 attribute, or a dimension such as `d1 in {2, 5}`); a set left with
no member has no run and matches no cell.

Every query is one breadth-first descent over those runs (`_descend`): at
each node the children are matched, from its child-slot bitmaps, as
partial or complete for the attribute and for the dimensions.  Complete
children are taken whole without reading a cell; partial ones are
descended to the leaves, or to an estimate's level budget.  A leaf the
descent reaches is its row of the index's leaf table: its count and value
range are read from the table's columns, and its chunk's block and row
from the index's one leaf -> (block, row) map, the join of the leaf table
with the store's chunk arrays (`Index.leaf_chunks`).  `execute`, which is
also `membership`, then resolves the partial leaves exactly in one batch
per block of their chunks (`chunkstore.leaf_query`), straight into the
answer over the chunk-aligned cover of the query's box, which holds the
complete nodes too: the leaves under a complete node are one run of the
leaf table's z, found by one search per node.  A batch matches its
scanned chunks in place, one slice of the block per run of consecutive
rows.  Leaves hold no bitmaps, since every chunk is resident: on the
benchmark's 4096-cell chunks the scan costs less than decoding one bitmap
would.  Cell ids crop the answer to the box once; row-major order in it
is global order, so they need no sort.  Where widening the crop to the
array's extents after the first dimension adds no more cells than the
query matches, it is widened, and each id is its position plus one
constant; else each id is fixed up per dimension whose stride differs
from the array's.
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
)
from .errors import InputError
from .hierindex import Index

__all__ = [
    "RawQuery",
    "Query",
    "ResultSet",
    "normalize",
    "value_runs",
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
    """A complete query: one tuple of sorted, disjoint inclusive (lo, hi)
    runs per axis, and an axis with no run matches no cell.

    attr_runs are the attribute's value runs, as floats; dim_ranges holds,
    per dimension in schema order, its non-adjacent integer index runs.
    """

    attr_runs: tuple  # ((lo, hi), ...)
    dim_ranges: tuple  # (((lo, hi), ...), ...) in schema dimension order


@dataclass(frozen=True, eq=False)
class ResultSet:
    """The answer of one descent.

    `complete` holds the nodes it took whole, every non-empty cell under
    them a match: internal nodes, and leaves as their rows of `leaves`,
    the index's leaf table.  `partial` maps each partial chunk with a hit
    to its hit count.  `cover` (:func:`query_cover`) holds the partial
    leaves' hits, and :meth:`cell_ids` adds the complete nodes' cells.
    `box`, (lo, hi) per dimension, holds every match.  Both are None when
    the descent stopped at no node.  `index` is the index queried.
    """

    schema: ArraySchema
    complete: list = field(default_factory=list)
    partial: dict = field(default_factory=dict)  # chunk coords -> hit count
    cover: Cover | None = None
    box: tuple | None = None
    leaves: dict | None = None
    index: Index | None = None

    @property
    def count(self) -> int:
        return _cells(self.complete, self.leaves) + sum(self.partial.values())

    def cell_ids(self, store: ChunkStore) -> np.ndarray:
        """All matching cells as global row-major ids, strictly increasing.

        The leaves under the complete nodes are one run of the leaf table
        each, found by one search of its z column per node, and their
        chunks in `store`, which holds the index's chunks, are the index's
        :meth:`~Index.leaf_chunks`.  Their non-empty rows are written into
        the cover's answer, which holds them all, one assignment per block.
        The answer is cropped to the box once; row-major order in it is
        global order, so one `np.flatnonzero` and no sort.  The ids then need, per dimension whose stride differs
        from the array's, one floor division, a multiply and an add each.
        Where copying the crop into a zeroed answer spanning the array's
        extents after the first dimension adds no more cells than
        :attr:`count`, it is copied, and one constant makes the positions
        global ids, as for a crop that spans them already.  At seed 101
        that is 8 of range-2d's 34 main queries, 8 of member-3d's 16
        (those of no box, which add no cell) and none of ingest-4d's 48.
        """
        cover = self.cover
        if cover is None:
            return np.empty(0, np.int64)
        if self.complete:
            rows = _leaf_rows(self.complete, self.leaves["z"], self.index.fanout.slot_bits)
            put_chunks(cover, self.index.leaf_chunks(store).take(rows))
        lo = [max(a, o) for (a, _), o in zip(self.box, cover.origin)]
        box = cover.answer[tuple(slice(a - o, b + 1 - o)
                                 for a, (_, b), o in zip(lo, self.box, cover.origin))]
        shape = self.schema.shape
        rest = shape[1:]
        if box.shape[1:] != rest and box.shape[0] * prod(rest) - box.size <= self.count:
            wide = np.zeros((box.shape[0], *rest), bool)
            wide[(slice(None), *(slice(a, a + n) for a, n in zip(lo[1:], box.shape[1:])))] = box
            box, lo = wide, [lo[0], *(0 for _ in rest)]
        ids = np.flatnonzero(box)
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


def normalize(raw: RawQuery, schema: ArraySchema, attr_bounds=None,
              attribute: str | None = None) -> Query:
    """Fill missing constraints to a complete query over all axes.

    The attribute's range keeps its bounds, by default `attr_bounds`, else
    unbounded; InputError when the query gives both and they are inverted.
    One given bound past the other, a default, leaves the range no run.  A
    dimension's bounds round inwards to whole indices (a low bound up, a
    high bound down) and clip to its extent.  On either axis a value set
    keeps its members inside the range, only integral ones on a dimension
    or an int64 attribute, as :func:`value_runs`; `attribute`, by default
    the schema's first, names the attribute queried.  An axis left with no
    value has no runs, and the query matches no cell.
    """
    names = schema.dim_names
    for name in itertools.chain(raw.dims, raw.dim_values):
        if name not in names:
            raise InputError(f"unknown dimension {name!r}")
    lo, hi = attr_bounds if attr_bounds else (-np.inf, np.inf)
    lo = lo if raw.attr_lo is None else float(raw.attr_lo)
    hi = hi if raw.attr_hi is None else float(raw.attr_hi)
    if lo > hi and raw.attr_lo is not None and raw.attr_hi is not None:
        raise InputError(f"inverted attribute range [{lo}, {hi}]")
    attr_runs = ((lo, hi),) if lo <= hi else ()  # one given bound past the data's range
    if raw.values is not None:
        integral = schema.attr_type(attribute or schema.attributes[0][0]) == "int64"
        attr_runs = _set_runs(raw.values, lo, hi, integral)
    ranges = []
    for name, extent in schema.dims:
        lo, hi = raw.dims.get(name, (None, None))
        lo = 0 if lo is None else max(lo, 0)  # a NaN bound stays NaN and meets no index
        hi = extent - 1 if hi is None else min(hi, extent - 1)
        if name in raw.dim_values:
            runs = tuple((int(a), int(b)) for a, b in _set_runs(raw.dim_values[name], lo, hi, True))
        else:
            runs = ((ceil(lo), floor(hi)),) if lo <= hi else ()
        ranges.append(runs if runs and runs[0][0] <= runs[0][1] else ())
    return Query(attr_runs, tuple(ranges))


def _set_runs(values, lo, hi, integral: bool) -> tuple:
    """:func:`value_runs` of the members of a set inside [lo, hi], with
    `integral` only of its integral members."""
    return value_runs([v for v in values if lo <= v <= hi
                       and (not integral or float(v).is_integer())], integral)


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


# ---------------------------------------------------------------------------
# per-node evaluation


def attribute_match(node, a_lo: float, a_hi: float) -> tuple:
    """Child masks (partial, complete) for the attribute range.

    Row r of a node's sp table holds its children whose minimum is <= its
    boundary r, row r of al those whose maximum is >= it.  The partial side
    reads sp at the first boundary >= a_hi and al at the last <= a_lo, a
    superset verified later; the complete side drops the children in sp at
    the first boundary >= a_lo and in al at the last <= a_hi, and never
    over-approximates.  One left and one right search of both bounds.
    """
    sp, al = node.sp_masks, node.al_masks
    k = len(sp) - 1
    (l_lo, l_hi), (r_lo, r_hi) = (np.searchsorted(node.binning.boundaries, (a_lo, a_hi),
                                                  side).tolist() for side in ("left", "right"))
    c = node.child_mask
    if a_lo > node.amin:
        c &= ~sp[min(l_lo, k)]
    if a_hi < node.amax:
        c &= ~al[max(r_hi - 1, 0)]
    return sp[min(l_hi, k)] & al[max(r_lo - 1, 0)] & ~c, c


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


def eval_node(node, query: Query, index: Index, stats: QueryStats | None = None) -> tuple:
    """Combined (partial, complete) child masks for one node: complete
    children are complete for the attribute and the dimensions, partial
    ones overlap both and are not complete.

    A node that no attribute run, or no run of some dimension, meets gets
    (0, 0): :func:`runs_match` then keeps no child, or
    :func:`dimension_match` none along that dimension.
    """
    if stats is not None:
        stats.nodes_evaluated += 1
    p, c = runs_match(node, query.attr_runs)
    p_dim, c_dim = dimension_match(node, query, index.dimbitmaps, index)
    c_star = c & c_dim & node.child_mask
    p_star = (p | c) & (p_dim | c_dim) & ~c_star & node.child_mask
    return p_star, c_star


# ---------------------------------------------------------------------------
# traversal


def _axes(node, query: Query):
    """(runs, the node's (lo, hi)) of the attribute, then of each dimension."""
    return zip((query.attr_runs, *query.dim_ranges), ((node.amin, node.amax), *node.extent))


def _node_disjoint(node, query: Query) -> bool:
    for runs, (lo, hi) in _axes(node, query):
        for qlo, qhi in runs:
            if qhi >= lo and qlo <= hi:
                break
        else:  # no run of this axis meets the node
            return True
    return False


def _node_complete(node, query: Query) -> bool:
    for runs, (lo, hi) in _axes(node, query):
        for qlo, qhi in runs:
            if qlo <= lo and hi <= qhi:
                break
        else:  # no run of this axis covers the node
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
        query = normalize(query, index.schema, bounds, index.attribute)
    return query


def _cells(nodes: list, leaves: dict | None) -> int:
    """The non-empty cells under nodes of the descent, a leaf being its row
    of `leaves`, the leaf table."""
    rows = [node for node in nodes if type(node) is int]
    cells = int(leaves["count"][rows].sum()) if rows else 0
    return cells + sum(node.count for node in nodes if type(node) is not int)


def _leaf_rows(nodes: list, z: np.ndarray, slot_bits: int) -> np.ndarray:
    """The rows of the leaf table, of z column `z`, under nodes of the
    descent: a leaf is its row, and an internal node at level l and z-index
    n the run of leaves whose z lies in [n, n + 1) << (slot_bits * l)."""
    inner = [node for node in nodes if type(node) is not int]
    rows = np.array([node for node in nodes if type(node) is int], np.intp)
    if not inner:
        return rows
    ends = np.array([((node.z << slot_bits * node.level), (node.z + 1) << slot_bits * node.level)
                     for node in inner], np.uint64)
    a, b = np.searchsorted(z, ends.T)
    n = b - a
    return np.concatenate((rows, np.repeat(a - (np.cumsum(n) - n), n) + np.arange(n.sum())))


def _resolve(index: Index, runs, leaves: list, cover: Cover, stats) -> dict:
    """Resolve the partial `leaves`, rows of the leaf table, into
    `cover.answer` in one batch per block of their chunks
    (:func:`leaf_query`, :meth:`Index.leaf_chunks`), masked by the cover's
    dimension windows, with one attribute matcher for all of them; returns
    the hit count per chunk with a hit."""
    chunks = index.leaf_chunks()
    schema = index.schema
    root = index.root
    match = run_matcher(runs, schema.attr_type(index.attribute) == "int64", root.amin,
                        root.amax, len(leaves) * prod(schema.chunk_shape),
                        schema.empty_value(index.attribute))
    rows = np.array(leaves, np.intp)
    chunks = chunks.take(rows)
    table = index.tables[0]
    amin, amax = table["amin"][rows], table["amax"][rows]
    hits = {}
    for block, members, at_rows, at in chunks.batches(cover.first):
        batch = {"amin": amin[members], "amax": amax[members]}
        counts = leaf_query(block, at_rows, at, batch, index.attribute, runs, match, cover, stats)
        hit = np.flatnonzero(counts)
        hits.update(zip(map(tuple, chunks.coords[members[hit]].tolist()), counts[hit].tolist()))
    return hits


def _descend(index: Index, query: Query, budget: int, stats=None) -> tuple:
    """The one breadth-first descent behind every query kind.

    Returns the nodes it stops at, as lists in (level, z) order: the
    complete subtrees, the partial leaves to resolve exactly, and the
    frontier left partial by the level budget.  A leaf is its row of the
    leaf table (`Index.levels`).  Internal nodes are evaluated down to
    depth `budget` - 1 and leaves are resolved when they lie at depth <=
    `budget`.  A query whose attribute runs, or the runs of some
    dimension, miss the root stops at no node: an empty value set has no
    runs.
    """
    complete, leaves, frontier = [], [], []
    root = index.root
    if root is None or _node_disjoint(root, query):
        return complete, leaves, frontier
    depth = index.depth
    slot_bits = index.fanout.slot_bits
    queue = deque([(depth, 0, _node_complete(root, query))])
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
            p_star, c_star = eval_node(node, query, index, stats)
            base = z << slot_bits
            for slot in _iter_slots(p_star | c_star):
                queue.append((level - 1, base | slot, bool(c_star >> slot & 1)))
    return complete, leaves, frontier


def execute(index: Index, query, stats: QueryStats | None = None) -> ResultSet:
    """Answer a range, membership or dimension-set query with one
    breadth-first descent."""
    query = _prepare(index, query)
    complete, leaves, _ = _descend(index, query, index.depth, stats)
    if not (complete or leaves):
        return ResultSet(index.schema)
    schema = index.schema
    cover = query_cover(query.dim_ranges, schema.shape, schema.chunk_shape)
    partial = _resolve(index, query.attr_runs, leaves, cover, stats) if leaves else {}
    return ResultSet(schema, complete, partial, cover, query_box(query.dim_ranges, schema.shape),
                     index.tables[0], index)


# a value set is one attribute run per stretch of values: the same descent
membership = execute


def estimate(index: Index, query, level_budget: int,
             stats: QueryStats | None = None) -> tuple:
    """Bounds (min, max) on the matching cell count within a level budget.

    The minimum counts complete subtrees found so far; the maximum adds the
    still-unresolved partial frontier.  With a budget reaching the leaves
    the frontier resolves exactly and both bounds meet.  Complete leaves
    count from the leaf table's count column, so only partial leaves need
    the data store.
    """
    if level_budget < 0:
        raise InputError("level budget must be >= 0")
    query = _prepare(index, query)
    complete, leaves, frontier = _descend(index, query, level_budget, stats)
    table = index.tables[0] if index.tables else None
    lo = _cells(complete, table)
    if leaves:
        cover = query_cover(query.dim_ranges, index.schema.shape, index.schema.chunk_shape)
        lo += sum(_resolve(index, query.attr_runs, leaves, cover, stats).values())
    return lo, lo + _cells(frontier, table)
