import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arraybit.baseline import DimsAttsIndex, full_scan
from arraybit import hierindex
from arraybit.chunkstore import ArraySchema, ChunkStore, Cover, QueryStats, write_raw
from arraybit.cli import main
from arraybit.errors import DataError, InputError
from arraybit.hierindex import Index, build_index
from arraybit.query import (
    Query,
    RawQuery,
    ResultSet,
    dimension_match,
    estimate,
    eval_node,
    execute,
    membership,
    normalize,
)
from arraybit.query import _descend
from testutil import (
    assert_strictly_increasing,
    complete_ids,
    lone_chunk,
    node_count,
    node_extent,
    random_dim_set,
    random_index,
    random_raw_query,
    random_store,
    record_fetches,
    reference_leaf_stats,
    region_cells_satisfy,
)


@pytest.fixture
def schema2d():
    return ArraySchema((("d0", 16), ("d1", 16)), (("a", "float64"),), (4, 4))


def test_normalize_fills_dims(schema2d):
    q = normalize(RawQuery(attr_lo=1.0, attr_hi=2.0), schema2d)
    assert q.dim_ranges == (((0, 15),), ((0, 15),))


def test_normalize_one_sided(schema2d):
    q = normalize(RawQuery(attr_hi=45.0), schema2d, attr_bounds=(-3.0, 90.0))
    assert q.attr_runs == ((-3.0, 45.0),)
    q = normalize(RawQuery(attr_lo=1.0), schema2d)
    assert q.attr_runs == ((1.0, np.inf),)


def test_normalize_membership(schema2d):
    q = normalize(RawQuery(values=(4.0, 2.0, 4.0)), schema2d)
    assert q.attr_runs == ((2.0, 2.0), (4.0, 4.0))


def test_normalize_unknown_dim(schema2d):
    with pytest.raises(InputError):
        normalize(RawQuery(dims={"bogus": (0, 1)}), schema2d)


def test_normalize_rejects_inverted(schema2d):
    with pytest.raises(InputError):
        normalize(RawQuery(attr_lo=5.0, attr_hi=1.0), schema2d)


def test_normalize_dimension_sets_to_runs(schema2d):
    q = normalize(RawQuery(dims={"d0": (3, 12)}, dim_values={"d1": (9, 2, 3, 4, 40)}), schema2d)
    assert q.dim_ranges == (((3, 12),), ((2, 4), (9, 9)))
    # a range and a set on one dimension intersect
    q = normalize(RawQuery(dims={"d1": (3, 9)}, dim_values={"d1": {1, 3, 4, 9, 10}}), schema2d)
    assert q.dim_ranges[1] == ((3, 4), (9, 9))
    with pytest.raises(InputError):
        normalize(RawQuery(dim_values={"bogus": {1}}), schema2d)
    assert normalize(RawQuery(dim_values={"d0": {16, 20}}), schema2d).dim_ranges[0] == ()


def test_fractional_dimension_bounds_round_inwards(schema2d):
    def runs(**dims):
        return normalize(RawQuery(dims=dims), schema2d).dim_ranges[0]

    assert runs(d0=(2.5, None)) == ((3, 15),)
    assert runs(d0=(None, 2.5)) == ((0, 2),)
    assert runs(d0=(-0.5, 14.9)) == ((0, 14),)
    assert runs(d0=(-np.inf, np.inf)) == ((0, 15),)
    for empty in [(2.5, 2.5), (2.2, 2.8), (np.nan, 3), (20, None), (5, 3)]:
        assert runs(d0=empty) == ()  # no index: the query matches no cell
    sets = normalize(RawQuery(dim_values={"d0": {2.5, 4.0, 5, np.nan}}), schema2d)
    assert sets.dim_ranges[0] == ((4, 5),)
    assert normalize(RawQuery(dim_values={"d0": {2.5}}), schema2d).dim_ranges[0] == ()


def test_one_descent_equals_the_union_of_the_box_queries(monkeypatch):
    store, idx = make_index(seed=3, fanout=64)
    root = idx.root
    mid = (root.amin + root.amax) / 2
    raw = RawQuery(attr_lo=root.amin, attr_hi=mid, dim_values={"d1": (2, 3, 4, 9, 30)},
                   dims={"d0": (5, 27)})
    q = normalize(raw, store.schema)
    assert q.dim_ranges[1] == ((2, 4), (9, 9), (30, 30))
    trace = record_fetches(monkeypatch)
    got = execute(idx, q).cell_ids(store)
    assert trace[0] == (0, 0)
    assert_strictly_increasing(trace)  # one traversal
    parts = [
        execute(idx, RawQuery(attr_lo=root.amin, attr_hi=mid, dims={"d0": (5, 27), "d1": r}))
        .cell_ids(store)
        for r in q.dim_ranges[1]
    ]
    assert got.size and np.array_equal(got, np.sort(np.concatenate(parts)))


def test_dimension_value_sets_match_the_oracle():
    store, idx = make_index(seed=3, fanout=64)
    root = idx.root
    mid = (root.amin + root.amax) / 2
    vals = store.dense("a")
    cols = np.zeros(vals.shape, bool)
    cols[:, [2, 3, 9]] = True
    raw = RawQuery(attr_lo=root.amin, attr_hi=mid, dim_values={"d1": (2, 3, 9)})
    want = np.flatnonzero(cols & (vals >= root.amin) & (vals <= mid))
    v = float(vals[0, 2])
    member = RawQuery(values=(v,), dim_values={"d1": (2,)})
    want_member = np.flatnonzero(cols & (vals == v) & (np.arange(32) == 2))
    q = normalize(raw, store.schema)
    assert want.size and np.array_equal(full_scan(store, "a", q), want)
    assert np.array_equal(execute(idx, raw).cell_ids(store), want)
    assert np.array_equal(DimsAttsIndex(store, "a").query(q), want)
    assert estimate(idx, raw, idx.depth) == (want.size, want.size)
    assert np.array_equal(membership(idx, member).cell_ids(store), want_member)
    # a set with no index in the extent matches no cell
    none = normalize(RawQuery(dims={"d0": (2, 9)}, dim_values={"d1": {32, 40, 2.5}}), store.schema)
    assert execute(idx, none).count == 0
    assert estimate(idx, none, 0) == (0, 0)
    assert full_scan(store, "a", none).size == DimsAttsIndex(store, "a").query(none).size == 0


def make_index(seed=0, shape=(32, 32), chunk=(4, 4), sparsity=0.0, **kw):
    rng = np.random.default_rng(seed)
    return random_index(rng, shape, chunk, sparsity, **kw)


def test_eval_node_query_covering_everything():
    store, idx = make_index(fanout=64)
    root = idx.root
    q = Query(((root.amin, root.amax),), (((0, 31),), ((0, 31),)))
    p_star, c_star = eval_node(root, q, idx)
    assert c_star == root.child_mask
    assert p_star == 0


def test_eval_node_disjoint_attr():
    store, idx = make_index(fanout=64)
    root = idx.root
    q = Query(((root.amax + 1, root.amax + 2),), (((0, 31),), ((0, 31),)))
    assert eval_node(root, q, idx) == (0, 0)


def test_eval_node_disjoint_dimension():
    # no run of d1 meets the node: dimension_match keeps no child along d1
    store, idx = make_index(fanout=64)
    root = idx.root
    for d1 in (((40, 50),), ((-9, -1), (32, 40)), ()):
        q = Query(((root.amin, root.amax),), (((0, 31),), d1))
        assert eval_node(root, q, idx) == (0, 0)


def test_eval_node_masks_disjoint():
    store, idx = make_index(seed=3, fanout=64)
    root = idx.root
    rng = np.random.default_rng(0)
    for _ in range(50):
        raw = random_raw_query(rng, store.schema, root.amin, root.amax)
        q = normalize(raw, store.schema, (root.amin, root.amax))
        p_star, c_star = eval_node(root, q, idx)
        assert p_star & c_star == 0


def test_dimension_match_full_cover_and_single_child():
    store, idx = make_index(fanout=64)  # 8x8 chunk grid, one root, F_d = 8
    root = idx.root
    full = Query(((root.amin, root.amax),), (((0, 31),), ((0, 31),)))
    p, c = dimension_match(root, full, idx.dimbitmaps, idx)
    assert p == 0 and c == root.child_mask
    one = Query(((root.amin, root.amax),), (((4, 7),), ((8, 11),)))  # exactly chunk (1, 2)
    p, c = dimension_match(root, one, idx.dimbitmaps, idx)
    assert p == 0
    from testutil import zorder_encode

    assert c == 1 << zorder_encode((1, 2), 3)


def test_dimension_match_known_false_negative():
    # a sparse child ends mid-bucket; a query bound on its actual border
    # looks like a cut to the bucket lookup, so a true complete child is
    # reported partial (and later verified, preserving exactness)
    rng = np.random.default_rng(0)
    vals = np.full((32, 8), np.nan)
    vals[0:8, :] = rng.random((8, 8))  # child (0, 0) extent rows 0..7
    vals[16:32, :] = rng.random((16, 8))
    sch = ArraySchema((("d0", 32), ("d1", 8)), (("a", "float64"),), (4, 4))
    store = ChunkStore.from_dense(sch, {"a": vals})
    idx = build_index(store, fanout=16)
    root = idx.root
    q = Query(((root.amin, root.amax),), (((0, 7),), ((0, 7),)))
    p, c = dimension_match(root, q, idx.dimbitmaps, idx)
    assert p & 0b01  # slot (0, 0): fully covered yet flagged partial
    assert not (c & 0b01)
    rs = execute(idx, q)
    want = full_scan(store, "a", q)
    assert np.array_equal(rs.cell_ids(store), want)


def _meets(dim_ranges, extent):
    return all(any(qlo <= hi and qhi >= lo for qlo, qhi in runs)
               for runs, (lo, hi) in zip(dim_ranges, extent))


def test_dimension_match_against_child_extents():
    rng = np.random.default_rng(7)
    store, idx = make_index(seed=8, shape=(40, 24), chunk=(4, 4), sparsity=0.3, fanout=16)
    for level in range(1, idx.depth + 1):
        for row in range(idx.tables[level]["z"].size):
            node = idx.fetch(level, row)
            for _ in range(10):
                raw = random_raw_query(rng, store.schema, node.amin, node.amax)
                q = normalize(raw, store.schema)
                if not _meets(q.dim_ranges, node.extent):
                    continue
                p, c = dimension_match(node, q, idx.dimbitmaps, idx)
                children = range(node.first, node.first + node.child_mask.bit_count())
                slots = [s for s in range(idx.fanout.total) if node.child_mask >> s & 1]
                for slot, child_row in zip(slots, children):
                    child_z = idx.tables[level - 1]["z"][child_row]
                    assert child_z == (node.z << idx.fanout.slot_bits) | slot
                    child = idx.fetch(level - 1, child_row)
                    extent = node_extent(idx.tables[0], child)
                    inter = _meets(q.dim_ranges, extent)
                    inside = all(
                        any(qlo <= lo and hi <= qhi for qlo, qhi in runs)
                        for runs, (lo, hi) in zip(q.dim_ranges, extent)
                    )
                    got_c = bool((c >> slot) & 1)
                    got_p = bool((p >> slot) & 1)
                    if got_c:
                        assert inside  # completes never over-approximate
                    if inter:
                        assert got_p or got_c  # no overlapping child is lost


def test_execute_empty_result():
    store, idx = make_index(fanout=64)
    q = Query(((idx.root.amax + 10, idx.root.amax + 20),), (((0, 31),), ((0, 31),)))
    rs = execute(idx, q)
    assert rs.count == 0
    assert rs.cell_ids(store).size == 0


def test_execute_full_domain_is_complete_region():
    store, idx = make_index(fanout=64)
    rs = execute(idx, RawQuery())
    assert rs.count == store.nonempty_total()
    assert len(rs.complete) == 1 and not rs.partial


def test_a_loaded_index_without_a_store(tmp_path):
    store, built = random_index(np.random.default_rng(2), (32, 32), (4, 4), 0.3, fanout=16)
    built.save(tmp_path / "x.abix")
    idx = Index.load(tmp_path / "x.abix")
    assert idx.store is None
    # the whole domain is one complete region: no cell is read
    rs = execute(idx, RawQuery())
    assert (rs.count, len(rs.complete), len(rs.partial)) == (698, 1, 0)
    want = full_scan(store, "a", normalize(RawQuery(), store.schema))
    assert want.size == 698 and np.array_equal(rs.cell_ids(store), want)
    # a partial leaf needs the cells
    root = idx.root
    cut = RawQuery(attr_lo=root.amin, attr_hi=(root.amin + root.amax) / 2, dims={"d0": (3, 20)})
    with pytest.raises(DataError, match="no attached data store"):
        execute(idx, cut)
    # an estimate that stops above the leaves reads no cell either
    lo, hi = estimate(idx, cut, idx.depth - 1)
    n = execute(built, cut).count
    assert 0 <= lo <= n <= hi <= 698
    with pytest.raises(DataError, match="no attached data store"):
        estimate(idx, cut, idx.depth)


def test_execute_empty_index():
    sch = ArraySchema((("d0", 8),), (("a", "float64"),), (4,))
    store = ChunkStore.from_dense(sch, {"a": np.full(8, np.nan)})
    idx = build_index(store)
    rs = execute(idx, RawQuery(attr_lo=0.0))
    assert rs.count == 0


@pytest.mark.parametrize(
    "shape,chunk,sparsity,fanout",
    [
        ((32, 32), (4, 4), 0.0, 64),
        ((40, 23), (4, 4), 0.5, 64),
        ((12, 10, 9), (3, 3, 3), 0.0, 64),
        ((12, 10, 9), (3, 3, 3), 0.6, 64),
        ((6, 6, 6, 6), (2, 3, 2, 3), 0.3, 256),
    ],
)
def test_execute_matches_full_scan(shape, chunk, sparsity, fanout):
    rng = np.random.default_rng(hash((shape, sparsity)) % 2**32)
    store, idx = random_index(rng, shape, chunk, sparsity, fanout=fanout)
    root = idx.root
    if root is None:
        pytest.skip("degenerate store")
    for i in range(40):
        raw = random_raw_query(rng, store.schema, root.amin, root.amax)
        q = normalize(raw, store.schema, (root.amin, root.amax))
        rs = execute(idx, q)
        got = rs.cell_ids(store)
        want = full_scan(store, "a", q)
        assert np.array_equal(got, want), (shape, i)
        assert np.unique(got).size == got.size  # complete/partial disjoint


def test_complete_regions_are_sound():
    rng = np.random.default_rng(5)
    store, idx = random_index(rng, (32, 32), (4, 4), 0.4, fanout=64)
    root = idx.root
    for _ in range(40):
        raw = random_raw_query(rng, store.schema, root.amin, root.amax)
        q = normalize(raw, store.schema, (root.amin, root.amax))
        rs = execute(idx, q)
        for region in rs.complete:
            assert region_cells_satisfy(store, "a", node_extent(rs.leaves, region), q)


def test_trace_single_traversal(monkeypatch):
    rng = np.random.default_rng(6)
    store, idx = random_index(rng, (40, 40), (4, 4), 0.2, fanout=16)
    root = idx.root
    trace = record_fetches(monkeypatch)
    for _ in range(30):
        raw = random_raw_query(rng, store.schema, root.amin, root.amax)
        trace.clear()
        execute(idx, raw)
        assert_strictly_increasing(trace)


def test_membership_single_value_equals_equality_range():
    rng = np.random.default_rng(9)
    store, idx = random_index(rng, (16, 16), (4, 4), fanout=16)
    chunk = next(iter(store.chunks.values()))
    v = float(chunk.values["a"][chunk.nonempty][0])
    got = membership(idx, RawQuery(values=(v,)))
    want = execute(idx, RawQuery(attr_lo=v, attr_hi=v))
    assert np.array_equal(got.cell_ids(store), want.cell_ids(store))


def test_membership_integer_coalescing():
    vals = np.arange(64).reshape(8, 8) % 7
    sch = ArraySchema(
        (("d0", 8), ("d1", 8)), (("a", "int64"),), (4, 4), {"a": -1}
    )
    store = ChunkStore.from_dense(sch, {"a": vals})
    idx = build_index(store, fanout=16)
    stats_m = QueryStats()
    got = membership(idx, RawQuery(values=(1, 2, 3)), stats_m)
    want = execute(idx, RawQuery(attr_lo=1, attr_hi=3))
    assert np.array_equal(got.cell_ids(store), want.cell_ids(store))
    # coalesced into one run: no more node evaluations than the plain range
    stats_r = QueryStats()
    execute(idx, RawQuery(attr_lo=1, attr_hi=3), stats_r)
    assert stats_m.nodes_evaluated == stats_r.nodes_evaluated


def test_membership_matches_oracle():
    rng = np.random.default_rng(10)
    store, idx = random_index(rng, (24, 24), (4, 4), 0.3, fanout=16)
    root = idx.root
    live = np.concatenate(
        [c.values["a"][c.nonempty] for c in store.chunks.values()]
    )
    for _ in range(20):
        vals = list(rng.choice(live, size=3))
        vals.append(float(root.amax + 5.0))  # absent value
        raw = random_raw_query(rng, store.schema, root.amin, root.amax, kind="membership")
        raw.values = tuple(float(v) for v in vals)
        q = normalize(raw, store.schema, (root.amin, root.amax))
        got = membership(idx, q).cell_ids(store)
        want = full_scan(store, "a", q)
        assert np.array_equal(got, want)


def test_membership_empty_set():
    store, idx = make_index(fanout=16)
    assert membership(idx, Query((), (((0, 31),), ((0, 31),)))).count == 0


def _live_values(store):
    return np.concatenate([c.values["a"][c.nonempty] for c in store.iter_chunks()])


def _random_membership(rng, store, root, kmin=2):
    raw = random_raw_query(rng, store.schema, root.amin, root.amax, kind="membership")
    picks = rng.choice(_live_values(store), size=int(rng.integers(kmin, 6)))
    raw.values = tuple(float(v) for v in picks) + (float(root.amax) + 1.0,)
    return normalize(raw, store.schema, (root.amin, root.amax))


def test_membership_single_traversal(monkeypatch):
    rng = np.random.default_rng(14)
    store, idx = random_index(rng, (40, 40), (4, 4), 0.2, fanout=16)
    root = idx.root
    trace = record_fetches(monkeypatch)
    for _ in range(20):
        q = _random_membership(rng, store, root)
        trace.clear()
        rs = membership(idx, q)
        # a set left with no member inside its range, or the root's, fetches
        # no node
        meets = any(hi >= root.amin and lo <= root.amax for lo, hi in q.attr_runs)
        assert trace[:1] == ([(0, 0)] if meets else [])
        assert_strictly_increasing(trace)
        assert np.array_equal(rs.cell_ids(store), full_scan(store, "a", q))


def test_membership_integer_attribute_non_integral_values():
    # 1.5 and 2.5 must not coalesce into a run that admits the integer 2
    vals = np.arange(64).reshape(8, 8) % 7
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "int64"),), (4, 4), {"a": -1})
    store = ChunkStore.from_dense(sch, {"a": vals})
    idx = build_index(store, fanout=16)
    q = normalize(RawQuery(values=(1.5, 2.5, 4)), sch)
    want = full_scan(store, "a", q)
    assert want.size == int((vals == 4).sum())
    assert np.array_equal(execute(idx, q).cell_ids(store), want)
    assert estimate(idx, q, idx.depth) == (want.size, want.size)


def test_estimate_membership_sandwich_and_monotone():
    rng = np.random.default_rng(15)
    store, idx = random_index(rng, (40, 40), (4, 4), 0.3, fanout=16)
    root = idx.root
    for _ in range(25):
        q = _random_membership(rng, store, root, kmin=1)
        exact = full_scan(store, "a", q).size
        prev_lo, prev_hi = -1, None
        for budget in range(idx.depth + 2):
            lo, hi = estimate(idx, q, budget)
            assert lo <= exact <= hi
            assert lo >= prev_lo
            if prev_hi is not None:
                assert hi <= prev_hi
            prev_lo, prev_hi = lo, hi
        assert prev_lo == exact == prev_hi  # meets the oracle at full depth


def _frozen_store(rng):
    """A 256x256 store with binned, constant and plain leaves; a chunk's
    arrays are read-only."""
    vals = rng.normal(size=(256, 256)) * 50.0
    vals[0:32, 224:256] = np.nan
    vals[0:4, 224:229] = rng.normal(size=(4, 5))  # 20 live cells: a plain leaf
    vals[32:64, 224:256] = 7.0  # one bin spans the whole leaf
    sch = ArraySchema((("d0", 256), ("d1", 256)), (("a", "float64"),), (32, 32))
    return ChunkStore.from_dense(sch, {"a": vals})


@pytest.mark.parametrize("encoding", ["equality", "range", "interval"])
def test_queries_never_write_to_the_store(encoding):
    # a query must only read chunk arrays: the store's arrays are
    # read-only, so any write through a view raises instead of silently
    # corrupting the oracle; the tree and the baseline in `encoding` alike
    rng = np.random.default_rng(16)
    store = _frozen_store(rng)
    idx = build_index(store, fanout=16, bins=16)
    assert set((idx.tables[0]["nbins"] == 0).tolist()) == {True, False}
    dims = DimsAttsIndex(store, "a", bins=16, encoding=encoding)
    total = store.nonempty_total()
    root = idx.root
    live = _live_values(store)
    raws = [
        RawQuery(dims={"d0": (5, 200)}),  # bin span covers whole leaves
        RawQuery(attr_lo=-20.0, attr_hi=35.0, dims={"d1": (10, 250)}),
        RawQuery(values=(7.0, float(live[0]), float(live[-1]), root.amax + 1.0),
                 dims={"d1": (5, 240)}),
    ]
    for raw in raws:
        q = normalize(raw, store.schema, (root.amin, root.amax))
        want = full_scan(store, "a", q)
        assert np.array_equal(execute(idx, q).cell_ids(store), want)
        assert np.array_equal(dims.query(q), want)
        for budget in range(idx.depth + 1):
            lo, hi = estimate(idx, q, budget)
            assert lo <= want.size <= hi
    recount = sum(int(c.nonempty.sum()) for c in store.chunks.values())
    assert store.nonempty_total() == total == recount


def test_estimate_sandwich_and_monotone():
    rng = np.random.default_rng(11)
    store, idx = random_index(rng, (40, 40), (4, 4), 0.3, fanout=16)
    root = idx.root
    for _ in range(25):
        raw = random_raw_query(rng, store.schema, root.amin, root.amax)
        q = normalize(raw, store.schema, (root.amin, root.amax))
        exact = execute(idx, q).count
        prev_lo, prev_hi = -1, None
        for budget in range(idx.depth + 2):
            lo, hi = estimate(idx, q, budget)
            assert lo <= exact <= hi
            assert lo >= prev_lo
            if prev_hi is not None:
                assert hi <= prev_hi
            prev_lo, prev_hi = lo, hi
        assert prev_lo == exact == prev_hi  # meets at full depth


def test_estimate_budget_zero_partial_root():
    store, idx = make_index(seed=12, fanout=64)
    root = idx.root
    q = Query(((root.amin, (root.amin + root.amax) / 2),), (((0, 31),), ((0, 31),)))
    lo, hi = estimate(idx, q, 0)
    assert lo == 0 and hi == root.count


def test_estimate_negative_budget():
    store, idx = make_index(fanout=64)
    with pytest.raises(InputError):
        estimate(idx, RawQuery(), -1)


def _random_frozen_store(rng, ndim, dtype, empty, clipped=True):
    """A small store (read-only, as every store is) whose extents are not
    multiples of the chunk, so edge chunks are clipped, or with `clipped`
    false are multiples after the first dimension.  `empty` is the share of
    empty cells, or "chunks" to leave every other chunk of the grid wholly
    empty."""
    chunk = tuple(int(c) for c in rng.integers(2, 5, ndim))
    shape = tuple(int(c * rng.integers(2, 5) + (rng.integers(1, c) if clipped or d == 0 else 0))
                  for d, c in enumerate(chunk))
    if dtype == "float64":
        vals, sentinel = rng.normal(size=shape) * 50.0, np.nan
    else:
        vals, sentinel = rng.integers(0, 12, size=shape), -1
    if empty == "chunks":
        grid = np.indices(shape) // np.reshape(chunk, (-1,) + (1,) * ndim)
        vals[grid.sum(axis=0) % 2 == 1] = sentinel
    else:
        vals[rng.random(shape) < empty] = sentinel
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", dtype),),
                      chunk, {} if dtype == "float64" else {"a": -1})
    return ChunkStore.from_dense(sch, {"a": vals})


def _slab_store(store, rows):
    """The chunks of `store` in its first `rows` cells along d0."""
    sch = store.schema
    chunks = {c: ch for c, ch in store.chunks.items() if c[0] * sch.chunk_shape[0] < rows}
    return ChunkStore(sch.with_extents((rows,) + sch.shape[1:]), chunks)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(1, 3),
    dtype=st.sampled_from(["float64", "int64"]),
    empty=st.sampled_from([0.0, 0.4, "chunks"]),
    appended=st.booleans(),
)
@example(seed=0, ndim=2, dtype="float64", empty=0.0, appended=False)
@example(seed=1, ndim=3, dtype="int64", empty="chunks", appended=True)
def test_cell_ids_and_full_depth_estimate_match_full_scan(seed, ndim, dtype, empty, appended):
    rng = np.random.default_rng(seed)
    store = _random_frozen_store(rng, ndim, dtype, empty)
    sch = store.schema
    kw = dict(fanout=2**ndim, bins=4, e=1)
    if appended:
        idx = build_index(_slab_store(store, sch.chunk_shape[0]), **kw)
        idx.append(ChunkStore(sch, {c: ch for c, ch in store.chunks.items() if c[0] > 0}))
    else:
        idx = build_index(store, **kw)
    root = idx.root
    if root is None:
        return
    live = np.concatenate([c.values["a"][c.nonempty] for c in store.chunks.values()])
    # whole chunks before a cut through the second chunk along d0: complete
    # regions next to partial chunks
    mixed = RawQuery(dims={"d0": (0, sch.chunk_shape[0])})
    raws = [mixed, RawQuery(values=tuple(rng.choice(live, 3)), dims=dict(mixed.dims))]
    raws += [random_raw_query(rng, sch, root.amin, root.amax) for _ in range(6)]
    raws.append(random_raw_query(rng, sch, root.amin, root.amax, kind="membership"))
    for raw in raws:
        q = normalize(raw, sch, (root.amin, root.amax))
        rs = execute(idx, q)
        got = rs.cell_ids(store)
        assert got.dtype == np.int64
        assert np.array_equal(got, full_scan(store, "a", q))
        assert (np.diff(got) > 0).all()
        assert rs.count == got.size
        assert estimate(idx, q, idx.depth) == (got.size, got.size)
        if raw is mixed and empty == 0.0:
            assert rs.complete and rs.partial



def test_cell_ids_place_an_answer_box_anywhere_in_the_array():
    # the id arithmetic alone: a random answer box at a random origin of a
    # 1-4 dimensional array, against the ids of the same cells set in a
    # whole-array mask; a cover in tiles of one cell starts anywhere
    rng = np.random.default_rng(0)
    for _ in range(300):
        shape = tuple(int(e) for e in rng.integers(1, 7, int(rng.integers(1, 5))))
        origin = tuple(int(rng.integers(0, e)) for e in shape)
        sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)),
                          (("a", "float64"),), shape)
        answer = rng.random([int(rng.integers(1, e - o + 1)) for e, o in zip(shape, origin)]) < 0.4
        rs = ResultSet(sch, cover=Cover(answer, (1,) * len(shape), origin, (None,) * len(shape)),
                       box=tuple((o, o + n - 1) for o, n in zip(origin, answer.shape)))
        whole = np.zeros(shape, bool)
        whole[tuple(slice(o, o + n) for o, n in zip(origin, answer.shape))] = answer
        assert np.array_equal(rs.cell_ids(ChunkStore(sch, {})), np.flatnonzero(whole))


@pytest.mark.parametrize("appended", [False, True])
def test_answer_box_matches_full_scan(appended):
    # a 10x11 array in 4x4 chunks: the last chunk row and column are
    # clipped.  Every cell is 5.0 but for a few chunks: (0, 1) holds only 0
    # and 10 and (1, 1) 5 and 10, so a run [4, 6] leaves both partial, the
    # first without a hit, next to the complete others.
    vals = np.full((10, 11), 5.0)
    vals[0:4, 4:8] = np.where(np.arange(16).reshape(4, 4) % 2, 0.0, 10.0)
    vals[4:8, 4:8] = np.where(np.arange(16).reshape(4, 4) % 3, 5.0, 10.0)
    vals[8:10, 8:11] = [[4.0, np.nan, 6.0], [np.nan, 6.0, 4.0]]
    vals[5, 0] = vals[9, 2] = np.nan
    sch = ArraySchema((("d0", 10), ("d1", 11)), (("a", "float64"),), (4, 4))
    store = ChunkStore.from_dense(sch, {"a": vals})
    kw = dict(fanout=4, bins=2, e=1)
    if appended:
        idx = build_index(_slab_store(store, 4), **kw)
        idx.append(ChunkStore(sch, {c: ch for c, ch in store.chunks.items() if c[0] > 0}))
    else:
        idx = build_index(store, **kw)
    raws = [
        RawQuery(attr_lo=4.0, attr_hi=6.0),
        # bounds that cut the grid's first and last chunks on both axes
        RawQuery(attr_lo=4.0, attr_hi=6.0, dims={"d0": (1, 8), "d1": (2, 9)}),
        RawQuery(attr_lo=-1.0, dims={"d0": (3, 9), "d1": (0, 4)}),
        # value sets with runs in several chunks
        RawQuery(attr_lo=4.0, attr_hi=6.0, dim_values={"d0": {1, 2, 9}, "d1": {0, 5, 6, 9, 10}}),
        RawQuery(values=(0.0, 5.0), dim_values={"d1": {3, 4, 7, 8}}),
        RawQuery(values=(10.0,), dims={"d0": (2, 6)}),
        RawQuery(dim_values={"d0": {0, 4, 8}}),
    ]
    for raw in raws:
        q = normalize(raw, sch)
        rs = execute(idx, q)
        ids = rs.cell_ids(store)
        want = full_scan(store, "a", q)
        assert np.array_equal(ids, want), raw
        assert rs.count == ids.size
        assert np.array_equal(rs.cell_ids(store), want)  # a second call gives the same
        done = complete_ids(store, rs)
        assert np.isin(done, want).all() and done.size == sum(node_count(rs.leaves, n) for n in rs.complete), raw
    # the first query: complete regions, and partial leaves (0, 1) without a
    # hit and (1, 1) with some
    q = normalize(raws[0], sch)
    resolved = set(idx.leaf_coords(_descend(idx, q, idx.depth)[1]))
    rs = execute(idx, q)
    assert rs.complete and {(0, 1), (1, 1)} <= resolved
    assert (0, 1) not in rs.partial and rs.partial[(1, 1)] == 10


def _numpy_ids(store, raw):
    """Sorted global row-major ids of the cells matching `raw`, from a numpy
    mask over the dense array; the dimension constraints are integral."""
    vals = store.dense("a")
    mask = store.nonempty_dense()
    if raw.values is not None:
        mask &= np.isin(vals, np.asarray(raw.values))
    if raw.attr_lo is not None:
        mask &= vals >= raw.attr_lo
    if raw.attr_hi is not None:
        mask &= vals <= raw.attr_hi
    for d, (name, extent) in enumerate(store.schema.dims):
        at = np.arange(extent).reshape([-1 if i == d else 1 for i in range(vals.ndim)])
        lo, hi = raw.dims.get(name, (None, None))
        mask &= (at >= (0 if lo is None else lo)) & (at <= (extent if hi is None else hi))
        if name in raw.dim_values:
            mask &= np.isin(at, sorted(raw.dim_values[name]))
    return np.flatnonzero(mask)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(2, 3),
    dtype=st.sampled_from(["float64", "int64"]),
    empty=st.sampled_from([0.4, "chunks"]),
    kind=st.sampled_from(["mixed", "membership"]),
)
@example(seed=0, ndim=2, dtype="float64", empty=0.4, kind="mixed")
@example(seed=1, ndim=3, dtype="int64", empty="chunks", kind="membership")
def test_dimension_sets_match_a_numpy_mask(seed, ndim, dtype, empty, kind):
    rng = np.random.default_rng(seed)
    store = _random_frozen_store(rng, ndim, dtype, empty)
    sch = store.schema
    idx = build_index(store, fanout=2**ndim, bins=4, e=1)
    root = idx.root
    if root is None:
        return
    dims = DimsAttsIndex(store, "a", bins=8)
    total = store.nonempty_total()
    live = _live_values(store)
    for _ in range(4):
        raw = random_raw_query(rng, sch, root.amin, root.amax, kind)
        if kind == "membership":
            picks = rng.choice(live, size=int(rng.integers(1, 5)))
            raw.values = tuple(float(v) for v in picks) + (float(root.amax) + 1.0,)
        if not raw.dim_values:  # at least one dimension set per query
            name, extent = sch.dims[int(rng.integers(ndim))]
            raw.dims.pop(name, None)
            raw.dim_values[name] = random_dim_set(rng, extent)
        want = _numpy_ids(store, raw)
        q = normalize(raw, sch, (root.amin, root.amax))
        assert np.array_equal(execute(idx, q).cell_ids(store), want)
        if kind == "membership":
            assert np.array_equal(membership(idx, q).cell_ids(store), want)
        assert np.array_equal(full_scan(store, "a", q), want)
        assert np.array_equal(dims.query(q), want)
        for budget in range(idx.depth):
            lo, hi = estimate(idx, q, budget)
            assert lo <= want.size <= hi <= total
        assert estimate(idx, q, idx.depth) == (want.size, want.size)


def _several_blocks(rng, store, twin):
    """A store over the same chunks as `store`, each taken at random from
    `store`, from `twin` (a second chunking of the same data, whose blocks
    are other arrays) or copied into a block of its own."""
    chunks = {}
    for coords, chunk in store.chunks.items():
        pick = rng.integers(3)
        if pick == 2:
            chunk = lone_chunk(chunk.coords, chunk.offsets, chunk.values, chunk.nonempty)
        chunks[coords] = twin.chunks[coords] if pick == 1 else chunk
    return ChunkStore(store.schema, chunks)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(1, 4),
    dtype=st.sampled_from(["float64", "int64"]),
    empty=st.sampled_from([0.0, 0.4, "chunks"]),
    layout=st.sampled_from(["one", "subset", "appended", "attached"]),
    clipped=st.booleans(),
)
@example(seed=0, ndim=2, dtype="int64", empty=0.4, layout="attached", clipped=True)
@example(seed=1, ndim=3, dtype="float64", empty="chunks", layout="appended", clipped=True)
@example(seed=2, ndim=4, dtype="int64", empty=0.0, layout="subset", clipped=False)
@example(seed=3, ndim=4, dtype="float64", empty=0.4, layout="one", clipped=True)
def test_batched_resolution_matches_full_scan(seed, ndim, dtype, empty, layout, clipped):
    # clipped edge chunks or trailing extents of whole chunks; stores of one
    # block per chunk shape, of a subset of another store's chunk views,
    # grown by appends from another chunking of the data, or attached with
    # chunks from several blocks
    rng = np.random.default_rng(seed)
    store = _random_frozen_store(rng, ndim, dtype, empty, clipped)
    sch = store.schema
    twin = ChunkStore.from_dense(sch, {"a": store.dense("a")})
    kw = dict(fanout=2**ndim, bins=4, e=1)
    if layout == "subset":
        store = ChunkStore(sch, {c: ch for c, ch in store.chunks.items() if rng.random() < 0.7})
    if layout == "appended":
        idx = build_index(_slab_store(store, sch.chunk_shape[0]), **kw)
        idx.append(ChunkStore(sch, {c: ch for c, ch in twin.chunks.items() if c[0] > 0}))
    else:
        idx = build_index(store, **kw)
    if layout == "attached":
        idx.attach(_several_blocks(rng, store, twin))
    root = idx.root
    if root is None:
        return
    queried = idx.store
    live = _live_values(store)
    raws = [RawQuery(dims={"d0": (0, sch.chunk_shape[0])})]
    raws += [random_raw_query(rng, sch, root.amin, root.amax) for _ in range(4)]
    raws += [random_raw_query(rng, sch, root.amin, root.amax, kind="membership")]
    # a value set of live values (integer stretches and a lookup table on
    # int64) in a box and in dimension sets of several runs
    picks = tuple(float(v) for v in rng.choice(live, 5))
    raws += [RawQuery(values=picks, dims={"d0": (1, sch.shape[0] - 2)}),
             RawQuery(values=picks, dim_values={n: random_dim_set(rng, e) for n, e in sch.dims})]
    # boxes that stop short of the array's trailing extents, around many
    # matches (every value) and few (one live value), so `cell_ids` widens
    # some answers and not others
    cut = {n: (int(rng.integers(0, 2)), e - 1 - int(rng.integers(0, 2))) for n, e in sch.dims}
    one = float(rng.choice(live))
    raws += [RawQuery(dims=cut), RawQuery(attr_lo=one, attr_hi=one, dims=cut)]
    for raw in raws:
        q = normalize(raw, sch, (root.amin, root.amax))
        want = full_scan(store, "a", q)
        rs = execute(idx, q)
        assert np.array_equal(rs.cell_ids(queried), want), raw
        assert rs.count == want.size
        done = complete_ids(store, rs)
        assert np.isin(done, want).all() and done.size == sum(node_count(rs.leaves, n) for n in rs.complete), raw


def _store_of_depth(rng, ndim: int, depth: int, dtype: str):
    """A store whose tree, of 2 children per dimension, is `depth` levels
    deep: d0 spans 2**(depth - 1) + 1 to 2**depth chunks, the others up to
    2**depth.  Every extent may clip its last chunks, so the store has up
    to 2**ndim blocks, and about a fifth of the chunks hold no value."""
    chunk = tuple(int(c) for c in rng.integers(2, 4, ndim))
    grid = [int(rng.integers(2 ** (depth - 1) + 1, 2**depth + 1))]
    grid += [int(rng.integers(1, 2**depth + 1)) for _ in range(ndim - 1)]
    shape = tuple(g * c - int(rng.integers(0, c)) for g, c in zip(grid, chunk))
    if dtype == "float64":
        vals, sentinel = rng.normal(size=shape) * 50.0, np.nan
    else:
        vals, sentinel = rng.integers(0, 12, size=shape), -1
    vals[rng.random(shape) < 0.3] = sentinel
    tiles = np.indices(shape) // np.reshape(chunk, (-1,) + (1,) * ndim)
    blank = rng.random(grid) < 0.2
    vals[blank[tuple(tiles)]] = sentinel
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", dtype),),
                      chunk, {} if dtype == "float64" else {"a": -1})
    return ChunkStore.from_dense(sch, {"a": vals})


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(1, 3),
    depth=st.sampled_from([2, 3]),
    dtype=st.sampled_from(["float64", "int64"]),
    layout=st.sampled_from(["loaded", "shared", "merged", "subset"]),
)
@example(seed=0, ndim=2, depth=3, dtype="float64", layout="shared")
@example(seed=1, ndim=3, depth=2, dtype="int64", layout="subset")
def test_joined_leaves_answer_like_full_scan_on_stores_of_several_blocks(seed, ndim, depth, dtype,
                                                                           layout):
    # leaf resolution and the complete nodes' chunks come from the leaves'
    # join with the store: a saved index loaded onto its store, or onto a
    # dict of the same chunks from several blocks; a tree grown by an append
    # with the store it merges; and `arraybit append`'s way, a loaded first
    # slab attached to the subset of the whole store it indexes, then grown
    rng = np.random.default_rng(seed)
    store = _store_of_depth(rng, ndim, depth, dtype)
    sch = store.schema
    twin = ChunkStore.from_dense(sch, {"a": store.dense("a")})
    kw = dict(fanout=2**ndim, bins=4, e=1)
    rows = int(rng.integers(1, sch.chunk_grid[0])) * sch.chunk_shape[0]
    if layout in ("loaded", "shared"):
        idx = Index._parse(build_index(store, **kw).serialize())
        idx.attach(store if layout == "loaded" else _several_blocks(rng, store, twin))
        stages = [(idx, store)]
    elif layout == "merged":
        idx = build_index(_slab_store(store, rows), **kw)
        idx.append(ChunkStore(sch, {c: ch for c, ch in twin.chunks.items()
                                    if c[0] * sch.chunk_shape[0] >= rows}))
        stages = [(idx, store)]
    else:
        first = _slab_store(store, rows)
        idx = Index._parse(build_index(first, **kw).serialize())
        existing = set(idx.leaf_coords())
        idx.attach(ChunkStore(first.schema, {c: twin.chunks[c] for c in existing}))
        stages = [(idx, first)]
        idx = Index._parse(idx.serialize())
        idx.attach(ChunkStore(first.schema, {c: twin.chunks[c] for c in existing}))
        idx.append(ChunkStore(sch, {c: ch for c, ch in twin.chunks.items() if c not in existing}))
        stages.append((idx, store))
    for idx, truth in stages:
        root = idx.root
        if root is None:
            continue
        if truth is store:
            assert idx.depth == depth
        live = _live_values(truth)
        raws = [RawQuery(), RawQuery(dims={n: (1, e - 2) for n, e in truth.schema.dims})]
        raws += [random_raw_query(rng, truth.schema, root.amin, root.amax) for _ in range(4)]
        raws += [RawQuery(values=tuple(float(v) for v in rng.choice(live, 4)))]
        for raw in raws:
            q = normalize(raw, truth.schema, (root.amin, root.amax))
            want = full_scan(truth, "a", q)
            rs = execute(idx, q)
            assert np.array_equal(rs.cell_ids(idx.store), want), raw
            assert rs.count == want.size
            assert estimate(idx, q, idx.depth) == (want.size, want.size)


@pytest.mark.parametrize("shape, chunk", [((40, 40), (8, 8)), ((12, 40, 6), (4, 8, 3))])
def test_cell_ids_widen_the_answer_when_its_matches_are_as_many(monkeypatch, shape, chunk):
    # `cell_ids` spans the array's trailing extents, with no id arithmetic,
    # when that adds no more cells than the query matches; the ids are the
    # same on either side.  A cell's value is its id, so an attribute range
    # from the box's first cell picks its lowest ids.
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", "float64"),),
                      chunk)
    store = ChunkStore.from_dense(sch, {"a": np.arange(float(np.prod(shape))).reshape(shape)})
    idx = build_index(store, fanout=2 ** len(shape), bins=4, e=1)
    box = {"d0": (3, 4), sch.dim_names[-1]: (1, shape[-1] - 2)}
    added = 2 * 2 * int(np.prod(shape[1:-1]))  # two rows, two indices short on the last axis
    inside = full_scan(store, "a", normalize(RawQuery(dims=box), sch))
    first = int(inside[0])
    seen = []
    flat = np.flatnonzero

    def spy(a):
        seen.append(a.shape[1:] == shape[1:])
        return flat(a)

    for raw, wide in [
        (RawQuery(dims=box), True),
        (RawQuery(attr_lo=first, attr_hi=int(inside[added - 1]), dims=box), True),
        (RawQuery(attr_lo=first, attr_hi=int(inside[added - 2]), dims=box), False),
        (RawQuery(attr_lo=first, attr_hi=first, dims=box), False),
        (RawQuery(attr_lo=first, attr_hi=first, dims={"d0": (3, 4)}), True),  # spans already
    ]:
        q = normalize(raw, sch)
        rs = execute(idx, q)
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "flatnonzero", spy)
            ids = rs.cell_ids(store)
        assert seen == [wide], raw
        assert np.array_equal(ids, full_scan(store, "a", q)), raw


def test_query_stats_keep_their_per_leaf_definitions():
    # leaves_scanned and candidate_checks count per leaf as the per-leaf
    # resolver did (testutil.reference_leaf_stats), whatever the batches
    rng = np.random.default_rng(23)
    for ndim, dtype, empty in [(2, "float64", 0.3), (3, "int64", 0.4), (2, "int64", "chunks"),
                               (1, "float64", 0.0)]:
        store = _random_frozen_store(rng, ndim, dtype, empty)
        sch = store.schema
        idx = build_index(store, fanout=2**ndim, bins=4, e=1)
        twin = ChunkStore.from_dense(sch, {"a": store.dense("a")})
        idx.attach(_several_blocks(rng, store, twin))
        root = idx.root
        live = _live_values(store)
        raws = [random_raw_query(rng, sch, root.amin, root.amax, kind)
                for kind in ("mixed",) * 6 + ("membership",) * 2]
        raws += [RawQuery(values=tuple(float(v) for v in rng.choice(live, 4)),
                          dim_values={"d0": random_dim_set(rng, sch.shape[0])})]
        scanned = 0
        for raw in raws:
            q = normalize(raw, sch, (root.amin, root.amax))
            stats = QueryStats()
            execute(idx, q, stats)
            assert (stats.leaves_scanned, stats.candidate_checks) == reference_leaf_stats(idx, q)
            scanned += stats.leaves_scanned
        assert scanned


def test_a_round_of_every_query_kind_leaves_blocks_and_views_unchanged():
    rng = np.random.default_rng(24)
    store = _random_frozen_store(rng, 3, "int64", 0.3)
    sch = store.schema
    twin = ChunkStore.from_dense(sch, {"a": store.dense("a")})
    idx = build_index(_slab_store(store, sch.chunk_shape[0]), fanout=8, bins=4, e=1)
    idx.append(ChunkStore(sch, {c: ch for c, ch in twin.chunks.items() if c[0] > 0}))
    mixed = idx.store
    blocks = {id(ch.block): ch.block for ch in mixed.chunks.values()}
    assert len(blocks) > 1

    def arrays():
        for block in blocks.values():
            yield from (*block.values.values(), block.nonempty, block.counts)
        for chunk in mixed.chunks.values():
            yield from (*chunk.values.values(), chunk.nonempty,
                        chunk.block.values["a"][chunk.row])

    def digest():
        return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays()]

    before = digest()
    root = idx.root
    live = _live_values(store)
    raws = [
        RawQuery(attr_lo=float(live[2]), attr_hi=float(live[-3]), dims={"d1": (1, 7)}),
        RawQuery(values=tuple(float(v) for v in live[::7]), dims={"d0": (0, 5)}),
        RawQuery(attr_lo=root.amin, dim_values={"d0": {0, 3, 4, 9}, "d2": {1, 2, 6}}),
        RawQuery(dims={"d0": (0, sch.chunk_shape[0] - 1)}),
    ]
    for raw in raws:
        q = normalize(raw, sch, (root.amin, root.amax))
        rs = (membership if raw.values else execute)(idx, q)
        rs.cell_ids(mixed)
        for budget in range(idx.depth + 1):
            estimate(idx, q, budget)
    assert digest() == before
    for arr in arrays():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.reshape(-1)[:1] = 0


# int64 values are queried as float64, exact below 2**53 in magnitude

def _int_store(vals, empty=-1):
    dims = tuple((f"d{i}", e) for i, e in enumerate(vals.shape))
    return ChunkStore.from_dense(ArraySchema(dims, (("a", "int64"),), (4, 4), {"a": empty}),
                                 {"a": vals})


def test_int64_values_from_2_53_on_are_refused(tmp_path, capsys, monkeypatch):
    # the probe: 2**53 + 0..63, where values=(2**53 + 1,) matched cells 0
    # and 1 (2**53 and 2**53 + 1), and full_scan agreed
    probe = 2**53 + np.arange(64, dtype=np.int64).reshape(8, 8)
    refused = r"int64 attribute 'a' holds a value past ±\(2\*\*53 - 1\)"
    with pytest.raises(InputError, match=refused):
        build_index(_int_store(probe), fanout=4, bins=4, e=1)
    head = tmp_path / "probe.json"
    write_raw(head, _int_store(probe).schema, {"a": probe})
    capsys.readouterr()
    assert main(["build", "--data", str(head), "--index", str(tmp_path / "p.abix"),
                 "--params", "fanout=4", "bins=4", "e=1"]) == 1
    err = capsys.readouterr().err
    assert "'a'" in err and "2**53" in err and "Traceback" not in err
    assert not (tmp_path / "p.abix").exists()
    # 2**53 - 1 is the last value in; an append of one past it, of either
    # sign, is refused and leaves the tree as it was
    exact = 2**53 - 64 + np.arange(64, dtype=np.int64).reshape(8, 8)
    build_index(_int_store(exact), fanout=4, bins=4, e=1)
    for bad in (2**53, -2**53, 2**53 + 1, -2**63):
        vals = exact.copy()
        vals[6, 5] = bad
        store = _int_store(vals)
        grown = build_index(ChunkStore(store.schema.with_extents((4, 8)),
                                       {c: ch for c, ch in store.chunks.items() if c[0] == 0}),
                            fanout=4, bins=4, e=1)
        before = grown.serialize()
        with pytest.raises(InputError, match=refused):
            grown.append(ChunkStore(store.schema,
                                    {c: ch for c, ch in store.chunks.items() if c[0] == 1}))
        assert grown.serialize() == before
    # a saved tree that reaches 2**53 fails its load
    monkeypatch.setattr(hierindex, "_INT_BOUND", 2**62)
    buf = build_index(_int_store(probe), fanout=4, bins=4, e=1).serialize()
    monkeypatch.undo()
    with pytest.raises(DataError, match="int64 values reach"):
        Index._parse(buf)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_int64_answers_near_2_53_are_exact(data):
    # values within 5 of ±(2**53 - 1), or within 4 past it, queried by sets
    # and ranges that reach past them: a tree holding a value past it is
    # refused, any other answers exactly as the integers compare
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    past = data.draw(st.booleans(), label="values past 2**53 - 1")
    near = [s * (2**53 - 1 - k) for s in (1, -1) for k in range(-4 * past, 6)]
    vals = rng.choice(np.array(near, np.int64), size=(12, 10))
    vals[rng.random(vals.shape) < 0.2] = 0
    live = vals != 0
    store = _int_store(vals, empty=0)
    if (np.abs(vals[live]) >= 2**53).any():
        with pytest.raises(InputError, match="2\\*\\*53"):
            build_index(store, fanout=4, bins=4, e=1)
        return
    idx = build_index(store, fanout=4, bins=4, e=1)
    pool = st.sampled_from([*near, 2**53, 2**53 + 1, 2**53 + 2, -2**53, -2**53 - 1, 0, 7])
    values = data.draw(st.lists(pool, min_size=1, max_size=5), label="values")
    want = np.flatnonzero(np.isin(vals, values) & live)
    assert np.array_equal(execute(idx, RawQuery(values=tuple(values))).cell_ids(store), want)
    lo, hi = sorted((data.draw(pool, label="lo"), data.draw(pool, label="hi")))
    want = np.flatnonzero((vals >= lo) & (vals <= hi) & live)
    assert np.array_equal(execute(idx, RawQuery(attr_lo=lo, attr_hi=hi)).cell_ids(store), want)
