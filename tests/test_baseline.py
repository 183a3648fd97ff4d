import numpy as np
import pytest

from arraybit.baseline import DimsAttsIndex, dimension_column, full_scan
from arraybit.bitvec import BitVector
from arraybit.chunkstore import ArraySchema, ChunkStore, QueryStats
from arraybit.hierindex import build_index
from arraybit.query import Query, RawQuery, execute, normalize
from testutil import random_index, random_raw_query, random_store


def test_full_scan_trivials():
    rng = np.random.default_rng(0)
    store = random_store(rng, (16, 16), (4, 4), sparsity=0.3)
    empty = Query(1.0, 0.5, (((0, 15),), ((0, 15),)))
    assert full_scan(store, "a", empty).size == 0
    full = Query(-np.inf, np.inf, (((0, 15),), ((0, 15),)))
    assert full_scan(store, "a", full).size == store.nonempty_total()


def test_dimension_column_layout():
    sch = ArraySchema((("d0", 3), ("d1", 4)), (("a", "float64"),), (2, 2))
    col0 = dimension_column(sch, 0)
    col1 = dimension_column(sch, 1)
    assert np.array_equal(col0[:4], [0, 0, 0, 0])
    assert np.array_equal(col0[4:8], [1, 1, 1, 1])
    assert np.array_equal(col1[:4], [0, 1, 2, 3])


def test_dimsatts_single_cell_equality():
    rng = np.random.default_rng(1)
    store = random_store(rng, (8, 8), (4, 4))
    idx = DimsAttsIndex(store, "a", bins=8)
    chunk = store.chunks[(0, 0)]
    v = float(chunk.values["a"][1, 2])
    q = Query(v, v, (((1, 1),), ((2, 2),)))
    got = idx.query(q)
    assert np.array_equal(got, [1 * 8 + 2])
    miss = Query(v + 1e-9, v + 1e-9, (((1, 1),), ((2, 2),)))
    assert idx.query(miss).size == 0


def test_dimsatts_full_domain():
    rng = np.random.default_rng(2)
    store = random_store(rng, (12, 9), (4, 4), sparsity=0.4)
    idx = DimsAttsIndex(store, "a")
    q = Query(-np.inf, np.inf, (((0, 11),), ((0, 8),)))
    assert idx.query(q).size == store.nonempty_total()


@pytest.mark.parametrize("shape,chunk,sparsity", [
    ((24, 24), (4, 4), 0.0),
    ((24, 17), (4, 4), 0.5),
    ((8, 9, 10), (3, 3, 3), 0.3),
])
def test_three_way_agreement(shape, chunk, sparsity):
    rng = np.random.default_rng(hash((shape, sparsity)) % 2**31)
    store, idx = random_index(rng, shape, chunk, sparsity)
    dims = DimsAttsIndex(store, "a", bins=16)
    root = idx.root
    if root is None:
        pytest.skip("degenerate")
    for i in range(25):
        kind = "membership" if i % 5 == 4 else "mixed"
        raw = random_raw_query(rng, store.schema, root.amin, root.amax, kind)
        q = normalize(raw, store.schema, (root.amin, root.amax))
        want = full_scan(store, "a", q)
        got_tree = execute(idx, q).cell_ids(store)
        got_dims = dims.query(q)
        assert np.array_equal(got_tree, want)
        assert np.array_equal(got_dims, want)


def test_dimsatts_membership_runs():
    vals = (np.arange(64).reshape(8, 8) % 5).astype(np.int64)
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "int64"),), (4, 4), {"a": -1})
    store = ChunkStore.from_dense(sch, {"a": vals})
    idx = DimsAttsIndex(store, "a", bins=8)
    q = normalize(RawQuery(values=(1, 2, 3)), sch)
    want = full_scan(store, "a", q)
    assert np.array_equal(idx.query(q), want)


def test_column_constraint_pathology_floor():
    # a fixed-column bitmap over an R x R row-major array needs >= R words
    r = 256
    sch = ArraySchema((("d0", r), ("d1", r)), (("a", "float64"),), (r, r))
    col = dimension_column(sch, 1)
    bm = BitVector.from_dense(col == r // 2)
    assert bm.word_count >= r
    # while the row-dimension bitmap collapses to a handful of words
    row = BitVector.from_dense(dimension_column(sch, 0) == r // 2)
    assert row.word_count < 8


def test_dimsatts_size_includes_aux_columns():
    rng = np.random.default_rng(3)
    store = random_store(rng, (32, 32), (8, 8))
    idx = DimsAttsIndex(store, "a")
    aux = sum(col.nbytes for col in idx.dim_columns)
    assert idx.size_bytes() > aux  # bitmaps on top of the stored columns
    assert aux == 2 * 32 * 32 * 8


def test_dimsatts_size_is_the_sum_of_its_parts():
    # every bitvector, the attribute's non-empty mask included, counts once
    rng = np.random.default_rng(3)
    store = random_store(rng, (32, 32), (8, 8), 0.3)
    idx = DimsAttsIndex(store, "a", bins=8)
    want = sum(col.nbytes for col in idx.dim_columns)
    for bitmaps in (idx.attr_index, *idx.dim_indexes):
        want += sum(len(v.to_bytes()) for v in (bitmaps.ebm, *bitmaps.bitmaps))
        want += sum(a.nbytes for a in (bitmaps.binning.boundaries, bitmaps.binning.weights,
                                       bitmaps.span_lo, bitmaps.span_hi))
    assert idx.size_bytes() == want


def test_dimsatts_counts_candidate_checks():
    rng = np.random.default_rng(4)
    store = random_store(rng, (16, 16), (4, 4))
    idx = DimsAttsIndex(store, "a", bins=4)
    stats = QueryStats()
    q = normalize(RawQuery(attr_lo=-5.0, attr_hi=5.0, dims={"d0": (3, 12)}), store.schema)
    idx.query(q, stats)
    assert stats.candidate_checks > 0
    assert stats.bitmap_fetches > 0
