import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.bitvec import BitVector
from arraybit.chunkstore import (
    ArraySchema,
    BinnedBitmapIndex,
    ChunkStore,
    PlainLeaf,
    QueryStats,
    build_leaf_index,
    delocate,
    leaf_query,
    leaf_query_bitmaps,
    load_store,
    locate,
    write_raw,
)
from arraybit.errors import DataError, InputError
from testutil import bin_of, ingest_csv


def schema_2d(extents=(8, 8), chunk=(4, 4)):
    return ArraySchema(
        dims=(("d0", extents[0]), ("d1", extents[1])),
        attributes=(("a", "float64"),),
        chunk_shape=chunk,
    )


def store_from(values):
    values = np.asarray(values, float)
    sch = ArraySchema(
        dims=tuple((f"d{i}", e) for i, e in enumerate(values.shape)),
        attributes=(("a", "float64"),),
        chunk_shape=tuple(min(4, e) for e in values.shape),
    )
    return ChunkStore.from_dense(sch, {"a": values})


def test_locate_basics():
    sch = schema_2d()
    assert locate(sch, (0, 0)) == ((0, 0), 0)
    assert locate(sch, (5, 2)) == ((1, 0), 6)


def test_locate_bounds():
    sch = schema_2d()
    with pytest.raises(InputError):
        locate(sch, (8, 0))
    with pytest.raises(InputError):
        locate(sch, (0, -1))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_locate_roundtrip(seed):
    rng = np.random.default_rng(seed)
    extents = tuple(int(rng.integers(1, 30)) for _ in range(int(rng.integers(1, 4))))
    chunk = tuple(int(rng.integers(1, 9)) for _ in extents)
    sch = ArraySchema(
        dims=tuple((f"d{i}", e) for i, e in enumerate(extents)),
        attributes=(("a", "float64"),),
        chunk_shape=chunk,
    )
    cell = tuple(int(rng.integers(0, e)) for e in extents)
    coords, off = locate(sch, cell)
    assert delocate(sch, coords, off) == cell


def test_schema_requires_int_sentinel():
    with pytest.raises(InputError):
        ArraySchema((("d0", 4),), (("a", "int64"),), (2,))
    sch = ArraySchema((("d0", 4),), (("a", "int64"),), (2,), {"a": -1})
    assert sch.empty_value("a") == -1


def test_from_dense_omits_empty_chunks():
    vals = np.full((8, 8), np.nan)
    vals[0, 0] = 1.0
    vals[7, 7] = 2.0
    store = store_from(vals)
    assert set(store.chunks) == {(0, 0), (1, 1)}
    assert store.nonempty_total() == 2


def test_clipped_boundary_chunks():
    vals = np.arange(70.0).reshape(7, 10)
    sch = ArraySchema((("d0", 7), ("d1", 10)), (("a", "float64"),), (4, 4))
    store = ChunkStore.from_dense(sch, {"a": vals})
    assert store.chunks[(1, 2)].shape == (3, 2)
    assert store.chunks[(0, 0)].shape == (4, 4)
    assert np.array_equal(store.dense("a"), vals)


def test_chunk_arrays_are_read_only_and_owned():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(16, 12)) * 10.0
    vals[rng.random(vals.shape) < 0.2] = np.nan
    vals[0:4, 8:12] = np.nan
    vals[0, 8:11] = [1.0, 2.0, 3.0]  # a plain leaf
    source = vals.copy()
    sch = ArraySchema((("d0", 16), ("d1", 12)), (("a", "float64"),), (4, 4))
    store = ChunkStore.from_dense(sch, {"a": source})
    source[:] = 0.0  # the store holds copies of its input
    assert np.array_equal(store.dense("a"), vals, equal_nan=True)
    for chunk in store.chunks.values():
        for arr in (chunk.values["a"], chunk.nonempty, chunk.values_flat("a"),
                    chunk.nonempty.reshape(-1)):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    # build, append, every query kind and estimate only read the store
    from arraybit.baseline import full_scan
    from arraybit.hierindex import build_index
    from arraybit.query import RawQuery, estimate, execute, membership, normalize

    first = ChunkStore(sch.with_extents((8, 12)),
                       {c: ch for c, ch in store.chunks.items() if c[0] < 2})
    idx = build_index(first, fanout=4, bins=4, leaf_encoding="interval", e=1)
    idx.append(ChunkStore(sch, {c: ch for c, ch in store.chunks.items() if c[0] >= 2}))
    assert {type(e.leaf).__name__ for _, e in idx.levels[0].items()} == {
        "PlainLeaf", "BinnedBitmapIndex"}
    live = vals[~np.isnan(vals)]
    raws = [
        RawQuery(attr_lo=-5.0, attr_hi=8.0, dims={"d0": (1, 13)}),
        RawQuery(values=(2.0, float(live[3]), float(live[40])), dims={"d1": (2, 10)}),
        RawQuery(dims={"d1": (3, 9)}),
    ]
    for raw in raws:
        q = normalize(raw, sch, (idx.root.amin, idx.root.amax))
        want = full_scan(store, "a", q)
        run = membership if q.values else execute
        assert np.array_equal(run(idx, q).cell_ids(store), want)
        assert estimate(idx, q, idx.depth) == (want.size, want.size)
        lo, hi = estimate(idx, q, 0)
        assert lo <= want.size <= hi


def test_slab_cached_and_correct():
    store = store_from(np.ones((8, 8)))
    s1 = store.slab_dense((4, 4), 0, 1, 2)
    s2 = store.slab_dense((4, 4), 0, 1, 2)
    assert s1 is s2
    dense = s1.reshape(4, 4)
    expect = np.zeros((4, 4), bool)
    expect[1:3, :] = True
    assert np.array_equal(dense, expect)


class _Stats(QueryStats):
    pass


@pytest.mark.parametrize("encoding", ["equality", "range", "interval"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 15, 16, 17, 33])
def test_bins_bitmap_matches_equality_oracle(encoding, k):
    rng = np.random.default_rng(k)
    n = 400
    vals = rng.integers(0, k * 3, size=n).astype(float)
    nonempty = rng.random(n) < 0.9
    if nonempty.sum() == 0:
        nonempty[0] = True
    idx = BinnedBitmapIndex.build(vals, nonempty, k, encoding)
    kk = idx.nbins
    binidx = np.full(n, -1)
    binidx[nonempty] = bin_of(idx.binning, vals[nonempty])
    for a in range(kk):
        for b in range(a, kk):
            stats = QueryStats()
            got = idx.bins_bitmap(a, b, stats)
            want = (binidx >= a) & (binidx <= b)
            assert np.array_equal(got.to_dense(), want), (encoding, kk, a, b)
            if encoding in ("range", "interval"):
                assert stats.bitmap_fetches <= 2


def test_interval_bitmap_count_matches_contract():
    rng = np.random.default_rng(5)
    vals = rng.random(4000)
    nonempty = np.ones(4000, bool)
    for k in (2, 3, 8, 15, 16):
        idx = BinnedBitmapIndex.build(vals, nonempty, k, "interval")
        assert len(idx.bitmaps) == -(-idx.nbins // 2)
        r = BinnedBitmapIndex.build(vals, nonempty, k, "range")
        assert len(r.bitmaps) == r.nbins - 1
        e = BinnedBitmapIndex.build(vals, nonempty, k, "equality")
        assert len(e.bitmaps) == e.nbins


def test_build_leaf_index_threshold():
    vals = np.full((4, 4), np.nan)
    vals[0, :3] = [1.0, 2.0, 3.0]
    store = store_from(vals)
    leaf = build_leaf_index([store.chunks[(0, 0)]], "a", bins=4, encoding="interval", e=4)[0]
    assert isinstance(leaf, PlainLeaf)
    assert leaf.count == 3 and leaf.amin == 1.0 and leaf.amax == 3.0


def test_build_leaf_index_constant_chunk():
    vals = np.full((4, 4), 7.0)
    store = store_from(vals)
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", bins=8, encoding="interval", e=1)[0]
    assert leaf.nbins == 1
    assert len(leaf.bitmaps) == 1
    assert leaf.bitmaps[0] == BitVector.from_dense(chunk.nonempty.reshape(-1))


def test_equality_bitmaps_partition_the_chunk():
    rng = np.random.default_rng(9)
    vals = rng.random((8, 8)) * 100
    vals[rng.random((8, 8)) < 0.2] = np.nan
    store = ChunkStore.from_dense(schema_2d(chunk=(8, 8)), {"a": vals})
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", bins=8, encoding="equality", e=1)[0]
    union = BitVector.zeros(chunk.cell_count)
    running = 0
    for bm in leaf.bitmaps:
        assert (bm & union).count_ones() == 0  # pairwise disjoint
        union = union | bm
        running += bm.count_ones()
    assert union == BitVector.from_dense(chunk.nonempty.reshape(-1))
    assert running == chunk.nonempty_count


@pytest.mark.parametrize("encoding", ["equality", "range", "interval"])
def test_leaf_query_matches_bruteforce(encoding):
    rng = np.random.default_rng(3)
    for trial in range(25):
        shape = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        vals = rng.normal(size=shape) * 10
        vals[rng.random(shape) < 0.25] = np.nan
        sch = ArraySchema(
            (("d0", shape[0]), ("d1", shape[1])), (("a", "float64"),), shape
        )
        store = ChunkStore.from_dense(sch, {"a": vals})
        if not store.chunks:
            continue
        chunk = store.chunks[(0, 0)]
        leaf = build_leaf_index([chunk], "a", bins=4, encoding=encoding, e=1)[0]
        lo, hi = np.sort(rng.normal(size=2) * 10)
        dims = []
        for d in range(2):
            dlo = int(rng.integers(0, shape[d]))
            dhi = int(rng.integers(dlo, shape[d]))
            dims.append(((dlo, dhi),))
        assert isinstance(leaf, BinnedBitmapIndex)
        got = leaf_query_bitmaps(chunk, leaf, "a", [(lo, hi)], dims, store, QueryStats())
        flat = vals.reshape(-1)
        coords = np.indices(shape).reshape(2, -1)
        want = (
            ~np.isnan(flat)
            & (flat >= lo)
            & (flat <= hi)
            & (coords[0] >= dims[0][0][0]) & (coords[0] <= dims[0][0][1])
            & (coords[1] >= dims[1][0][0]) & (coords[1] <= dims[1][0][1])
        )
        assert got.dtype == bool and got.shape == (chunk.cell_count,)
        assert np.array_equal(got, want), (encoding, trial)
        assert np.array_equal(leaf_query(chunk, leaf, "a", [(lo, hi)], dims), want)


@pytest.mark.parametrize("runs_of", ["value", "two_values"])
def test_leaf_query_decodes_each_bitmap_once(monkeypatch, runs_of):
    """A single-value membership on a 64x64 store with 16x16 `range` leaves:
    each leaf decodes at most two bitmaps, none of them twice."""
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(64, 64)) * 50
    store = ChunkStore.from_dense(schema_2d((64, 64), (16, 16)), {"a": vals})
    v = float(vals[5, 40])
    runs = [(v, v)] if runs_of == "value" else [(v, v), (v + 1e-9, v + 1e-9)]
    decoded = []
    to_dense = BitVector.to_dense
    monkeypatch.setattr(BitVector, "to_dense", lambda bv: decoded.append(id(bv)) or to_dense(bv))
    hits = fetches = candidate_fetches = 0
    for chunk in store.iter_chunks():
        leaf = build_leaf_index([chunk], "a", 16, "range")[0]
        assert isinstance(leaf, BinnedBitmapIndex)
        decoded.clear()
        stats = QueryStats()
        got = leaf_query_bitmaps(chunk, leaf, "a", runs, [None, None], store, stats)
        assert len(decoded) <= 2
        assert len(set(decoded)) == len(decoded)  # no bitmap decoded twice
        assert stats.bitmap_fetches + stats.candidate_bitmap_fetches == len(decoded)
        want = chunk.values_flat("a") == v
        assert np.array_equal(got, want)
        hits += int(want.sum())
        fetches += stats.bitmap_fetches
        candidate_fetches += stats.candidate_bitmap_fetches
    assert hits == 1
    # the span of (v, v) is its one candidate bin: decoded once, as the span
    assert candidate_fetches == 0
    assert fetches <= 32


def test_leaf_query_full_range_returns_empty_mask():
    rng = np.random.default_rng(4)
    vals = rng.random((8, 8))
    vals[0, 0] = np.nan
    store = ChunkStore.from_dense(schema_2d(chunk=(8, 8)), {"a": vals})
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", 8, "interval", e=1)[0]
    stats = QueryStats()
    got = leaf_query(chunk, leaf, "a", [(leaf.amin, leaf.amax)], [None, None], stats)
    assert np.array_equal(got, chunk.nonempty.reshape(-1))
    assert stats.bitmap_fetches == 0  # whole span needs no encoded bitmaps


def test_leaf_query_disjoint_range():
    vals = np.arange(16.0).reshape(4, 4)
    store = store_from(vals)
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", 4, "range", e=1)[0]
    got = leaf_query(chunk, leaf, "a", [(100.0, 200.0)], [None, None])
    assert np.array_equal(got, np.zeros(chunk.cell_count, bool))


def test_raw_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    vals = rng.random((6, 5))
    vals[vals < 0.3] = np.nan
    sch = ArraySchema((("y", 6), ("x", 5)), (("a", "float64"),), (4, 4))
    head = tmp_path / "arr.json"
    write_raw(head, sch, {"a": vals})
    store = load_store(head)
    assert store.schema.shape == (6, 5)
    got = store.dense("a")
    assert np.array_equal(np.isnan(got), np.isnan(vals))
    assert np.allclose(got[~np.isnan(vals)], vals[~np.isnan(vals)])


def test_raw_append_block(tmp_path):
    sch = ArraySchema((("y", 4), ("x", 4)), (("a", "float64"),), (2, 2))
    head = tmp_path / "arr.json"
    write_raw(head, sch, {"a": np.ones((4, 4))})
    write_raw(head, sch, {"a": np.full((4, 4), 2.0)}, origin=(0, 4))
    store = load_store(head)
    assert store.schema.shape == (4, 8)
    dense = store.dense("a")
    assert (dense[:, :4] == 1).all() and (dense[:, 4:] == 2).all()


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(DataError):
        load_store(tmp_path / "nope.json")


def test_ingest_csv(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("d0,d1,a\n0,0,1.5\n2,3,2.5\n")
    sch = ArraySchema((("d0", 4), ("d1", 4)), (("a", "float64"),), (2, 2))
    store = ingest_csv(p, sch)
    assert store.nonempty_total() == 2
    dense = store.dense("a")
    assert dense[0, 0] == 1.5 and dense[2, 3] == 2.5
