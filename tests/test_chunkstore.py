import math

import numpy as np
import pytest

from arraybit.baseline import BinnedBitmapIndex
from arraybit.bitvec import BitVector
from arraybit.chunkstore import (
    ArraySchema,
    ChunkStore,
    QueryStats,
    build_leaf_index,
    load_store,
    write_raw,
)
from arraybit.errors import DataError, InputError
from testutil import bin_of, ingest_csv, resolve_leaf


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


def test_from_dense_blocks_keep_only_the_rows_of_non_empty_chunks():
    # a 10x10 int64 array in 4x4 tiles: four tile shapes, and in each
    # shape some tiles with no non-empty cell
    vals = np.full((10, 10), -1, np.int64)
    sch = ArraySchema((("d0", 10), ("d1", 10)), (("a", "int64"),), (4, 4), {"a": -1})
    for cell in [(0, 0), (5, 6), (9, 1), (2, 9), (9, 9)]:
        vals[cell] = 7
    store = ChunkStore.from_dense(sch, {"a": vals})
    assert set(store.chunks) == {(0, 0), (1, 1), (2, 0), (0, 2), (2, 2)}
    blocks = {id(c.block): c.block for c in store.chunks.values()}.values()
    assert sum(b.nonempty.shape[0] for b in blocks) == len(store.chunks)
    for block in blocks:
        assert block.values["a"].shape == block.nonempty.shape
        assert block.counts.all()
    for chunk in store.chunks.values():
        assert chunk.block.counts[chunk.row] == chunk.nonempty_count == 1
    assert np.array_equal(store.dense("a"), vals)


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
        for arr in (chunk.values["a"], chunk.nonempty, chunk.block.values["a"][chunk.row],
                    chunk.nonempty.reshape(-1)):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    # build, append, every query kind and estimate only read the store
    from arraybit.baseline import full_scan
    from arraybit.hierindex import build_index
    from arraybit.query import RawQuery, estimate, execute, membership, normalize

    first = ChunkStore(sch.with_extents((8, 12)),
                       {c: ch for c, ch in store.chunks.items() if c[0] < 2})
    idx = build_index(first, fanout=4, bins=4, e=1)
    idx.append(ChunkStore(sch, {c: ch for c, ch in store.chunks.items() if c[0] >= 2}))
    # plain and binned leaves
    assert set((idx.tables[0]["nbins"] == 0).tolist()) == {True, False}
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
    leaf = build_leaf_index([store.chunks[(0, 0)]], "a", bins=4, e=4)
    assert leaf["extent"].tolist() == [[[0, 3], [0, 3]]]
    assert (leaf["amin"].tolist(), leaf["amax"].tolist(), leaf["count"].tolist()) == (
        [1.0], [3.0], [3])
    assert leaf["nbins"].tolist() == [0] and leaf["bounds"].size == leaf["weights"].size == 0


def test_build_leaf_index_constant_chunk():
    vals = np.full((4, 4), 7.0)
    store = store_from(vals)
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", bins=8, e=1)
    assert (leaf["amin"].tolist(), leaf["amax"].tolist(), leaf["count"].tolist()) == (
        [7.0], [7.0], [16])
    assert leaf["nbins"].tolist() == [1]
    assert leaf["bounds"].tolist() == [7.0, 7.0]
    assert leaf["weights"].tolist() == [16.0]
    # the baseline's bitmaps of a constant column: one window, every cell
    nonempty = chunk.nonempty.reshape(-1)
    idx = BinnedBitmapIndex.build(chunk.values["a"].reshape(-1), nonempty, 8, "interval")
    assert idx.nbins == 1
    assert idx.bitmaps == [BitVector.from_dense(nonempty)]


def test_equality_bitmaps_partition_the_chunk():
    rng = np.random.default_rng(9)
    vals = rng.random((8, 8)) * 100
    vals[rng.random((8, 8)) < 0.2] = np.nan
    store = ChunkStore.from_dense(schema_2d(chunk=(8, 8)), {"a": vals})
    chunk = store.chunks[(0, 0)]
    nonempty = chunk.nonempty.reshape(-1)
    idx = BinnedBitmapIndex.build(chunk.values["a"].reshape(-1), nonempty, 8, "equality")
    assert idx.nbins == 8
    union = BitVector.zeros(math.prod(chunk.shape))
    running = 0
    for bm in idx.bitmaps:
        assert (bm & union).count_ones() == 0  # pairwise disjoint
        union = union | bm
        running += bm.count_ones()
    assert union == BitVector.from_dense(chunk.nonempty.reshape(-1))
    assert running == chunk.nonempty_count


@pytest.mark.parametrize("encoding", ["equality", "range", "interval"])
def test_leaf_query_matches_bruteforce(encoding):
    """`leaf_query` on a one-leaf batch equals a numpy mask; the baseline's
    bitmaps in `encoding`, built over the same chunk, bracket it: their
    certain cells are hits, and every hit is certain or a candidate."""
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
        leaf = build_leaf_index([chunk], "a", bins=4, e=1)
        assert leaf["nbins"][0] > 0
        lo, hi = np.sort(rng.normal(size=2) * 10)
        dims = []
        for d in range(2):
            dlo = int(rng.integers(0, shape[d]))
            dhi = int(rng.integers(dlo, shape[d]))
            dims.append(((dlo, dhi),))
        got = resolve_leaf(chunk, leaf, "a", [(lo, hi)], dims, QueryStats())
        flat = vals.reshape(-1)
        coords = np.indices(shape).reshape(2, -1)
        want = (
            ~np.isnan(flat)
            & (flat >= lo)
            & (flat <= hi)
            & (coords[0] >= dims[0][0][0]) & (coords[0] <= dims[0][0][1])
            & (coords[1] >= dims[1][0][0]) & (coords[1] <= dims[1][0][1])
        )
        box = tuple(slice(lo, hi + 1) for ((lo, hi),) in dims)
        assert got.dtype == bool and got.shape == want.reshape(shape)[box].shape
        assert np.array_equal(got, want.reshape(shape)[box]), trial
        assert np.count_nonzero(got) == np.count_nonzero(want)  # no hit outside the box
        nonempty = ~np.isnan(flat)
        bitmaps = BinnedBitmapIndex.build(flat, nonempty, 4, encoding)
        certain, cand = (v.to_dense() for v in bitmaps.range_query(lo, hi))
        in_range = nonempty & (flat >= lo) & (flat <= hi)
        assert not (certain & ~in_range).any(), (encoding, trial)
        assert not (in_range & ~(certain | cand)).any(), (encoding, trial)


def test_leaf_query_full_range_returns_empty_mask():
    rng = np.random.default_rng(4)
    vals = rng.random((8, 8))
    vals[0, 0] = np.nan
    store = ChunkStore.from_dense(schema_2d(chunk=(8, 8)), {"a": vals})
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", 8, e=1)
    stats = QueryStats()
    got = resolve_leaf(chunk, leaf, "a", [(leaf["amin"][0], leaf["amax"][0])], [None, None],
                       stats)
    assert np.array_equal(got, chunk.nonempty)
    assert stats == QueryStats()  # a covering run compares no value


def test_leaf_query_disjoint_range():
    vals = np.arange(16.0).reshape(4, 4)
    store = store_from(vals)
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", 4, e=1)
    got = resolve_leaf(chunk, leaf, "a", [(100.0, 200.0)], [None, None])
    assert np.array_equal(got, np.zeros(chunk.shape, bool))


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
