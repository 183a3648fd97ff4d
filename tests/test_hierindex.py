import math
import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.binning import Binning
from arraybit.chunkstore import ArraySchema, ChunkStore, QueryStats, write_raw
from arraybit.cli import main
from arraybit.datagen import SumGaussSpec, generate_dense
from arraybit.errors import DataError, InputError
from arraybit.hierindex import (
    DimensionBitmaps,
    Fanout,
    Index,
    _spread_weights,
    build_index,
    build_internal_node,
    zorder_decode_many,
    zorder_encode_many,
)
from arraybit.baseline import full_scan
from arraybit.query import RawQuery, attribute_match, execute, normalize
from testutil import (
    assert_weights_are_counts,
    build_parent,
    leaf_binning,
    leaf_table,
    lone_chunk,
    record_fetches,
    reference_spread_weights,
    saved_columns,
    zorder_decode,
    zorder_encode,
)


def test_fanout_defaults():
    assert Fanout.from_total(64, 2).per_dim == 8
    assert Fanout.from_total(64, 3).per_dim == 4
    assert Fanout.from_total(256, 4).per_dim == 4
    assert Fanout.from_total(243, 5).per_dim == 2
    assert Fanout.from_total(64, 2).total == 64


def test_fanout_too_small():
    with pytest.raises(InputError):
        Fanout.from_total(8, 4)


def test_zorder_2d_convention():
    assert zorder_encode((0, 0), 3) == 0
    assert zorder_encode((1, 0), 3) == 1
    assert zorder_encode((0, 1), 3) == 2
    assert zorder_encode((1, 1), 3) == 3
    corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert zorder_encode_many(corners, 3).tolist() == [0, 1, 2, 3]


def test_zorder_overflow():
    with pytest.raises(InputError):
        zorder_encode((8,), 3)
    for bad in ([[8]], [[-1]], [[0, 0], [3, 8]]):
        with pytest.raises(InputError):
            zorder_encode_many(np.array(bad), 3)
    with pytest.raises(InputError):  # more than 63 bits of z-index
        zorder_encode_many(np.zeros((1, 8), np.int64), 8)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), ndim=st.integers(1, 5), bits=st.integers(1, 8))
def test_zorder_roundtrip(seed, ndim, bits):
    rng = np.random.default_rng(seed)
    coords = tuple(int(rng.integers(0, 1 << bits)) for _ in range(ndim))
    z = zorder_encode(coords, bits)
    assert zorder_decode(z, ndim, bits) == coords


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), ndim=st.integers(1, 4), bits=st.integers(1, 8),
       n=st.integers(0, 20))
def test_zorder_array_codec_matches_scalar_reference(seed, ndim, bits, n):
    rng = np.random.default_rng(seed)
    top = (1 << bits) - 1
    coords = np.vstack((rng.integers(0, top + 1, size=(n, ndim)), np.zeros((1, ndim), np.int64),
                        np.full((1, ndim), top)))
    z = zorder_encode_many(coords, bits)
    assert z.tolist() == [zorder_encode(tuple(c), bits) for c in coords.tolist()]
    assert [tuple(c) for c in zorder_decode_many(z, ndim, bits).tolist()] == \
        [zorder_decode(zi, ndim, bits) for zi in z.tolist()]
    over = coords.copy()
    over[-1, int(rng.integers(0, ndim))] = top + 1 + int(rng.integers(0, 3))
    with pytest.raises(InputError):
        zorder_encode(tuple(over[-1].tolist()), bits)
    with pytest.raises(InputError):
        zorder_encode_many(over, bits)


def test_dimension_bitmaps_small():
    dbm = DimensionBitmaps(Fanout(2, 2))
    assert dbm.partial[0][0] == 0b0101  # children with x-slot 0
    assert dbm.partial[0][1] == 0b1010
    assert dbm.begin[0][0] == 0b1111  # every coordinate >= 0
    assert dbm.begin[1][1] == 0b1100


def test_dimension_bitmaps_counts_and_consistency():
    fo = Fanout(4, 3)
    dbm = DimensionBitmaps(fo)
    n, fd = fo.ndim, fo.per_dim
    assert sum(len(p) for p in dbm.partial) == fd * n
    assert sum(len(p) for p in dbm.begin) + sum(len(p) for p in dbm.end) == 2 * fd * n
    for d in range(n):
        for b in range(fd):
            assert dbm.begin[d][b] & dbm.end[d][b] == dbm.partial[d][b]


@pytest.mark.parametrize("shape, chunk, fanout", [((64,), (4,), 16), ((32, 32), (4, 4), 64),
                                                   ((16, 16, 16), (4, 4, 4), 64),
                                                   ((8, 8, 8, 8), (2, 2, 2, 2), 256)])
def test_loads_of_one_fanout_share_its_dimension_bitmaps(tmp_path, shape, chunk, fanout):
    # the masks depend on the fanout alone: every index of one fanout holds
    # the same ones, equal to a fresh build of them
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", "float64"),), chunk)
    store = ChunkStore.from_dense(sch, {"a": np.random.default_rng(0).random(shape)})
    build_index(store, fanout=fanout).save(tmp_path / "i.abix")
    a, b = Index.load(tmp_path / "i.abix"), Index.load(tmp_path / "i.abix", store=store)
    assert a.fanout == b.fanout == Fanout.from_total(fanout, len(shape))
    assert a.fanout is not b.fanout and a.dimbitmaps is b.dimbitmaps
    fresh = DimensionBitmaps(Fanout.from_total(fanout, len(shape)))
    for name in ("partial", "begin", "end"):
        assert getattr(a.dimbitmaps, name) == getattr(fresh, name)
    assert a.dimbitmaps.fanout == fresh.fanout


def test_double_range_encoding_reference_layout():
    # each table has one row per boundary of the node's merged bins: row r
    # of sp holds the children whose min is <= boundary r, row r of al
    # those whose max is >= it
    cases = [
        # four children over boundaries 1..8 merging to {1,3,6,8}: the
        # third child enters sp at 3, the other two at 6; the third leaves
        # al after 3, the first two after 6
        ([(0, (1.0, 7.0, 20)), (1, (4.0, 6.0, 20)), (2, (2.0, 3.0, 20)), (3, (5.0, 8.0, 20))], 3,
         [1.0, 3.0, 6.0, 8.0], [0b0001, 0b0101, 0b1111, 0b1111], [0b1111, 0b1111, 0b1011, 0b1000]),
        # no child enters sp at 4, nor leaves al after 9: a table that kept
        # only the rows where its children change would read sp at 6 for a
        # value in (2, 4]
        ([(0, (1.0, 2.0, 20)), (1, (1.0, 9.0, 20)), (2, (2.0, 4.0, 20)), (3, (6.0, 9.0, 20))], 8,
         [1.0, 2.0, 4.0, 6.0, 9.0], [0b0011, 0b0111, 0b0111, 0b1111, 0b1111],
         [0b1111, 0b1111, 0b1110, 0b1010, 0b1010]),
    ]
    for children, bins, bounds, sp, al in cases:
        node = build_parent(children, Fanout(4, 1), bins=bins)
        assert np.array_equal(node.binning.boundaries, bounds)
        assert np.array_equal(node.sp_bounds, bounds) and np.array_equal(node.al_bounds, bounds)
        assert node.sp_masks == sp
        assert node.al_masks == al
    # every child but the last has a value below 4, the first boundary >= 3
    assert attribute_match(node, 3.0, 9.0) == (0b0111, 0b1000)


def test_single_child_node():
    node = build_parent([(0, (2.0, 5.0, 7))], Fanout(4, 1), bins=4)
    assert node.child_mask == 0b0001
    assert np.array_equal(node.binning.boundaries, [2.0, 5.0])
    assert node.sp_masks == [0b0001, 0b0001]
    assert node.al_masks == [0b0001, 0b0001]
    assert node.count == 7


def test_range_tables_have_a_row_per_boundary():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(1, 17))
        children = []
        for s in range(k):
            lo, hi = np.sort(rng.integers(0, 20, size=2).astype(float))
            children.append((s, (lo, hi, int(rng.integers(1, 9)))))
        node = build_parent(children, Fanout(16, 1), bins=4)
        rows = node.binning.nbins + 1
        assert len(node.sp_masks) == len(node.al_masks) == rows
        # sp rows grow to every child, al rows shrink from every child
        assert node.sp_masks[-1] == node.al_masks[0] == node.child_mask
        for r in range(rows - 1):
            assert node.sp_masks[r] & ~node.sp_masks[r + 1] == 0
            assert node.al_masks[r + 1] & ~node.al_masks[r] == 0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_conservative_decoding(seed):
    # the partial and complete masks together must be a superset, and the
    # complete mask a subset, of the truth computed straight from the child
    # min/max intervals; an unbounded side reads one table exactly at bin
    # resolution
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 17))
    mins, maxs = [], []
    children = []
    for s in range(k):
        lo, hi = np.sort(np.round(rng.random(2) * 10, 1))
        mins.append(lo)
        maxs.append(hi)
        children.append((s, (lo, hi, 1)))
    node = build_parent(children, Fanout(16, 1), bins=4)
    mins = np.array(mins)
    maxs = np.array(maxs)
    rb = node.binning.boundaries

    def slots(hit):
        return int(sum(1 << s for s in range(k) if hit[s]))

    for _ in range(20):
        a, b = np.sort(np.round(rng.random(2) * 12 - 1, 2)).tolist()
        p, c = attribute_match(node, a, b)
        assert p & c == 0
        assert (p | c) | slots((mins <= b) & (maxs >= a)) == p | c
        assert c & slots((mins >= a) & (maxs <= b)) == c
        # started over a: the children whose min is <= the first boundary
        # >= a; alive over a: those whose max is >= the last boundary <= a
        up = rb[min(np.searchsorted(rb, a), rb.size - 1)]
        down = rb[max(np.searchsorted(rb, a, "right") - 1, 0)]
        p, c = attribute_match(node, -np.inf, a)
        assert p | c == slots(mins <= up)
        p, c = attribute_match(node, a, np.inf)
        assert p | c == slots(maxs >= down)


def grid_store(shape, chunk, fill=None, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.random(shape) * 100 if fill is None else np.full(shape, float(fill))
    sch = ArraySchema(
        tuple((f"d{i}", e) for i, e in enumerate(shape)),
        (("a", "float64"),),
        chunk,
    )
    return ChunkStore.from_dense(sch, {"a": vals})


def test_build_two_levels_64x64():
    store = grid_store((64, 64), (8, 8))
    idx = build_index(store, fanout=64)
    assert idx.depth == 1  # 64 leaves + one root level
    assert len(idx.levels[0]) == 64
    assert len(idx.levels[1]) == 1
    root = idx.root
    assert root.extent == ((0, 63), (0, 63))
    assert root.count == 64 * 64


def test_build_single_chunk():
    store = grid_store((8, 8), (8, 8))
    idx = build_index(store, fanout=64)
    assert idx.depth == 1
    assert idx.root.extent == ((0, 7), (0, 7))


def test_build_empty_store():
    sch = ArraySchema((("d0", 8),), (("a", "float64"),), (4,))
    store = ChunkStore.from_dense(sch, {"a": np.full(8, np.nan)})
    idx = build_index(store)
    assert idx.depth == 0
    assert idx.root is None


@pytest.mark.parametrize("kw", [dict(bins=0), dict(e=0), dict(e=-3), dict(bins=True),
                                dict(e=2.0), dict(bins="8"), dict(bins=np.int64(8))])
def test_build_refuses_parameters_a_load_refuses(kw):
    # the rule _read_meta applies to a saved index, also for a tree with no leaf
    sch = ArraySchema((("d0", 8),), (("a", "float64"),), (4,))
    for vals in (np.full(8, np.nan), np.arange(8.0)):
        with pytest.raises(InputError, match="is not an integer >= 1"):
            build_index(ChunkStore.from_dense(sch, {"a": vals}), **kw)


def test_sparse_tree_node_count():
    # only chunks and their z-prefix ancestors materialize
    shape, chunk = (64, 64), (4, 4)
    rng = np.random.default_rng(3)
    vals = np.full(shape, np.nan)
    keep = rng.random((16, 16)) < 0.15
    for cy, cx in np.argwhere(keep):
        vals[cy * 4 : cy * 4 + 4, cx * 4 : cx * 4 + 4] = rng.random((4, 4))
    sch = ArraySchema((("d0", 64), ("d1", 64)), (("a", "float64"),), chunk)
    store = ChunkStore.from_dense(sch, {"a": vals})
    idx = build_index(store, fanout=64)
    nonempty_coords = {tuple(c) for c in np.argwhere(keep)}
    assert len(idx.levels[0]) == len(nonempty_coords)
    parents = {(y // 8, x // 8) for y, x in nonempty_coords}
    assert len(idx.levels[1]) == len(parents)
    total_expected = len(nonempty_coords) + len(parents) + 1
    assert idx.node_count() == total_expected


def test_clipped_extents():
    store = grid_store((20, 12), (4, 4))
    idx = build_index(store, fanout=16)  # F_d = 4 per dim
    assert idx.root.extent == ((0, 19), (0, 11))
    assert idx.depth == 2


def test_fetch_trace_and_nodes_fetched(monkeypatch):
    store = grid_store((64, 64), (8, 8))
    idx = build_index(store, fanout=64)
    stats = QueryStats()
    root = idx.fetch(1, 0, stats)
    assert root is idx.root
    assert stats.nodes_fetched == 1
    idx.fetch(1, 0, stats)
    assert stats.nodes_fetched == 2  # every fetch counts
    assert idx.fetch(0, 64, stats) is None  # no such node: not counted
    assert stats.nodes_fetched == 2
    # a query's descent reads every node through fetch, the root first
    trace = record_fetches(monkeypatch)
    stats = QueryStats()
    execute(idx, RawQuery(attr_lo=root.amin, attr_hi=root.amax, dims={"d0": (3, 40)}), stats)
    assert trace[0] == (0, 0) and len(trace) == stats.nodes_fetched > 1


def test_save_load_roundtrip(tmp_path):
    store = grid_store((20, 12), (4, 4), seed=5)
    idx = build_index(store, fanout=16, bins=4)
    p = tmp_path / "arr.abix"
    idx.save(p)
    assert p.read_bytes()[:4] == b"ABIX"
    loaded = Index.load(p, store=store)
    assert loaded.depth == idx.depth
    assert loaded.schema == idx.schema
    assert loaded.node_count() == idx.node_count()
    r1, r2 = idx.root, loaded.root
    assert r1.extent == r2.extent
    assert r1.amin == r2.amin and r1.amax == r2.amax
    assert r1.child_mask == r2.child_mask
    assert np.array_equal(r1.sp_bounds, r2.sp_bounds)
    assert r1.sp_masks == r2.sp_masks
    assert r1.al_masks == r2.al_masks
    assert list(idx.levels[0].items()) == list(loaded.levels[0].items())  # z -> row
    assert np.array_equal(idx.tables[0]["extent"], loaded.tables[0]["extent"])


def test_append_zero_chunks_is_noop():
    store = grid_store((16, 16), (4, 4))
    idx = build_index(store, fanout=16)
    before = idx.node_count()
    empty = ChunkStore(store.schema, {})
    idx.append(empty)
    assert idx.node_count() == before


def test_appending_an_all_empty_slab_grows_the_extents(tmp_path):
    # the slab's chunks hold no non-empty cell, so the store keeps none of
    # them; the index must still take in the slab's extents
    vals = np.random.default_rng(0).random((16, 8))
    vals[8:] = np.nan
    sch = ArraySchema((("d0", 16), ("d1", 8)), (("a", "float64"),), (4, 4))
    store = ChunkStore.from_dense(sch, {"a": vals})
    first = ChunkStore(sch.with_extents((8, 8)), dict(store.chunks))
    rest = ChunkStore(sch, {})
    assert len(first.chunks) == len(store.chunks)
    idx = build_index(first, fanout=4)
    idx.append(rest)
    assert idx.schema.shape == (16, 8) and idx.store.schema.shape == (16, 8)
    assert idx.serialize() == build_index(store, fanout=4).serialize()
    idx.save(tmp_path / "grown.abix")
    assert Index.load(tmp_path / "grown.abix", store=store).node_count() == idx.node_count()


def test_append_one_chunk_to_empty_equals_build():
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4))
    empty = ChunkStore.from_dense(sch, {"a": np.full((8, 8), np.nan)})
    idx = build_index(empty, fanout=16)
    rng = np.random.default_rng(1)
    vals = np.full((8, 8), np.nan)
    vals[:4, :4] = rng.random((4, 4))
    addition = ChunkStore.from_dense(sch, {"a": vals})
    idx.append(addition)
    fresh = build_index(ChunkStore.from_dense(sch, {"a": vals}), fanout=16)
    assert idx.node_count() == fresh.node_count()
    assert idx.root.extent == fresh.root.extent
    assert idx.root.count == fresh.root.count


def test_append_misaligned_extension_rejected():
    store = grid_store((10, 8), (4, 4))  # extent 10 not chunk aligned
    idx = build_index(store, fanout=16)
    sch2 = ArraySchema((("d0", 14), ("d1", 8)), (("a", "float64"),), (4, 4))
    vals = np.full((14, 8), np.nan)
    vals[10:, :] = 1.0
    add = ChunkStore.from_dense(sch2, {"a": vals[...]})
    # remove overlapping old chunks from the addition
    add.chunks = {c: ch for c, ch in add.chunks.items() if c[0] >= 3}
    with pytest.raises(InputError):
        idx.append(add)


def test_append_collision_rejected():
    store = grid_store((8, 8), (4, 4))
    idx = build_index(store, fanout=16)
    with pytest.raises(InputError):
        idx.append(store)


def _slabs(store, rows):
    """The store cut along d0 into grid-aligned slabs of `rows` cells."""
    sch = store.schema
    cs = sch.chunk_shape[0]
    out = []
    for lo in range(0, sch.shape[0], rows):
        hi = min(lo + rows, sch.shape[0])
        chunks = {c: ch for c, ch in store.chunks.items() if lo // cs <= c[0] < -(-hi // cs)}
        out.append(ChunkStore(sch.with_extents((hi,) + sch.shape[1:]), chunks))
    return out


@pytest.mark.parametrize(
    "shape, chunk, rows, fanout, zeros",
    [
        ((64, 48), (4, 4), 16, 16, False),
        ((16, 8, 8, 8), (2, 2, 2, 2), 4, 16, False),
        # many -0.0 and +0.0: np.unique keeps one of the two by its input
        ((64, 48), (4, 4), 16, 16, True),
    ],
    ids=["shape0-chunk0-16-16", "shape1-chunk1-4-16", "signed-zeros"],
)
def test_appended_index_is_byte_identical_to_full_build(shape, chunk, rows, fanout, zeros):
    rng = np.random.default_rng(17)
    vals = rng.gamma(2.0, 10.0, size=shape)
    if zeros:
        vals = np.round(rng.normal(size=shape) * 0.01, 1)
    vals[rng.random(shape) < 0.2] = np.nan
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", "float64"),), chunk)
    store = ChunkStore.from_dense(sch, {"a": vals})
    kw = dict(fanout=fanout, bins=8, e=1)
    first, *rest = _slabs(store, rows)
    assert rest
    appended = build_index(first, **kw)
    for slab in rest:
        appended.append(slab)
        assert_weights_are_counts(appended)
    full = build_index(store, **kw)
    assert_weights_are_counts(full)
    assert full.depth >= 2
    assert appended.serialize() == full.serialize()


def test_append_onto_an_empty_build_is_byte_identical_to_full_build():
    store = grid_store((24, 20), (4, 4), seed=3)
    idx = build_index(ChunkStore(store.schema, {}), fanout=16, bins=8)
    assert idx.levels == [] and idx.root is None
    idx.append(store)
    assert idx.serialize() == build_index(store, fanout=16, bins=8).serialize()


def _two_slab_index(tmp_path):
    """A 32x16 array in 8x8 chunks, its index over rows 0-15 saved and
    loaded without a store, the two slabs, and the whole store."""
    sch = ArraySchema((("d0", 32), ("d1", 16)), (("a", "float64"),), (8, 8))
    store = ChunkStore.from_dense(sch, {"a": np.random.default_rng(0).random((32, 16))})
    first, rest = _slabs(store, 16)
    build_index(first, fanout=4, bins=8).save(tmp_path / "first.abix")
    return Index.load(tmp_path / "first.abix"), first, rest, store


def test_store_less_append_keeps_the_loaded_leaves(tmp_path):
    idx, _, rest, store = _two_slab_index(tmp_path)
    idx.append(rest)
    full = build_index(store, fanout=4, bins=8)
    assert len(idx.levels[0]) == 8 and idx.root.count == 512
    assert idx.serialize() == full.serialize()
    assert idx.store is None  # no store until one is attached
    idx.attach(store)
    raw = RawQuery(attr_lo=0.25, attr_hi=0.5, dims={"d0": (5, 27)})
    assert np.array_equal(execute(idx, raw).cell_ids(store), execute(full, raw).cell_ids(store))


def test_store_less_append_rejects_chunks_the_leaves_hold(tmp_path):
    idx, first, rest, store = _two_slab_index(tmp_path)
    before = idx.serialize()
    for again in (first, store):
        with pytest.raises(InputError, match="collide"):
            idx.append(again)
    assert idx.serialize() == before and idx.schema == first.schema
    idx.append(rest)
    with pytest.raises(InputError, match="collide"):
        idx.append(rest)


def test_subnormal_bin_widths_give_finite_node_weights():
    # far from every bump the field underflows to subnormal values, so leaf
    # bins a few 1e-320 wide; np.interp's slope overflowed on them
    spec = SumGaussSpec((128, 128), gaussians=4, seed=3, threshold=0)
    schema = ArraySchema((("d0", 128), ("d1", 128)), (("a", "float64"),), (16, 16))
    store = ChunkStore.from_dense(schema, {"a": generate_dense(spec)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        idx = build_index(store)
    leaves = idx.tables[0]
    widths = [np.diff(leaf_binning(leaves, i).boundaries)
              for i in np.flatnonzero(leaves["nbins"]).tolist()]
    assert min(w.min() for w in widths) < np.finfo(float).tiny  # the pathology is present
    for level in idx.levels[1:]:
        for _, node in level.items():
            assert np.isfinite(node.binning.weights).all()
            assert node.binning.weights.sum() == pytest.approx(node.count)


def test_child_with_subnormal_bins_spreads_its_weight():
    narrow = (0.0, 1.0, 240,
              Binning(np.array([0.0, 5e-320, 1e-310, 1.0]), np.array([208.0, 16.0, 16.0])))
    other = (2e-320, 2.0, 8)
    node = build_parent([(0, narrow), (1, other)], Fanout(2, 1), bins=16)
    assert np.isfinite(node.binning.weights).all()
    assert node.binning.weights.sum() == pytest.approx(248.0)


def _random_children(rng, count: int, scale: float, extremes: bool = False) -> list:
    """`count` random children as `leaf_table` takes them: point masses,
    plain children and binned ones, their values about `scale` apart.
    With `extremes`, some binned children also hold a subnormally narrow
    bin at 0, and some children end at -inf or +inf (a bin of weight from
    -inf to +inf has no defined spread, so none is made)."""
    children = []
    for _ in range(count):
        kind = int(rng.integers(0, 3))
        lo = float(rng.normal() * scale)
        if kind == 0:  # a point mass
            children.append((lo, lo, int(rng.integers(1, 50))))
            continue
        edges = np.unique(lo + np.abs(rng.normal(size=int(rng.integers(2, 18)))) * scale)
        if extremes and kind == 2 and rng.random() < 0.3:  # a subnormally narrow bin
            edges = np.unique(np.concatenate((edges, [0.0, 5e-324 * int(rng.integers(1, 100))])))
        if edges.size < 2:
            edges = np.array([lo, np.nextafter(lo, np.inf)])
        if extremes and rng.random() < 0.25:  # one end infinite, or both over two bins
            end = int(rng.integers(0, 3))
            if end != 1:
                edges[0] = -np.inf
            if end != 0 and (edges.size > 2 or end == 1):
                edges[-1] = np.inf
        if kind == 2:  # a binned child
            w = rng.integers(0, 30, size=edges.size - 1).astype(float)
            children.append((float(edges[0]), float(edges[-1]), int(w.sum()), Binning(edges, w)))
        else:  # a plain child, one bin [min, max]
            children.append((float(edges[0]), float(edges[-1]), int(rng.integers(1, 50))))
    return children


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nchildren=st.integers(1, 40),
       scale=st.sampled_from([1.0, 1e-3, 1e6, 1e-318]))
def test_spread_weights_match_child_by_child_reference(seed, nchildren, scale):
    """Every (child, bound) pair at once gives the bytes of one np.interp
    per child added in child order, point masses and subnormal bins too:
    the level kernel over a level of one parent."""
    rng = np.random.default_rng(seed)
    children = _random_children(rng, nchildren, scale)
    bounds = np.unique([v for c in children for v in c[:2]])
    if bounds.size < 2:
        return
    kids = leaf_table(list(enumerate(children)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference's own fallback
        want = reference_spread_weights(bounds, kids)
    got = _spread_weights(bounds, np.array([bounds.size]), kids, np.zeros(nchildren, np.intp))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       scale=st.sampled_from([1e-318, 1e-300, 1e-3, 1.0, 1e6]))
def test_level_spread_matches_the_reference_per_parent(seed, sizes, scale):
    """One kernel call over the children of 1-6 parents, laid end to end,
    gives each parent the bytes of the child-by-child reference over its
    own bounds.  A parent whose children all hold one value has a single
    bound, and no bin to spread into; the build gives it one bin of their
    count."""
    rng = np.random.default_rng(seed)
    parents = []
    for count in sizes:
        if rng.random() < 0.2:  # one value
            v = float(rng.choice([0.0, rng.normal() * scale, np.inf, -np.inf]))
            parents.append([(v, v, int(rng.integers(1, 50))) for _ in range(count)])
        else:
            parents.append(_random_children(rng, count, scale, extremes=True))
    kids = leaf_table(list(enumerate(c for p in parents for c in p)))
    at = np.repeat(np.arange(len(sizes)), sizes)
    per = [np.unique([v for c in p for v in c[:2]]) for p in parents]
    nb = np.array([b.size for b in per])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _spread_weights(np.concatenate(per), nb, kids, at)
        nodes = build_internal_node(kids, at, bins=4)
    assert got.size == (nb - 1).sum()
    for p, (bounds, part) in enumerate(zip(per, np.split(got, np.cumsum(nb - 1)[:-1]))):
        if bounds.size == 1:
            assert part.size == 0
            total = float(sum(c[2] for c in parents[p]))
            assert nodes[p] == Binning(np.array([bounds[0], bounds[0]]), np.array([total]))
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the reference's own fallback
            want = reference_spread_weights(bounds, leaf_table(list(enumerate(parents[p]))))
        assert part.tobytes() == want.tobytes(), p
        assert np.isin(nodes[p].boundaries, bounds).all()
        assert nodes[p].boundaries[[0, -1]].tolist() == bounds[[0, -1]].tolist()


def _index_file(tmp_path):
    store = grid_store((32, 32), (8, 8), seed=2)
    idx = build_index(store, fanout=4, bins=8)
    path = tmp_path / "whole.abix"
    idx.save(path)
    return store, idx, path.read_bytes()


def _sections(raw: bytes) -> dict:
    """(start, end) of each section of a version-5 index file."""
    _, version, _, nlevels, meta_len = struct.unpack_from("<4sIIIQ", raw)
    assert version == 5
    meta_at = 24 + 24 * nlevels
    out = {"preamble": (0, 24), "directory": (24, meta_at),
           "metadata": (meta_at, meta_at + meta_len)}
    for level in range(nlevels):
        _, offset, size = struct.unpack_from("<QQQ", raw, 24 + 24 * level)
        out[f"level {level} tables"] = (offset, offset + size)
    assert offset + size == len(raw)  # no section after the tables
    return out


def _with_crc(raw: bytes) -> bytes:
    """`raw` with its header CRC made to match its content again."""
    crc = zlib.crc32(raw[12:], zlib.crc32(raw[:8]))
    return raw[:8] + struct.pack("<I", crc) + raw[12:]


def test_truncated_index_fails_with_data_error(tmp_path):
    # the header CRC covers the whole file, so every cut fails
    store, idx, raw = _index_file(tmp_path)
    sections = _sections(raw)
    assert len(sections) == 6  # three levels
    assert Index.load(tmp_path / "whole.abix", store=store).node_count() == idx.node_count()
    path = tmp_path / "cut.abix"
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError):
            Index.load(path, store=store)
    for where, (start, end) in sections.items():
        path.write_bytes(raw[: (start + end) // 2])
        assert main(["query", "--index", str(path), "--where", ""]) == 2, where


def test_flipped_byte_fails_with_data_error(tmp_path):
    # the header CRC covers the whole file, so every flipped byte fails
    store, idx, raw = _index_file(tmp_path)
    assert Index.load(tmp_path / "whole.abix", store=store).serialize() == raw
    path = tmp_path / "flip.abix"
    for at in range(len(raw)):
        bad = bytearray(raw)
        bad[at] ^= 0x10
        path.write_bytes(bytes(bad))
        with pytest.raises(DataError):
            Index.load(path, store=store)
    for name, (start, end) in _sections(raw).items():
        bad = bytearray(raw)
        bad[(start + end) // 2] ^= 0x10
        path.write_bytes(bytes(bad))
        assert main(["query", "--index", str(path), "--where", ""]) == 2, name


def test_leaf_count_past_its_chunk_fails_with_data_error(tmp_path):
    # a leaf's non-empty count comes from the file; a count the chunk
    # cannot hold is refused, and so is one its bin weights do not sum to.
    # One it can hold, with the weights of the leaf and of each node above
    # it one less, loads, and only the data, once attached, tells it apart
    store, idx, raw = _index_file(tmp_path)
    columns = saved_columns(raw, idx._int_types(idx.depth))
    count_at, kind, _ = columns[0]["count"]
    cells = math.prod(store.chunks[idx.leaf_coords([0])[0]].shape)
    assert kind == np.uint8  # the narrowest type of a 64-cell chunk
    assert raw[count_at] == idx.tables[0]["count"][0] == cells == 64

    def put(buf, at, kind, value):
        return buf[:at] + np.array([value], kind).tobytes() + buf[at + kind.itemsize:]

    # the largest weight of the first node of each level
    top = [int(np.argmax(cols["weights"][: cols["nbins"][0]])) for cols in idx.tables]
    weight_at = [(cols["weights"][0] + cols["weights"][1].itemsize * i, cols["weights"][1])
                 for cols, i in zip(columns, top)]
    assert [np.frombuffer(raw, kind, 1, at)[0] for at, kind in weight_at] == \
        [cols["weights"][i] for cols, i in zip(idx.tables, top)]
    for bad in (64, 63, 65):
        path = tmp_path / f"count-{bad}.abix"
        edited = put(raw, count_at, kind, bad)
        path.write_bytes(_with_crc(edited))
        if bad == 64:
            assert Index.load(path, store=store).serialize() == raw
        elif bad == 63:
            with pytest.raises(DataError, match="level 0: node 0 has bin weights that do not sum"):
                Index.load(path)
            for at, weight_kind in weight_at:
                edited = put(edited, at, weight_kind,
                             np.frombuffer(edited, weight_kind, 1, at)[0] - 1)
            path.write_bytes(_with_crc(edited))
            assert Index.load(path).tables[-1]["count"][0] == idx.root.count - 1
            with pytest.raises(DataError, match=r"\(0, 0\) has 64 non-empty cells, its leaf 63"):
                Index.load(path, store=store)
        else:
            with pytest.raises(DataError, match="counts 65 cells"):
                Index.load(path)


def test_data_of_another_empty_sentinel_is_refused(tmp_path, capsys):
    # the same cells, empty where the index's data held -1, hold 1000: the
    # counts agree, but a set query's lookup table would index the 1000s
    rng = np.random.default_rng(0)
    vals, empty = rng.integers(0, 10, size=(16, 16)), rng.random((16, 16)) < 0.3

    def data(sentinel):
        sch = ArraySchema((("d0", 16), ("d1", 16)), (("a", "int64"),), (8, 8), {"a": sentinel})
        return sch, {"a": np.where(empty, sentinel, vals)}

    sch, cells = data(-1)
    build_index(ChunkStore.from_dense(sch, cells), fanout=4, bins=4).save(tmp_path / "a.abix")
    sch, cells = data(1000)
    other = ChunkStore.from_dense(sch, cells)
    where = "the data's empty sentinel of 'a' is 1000, not the index's -1"
    with pytest.raises(DataError, match=where):
        Index.load(tmp_path / "a.abix", store=other)
    write_raw(tmp_path / "other.json", sch, cells)
    capsys.readouterr()
    assert main(["query", "--index", str(tmp_path / "a.abix"), "--data",
                 str(tmp_path / "other.json"), "--where", "a in {1, 3, 5}"]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    # an append of the cells below, under the other sentinel
    idx = Index.load(tmp_path / "a.abix")
    below = ChunkStore.from_dense(sch.with_extents((32, 16)),
                                  {"a": np.vstack((np.full((16, 16), 1000), cells["a"]))})
    assert sorted(below.chunks) == [(2, 0), (2, 1), (3, 0), (3, 1)]
    with pytest.raises(InputError, match="the same empty sentinels"):
        idx.append(below)


def test_stale_data_is_refused(tmp_path):
    store, idx, raw = _index_file(tmp_path)
    path = tmp_path / "whole.abix"
    chunk = store.chunks[(1, 2)]
    values = chunk.values["a"].copy()
    values[3, 4] = np.nan  # the chunk loses one cell
    nonempty = chunk.nonempty.copy()
    nonempty[3, 4] = False
    lost = ChunkStore(store.schema, dict(store.chunks))
    lost.chunks[(1, 2)] = lone_chunk(chunk.coords, chunk.offsets, {"a": values}, nonempty)
    with pytest.raises(DataError, match=r"level 0: chunk \(1, 2\) has 63 non-empty cells, its leaf 64"):
        Index.load(path, store=lost)
    fewer = ChunkStore(store.schema, {c: ch for c, ch in store.chunks.items() if c != (1, 2)})
    with pytest.raises(DataError, match="level 0: the data's 15 non-empty chunks are not the index's 16 leaves"):
        Index.load(path, store=fewer)
    moved = dict(store.chunks)
    moved[(9, 9)] = moved.pop((1, 2))
    with pytest.raises(DataError, match="16 non-empty chunks are not the index's 16 leaves"):
        Index.load(path, store=ChunkStore(store.schema, moved))
    # the moved chunk leaves an empty one behind at the leaf's coordinates
    moved[(1, 2)] = lone_chunk(chunk.coords, chunk.offsets, {"a": np.full(chunk.shape, np.nan)},
                               np.zeros(chunk.shape, bool))
    with pytest.raises(DataError, match="16 non-empty chunks are not the index's 16 leaves"):
        Index.load(path, store=ChunkStore(store.schema, moved))
    assert Index.load(path, store=store).node_count() == idx.node_count()


def _edge_clipped(tmp_path):
    """A 20x20 array in 8x8 chunks, its chunk (0, 1) empty, so its store
    has four blocks (the whole tiles, two shapes clipped along one
    dimension and the corner clipped along both), and its index saved."""
    vals = np.random.default_rng(5).random((20, 20))
    vals[vals < 0.1] = np.nan
    vals[0:8, 8:16] = np.nan
    sch = ArraySchema((("d0", 20), ("d1", 20)), (("a", "float64"),), (8, 8))
    store = ChunkStore.from_dense(sch, {"a": vals})
    assert len({id(ch.block) for ch in store.chunks.values()}) == 4
    path = tmp_path / "edge.abix"
    build_index(store, fanout=4, bins=4).save(path)
    return store, path


def _fewer_cells(chunk, n: int):
    """A copy of `chunk` in a block of its own, its first `n` non-empty
    cells emptied."""
    values, nonempty = chunk.values["a"].copy(), chunk.nonempty.copy()
    lost = tuple(i[:n] for i in np.nonzero(nonempty))
    values[lost], nonempty[lost] = np.nan, False
    return lone_chunk(chunk.coords, chunk.offsets, {"a": values}, nonempty)


def test_attach_joins_the_leaves_with_chunks_of_several_blocks(tmp_path):
    store, path = _edge_clipped(tmp_path)
    idx = Index.load(path, store=store)
    chunks, extent = idx.leaf_chunks(), idx.tables[0]["extent"]
    assert len(chunks.blocks) == 4 and chunks.row.size == len(store.chunks) == 8
    for i, lo in enumerate(extent[:, :, 0].tolist()):
        chunk = store.chunks[tuple(c // 8 for c in lo)]
        assert chunks.blocks[chunks.block[i]] is chunk.block and chunks.row[i] == chunk.row
        assert tuple(chunks.coords[i].tolist()) == chunk.coords
        assert chunks.count[i] == chunk.nonempty_count == idx.tables[0]["count"][i]
    # a store made of the same chunks, as a dict, attaches alike
    again = Index.load(path, store=ChunkStore(store.schema, dict(store.chunks)))
    assert all(np.array_equal(a, b) for a, b in zip(again.leaf_chunks()[1:], chunks[1:]))

    def refused(chunks, what):
        with pytest.raises(DataError, match=re.escape(what)):
            Index.load(path, store=ChunkStore(store.schema, chunks))

    # sharing the blocks, one chunk short, or one more: a view of another
    # chunk's row where no leaf is
    refused({c: ch for c, ch in store.chunks.items() if c != (2, 1)},
            "level 0: the data's 7 non-empty chunks are not the index's 8 leaves")
    refused({**store.chunks, (0, 1): store.chunks[(1, 1)]},
            "level 0: the data's 9 non-empty chunks are not the index's 8 leaves")
    # as many chunks, one of them moved inside the array to where no leaf is
    moved = {c: ch for c, ch in store.chunks.items() if c != (2, 1)}
    refused({**moved, (0, 1): store.chunks[(2, 1)]},
            "level 0: the data's 8 non-empty chunks are not the index's 8 leaves")
    # a count that differs in a clipped block; of two, the least
    # coordinates are named
    n = store.chunks[(2, 1)].nonempty_count
    refused({**store.chunks, (2, 1): _fewer_cells(store.chunks[(2, 1)], 1)},
            f"level 0: chunk (2, 1) has {n - 1} non-empty cells, its leaf {n}")
    m = store.chunks[(1, 2)].nonempty_count
    refused({**store.chunks, (2, 1): _fewer_cells(store.chunks[(2, 1)], 1),
             (1, 2): _fewer_cells(store.chunks[(1, 2)], 2)},
            f"level 0: chunk (1, 2) has {m - 2} non-empty cells, its leaf {m}")
    # a row of the same block at another leaf's coordinates
    swapped = {**store.chunks, (2, 0): store.chunks[(2, 1)], (2, 1): store.chunks[(2, 0)]}
    counts = [store.chunks[c].nonempty_count for c in ((2, 0), (2, 1))]
    assert counts[0] != counts[1]
    refused(swapped, f"level 0: chunk (2, 0) has {counts[1]} non-empty cells, its leaf "
                     f"{counts[0]}")


def test_an_append_joins_its_merged_store_on_first_use(tmp_path):
    # the store an append leaves holds the chunks of both stores; its
    # leaves are joined with them when a query first needs them, and a
    # saved copy of the tree attaches to it
    store, path = _edge_clipped(tmp_path)
    first = ChunkStore(store.schema.with_extents((16, 20)),
                       {c: ch for c, ch in store.chunks.items() if c[0] < 2})
    idx = build_index(first, fanout=4, bins=4)
    q = RawQuery(attr_lo=0.3, attr_hi=0.8)
    before = execute(idx, q).count
    idx.append(ChunkStore(store.schema, {c: ch for c, ch in store.chunks.items() if c[0] == 2}))
    assert idx.serialize() == path.read_bytes() and idx.store is not first
    assert set(idx.store.chunks) == set(store.chunks)
    rs = execute(idx, q)
    want = full_scan(store, "a", normalize(q, store.schema, (idx.root.amin, idx.root.amax)))
    assert np.array_equal(rs.cell_ids(idx.store), want) and rs.count == want.size > before
    assert len(idx.leaf_chunks().blocks) == 4
    assert Index.load(path, store=idx.store).node_count() == idx.node_count()


def test_data_of_another_layout_is_refused(tmp_path):
    # data chunked otherwise, or without the indexed attribute as indexed,
    # fails at attach, not in a query's leaf scan
    store, idx, _ = _index_file(tmp_path)
    path = tmp_path / "whole.abix"
    vals, dims = store.dense("a"), store.schema.dims
    for schema, data, message in [
        (ArraySchema(dims, (("a", "float64"),), (4, 8)), {"a": vals},
         r"whole.abix: the data's chunk shape is \(4, 8\), not the index's \(8, 8\)"),
        (ArraySchema(dims, (("b", "float64"),), (8, 8)), {"b": vals},
         "the data's attribute 'a' is missing, not the index's float64"),
        (ArraySchema(dims, (("a", "int64"),), (8, 8), {"a": -1}), {"a": vals.astype(np.int64)},
         "the data's attribute 'a' is int64, not the index's float64"),
    ]:
        with pytest.raises(DataError, match=message):
            Index.load(path, store=ChunkStore.from_dense(schema, data))
    # another attribute beside the indexed one is no difference
    both = ArraySchema(dims, (("b", "int64"), ("a", "float64")), (8, 8), {"b": -1})
    wider = ChunkStore.from_dense(both, {"a": vals, "b": vals.astype(np.int64)})
    assert Index.load(path, store=wider).serialize() == idx.serialize()


def test_infinite_cell_gives_finite_root_weights():
    # the equal-width start of the root's bin merge runs between its finite
    # source boundaries; a live +inf is the last boundary, not a target
    vals = np.random.default_rng(0).normal(size=(32, 32))
    vals[5, 7] = np.inf
    sch = ArraySchema((("d0", 32), ("d1", 32)), (("a", "float64"),), (8, 8))
    store = ChunkStore.from_dense(sch, {"a": vals})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        idx = build_index(store, fanout=16, bins=8)
    root = idx.root
    assert root.amax == np.inf and root.binning.boundaries[-1] == np.inf
    assert np.isfinite(root.binning.weights).all()
    assert root.binning.weights.sum() == pytest.approx(root.count) and root.count == 1024
