import math
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.binning import Binning
from arraybit.chunkstore import ArraySchema, ChunkStore, QueryStats
from arraybit.cli import main
from arraybit.datagen import SumGaussSpec, generate_dense
from arraybit.errors import DataError, InputError
from arraybit.hierindex import (
    DimensionBitmaps,
    Fanout,
    Index,
    _spread_weights,
    build_index,
    zorder_decode_many,
    zorder_encode_many,
)
from arraybit.query import RawQuery, execute
from testutil import (
    build_parent,
    leaf_binning,
    leaf_table,
    lone_chunk,
    record_fetches,
    reference_spread_weights,
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


def test_double_range_encoding_reference_layout():
    # four children over boundaries 1..8 merging to {1,3,6,8}: additions
    # happen in [1,3) and [3,6), removals in (3,6] and (6,8], and the
    # started mask at 3 flags exactly the first and third child
    children = [
        (0, (1.0, 7.0, 20)),
        (1, (4.0, 6.0, 20)),
        (2, (2.0, 3.0, 20)),
        (3, (5.0, 8.0, 20)),
    ]
    node = build_parent(children, Fanout(4, 1), bins=3)
    rb = node.binning.boundaries
    assert np.array_equal(rb, [1.0, 3.0, 6.0, 8.0])
    # started table: the first child at 1, then the third in [1,3), the
    # other two in [3,6); the merged interval of each entry ends at its bound
    assert np.array_equal(node.sp_bounds, [1.0, 3.0, 6.0])
    assert node.sp_masks == [0b0001, 0b0101, 0b1111]
    prev = rb[np.searchsorted(rb, node.sp_bounds[1:]) - 1]
    assert list(zip(prev, node.sp_bounds[1:])) == [(1.0, 3.0), (3.0, 6.0)]
    # alive table: every child at 1, the third (max 3) stops in (3,6], the
    # first two in (6,8]
    assert np.array_equal(node.al_bounds, [1.0, 6.0, 8.0])
    assert node.al_masks == [0b1111, 0b1011, 0b1000]
    prev = rb[np.searchsorted(rb, node.al_bounds[1:]) - 1]
    assert list(zip(prev, node.al_bounds[1:])) == [(3.0, 6.0), (6.0, 8.0)]


def test_single_child_node():
    node = build_parent([(0, (2.0, 5.0, 7))], Fanout(4, 1), bins=4)
    assert node.child_mask == 0b0001
    assert len(node.sp_masks) == 1 and node.sp_masks[0] == 0b0001
    assert len(node.al_masks) == 1 and node.al_masks[0] == 0b0001
    assert node.count == 7


def test_retained_masks_are_distinct():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(1, 17))
        children = []
        for s in range(k):
            lo, hi = np.sort(rng.integers(0, 20, size=2).astype(float))
            children.append((s, (lo, hi, int(rng.integers(1, 9)))))
        node = build_parent(children, Fanout(16, 1), bins=4)
        assert len(set(node.sp_masks)) == len(node.sp_masks)
        assert len(set(node.al_masks)) == len(node.al_masks)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_conservative_decoding(seed):
    # partial decodings must be supersets and complete decodings subsets of
    # the truth computed straight from the child min/max intervals
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
    for _ in range(20):
        a = float(np.round(rng.random() * 12 - 1, 2))
        true_started = int(sum(1 << s for s in range(k) if mins[s] <= a))
        true_alive = int(sum(1 << s for s in range(k) if maxs[s] >= a))
        assert node.started_over(a) | true_started == node.started_over(a)
        assert node.alive_over(a) | true_alive == node.alive_over(a)
        under_ge = node.min_ge_under(a)
        true_ge = int(sum(1 << s for s in range(k) if mins[s] >= a))
        assert under_ge & true_ge == under_ge
        under_le = node.max_le_under(a)
        true_le = int(sum(1 << s for s in range(k) if maxs[s] <= a))
        assert under_le & true_le == under_le


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
    "shape, chunk, rows, fanout",
    [
        ((64, 48), (4, 4), 16, 16),
        ((16, 8, 8, 8), (2, 2, 2, 2), 4, 16),
    ],
)
def test_appended_index_is_byte_identical_to_full_build(shape, chunk, rows, fanout):
    rng = np.random.default_rng(17)
    vals = rng.gamma(2.0, 10.0, size=shape)
    vals[rng.random(shape) < 0.2] = np.nan
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", "float64"),), chunk)
    store = ChunkStore.from_dense(sch, {"a": vals})
    kw = dict(fanout=fanout, bins=8, e=1)
    first, *rest = _slabs(store, rows)
    assert rest
    appended = build_index(first, **kw)
    for slab in rest:
        appended.append(slab)
    full = build_index(store, **kw)
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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nchildren=st.integers(1, 40),
       scale=st.sampled_from([1.0, 1e-3, 1e6, 1e-318]))
def test_spread_weights_match_child_by_child_reference(seed, nchildren, scale):
    """Every (child, bound) pair at once gives the bytes of one np.interp
    per child added in child order, point masses and subnormal bins too."""
    rng = np.random.default_rng(seed)
    children = []
    for _ in range(nchildren):
        kind = int(rng.integers(0, 3))
        lo = float(rng.normal() * scale)
        if kind == 0:  # a point mass
            children.append((lo, lo, int(rng.integers(1, 50))))
            continue
        edges = np.unique(lo + np.abs(rng.normal(size=int(rng.integers(2, 18)))) * scale)
        if edges.size < 2:
            edges = np.array([lo, np.nextafter(lo, np.inf)])
        if kind == 2:  # a binned child
            w = rng.integers(0, 30, size=edges.size - 1).astype(float)
            children.append((float(edges[0]), float(edges[-1]), int(w.sum()), Binning(edges, w)))
        else:  # a plain child, one bin [min, max]
            children.append((float(edges[0]), float(edges[-1]), int(rng.integers(1, 50))))
    bounds = np.unique([v for c in children for v in c[:2]])
    if bounds.size < 2:
        return
    kids = leaf_table(list(enumerate(children)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference's own fallback
        want = reference_spread_weights(bounds, kids)
    got = _spread_weights(bounds, kids)
    assert got.tobytes() == want.tobytes()


def _index_file(tmp_path):
    store = grid_store((32, 32), (8, 8), seed=2)
    idx = build_index(store, fanout=4, bins=8)
    path = tmp_path / "whole.abix"
    idx.save(path)
    return store, idx, path.read_bytes()


def _sections(raw: bytes) -> dict:
    """(start, end) of each section of a version-3 index file."""
    _, version, _, nlevels, meta_len = struct.unpack_from("<4sIIIQ", raw)
    assert version == 3
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
    # cannot hold is refused
    store, idx, raw = _index_file(tmp_path)
    start, _ = _sections(raw)["level 0 tables"]
    n = len(idx.levels[0])
    count_at = start + 8 * n + 32 * n + 16 * n  # after z, extent, amin and amax
    cells = math.prod(store.chunks[idx.leaf_coords([0])[0]].shape)
    assert struct.unpack_from("<Q", raw, count_at)[0] == idx.tables[0]["count"][0] == cells == 64
    for bad, ok in ((64, True), (65, False)):
        path = tmp_path / f"count-{bad}.abix"
        path.write_bytes(_with_crc(raw[:count_at] + struct.pack("<Q", bad) + raw[count_at + 8:]))
        if ok:
            assert Index.load(path, store=store).serialize() == raw
        else:
            with pytest.raises(DataError, match="counts 65 cells"):
                Index.load(path)


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
    with pytest.raises(DataError, match=r"chunk \(1, 2\) has 63 non-empty cells, its leaf 64"):
        Index.load(path, store=lost)
    fewer = ChunkStore(store.schema, {c: ch for c, ch in store.chunks.items() if c != (1, 2)})
    with pytest.raises(DataError, match="15 non-empty chunks are not the index's 16 leaves"):
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
