"""Leaf resolution: the batched scan of `leaf_query` over a one-leaf
batch (`testutil.resolve_leaf`), against a numpy brute force over the
whole chunk.  The leaf's hits are those inside the query's dimension runs,
read back from the box they span, clipped to the chunk; the brute force
finds no hit outside it."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arraybit.chunkstore import (
    ArraySchema,
    ChunkStore,
    QueryStats,
    build_leaf_index,
    leaf_query,
    query_cover,
    run_matcher,
    tile_batches,
)
from arraybit.hierindex import _take
from arraybit.query import value_runs
from testutil import leaf_row, resolve_leaf

SENTINEL = 7  # the int64 empty value; "narrow" data has live values either side


def _store(rng, ndim, dtype, values):
    """A store over a random shape whose edge chunks are clipped.

    `values` picks the int64 data: "narrow" levels 0-20 (the sentinel 7 lies
    between live values), "wide" ones spread far beyond a chunk's cell
    count, "big" ones near 2^53.
    """
    chunk = tuple(int(c) for c in rng.integers(2, 7, ndim))
    shape = tuple(int(c * rng.integers(1, 3) + rng.integers(0, c)) for c in chunk)
    if dtype == "float64":
        vals = np.round(rng.normal(size=shape) * 10.0, int(rng.integers(0, 3)))
        vals[rng.random(shape) < 0.3] = np.nan
        empty = {}
    else:
        if values == "narrow":
            vals = rng.integers(0, 21, size=shape)
        elif values == "wide":
            vals = rng.integers(-10**6, 10**6, size=shape)
        else:
            vals = 2**53 - rng.integers(0, 40, size=shape)
        vals[vals == SENTINEL] = SENTINEL + 1
        vals[rng.random(shape) < 0.3] = SENTINEL
        empty = {"a": SENTINEL}
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", dtype),),
                      chunk, empty)
    return ChunkStore.from_dense(sch, {"a": vals})


def _runs(rng, live, dtype, kind):
    """A single run, or the runs of a value set of live values, absent
    values and (on int64) non-integral ones."""
    if kind == "run":
        lo, hi = np.sort(rng.choice(live, 2))
        lo = -np.inf if rng.random() < 0.2 else float(lo) - float(rng.random() < 0.5) * 0.5
        hi = np.inf if rng.random() < 0.2 else float(hi)
        return [(lo, hi)]
    picks = [float(v) for v in rng.choice(live, int(rng.integers(1, 7)))]
    picks.append(float(np.max(live)) + 3.0)
    if dtype == "int64":
        picks += [float(v) + 0.5 for v in rng.choice(live, 2)]
        picks += [float(v) + 1.0 for v in picks[:2]]  # neighbours coalesce into stretches
    return list(value_runs(picks, dtype == "int64"))


def _box(rng, chunk):
    """Dimension runs in array coordinates, some reaching past the chunk's
    edges: None, one run meeting the chunk, or the stretches of a random
    set of indices (sorted runs with gaps, possibly none inside the chunk)."""
    out = []
    for s in chunk.shape:
        r = rng.random()
        if r < 0.2:
            out.append(None)
        elif r < 0.4:
            out.append(((-int(rng.integers(0, 3)), s - 1 + int(rng.integers(0, 3))),))
        elif r < 0.7:
            lo = int(rng.integers(-2, s))
            out.append(((lo, int(rng.integers(max(lo, 0), s + 2))),))
        else:
            at = np.flatnonzero(rng.random(s + 4) < 0.5) - 2
            if not at.size:
                at = np.array([0])
            ends = np.flatnonzero(np.diff(at) > 1)
            out.append(tuple(zip(at[np.r_[0, ends + 1]].tolist(), at[np.r_[ends, -1]].tolist())))
    return [runs and tuple((a + o, b + o) for a, b in runs) for runs, o in zip(out, chunk.offsets)]


def _brute(chunk, runs, box):
    """The chunk's hits, in the chunk's shape."""
    vals = chunk.values["a"]
    hit = np.zeros(vals.shape, bool)
    for lo, hi in runs:
        hit |= (vals >= lo) & (vals <= hi)
    hit &= chunk.nonempty
    for d, dim_runs in enumerate(box):
        if dim_runs is not None:
            at = np.arange(chunk.shape[d]) + chunk.offsets[d]
            at = at.reshape([-1 if i == d else 1 for i in range(hit.ndim)])
            hit &= np.logical_or.reduce([(at >= lo) & (at <= hi) for lo, hi in dim_runs])
    return hit


def _in_box(chunk, want, box):
    """`want` inside the query's box: per dimension from the first run's low
    to the last run's high end, clipped to the chunk; no hit lies outside."""
    sl = []
    for dim_runs, o, s in zip(box, chunk.offsets, chunk.shape):
        lo = 0 if dim_runs is None else min(max(dim_runs[0][0] - o, 0), s)
        hi = s if dim_runs is None else min(max(dim_runs[-1][1] + 1 - o, lo), s)
        sl.append(slice(lo, hi))
    inside = want[tuple(sl)]
    assert np.count_nonzero(inside) == np.count_nonzero(want)
    return inside


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(1, 3),
    dtype=st.sampled_from(["float64", "int64"]),
    values=st.sampled_from(["narrow", "wide", "big"]),
    bins=st.sampled_from([1, 2, 4, 8]),
    kind=st.sampled_from(["run", "set"]),
    plain=st.booleans(),
)
@example(seed=0, ndim=2, dtype="int64", values="narrow", bins=4, kind="set", plain=False)
@example(seed=1, ndim=3, dtype="int64", values="wide", bins=8, kind="set", plain=False)
@example(seed=2, ndim=1, dtype="float64", values="narrow", bins=4, kind="set", plain=True)
def test_resolvers_match_brute_force(seed, ndim, dtype, values, bins, kind, plain):
    rng = np.random.default_rng(seed)
    store = _store(rng, ndim, dtype, values)
    chunks = list(store.iter_chunks())
    if not chunks:  # every cell empty (a 3-cell array at seed 82549979): no leaf
        return
    # e large enough makes every leaf plain
    leaves = build_leaf_index(chunks, "a", bins, e=10**6 if plain else 1)
    every = np.concatenate([c.values["a"][c.nonempty] for c in chunks])
    for chunk in chunks:
        leaf = _take(leaves, [leaf_row(leaves, chunk)])
        live = chunk.values["a"][chunk.nonempty]
        for _ in range(4):
            runs = _runs(rng, live, dtype, kind)
            box = _box(rng, chunk)
            want = _in_box(chunk, _brute(chunk, runs, box), box)
            stats = QueryStats()
            got = resolve_leaf(chunk, leaf, "a", runs, box, stats)
            assert got.dtype == bool and got.shape == want.shape
            assert np.array_equal(got, want)
            assert stats.bitmap_fetches == stats.candidate_bitmap_fetches == 0
            # one matcher for a whole query over the store, with the store's
            # value range, a table size limit both below and above it, and
            # with or without the column's empty value
            for cells, empty in itertools.product((1, 10**7), (None, SENTINEL)):
                match = run_matcher(runs, dtype == "int64", float(every.min()),
                                    float(every.max()), cells, empty)
                assert np.array_equal(resolve_leaf(chunk, leaf, "a", runs, box, None, match), want)


@pytest.mark.parametrize("empty", [-1, -10, -11, 9, 10, 11, -2**63, 2**63 - 1])
def test_a_lookup_table_takes_any_empty_value(empty):
    # a value set over levels 0-9 is matched by a table of 10 entries; an
    # empty value that indexes it (from -10 to 9) is looked up in place,
    # any other through a clipped `take`, and both match every live value
    # exactly on a read-only block
    vals = np.random.default_rng(4).integers(0, 10, size=(6, 64))
    vals[:, ::3] = empty
    vals.flags.writeable = False
    live = vals != empty
    runs = value_runs([1, 3, 5, 6, 12], True)
    match = run_matcher(runs, True, 0.0, 9.0, vals.size, empty)
    got = match(vals)
    assert got.shape == vals.shape
    assert np.array_equal(got & live, np.isin(vals, [1, 3, 5, 6]) & live)
    assert np.array_equal(match(vals[2:5]) & live[2:5], got[2:5] & live[2:5])


def _float_chunk(shape, seed=0):
    vals = np.random.default_rng(seed).normal(size=shape) * 10.0
    sch = ArraySchema(tuple((f"d{i}", e) for i, e in enumerate(shape)), (("a", "float64"),),
                      shape)
    store = ChunkStore.from_dense(sch, {"a": vals})
    return store, store.chunks[(0,) * len(shape)]


def test_leaf_query_scans_without_reading_bitmaps():
    store, chunk = _float_chunk((16, 16, 16))
    leaf = build_leaf_index([chunk], "a", 16)
    runs = [(leaf["amin"][0], float(leaf["bounds"][4]))]  # the lowest four bins
    stats = QueryStats()
    got = resolve_leaf(chunk, leaf, "a", runs, [None] * 3, stats)
    assert stats.leaves_scanned == 1
    assert stats.bitmap_fetches == stats.candidate_bitmap_fetches == 0
    assert stats.candidate_checks == chunk.nonempty_count
    assert got.shape == chunk.shape
    assert np.array_equal(got, _brute(chunk, runs, [None] * 3))


def test_covering_and_missing_runs_read_nothing():
    store, chunk = _float_chunk((64, 64))
    leaf = build_leaf_index([chunk], "a", 16)
    amin, amax = leaf["amin"][0], leaf["amax"][0]
    box = [((3, 40),), ((10, 70),)]
    for runs, want in [
        ([(amin - 1.0, amax)], _brute(chunk, [(-np.inf, np.inf)], box)[3:41, 10:]),
        ([(amax + 1.0, amax + 2.0)], np.zeros((38, 54), bool)),
    ]:
        stats = QueryStats()
        assert np.array_equal(resolve_leaf(chunk, leaf, "a", runs, box, stats), want)
        assert stats == QueryStats()


def test_plain_leaf_scans_its_box():
    vals = np.full((8, 8), np.nan)
    vals[1:3, 2:6] = np.arange(8.0).reshape(2, 4)
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (8, 8))
    store = ChunkStore.from_dense(sch, {"a": vals})
    chunk = store.chunks[(0, 0)]
    leaf = build_leaf_index([chunk], "a", 4)
    assert leaf["nbins"].tolist() == [0]
    runs = [(1.0, 2.0), (5.0, 6.0)]
    box = [((2, 7),), None]
    stats = QueryStats()
    got = resolve_leaf(chunk, leaf, "a", runs, box, stats)
    assert got.shape == (6, 8)  # rows 2-7
    assert np.array_equal(got, _brute(chunk, runs, box)[2:])
    assert int(got.sum()) == 2  # 5.0 and 6.0 in row 2
    assert stats.leaves_scanned == 1 and stats.candidate_checks == 4  # the box's live cells



def test_a_batch_answers_alike_in_any_order_of_its_rows():
    # the scan matches runs of consecutive block rows in place, after
    # ordering the scanned rows; a batch's counts, answer and stats must not
    # depend on the order its rows come in.  The whole tiles' block scans
    # rows 0-10 (a long run), 14, 17, 19-21, 30 and 33; row 11 is covered
    # by a run and row 22 meets none.  The clipped edges are three more
    # blocks.
    rng = np.random.default_rng(5)
    shape, tile = (70, 45), (8, 8)
    vals = rng.normal(size=shape)
    vals[rng.random(shape) < 0.2] = np.nan
    vals[16:24, 8:16] = 100.0  # tile (2, 1), row 11
    vals[32:40, 16:24] = -100.0  # tile (4, 2), row 22
    sch = ArraySchema((("d0", 70), ("d1", 45)), (("a", "float64"),), tile)
    store = ChunkStore.from_dense(sch, {"a": vals})
    picked = {*range(12), 14, 17, 19, 20, 21, 22, 30, 33}
    chunks = [c for c in store.iter_chunks() if c.block.shape != tile or c.row in picked]
    assert len({id(c.block) for c in chunks}) == 4
    amin = np.array([np.min(c.values["a"][c.nonempty]) for c in chunks])
    amax = np.array([np.max(c.values["a"][c.nonempty]) for c in chunks])
    runs = [(-0.5, 0.5), (99.0, 101.0)]
    dims = (((3, 66),), ((2, 20), (25, 43)))
    match = run_matcher(runs, False, float(amin.min()), float(amax.max()), 70 * 45)

    def resolve(order):
        cover = query_cover(dims, shape, tile)
        stats = QueryStats()
        counts = np.zeros(len(chunks), np.int64)
        for block, members, rows, at in tile_batches(chunks, cover.first):
            m = np.array(members)[order(len(members))]
            at = tuple(np.array([chunks[i].coords[d] - cover.first[d] for i in m])
                       for d in range(2))
            counts[m] = leaf_query(block, np.array([chunks[i].row for i in m]), at,
                                   {"amin": amin[m], "amax": amax[m]}, "a", runs, match, cover,
                                   stats)
        return counts, cover.answer, stats

    whole = next(b for b, *_ in tile_batches(chunks, (0, 0)) if b.shape == tile)
    rows = sorted(c.row for c in chunks if c.block is whole)
    scanned = [r for r in rows if r not in (11, 22)]
    assert scanned == [*range(11), 14, 17, 19, 20, 21, 30, 33]
    want = resolve(lambda n: np.arange(n))
    assert want[2].leaves_scanned == len(scanned) + 14  # and the 14 edge tiles
    for order in (lambda n: np.arange(n)[::-1], lambda n: rng.permutation(n),
                  lambda n: np.argsort(np.arange(n) % 3, kind="stable")):
        counts, answer, stats = resolve(order)
        assert np.array_equal(counts, want[0])
        assert np.array_equal(answer, want[1])
        assert stats == want[2]
    brute = np.zeros(shape, bool)
    brute[3:67, 2:21] = brute[3:67, 25:44] = True
    brute &= ((vals >= -0.5) & (vals <= 0.5)) | ((vals >= 99.0) & (vals <= 101.0))
    for c, n in zip(chunks, want[0]):
        sl = tuple(slice(o, o + s) for o, s in zip(c.offsets, c.shape))
        assert n == np.count_nonzero(brute[sl]), c.coords
