import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.binning import (
    Binning,
    equi_depth_exact,
    merge_bins_iterative,
    wsse,
)
from arraybit.baseline import full_scan
from arraybit.chunkstore import ArraySchema, ChunkStore
from arraybit.errors import InputError
from arraybit.hierindex import build_index
from arraybit.query import RawQuery, estimate, execute, normalize
from testutil import (
    bin_of,
    equi_width,
    leaf_binning,
    merged_weight,
    reference_bins,
    reference_merge_bins_iterative,
    value_pool,
)


def reference_merge(source: Binning, bins: int):
    """Slow, loop-based re-derivation of the iterative merge. Same rules:
    best split first, then cheapest merge not touching the split bin, accept
    while the pair strictly lowers the error."""
    nb = source.nbins
    if nb <= bins:
        return source
    cumw = np.concatenate(([0.0], np.cumsum(source.weights)))
    share = cumw[-1] / bins
    bounds = source.boundaries

    targets = np.linspace(bounds[0], bounds[-1], bins + 1)
    sel, used = [], set()
    for t in targets:
        best = min(
            (i for i in range(nb + 1) if i not in used),
            key=lambda i: abs(bounds[i] - t),
        )
        used.add(best)
        sel.append(best)
    sel = sorted(sel)

    def err(w):
        return (w - share) ** 2

    def weights_of(s):
        return [cumw[s[j + 1]] - cumw[s[j]] for j in range(len(s) - 1)]

    cur = sum(err(w) for w in weights_of(sel))
    while True:
        w = weights_of(sel)
        splits = []
        for c in range(nb + 1):
            if c in sel:
                continue
            j = max(i for i in range(len(sel)) if sel[i] < c)
            w1 = cumw[c] - cumw[sel[j]]
            w2 = w[j] - w1
            delta = err(w1) + err(w2) - err(w[j])
            splits.append((delta, bounds[c], c, j))
        if not splits:
            break
        ds, _, cut, jbin = min(splits)
        merges = []
        for j in range(len(sel) - 2):
            if j == jbin or j + 1 == jbin:
                continue
            delta = err(w[j] + w[j + 1]) - err(w[j]) - err(w[j + 1])
            merges.append((delta, bounds[sel[j + 1]], j))
        if not merges:
            break
        dm, _, jm = min(merges)
        if not (cur + ds + dm < cur):
            break
        sel.remove(sel[jm + 1])
        sel = sorted(sel + [cut])
        cur += ds + dm
    return Binning(bounds[np.array(sel)], np.array(weights_of(sel)))


def test_equi_width_basic():
    assert np.array_equal(equi_width(0, 8, 4).boundaries, [0, 2, 4, 6, 8])
    assert np.array_equal(equi_width(0, 1, 1).boundaries, [0, 1])
    b = equi_width(-3.5, 3.5, 7)
    assert np.allclose(np.diff(b.boundaries), 1.0)
    assert not b.weights.any()


def test_equi_width_degenerate():
    with pytest.raises(InputError):
        equi_width(1.0, 1.0, 4)


def _cells(values, counts) -> np.ndarray:
    """The sorted cells of a (value, count) histogram."""
    return np.repeat(np.asarray(values, np.float64), np.asarray(counts, np.int64))


def _one_row(cells, k) -> tuple:
    """`equi_depth_exact` of one sorted row of live cells: its bins as a
    Binning, and its spans."""
    nbins, bounds, weights, span_lo, span_hi = equi_depth_exact(cells[None], [cells.size], k)
    assert nbins.size == 1
    cols = {"nbins": nbins, "bounds": bounds, "weights": weights}
    return leaf_binning(cols, 0), span_lo, span_hi


def test_equi_depth_uniform():
    cells = _cells(np.arange(16.0), np.full(16, 3))
    b, _, _ = _one_row(cells, 4)
    assert b.nbins == 4
    assert np.allclose(b.weights, 12.0)


def test_equi_depth_single_value():
    b, _, _ = _one_row(_cells([5.0], [9]), 8)
    assert b.nbins == 1
    assert b.boundaries[0] == b.boundaries[-1] == 5.0
    assert b.weights.sum() == 9.0


def test_equi_depth_low_cardinality():
    b, span_lo, span_hi = _one_row(_cells([1.0, 2.0, 5.0], [4, 4, 4]), 8)
    assert b.nbins == 3
    assert np.array_equal(bin_of(b, [1.0, 2.0, 5.0]), [0, 1, 2])
    assert np.array_equal(b.weights, [4, 4, 4])
    assert np.array_equal(span_lo, [1.0, 2.0, 5.0]) and np.array_equal(span_hi, span_lo)


def test_equi_depth_zipf_balance():
    rng = np.random.default_rng(11)
    values = np.arange(1.0, 10_001.0)
    counts = np.floor(10_000.0 / values) + rng.integers(0, 3, size=10_000)
    cells = _cells(values, counts)
    b, _, _ = _one_row(cells, 16)
    assert np.array_equal(np.repeat(np.arange(b.nbins), b.weights.astype(np.int64)),
                          bin_of(b, cells))
    quota = counts.sum() / 16
    heavy = counts.max() > quota
    if not heavy:
        assert b.weights.max() <= 2 * b.weights.min()
    # weights must agree with an exact recount over the histogram
    idx = bin_of(b, values)
    recount = np.bincount(idx, weights=counts, minlength=b.nbins)
    assert np.allclose(recount, b.weights)


def test_merged_weight_full_and_half():
    b = Binning(np.array([0.0, 10.0]), np.array([10.0]))
    assert merged_weight(b, 0, 10) == pytest.approx(10.0)
    assert merged_weight(b, 0, 5) == pytest.approx(5.0)


def test_merged_weight_two_bins_hand_computed():
    # bins [0,3) weight 4 and [3,7) weight 8; query covers last third of the
    # first and first quarter of the second: 4/3 + 2
    b = Binning(np.array([0.0, 3.0, 7.0]), np.array([4.0, 8.0]))
    assert merged_weight(b, 2.0, 4.0) == pytest.approx(4 / 3 + 2)


def test_wsse_values():
    b = Binning(np.array([0.0, 1.0, 2.0]), np.array([2.0, 2.0]))
    assert wsse(b) == 0.0
    c = Binning(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0]))
    assert wsse(c) == pytest.approx(2.0)


def test_merge_identity_when_small():
    b = Binning(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]))
    assert merge_bins_iterative(b, 4) == b


def test_merge_counts_and_subset():
    rng = np.random.default_rng(3)
    bounds = np.unique(rng.random(65))
    b = Binning(bounds, rng.random(bounds.size - 1))
    out = merge_bins_iterative(b, 16)
    assert out.nbins == 16
    assert np.isin(out.boundaries, b.boundaries).all()
    assert out.weights.sum() == pytest.approx(b.weights.sum())


def test_merge_improves_on_equi_width_start():
    rng = np.random.default_rng(4)
    for seed in range(20):
        r = np.random.default_rng(seed)
        bounds = np.unique(r.random(40) * 100)
        if bounds.size < 6:
            continue
        w = r.random(bounds.size - 1) ** 3  # skewed
        b = Binning(bounds, w)
        trace = []
        out = merge_bins_iterative(b, 8, trace=trace)
        assert out.nbins == min(8, b.nbins)
        assert trace == sorted(trace, reverse=True)
        assert all(x > y for x, y in zip(trace, trace[1:]))
        assert wsse(out) <= trace[0] + 1e-9
        assert len(trace) - 1 <= 10 * b.nbins


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), nb=st.integers(2, 48), bins=st.integers(1, 20))
def test_merge_matches_reference_simulation(seed, nb, bins):
    rng = np.random.default_rng(seed)
    bounds = np.unique(np.round(rng.random(nb + 1) * 1000))
    if bounds.size < 2:
        bounds = np.array([0.0, 1.0])
    weights = np.round(rng.random(bounds.size - 1) * 100)
    b = Binning(bounds, weights)
    got = merge_bins_iterative(b, bins)
    want = reference_merge(b, bins)
    assert np.array_equal(got.boundaries, want.boundaries)
    assert np.allclose(got.weights, want.weights)


def test_figure_layout_merge_is_stable():
    # 8 boundaries from 4 overlapping child ranges; near-equal interval
    # weights keep the equal-width start optimal, so no step is accepted
    bounds = np.arange(1.0, 9.0)
    weights = np.array([20.0, 20, 13, 13, 14, 20, 20])
    b = Binning(bounds, weights)
    trace = []
    out = merge_bins_iterative(b, 3, trace=trace)
    assert np.array_equal(out.boundaries, [1.0, 3.0, 6.0, 8.0])
    assert len(trace) == 1


# ---------------------------------------------------------------------------
# the cut finder on sorted rows against the per-histogram reference


def _sorted_rows(rows) -> tuple:
    """Rows sorted and padded with NaN to one length, and their live counts."""
    ordered = np.full((len(rows), max(len(r) for r in rows)), np.nan)
    for i, row in enumerate(rows):
        ordered[i, : len(row)] = np.sort(row)
    return ordered, np.array([len(r) for r in rows])


def _assert_cuts_match_reference(rows, k):
    nbins, bounds, weights, span_lo, span_hi = equi_depth_exact(*_sorted_rows(rows), k)
    assert nbins.size == len(rows)
    assert bounds.size == weights.size + len(rows) and weights.size == nbins.sum()
    cols = {"nbins": nbins, "bounds": bounds, "weights": weights}
    at = 0
    for i, row in enumerate(rows):
        got = leaf_binning(cols, i)
        want, lo, hi = reference_bins(np.asarray(row, np.float64), k)
        n = got.nbins
        assert got.boundaries.tobytes() == want.boundaries.tobytes(), (row, k)
        assert got.weights.tobytes() == want.weights.tobytes(), (row, k)
        assert span_lo[at : at + n].tobytes() == lo.tobytes(), (row, k)
        assert span_hi[at : at + n].tobytes() == hi.tobytes(), (row, k)
        at += n
    assert at == span_lo.size == span_hi.size


def test_cut_finder_matches_reference_on_edge_rows():
    up = float(np.nextafter(1.0, np.inf))
    assert (1.0 + up) / 2.0 == 1.0  # their midpoint rounds onto the lower value
    rows = [
        [1, 1, 2, 3, 3, 3, 4, 4],  # exactly k = 4 distinct values
        [1, 2, 2, 3, 4, 5, 5, 5],  # k + 1
        [0, 1, 2, 5, 5, 5, 5, 5, 5, 7, 8, 9],  # one run straddles two targets
        [0.5] * 3 + [1.0] * 3 + [up] * 3 + [2.0] * 3,
        [1, 2, 3, 4, 5, np.inf, np.inf, np.inf],
        [-np.inf, 1, 2, 3, 4, 5, 6],
        [7.0] * 5,
        [3.0],
    ]
    for k in (1, 2, 3, 4, 5, 8):
        _assert_cuts_match_reference(rows, k)


def test_span_ends_at_the_first_cell_of_the_last_run():
    # -0.0 equals 0.0 and a sort keeps either first: the span takes the
    # first, as the per-value histogram did
    ordered = np.array([[-1.0, 0.0, -0.0], [-1.0, -0.0, 0.0]])
    *_, span_hi = equi_depth_exact(ordered, [3, 3], 4)
    assert np.signbit(span_hi).tolist() == [True, False, True, True]


@st.composite
def value_rows(draw):
    """A few rows of cells drawn from one float pool (see `value_pool`)."""
    pool = draw(value_pool(False))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    return [pool[rng.integers(0, pool.size, n)] for n in sizes]


@settings(max_examples=200, deadline=None)
@given(rows=value_rows(), k=st.integers(1, 20))
def test_cut_finder_matches_reference(rows, k):
    _assert_cuts_match_reference(rows, k)


# ---------------------------------------------------------------------------
# the bin merge against the merge as first written


@st.composite
def merge_sources(draw):
    """A source binning a little or a lot finer than `bins`: spacings with
    ties, ±inf ends and zero-weight bins."""
    bins = draw(st.integers(1, 24))
    nb = bins + draw(st.one_of(st.integers(1, 3), st.integers(4, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["grid", "normal", "clustered"]))
    if style == "grid":  # equal distances to the equal-width points
        bounds = np.arange(nb + 1) * draw(st.sampled_from([1.0, 0.5, 1e-3, 3.0]))
    elif style == "normal":
        bounds = np.unique(rng.normal(size=nb + 1) * 100.0)
    else:
        bounds = np.cumsum(rng.exponential(size=nb + 1) ** 3)
    ends = draw(st.sampled_from(["", "lo", "hi", "both"]))
    if ends in ("lo", "both"):
        bounds[0] = -np.inf
    if ends in ("hi", "both"):
        bounds[-1] = np.inf
    bounds = np.unique(bounds)
    if draw(st.booleans()):
        weights = rng.integers(0, 20, bounds.size - 1).astype(np.float64)
    else:
        weights = rng.random(bounds.size - 1) * 100.0
    if draw(st.booleans()):  # its square overflows: the gains of splits in its bin are NaN
        weights[rng.integers(weights.size)] = 2e154
    weights[rng.random(weights.size) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    return Binning(bounds, weights), bins


def test_merge_start_breaks_rounded_distance_ties_low():
    # grid point 1.0 is 1.0 from both 1e-17 and 2e-17 once rounded; the
    # start takes the lower boundary, the first at the least distance
    source = Binning(np.array([-1.0, 1e-17, 2e-17, 2.5, 3.0]), np.array([1.0, 5.0, 1.0, 1.0]))
    got_trace, want_trace = [], []
    got = merge_bins_iterative(source, 2, got_trace)
    want = reference_merge_bins_iterative(source, 2, want_trace)
    assert got_trace[0] == want_trace[0] == (1 - 4.0) ** 2 + (7 - 4.0) ** 2
    assert got == want


def test_merge_start_matches_when_the_grid_overflows():
    # finite ends 2e308 apart: an equal-width grid between them is inf
    # inside, so the start is built between the halved ends and doubled
    source = Binning(np.array([-1e308, -1.0, 0.0, 1.0, 5.0, 1e308, np.inf]), np.ones(6))
    for bins in range(2, 9):
        got = merge_bins_iterative(source, bins)
        assert (np.diff(got.boundaries) > 0).all()
        assert got.boundaries[0] == -1e308 and got.boundaries[-1] == np.inf
        assert got.weights.sum() == source.weights.sum()


@pytest.mark.parametrize("bins", [2, 4, 6, 8])
def test_build_over_a_float_range_wide_field_matches_full_scan(bins):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(32, 32))
    vals[3, 4], vals[20, 30] = -1e308, 1e308
    sch = ArraySchema((("d0", 32), ("d1", 32)), (("a", "float64"),), (8, 8))
    store = ChunkStore.from_dense(sch, {"a": vals})
    idx = build_index(store, fanout=16, bins=bins)
    for raw in [RawQuery(attr_lo=0.0), RawQuery(attr_hi=-1.0, dims={"d0": (2, 10)}),
                RawQuery(attr_lo=1e300), RawQuery(attr_lo=-0.5, attr_hi=0.5,
                                                  dim_values={"d1": {1, 2, 30}})]:
        q = normalize(raw, sch)
        want = full_scan(store, "a", q)
        assert np.array_equal(execute(idx, q).cell_ids(store), want)
        assert estimate(idx, q, idx.depth) == (want.size, want.size)


@settings(max_examples=300, deadline=None)
@given(case=merge_sources())
def test_merge_matches_first_written_merge_bit_for_bit(case):
    source, bins = case
    got_trace, want_trace = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        got = merge_bins_iterative(source, bins, got_trace)
        want = reference_merge_bins_iterative(source, bins, want_trace)
    assert got.boundaries.tobytes() == want.boundaries.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.array(got_trace).tobytes() == np.array(want_trace).tobytes()
