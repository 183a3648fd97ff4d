import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.binning import (
    Binning,
    equi_depth_exact,
    merge_bins_iterative,
    wsse,
)
from arraybit.errors import DegenerateDomainError, InputError
from testutil import bin_of, equi_width, merged_weight


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
    assert b.total_weight == 0


def test_equi_width_degenerate():
    with pytest.raises(DegenerateDomainError):
        equi_width(1.0, 1.0, 4)


def test_equi_depth_uniform():
    (b,), _ = equi_depth_exact(np.arange(16.0), np.full(16, 3.0), 4)
    assert b.nbins == 4
    assert np.allclose(b.weights, 12.0)


def test_equi_depth_single_value():
    (b,), _ = equi_depth_exact([5.0], [9.0], 8)
    assert b.nbins == 1
    assert b.lo == b.hi == 5.0
    assert b.total_weight == 9.0


def test_equi_depth_low_cardinality():
    (b,), edges = equi_depth_exact([1.0, 2.0, 5.0], [4, 4, 4], 8)
    assert b.nbins == 3
    assert np.array_equal(bin_of(b, [1.0, 2.0, 5.0]), [0, 1, 2])
    assert np.array_equal(edges, [0, 1, 2, 3])


def test_equi_depth_zipf_balance():
    rng = np.random.default_rng(11)
    values = np.arange(1.0, 10_001.0)
    counts = np.floor(10_000.0 / values) + rng.integers(0, 3, size=10_000)
    (b,), edges = equi_depth_exact(values, counts, 16)
    assert np.array_equal(np.repeat(np.arange(b.nbins), np.diff(edges)), bin_of(b, values))
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
    assert wsse(c, target_total=4.0, bins=2) == pytest.approx(2.0)
    assert wsse(c) == wsse(c)


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
    assert out.total_weight == pytest.approx(b.total_weight)


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
        assert wsse(out, b.total_weight, 8) <= trace[0] + 1e-9
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
