"""Attribute binning: construction and the equi-depth bin-merge heuristic.

Bins are half-open ``[lo, hi)`` except the last, which is closed at the
domain max.  A binning with a single zero-width bin ``[v, v]`` is the
degenerate single-value case; otherwise boundaries are strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Binning:
    """Ordered bin boundaries plus per-bin weight estimates."""

    boundaries: np.ndarray  # float64, nbins + 1
    weights: np.ndarray = field(default=None)  # float64, nbins

    def __post_init__(self):
        b = np.asarray(self.boundaries, np.float64)
        object.__setattr__(self, "boundaries", b)
        if b.size < 2:
            raise InputError("a binning needs at least two boundaries")
        w = self.weights
        w = np.zeros(b.size - 1) if w is None else np.asarray(w, np.float64)
        object.__setattr__(self, "weights", w)
        if w.size != b.size - 1:
            raise InputError("weights length must equal bin count")
        # compared, not subtracted: inf - inf is NaN
        if b.size == 2:
            if b[1] < b[0]:
                raise InputError("boundaries must be nondecreasing")
        elif not (b[1:] > b[:-1]).all():
            raise InputError("boundaries must be strictly increasing")

    @classmethod
    def prevalidated(cls, boundaries: np.ndarray, weights: np.ndarray) -> "Binning":
        """A binning over float64 arrays that the caller has already checked
        as `__post_init__` would; a saved index checks a whole level at once."""
        binning = cls.__new__(cls)
        object.__setattr__(binning, "boundaries", boundaries)
        object.__setattr__(binning, "weights", weights)
        return binning

    @property
    def nbins(self) -> int:
        return self.boundaries.size - 1

    @property
    def lo(self) -> float:
        return float(self.boundaries[0])

    @property
    def hi(self) -> float:
        return float(self.boundaries[-1])

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def __eq__(self, other):
        if not isinstance(other, Binning):
            return NotImplemented
        return np.array_equal(self.boundaries, other.boundaries) and np.array_equal(
            self.weights, other.weights
        )


def equi_depth_exact(values, counts, k: int, starts=None) -> tuple:
    """Equi-depth bins from exact (value, count) histograms.

    `values` holds one or more histograms back to back, each sorted and
    unique; `starts` gives the index where each begins (one histogram by
    default).  Counts are positive integers.  Returns one Binning per
    histogram, and the edges of all their bins in order: bin b holds
    values[edges[b] : edges[b + 1]].

    Fewer distinct values than k collapses to one bin per distinct value.
    Otherwise cut j of k - 1 falls after the first value whose cumulative
    count reaches total * j / k.  Boundaries are the midpoints between the
    values either side of each cut, so a single value's population is never
    split.  Midpoints of adjacent floats can round onto an endpoint: equal
    ones are kept once, ones not strictly inside the histogram's range are
    dropped, and a value equal to a midpoint belongs to the bin above it,
    which can leave the bin below it empty.
    """
    values = np.asarray(values, np.float64)
    counts = np.asarray(counts)
    if values.size == 0:
        raise InputError("empty histogram")
    if k < 1:
        raise InputError("bin count must be >= 1")
    if counts.shape != values.shape:
        raise InputError("values and counts must have one length")
    cnt = counts.astype(np.int64, copy=False)
    if (counts.dtype.kind == "f" and not (cnt == counts).all()) or not (cnt >= 1).all():
        raise InputError("histogram counts must be positive integers")
    starts = np.zeros(1, np.int64) if starts is None else np.asarray(starts, np.int64)
    ends = np.append(starts[1:], values.size)
    m = ends - starts
    if starts[0] != 0 or not (m >= 1).all():
        raise InputError("every histogram needs at least one value")
    ordered = values[1:] > values[:-1]
    ordered[starts[1:] - 1] = True
    if not ordered.all():
        raise InputError("histogram values must be sorted and unique")
    cum = np.zeros(values.size + 1, np.int64)
    np.cumsum(cnt, out=cum[1:])

    # cuts: before every value but the first of a small histogram, and at
    # k - 1 positions of a large one.  Cumulative counts are integers, so
    # reaching the float target t is reaching ceil(t); the search runs over
    # the running count of all histograms, each target offset by the count
    # before its histogram.
    few = np.flatnonzero(m <= k)
    size = m[few] - 1
    cuts = [np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - starts[few] - 1, size)]
    many = np.flatnonzero(m > k)
    if many.size:
        base = cum[starts[many]]
        targets = (cum[ends[many]] - base).astype(np.float64)[:, None] * np.arange(1, k) / k
        need = np.ceil(targets).astype(np.int64) + base[:, None]
        at = np.searchsorted(cum, need.ravel(), side="left")  # one past the value reaching it
        cuts.append(np.minimum(at, np.repeat(ends[many] - 1, k - 1)))
    cuts = np.unique(np.concatenate(cuts))
    seg = np.searchsorted(starts, cuts, side="right") - 1
    mids = (values[cuts - 1] + values[cuts]) / 2.0
    keep = (mids > values[starts[seg]]) & (mids < values[ends[seg] - 1])
    keep[1:] &= (mids[1:] != mids[:-1]) | (seg[1:] != seg[:-1])
    cuts, mids, seg = cuts[keep], mids[keep], seg[keep]

    # bins and boundaries of histogram h sit after those of the histograms
    # before it: its first value, then its kept midpoints, then its last
    nseg = starts.size
    nbins = 1 + np.bincount(seg, minlength=nseg)
    first_bin = np.cumsum(nbins) - nbins
    edges = np.empty(int(nbins.sum()) + 1, np.int64)
    edges[first_bin] = starts
    edges[seg + 1 + np.arange(seg.size)] = cuts - (mids == values[cuts - 1])
    edges[-1] = values.size
    weights = np.diff(cum[edges]).astype(np.float64)
    bounds = np.empty(edges.size - 1 + nseg)
    lead = first_bin + np.arange(nseg)
    bounds[lead] = values[starts]
    bounds[lead + nbins] = values[ends - 1]
    bounds[2 * seg + 1 + np.arange(seg.size)] = mids
    binnings = [
        Binning(bounds[a : a + n + 1], weights[b : b + n])
        for a, b, n in zip(lead.tolist(), first_bin.tolist(), nbins.tolist())
    ]
    return binnings, edges


def wsse(binning: Binning, target_total: float | None = None, bins: int | None = None) -> float:
    """Weighted sum of squared deviations from the ideal equal share."""
    w = binning.weights
    total = float(w.sum()) if target_total is None else float(target_total)
    nb = binning.nbins if bins is None else bins
    share = total / nb
    return float(((w - share) ** 2).sum())


def _initial_equi_width_selection(boundaries: np.ndarray, bins: int) -> np.ndarray:
    """Pick bins+1 distinct source boundaries nearest an equal-width grid.

    The grid runs between the first and last finite boundaries; an infinite
    first or last boundary stays the grid's end.
    """
    nb = boundaries.size - 1
    finite = boundaries[np.isfinite(boundaries)]
    targets = np.linspace(finite[0], finite[-1], bins + 1)
    targets[0], targets[-1] = boundaries[0], boundaries[-1]
    chosen: list[int] = []
    used = np.zeros(nb + 1, bool)
    for t in targets:
        dist = np.abs(np.subtract(boundaries, t, where=boundaries != t, out=np.zeros(nb + 1)))
        idx = int(np.argmin(np.where(used, np.inf, dist)))
        used[idx] = True
        chosen.append(idx)
    return np.array(sorted(chosen))


def merge_bins_iterative(
    source: Binning, bins: int, trace: list | None = None
) -> Binning:
    """Select an approximately equi-depth subset of the source boundaries.

    Starts from an equal-width selection, then repeatedly performs the most
    beneficial bin split together with the cheapest disjoint merge while the
    weighted sum square error strictly decreases.  Each accepted step keeps
    the bin count constant, so the result has exactly min(bins, |source|)
    bins and its boundaries are a subset of the source boundaries.
    """
    nb = source.nbins
    if nb <= bins:
        if trace is not None:
            trace.append(wsse(source))
        return source
    cumw = np.concatenate(([0.0], np.cumsum(source.weights)))
    total = cumw[-1]
    share = total / bins
    bounds = source.boundaries

    sel = _initial_equi_width_selection(bounds, bins)

    def sel_weights(s):
        return np.diff(cumw[s])

    def err(w):
        return (w - share) ** 2

    cur = float(err(sel_weights(sel)).sum())
    if trace is not None:
        trace.append(cur)

    max_iters = 10 * nb
    for _ in range(max_iters):
        w = sel_weights(sel)
        # candidate splits: every unselected source boundary, evaluated in place
        cand = np.setdiff1d(np.arange(nb + 1), sel, assume_unique=True)
        if cand.size == 0:
            break
        owner = np.searchsorted(sel, cand) - 1  # bin each cut falls into
        w1 = cumw[cand] - cumw[sel[owner]]
        w2 = w[owner] - w1
        d_split = err(w1) + err(w2) - err(w[owner])
        best = np.lexsort((bounds[cand], d_split))[0]  # ties: lower boundary value
        split_cut = cand[best]
        split_bin = owner[best]
        split_gain = d_split[best]

        # candidate merges: adjacent selected pairs not touching the split bin
        pair = np.arange(bins - 1)
        pair = pair[(pair != split_bin) & (pair + 1 != split_bin)]
        if pair.size == 0:
            break
        d_merge = err(w[pair] + w[pair + 1]) - err(w[pair]) - err(w[pair + 1])
        bestm = np.lexsort((bounds[sel[pair + 1]], d_merge))[0]
        merge_pair = pair[bestm]
        merge_cost = d_merge[bestm]

        new = cur + float(split_gain + merge_cost)
        if not new < cur:  # accept only a strict improvement
            break
        sel = np.sort(np.concatenate((np.delete(sel, merge_pair + 1), [split_cut])))
        cur = new
        if trace is not None:
            trace.append(cur)

    return Binning(bounds[sel], sel_weights(sel))
