"""Attribute binning: construction and the equi-depth bin-merge heuristic.

Bins are half-open ``[lo, hi)`` except the last, which is closed at the
domain max.  A binning with a single zero-width bin ``[v, v]`` is the
degenerate single-value case; otherwise boundaries are strictly increasing.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Binning:
    """Ordered bin boundaries plus per-bin weight estimates."""

    boundaries: np.ndarray  # float64, nbins + 1
    weights: np.ndarray  # float64, nbins

    def __post_init__(self):
        b = np.asarray(self.boundaries, np.float64)
        object.__setattr__(self, "boundaries", b)
        if b.size < 2:
            raise InputError("a binning needs at least two boundaries")
        w = np.asarray(self.weights, np.float64)
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

    def __eq__(self, other):
        if not isinstance(other, Binning):
            return NotImplemented
        return np.array_equal(self.boundaries, other.boundaries) and np.array_equal(
            self.weights, other.weights
        )


def _bisect(flat: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
            right: bool) -> np.ndarray:
    """Per entry, the first position in [lo, hi), a range over which `flat`
    ascends, whose value is above x (`right`) or not below it, else hi:
    one gather over all entries per halving step."""
    lo, hi = lo.copy(), hi.copy()
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        v = flat[np.minimum(mid, flat.size - 1)]
        go = ((v <= x) if right else (v < x)) & (mid < hi)
        lo = np.where(go, mid + 1, lo)
        hi = np.where(go, hi, mid)
    return lo


def equi_depth_exact(ordered: np.ndarray, live: np.ndarray, k: int) -> tuple:
    """Equi-depth bins of each row of `ordered`, whose first live[r] cells
    hold row r's values in ascending order; the cells after them are
    ignored.  Returns the bins as columns, row after row: bin counts k,
    k + 1 boundaries and k weights per row, and the least and greatest
    value of every bin: (inf, -inf) for an empty bin.

    A row of at most k distinct values gets one bin per distinct value.
    Otherwise cut j of k - 1 falls after the run of equal values holding
    cell ceil(n * j / k) - 1 of the row's n live cells, the first value
    whose cumulative count reaches n * j / k; a cut after the last run
    falls before it instead.  Boundaries are the midpoints between the
    values either side of each cut, so a single value's population is never
    split.  Midpoints of adjacent floats can round onto an endpoint: equal
    ones are kept once, ones not strictly inside the row's range are
    dropped, and a value equal to a midpoint belongs to the bin above it,
    which can leave the bin below it empty.  Weights are cell counts.  The
    last boundary is the first cell of the row's last run.

    Passes: the run end of every target, and the start of every row's last
    run, come from one batched bisection over the sorted rows, about
    log2(cells) gathers over rows x (k - 1) entries.  Targets that give
    k - 1 distinct cuts are final: a row of at most k distinct values then
    has exactly k of them, and its cuts are its run starts.  Only the other
    rows are scanned cell by cell for their run starts, to tell whether
    they have at most k distinct values.  The bins' cell positions give the
    weights and the spans; a cut onto the value below it moves to that
    value's run start, found by bisection.
    """
    ordered = np.asarray(ordered, np.float64)
    live = np.asarray(live, np.int64)
    if k < 1:
        raise InputError("bin count must be >= 1")
    if ordered.ndim != 2 or live.shape != ordered.shape[:1]:
        raise InputError("expected rows of values and one live count per row")
    nrows, ncells = ordered.shape
    if not ((live >= 1) & (live <= ncells)).all():
        raise InputError("every row needs 1 to its length live cells")
    flat = ordered.reshape(-1)
    base = np.arange(nrows) * ncells
    end = base + live
    tail = _bisect(flat, base, end - 1, flat[end - 1], right=False)  # the last run's start

    # the cut of target j closes the run holding cell need - 1, where the
    # running count reaches ceil(n * j / k); cut positions are flat cells
    need = np.ceil(live.astype(np.float64)[:, None] * np.arange(1, k) / k).astype(np.int64)
    at = (base[:, None] + need - 1).reshape(-1)
    row = np.repeat(np.arange(nrows), k - 1)
    cut = _bisect(flat, at + 1, end[row], flat[at], right=True)
    cut = np.minimum(cut, tail[row]).reshape(nrows, k - 1)
    final = (cut > base[:, None]).all(axis=1) & (cut[:, 1:] > cut[:, :-1]).all(axis=1)
    cuts = [cut[final].reshape(-1)]
    scan = np.flatnonzero(~final)
    if scan.size:
        part = ordered[scan]
        starts = part[:, 1:] != part[:, :-1]
        starts &= np.arange(1, ncells) < live[scan, None]
        few = starts.sum(axis=1) < k
        r, p = np.nonzero(starts[few])
        cuts.append(base[scan[few]][r] + p + 1)
        cuts.append(np.unique(cut[scan[~few]]))
    cuts = np.sort(np.concatenate(cuts))
    seg = cuts // ncells
    lower = flat[cuts - 1]
    mids = (lower + flat[cuts]) / 2.0
    keep = (mids > flat[base[seg]]) & (mids < flat[end[seg] - 1])
    keep[1:] &= (mids[1:] != mids[:-1]) | (seg[1:] != seg[:-1])
    cuts, mids, seg, lower = cuts[keep], mids[keep], seg[keep], lower[keep]
    onto = np.flatnonzero(mids == lower)
    if onto.size:
        cuts[onto] = _bisect(flat, base[seg[onto]], cuts[onto] - 1, lower[onto], right=False)

    # bins and boundaries of row r sit after those of the rows before it:
    # its first value, then its kept midpoints, then its last (the first
    # cell of its last run)
    nbins = 1 + np.bincount(seg, minlength=nrows)
    first_bin = np.cumsum(nbins) - nbins
    lo = np.empty(int(nbins.sum()), np.int64)
    lo[first_bin] = base
    lo[seg + 1 + np.arange(seg.size)] = cuts
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[first_bin + nbins - 1] = end
    weights = (hi - lo).astype(np.float64)
    bounds = np.empty(lo.size + nrows)
    lead = first_bin + np.arange(nrows)
    bounds[lead] = flat[base]
    bounds[lead + nbins] = flat[tail]
    bounds[2 * seg + 1 + np.arange(seg.size)] = mids

    # a bin's span runs from its first cell to the first cell of its last
    # run (-0.0 and 0.0 sort in either order); an empty bin keeps (inf, -inf)
    filled = hi > lo
    span_lo = np.where(filled, flat[lo], np.inf)
    span_hi = np.where(filled, flat[hi - 1], -np.inf)
    zero = np.flatnonzero(filled & (span_hi == 0))
    if zero.size:
        span_hi[zero] = flat[_bisect(flat, lo[zero], hi[zero] - 1, span_hi[zero], right=False)]
    return nbins, bounds, weights, span_lo, span_hi


def wsse(binning: Binning) -> float:
    """Weighted sum of squared deviations from the ideal equal share."""
    w = binning.weights
    return float(((w - float(w.sum()) / binning.nbins) ** 2).sum())


def _initial_equi_width_selection(boundaries: np.ndarray, bins: int) -> np.ndarray:
    """Pick bins+1 distinct source boundaries nearest an equal-width grid.

    The grid runs between the first and last finite boundaries; an infinite
    first or last boundary stays the grid's end.  When those finite ends are
    more than the float range apart, the grid is built between the halved
    ends and doubled, so that it stays finite.  Each grid point in turn
    takes the unused boundary at the least distance, the lowest index on a
    tie.  Rounded distances never rise towards the point from either side,
    so that boundary is the first unused one below or above the point's
    position, or an unused one below it at the same distance.  A point
    with no finite distance to either takes the first boundary of least
    distance over the whole array, used ones counting as infinitely far.
    """
    nb = boundaries.size - 1
    finite = boundaries[np.isfinite(boundaries)]
    if math.isfinite(float(finite[-1]) - float(finite[0])):
        targets = np.linspace(finite[0], finite[-1], bins + 1)
    else:
        targets = np.linspace(finite[0] / 2, finite[-1] / 2, bins + 1) * 2
    targets[0], targets[-1] = boundaries[0], boundaries[-1]
    bounds = boundaries.tolist()
    used = np.zeros(nb + 1, bool)
    chosen: list[int] = []

    def dist(i: int, t: float) -> float:
        return abs(bounds[i] - t) if bounds[i] != t else 0.0  # inf - inf is NaN

    for t in targets.tolist():
        at = bisect.bisect_left(bounds, t)
        below, above = at - 1, at
        while below >= 0 and used[below]:
            below -= 1
        while above <= nb and used[above]:
            above += 1
        d_below = dist(below, t) if below >= 0 else np.inf
        d_above = dist(above, t) if above <= nb else np.inf
        if d_below <= d_above < np.inf or d_below < d_above:
            idx, best = below, d_below
            for i in range(below - 1, -1, -1):
                if not used[i]:
                    if dist(i, t) != best:
                        break
                    idx = i
        elif d_above < np.inf:
            idx = above
        else:
            away = np.abs(np.subtract(boundaries, t, where=boundaries != t, out=np.zeros(nb + 1)))
            idx = int(np.argmin(np.where(used, np.inf, away)))
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
    bins and its boundaries are a subset of the source boundaries.  Ties
    go to the lower boundary.

    Passes: the equal-width start walks from each grid point's position to
    its nearest unused boundary (see `_initial_equi_width_selection`).  Each
    step evaluates every unselected boundary as a split, found from a mask
    of the selected ones, and every adjacent pair of bins as a merge.
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
    picks = sel.tolist()
    chosen = np.zeros(nb + 1, bool)
    chosen[sel] = True

    def err(w):
        return (w - share) ** 2

    cur = float(err(np.diff(cumw[sel])).sum())
    if trace is not None:
        trace.append(cur)

    max_iters = 10 * nb
    for _ in range(max_iters):
        at = cumw[sel]
        w = at[1:] - at[:-1]
        ew = err(w)
        # candidate splits: every unselected source boundary, evaluated in place
        cand = np.flatnonzero(~chosen)
        if cand.size == 0:
            break
        owner = np.searchsorted(sel, cand) - 1  # bin each cut falls into
        w1 = cumw[cand] - at[owner]
        w2 = w[owner] - w1
        d_split = err(w1) + err(w2) - ew[owner]
        # the first least gain is at the lowest boundary.  A NaN gain needs
        # an infinite or NaN bin error; the error sum is then not finite and
        # no step is accepted, so where argmin puts a NaN changes nothing
        best = int(np.argmin(d_split))
        split_cut = cand[best]
        split_bin = owner[best]
        split_gain = d_split[best]

        # candidate merges: adjacent selected pairs not touching the split
        # bin, those before pair `skip` and after pair split_bin
        skip = max(split_bin - 1, 0)
        d_pair = err(w[:-1] + w[1:]) - ew[:-1] - ew[1:]
        d_merge = np.concatenate((d_pair[:skip], d_pair[split_bin + 1 :]))
        if d_merge.size == 0:
            break
        bestm = int(np.argmin(d_merge))
        merge_pair = bestm if bestm < skip else bestm - skip + split_bin + 1
        merge_cost = d_merge[bestm]

        new = cur + float(split_gain + merge_cost)
        if not new < cur:  # accept only a strict improvement
            break
        dropped = picks.pop(merge_pair + 1)
        chosen[dropped] = dropped in picks  # a start that took one boundary twice keeps it
        bisect.insort(picks, int(split_cut))
        chosen[split_cut] = True
        sel = np.array(picks)
        cur = new
        if trace is not None:
            trace.append(cur)

    return Binning(bounds[sel], np.diff(cumw[sel]))
