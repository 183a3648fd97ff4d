"""Answer checks that do not use the package under test.

Expected cell ids come from numpy masks over the dense generated array,
flattened in global row-major order.  Estimates are checked against the
properties every level budget must keep, and an appended tree against a
full build over the same chunks.
"""

from __future__ import annotations

import numpy as np


def expected_ids(dense: np.ndarray, nonempty: np.ndarray, raw) -> np.ndarray:
    """Sorted global row-major ids of the cells matching `raw`.

    `raw` is a `RawQuery`; only its plain fields are read.
    """
    shape = dense.shape
    box = []
    for d, e in enumerate(shape):
        lo, hi = raw.dims.get(f"d{d}", (None, None))
        lo = 0 if lo is None else max(int(lo), 0)
        hi = e - 1 if hi is None else min(int(hi), e - 1)
        box.append(slice(lo, hi + 1))
    box = tuple(box)
    sub = dense[box]
    mask = nonempty[box].copy()
    if raw.values is not None:
        mask &= np.isin(sub, np.asarray(raw.values, dtype=sub.dtype))
    else:
        if raw.attr_lo is not None:
            mask &= sub >= raw.attr_lo
        if raw.attr_hi is not None:
            mask &= sub <= raw.attr_hi
    for name, vals in raw.dim_values.items():
        d = int(name[1:])
        idx = np.arange(box[d].start, box[d].stop)
        keep = np.isin(idx, np.fromiter(vals, np.int64))
        view = [1] * len(shape)
        view[d] = -1
        mask &= keep.reshape(view)
    full = np.zeros(shape, bool)
    full[box] = mask
    return np.flatnonzero(full).astype(np.int64)


def ids_match(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(np.array_equal(got, want))


def estimates_ok(bounds: list, exact: int, full: tuple | None = None) -> bool:
    """(lo, hi) bounds at budgets 0, 1, ..., then `full` at full depth.

    Every pair holds the exact count, the lower bound never falls and the
    upper bound never rises as the budget grows, and at full depth both
    equal the exact count.
    """
    seq = list(bounds) + ([full] if full is not None else [])
    for lo, hi in seq:
        if not lo <= exact <= hi:
            return False
    for (lo0, hi0), (lo1, hi1) in zip(seq, seq[1:]):
        if lo1 < lo0 or hi1 > hi0:
            return False
    return full is None or full[0] == full[1] == exact


# Bin weights of internal nodes are float sums of cell counts, and an
# appended node adds its children in another order than a full build.  The
# order moves a weight by a few units in the last place (1.9e-9 on a root
# weight of 4.4e6, two ulps); a wrong count moves it by a cell or more.
WEIGHT_RTOL = 1e-12


def tree_difference(appended, full) -> str | None:
    """First difference between two trees over the same chunks, or None.

    Both must have the same nodes per level, the same child masks, extents
    and range tables, and byte-identical leaves; internal-node bin weights
    may differ by `WEIGHT_RTOL` of the node's largest weight.
    """
    if appended.depth != full.depth:
        return f"depth {appended.depth} != {full.depth}"
    ndim = full.schema.ndim
    for level in range(full.depth + 1):
        a = dict(appended.levels[level].items())
        b = dict(full.levels[level].items())
        if a.keys() != b.keys():
            return f"level {level}: node sets differ ({len(a)} vs {len(b)} nodes)"
        for z, nb in b.items():
            na = a[z]
            where = f"level {level} z {z}"
            if level == 0:
                if appended._pack_leaf(z, na, ndim) != full._pack_leaf(z, nb, ndim):
                    return f"{where}: leaf bytes differ"
                continue
            for attr in ("extent", "child_mask", "count", "amin", "amax",
                         "sp_masks", "al_masks"):
                if getattr(na, attr) != getattr(nb, attr):
                    return f"{where}: {attr} differs"
            for attr in ("sp_bounds", "al_bounds"):
                if not np.array_equal(getattr(na, attr), getattr(nb, attr)):
                    return f"{where}: {attr} differs"
            if not np.array_equal(na.binning.boundaries, nb.binning.boundaries):
                return f"{where}: bin boundaries differ"
            gap = float(np.max(np.abs(na.binning.weights - nb.binning.weights)))
            scale = max(1.0, float(np.max(np.abs(nb.binning.weights))))
            if not gap <= WEIGHT_RTOL * scale:
                return f"{where}: bin weights differ by {gap:.3g} of {scale:.6g}"
    return None
