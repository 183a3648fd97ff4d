"""The three benchmark workloads: seeded data, queries and set-up.

Every input is a pure function of the workload name and the seed.  The
program under test only ever sees the generated arrays and queries.

Each workload builds its tree over the first slab along d0 and appends
the remaining slabs one at a time, so every workload reports build,
append, save and load times; ingest-4d is the one where appends dominate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from arraybit import datagen
from arraybit.chunkstore import ArraySchema, ChunkStore
from arraybit.hierindex import Fanout
from arraybit.query import RawQuery


@dataclass(frozen=True)
class Spec:
    """Shape, chunking and index parameters of one workload."""

    name: str
    shape: tuple
    chunk: tuple
    fanout: int
    bins: int
    encoding: str
    slabs: int  # the array arrives as this many equal slabs along d0
    main_kind: str  # "range" or "member"
    dtype: str = "float64"
    # compare the appended tree with a full build (one more build per run)
    check_append: bool = False


SPECS = {
    "range-2d": Spec("range-2d", (2048, 2048), (64, 64), 64, 16, "range", 2, "range"),
    "member-3d": Spec("member-3d", (96, 96, 96), (16, 16, 16), 64, 16, "equality", 2,
                      "member", dtype="int64"),
    "ingest-4d": Spec("ingest-4d", (64, 48, 48, 48), (8, 8, 8, 8), 256, 16, "interval", 8,
                      "range", check_append=True),
}

# fraction of cells left empty (member-3d: sentinel -1; ingest-4d: NaN)
_EMPTY_SHARE = {"range-2d": 0.0, "member-3d": 0.40, "ingest-4d": 0.25}
_LEVELS = 128  # member-3d attribute levels
EMPTY_INT = -1


def scaled(spec: Spec, factor: int) -> Spec:
    """The same workload with every extent divided by `factor` (self-test)."""
    shape = tuple(max(c, e // factor) for e, c in zip(spec.shape, spec.chunk))
    return dataclasses.replace(spec, shape=shape)


def schema_of(spec: Spec, extents=None) -> ArraySchema:
    extents = extents or spec.shape
    empty = {"a": EMPTY_INT} if spec.dtype == "int64" else {}
    return ArraySchema(
        tuple((f"d{i}", e) for i, e in enumerate(extents)),
        (("a", spec.dtype),),
        spec.chunk,
        empty,
    )


# ---------------------------------------------------------------------------
# data


# Gaussian bumps per dimension (a jittered lattice) and bump width as a share
# of each extent.  The seed moves and reshapes the bumps but keeps their
# number and spacing, so set-up cost, index size and query cost change
# little from seed to seed.
_LATTICE = {
    "range-2d": ((3, 3), 1 / 8),
    "member-3d": ((2, 2, 2), 1 / 5),
    "ingest-4d": ((2, 1, 1, 1), 1 / 4),
}


def _field(spec: Spec, seed: int) -> np.ndarray:
    """Sum of Gaussian bumps centred near a regular lattice."""
    rng = np.random.default_rng([seed, 1])
    per, share = _LATTICE[spec.name]
    ext = np.array(spec.shape, np.float64)
    axes = [(np.arange(n) + 0.5) / n for n in per]
    centres = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(per))
    centres += rng.uniform(-0.05, 0.05, centres.shape) / np.array(per)
    stds = share * ext * rng.uniform(0.95, 1.05, centres.shape)
    sigmas = np.stack([np.diag(s * s) for s in stds])
    return datagen.field_values(centres * (ext - 1), sigmas, spec.shape)


def _slab_rows(spec: Spec) -> list:
    """(first, last + 1) cell rows along d0 of each arriving slab."""
    grid0 = -(-spec.shape[0] // spec.chunk[0])
    per = -(-grid0 // spec.slabs)
    rows = per * spec.chunk[0]
    return [(lo, min(lo + rows, spec.shape[0])) for lo in range(0, spec.shape[0], rows)]


def make_dense(spec: Spec, seed: int) -> np.ndarray:
    """The workload's dense array, empties included (NaN or the sentinel).

    In every slab the lowest share of the field is empty, and member-3d
    levels are ranks, so each slab holds the same number of non-empty
    cells and each level the same number of cells, whatever the seed.
    """
    vals = _field(spec, seed)
    share = _EMPTY_SHARE[spec.name]
    empty = np.zeros(vals.shape, bool)
    for lo, hi in _slab_rows(spec):
        block = vals[lo:hi]
        k = int(round(share * block.size))
        if k:
            empty[lo:hi] = block < np.partition(block.reshape(-1), k)[k]
    if spec.dtype == "int64":
        out = np.full(vals.shape, EMPTY_INT, np.int64)
        live = vals[~empty]
        ranks = np.empty(live.size, np.int64)
        ranks[np.argsort(live, kind="stable")] = np.arange(live.size)
        out[~empty] = ranks * _LEVELS // live.size
        return out
    vals[empty] = np.nan
    return vals


def nonempty_of(spec: Spec, dense: np.ndarray) -> np.ndarray:
    return dense != EMPTY_INT if spec.dtype == "int64" else ~np.isnan(dense)


def slab_stores(spec: Spec, store: ChunkStore) -> list:
    """Split a chunked store into the initial store and the appended slabs."""
    out = []
    for lo, hi in _slab_rows(spec):
        schema = schema_of(spec, (hi,) + tuple(spec.shape[1:]))
        c0, c1 = lo // spec.chunk[0], -(-hi // spec.chunk[0])
        chunks = {c: ch for c, ch in store.chunks.items() if c0 <= c[0] < c1}
        out.append(ChunkStore(schema, chunks))
    return out


# ---------------------------------------------------------------------------
# queries


@dataclass
class Op:
    """One operation of a round: its kind, its query and, for estimates,
    the level budget."""

    kind: str  # "range" | "member" | "dimset" | "estimate"
    raw: RawQuery
    qid: int  # the main query this operation belongs to
    budget: int = -1


def _box(rng, shape, frac) -> tuple:
    """A random box covering about `frac` of the array, random aspect."""
    d = len(shape)
    logs = rng.normal(0.0, 0.15, d)
    logs -= logs.mean()
    side = frac ** (1.0 / d) * np.exp(logs)
    lens = [max(1, min(e, int(round(s * e)))) for s, e in zip(side, shape)]
    los = [int(rng.integers(0, e - n + 1)) for n, e in zip(lens, shape)]
    return tuple((lo, lo + n - 1) for lo, n in zip(los, lens))


def _dims(box) -> dict:
    return {f"d{i}": (lo, hi) for i, (lo, hi) in enumerate(box)}


def _slices(box):
    return tuple(slice(lo, hi + 1) for lo, hi in box)


def _attr_range(rng, vals: np.ndarray, frac: float, jitter: float = 1.0) -> tuple:
    """An inclusive value range holding about `frac` of `vals`, starting at
    a quantile drawn from the middle `jitter` share of the possible starts."""
    vals = vals[~np.isnan(vals)]
    start = (1.0 - frac) * rng.uniform(0.5 - jitter / 2, 0.5 + jitter / 2)
    lo, hi = np.quantile(vals, [start, start + frac])
    return float(lo), float(hi)


def range_queries(spec: Spec, dense: np.ndarray, rng, n_box: int, hit_lo: float,
                  hit_hi: float, box_exp: float, extras: bool) -> list:
    """Box-plus-attribute queries with hit ratios h log-spread over
    [hit_lo, hit_hi]: the box covers h ** box_exp of the array and the
    attribute range the rest.  With `extras`, a few attribute-only,
    dimension-only and whole-subtree queries follow."""
    shape = spec.shape
    out = []
    for h in np.geomspace(hit_lo, hit_hi, n_box):
        fb = float(min(1.0, h ** box_exp))
        box = _box(rng, shape, fb)
        while np.isnan(dense[_slices(box)]).all():
            box = _box(rng, shape, fb)
        lo, hi = _attr_range(rng, dense[_slices(box)].reshape(-1), min(1.0, h / fb))
        out.append(RawQuery(attr_lo=lo, attr_hi=hi, dims=_dims(box)))
    if not extras:
        return out
    # over the whole array, where a range costs far more at some quantiles
    # than at others: near the middle, so every seed asks alike
    for h in (hit_lo * 10, hit_hi / 2):
        lo, hi = _attr_range(rng, dense.reshape(-1), h, jitter=0.2)
        out.append(RawQuery(attr_lo=lo, attr_hi=hi))
        out.append(RawQuery(dims=_dims(_box(rng, shape, h))))
    # boxes made of whole level-1 subtrees: answered from complete regions
    per_dim = Fanout.from_total(spec.fanout, len(shape)).per_dim
    span = [c * per_dim for c in spec.chunk]
    for k in (1, 2):
        box = []
        for e, s in zip(shape, span):
            blocks = max(1, e // s)
            n = min(k, blocks)
            b0 = int(rng.integers(0, blocks - n + 1))
            box.append((b0 * s, min(e, (b0 + n) * s) - 1))
        out.append(RawQuery(dims=_dims(box)))
    return out


def member_queries(spec: Spec, rng, n: int) -> list:
    """Value sets of 1-16 levels: one consecutive stretch plus up to four
    isolated levels.  Where the stretch starts and the isolated levels lie
    is stratified over the level range, so every seed asks for a similar
    mix of common and rare levels.  Every other set carries a dimension box
    of 5-50% of the array."""
    out = []
    for i in range(n):
        k = 1 + i % 16
        n_iso = min(k, 1 + k // 5)
        stretch = k - n_iso
        vals = set()
        if stretch:
            s0 = int((i + rng.uniform(0.25, 0.75)) / n * (_LEVELS - stretch + 1))
            vals.update(range(s0, s0 + stretch))
        for j in range(n_iso):
            vals.add(int((j + rng.uniform(0.25, 0.75)) / n_iso * _LEVELS))
        raw = RawQuery(values=tuple(sorted(vals)))
        if i % 2:
            raw.dims = _dims(_box(rng, spec.shape, 0.05 + 0.45 * (i // 2 % 8) / 7))
        out.append(raw)
    return out


def dimset_queries(spec: Spec) -> list:
    """Dimension value-set queries; fixed, they do not depend on the seed.

    Each set covers a small share of the array while a far larger share of
    cells is non-empty and matches the rest of the query, so an engine that
    ignores the dimension sets always answers wrongly.
    """
    e0, e1, e2 = spec.shape[:3]
    half = tuple(range(0, _LEVELS // 2))
    return [
        RawQuery(dim_values={"d0": {3, e0 // 3, e0 // 3 + 1, e0 - 2}}),
        RawQuery(values=half, dim_values={"d1": set(range(e1 // 8, e1 // 8 + 10)) | {e1 // 2}}),
        RawQuery(dim_values={"d0": {0, e0 - 1}, "d2": {5, 6, 7}}),
        RawQuery(dims={"d0": (0, e0 // 2 - 1)}, dim_values={"d2": {e2 - 28}}),
    ]


def make_round(spec: Spec, dense: np.ndarray, seed: int, depth: int) -> list:
    """The fixed list of operations repeated by every round of a run.

    Each main query is followed by `estimate` calls at every level budget
    below full depth.
    """
    rng = np.random.default_rng([seed, 7])
    if spec.name == "range-2d":
        mains = range_queries(spec, dense, rng, 28, 1e-3, 0.5, 0.5, extras=True)
    elif spec.name == "member-3d":
        mains = member_queries(spec, rng, 16)
    else:
        mains = range_queries(spec, dense, rng, 48, 1e-4, 1e-2, 0.75, extras=False)
    ops = []
    for qid, raw in enumerate(mains):
        ops.append(Op(spec.main_kind, raw, qid))
        for b in range(depth):
            ops.append(Op("estimate", raw, qid, budget=b))
    if spec.name == "member-3d":
        for j, raw in enumerate(dimset_queries(spec)):
            ops.append(Op("dimset", raw, len(mains) + j))
    return ops


def hit_share_spread(ops, expected: dict, nonempty: int) -> tuple:
    """(min, max) share of non-empty cells hit by the main queries."""
    shares = [expected[op.qid].size / nonempty for op in ops if op.kind in ("range", "member")]
    return min(shares), max(shares)

