"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The randomized-workload criteria share one session fixture that builds six
seeded arrays (2D/3D/4D, dense and sparse), indexes them with both engines
and runs the full query workload once, collecting per-query evidence.
"""

import time

import numpy as np
import pytest

from arraybit.baseline import DimsAttsIndex, dimension_column, full_scan
from arraybit.binning import Binning, merge_bins_iterative, wsse
from arraybit.bitvec import BitVector, logical
from arraybit.chunkstore import ArraySchema, ChunkStore, QueryStats
from arraybit.datagen import SumGaussSpec, generate_dense
from arraybit.hierindex import build_index
from arraybit.query import (
    RawQuery,
    ResultSet,
    attribute_runs,
    estimate,
    eval_node,
    execute,
    normalize,
)
from testutil import random_raw_query

RNG_SEED = 20240
MIXED_PER_ARRAY = 36
MEMBER_PER_ARRAY = 9


def _report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")


ARRAYS = [
    # key, shape, chunk, gen kwargs, build kwargs
    ("2d-dense", (1024, 1024), (32, 32),
     dict(gaussians=8, seed=11, threshold=0.0, cov_min=(1024 / 16) ** 2, cov_max=(1024 / 5) ** 2),
     dict(fanout=64)),
    ("2d-sparse", (1000, 1024), (32, 32),
     dict(gaussians=16, seed=12, threshold=1e-4),
     dict(fanout=64)),
    ("3d-dense", (128, 128, 128), (16, 16, 16),
     dict(gaussians=6, seed=13, threshold=0.0, cov_min=(128 / 8) ** 2, cov_max=(128 / 4) ** 2),
     dict(fanout=64)),
    ("3d-sparse", (128, 128, 128), (16, 16, 16),
     dict(gaussians=10, seed=14, threshold=1e-5),
     dict(fanout=64)),
    ("4d-dense", (32, 32, 32, 32), (4, 4, 4, 4),
     dict(gaussians=5, seed=15, threshold=0.0, cov_min=(32 / 8) ** 2, cov_max=(32 / 4) ** 2),
     dict(fanout=256)),
    ("4d-sparse", (32, 32, 32, 32), (4, 4, 4, 4),
     dict(gaussians=8, seed=16, threshold=3e-6),
     dict(fanout=256)),
]


def _sorted_subset(sub: np.ndarray, ids: np.ndarray) -> bool:
    if sub.size == 0:
        return True
    pos = np.searchsorted(ids, sub)
    return bool((pos < ids.size).all() and (ids[pos] == sub).all())


@pytest.fixture(scope="session")
def workload():
    """Build all arrays, run the full randomized workload, keep evidence."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    records = []
    array_stats = []
    for key, shape, chunk, genkw, buildkw in ARRAYS:
        spec = SumGaussSpec(shape=shape, **genkw)
        vals = generate_dense(spec)
        schema = ArraySchema(
            tuple((f"d{i}", e) for i, e in enumerate(shape)),
            (("a", "float64"),),
            chunk,
        )
        store = ChunkStore.from_dense(schema, {"a": vals})
        del vals
        idx = build_index(store, bins=16, **buildkw)
        dims = DimsAttsIndex(store, "a", bins=32, encoding="range")
        root = idx.root
        assert root is not None, key
        array_stats.append((key, store.nonempty_total(), len(store.chunks), idx.depth))

        live = np.concatenate([c.values["a"][c.nonempty] for c in store.iter_chunks()])
        queries = []
        for _ in range(MIXED_PER_ARRAY):
            queries.append(random_raw_query(rng, schema, root.amin, root.amax))
        for _ in range(MEMBER_PER_ARRAY):
            raw = random_raw_query(rng, schema, root.amin, root.amax, kind="membership")
            picks = rng.choice(live, size=int(rng.integers(1, 5)))
            raw.values = tuple(float(v) for v in picks) + (float(root.amax) + 1.0,)
            queries.append(raw)

        for raw in queries:
            q = normalize(raw, schema, (root.amin, root.amax))
            trace = []
            stats = QueryStats()
            rs = execute(idx, q, stats, trace)
            got = rs.cell_ids(store)
            want = full_scan(store, "a", q)
            dims_got = dims.query(q)
            only_complete = ResultSet(schema)
            only_complete.complete = rs.complete
            complete_ids = only_complete.cell_ids(store)
            est = [estimate(idx, q, b) for b in range(idx.depth + 1)]
            records.append(
                dict(
                    array=key,
                    membership=q.values is not None,
                    exact=int(want.size),
                    tree_ok=bool(np.array_equal(got, want)),
                    dims_ok=bool(np.array_equal(dims_got, want)),
                    complete_sound=_sorted_subset(complete_ids, want),
                    n_complete=len(rs.complete),
                    trace=trace,
                    estimates=est,
                    depth=idx.depth,
                )
            )
        del dims
    elapsed = time.perf_counter() - t0
    return dict(records=records, elapsed=elapsed, arrays=array_stats)


def test_oracle_exactness(workload):
    recs = workload["records"]
    mixed = [r for r in recs if not r["membership"]]
    member = [r for r in recs if r["membership"]]
    assert len(mixed) >= 200
    assert len(member) >= 50
    tree_bad = [i for i, r in enumerate(recs) if not r["tree_ok"]]
    dims_bad = [i for i, r in enumerate(recs) if not r["dims_ok"]]
    ok = not tree_bad and not dims_bad and workload["elapsed"] < 600
    _report(
        "oracle-exactness", ok,
        f"({len(mixed)} mixed + {len(member)} membership queries over "
        f"{len(workload['arrays'])} arrays, {len(tree_bad)} tree and "
        f"{len(dims_bad)} dimsatts mismatches, {workload['elapsed']:.0f}s)",
    )
    assert not tree_bad, f"tree/full-scan mismatches at {tree_bad[:5]}"
    assert not dims_bad, f"dimsatts/full-scan mismatches at {dims_bad[:5]}"
    assert workload["elapsed"] < 600, f"workload took {workload['elapsed']:.0f}s"


def test_complete_node_soundness(workload):
    recs = workload["records"]
    bad = [i for i, r in enumerate(recs) if not r["complete_sound"]]
    emitted = sum(r["n_complete"] for r in recs)
    _report("complete-node-soundness", not bad, f"({emitted} complete nodes, all satisfying)")
    assert not bad, f"unsound complete nodes in queries {bad[:5]}"


def test_single_traversal(workload):
    recs = workload["records"]
    bad = 0
    for r in recs:
        t = r["trace"]
        if any(not b > a for a, b in zip(t, t[1:])):
            bad += 1
    fetches = sum(len(r["trace"]) for r in recs)
    _report("single-traversal", bad == 0, f"({fetches} fetches in strict (level, z) order)")
    assert bad == 0


def test_estimate_sandwich(workload):
    recs = workload["records"]
    for i, r in enumerate(recs):
        exact = r["exact"]
        prev_lo, prev_hi = -1, None
        for lo, hi in r["estimates"]:
            assert lo <= exact <= hi, f"query {i}: ({lo}, {hi}) vs exact {exact}"
            assert lo >= prev_lo, f"query {i}: min not monotone"
            if prev_hi is not None:
                assert hi <= prev_hi, f"query {i}: max not monotone"
            prev_lo, prev_hi = lo, hi
        assert prev_lo == exact == prev_hi, f"query {i}: bounds did not meet"
    _report("estimate-sandwich", True,
            f"({sum(len(r['estimates']) for r in recs)} estimates)")


def _run_bits(rng, n, style):
    if style == 0:
        return rng.random(n) < rng.random()
    if style == 1:
        return rng.random(n) < 0.002
    if style == 2:
        out = np.zeros(n, bool)
        pos, val = 0, bool(rng.integers(0, 2))
        while pos < n:
            run = int(rng.integers(1, max(2, n // 3)))
            out[pos : pos + run] = val
            pos += run
            val = not val
        return out
    return np.ones(n, bool) if rng.integers(0, 2) else np.zeros(n, bool)


def test_compression_correctness():
    rng = np.random.default_rng(RNG_SEED + 1)
    pairs = 10_000
    checked_ops = 0
    for i in range(pairs):
        u = rng.random()
        if u < 0.62:
            n = int(rng.integers(1, 4097))
        elif u < 0.90:
            n = int(rng.integers(4097, 65537))
        elif u < 0.99:
            n = int(rng.integers(65537, 262145))
        else:
            n = int(rng.integers(262145, 10**6 + 1))
        a = _run_bits(rng, n, int(rng.integers(0, 4)))
        b = _run_bits(rng, n, int(rng.integers(0, 4)))
        va, vb = BitVector.from_dense(a), BitVector.from_dense(b)
        assert logical("and", va, vb) == BitVector.from_dense(a & b)
        assert logical("or", va, vb) == BitVector.from_dense(a | b)
        assert va.andnot(vb) == BitVector.from_dense(a & ~b)
        assert vb.andnot(va) == BitVector.from_dense(b & ~a)
        checked_ops += 4
        if i % 7 == 0:
            got, _ = BitVector.from_bytes(va.to_bytes())
            assert got == va and got.word_count == va.word_count
            got, _ = BitVector.from_bytes(vb.to_bytes())
            assert got == vb
    _report("compression-correctness", True,
            f"({pairs} vector pairs, {checked_ops} op checks, round-trips bit-exact)")


def test_algorithm1_quality():
    rng = np.random.default_rng(RNG_SEED + 2)
    runs = 1000
    for i in range(runs):
        nb1 = int(rng.integers(3, 81))
        bounds = np.unique(np.round(rng.random(nb1) * 1000, 3))
        while bounds.size < 3:
            bounds = np.unique(np.round(rng.random(nb1) * 1000, 3))
        style = i % 3
        k = bounds.size - 1
        if style == 0:
            weights = rng.random(k) * 100
        elif style == 1:
            weights = rng.random(k) ** 4 * 1000  # heavy skew
        else:
            weights = np.round(rng.random(k) * 10)
        src = Binning(bounds, weights)
        bins = int(rng.choice([4, 8, 16, 32])) if i % 5 else 16
        trace = []
        out = merge_bins_iterative(src, bins, trace=trace)
        assert out.nbins == min(bins, src.nbins), i
        assert np.isin(out.boundaries, src.boundaries).all(), i
        if src.nbins > bins:
            start = trace[0]
            final = wsse(out, src.weights.sum(), bins)
            assert final <= start + 1e-9, i
            assert all(b < a for a, b in zip(trace, trace[1:])), i
            assert len(trace) - 1 <= 10 * src.nbins, i
    _report("algorithm1-quality", True, f"({runs} randomized boundary/weight sets)")


# ---------------------------------------------------------------------------
# desk-scaled comparative benchmarks on one 128 MB array


@pytest.fixture(scope="session")
def bench128():
    shape = (4096, 4096)
    spec = SumGaussSpec(
        shape=shape, gaussians=10, seed=7, threshold=0.0,
        cov_min=(shape[0] / 16.0) ** 2, cov_max=(shape[0] / 6.0) ** 2,
    )
    vals = generate_dense(spec)
    schema = ArraySchema(
        (("d0", shape[0]), ("d1", shape[1])), (("a", "float64"),), (128, 128)
    )
    store = ChunkStore.from_dense(schema, {"a": vals})
    idx = build_index(store, fanout=64, bins=16)
    dims = DimsAttsIndex(store, "a", bins=32, encoding="range")

    box = vals[1024:3072, 1024:3072]
    qlo, qhi = np.quantile(box, [0.3, 0.7])
    q10 = normalize(
        RawQuery(attr_lo=float(qlo), attr_hi=float(qhi),
                 dims={"d0": (1024, 3071), "d1": (1024, 3071)}),
        schema,
    )
    mlo, mhi = np.quantile(vals, [0.25, 0.75])
    q50 = normalize(RawQuery(attr_lo=float(mlo), attr_hi=float(mhi)), schema)
    root = idx.root
    q100 = normalize(RawQuery(), schema, (root.amin, root.amax))

    def avg3(f):
        times = []
        result = None
        for _ in range(3):
            t = time.perf_counter()
            result = f()
            times.append(time.perf_counter() - t)
        return result, sum(times) / len(times)

    total = store.nonempty_total()
    rs10, t_tree10 = avg3(lambda: execute(idx, q10))
    ids10, t_dims10 = avg3(lambda: dims.query(q10))
    rs100, t_tree100 = avg3(lambda: execute(idx, q100))
    rs50, t_tree50 = avg3(lambda: execute(idx, q50))
    out = dict(
        total=total,
        hit10=rs10.count / total,
        agree10=rs10.count == ids10.size,
        t_tree10=t_tree10,
        t_dims10=t_dims10,
        size_tree=len(idx.serialize()),
        size_dims=dims.size_bytes(),
        hit50=rs50.count / total,
        hit100=rs100.count / total,
        t_tree50=t_tree50,
        t_tree100=t_tree100,
        idx=idx,
        schema=schema,
    )
    return out


def test_figure4_trend(bench128):
    b = bench128
    assert 0.05 <= b["hit10"] <= 0.15, f"query selectivity drifted: {b['hit10']:.3f}"
    assert b["agree10"], "engines disagree on the benchmark query"
    time_ratio = b["t_tree10"] / b["t_dims10"]
    size_ratio = b["size_tree"] / b["size_dims"]
    ok = time_ratio <= 0.5 and size_ratio <= 0.5
    _report(
        "figure4-trend", ok,
        f"(hit {b['hit10']:.2%}: tree {b['t_tree10'] * 1e3:.1f}ms vs dimsatts "
        f"{b['t_dims10'] * 1e3:.1f}ms, ratio {time_ratio:.2f}; "
        f"index {b['size_tree'] / 1e6:.1f}MB vs {b['size_dims'] / 1e6:.1f}MB, "
        f"ratio {size_ratio:.2f})",
    )
    assert time_ratio <= 0.5, f"time ratio {time_ratio:.3f} exceeds 0.5"
    assert size_ratio <= 0.5, f"size ratio {size_ratio:.3f} exceeds 0.5"


def test_figure5_shape(bench128):
    b = bench128
    assert b["hit100"] == pytest.approx(1.0)
    assert 0.4 <= b["hit50"] <= 0.6
    ok = b["t_tree100"] < b["t_tree50"]
    _report(
        "figure5-shape", ok,
        f"(100% hit {b['t_tree100'] * 1e3:.2f}ms < 50% hit {b['t_tree50'] * 1e3:.1f}ms)",
    )
    assert ok, (
        f"complete-match short circuit missing: 100% hit took "
        f"{b['t_tree100'] * 1e3:.2f}ms vs 50% hit {b['t_tree50'] * 1e3:.1f}ms"
    )


def test_dimension_pathology_compression():
    # the motivating claim: linearization hurts compressed bitmaps.  On a
    # 1024x1024 row-major array a fixed-column bitmap (d1 == 512) has its
    # 1024 set bits one row (1024 cells) apart, so a word-aligned run-length
    # code pays at least one word per row, while the fixed-row bitmap
    # (d0 == 512) with the same 1024 set bits is one contiguous run.
    r = 1024
    schema = ArraySchema((("d0", r), ("d1", r)), (("a", "float64"),), (r, r))
    col = BitVector.from_dense(dimension_column(schema, 1) == r // 2)
    row = BitVector.from_dense(dimension_column(schema, 0) == r // 2)
    assert col.count_ones() == row.count_ones() == r
    uncompressed_words = -(-(r * r) // 63)
    ratio = uncompressed_words / col.word_count
    asymmetry = col.word_count / row.word_count
    floor_ok = col.word_count >= r
    asym_ok = asymmetry >= r / 8
    _report(
        "dimension-pathology-compression", floor_ok and asym_ok,
        f"(column {col.word_count} words, floor {r}; row {row.word_count} words, "
        f"column/row {asymmetry:.0f}x >= {r // 8}; column ratio {ratio:.2f}x = "
        f"{uncompressed_words} / {col.word_count} words)",
    )
    assert floor_ok, (
        f"column bitmap compressed to {col.word_count} words, below one word per "
        f"row ({r}); see the dimension-pathology entry in CHANGES.md"
    )
    assert asym_ok, (
        f"column bitmap costs only {asymmetry:.1f}x the words of the row bitmap "
        f"({col.word_count} vs {row.word_count}), expected >= {r // 8}x; see the "
        f"dimension-pathology entry in CHANGES.md"
    )


def test_dimension_pathology_branch_touch(bench128):
    # the same single-column constraint through the tree touches at most
    # F_d child branches per node at every level
    idx = bench128["idx"]
    schema = bench128["schema"]
    fd = idx.fanout.per_dim
    q = normalize(RawQuery(dims={"d1": (700, 700)}), schema,
                  (idx.root.amin, idx.root.amax))
    touched_max = 0
    queue = [(idx.depth, 0)]
    while queue:
        level, z = queue.pop()
        node = idx.fetch(level, z)
        p_star, c_star = eval_node(node, q, idx, attribute_runs(idx, q))
        branches = bin(p_star | c_star).count("1")
        touched_max = max(touched_max, branches)
        assert branches <= fd, f"level {level} node {z} touched {branches} > {fd}"
        if level > 1:
            for slot in range(idx.fanout.total):
                if (p_star | c_star) >> slot & 1:
                    queue.append((level - 1, (z << idx.fanout.slot_bits) | slot))
    _report(
        "dimension-pathology-branch-touch", True,
        f"(max {touched_max} of {fd} branches per node)",
    )
