"""Self-test of the benchmark, small and fast.

    python3 perfbench/selftest.py

Runs every workload at a quarter of its extents (three cycles untraced,
one round traced) and requires every check to pass, with only the
dimension value-set queries failing.  Then confirms that the checks catch
an answer with one id dropped or added, an estimate whose bound misses the
exact count and a tree missing one chunk, and that BENCHMARK.json names
exactly the metrics the runs print.
"""

import json
import sys

import run as entry

if not entry.add_paths():
    sys.exit(2)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402

FACTOR = 4


def _fail(msg: str) -> None:
    print(f"selftest: FAIL {msg}")
    sys.exit(1)


def check_workload(name: str) -> None:
    spec = workloads.scaled(workloads.SPECS[name], FACTOR)
    entry.OUT.mkdir(exist_ok=True)
    path = entry.OUT / f"selftest-{name}.abix"
    try:
        res = runner.run_untraced(spec, 1, 0.0, path)
        traced = runner.run_traced(spec, 1, 0.0, path, entry.OUT / f"selftest-trace-{name}.npz")
    finally:
        path.unlink(missing_ok=True)
    for mode, r in (("untraced", res), ("traced", traced)):
        run = r["run"]
        if r["tree_problem"]:
            _fail(f"{name} {mode}: appended tree differs from a full build: {r['tree_problem']}")
        if not run.correct:
            _fail(f"{name} {mode}: {run.errors[:2]}")
        for kind, n in run.attempted.items():
            want = n if kind in runner.FAULTY_KINDS else 0
            if run.failed[kind] != want:
                _fail(f"{name} {mode}: {run.failed[kind]} of {n} {kind} operations failed")
    for metric, value in list(res["metrics"].items()) + list(traced["metrics"].items()):
        if not np.isfinite(value):
            _fail(f"{name}: metric {metric} is {value}")
    run = res["run"]
    print(f"selftest: {name} {spec.shape} ok, ops {dict(run.attempted)}")
    return run


def check_checks(run) -> None:
    """The answer checks must reject an off-by-one answer."""
    op = next(op for op in run.ops if op.kind == run.spec.main_kind
              and run.expected[op.qid].size > 1)
    fn = runner.membership if op.kind == "member" else runner.execute
    ids = fn(run.idx, op.raw).cell_ids(run.store)
    want = run.expected[op.qid]
    if not checks.ids_match(ids, want):
        _fail("a correct answer was rejected")
    if checks.ids_match(np.delete(ids, ids.size // 2), want):
        _fail("an answer with one id dropped passed")
    missing = np.setdiff1d(np.arange(want[-1] + 2), want)[0]
    if checks.ids_match(np.sort(np.append(ids, missing)), want):
        _fail("an answer with one id added passed")
    exact = int(want.size)
    bounds = [runner.estimate(run.idx, op.raw, b) for b in range(run.depth)]
    full = runner.estimate(run.idx, op.raw, run.depth)
    if not checks.estimates_ok(bounds, exact, full):
        _fail("correct estimates were rejected")
    lo, hi = bounds[-1]
    for bad in ([(lo, exact - 1)], [(exact + 1, max(hi, exact + 1))]):
        for f in (full, None):
            if checks.estimates_ok(bounds[:-1] + bad, exact, f):
                _fail(f"an estimate {bad[0]} outside the exact count {exact} passed")
    if checks.estimates_ok(bounds, exact, (exact, exact + 1)):
        _fail("a full-depth estimate that is not exact passed")
    print("selftest: checks reject one id dropped, one id added and bounds off the exact count")


def check_tree_check() -> None:
    """The tree comparison must see a chunk missing from one tree."""
    spec = workloads.scaled(workloads.SPECS["ingest-4d"], FACTOR)
    store = runner.chunkstore.ChunkStore.from_dense(
        workloads.schema_of(spec), {"a": workloads.make_dense(spec, 1)})
    params = dict(fanout=spec.fanout, bins=spec.bins, leaf_encoding=spec.encoding)
    full = runner.hierindex.build_index(store, **params)
    if checks.tree_difference(full, runner.hierindex.build_index(store, **params)) is not None:
        _fail("two full builds of one store differ")
    chunks = dict(store.chunks)
    chunks.pop(max(chunks))
    fewer = runner.hierindex.build_index(
        runner.chunkstore.ChunkStore(store.schema, chunks), **params)
    if checks.tree_difference(fewer, full) is None:
        _fail("a tree missing one chunk passed the tree comparison")
    print("selftest: the tree comparison rejects a tree missing one chunk")


def check_manifest() -> None:
    with open(entry.ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    for key, table in (("end_to_end", runner.END_TO_END), ("per_layer", runner.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != table:
            _fail(f"BENCHMARK.json {key} {listed} != printed metrics {table}")
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(workloads.SPECS):
        _fail(f"BENCHMARK.json workloads {names} != {list(workloads.SPECS)}")
    print("selftest: BENCHMARK.json lists the printed metrics and workloads")


def main() -> int:
    check_manifest()
    runs = [check_workload(name) for name in workloads.SPECS]
    check_checks(runs[0])
    check_checks(runs[1])
    check_tree_check()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
