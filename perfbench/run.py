"""Seeded end-to-end and per-layer benchmark of the arraybit index.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload range-2d --seed 1 --seconds 10 --trace 0

Runs one workload (range-2d, member-3d or ingest-4d) in this one process
with BLAS pinned to one thread.  Prints every metric by name with its
unit and the attempted and failed operations per kind; the last line of
standard output is one JSON object.  With --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("range-2d", "member-3d", "ingest-4d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def add_paths() -> bool:
    """Put the checkout's package source and this directory on sys.path."""
    if not (ROOT / "src" / "arraybit" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'arraybit'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not add_paths():
        return 2
    import numpy as np
    import runner
    import workloads

    spec = workloads.SPECS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    index_path = OUT / f"{stem}.abix"
    try:
        if args.trace:
            res = runner.run_traced(spec, args.seed, args.seconds, index_path,
                                    OUT / f"trace-{stem}.npz")
            units = runner.PER_LAYER
        else:
            res = runner.run_untraced(spec, args.seed, args.seconds, index_path)
            units = runner.END_TO_END
    finally:
        index_path.unlink(missing_ok=True)
    run = res["run"]
    correct = run.correct and res["tree_problem"] is None

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {run.rounds} depth {run.depth}")
    lo, hi = workloads.hit_share_spread(run.ops, run.expected, int(run.nonempty.sum()))
    print(f"main queries hit {lo:.4%} to {hi:.2%} of non-empty cells")
    for kind in run.attempted:
        print(f"ops {kind} attempted {run.attempted[kind]} failed {run.failed[kind]}")
    for key in sorted(run.samples):
        per_query = run.scaled_ms(key)
        vals = np.concatenate([np.asarray(ms) for ms in per_query.values()])
        timed = [ms for runs in run.samples[key].values() for ms, _, _ in runs]
        line = (f"latency {key} n {vals.size} queries {len(per_query)} mean "
                f"{run.query_ms(key):.4f} ms p50 {np.median(vals):.4f} ms")
        if vals.size >= 200:  # ten samples beyond the p95
            line += f" p95 {np.percentile(vals, 95):.4f} ms"
        print(line + f"; as timed p50 {np.median(timed):.4f} ms")
    for i, cycle in enumerate(res.get("cycles", ())):
        for kind, times in cycle.items():
            print(f"cycle {i} {kind} " + " ".join(f"{k} {v:.4f}" for k, v in times.items()))
    if "probe_ms" in res:
        print("host probe p5/p50/p95 {:.3f} {:.3f} {:.3f} ms".format(*res["probe_ms"]))
    if res["tree_problem"]:
        print(f"check appended tree: {res['tree_problem']}")
    for err in run.errors[:3]:
        print(f"error: {err.strip()}", file=sys.stderr)
    for name, diff in res.get("overhead", {}).items():
        print(f"tracing overhead {name} {diff:+.4f}")
    for name, unit in units.items():
        print(f"metric {name} {res['metrics'][name]:.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(sum(run.attempted.values())),
        "failed": int(sum(run.failed.values())),
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
