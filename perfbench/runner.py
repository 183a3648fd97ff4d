"""One benchmark run: set up, run rounds of operations, check, report.

The loop is closed with one caller: each operation starts when the
previous one has returned.  Answers are checked after each operation,
outside its timed region.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from arraybit import baseline, chunkstore, hierindex
from arraybit.query import estimate, execute, membership
from arraybit.query import normalize as _normalize  # bound before tracing: no span

import checks
import hostspeed
import tracing
import workloads

CYCLES = 3  # set-up-and-round cycles per untraced run, at the least
LOADS = 5  # loads of each saved index, the first by the set-up, the
# others half before and half after the round; load_s is their median
FULL_CHECKS = 8  # main queries whose estimate is also checked at full depth
BASELINE_QUERIES = 8  # main queries, spread over the round, timed on the baselines
FAULTY_KINDS = ("dimset",)  # query.normalize drops RawQuery.dim_values

END_TO_END = {
    "setup_s": "s", "build_s": "s", "append_s": "s", "load_s": "s",
    "index_bytes": "bytes", "query_ms": "ms", "estimate_ms": "ms",
}

# per-layer metric -> span whose self time it sums over the traced set-up
SETUP_LAYERS = {
    "datagen.generate_s": "datagen.field_values",
    "chunkstore.from_dense_s": "chunkstore.from_dense",
    "chunkstore.build_leaf_index_s": "chunkstore.build_leaf_index",
    "binning.equi_depth_exact_s": "binning.equi_depth_exact",
    "bitvec.build_encode_s": "bitvec.from_dense",
    "binning.merge_bins_iterative_s": "binning.merge_bins_iterative",
    "hierindex.build_internal_node_s": "hierindex.build_internal_node",
    "hierindex.serialize_s": "hierindex.serialize",
    "hierindex.load_s": "hierindex.load",
}
# per-layer metric -> span whose self time per main-kind query it takes the median of
QUERY_LAYERS = {
    "chunkstore.leaf_query_ms": "chunkstore.leaf_query",
    "bitvec.query_decode_ms": "bitvec.to_dense",
    "bitvec.query_encode_ms": "bitvec.from_dense",
    "query.eval_node_ms": "query.eval_node",
    "query.cell_ids_ms": "query.cell_ids",
    "query.normalize_ms": "query.normalize",
}
PER_LAYER = dict(
    {k: "s" for k in SETUP_LAYERS},
    **{k: "ms" for k in QUERY_LAYERS},
    **{
        "bitvec.words_decoded": "count",
        "chunkstore.bitmap_fetches": "count",
        "chunkstore.candidate_bitmap_fetches": "count",
        "chunkstore.candidate_checks": "count",
        "query.nodes_evaluated": "count",
        "hierindex.nodes_fetched": "count",
        "query.leaves_resolved": "count",
        "query.leaf_yield_ratio": "ratio",
        "query.complete_regions": "count",
        "baseline.full_scan_ms": "ms",
        "baseline.dimsatts_query_ms": "ms",
        "baseline.dimsatts_build_s": "s",
        "baseline.dimsatts_bytes": "bytes",
    },
)


clock = time.perf_counter


@contextlib.contextmanager
def frozen_heap():
    """Collect, then hide every object alive now from the cyclic collector
    until the block ends.  Its passes inside the block then scan what the
    package allocates there, not the benchmark's answers, arrays and spans,
    whose number differs from one point of a run to the next."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def set_up(spec, seed: int, path: Path, host: hostspeed.Host) -> dict:
    """Generate, chunk, build over the first slab, append the others, save
    and load: everything a user pays before the first query.  `parts`
    holds a list of (seconds, start, end) per part, one per call, for
    `scaled_times`."""
    parts = defaultdict(list)

    def part(name, fn):
        t0 = clock()
        out = fn()
        t1 = clock()
        host.mark()
        parts[name].append((t1 - t0, t0, t1))
        return out

    host.mark()
    dense = part("generate_s", lambda: workloads.make_dense(spec, seed))
    store = part("chunk_s", lambda: chunkstore.ChunkStore.from_dense(
        workloads.schema_of(spec), {"a": dense}))
    first, *rest = workloads.slab_stores(spec, store)
    built = part("build_s", lambda: hierindex.build_index(
        first, fanout=spec.fanout, bins=spec.bins, leaf_encoding=spec.encoding))
    for slab in rest:
        part("append_s", lambda: built.append(slab))
    part("save_s", lambda: built.save(path))
    idx = part("load_s", lambda: hierindex.Index.load(path, store=store))
    return {
        "dense": dense, "store": store, "appended": built, "index": idx,
        "parts": parts, "index_bytes": path.stat().st_size,
    }


def scaled_times(parts: dict, host: hostspeed.Host) -> dict:
    """Each part of a set-up, and their sum as setup_s, scaled to the
    reference host speed."""
    out = {name: sum(sec * host.scale(t0, t1) for sec, t0, t1 in calls)
           for name, calls in parts.items()}
    out["setup_s"] = sum(out.values())
    return out


def check_tree(spec, setup: dict) -> str | None:
    """The appended tree against a full build over the same chunks."""
    appended = setup.pop("appended")
    if not spec.check_append:
        return None
    full = hierindex.build_index(setup["store"], fanout=spec.fanout, bins=spec.bins,
                                 leaf_encoding=spec.encoding)
    return checks.tree_difference(appended, full)


class Run:
    """The index, the round of operations, the expected answers, and what
    has been timed and counted so far."""

    def __init__(self, spec, seed: int, setup: dict, host: hostspeed.Host, tracer=None):
        self.spec = spec
        self.host = host
        self.use(setup)
        self.dense = setup["dense"]
        self.nonempty = workloads.nonempty_of(spec, self.dense)
        self.depth = self.idx.depth
        self.ops = workloads.make_round(spec, self.dense, seed, self.depth)
        self.tracer = tracer
        self.stats = chunkstore.QueryStats() if tracer is not None else None
        self.first_stats = None
        self.expected: dict = {}
        self.full_bounds: dict = {}
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        # kind, or estimate@budget -> query id -> (ms, start, end) of the
        # query's group in each round
        self.samples = defaultdict(lambda: defaultdict(list))
        self.correct = True
        self.errors: list = []
        self.seq = 0  # operations run so far; the query id of their spans
        self.main_seqs: list = []  # seq of every timed main-kind operation
        self.first_round = None  # range of the first round's seqs
        self.complete_regions = 0  # over the first round
        self.rounds = 0  # rounds completed

    def use(self, setup: dict) -> None:
        """Query the index and store of `setup`, a set-up of the same data."""
        self.idx = setup["index"]
        self.store = setup["store"]

    def prepare(self) -> None:
        """Expected ids of every query, and full-depth estimates of the
        first FULL_CHECKS main queries (a full-depth estimate costs as much
        as the query); before any timing."""
        if self.tracer is not None:
            self.tracer.qid = tracing.CHECK
        for op in self.ops:
            if op.qid not in self.expected:
                self.expected[op.qid] = checks.expected_ids(self.dense, self.nonempty, op.raw)
            if op.kind == "estimate" and op.qid < FULL_CHECKS and op.qid not in self.full_bounds:
                self.full_bounds[op.qid] = estimate(self.idx, op.raw, self.depth)

    def _run_op(self, op, bounds: list):
        """Time one operation, then check it; `bounds` collects the
        estimates of the current main query at the budgets run so far.
        Returns (key, ms) to keep, or None."""
        tr = self.tracer
        if tr is not None:
            tr.qid = self.seq
        self.attempted[op.kind] += 1
        try:
            if op.kind == "estimate":
                t0 = clock()
                bound = estimate(self.idx, op.raw, op.budget, self.stats)
                ms = (clock() - t0) * 1e3
                bounds.append(bound)
                ok = checks.estimates_ok(bounds, self.expected[op.qid].size,
                                         self.full_bounds.get(op.qid))
                key = f"estimate@{op.budget}"
            else:
                fn = membership if op.kind == "member" else execute
                t0 = clock()
                rs = fn(self.idx, op.raw, self.stats)
                ids = rs.cell_ids(self.store)
                ms = (clock() - t0) * 1e3
                bounds.clear()
                ok = checks.ids_match(ids, self.expected[op.qid])
                key = op.kind
                if self.first_round is None:
                    self.complete_regions += len(rs.complete)
        except Exception:  # counted as a failed operation, traceback kept
            ok = False
            self.errors.append(traceback.format_exc())
        if not ok:
            self.failed[op.kind] += 1
            if op.kind not in FAULTY_KINDS:
                self.correct = False
                self.errors.append(f"wrong answer: {op.kind} query {op.qid} budget {op.budget}")
        self.seq += 1
        if ok and op.kind not in FAULTY_KINDS:
            if op.kind == self.spec.main_kind:
                self.main_seqs.append(self.seq - 1)
            return key, ms
        return None

    def run_round(self) -> None:
        """Every operation of the round once, in order, with a host-speed
        probe before each query and its estimates, and after them."""
        self.prepare()
        start = self.seq
        bounds: list = []
        group: list = []
        ops = self.ops
        with frozen_heap():
            self.host.mark()
            t0 = clock()
            for i, op in enumerate(ops):
                kept = self._run_op(op, bounds)
                if kept is not None:
                    group.append((op.qid, kept))
                if i + 1 == len(ops) or ops[i + 1].kind != "estimate":
                    t1 = clock()
                    self.host.mark()
                    for qid, (key, ms) in group:
                        self.samples[key][qid].append((ms, t0, t1))
                    group.clear()
                    t0 = clock()
        self.rounds += 1
        if self.first_round is None:
            self.first_round = range(start, self.seq)
            self.first_stats = copy.copy(self.stats)

    def scaled_ms(self, key: str) -> dict:
        """Query id -> its times over the rounds, scaled to the reference
        host speed."""
        return {qid: [ms * self.host.scale(t0, t1) for ms, t0, t1 in runs]
                for qid, runs in self.samples[key].items()}

    def query_ms(self, key: str) -> float:
        """Mean over the round's queries of each one's median time over the
        rounds run.  The round's queries differ in cost a hundredfold; a
        median over them would follow whichever query the seed puts in the
        middle, where the mean weighs every query of the mix alike."""
        return float(np.mean([np.median(ms) for ms in self.scaled_ms(key).values()]))

    def latency(self) -> dict:
        return {"query_ms": self.query_ms(self.spec.main_kind),
                "estimate_ms": self.query_ms(f"estimate@{self.depth - 1}")}


def load_again(path: Path, store, n: int, host: hostspeed.Host, loads: list) -> None:
    """Load the saved index `n` more times; each (seconds, start, end)
    goes to `loads`."""
    for _ in range(n):
        t0 = clock()
        hierindex.Index.load(path, store=store)
        t1 = clock()
        host.mark()
        loads.append((t1 - t0, t0, t1))


def run_untraced(spec, seed: int, seconds: float, path: Path) -> dict:
    """Cycles of one whole set-up, LOADS - 1 more loads and one whole round,
    until the cycles have taken `seconds` and at least CYCLES have run, so
    that every kind of measurement spreads over the whole run.  The checks
    of the appended tree and the expected answers come after the first
    set-up and are not counted in `seconds`.  Every time is scaled to the
    reference host speed (`hostspeed`)."""
    host = hostspeed.Host()
    cycles = []
    rounds_s = []
    loads = []
    run = problem = None
    spent = 0.0
    while spent < seconds or len(cycles) < CYCLES:
        t0 = clock()
        with frozen_heap():
            setup = set_up(spec, seed, path, host)
            loads += setup["parts"]["load_s"]
            load_again(path, setup["store"], (LOADS - 1) // 2, host, loads)
        cycles.append(setup["parts"])
        index_bytes = setup["index_bytes"]
        spent += clock() - t0
        if run is None:
            problem = check_tree(spec, setup)
            run = Run(spec, seed, setup, host)
            run.prepare()
        else:
            run.use(setup)
        del setup
        t0 = clock()
        run.run_round()
        rounds_s.append(clock() - t0)
        with frozen_heap():
            load_again(path, run.store, LOADS - 1 - (LOADS - 1) // 2, host, loads)
        spent += clock() - t0
    scaled = [scaled_times(c, host) for c in cycles]
    metrics = {k: float(np.median([c[k] for c in scaled]))
               for k in ("setup_s", "build_s", "append_s")}
    metrics["load_s"] = float(np.median([sec * host.scale(t1, t2) for sec, t1, t2 in loads]))
    metrics["index_bytes"] = float(index_bytes)
    metrics.update(run.latency())
    return {"run": run, "metrics": metrics, "tree_problem": problem,
            "cycles": [{"timed": dict({k: sum(x[0] for x in v) for k, v in c.items()},
                                      round_s=r),
                        "scaled": sc} for c, sc, r in zip(cycles, scaled, rounds_s)],
            "probe_ms": 1e3 * np.percentile(host.probes, [5, 50, 95])}


def run_traced(spec, seed: int, seconds: float, path: Path, trace_path: Path) -> dict:
    """Per-layer numbers from a traced set-up and traced rounds, after one
    untraced set-up and round that the tracing overhead is taken against.
    Times here are as timed, without the host-speed probe."""
    host = hostspeed.Host(enabled=False)
    with frozen_heap():
        setup = set_up(spec, seed, path, host)
    untraced = scaled_times(setup["parts"], host)
    ref = Run(spec, seed, setup, host)
    del setup
    ref.run_round()
    untraced.update(ref.latency())
    del ref

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.qid = tracing.SETUP
        with frozen_heap():
            setup = set_up(spec, seed, path, host)
        traced = scaled_times(setup["parts"], host)
        tracer.qid = tracing.CHECK
        problem = check_tree(spec, setup)
        run = Run(spec, seed, setup, host, tracer)
        del setup
        run.prepare()
        start = clock()
        while not run.rounds or clock() - start < seconds:
            run.run_round()
        traced.update(run.latency())
        tracer.qid = tracing.BASELINE
        dimsatts_bytes = _run_baselines(run, tracer)
    finally:
        tracer.uninstall()
    table = tracer.table()
    table.save(trace_path)
    metrics = _layer_metrics(run, table)
    metrics["baseline.dimsatts_bytes"] = float(dimsatts_bytes)
    overhead = {k: traced[k] - untraced[k] for k in
                ("setup_s", "build_s", "append_s", "load_s", "query_ms", "estimate_ms")}
    return {"run": run, "metrics": metrics, "tree_problem": problem, "overhead": overhead}


def _run_baselines(run: Run, tracer) -> int:
    """Full scan and the dims-as-attributes index on BASELINE_QUERIES of the
    round's main queries, spread over the round (a dims-as-attributes query
    takes over a second on ingest-4d), checked like the tree's answers;
    returns the baseline's size."""
    spec = run.spec
    with tracer.span("baseline.dimsatts_build"):
        dims = baseline.DimsAttsIndex(run.store, "a", bins=spec.bins, encoding=spec.encoding)
    root = run.idx.root
    mains = [op for op in run.ops if op.kind == spec.main_kind]
    for op in mains[::-(-len(mains) // BASELINE_QUERIES)]:
        q = _normalize(op.raw, run.store.schema, (root.amin, root.amax))
        want = run.expected[op.qid]
        got = baseline.full_scan(run.store, "a", q)
        with tracer.span("baseline.dimsatts_query"):
            got2 = dims.query(q)
        for engine, ids in (("full_scan", got), ("dimsatts", got2)):
            if not checks.ids_match(ids, want):
                run.correct = False
                run.errors.append(f"wrong answer: {engine} on {op.kind} query {op.qid}")
    return dims.size_bytes()


def _layer_metrics(run: Run, table) -> dict:
    m = {}
    for metric, span in SETUP_LAYERS.items():
        m[metric] = table.self_s(span, tracing.SETUP)
    for metric, span in QUERY_LAYERS.items():
        m[metric] = float(np.median(table.per_query_ms(span, run.main_seqs)))
    first = list(run.first_round)
    stats = run.first_stats
    leaves = table.count("chunkstore.leaf_query", first)
    m.update({
        "bitvec.words_decoded": table.work_sum("bitvec.to_dense", first),
        "chunkstore.bitmap_fetches": stats.bitmap_fetches,
        "chunkstore.candidate_bitmap_fetches": stats.candidate_bitmap_fetches,
        "chunkstore.candidate_checks": stats.candidate_checks,
        "query.nodes_evaluated": table.count("query.eval_node", first),
        "hierindex.nodes_fetched": table.count("hierindex.fetch", first),
        "query.leaves_resolved": leaves,
        "query.leaf_yield_ratio": table.work_sum("chunkstore.leaf_query", first) / max(leaves, 1),
        "query.complete_regions": run.complete_regions,
        "baseline.full_scan_ms": float(np.median(table.durations_ms("baseline.full_scan"))),
        "baseline.dimsatts_query_ms": float(np.median(table.durations_ms("baseline.dimsatts_query"))),
        "baseline.dimsatts_build_s": float(table.durations_ms("baseline.dimsatts_build")[0]) / 1e3,
    })
    return {k: float(v) for k, v in m.items()}
