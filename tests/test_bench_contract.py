"""The benchmark under perfbench/ wraps package functions by name and
measures their results; these checks keep that contract in tier-1, so a
rename or a return-type change fails here rather than in a benchmark run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import arraybit
from arraybit import hierindex, query
from arraybit.baseline import DimsAttsIndex, full_scan
from arraybit.chunkstore import ChunkStore, QueryStats
from arraybit.query import RawQuery, execute
from testutil import random_index, random_store

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve_and_leaf_spans_record_a_hit_flag(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = {}
    for owner, attr, name, _ in tracing.TARGETS:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        originals[owner, attr] = vars(owner)[attr]

    store, idx = random_index(np.random.default_rng(2), (32, 32), (4, 4), 0.3, fanout=16)
    root = idx.root
    mid = (root.amin + root.amax) / 2
    raws = [
        RawQuery(attr_lo=root.amin, attr_hi=mid, dims={"d0": (3, 20)}),
        RawQuery(values=tuple(_live(store, (1, 1))[:2]) + (_live(store, (5, 2))[0],),
                 dims={"d1": (0, 25)}),
        RawQuery(attr_lo=mid, dim_values={"d0": {2, 3, 9, 17, 30}, "d1": {5, 6, 7, 20}}),
        RawQuery(attr_hi=root.amax + 1.0, dims={"d0": (4, 11)}),  # complete regions only
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        answers = []
        for qid, raw in enumerate(raws):
            tracer.qid = qid
            rs = execute(idx, raw)
            answers.append((rs, rs.cell_ids(store)))
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn

    table = tracer.table()
    assert all(rs.partial for rs, _ in answers[:3]) and answers[3][0].complete
    for qid, (raw, (rs, ids)) in enumerate(zip(raws, answers)):
        # one leaf span per block of the descent's partial leaves, its work
        # whether the batch hit: query.leaves_resolved and
        # query.leaf_yield_ratio count batches, not leaves
        q = query.normalize(raw, idx.schema, (root.amin, root.amax))
        leaves = query._descend(idx, q, query.attribute_runs(idx, q), idx.depth)[1]
        blocks = {id(store.chunks[coords].block) for coords in idx.leaf_coords(leaves)}
        leaf = table.select("chunkstore.leaf_query", [qid])
        assert leaf.sum() == len(blocks), qid
        assert set(table.work[leaf].tolist()) <= {0, 1}
        hit = {id(store.chunks[coords].block) for coords in rs.partial}
        assert table.work[leaf].sum() == len(hit), qid
        assert table.count("query.cell_ids", [qid]) == 1
        assert table.count("bitvec.from_dense", [qid]) == 0  # nothing encoded by a query
        assert ids.size == rs.count
        assert np.array_equal(ids, full_scan(store, "a", q))
    assert not table.select("chunkstore.leaf_query", [3]).any()


def _live(store, coords) -> list:
    chunk = store.chunks[coords]
    return chunk.values["a"][chunk.nonempty].tolist()


WRITE_LAYERS = (
    "chunkstore.build_leaf_index",
    "binning.equi_depth_exact",
    "binning.merge_bins_iterative",
    "hierindex.build_internal_node",
)


def test_build_and_append_record_a_span_in_every_write_layer(monkeypatch):
    # each name feeds a per-layer metric; a build path that went round the
    # traced function would read zero there, not fail
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    store = random_store(np.random.default_rng(4), (64, 32), (8, 8), 0.2)
    first = ChunkStore(store.schema.with_extents((32, 32)),
                       {c: ch for c, ch in store.chunks.items() if c[0] < 4})
    rest = ChunkStore(store.schema, {c: ch for c, ch in store.chunks.items() if c[0] >= 4})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        idx = hierindex.build_index(first, fanout=16, bins=4)
        built = tracer.table()
        idx.append(rest)
        appended = tracer.table()
    finally:
        tracer.uninstall()
    for name in WRITE_LAYERS:
        after_build = built.count(name, [tracing.SETUP])
        assert after_build > 0, name
        assert appended.count(name, [tracing.SETUP]) > after_build, name
    # a build grows an empty tree without going through the public append
    assert built.count("hierindex.append", [tracing.SETUP]) == 0
    assert appended.count("hierindex.append", [tracing.SETUP]) == 1
    # leaves hold no bitmaps: a tree build or append encodes none
    assert appended.count("bitvec.from_dense", [tracing.SETUP]) == 0


def test_appended_workload_trees_match_a_full_build(monkeypatch):
    # every workload scaled small, built with the set-up's own keywords
    # (leaf_encoding included); the comparison packs every leaf with
    # Index._pack_leaf(z, row, ndim)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    for name, spec in workloads.SPECS.items():
        spec = workloads.scaled(spec, 4)
        store = ChunkStore.from_dense(workloads.schema_of(spec),
                                      {"a": workloads.make_dense(spec, 3)})
        params = dict(fanout=spec.fanout, bins=spec.bins, leaf_encoding=spec.encoding)
        first, *rest = workloads.slab_stores(spec, store)
        assert rest, name
        appended = hierindex.build_index(first, **params)
        for slab in rest:
            appended.append(slab)
        full = hierindex.build_index(store, **params)
        assert checks.tree_difference(appended, full) is None, name
        # and the packed leaves tell one moved leaf minimum apart
        leaves = appended.tables[0]
        amin = leaves["amin"].copy()
        amin[0] -= 1.0
        leaves["amin"] = amin
        assert "leaf bytes differ" in checks.tree_difference(appended, full), name


def test_a_quarter_scale_round_of_every_workload_is_correct(monkeypatch, tmp_path):
    # the benchmark's own untraced round through the query API it calls:
    # every operation of every kind answers right, dimension sets included,
    # and the appended tree matches a full build
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    runner = importlib.import_module("runner")
    kinds = {}
    for name, spec in workloads.SPECS.items():
        res = runner.run_untraced(workloads.scaled(spec, 4), 1, 0.0, tmp_path / name)
        run = res["run"]
        assert run.correct and not run.errors, (name, run.errors[:2])
        assert res["tree_problem"] is None, name
        assert not any(run.failed.values()), (name, dict(run.failed))
        kinds[name] = {kind for kind, n in run.attempted.items() if n}
    assert kinds["member-3d"] == {"member", "estimate", "dimset"}, kinds


def test_names_the_runner_reads_outside_the_tracer():
    # perfbench/runner.py passes these keywords and reads these counters
    # and methods by name; a move of the bitmap code that drops one fails
    # here, not in a benchmark run
    store = random_store(np.random.default_rng(6), (32, 32), (8, 8), 0.2)
    idx = hierindex.build_index(store, fanout=16, bins=4, leaf_encoding="interval")
    root = idx.root
    q = query.normalize(RawQuery(attr_lo=root.amin, attr_hi=(root.amin + root.amax) / 2,
                                 dims={"d0": (3, 20)}),
                        store.schema, (root.amin, root.amax))
    for encoding in ("equality", "range", "interval"):
        dims = DimsAttsIndex(store, "a", bins=4, encoding=encoding)
        stats = QueryStats()
        assert np.array_equal(dims.query(q, stats), full_scan(store, "a", q)), encoding
        assert np.array_equal(dims.query(q), full_scan(store, "a", q)), encoding
        assert stats.bitmap_fetches > 0, encoding
        assert stats.candidate_bitmap_fetches >= 0 and stats.candidate_checks >= 0, encoding
        assert dims.size_bytes() > 0
    stats = QueryStats()
    execute(idx, q, stats)
    assert (stats.bitmap_fetches, stats.candidate_bitmap_fetches) == (0, 0)
    assert stats.candidate_checks > 0


def test_tree_modules_import_no_bitmap_codec():
    # only the baseline and bitvec itself know the bitmap encoding
    code = ("import sys\n"
            "import arraybit.chunkstore, arraybit.hierindex, arraybit.query\n"
            "print('arraybit.bitvec' in sys.modules)")
    src = str(Path(arraybit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
