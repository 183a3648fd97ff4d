"""The benchmark under perfbench/ wraps package functions by name and
measures their results; these checks keep that contract in tier-1, so a
rename or a return-type change fails here rather than in a benchmark run."""

import importlib
from pathlib import Path

import numpy as np

from arraybit import hierindex
from arraybit.chunkstore import ChunkStore
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
    raw = RawQuery(attr_lo=root.amin, attr_hi=(root.amin + root.amax) / 2,
                   dims={"d0": (3, 20)})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.qid = 0
        rs = execute(idx, raw)
        ids = rs.cell_ids(store)
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn

    table = tracer.table()
    leaf = table.select("chunkstore.leaf_query", [0])
    assert leaf.any()
    assert set(table.work[leaf].tolist()) <= {0, 1}
    assert table.work[leaf].sum() == len(rs.partial)
    assert table.count("query.cell_ids", [0]) == 1
    assert table.count("bitvec.from_dense", [0]) == 0  # nothing encoded by a query
    assert ids.size == rs.count > 0


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
    # Index._pack_leaf(z, leaf, ndim)
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
        leaves = appended.levels[0]
        z, leaf = next(iter(leaves.items()))
        leaves[z] = leaf._replace(amin=leaf.amin - 1.0)
        assert "leaf bytes differ" in checks.tree_difference(appended, full), name
