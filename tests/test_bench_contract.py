"""The benchmark under perfbench/ wraps package functions by name and
measures their results; these checks keep that contract in tier-1, so a
rename or a return-type change fails here rather than in a benchmark run."""

import importlib
from pathlib import Path

import numpy as np

from arraybit import hierindex, query
from arraybit.baseline import full_scan
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
        blocks = {id(store.chunks[node.coords].block)
                  for kind, _, _, node in query._descend(idx, q, query.attribute_runs(idx, q),
                                                         idx.depth) if kind == "leaf"}
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
