"""Spans around calls into the package's layers, recorded from outside.

`Tracer.install` replaces each traced function where its callers look it
up (a module global imported by name, or a class attribute) with a
wrapper that records one span per call: name, start, end, parent span and
query id.  Spans are kept in memory; `Tracer.save` writes them out once
the run has ended.  `Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import time

import numpy as np

from arraybit import baseline, bitvec, chunkstore, datagen, hierindex, query

# query ids of spans recorded outside the timed operations
SETUP = -1  # the traced set-up
BASELINE = -2  # building the baseline index
CHECK = -3  # answer checks that call the package (full-depth estimates, a full build)

# (owner, attribute, span name, work measure): the owner is the module or
# class the callers read the attribute from.  A measure maps (args, result)
# to a count kept with the span.
TARGETS = [
    (datagen, "field_values", "datagen.field_values", None),
    (chunkstore.ChunkStore, "from_dense", "chunkstore.from_dense", None),
    (hierindex, "build_leaf_index", "chunkstore.build_leaf_index", None),
    (chunkstore, "equi_depth_exact", "binning.equi_depth_exact", None),
    (hierindex, "merge_bins_iterative", "binning.merge_bins_iterative", None),
    (bitvec.BitVector, "from_dense", "bitvec.from_dense", None),
    (bitvec.BitVector, "to_dense", "bitvec.to_dense", lambda a, r: a[0].word_count),
    (hierindex, "build_index", "hierindex.build_index", None),
    (hierindex.Index, "append", "hierindex.append", None),
    (hierindex, "build_internal_node", "hierindex.build_internal_node", None),
    (hierindex.Index, "serialize", "hierindex.serialize", None),
    (hierindex.Index, "load", "hierindex.load", None),
    (hierindex.Index, "fetch", "hierindex.fetch", None),
    (query, "normalize", "query.normalize", None),
    (query, "eval_node", "query.eval_node", None),
    (query, "leaf_query", "chunkstore.leaf_query", lambda a, r: int(r.any())),
    (query.ResultSet, "cell_ids", "query.cell_ids", None),
    (baseline, "full_scan", "baseline.full_scan", None),
]


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict = {}
        # one row per span: name id, start ns, end ns, parent row, query id, work
        self.spans: list = []
        self._stack: list = []
        self.qid = SETUP
        self._saved: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, measure):
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            row = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[row] = (nid, t0, t1, parent, self.qid, 0)
            if measure is not None:
                spans[row] = (nid, t0, t1, parent, self.qid, measure(args, out))
            return out

        return traced

    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        return _Block(self, self.name_id(name))

    def install(self) -> None:
        for owner, attr, name, measure in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, measure))
            else:
                wrapped = self._wrap(raw, name, measure)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- aggregation ---------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.spans)


class SpanTable:
    """Recorded spans as columns, with each span's self time: its duration
    less the time covered by its child spans."""

    def __init__(self, names: list, rows: list):
        self.names = names
        cols = np.array(rows, dtype=np.int64).reshape(-1, 6)
        self.name, self.start, end, self.parent, self.qid, self.work = cols.T
        self.dur = end - self.start
        child = np.zeros(len(rows), np.int64)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_ns = self.dur - child

    def save(self, path) -> None:
        """Write every span, one column per field, as a compressed .npz."""
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            start_ns=self.start, end_ns=self.start + self.dur,
                            parent=self.parent, qid=self.qid, work=self.work)

    def select(self, name: str, qids=None) -> np.ndarray:
        nid = self.names.index(name) if name in self.names else -1
        sel = self.name == nid
        if qids is not None:
            sel &= np.isin(self.qid, qids)
        return sel

    def self_s(self, name: str, qid: int) -> float:
        """Total self time in seconds of `name` spans with query id `qid`."""
        return float(self.self_ns[self.select(name, [qid])].sum()) / 1e9

    def per_query_ms(self, name: str, qids) -> np.ndarray:
        """Self time in ms of `name` spans, summed per query id in `qids`."""
        sel = self.select(name, qids)
        pos = {int(q): i for i, q in enumerate(qids)}
        out = np.zeros(len(qids))
        for q, v in zip(self.qid[sel], self.self_ns[sel]):
            out[pos[int(q)]] += v
        return out / 1e6

    def durations_ms(self, name: str) -> np.ndarray:
        """Whole duration in ms of every `name` span, children included."""
        return self.dur[self.select(name)] / 1e6

    def count(self, name: str, qids) -> int:
        return int(self.select(name, qids).sum())

    def work_sum(self, name: str, qids) -> int:
        return int(self.work[self.select(name, qids)].sum())


class _Block:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        tr = self.tracer
        self.row = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.row)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.row] = (self.nid, self.t0, t1, self.parent, tr.qid, 0)
        return False
