"""Ground-truth full scan and the linearized dimension-as-attribute
baseline index used for correctness checks and comparative benchmarks.

The baseline materializes one integer auxiliary column per dimension over
the row-major linearized array and bitmap-indexes each column plus the
attribute.  Candidate checks read the stored auxiliary columns, and those
columns count toward the index size, exactly as a relational bitmap engine
would pay for them.  It is the source paper's comparator, and the only
index here that keeps bitmaps over cells: the tree's leaves keep none
(see `chunkstore`), so a size ratio of the two compares a tree without
leaf bitmaps with a bitmap index.
"""

from __future__ import annotations

import numpy as np

from .chunkstore import ArraySchema, BinnedBitmapIndex, ChunkStore, QueryStats, in_runs
from .query import Query, value_runs

__all__ = ["full_scan", "DimsAttsIndex", "dimension_column"]


def full_scan(store: ChunkStore, attribute: str, query: Query) -> np.ndarray:
    """Reference answer: test every non-empty cell against all constraints.

    Returns sorted global row-major cell ids.
    """
    schema = store.schema
    values = None if query.values is None else np.asarray(query.values)
    parts = []
    for chunk in store.iter_chunks():
        vals = chunk.values[attribute]
        mask = chunk.nonempty.copy()
        if values is not None:
            mask &= np.isin(vals, values)
        else:
            mask &= (vals >= query.attr_lo) & (vals <= query.attr_hi)
        for d, runs in enumerate(query.dim_ranges):
            idx = np.arange(chunk.shape[d]) + chunk.offsets[d]
            keep = np.zeros(idx.size, bool)
            for qlo, qhi in runs:
                keep |= (idx >= qlo) & (idx <= qhi)
            shape = [1] * schema.ndim
            shape[d] = -1
            mask &= keep.reshape(shape)
        pos = np.flatnonzero(mask.reshape(-1))
        if pos.size:
            local = np.unravel_index(pos, chunk.shape)
            coords = tuple(l + o for l, o in zip(local, chunk.offsets))
            parts.append(np.ravel_multi_index(coords, schema.shape))
    if not parts:
        return np.empty(0, np.int64)
    return np.sort(np.concatenate(parts)).astype(np.int64)


def dimension_column(schema: ArraySchema, d: int) -> np.ndarray:
    """The auxiliary attribute for dimension d over the linearized array."""
    n = int(np.prod(schema.shape))
    stride = int(np.prod(schema.shape[d + 1 :]))
    return (np.arange(n) // stride) % schema.shape[d]


class DimsAttsIndex:
    """Bitmap indexes over the attribute and one auxiliary column per
    dimension, all on the row-major linearization of the array."""

    def __init__(self, store: ChunkStore, attribute: str | None = None,
                 bins: int = 32, encoding: str = "range"):
        schema = store.schema
        self.schema = schema
        self.attribute = attribute or schema.attributes[0][0]
        self.bins = bins
        self.encoding = encoding
        self.values = store.dense(self.attribute).reshape(-1)
        nonempty = store.nonempty_dense().reshape(-1)
        self.attr_index = BinnedBitmapIndex.build(self.values, nonempty, bins, encoding)
        self.dim_columns = []
        self.dim_indexes = []
        every = np.ones(self.values.size, bool)
        for d in range(schema.ndim):
            col = dimension_column(schema, d).astype(np.int64)
            self.dim_columns.append(col)
            self.dim_indexes.append(
                BinnedBitmapIndex.build(col.astype(np.float64), every, bins, encoding)
            )

    def size_bytes(self) -> int:
        """The attribute's index (its non-empty mask included), and each
        dimension's auxiliary column and index."""
        n = self.attr_index.size_bytes()
        for col, idx in zip(self.dim_columns, self.dim_indexes):
            n += col.nbytes + idx.size_bytes()
        return n

    def query(self, query: Query, stats: QueryStats | None = None) -> np.ndarray:
        """Exact matching cells as sorted global row-major ids.

        Each constraint (the attribute and every dimension) is a list of
        runs; its certain and possible cells are ORed over its runs with
        one `range_query` each, and the constraints are ANDed.  Cells that
        are possible but not certain are checked against the stored values.
        """
        if query.values is None:
            attr_runs = ((query.attr_lo, query.attr_hi),)
        else:
            attr_runs = value_runs(query.values, self.schema.attr_type(self.attribute) == "int64")
        constraints = [(self.attr_index, attr_runs, self.values)]
        constraints += zip(self.dim_indexes, query.dim_ranges, self.dim_columns)
        if not all(runs for _, runs, _ in constraints):  # a constraint meets no cell
            return np.empty(0, np.int64)
        certain = possible = None
        for idx, runs, _ in constraints:
            cert = poss = None
            for lo, hi in runs:
                c, cand = idx.range_query(float(lo), float(hi), stats)
                cert = c if cert is None else (cert | c)
                poss = (c | cand) if poss is None else (poss | c | cand)
            certain = cert if certain is None else (certain & cert)
            possible = poss if possible is None else (possible & poss)
        hits = [certain.to_positions()]
        pos = possible.andnot(certain).to_positions()
        if pos.size:
            if stats is not None:
                stats.candidate_checks += pos.size
            ok = np.ones(pos.size, bool)
            for _, runs, column in constraints:
                ok &= in_runs(column[pos], runs)
            hits.append(pos[ok])
        return np.sort(np.concatenate(hits)).astype(np.int64)
