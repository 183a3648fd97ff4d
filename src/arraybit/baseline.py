"""Ground-truth full scan and the linearized dimension-as-attribute
baseline index used for correctness checks and comparative benchmarks.

The baseline materializes one integer auxiliary column per dimension over
the row-major linearized array and bitmap-indexes each column plus the
attribute.  Candidate checks read the stored auxiliary columns, and those
columns count toward the index size, exactly as a relational bitmap engine
would pay for them.
"""

from __future__ import annotations

import numpy as np

from .chunkstore import ArraySchema, BinnedBitmapIndex, ChunkStore, QueryStats
from .errors import InputError
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
        for d, (qlo, qhi) in enumerate(query.dim_ranges):
            idx = np.arange(chunk.shape[d]) + chunk.offsets[d]
            shape = [1] * schema.ndim
            shape[d] = -1
            mask &= ((idx >= qlo) & (idx <= qhi)).reshape(shape)
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
        self.ebm = self.attr_index.ebm
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
        n = self.attr_index.size_bytes() + len(self.ebm.to_bytes())
        for col, idx in zip(self.dim_columns, self.dim_indexes):
            n += col.nbytes + idx.size_bytes()
        return n

    def _range_ids(self, query: Query, stats: QueryStats | None) -> np.ndarray:
        n = self.values.size
        certain = None
        possible = None
        pairs = [(self.attr_index, query.attr_lo, query.attr_hi, None)]
        for d, (qlo, qhi) in enumerate(query.dim_ranges):
            pairs.append((self.dim_indexes[d], float(qlo), float(qhi), d))
        for idx, lo, hi, _ in pairs:
            cert, cand = idx.range_query(lo, hi, stats)
            poss = cert | cand
            certain = cert if certain is None else (certain & cert)
            possible = poss if possible is None else (possible & poss)
        candidates = possible.andnot(certain)
        hits = [certain.to_positions()]
        pos = candidates.to_positions()
        if pos.size:
            if stats is not None:
                stats.candidate_checks += pos.size
            ok = np.ones(pos.size, bool)
            vals = self.values[pos]
            ok &= (vals >= query.attr_lo) & (vals <= query.attr_hi)
            for d, (qlo, qhi) in enumerate(query.dim_ranges):
                col = self.dim_columns[d][pos]
                ok &= (col >= qlo) & (col <= qhi)
            hits.append(pos[ok])
        return np.sort(np.concatenate(hits)).astype(np.int64)

    def query(self, query: Query, stats: QueryStats | None = None) -> np.ndarray:
        """Exact matching cells as sorted global row-major ids."""
        if query.values is not None:
            is_int = self.schema.attr_type(self.attribute) == "int64"
            runs = value_runs(query.values, is_int)
            parts = [
                self._range_ids(Query(lo, hi, query.dim_ranges, None), stats)
                for lo, hi in runs
            ]
            if not parts:
                return np.empty(0, np.int64)
            return np.sort(np.concatenate(parts)).astype(np.int64)
        return self._range_ids(query, stats)
