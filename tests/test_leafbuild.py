"""The batched leaf builder against the per-chunk reference in testutil,
and the baseline's one-column bitmap encoder against its reference.

Every leaf row `build_leaf_index` returns, found by its chunk's
coordinates and given the extent the tree derives from them, must equal,
and serialize to the same bytes as, the leaf the reference builds from
that chunk alone.  Stores mix clipped
edge chunks, empty cells, constant chunks, low-cardinality chunks and
values that stress the cuts: adjacent floats (whose midpoint rounds onto
one of them), subnormals and a live infinity.  Zero is drawn only as +0.0:
-0.0 equals it, and which of the two a sort keeps first is not fixed.
The build sorts its batches on a pool of threads; any number of workers
and any batch size give the same rows in the same order.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit import chunkstore
from arraybit.baseline import BinnedBitmapIndex
from arraybit.bitvec import BitVector
from arraybit.chunkstore import ArraySchema, ChunkStore, build_leaf_index
from arraybit.errors import InputError
from arraybit.hierindex import _chunk_extents, _column_types, _table_bytes, _take
from testutil import leaf_row, reference_binned, reference_leaf, value_pool


@st.composite
def stores(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    chunk = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    integer = draw(st.booleans())
    pool = draw(value_pool(integer))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = pool[rng.integers(0, pool.size, size=shape)]
    if draw(st.booleans()):  # one constant block
        vals[tuple(slice(0, c) for c in chunk)] = pool[0]
    empty = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    typ = "int64" if integer else "float64"
    vals[empty] = -1 if integer else np.nan
    schema = ArraySchema(
        tuple((f"d{i}", e) for i, e in enumerate(shape)),
        (("a", typ),),
        chunk,
        {"a": -1} if integer else {},
    )
    return ChunkStore.from_dense(schema, {"a": vals})


@settings(max_examples=200, deadline=None)
@given(
    store=stores(),
    bins=st.integers(1, 20),
    e=st.integers(1, 4),
    batch=st.sampled_from([1, 50, 1 << 20]),
    workers=st.sampled_from([1, 2, 3]),
)
def test_batched_leaves_match_per_chunk_reference(store, bins, e, batch, workers):
    chunks = list(store.iter_chunks())
    with mock.patch.object(chunkstore, "_BATCH_CELLS", batch), \
            mock.patch.object(chunkstore, "_cpus", lambda: workers):
        leaves = build_leaf_index(store.table(), "a", bins, e)
    assert leaves["count"].size == len(chunks)
    z = {"z": np.zeros(1, "<u8")}
    types = _column_types(0, math.prod(store.schema.chunk_shape), bins)
    for chunk in chunks:
        leaf = _take(leaves, [leaf_row(leaves, chunk)])
        leaf["extent"] = _chunk_extents(leaf.pop("coords"), store.schema)
        want = reference_leaf(chunk, "a", bins, e)
        assert leaf.keys() == want.keys(), chunk.coords
        assert all(np.array_equal(leaf[name], want[name]) for name in want), chunk.coords
        assert _table_bytes({**leaf, **z}, types) == _table_bytes({**want, **z}, types), \
            chunk.coords


def _built(store, workers, batch=1 << 20, bins=4, e=1):
    """The leaf rows of `store` built on `workers` threads in batches of
    at most `batch` cells, and the batches' sizes in rows."""
    sizes, sorted_rows = [], chunkstore._sorted_rows

    def counted(block, attr, rows):
        sizes.append(rows.size)
        return sorted_rows(block, attr, rows)

    with mock.patch.object(chunkstore, "_BATCH_CELLS", batch), \
            mock.patch.object(chunkstore, "_cpus", lambda: workers), \
            mock.patch.object(chunkstore, "_sorted_rows", counted):
        return build_leaf_index(store.table(), "a", bins, e), sizes


@pytest.mark.parametrize("integer", [False, True])
def test_any_number_of_workers_builds_the_same_rows(integer):
    # blocks of 30 rows of 36 cells, 5 of 12, 6 of 18 and 1 of 6: the
    # rows of a block split evenly, into one batch per worker where the
    # block has the rows for it, more where the cap of 4 rows of 36 cells
    # asks for more; an int64 block is cast to float64 by the copy
    rng = np.random.default_rng(29)
    shape = (33, 38)
    vals = rng.integers(-50, 50, size=shape) if integer else rng.normal(size=shape) * 9.0
    empty = rng.random(shape) < 0.2
    vals[empty] = -99 if integer else np.nan
    sch = ArraySchema((("d0", 33), ("d1", 38)), (("a", "int64" if integer else "float64"),),
                      (6, 6), {"a": -99} if integer else {})
    store = ChunkStore.from_dense(sch, {"a": vals})
    want, sizes = _built(store, 1)
    assert sizes == [30, 5, 6, 1]  # one batch per block
    for workers, batch, batches in [(2, 1 << 20, [15, 15, 2, 3, 3, 3, 1]),
                                    (3, 1 << 20, [10, 10, 10, 1, 2, 2, 2, 2, 2, 1]),
                                    (3, 36 * 4, [3, 4, 4, 4, 3, 4, 4, 4, 1, 2, 2, 2, 2, 2, 1]),
                                    (1, 1, [1] * 42)]:
        got, sizes = _built(store, workers, batch)
        assert sizes == batches, (workers, batch)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[n], want[n]) for n in want), (workers, batch)
    types = _column_types(0, 36, 4)
    z = {"z": np.zeros(1, "<u8")}
    for chunk in store.iter_chunks():
        leaf = _take(want, [leaf_row(want, chunk)])
        leaf["extent"] = _chunk_extents(leaf.pop("coords"), store.schema)
        assert _table_bytes({**leaf, **z}, types) == \
            _table_bytes({**reference_leaf(chunk, "a", 4, 1), **z}, types), chunk.coords


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_nan_in_any_batch_fails_alike(workers):
    # a float attribute whose empty value is not NaN: a NaN cell is
    # non-empty and cannot be indexed, whichever batch and worker holds it
    vals = np.arange(12 * 12, dtype=np.float64).reshape(12, 12)
    sch = ArraySchema((("d0", 12), ("d1", 12)), (("a", "float64"),), (2, 12), {"a": -1.0})
    assert _built(ChunkStore.from_dense(sch, {"a": vals}), workers, batch=24)[1] == [1] * 6
    for row in range(6):  # one chunk of 24 cells a batch
        bad = vals.copy()
        bad[2 * row + 1, 5] = np.nan
        with pytest.raises(InputError, match="^cannot index NaN values$"):
            _built(ChunkStore.from_dense(sch, {"a": bad}), workers, batch=24)


def test_one_column_build_matches_reference():
    rng = np.random.default_rng(12)
    vals = np.round(rng.normal(size=5000) * 30.0, 1)
    nonempty = rng.random(5000) < 0.8
    for encoding in ("equality", "range", "interval"):
        got = BinnedBitmapIndex.build(vals, nonempty, 16, encoding)
        want = reference_binned(vals, nonempty, 16, encoding)
        assert got.binning == want.binning
        assert np.array_equal(got.span_lo, want.span_lo)
        assert np.array_equal(got.span_hi, want.span_hi)
        assert got.ebm == want.ebm == BitVector.from_dense(nonempty)
        assert got.bitmaps == want.bitmaps
