"""The batched leaf builder against the per-chunk reference in testutil,
and the baseline's one-column bitmap encoder against its reference.

Every leaf row `build_leaf_index` returns must equal, and serialize to
the same bytes as, the leaf the reference builds from that chunk alone.  Stores mix clipped
edge chunks, empty cells, constant chunks, low-cardinality chunks and
values that stress the cuts: adjacent floats (whose midpoint rounds onto
one of them), subnormals and a live infinity.  Zero is drawn only as +0.0:
-0.0 equals it, and which of the two a sort keeps first is not fixed.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from arraybit import chunkstore
from arraybit.baseline import BinnedBitmapIndex
from arraybit.bitvec import BitVector
from arraybit.chunkstore import ArraySchema, ChunkStore, build_leaf_index
from arraybit.hierindex import _table_bytes, _take
from testutil import reference_binned, reference_leaf, value_pool


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
)
def test_batched_leaves_match_per_chunk_reference(store, bins, e, batch):
    chunks = list(store.iter_chunks())
    with mock.patch.object(chunkstore, "_BATCH_CELLS", batch):
        leaves = build_leaf_index(chunks, "a", bins, e)
    assert leaves["count"].size == len(chunks)
    z = {"z": np.zeros(1, "<u8")}
    for i, chunk in enumerate(chunks):
        leaf, want = _take(leaves, [i]), reference_leaf(chunk, "a", bins, e)
        assert leaf.keys() == want.keys(), chunk.coords
        assert all(np.array_equal(leaf[name], want[name]) for name in want), chunk.coords
        assert _table_bytes({**leaf, **z}) == _table_bytes({**want, **z}), chunk.coords


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
