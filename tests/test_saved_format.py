"""The saved index format, pinned byte for byte.

Each case builds a small seeded index and compares the SHA-256 of
`Index.serialize()` with a recorded digest, so a build change that moves a
single saved byte fails here.  A deliberate format change updates the
digests together with `_VERSION` in `hierindex`.
"""

import hashlib

import numpy as np
import pytest

from arraybit.chunkstore import ArraySchema, ChunkStore
from arraybit.hierindex import build_index


def _schema(shape, chunk, typ="float64", empty=None):
    dims = tuple((f"d{i}", e) for i, e in enumerate(shape))
    return ArraySchema(dims, (("a", typ),), chunk, {} if empty is None else {"a": empty})


def range_2d():
    rng = np.random.default_rng(101)
    vals = rng.normal(size=(40, 36)) * 50.0
    vals[rng.random(vals.shape) < 0.1] = np.nan
    vals[8:16, 0:8] = 3.5  # one constant chunk
    store = ChunkStore.from_dense(_schema(vals.shape, (8, 8)), {"a": vals})
    return build_index(store, fanout=16, bins=8, leaf_encoding="range", e=2)


def equality_3d_int():
    rng = np.random.default_rng(202)
    vals = rng.integers(0, 40, size=(12, 10, 9))
    vals[rng.random(vals.shape) < 0.3] = -1
    vals[0:4, 0:4, 4:8] = -1  # one empty chunk
    vals[4:8, 4:8, 0:4] = rng.integers(0, 5, size=(4, 4, 4))  # fewer values than bins
    store = ChunkStore.from_dense(_schema(vals.shape, (4, 4, 4), "int64", -1), {"a": vals})
    return build_index(store, fanout=64, bins=8, leaf_encoding="equality", e=2)


def interval_4d_appended():
    rng = np.random.default_rng(303)
    shape = (10, 6, 6, 7)
    vals = rng.gamma(2.0, 10.0, size=shape)
    vals[rng.random(shape) < 0.2] = np.nan
    store = ChunkStore.from_dense(_schema(shape, (4, 4, 4, 4)), {"a": vals})
    slabs = []
    for hi in (4, 8, 10):
        chunks = {c: ch for c, ch in store.chunks.items() if (hi - 1) // 4 == c[0]}
        slabs.append(ChunkStore(store.schema.with_extents((hi,) + shape[1:]), chunks))
    idx = build_index(slabs[0], fanout=16, bins=8, leaf_encoding="interval", e=4)
    for slab in slabs[1:]:
        idx.append(slab)
    return idx


@pytest.mark.parametrize(
    "make, digest",
    [
        (range_2d, "b1dee37d36b96f8f93b2b2f341be4b0713a94bbac7d990f4fd9288dd0512ab82"),
        (equality_3d_int, "7c08b1d77013adfcf9e386c87bb462b6d92ffcb90ec8804bd07fad2e8f41d731"),
        (interval_4d_appended, "35e246973f2f7b80a2dbcf2efb1a017f98721a7ecc4e9e7ecdb91e7b1e066104"),
    ],
)
def test_serialized_bytes_are_pinned(make, digest):
    assert hashlib.sha256(make().serialize()).hexdigest() == digest
