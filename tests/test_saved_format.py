"""The saved index format, pinned byte for byte.

Each case builds a small seeded index and compares the SHA-256 of
`Index.serialize()` with a recorded digest, so a build change that moves a
single saved byte fails here.  A deliberate format change updates the
digests together with `_VERSION` in `hierindex`.

`fixtures/v1_<case>.idx` hold the same three indexes in the version-1
format, written before version 2 replaced it; they must keep loading and
answering like a fresh build.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from arraybit.bitvec import BitVector
from arraybit.chunkstore import ArraySchema, ChunkStore
from arraybit.hierindex import Index, build_index
from arraybit.query import RawQuery, estimate, execute, membership

FIXTURES = Path(__file__).resolve().parent / "fixtures"


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


CASES = [range_2d, equality_3d_int, interval_4d_appended]


PINS = {
    range_2d: "12c59e0b6abc763ebff8335b5e2bf59a1c929044d0a02925846b1c4b4b9ac64a",
    equality_3d_int: "08a29dbe4443c7d66afdd1b781b0c4a20e808ce67757c2f5d066412998d21118",
    interval_4d_appended: "eb727ffdf6885e8c774dc8f2716e50de94bd93ab7354bd5d9f7758839a6be3df",
}


@pytest.mark.parametrize("make", CASES)
def test_serialized_bytes_are_pinned(make):
    assert hashlib.sha256(make().serialize()).hexdigest() == PINS[make]


def _queries(idx):
    """A few range, one-sided and value-set queries over the index's data."""
    root = idx.root
    lo, hi = root.amin, root.amax
    mid = (lo + hi) / 2
    ext = idx.schema.shape
    values = idx.store.dense("a")[idx.store.nonempty_dense()]
    return [
        RawQuery(),
        RawQuery(attr_lo=mid),
        RawQuery(attr_lo=lo + (hi - lo) / 4, attr_hi=mid, dims={"d0": (1, ext[0] - 2)}),
        RawQuery(attr_hi=mid, dims={"d1": (ext[1] // 3, ext[1] // 2)}),
        RawQuery(values=tuple(np.unique(values)[::7].tolist())),
    ]


@pytest.mark.parametrize("make", CASES)
def test_version_1_fixture_answers_like_a_fresh_build(make):
    fresh = make()
    old = Index.load(FIXTURES / f"v1_{make.__name__}.idx", store=fresh.store)
    assert old.serialize() == fresh.serialize()
    for raw in _queries(fresh):
        run = membership if raw.values is not None else execute
        assert np.array_equal(run(old, raw).cell_ids(old.store),
                              run(fresh, raw).cell_ids(fresh.store))
        for budget in range(fresh.depth + 1):
            assert estimate(old, raw, budget) == estimate(fresh, raw, budget)
    for (z, a), (_, b) in zip(fresh.levels[0].items(), old.levels[0].items()):
        if hasattr(a.leaf, "bitmaps"):
            assert b.leaf.ebm == a.leaf.ebm and b.leaf.bitmaps == a.leaf.bitmaps


@pytest.mark.parametrize("make", CASES)
def test_load_builds_no_bitvector_and_saves_the_same_bytes(make, tmp_path, monkeypatch):
    fresh = make()
    path = tmp_path / "index.abix"
    fresh.save(path)
    made = []
    init = BitVector.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(BitVector, "__init__", counted)
    loaded = Index.load(path, store=fresh.store)
    assert not made
    assert loaded.serialize() == path.read_bytes()
    assert not made
    for (_, a), (_, b) in zip(fresh.levels[0].items(), loaded.levels[0].items()):
        if hasattr(a.leaf, "bitmaps"):
            assert b.leaf.bitmaps == a.leaf.bitmaps and b.leaf.ebm == a.leaf.ebm
    assert made  # decoded on first use


@pytest.mark.parametrize("make", CASES)
def test_version_2_is_smaller_than_version_1(make):
    assert len(make().serialize()) < (FIXTURES / f"v1_{make.__name__}.idx").stat().st_size
