"""The saved index format, pinned byte for byte.

Each case builds a small seeded index and compares the SHA-256 of
`Index.serialize()` with a recorded digest, so a build change that moves a
single saved byte fails here.  A deliberate format change updates the
digests together with `_VERSION` in `hierindex`.

`fixtures/v1_<case>.idx` and `fixtures/v2_<case>.idx` hold the same three
indexes in the version-1 and version-2 formats, written before the next
version replaced each; they must keep loading and answering like a fresh
build.  Their leaf bitmaps are checked and dropped: a version-2 file's
against their CRC32s, so a flipped byte there still fails.
"""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from arraybit.bitvec import BitVector
from arraybit.chunkstore import ArraySchema, ChunkStore
from arraybit.cli import main
from arraybit.errors import DataError
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
    return build_index(store, fanout=16, bins=8, e=2)


def equality_3d_int():
    rng = np.random.default_rng(202)
    vals = rng.integers(0, 40, size=(12, 10, 9))
    vals[rng.random(vals.shape) < 0.3] = -1
    vals[0:4, 0:4, 4:8] = -1  # one empty chunk
    vals[4:8, 4:8, 0:4] = rng.integers(0, 5, size=(4, 4, 4))  # fewer values than bins
    store = ChunkStore.from_dense(_schema(vals.shape, (4, 4, 4), "int64", -1), {"a": vals})
    return build_index(store, fanout=64, bins=8, e=2)


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
    idx = build_index(slabs[0], fanout=16, bins=8, e=4)
    for slab in slabs[1:]:
        idx.append(slab)
    return idx


CASES = [range_2d, equality_3d_int, interval_4d_appended]


PINS = {
    range_2d: "de33e23fa6d9969dc0fd629797d0391cccfa728145e680ca92fe7ff23fafd857",
    equality_3d_int: "8bf5b920925744c3e911ba72df3ee596ab37e8f758651820720e2cf98a14451a",
    interval_4d_appended: "1160aa91ab34ac06ddcb9f8ef81b3f738f790c0d7e2f3030fca7e804ae973be2",
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


def _answers_like_a_fresh_build(make, version):
    fresh = make()
    old = Index.load(FIXTURES / f"v{version}_{make.__name__}.idx", store=fresh.store)
    assert old.serialize() == fresh.serialize()
    for raw in _queries(fresh):
        run = membership if raw.values is not None else execute
        assert np.array_equal(run(old, raw).cell_ids(old.store),
                              run(fresh, raw).cell_ids(fresh.store))
        for budget in range(fresh.depth + 1):
            assert estimate(old, raw, budget) == estimate(fresh, raw, budget)


@pytest.mark.parametrize("make", CASES)
def test_version_1_fixture_answers_like_a_fresh_build(make):
    _answers_like_a_fresh_build(make, 1)


@pytest.mark.parametrize("make", CASES)
def test_version_2_fixture_answers_like_a_fresh_build(make):
    _answers_like_a_fresh_build(make, 2)


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
    assert loaded.serialize() == path.read_bytes()
    # a version-2 file's bitmaps are checked by their CRC32s, not decoded
    Index.load(FIXTURES / f"v2_{make.__name__}.idx", store=fresh.store)
    assert not made


def _v2_bitmap_section(raw: bytes) -> tuple:
    """(start, end) of the bitmap section of a version-2 file."""
    version, bitmaps_at = struct.unpack_from("<I", raw, 4)[0], struct.unpack_from("<Q", raw, 24)[0]
    assert version == 2 and 0 < bitmaps_at < len(raw)
    return bitmaps_at, len(raw)


@pytest.mark.parametrize("make", CASES)
def test_version_2_flipped_byte_fails_with_data_error(make, tmp_path):
    # the header CRC covers all but the bitmap section, and each leaf's
    # bitmaps are checked against their own CRC32 at load
    raw = (FIXTURES / f"v2_{make.__name__}.idx").read_bytes()
    start, end = _v2_bitmap_section(raw)
    path = tmp_path / "flip.abix"
    for at in sorted({8, 12, start // 2, start - 1, start, (start + end) // 2, end - 1}):
        bad = bytearray(raw)
        bad[at] ^= 0x10
        path.write_bytes(bytes(bad))
        with pytest.raises(DataError, match="CRC32"):
            Index.load(path)
        assert main(["query", "--index", str(path), "--where", ""]) == 2, at


@pytest.mark.parametrize("make", CASES)
def test_version_3_is_smaller_than_versions_1_and_2(make):
    size = len(make().serialize())
    for version in (1, 2):
        assert size < (FIXTURES / f"v{version}_{make.__name__}.idx").stat().st_size
