"""The saved index format, pinned byte for byte.

Each case builds a small seeded index and compares the SHA-256 of
`Index.serialize()` with a recorded digest, so a build change that moves a
single saved byte fails here.  A deliberate format change updates the
digests together with `_VERSION` in `hierindex`.

Only version 4 is read.  A file saves the leaves' z, value ranges, counts
and bins, and each internal node's bins; the load derives everything else,
so no fact is saved twice.  A file of another version, and a file whose
saved columns break a rule (leaves out of z order or outside the array, a
count the chunk cannot hold, another number of internal rows than the
level below has parents, bins that do not increase, exceed the index's
`bins` or do not span the node's values, bin weights that are not counts
of the node's cells), fail at load with DataError naming the node and,
through the CLI, with exit status 2.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.binning import Binning
from arraybit.bitvec import BitVector
from arraybit.chunkstore import ArraySchema, ChunkStore, load_store, write_raw
from arraybit.cli import main
from arraybit.errors import DataError
from arraybit import hierindex
from arraybit.hierindex import Fanout, Index, _take, build_index
from arraybit.query import RawQuery, estimate, execute, membership
from testutil import assert_weights_are_counts


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
    range_2d: "6d42d3fea58ffa46698e4d94b0bb63a776eb1be95ab1b8d7720eb40ac3350a0b",
    equality_3d_int: "5ac3bec8a52694d0abea7c1f87f34bd50d2bd803a71c144add2f9d3b027704fc",
    interval_4d_appended: "1dce9d4b13b3c7c5a29aaedf0e7077a099237ccbb55f976e2b6e87949dd37678",
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


def _answers_like(old, fresh):
    for raw in _queries(fresh):
        run = membership if raw.values is not None else execute
        assert np.array_equal(run(old, raw).cell_ids(old.store),
                              run(fresh, raw).cell_ids(fresh.store))
        for budget in range(fresh.depth + 1):
            assert estimate(old, raw, budget) == estimate(fresh, raw, budget)


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

    # a binning is made by its constructor or, over checked arrays, by
    # Binning.prevalidated
    binnings = []
    binning_init, prevalidated = Binning.__init__, Binning.prevalidated.__func__

    def counted_binning(self, *args):
        binnings.append(1)
        binning_init(self, *args)

    def counted_prevalidated(cls, *args):
        binnings.append(1)
        return prevalidated(cls, *args)

    monkeypatch.setattr(BitVector, "__init__", counted)
    monkeypatch.setattr(Binning, "__init__", counted_binning)
    monkeypatch.setattr(Binning, "prevalidated", classmethod(counted_prevalidated))
    loaded = Index.load(path, store=fresh.store)
    assert loaded.serialize() == path.read_bytes()
    assert not made
    # the leaves stay rows of their table: at most one binning per
    # internal node, none per leaf
    assert 0 < len(binnings) <= fresh.node_count() - len(fresh.levels[0])
    _answers_like(loaded, fresh)


@pytest.mark.parametrize("make", CASES)
def test_leaf_build_makes_no_binning(make, monkeypatch):
    # the build side of the load test above: the leaves of a build and of
    # each append are made as columns, and only internal nodes get a Binning
    made, inside, calls = [], [False], []
    build_leaf_index = hierindex.build_leaf_index
    binning_init, prevalidated = Binning.__init__, Binning.prevalidated.__func__

    def counted_leaves(*args):
        calls.append(1)
        inside[0] = True
        try:
            return build_leaf_index(*args)
        finally:
            inside[0] = False

    def counted_binning(self, *args):
        made.append(inside[0])
        binning_init(self, *args)

    def counted_prevalidated(cls, *args):
        made.append(inside[0])
        return prevalidated(cls, *args)

    monkeypatch.setattr(hierindex, "build_leaf_index", counted_leaves)
    monkeypatch.setattr(Binning, "__init__", counted_binning)
    monkeypatch.setattr(Binning, "prevalidated", classmethod(counted_prevalidated))
    idx = make()
    assert len(calls) == (3 if make is interval_4d_appended else 1)  # a build, two appends
    assert made and not any(made)
    monkeypatch.undo()
    assert hashlib.sha256(idx.serialize()).hexdigest() == PINS[make]


@pytest.mark.parametrize("make", CASES)
def test_each_level_spreads_its_weights_in_one_call(make, monkeypatch):
    # the internal-node side of the test above: a build and each append
    # spread the weights of every parent a level merges anew in one call.
    # Every level above the leaves merges one parent anew or more, so that
    # is one call per level (range_2d's build merges 4 parents at level 1)
    spread, grow, calls, per_grow = hierindex._spread_weights, Index._grow, [], []

    def counted_spread(*args):
        calls.append(1)
        return spread(*args)

    def counted_grow(self, *args):
        calls.clear()
        grow(self, *args)
        per_grow.append((len(calls), self.depth))

    monkeypatch.setattr(hierindex, "_spread_weights", counted_spread)
    monkeypatch.setattr(Index, "_grow", counted_grow)
    idx = make()
    assert len(per_grow) == (3 if make is interval_4d_appended else 1)  # a build, two appends
    assert all(n == depth for n, depth in per_grow), per_grow
    monkeypatch.undo()
    assert hashlib.sha256(idx.serialize()).hexdigest() == PINS[make]


@pytest.mark.parametrize("version", [1, 2, 3, 5])
def test_other_versions_fail_with_data_error(version, tmp_path, capsys):
    raw = bytearray(range_2d().serialize())
    struct.pack_into("<I", raw, 4, version)
    path = tmp_path / f"v{version}.abix"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"index version {version} .*`arraybit build`"):
        Index.load(path)
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--where", ""]) == 2
    err = capsys.readouterr().err
    assert f"version {version}" in err and "Traceback" not in err


def _probe_index():
    """A 64x64 float array in 8x8 chunks with fanout 4: four levels."""
    vals = np.random.default_rng(7).random((64, 64))
    return build_index(ChunkStore.from_dense(_schema(vals.shape, (8, 8)), {"a": vals}),
                       fanout=4, bins=8)


def _set(cols, name, row, value):
    """Row `row` of column `name` of a level's table set to `value`, in a
    copy of the column."""
    col = cols[name].copy()
    col[row] = value
    cols[name] = col


def _drop_a_leaf(idx):
    # the leaf holding a level-1 node's least value is not saved: the node's
    # saved bins no longer span its children's values
    leaves, node = idx.tables[0], idx.tables[1]
    kids = np.flatnonzero(leaves["z"] >> idx.fanout.slot_bits == node["z"][0])
    low = kids[np.argmin(leaves["amin"][kids])]
    idx.tables[0] = _take(leaves, np.delete(np.arange(leaves["z"].size), low))
    return f"level 1: node {node['z'][0]} has bins that do not run from its amin to its amax"


def _drop_a_node(idx):
    # the leaves of a level-1 node that is not saved still have a parent:
    # the saved columns lose its row, the first
    cols = idx.tables[1]
    k = int(cols["nbins"][0])
    idx.tables[1] = {**cols, "z": cols["z"][1:], "nbins": cols["nbins"][1:],
                     "bounds": cols["bounds"][k + 1:], "weights": cols["weights"][k:]}
    return "level 1: holds 15 nodes, not the 16 parents of level 0"


def _drop_every_child(idx):
    # a level-1 node whose leaves are none of them saved
    z = idx.tables[1]["z"][0]
    leaves = idx.tables[0]
    idx.tables[0] = _take(leaves, np.flatnonzero(leaves["z"] >> idx.fanout.slot_bits != z))
    return "level 1: holds 16 nodes, not the 15 parents of level 0"


def _more_bins_than_the_index_has(idx):
    # the build merges a node's bins down to the index's `bins` (8)
    cols = idx.tables[1]
    k = int(cols["nbins"][0])
    cols["bounds"] = np.concatenate((np.linspace(cols["amin"][0], cols["amax"][0], 11),
                                     cols["bounds"][k + 1:]))
    cols["weights"] = np.concatenate((np.ones(10), cols["weights"][k:]))
    _set(cols, "nbins", 0, 10)
    return f"level 1: node {cols['z'][0]} has more than 8 bins"


def _no_bins(idx):
    cols = idx.tables[1]
    k = int(cols["nbins"][0])
    cols["bounds"], cols["weights"] = cols["bounds"][k + 1:], cols["weights"][k:]
    _set(cols, "nbins", 0, 0)
    return f"level 1: node {cols['z'][0]} has no bins"


def _lower_amax(idx):
    cols = idx.tables[0]
    _set(cols, "amax", 0, (cols["amin"][0] + cols["amax"][0]) / 2)
    return f"level 0: node {cols['z'][0]} has bins that do not run from its amin to its amax"


def _raise_amin(idx):
    cols = idx.tables[0]
    _set(cols, "amin", 0, (cols["amin"][0] + cols["amax"][0]) / 2)
    return f"level 0: node {cols['z'][0]} has bins that do not run from its amin to its amax"


def _amin_above_amax(idx):
    cols = idx.tables[0]
    _set(cols, "amin", 5, cols["amax"][5] + 1.0)
    return f"level 0: node {cols['z'][5]} has amin above amax"


def _leaf_past_the_tree(idx):
    # depth 3 of 2x2 children: leaf z-indices run below 4**3
    _set(idx.tables[0], "z", -1, 64)
    return "level 0: node 64 has a z-index out of range"


def _extent_past_the_array(idx):
    # the leaves of the last row of 8x8 chunks, from z 21 on, now have
    # extents past the array
    idx.schema = idx.schema.with_extents((56, 64))
    return "level 0: node 21 has a chunk outside the array"


def _root_not_saved(idx):
    # once, a file of the leaves alone loaded, and a query failed with a
    # traceback on a root that was a leaf
    idx.tables = idx.tables[:-1]
    return "directory: the array's tree has 4 levels, the file 3"


def _first_node_saved_last(idx):
    n = idx.tables[0]["z"].size
    idx.tables[0] = _take(idx.tables[0], np.roll(np.arange(n), -1))
    return "level 0: node 0 follows node 63: z-indices do not increase"


# the saved columns of a level and of the level below must agree as the
# build makes them; each case names the first node that breaks a rule
@pytest.mark.parametrize("tamper", [_drop_a_leaf, _drop_a_node, _drop_every_child,
                                    _more_bins_than_the_index_has, _no_bins, _lower_amax,
                                    _raise_amin, _amin_above_amax, _leaf_past_the_tree,
                                    _extent_past_the_array, _root_not_saved,
                                    _first_node_saved_last])
def test_levels_that_disagree_fail_at_load(tamper, tmp_path, capsys):
    idx = _probe_index()
    assert idx.depth == 3
    where = tamper(idx)
    path = tmp_path / "tampered.abix"
    idx.save(path)  # the CRC covers the tampered tables
    with pytest.raises(DataError, match=where):
        Index.load(path, store=idx.store)
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--where", "a in [0.1, 0.5]"]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


def _top_half():
    """A 64x64 normal array in 8x8 chunks, indexed over its top half with
    fanout 16 and 4 bins: three levels."""
    vals = np.random.default_rng(1).normal(size=(64, 64))
    store = ChunkStore.from_dense(_schema(vals.shape, (8, 8)), {"a": vals})
    top = ChunkStore(store.schema.with_extents((32, 64)),
                     {c: ch for c, ch in store.chunks.items() if c[0] < 4})
    idx = build_index(top, fanout=16, bins=4)
    assert idx.depth == 2
    return idx


def _load_fails_naming(idx, level, what, tmp_path, capsys):
    path = tmp_path / "weight.abix"
    idx.save(path)  # the CRC covers the edited weights
    where = f"level {level}: node {idx.tables[level]['z'][0]} {what}"
    with pytest.raises(DataError, match=where):
        Index.load(path)
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--where", "a in [-0.5, 0.5]"]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("weight", [np.nan, -1e300, 1e300])
@pytest.mark.parametrize("level", [0, 1])
def test_a_bin_weight_that_is_no_count_fails_at_load(level, weight, tmp_path, capsys):
    # only an append's merge reads bin weights: a bad one that loaded would
    # show one append later, as a tree that no build writes
    idx = _top_half()
    _set(idx.tables[level], "weights", 0, weight)
    what = ("has bin weights that do not sum to its count" if weight > 0
            else "has a bin weight below 0 or, in a leaf, not whole")
    _load_fails_naming(idx, level, what, tmp_path, capsys)


def test_a_leaf_weight_that_is_not_whole_fails_at_load(tmp_path, capsys):
    # half a cell moved from one bin of a leaf to the next: the sum holds
    idx = _top_half()
    cols = idx.tables[0]
    assert cols["nbins"][0] >= 2
    _set(cols, "weights", 0, cols["weights"][0] + 0.5)
    _set(cols, "weights", 1, cols["weights"][1] - 0.5)
    _load_fails_naming(idx, 0, "has a bin weight below 0 or, in a leaf, not whole", tmp_path,
                       capsys)


def _same_tables(loaded, built):
    """Every column of every level of `loaded`, the saved ones and those a
    load derives, is `built`'s: its type, shape and bytes."""
    assert len(loaded.tables) == len(built.tables)
    for got, want in zip(loaded.tables, built.tables):
        assert got.keys() == want.keys()
        for name, col in want.items():
            assert (got[name].dtype, got[name].shape) == (col.dtype, col.shape), name
            assert got[name].tobytes() == col.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_build_saves_only_what_its_load_reads(data):
    # small arrays of 1 to 4 dimensions under any fanout, bins and e, with
    # any share of empty cells: the saved bytes load and save again
    # unchanged, and a tree grown by an append saves the full build's bytes
    ndim = data.draw(st.integers(1, 4), label="ndim")
    chunk = tuple(data.draw(st.integers(1, 4)) for _ in range(ndim))
    grid = tuple(data.draw(st.integers(1, (40, 8, 4, 3)[ndim - 1])) for _ in range(ndim))
    shape = tuple(g * c - data.draw(st.integers(0, c - 1)) for g, c in zip(grid, chunk))
    fanout = data.draw(st.sampled_from([2, 4]), label="fanout per dimension") ** ndim
    bins, e = data.draw(st.integers(1, 9), label="bins"), data.draw(st.integers(1, 5), label="e")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vals = {"normal": lambda: rng.normal(size=shape) * 50.0,
            "few": lambda: rng.integers(0, 4, size=shape).astype(float),
            "constant": lambda: np.full(shape, 2.5)}[
        data.draw(st.sampled_from(["normal", "few", "constant"]), label="values")]()
    vals[rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 0.9]), label="empty")] = np.nan
    store = ChunkStore.from_dense(_schema(shape, chunk), {"a": vals})
    built = build_index(store, fanout=fanout, bins=bins, e=e)
    buf = built.serialize()
    loaded = Index._parse(buf)
    assert loaded.serialize() == buf
    # z, extent, amin, amax, count, child, sp and al: as the build made them
    _same_tables(loaded, built)
    assert_weights_are_counts(built)
    if grid[0] > 1 and data.draw(st.booleans(), label="append"):
        cut = data.draw(st.integers(1, grid[0] - 1), label="first slab, in chunks")
        first = ChunkStore(store.schema.with_extents((cut * chunk[0],) + shape[1:]),
                           {c: ch for c, ch in store.chunks.items() if c[0] < cut})
        grown = build_index(first, fanout=fanout, bins=bins, e=e)
        grown.append(ChunkStore(store.schema,
                                {c: ch for c, ch in store.chunks.items() if c[0] >= cut}))
        assert grown.serialize() == buf
        _same_tables(loaded, grown)
        assert_weights_are_counts(grown)


def _load_fails_on_metadata(tmp_path, capsys, change, field):
    # an index saved after `change(idx)` holds the bad field under a valid
    # CRC: its load, and a query through the CLI, fail naming the field
    vals = np.random.default_rng(5).random((16, 8))
    head = tmp_path / "arr.json"
    write_raw(head, _schema(vals.shape, (4, 4)), {"a": vals})
    idx = build_index(load_store(head), fanout=4, bins=4)
    change(idx)
    path = tmp_path / "bad.abix"
    path.write_bytes(idx.serialize())  # the CRC covers the bad field
    with pytest.raises(DataError, match=f"metadata.*{field}"):
        Index.load(path)
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--data", str(head), "--where", "b >= 0"]) == 2
    err = capsys.readouterr().err
    assert "metadata" in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("attribute", "b"), ("fanout", -2), ("fanout", 3), ("fanout", 1), ("fanout", 128),
    ("bins", "x"),
    ("bins", 0), ("bins", 2.5), ("e", 0), ("e", True),
])
def test_bad_metadata_under_a_valid_crc_fails_with_data_error(field, value, tmp_path, capsys):
    _load_fails_on_metadata(tmp_path, capsys, lambda idx: setattr(
        idx, field, Fanout(value, 2) if field == "fanout" else value), field)


@pytest.mark.parametrize("field, value, key", [
    ("dims", (("d0", 16.7), ("d1", 8)), "'dims'"),
    ("dims", (("d0", "16"), ("d1", 8)), "'dims'"),
    ("chunk_shape", (4.5, 4), "'chunk_shape'"),
    ("empty_values", {"a": "x"}, "'empty'"),
])
def test_a_schema_field_of_the_wrong_form_fails_the_load(field, value, key, tmp_path, capsys):
    # the saved schema writes each field as it is: once truncated to 16 or
    # 4, or a sentinel "x" kept, these loaded silently
    _load_fails_on_metadata(tmp_path, capsys,
                            lambda idx: object.__setattr__(idx.schema, field, value), key)
