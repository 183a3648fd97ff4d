"""The saved index format, pinned byte for byte.

Each case builds a small seeded index and compares the SHA-256 of
`Index.serialize()` with a recorded digest, so a build change that moves a
single saved byte fails here.  A deliberate format change updates the
digests together with `_VERSION` in `hierindex`.

Only version 3 is read.  A file of another version, and a file whose
levels disagree with each other (a node without its parent, or a parent
whose child mask, count, value range, extent or range masks are not what
its children give), fail at load with DataError and, through the CLI,
with exit status 2.
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


@pytest.mark.parametrize("version", [1, 2, 4])
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


def _flip(cols, name, row, slot):
    """Child slot `slot` flipped in row `row` of a mask column."""
    col = cols[name].copy()
    col[row, slot // 8] ^= np.uint8(1 << slot % 8)
    cols[name] = col


def _mask_rows(cols, table, i):
    """The rows of node i's sp (table 1) or al (table 2) masks."""
    sizes = cols["sizes"].astype(int)
    start = int(sizes[:i, table].sum())
    return range(start, start + int(sizes[i, table]))


def _lowest_child(cols, i):
    return int(np.flatnonzero(np.unpackbits(cols["child"][i], bitorder="little"))[0])


def _leave_out_a_leaf(idx):
    # a level-1 node's child mask and range masks leave out a leaf that is saved
    cols = idx.tables[1]
    low = _lowest_child(cols, 0)
    _flip(cols, "child", 0, low)
    for table, name in ((1, "sp"), (2, "al")):
        for row in _mask_rows(cols, table, 0):
            if cols[name][row, low // 8] >> low % 8 & 1:
                _flip(cols, name, row, low)
    return f"level 1: node {cols['z'][0]} has a child mask"


def _drop_a_leaf(idx):
    # a level-1 node keeps the slot of a leaf that is not saved
    idx.tables[0] = _take(idx.tables[0], np.arange(1, idx.tables[0]["z"].size))
    return "level 1: node 0 has a child mask"


def _drop_a_node(idx):
    # the leaves of a level-1 node that is not saved have no parent
    idx.tables[1] = _take(idx.tables[1], np.arange(1, idx.tables[1]["z"].size))
    return "level 0: node 0 has no parent 0 at level 1"


def _drop_every_child(idx):
    # a level-1 node whose leaves are none of them saved
    z = idx.tables[1]["z"][0]
    leaves = idx.tables[0]
    idx.tables[0] = _take(leaves, np.flatnonzero(leaves["z"] >> idx.fanout.slot_bits != z))
    return f"level 1: node {z} has no children"


def _more_bins_than_the_index_has(idx):
    # the build merges a node's bins down to the index's `bins` (8)
    cols = idx.tables[1]
    k = int(cols["sizes"][0, 0])
    cols["bounds"] = np.concatenate((np.linspace(cols["amin"][0], cols["amax"][0], 11),
                                     cols["bounds"][k + 1:]))
    cols["weights"] = np.concatenate((np.ones(10), cols["weights"][k:]))
    _set(cols, "sizes", (0, 0), 10)
    _set(cols, "nbins", 0, 10)
    return f"level 1: node {cols['z'][0]} has more than 8 bins"


def _count_five_less(idx):
    cols = idx.tables[1]
    _set(cols, "count", 0, cols["count"][0] - 5)
    return f"level 1: node {cols['z'][0]} has a count other than the sum of its children's"


def _lower_amax(idx):
    cols = idx.tables[1]
    _set(cols, "amax", 0, (cols["amin"][0] + cols["amax"][0]) / 2)
    return f"level 1: node {cols['z'][0]} has a value range other than its children's"


def _raise_amin(idx):
    cols = idx.tables[1]
    _set(cols, "amin", 0, (cols["amin"][0] + cols["amax"][0]) / 2)
    return f"level 1: node {cols['z'][0]} has a value range other than its children's"


def _drop_a_child_from_the_sp_masks(idx):
    cols = idx.tables[1]
    low = _lowest_child(cols, 0)
    for row in _mask_rows(cols, 1, 0):
        if cols["sp"][row, low // 8] >> low % 8 & 1:
            _flip(cols, "sp", row, low)
    return f"level 1: node {cols['z'][0]} has sp masks other than its children's amin give"


def _drop_a_child_from_the_al_masks(idx):
    cols = idx.tables[1]
    low = _lowest_child(cols, 0)
    for row in _mask_rows(cols, 2, 0):
        if cols["al"][row, low // 8] >> low % 8 & 1:
            _flip(cols, "al", row, low)
    return f"level 1: node {cols['z'][0]} has al masks other than its children's amax give"


def _amin_above_amax(idx):
    cols = idx.tables[1]
    _set(cols, "amin", 5, cols["amax"][5] + 1.0)
    return f"level 1: node {cols['z'][5]} has amin above amax"


def _extent_past_the_array(idx):
    cols = idx.tables[1]
    _set(cols, "extent", (-1, slice(None), 1), cols["extent"][-1, :, 1] + 1)
    return f"level 1: node {cols['z'][-1]} has an extent outside the array"


def _first_node_saved_last(idx):
    n = idx.tables[1]["z"].size
    idx.tables[1] = _take(idx.tables[1], np.roll(np.arange(n), -1))
    return "level 1: node 0 follows node 15: z-indices do not increase"


@pytest.mark.parametrize("tamper", [_leave_out_a_leaf, _drop_a_leaf, _drop_a_node,
                                    _drop_every_child, _more_bins_than_the_index_has,
                                    _count_five_less, _lower_amax, _raise_amin,
                                    _drop_a_child_from_the_sp_masks,
                                    _drop_a_child_from_the_al_masks, _amin_above_amax,
                                    _extent_past_the_array, _first_node_saved_last])
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


_PROBE = _probe_index().serialize()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_changed_cross_level_field_fails_at_load(data):
    # a node below the root dropped, or one field that a node and its
    # children must agree on changed: a child bit, a count, an amin or
    # amax, an extent bound, or a bit of an sp or al mask
    idx = Index._parse(_PROBE)
    change = data.draw(st.sampled_from(
        ["drop", "child", "count", "amin", "amax", "extent", "sp", "al"]))
    internal = change in ("child", "sp", "al")
    level = data.draw(st.integers(int(internal), idx.depth - (change == "drop")))
    cols = idx.tables[level] = dict(idx.tables[level])
    n = cols["z"].size
    i = data.draw(st.integers(0, n - 1))
    slot = data.draw(st.integers(0, idx.fanout.total - 1))
    if change == "drop":
        idx.tables[level] = _take(cols, np.delete(np.arange(n), i))
    elif change == "child":
        _flip(cols, "child", i, slot)
    elif change == "count":
        _set(cols, "count", i, cols["count"][i] + np.uint64(1) - data.draw(st.sampled_from(
            [np.uint64(0), np.uint64(2)])))
    elif change in ("amin", "amax"):
        _set(cols, change, i, cols[change][i] + data.draw(st.sampled_from([-0.5, 0.5])))
    elif change == "extent":
        d, side = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
        # a low bound up or a high bound down
        _set(cols, "extent", (i, d, side), cols["extent"][i, d, side] + 1 - 2 * side)
    else:
        rows = _mask_rows(cols, 1 if change == "sp" else 2, i)
        _flip(cols, change, rows[data.draw(st.integers(0, len(rows) - 1))], slot)
    with pytest.raises(DataError, match="level"):
        Index._parse(idx.serialize())


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
    buf = build_index(store, fanout=fanout, bins=bins, e=e).serialize()
    assert Index._parse(buf).serialize() == buf
    if grid[0] > 1 and data.draw(st.booleans(), label="append"):
        cut = data.draw(st.integers(1, grid[0] - 1), label="first slab, in chunks")
        first = ChunkStore(store.schema.with_extents((cut * chunk[0],) + shape[1:]),
                           {c: ch for c, ch in store.chunks.items() if c[0] < cut})
        grown = build_index(first, fanout=fanout, bins=bins, e=e)
        grown.append(ChunkStore(store.schema,
                                {c: ch for c, ch in store.chunks.items() if c[0] >= cut}))
        assert grown.serialize() == buf


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
    ("attribute", "b"), ("fanout", -2), ("fanout", 3), ("fanout", 1), ("bins", "x"),
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
