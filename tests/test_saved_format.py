"""The saved index format, pinned byte for byte.

Each case builds a small seeded index and compares the SHA-256 of
`Index.serialize()` with a recorded digest, so a build change that moves a
single saved byte fails here.  A deliberate format change updates the
digests together with `_VERSION` in `hierindex`.

Only version 5 is read.  A file saves the leaves' z, value ranges, counts
and bins, and each internal node's bins; the load derives everything else.
A leaf's first and last bin boundary are its amin and amax and are not
saved, and every integer column is saved in the narrowest unsigned type the
metadata allows.  An internal node's first and last boundary are saved
although its children's values fix them up to the sign of a zero, which
the build may keep otherwise than its amin and amax; a rule refuses a file
where they differ in value.  A file of another version, and a file whose saved
columns break a rule (leaves out of z order or outside the array, a count
the chunk cannot hold, a leaf's bins where the build makes none or none
where it makes some, another number of internal rows than the level below
has parents, bins that do not increase, exceed the index's `bins`, do not
span the node's values or hold a value no child has, bin weights that are
not counts of the node's cells), fail at load with DataError naming the
node and, through the CLI, with exit status 2.  One value of any saved
column edited under a valid CRC either fails at load or `attach`, naming
its level, or changes no answer, but for a leaf's range made narrower,
which only its chunk's values refute.
"""

import dataclasses
import hashlib
import re
import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arraybit.baseline import full_scan
from arraybit.binning import Binning
from arraybit.bitvec import BitVector
from arraybit import chunkstore
from arraybit.chunkstore import ArraySchema, ChunkStore, QueryStats, load_store, write_raw
from arraybit.cli import main
from arraybit.errors import DataError
from arraybit import hierindex
from arraybit.hierindex import Fanout, Index, TreeNode, _take, build_index
from arraybit.query import RawQuery, dimension_match, estimate, execute, membership, normalize
from testutil import (assert_weights_are_counts, record_fetches, reference_nodes, saved_columns,
                      zorder_decode)


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
    range_2d: "492e33b7d6c0cf1c943d4199a2ed096c7140e4e34c740d9818b015d8be663620",
    equality_3d_int: "06a25668ce3e148eea66eba77d436aeb40c19ab23b1cbf25cbe7472faf2f0035",
    interval_4d_appended: "b7842c5d8779515da1f509e6168e7b6a9ed46448e3c91ea2f9da33523b35ea95",
}


@pytest.mark.parametrize("make", CASES)
def test_serialized_bytes_are_pinned(make):
    assert hashlib.sha256(make().serialize()).hexdigest() == PINS[make]


@pytest.mark.parametrize("make", CASES)
def test_any_number_of_leaf_workers_saves_the_pinned_bytes(make):
    # the leaf build sorts its batches on a pool of one thread per CPU:
    # one, two or three workers, in batches of the default size or of 50
    # cells, build the same leaf table and save the pinned bytes
    want = None
    for workers, batch in [(1, 1 << 20), (2, 1 << 20), (3, 1 << 20), (3, 50), (1, 50)]:
        with mock.patch.object(chunkstore, "_BATCH_CELLS", batch), \
                mock.patch.object(chunkstore, "_cpus", lambda: workers):
            idx = make()
        want = idx.tables[0] if want is None else want
        assert all(np.array_equal(idx.tables[0][n], want[n]) for n in want), (workers, batch)
        assert hashlib.sha256(idx.serialize()).hexdigest() == PINS[make], (workers, batch)


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
    # a load makes no node: the leaves stay rows of their table, and an
    # internal node gets its one binning when it is first fetched
    assert not binnings
    loaded.levels  # makes every node
    assert len(binnings) == fresh.node_count() - len(fresh.levels[0]) > 0
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


@pytest.mark.parametrize("version", [1, 2, 3, 4, 6])
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
    # first saved boundary is no longer a value of its children
    leaves, node = idx.tables[0], idx.tables[1]
    kids = np.flatnonzero(leaves["z"] >> idx.fanout.slot_bits == node["z"][0])
    low = kids[np.argmin(leaves["amin"][kids])]
    idx.tables[0] = _take(leaves, np.delete(np.arange(leaves["z"].size), low))
    return f"level 1: node {node['z'][0]} has a bin boundary that is no child's amin or amax"


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
    # a leaf's last boundary is its amax: the top bins now run backwards
    cols = idx.tables[0]
    _set(cols, "amax", 0, (cols["amin"][0] + cols["amax"][0]) / 2)
    return f"level 0: node {cols['z'][0]} has bin boundaries that do not increase"


def _raise_amin(idx):
    # a leaf's first boundary is its amin: the bottom bins now run backwards
    cols = idx.tables[0]
    _set(cols, "amin", 0, (cols["amin"][0] + cols["amax"][0]) / 2)
    return f"level 0: node {cols['z'][0]} has bin boundaries that do not increase"


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


def _leaf_weight_max(idx) -> int:
    """The largest leaf weight the saved type holds: a leaf's weights are
    saved as its count is, in the narrowest unsigned type of a chunk's
    cells (64 here, so one byte)."""
    kind = idx._int_types(idx.depth)["count"]
    assert kind == np.uint8
    return int(np.iinfo(kind).max)


@pytest.mark.parametrize("weight", [np.nan, -1e300, 1e300])
@pytest.mark.parametrize("level", [0, 1])
def test_a_bin_weight_that_is_no_count_fails_at_load(level, weight, tmp_path, capsys):
    # only an append's merge reads bin weights: a bad one that loaded would
    # show one append later, as a tree that no build writes.  A leaf's
    # weights are saved unsigned, which holds none of the three: the
    # nearest a file comes is the type's largest weight
    idx = _top_half()
    if level == 0:
        weight = _leaf_weight_max(idx)
    _set(idx.tables[level], "weights", 0, weight)
    what = ("has bin weights that do not sum to its count" if weight > 0
            else "has a bin weight below 0")
    _load_fails_naming(idx, level, what, tmp_path, capsys)


def test_a_leaf_weight_that_is_not_whole_fails_at_load(tmp_path, capsys):
    # the saved type holds only whole weights >= 0, so no half cell moves
    # from one bin to the next.  The nearest edit moves a cell count that
    # keeps the sum in the type's own arithmetic, modulo 256: the load
    # sums the weights as the counts they are and refuses it
    idx = _top_half()
    cols, top = idx.tables[0], _leaf_weight_max(idx)
    assert cols["nbins"][0] >= 2
    w0, w1 = cols["weights"][:2]
    _set(cols, "weights", 0, top)
    _set(cols, "weights", 1, (w0 + w1 - top) % (top + 1))
    assert int(cols["weights"][:2].sum()) % (top + 1) == (w0 + w1) % (top + 1)
    _load_fails_naming(idx, 0, "has bin weights that do not sum to its count", tmp_path, capsys)


def _normal_field(bins):
    """A 64x64 normal array in 8x8 chunks, indexed with fanout 16 and e 4:
    every leaf counts 64 cells, so at `bins` 4 every leaf has bins."""
    vals = np.random.default_rng(1).normal(size=(64, 64))
    return build_index(ChunkStore.from_dense(_schema(vals.shape, (8, 8)), {"a": vals}),
                       fanout=16, bins=bins)


def _leaf_of_more_bins_than_the_index(idx):
    # leaves binned under bins 8, saved under bins 4
    assert idx.tables[0]["nbins"][0] == 8
    idx.bins = 4
    return "has more than 4 bins"


def _plain_leaf_of_many_cells(idx):
    # 64 cells reach e * bins = 16: the build bins such a leaf
    cols = idx.tables[0]
    k = int(cols["nbins"][0])
    cols["bounds"], cols["weights"] = cols["bounds"][k + 1:], cols["weights"][k:]
    _set(cols, "nbins", 0, 0)
    return "has no bins but counts 64 cells: a leaf of 16 or more"


def _binned_leaf_of_few_cells(idx):
    # a leaf of 10 cells is plain in a build: its bins, if they loaded,
    # would weigh 64 cells in a chunk of 10
    _set(idx.tables[0], "count", 0, 10)
    return "has bins but counts 10 cells: a leaf of 16 or more"


@pytest.mark.parametrize("tamper", [_leaf_of_more_bins_than_the_index, _plain_leaf_of_many_cells,
                                    _binned_leaf_of_few_cells])
def test_a_leaf_of_bins_no_build_makes_fails_at_load(tamper, tmp_path, capsys):
    # a leaf has 0 bins below e * bins cells and 1 to `bins` from there on.
    # Each of these loaded once, and an append then merged its parent from
    # bins that no build makes
    idx = _normal_field(8 if tamper is _leaf_of_more_bins_than_the_index else 4)
    _load_fails_naming(idx, 0, tamper(idx), tmp_path, capsys)


def _same_tables(loaded, built):
    """Every column of every level of `loaded`, the saved ones and those a
    load derives, is `built`'s: its type, shape and bytes."""
    assert len(loaded.tables) == len(built.tables)
    for got, want in zip(loaded.tables, built.tables):
        assert got.keys() == want.keys()
        for name, col in want.items():
            assert (got[name].dtype, got[name].shape) == (col.dtype, col.shape), name
            assert got[name].tobytes() == col.tobytes(), name


def _drawn_tree(data):
    """A drawn small array of 1 to 4 dimensions under any fanout, bins and
    e, with any share of empty cells, zeros of both signs among them:
    (its store, the build's keywords, and its first slab and the rest when
    an append is drawn, else None)."""
    ndim = data.draw(st.integers(1, 4), label="ndim")
    chunk = tuple(data.draw(st.integers(1, 4)) for _ in range(ndim))
    grid = tuple(data.draw(st.integers(1, (40, 8, 4, 3)[ndim - 1])) for _ in range(ndim))
    shape = tuple(g * c - data.draw(st.integers(0, c - 1)) for g, c in zip(grid, chunk))
    fanout = data.draw(st.sampled_from([2, 4]), label="fanout per dimension") ** ndim
    bins, e = data.draw(st.integers(1, 9), label="bins"), data.draw(st.integers(1, 5), label="e")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vals = {"normal": lambda: rng.normal(size=shape) * 50.0,
            "few": lambda: rng.integers(0, 4, size=shape).astype(float),
            "constant": lambda: np.full(shape, 2.5),
            "signed zeros": lambda: np.round(rng.normal(size=shape) * 0.01, 1)}[
        data.draw(st.sampled_from(["normal", "few", "constant", "signed zeros"]), label="values")]()
    vals[rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 0.9]), label="empty")] = np.nan
    store = ChunkStore.from_dense(_schema(shape, chunk), {"a": vals})
    slabs = None
    if grid[0] > 1 and data.draw(st.booleans(), label="append"):
        cut = data.draw(st.integers(1, grid[0] - 1), label="first slab, in chunks")
        slabs = (ChunkStore(store.schema.with_extents((cut * chunk[0],) + shape[1:]),
                            {c: ch for c, ch in store.chunks.items() if c[0] < cut}),
                 ChunkStore(store.schema, {c: ch for c, ch in store.chunks.items() if c[0] >= cut}))
    return store, dict(fanout=fanout, bins=bins, e=e), slabs


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_build_saves_only_what_its_load_reads(data):
    # the saved bytes load, under every rule of the load, and save again
    # unchanged, and a tree grown by an append saves the full build's bytes
    store, kw, slabs = _drawn_tree(data)
    built = build_index(store, **kw)
    buf = built.serialize()
    loaded = Index._parse(buf)
    assert loaded.serialize() == buf
    # z, extent, amin, amax, count, child, sp and al: as the build made them
    _same_tables(loaded, built)
    assert_weights_are_counts(built)
    if slabs is not None:
        grown = build_index(slabs[0], **kw)
        grown.append(slabs[1])
        assert grown.serialize() == buf
        _same_tables(loaded, grown)
        assert_weights_are_counts(grown)


def _same_node(got, want) -> None:
    """`got` is `want`, a `TreeNode`, field for field: of the same types,
    floats and arrays bit for bit, so signed zeros too."""
    for f in dataclasses.fields(TreeNode):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        if isinstance(b, Binning):
            a, b = (a.boundaries, a.weights), (b.boundaries, b.weights)
        elif isinstance(b, np.ndarray):
            a, b = (a,), (b,)
        else:
            assert a == b and repr(a) == repr(b), f.name  # repr tells -0.0 from 0.0
            continue
        for x, y in zip(a, b):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


def _made(idx) -> list:
    """The number of nodes made so far on each internal level of `idx`."""
    return [sum(node is not None for node in nodes) for nodes in idx._nodes[1:]]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_nodes_are_made_on_first_fetch_as_the_reference_makes_them(data):
    # a build, a load and an append make no node above the leaves; each
    # one `fetch` makes, in any order, is the reference's from the same
    # row, and a second fetch returns it unmade.  `levels` holds every
    # node of a level in z order, made or not
    store, kw, slabs = _drawn_tree(data)
    built = build_index(store, **kw)
    trees = [built, Index._parse(built.serialize())]
    if slabs is not None:
        grown = build_index(slabs[0], **kw)
        grown.root  # made before the append, and dropped by it
        grown.append(slabs[1])
        trees.append(grown)
    for idx in trees:
        if not idx.tables:  # every cell empty
            assert idx.levels == [] and idx.root is None and idx.node_count() == 0
            continue
        assert _made(idx) == [0] * idx.depth
        depth = idx.depth
        ref = [None] + [list(reference_nodes(idx, level, idx.tables[level]).values())
                        for level in range(1, depth + 1)]
        wanted = [(level, row) for level in range(1, depth + 1) for row in range(len(ref[level]))]
        order = data.draw(st.permutations(range(len(wanted))), label="fetch order")
        stats = QueryStats()
        for i in order:
            level, row = wanted[i]
            node = idx.fetch(level, row, stats)
            _same_node(node, ref[level][row])
            assert idx.fetch(level, row, stats) is node
        assert stats.nodes_fetched == 2 * len(wanted)
        assert sum(_made(idx)) == len(wanted)
        assert idx.node_count() == sum(cols["z"].size for cols in idx.tables)
        levels = idx.levels
        for level in range(1, depth + 1):
            nodes = levels[level]
            assert list(nodes) == [node.z for node in ref[level]] == idx.tables[level]["z"].tolist()
            assert all(node is idx.fetch(level, row) for row, node in enumerate(nodes.values()))
        assert idx.root is levels[-1][0] and idx.root.count == store.nonempty_total()
        assert list(levels[0].items()) == [(z, i) for i, z in
                                           enumerate(idx.tables[0]["z"].tolist())]
    # levels makes the nodes it returns, on a fresh tree too
    fresh = Index._parse(built.serialize())
    for level, nodes in enumerate(fresh.levels[1:], 1):
        for z, node in nodes.items():
            _same_node(node, built.levels[level][z])


def test_a_query_on_a_fresh_load_makes_exactly_the_nodes_it_fetches(tmp_path, monkeypatch):
    # the internal nodes a query makes are the ones its descent fetches;
    # `levels` makes the rest, and a second call returns the same objects
    store = ChunkStore.from_dense(_schema((64, 64), (4, 4)),
                                  {"a": np.random.default_rng(3).random((64, 64)) * 100})
    path = tmp_path / "grid.abix"
    build_index(store, fanout=16, bins=4).save(path)
    idx = Index.load(path, store=store)
    assert idx.depth == 2 and _made(idx) == [0, 0]
    fetched = record_fetches(monkeypatch)
    execute(idx, RawQuery(dims={"d0": (5, 20), "d1": (0, 9)}))
    made = {(level, node.z) for level, nodes in enumerate(idx._nodes[1:], 1)
            for node in nodes if node is not None}
    assert made == {(idx.depth - d, z) for d, z in fetched if d < idx.depth}
    assert 1 < len(made) < idx.node_count() - idx.tables[0]["z"].size
    levels = idx.levels
    assert _made(idx) == [cols["z"].size for cols in idx.tables[1:]]
    again = idx.levels
    for level in range(1, idx.depth + 1):
        made = idx._nodes[level]
        assert len(levels[level]) == len(again[level]) == len(made)
        assert all(a is b is c for a, b, c in zip(levels[level].values(), again[level].values(),
                                                  made))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_node_origin_from_the_extent_is_the_origin_of_the_z(data):
    # over full, loaded and appended trees, clipped at the array's edge and
    # with empty chunks: each internal node's origin from its extent is the
    # one its z decodes to, and the dimension masks read the same from both
    store, kw, slabs = _drawn_tree(data)
    built = build_index(store, **kw)
    trees = [built, Index._parse(built.serialize())]
    if slabs is not None:
        grown = build_index(slabs[0], **kw)
        grown.append(slabs[1])
        trees.append(grown)
    schema = store.schema
    dims = {name: tuple(sorted(data.draw(st.integers(-1, n), label=name) for _ in range(2)))
            for name, n in schema.dims}
    q = normalize(RawQuery(dims=dims), schema, (0.0, 0.0))
    for idx in trees:
        fo = idx.fanout
        for level, nodes in enumerate(idx.levels[1:], 1):
            for z, node in nodes.items():
                coords = zorder_decode(z, fo.ndim, fo.bits * (idx.depth - level))
                decoded = tuple(c * cs * fo.per_dim**level
                                for c, cs in zip(coords, schema.chunk_shape))
                assert idx.node_origin(level, node.extent) == decoded
                masks = dimension_match(node, q, idx.dimbitmaps, idx)
                with mock.patch.object(idx, "node_origin", lambda *_: decoded):
                    assert dimension_match(node, q, idx.dimbitmaps, idx) == masks


def _edited_value(data, col, row):
    """A drawn value for row `row` of a saved column `col`: for a float
    column NaN, an infinity, a zero of either sign or a neighbouring float,
    for an unsigned one 0, a neighbour or the type's largest; for either,
    the value of another row."""
    old = col[row]
    if col.dtype.kind == "f":
        probes = [np.nan, np.inf, -np.inf, 0.0, -0.0, np.nextafter(old, np.inf),
                  np.nextafter(old, -np.inf)]
    else:
        top = np.iinfo(col.dtype).max
        probes = [0, min(int(old) + 1, top), max(int(old) - 1, 0), top]
    if col.size > 1:
        probes.append(col[data.draw(st.integers(0, col.size - 1), label="other row")])
    return data.draw(st.sampled_from(probes), label="value")


def _drawn_queries(data, store):
    """Range queries and a value set whose bounds are values of the data,
    or the floats next to them, over drawn boxes."""
    values = np.unique(store.dense("a")[store.nonempty_dense()])
    near = st.sampled_from(values.tolist()).flatmap(
        lambda v: st.sampled_from([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]))
    queries = []
    for _ in range(3):
        lo, hi = sorted((data.draw(near, label="lo"), data.draw(near, label="hi")))
        dims = {}
        for d, extent in enumerate(store.schema.shape):
            if data.draw(st.booleans(), label=f"box on d{d}"):
                a, b = sorted(data.draw(st.integers(0, extent - 1)) for _ in range(2))
                dims[f"d{d}"] = (a, b)
        queries.append(RawQuery(attr_lo=lo, attr_hi=hi, dims=dims))
    queries.append(RawQuery(values=tuple(data.draw(near, label="set value") for _ in range(3))))
    return [normalize(raw, store.schema, None, "a") for raw in queries]


def _answers_as_a_full_scan(idx, queries):
    for query in queries:
        run = membership if len(query.attr_runs) > 1 else execute
        assert np.array_equal(run(idx, query).cell_ids(idx.store),
                              full_scan(idx.store, "a", query)), query


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_an_edited_saved_value_fails_at_load_or_changes_no_answer(data):
    # a small tree, of the whole array or of a first slab, saved; one value
    # of one saved column (z, amin, amax, count, nbins, a leaf's inner or
    # an internal boundary, a weight) set to a drawn value, under a CRC
    # written again.  Either the load or `attach` refuses the file, naming
    # a level, or the index answers every drawn query as a full scan does,
    # and so does the tree an append of the rest of the array grows.  A
    # leaf's value range made narrower is the one edit that only its
    # chunk's values refute (the `hierindex` module docstring): it is
    # checked to load or fail as any other, and its answers are not
    ndim = data.draw(st.integers(1, 3), label="ndim")
    chunk = tuple(data.draw(st.integers(1, 4)) for _ in range(ndim))
    grid = tuple(data.draw(st.integers(1, (24, 6, 3)[ndim - 1])) for _ in range(ndim))
    shape = tuple(g * c - data.draw(st.integers(0, c - 1)) for g, c in zip(grid, chunk))
    fanout = data.draw(st.sampled_from([2, 4]), label="fanout per dimension") ** ndim
    bins, e = data.draw(st.integers(1, 6), label="bins"), data.draw(st.integers(1, 3), label="e")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vals = {"normal": lambda: rng.normal(size=shape) * 50.0,
            "few": lambda: rng.integers(0, 4, size=shape).astype(float),
            "signed zeros": lambda: np.round(rng.normal(size=shape) * 0.01, 1)}[
        data.draw(st.sampled_from(["normal", "few", "signed zeros"]), label="values")]()
    vals[rng.random(shape) < data.draw(st.sampled_from([0.0, 0.5]), label="empty")] = np.nan
    store = ChunkStore.from_dense(_schema(shape, chunk), {"a": vals})
    cut = data.draw(st.integers(1, grid[0]), label="first slab, in chunks")
    first = ChunkStore(store.schema.with_extents((min(cut * chunk[0], shape[0]),) + shape[1:]),
                       {c: ch for c, ch in store.chunks.items() if c[0] < cut})
    idx = build_index(first, fanout=fanout, bins=bins, e=e)
    assume(idx.tables)
    raw = idx.serialize()
    columns = saved_columns(raw, idx._int_types(idx.depth))
    level = data.draw(st.integers(0, len(columns) - 1), label="level")
    name = data.draw(st.sampled_from([name for name, (_, _, n) in columns[level].items() if n]),
                     label="column")
    at, kind, n = columns[level][name]
    col = np.frombuffer(raw, kind, n, at)
    row = data.draw(st.integers(0, n - 1), label="row")
    old, new = col[row], _edited_value(data, col, row)
    edited = bytearray(raw)
    edited[at + kind.itemsize * row : at + kind.itemsize * (row + 1)] = np.array([new], kind).tobytes()
    struct.pack_into("<I", edited, 8, zlib.crc32(edited[12:], zlib.crc32(edited[:8])))
    try:
        loaded = Index._parse(bytes(edited))
        loaded.attach(first)
    except DataError as exc:
        assert re.match(r"level \d+: ", str(exc)), str(exc)
        return
    if level == 0 and (name == "amin" and new > old or name == "amax" and new < old):
        return
    _answers_as_a_full_scan(loaded, _drawn_queries(data, first))
    if cut < grid[0]:
        loaded.append(ChunkStore(store.schema,
                                 {c: ch for c, ch in store.chunks.items() if c[0] >= cut}))
        _answers_as_a_full_scan(loaded, _drawn_queries(data, store))


def _load_fails_on_metadata(tmp_path, capsys, change, field):
    # an index saved after `change(idx)` holds the bad field under a valid
    # CRC: its load, and a query through the CLI, fail naming the field
    vals = np.random.default_rng(5).random((16, 8))
    head = tmp_path / "arr.json"
    write_raw(head, _schema(vals.shape, (4, 4)), {"a": vals})
    idx = build_index(load_store(head), fanout=4, bins=4)
    types = idx._int_types(idx.depth)
    change(idx)
    path = tmp_path / "bad.abix"
    # the CRC covers the bad field; the tables keep the types of the good
    # fields, as no bad one gives a type
    with mock.patch.object(Index, "_int_types", lambda self, depth: types):
        path.write_bytes(idx.serialize())
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
