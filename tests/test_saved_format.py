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
from arraybit.chunkstore import ArraySchema, ChunkStore, Leaf, load_store, write_raw
from arraybit.cli import main
from arraybit.errors import DataError
from arraybit.hierindex import Fanout, Index, build_index
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

    monkeypatch.setattr(BitVector, "__init__", counted)
    loaded = Index.load(path, store=fresh.store)
    assert loaded.serialize() == path.read_bytes()
    assert not made
    _answers_like(loaded, fresh)


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


def _leave_out_a_leaf(idx):
    # a level-1 node's child mask and range masks leave out a leaf that is saved
    z, node = next(iter(idx.levels[1].items()))
    low = node.child_mask & -node.child_mask
    node.child_mask &= ~low
    node.sp_masks = [m & ~low for m in node.sp_masks]
    node.al_masks = [m & ~low for m in node.al_masks]
    return f"level 1: node {z} has a child mask"


def _drop_a_leaf(idx):
    # a level-1 node keeps the slot of a leaf that is not saved
    del idx.levels[0][next(iter(idx.levels[0]))]
    return "level 1: node 0 has a child mask"


def _drop_a_node(idx):
    # the leaves of a level-1 node that is not saved have no parent
    del idx.levels[1][0]
    return "level 0: node 0 has no parent 0 at level 1"


def _drop_every_child(idx):
    # a level-1 node whose leaves are none of them saved
    z = next(iter(idx.levels[1]))
    for leaf_z in [c for c in idx.levels[0] if c >> idx.fanout.slot_bits == z]:
        del idx.levels[0][leaf_z]
    return f"level 1: node {z} has no children"


def _more_bins_than_the_index_has(idx):
    # the build merges a node's bins down to the index's `bins` (8)
    z, node = next(iter(idx.levels[1].items()))
    node.binning = Binning(np.linspace(node.amin, node.amax, 11), np.ones(10))
    return f"level 1: node {z} has more than 8 bins"


def _count_five_less(idx):
    z, node = next(iter(idx.levels[1].items()))
    node.count -= 5
    return f"level 1: node {z} has a count other than the sum of its children's"


def _lower_amax(idx):
    z, node = next(iter(idx.levels[1].items()))
    node.amax = (node.amin + node.amax) / 2
    return f"level 1: node {z} has a value range other than its children's"


def _raise_amin(idx):
    z, node = next(iter(idx.levels[1].items()))
    node.amin = (node.amin + node.amax) / 2
    return f"level 1: node {z} has a value range other than its children's"


def _drop_a_child_from_the_sp_masks(idx):
    z, node = next(iter(idx.levels[1].items()))
    node.sp_masks = [m & ~(node.child_mask & -node.child_mask) for m in node.sp_masks]
    return f"level 1: node {z} has sp masks other than its children's amin give"


def _drop_a_child_from_the_al_masks(idx):
    z, node = next(iter(idx.levels[1].items()))
    node.al_masks = [m & ~(node.child_mask & -node.child_mask) for m in node.al_masks]
    return f"level 1: node {z} has al masks other than its children's amax give"


def _amin_above_amax(idx):
    z, node = list(idx.levels[1].items())[5]
    node.amin = node.amax + 1.0
    return f"level 1: node {z} has amin above amax"


def _extent_past_the_array(idx):
    z, node = list(idx.levels[1].items())[-1]
    node.extent = tuple((lo, hi + 1) for lo, hi in node.extent)
    return f"level 1: node {z} has an extent outside the array"


def _first_node_saved_last(idx):
    nodes = idx.levels[1]
    nodes[0] = nodes.pop(0)
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
        ["drop", "child", "count", "amin", "amax", "extent", "sp_masks", "al_masks"]))
    internal = change in ("child", "sp_masks", "al_masks")
    level = data.draw(st.integers(int(internal), idx.depth - (change == "drop")))
    nodes = idx.levels[level]
    z = data.draw(st.sampled_from(sorted(nodes)))
    node = nodes[z]
    slot = data.draw(st.integers(0, idx.fanout.total - 1))
    if change == "drop":
        del nodes[z]
        fields = {}
    elif change == "child":
        fields = {"child_mask": node.child_mask ^ 1 << slot}
    elif change == "count":
        fields = {"count": node.count + data.draw(st.sampled_from([-1, 1]))}
    elif change in ("amin", "amax"):
        fields = {change: getattr(node, change) + data.draw(st.sampled_from([-0.5, 0.5]))}
    elif change == "extent":
        d, side = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
        ext = [list(e) for e in node.extent]
        ext[d][side] += 1 - 2 * side  # a low bound up or a high bound down
        fields = {"extent": tuple(map(tuple, ext))}
    else:
        table = list(getattr(node, change))
        table[data.draw(st.integers(0, len(table) - 1))] ^= 1 << slot
        fields = {change: table}
    if isinstance(node, Leaf) and fields:  # a dropped leaf stays dropped
        nodes[z] = node._replace(**fields)
    else:
        for name, value in fields.items():
            setattr(node, name, value)
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


@pytest.mark.parametrize("field, value", [
    ("attribute", "b"), ("fanout", -2), ("fanout", 3), ("fanout", 1), ("bins", "x"),
    ("bins", 0), ("bins", 2.5), ("e", 0), ("e", True),
])
def test_bad_metadata_under_a_valid_crc_fails_with_data_error(field, value, tmp_path, capsys):
    vals = np.random.default_rng(5).random((16, 8))
    schema = _schema(vals.shape, (4, 4))
    head = tmp_path / "arr.json"
    write_raw(head, schema, {"a": vals})
    idx = build_index(load_store(head), fanout=4, bins=4)
    setattr(idx, field, Fanout(value, schema.ndim) if field == "fanout" else value)
    path = tmp_path / "bad.abix"
    path.write_bytes(idx.serialize())  # the CRC covers the bad field
    with pytest.raises(DataError, match="metadata"):
        Index.load(path)
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--data", str(head), "--where", "b >= 0"]) == 2
    assert "metadata" in capsys.readouterr().err
