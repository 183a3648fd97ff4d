"""Shared helpers for building randomized stores, indexes and queries."""

import math
import struct
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from arraybit.binning import Binning, wsse
from arraybit.baseline import BinnedBitmapIndex
from arraybit.bitvec import BitVector
from arraybit.chunkstore import (
    ArraySchema,
    Block,
    Chunk,
    ChunkStore,
    ChunkTable,
    leaf_query,
    query_cover,
    run_matcher,
)
from arraybit.errors import DataError, InputError
from arraybit.hierindex import Fanout, Index, TreeNode, _masks, build_index
from arraybit.query import RawQuery, _descend


def bin_of(binning: Binning, values) -> np.ndarray:
    """Bin index per value; values equal to the max land in the last bin."""
    idx = np.searchsorted(binning.boundaries, np.asarray(values), side="right") - 1
    return np.clip(idx, 0, binning.nbins - 1)


def ingest_csv(path, schema: ArraySchema) -> ChunkStore:
    """Load `d_1,...,d_n,a_1,...,a_m` lines (header row optional)."""
    path = Path(path)
    ncoords = schema.ndim
    names = [n for n, _ in schema.attributes]
    data = {
        name: np.full(schema.shape, schema.empty_value(name),
                      np.float64 if typ == "float64" else np.int64)
        for name, typ in schema.attributes
    }
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and not _is_number(parts[0]):
                continue  # header row
            if len(parts) != ncoords + len(names):
                raise DataError(f"{path}:{lineno}: expected {ncoords + len(names)} fields")
            try:
                cell = tuple(int(p) for p in parts[:ncoords])
                for name, raw in zip(names, parts[ncoords:]):
                    if raw != "":
                        data[name][cell] = float(raw)
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return ChunkStore.from_dense(schema, data)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def lone_chunk(coords, offsets, values: dict, nonempty) -> Chunk:
    """A chunk over a one-row block of its own, holding copies of `values`
    and `nonempty` (arrays of the chunk's shape)."""
    nonempty = np.array(nonempty, bool)
    block = Block(nonempty.shape, {n: np.array(v).reshape(1, -1) for n, v in values.items()},
                  nonempty.reshape(1, -1))
    return Chunk(block, 0, coords, offsets)


def random_store(rng, shape, chunk, sparsity=0.0, attr="a"):
    """Random float array with optional NaN holes, chunked."""
    vals = rng.normal(size=shape) * 50.0
    if sparsity > 0:
        vals[rng.random(shape) < sparsity] = np.nan
    schema = ArraySchema(
        tuple((f"d{i}", e) for i, e in enumerate(shape)),
        ((attr, "float64"),),
        tuple(chunk),
    )
    return ChunkStore.from_dense(schema, {attr: vals})


def random_index(rng, shape, chunk, sparsity=0.0, **kw):
    store = random_store(rng, shape, chunk, sparsity)
    return store, build_index(store, **kw)


def random_dim_set(rng, extent):
    """A dimension value set of 1-4 random stretches of 1-3 indices, at
    times with a member past the extent."""
    out = set()
    for _ in range(int(rng.integers(1, 5))):
        a = int(rng.integers(0, extent))
        out.update(range(a, min(a + int(rng.integers(1, 4)), extent)))
    if rng.random() < 0.2:
        out.add(extent + int(rng.integers(0, 3)))
    return out


def random_raw_query(rng, schema, amin, amax, kind="mixed"):
    """A plausible query; `kind` picks range / one-sided / membership for
    the attribute, a membership set about half the time with a range or one
    side of one too.  A dimension gets a range, a value set or nothing."""
    raw = RawQuery()
    span = amax - amin
    if kind == "membership":
        k = int(rng.integers(1, 6))
        raw.values = tuple(float(amin + span * rng.random()) for _ in range(k))
    if kind != "membership" or rng.random() < 0.5:
        style = int(rng.integers(0, 4))
        lo = amin + span * rng.random() * 0.8
        hi = lo + span * rng.random() * 0.6
        if style == 0:
            raw.attr_lo, raw.attr_hi = lo, hi
        elif style == 1:
            raw.attr_lo = lo
        elif style == 2:
            raw.attr_hi = hi
        # style 3: no attribute constraint
    for name, extent in schema.dims:
        r = rng.random()
        if r < 0.5:
            a = int(rng.integers(0, extent))
            b = int(rng.integers(a, extent))
            raw.dims[name] = (a, b)
        elif r < 0.7:
            raw.dim_values[name] = random_dim_set(rng, extent)
    return raw


def region_cells_satisfy(store, attribute, extent, query):
    """Oracle check that every non-empty cell in a complete region, of
    `extent`, matches."""
    import itertools

    cs = store.schema.chunk_shape
    ranges = [range(lo // c, hi // c + 1) for (lo, hi), c in zip(extent, cs)]
    for coords in itertools.product(*ranges):
        chunk = store.chunks.get(coords)
        if chunk is None:
            continue
        vals = chunk.values[attribute][chunk.nonempty]
        if vals.size == 0:
            continue
        hit = np.zeros(vals.shape, bool)
        for lo, hi in query.attr_runs:
            hit |= (vals >= lo) & (vals <= hi)
        if not hit.all():
            return False
        for d, runs in enumerate(query.dim_ranges):
            idx = np.arange(chunk.shape[d]) + chunk.offsets[d]
            shape = [1] * store.schema.ndim
            shape[d] = -1
            covered = np.zeros(idx.size, bool)
            for qlo, qhi in runs:
                covered |= (idx >= qlo) & (idx <= qhi)
            if not covered.all():
                # cells outside the dim range must all be empty
                outside = chunk.nonempty & ~covered.reshape(shape)
                if outside.any():
                    return False
    return True


def complete_ids(store, rs):
    """Ids of the non-empty cells inside the complete nodes of a result
    set, from a mask over the dense array."""
    inside = np.zeros(store.schema.shape, bool)
    for node in rs.complete:
        inside[tuple(slice(lo, hi + 1) for lo, hi in node_extent(rs.leaves, node))] = True
    return np.flatnonzero(inside & store.nonempty_dense())


def node_extent(leaves, node) -> tuple:
    """The extent of a node of the descent: an internal node's own, or a
    leaf's, given as its row of the leaf table `leaves`."""
    if type(node) is int:
        return tuple(map(tuple, leaves["extent"][node].tolist()))
    return node.extent


def node_count(leaves, node) -> int:
    """The non-empty count of a node of the descent (see `node_extent`)."""
    return int(leaves["count"][node]) if type(node) is int else node.count


def record_fetches(monkeypatch) -> list:
    """Wrap `Index.fetch` as the benchmark's tracer does; the returned list
    gets (depth - level, z) of every fetch, in order, the z read from the
    row fetched."""
    fetched = []
    fetch = Index.fetch

    def recorded(self, level, row, stats=None):
        fetched.append((self.depth - level, int(self.tables[level]["z"][row])))
        return fetch(self, level, row, stats)

    monkeypatch.setattr(Index, "fetch", recorded)
    return fetched


def leaf_table(children) -> dict:
    """A leaf table of `(slot, child)` pairs in slot order: z is the slot,
    the extent ((0, 0),), and a child is (amin, amax, count), a plain leaf,
    or (amin, amax, count, binning)."""
    binnings = [c[3] if len(c) > 3 else None for _, c in children]
    binned = [b for b in binnings if b is not None]
    return {
        "z": np.array([slot for slot, _ in children], "<u8"),
        "extent": np.zeros((len(children), 1, 2), "<u8"),
        "amin": np.array([c[0] for _, c in children], float),
        "amax": np.array([c[1] for _, c in children], float),
        "count": np.array([c[2] for _, c in children], "<u8"),
        "nbins": np.array([0 if b is None else b.nbins for b in binnings], "<u4"),
        "bounds": np.concatenate([np.empty(0)] + [b.boundaries for b in binned]),
        "weights": np.concatenate([np.empty(0)] + [b.weights for b in binned]),
    }


def build_parent(children, fanout: Fanout, bins: int):
    """The one internal node over `(slot, child)` pairs (`leaf_table`),
    made by the tree's own level build (`Index._level_above`) with the
    children as the leaves of a depth-1 tree."""
    idx = Index(None, None, "a", fanout, bins, 4, [])
    leaves = leaf_table(children)
    idx._use([leaves, idx._level_above(leaves, None, np.empty(0, "<u8"))])
    return idx.root  # made on this first read


def reference_nodes(idx, level: int, cols: dict) -> dict:
    """Every `TreeNode` of internal level `level` of `idx` by z, made at
    once from the level's columns: the reference the nodes the index makes
    on first fetch are compared with.  A node's `first` is found by its z:
    the row of the first z of the level below at or past z << slot bits."""
    nb = cols["nbins"].astype(np.int64)
    # where each node's part of each column starts, and the next's
    bo, wo = (np.concatenate(([0], np.cumsum(k))).tolist() for k in (nb + 1, nb))
    bounds, weights = cols["bounds"], cols["weights"]
    mb = -(-idx.fanout.total // 8)
    child = _masks(cols["child"], mb)
    sp_masks, al_masks = _masks(cols["sp"], mb), _masks(cols["al"], mb)
    z = cols["z"].tolist()
    first = np.searchsorted(idx.tables[level - 1]["z"], cols["z"] << idx.fanout.slot_bits)
    ext = (tuple(map(tuple, e)) for e in cols["extent"].tolist())
    nodes = {}
    for i, (zi, f, e, lo, hi, n) in enumerate(zip(z, first.tolist(), ext,
                                                  cols["amin"].tolist(), cols["amax"].tolist(),
                                                  cols["count"].tolist())):
        r = slice(bo[i], bo[i + 1])
        b = bounds[r]
        nodes[zi] = TreeNode(
            level=level, z=zi, first=f, extent=e, amin=lo, amax=hi, count=n,
            child_mask=child[i], binning=Binning.prevalidated(b, weights[wo[i] : wo[i + 1]]),
            sp_bounds=b, sp_masks=sp_masks[r], al_bounds=b, al_masks=al_masks[r],
        )
    return nodes


def assert_weights_are_counts(idx):
    """The rules a load holds saved bin weights to, node by node: a leaf's
    are integers >= 0 summing exactly to its count, an internal node's are
    finite, >= 0 and sum to its count within a relative 1e-12."""
    for level, cols in enumerate(idx.tables):
        k = cols["nbins"].astype(int)
        start = np.cumsum(k) - k
        for z, n, at, count in zip(cols["z"].tolist(), k.tolist(), start.tolist(),
                                   cols["count"].tolist()):
            w = cols["weights"][at : at + n].tolist()
            where = f"level {level} node {z}"
            assert all(math.isfinite(x) and x >= 0 for x in w), where
            if level == 0:
                assert all(x == int(x) for x in w), where
                assert not n or sum(int(x) for x in w) == count, where
            else:
                assert abs(math.fsum(w) - count) <= 1e-12 * count, where


def saved_columns(raw: bytes, types: dict) -> list:
    """Where each column of each level of a version-5 index file lies,
    read by hand from the layout of the `hierindex` module docstring: per
    level, leaves first, a dict of name -> (byte offset, dtype, length).
    `types` are the saved integer types (`Index._int_types`).  A leaf's
    `bounds` are the inner boundaries its file holds."""
    _, version, _, nlevels, _ = struct.unpack_from("<4sIIIQ", raw)
    assert version == 5
    out = []
    for level in range(nlevels):
        n, at, size = struct.unpack_from("<QQQ", raw, 24 + 24 * level)
        cols, end = {}, at + size
        kinds = {"nbins": types["nbins"], "bounds": "<f8",
                 "weights": "<f8" if level else types["count"]}
        if not level:
            kinds = {"z": types["z"], "amin": "<f8", "amax": "<f8", "count": types["count"],
                     **kinds}
        for name, dtype in kinds.items():
            dtype, length = np.dtype(dtype), n
            if name in ("bounds", "weights"):
                k = np.frombuffer(raw, cols["nbins"][1], n, cols["nbins"][0]).astype(int)
                binned = int(np.count_nonzero(k)) if name == "bounds" else 0
                length = int(k.sum()) + (binned if level else -binned)
            cols[name] = (at, dtype, length)
            at += dtype.itemsize * length
            at += -at % 8
        assert at == end, level
        out.append(cols)
    return out


def assert_strictly_increasing(trace):
    for a, b in zip(trace, trace[1:]):
        assert b > a, f"trace not strictly increasing: {a} -> {b}"


def reference_bitvector_bytes(bits) -> bytes:
    """Plain-Python encoder of the layout documented in `arraybit.bitvec`.

    Bit i goes to bit i % 63 of group i // 63.  A run of two or more equal
    all-zero or all-one groups becomes one fill word (bit 63 set, bit 62 the
    fill value, bits 0..61 the run length); every other group is a literal
    word.  The header is the bit count and the word count, little-endian
    u64 each.
    """
    bits = [bool(b) for b in bits]
    groups = []
    for start in range(0, len(bits), 63):
        word = 0
        for k, bit in enumerate(bits[start : start + 63]):
            if bit:
                word |= 1 << k
        groups.append(word)
    ones = (1 << 63) - 1
    words = []
    i = 0
    while i < len(groups):
        run = 1
        while i + run < len(groups) and groups[i + run] == groups[i]:
            run += 1
        if groups[i] in (0, ones) and run >= 2:
            words.append(1 << 63 | (1 << 62 if groups[i] == ones else 0) | run)
            i += run
        else:
            words.append(groups[i])
            i += 1
    return struct.pack(f"<QQ{len(words)}Q", len(bits), len(words), *words)


# ---------------------------------------------------------------------------
# references of the array Z-order codec


def reference_zorder_encode_many(coords, bits: int) -> np.ndarray:
    """`hierindex.zorder_encode_many` of coordinates that fit, one numpy
    pass per bit of each dimension."""
    coords = np.asarray(coords, np.int64)
    ndim = coords.shape[1]
    z = np.zeros(coords.shape[0], np.int64)
    for t in range(bits):
        for d in range(ndim):
            z |= (coords[:, d] >> t & 1) << (t * ndim + d)
    return z


def zorder_encode(coords, bits: int) -> int:
    """Interleave coordinates; dimension 0 takes the least significant slot."""
    z = 0
    n = len(coords)
    for d, c in enumerate(coords):
        c = int(c)
        if c < 0 or c >= (1 << bits):
            raise InputError(f"coordinate {c} does not fit in {bits} bits")
        for t in range(bits):
            if c >> t & 1:
                z |= 1 << (t * n + d)
    return z


def zorder_decode(z: int, ndim: int, bits: int) -> tuple:
    coords = [0] * ndim
    for t in range(bits):
        for d in range(ndim):
            if z >> (t * ndim + d) & 1:
                coords[d] |= 1 << t
    return tuple(coords)


# ---------------------------------------------------------------------------
# per-chunk reference of the batched leaf builder

_finite = st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: v + 0.0)
_special = st.sampled_from([0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1e-310, 1.0, 1e300])


@st.composite
def value_pool(draw, integer: bool):
    """The distinct values a store draws its cells from."""
    if integer:
        return np.array(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=40)), np.int64)
    base = draw(st.lists(st.one_of(_finite, _special), min_size=1, max_size=30))
    pool = []
    for v in base:
        pool.append(v)
        for _ in range(draw(st.integers(0, 3))):  # a run of adjacent floats
            # + 0.0: the float after -5e-324 is -0.0, drawn as +0.0 like `_finite`'s
            pool.append(float(np.nextafter(pool[-1], np.inf)) + 0.0)
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from([np.inf, -np.inf])))
    return np.array(pool)


def equi_width(lo: float, hi: float, k: int) -> Binning:
    """k equal-width bins spanning [lo, hi]; weights start at zero."""
    if k < 1:
        raise InputError("bin count must be >= 1")
    if not lo < hi:
        raise InputError(f"degenerate domain [{lo}, {hi}]")
    return Binning(np.linspace(lo, hi, k + 1), np.zeros(k))


def merged_weight(source: Binning, lo: float, hi: float) -> float:
    """Weight of [lo, hi] assuming uniform value distribution inside bins."""
    b = source.boundaries
    w = source.weights
    if source.nbins == 1 and b[0] == b[1]:
        return float(w[0]) if lo <= b[0] <= hi else 0.0
    width = np.diff(b)
    overlap = np.minimum(hi, b[1:]) - np.maximum(lo, b[:-1])
    frac = np.clip(overlap, 0.0, None) / width
    return float(frac @ w)


def reference_equi_depth(values, counts, k: int) -> Binning:
    """Equi-depth bins of one (value, count) histogram, one value at a time
    in float arithmetic: the definition `equi_depth_exact` must match."""
    values = np.asarray(values, np.float64)
    counts = np.asarray(counts, np.float64)
    m = values.size
    if m == 1:
        return Binning(np.array([values[0], values[0]]), counts.copy())
    if m <= k:
        cuts = np.arange(1, m)  # one bin per value
    else:
        cum = np.cumsum(counts)
        targets = cum[-1] * np.arange(1, k) / k
        cuts = np.searchsorted(cum, targets, side="left") + 1
        cuts = np.unique(np.clip(cuts, 1, m - 1))
    mids = np.unique((values[cuts - 1] + values[cuts]) / 2.0)
    mids = mids[(mids > values[0]) & (mids < values[-1])]
    boundaries = np.concatenate(([values[0]], mids, [values[-1]]))
    binning = Binning(boundaries, np.zeros(boundaries.size - 1))
    weights = np.bincount(bin_of(binning, values), weights=counts, minlength=binning.nbins)
    return Binning(boundaries, weights)


def bitvector_from_positions(positions, length: int) -> BitVector:
    """The vector of `length` bits with exactly `positions` set."""
    pos = np.asarray(positions, dtype=np.int64).ravel()
    if pos.size:
        if pos.min() < 0:
            raise InputError("bit position is negative")
        if pos.max() >= length:
            raise InputError(
                f"bit position {int(pos.max())} out of range for length {length}"
            )
    dense = np.zeros(length, bool)
    dense[pos] = True
    return BitVector.from_dense(dense)


def bitvector_of_bytes(raw: bytes) -> BitVector:
    """The vector whose `to_bytes` form is `raw`: its header's bit count and
    the words after it, taken as they are."""
    n, nwords = struct.unpack_from("<QQ", raw)
    assert len(raw) == 16 + 8 * nwords
    return BitVector(n, np.frombuffer(raw, "<u8", nwords, 16))


def _reference_vector(bits) -> BitVector:
    return bitvector_of_bytes(reference_bitvector_bytes(bits))


def reference_bins(live, bins: int) -> tuple:
    """The equi-depth binning of one column's live values, from their
    (value, count) histogram, and the least and greatest value of each bin:
    (inf, -inf) for an empty one."""
    uticks, ucounts = np.unique(live, return_counts=True)
    binning = reference_equi_depth(uticks, ucounts, bins)
    k = binning.nbins
    ubins = bin_of(binning, uticks)
    span_lo = np.full(k, np.inf)
    span_hi = np.full(k, -np.inf)
    np.minimum.at(span_lo, ubins, uticks)
    np.maximum.at(span_hi, ubins, uticks)
    return binning, span_lo, span_hi


def reference_binned(values, nonempty, bins: int, encoding: str) -> BinnedBitmapIndex:
    """One column indexed bitmap by bitmap, each encoded on its own."""
    live = values[nonempty]
    binning, span_lo, span_hi = reference_bins(live, bins)
    k = binning.nbins
    binidx = np.full(values.shape, -1, np.int64)
    binidx[nonempty] = bin_of(binning, live)
    if encoding == "equality":
        windows = [(j, j) for j in range(k)]
    elif encoding == "range":
        windows = [(0, j) for j in range(k - 1)]
    else:
        m = -(-k // 2)
        windows = [(s, s + m - 1) for s in range(m)]
    bitmaps = [_reference_vector((binidx >= lo) & (binidx <= hi)) for lo, hi in windows]
    return BinnedBitmapIndex(binning, encoding, span_lo, span_hi, _reference_vector(nonempty),
                             bitmaps)


def chunk_extent(chunk) -> tuple:
    """The inclusive (lo, hi) cells of a chunk per dimension, from its
    offsets and its clipped shape."""
    return tuple((o, o + s - 1) for o, s in zip(chunk.offsets, chunk.shape))


def chunk_table(chunks) -> ChunkTable:
    """The :class:`ChunkTable` of a list of chunks, at their coordinates."""
    return ChunkTable.of([c.coords for c in chunks], chunks, len(chunks[0].coords))


def table_entries(table: ChunkTable) -> dict:
    """A chunk table as a map of coordinates to (block, row, count)."""
    return {tuple(c): (table.blocks[b], r, n) for c, b, r, n in
            zip(table.coords.tolist(), table.block.tolist(), table.row.tolist(),
                table.count.tolist())}


def leaf_row(leaves, chunk) -> int:
    """The row of `chunk`'s leaf in the rows `build_leaf_index` returns,
    found by its coordinates; exactly one row must hold them."""
    rows = np.flatnonzero((leaves["coords"] == chunk.coords).all(axis=1))
    assert rows.size == 1, chunk.coords
    return int(rows[0])


def reference_leaf(chunk, attr: str, bins: int, e: int = 4):
    """The leaf of one chunk as a one-row leaf table without z: None when
    empty, a plain leaf below e*bins non-empty cells, else a leaf with the
    reference binning, its amin and amax the least and greatest value of
    its bins."""
    if chunk.nonempty_count == 0:
        return None
    live = chunk.values[attr][chunk.nonempty]
    if chunk.nonempty_count < e * bins:
        amin, amax, binning = float(live.min()), float(live.max()), None
    else:
        binning, span_lo, span_hi = reference_bins(live, bins)
        amin, amax = float(span_lo[0]), float(span_hi[-1])
    return {
        "extent": np.array([chunk_extent(chunk)], "<u8"),
        "amin": np.array([amin]),
        "amax": np.array([amax]),
        "count": np.array([chunk.nonempty_count], "<u8"),
        "nbins": np.array([0 if binning is None else binning.nbins], "<u4"),
        "bounds": np.empty(0) if binning is None else binning.boundaries,
        "weights": np.empty(0) if binning is None else binning.weights,
    }


def leaf_binning(leaves, row: int):
    """The bins of the leaf at `row` of a leaf table as a Binning, None for
    a plain leaf."""
    k = leaves["nbins"].astype(int)
    if not k[row]:
        return None
    b = int((k[:row] + (k[:row] > 0)).sum())
    w = int(k[:row].sum())
    return Binning(leaves["bounds"][b : b + k[row] + 1], leaves["weights"][w : w + k[row]])


def resolve_leaf(chunk, leaf, attr: str, runs, dim_runs, stats=None, match=None):
    """One leaf, a one-row leaf table, resolved alone by the batched
    `leaf_query`: the chunk's hits inside the query's box (per dimension
    from the first run's low to the last run's high end, clipped to the
    chunk), as an array of the box's shape.  `dim_runs` are in array
    coordinates, None for the chunk's whole extent.  The default matcher
    is the query's over the leaf's own value range and cells."""
    local, box = [], []
    for r, o, s in zip(dim_runs, chunk.offsets, chunk.shape):
        r = ((0, s - 1),) if r is None else tuple((a - o, b - o) for a, b in r)
        local.append(tuple((max(a, 0), min(b, s - 1)) for a, b in r if b >= 0 and a < s))
        lo = min(max(r[0][0], 0), s)
        box.append(slice(lo, min(max(r[-1][1] + 1, lo), s)))
    box = tuple(box)
    if not all(local):
        return np.zeros(chunk.nonempty[box].shape, bool)
    if match is None:
        match = run_matcher(runs, chunk.values[attr].dtype.kind == "i", float(leaf["amin"][0]),
                            float(leaf["amax"][0]), math.prod(chunk.shape))
    # the chunk as an array of one tile
    cover = query_cover(local, chunk.shape, chunk.shape)
    at = tuple(np.zeros(1, np.intp) for _ in chunk.shape)
    leaf_query(chunk.block, np.array([chunk.row]), at, leaf, attr, runs, match, cover, stats)
    return cover.answer[box]


def reference_leaf_stats(index, query) -> tuple:
    """(leaves_scanned, candidate_checks) of one query by their per-leaf
    definitions: a partial leaf of the descent is scanned when some run
    meets its [amin, amax] and none covers it, and a scanned leaf's
    candidates are its chunk's non-empty cells inside the query's
    dimension runs."""
    runs = query.attr_runs
    leaves = index.tables[0]
    scanned = checks = 0
    for row in _descend(index, query, index.depth)[1]:
        amin, amax = leaves["amin"][row], leaves["amax"][row]
        meets = [(lo, hi) for lo, hi in runs if hi >= amin and lo <= amax]
        if not meets or any(lo <= amin and amax <= hi for lo, hi in meets):
            continue
        chunk = index.store.chunks[index.leaf_coords([row])[0]]
        inside = chunk.nonempty.copy()
        for d, dim_runs in enumerate(query.dim_ranges):
            at = np.arange(chunk.shape[d]) + chunk.offsets[d]
            keep = np.zeros(at.size, bool)
            for a, b in dim_runs:
                keep |= (at >= a) & (at <= b)
            inside &= keep.reshape([-1 if i == d else 1 for i in range(inside.ndim)])
        scanned += 1
        checks += int(np.count_nonzero(inside))
    return scanned, checks


def _reference_initial_selection(boundaries: np.ndarray, bins: int) -> np.ndarray:
    """Pick bins+1 distinct source boundaries nearest an equal-width grid.

    The grid runs between the first and last finite boundaries; an infinite
    first or last boundary stays the grid's end.
    """
    nb = boundaries.size - 1
    finite = boundaries[np.isfinite(boundaries)]
    targets = np.linspace(finite[0], finite[-1], bins + 1)
    targets[0], targets[-1] = boundaries[0], boundaries[-1]
    chosen: list[int] = []
    used = np.zeros(nb + 1, bool)
    for t in targets:
        dist = np.abs(np.subtract(boundaries, t, where=boundaries != t, out=np.zeros(nb + 1)))
        idx = int(np.argmin(np.where(used, np.inf, dist)))
        used[idx] = True
        chosen.append(idx)
    return np.array(sorted(chosen))


def reference_merge_bins_iterative(source: Binning, bins: int, trace: list | None = None):
    """`merge_bins_iterative` as first written, one full-array pass per
    grid point of the equal-width start and a set difference per step: the
    boundaries, weights and trace the package must reproduce bit for bit.

    Select an approximately equi-depth subset of the source boundaries.

    Starts from an equal-width selection, then repeatedly performs the most
    beneficial bin split together with the cheapest disjoint merge while the
    weighted sum square error strictly decreases.  Each accepted step keeps
    the bin count constant, so the result has exactly min(bins, |source|)
    bins and its boundaries are a subset of the source boundaries.
    """
    nb = source.nbins
    if nb <= bins:
        if trace is not None:
            trace.append(wsse(source))
        return source
    cumw = np.concatenate(([0.0], np.cumsum(source.weights)))
    total = cumw[-1]
    share = total / bins
    bounds = source.boundaries

    sel = _reference_initial_selection(bounds, bins)

    def sel_weights(s):
        return np.diff(cumw[s])

    def err(w):
        return (w - share) ** 2

    cur = float(err(sel_weights(sel)).sum())
    if trace is not None:
        trace.append(cur)

    max_iters = 10 * nb
    for _ in range(max_iters):
        w = sel_weights(sel)
        # candidate splits: every unselected source boundary, evaluated in place
        cand = np.setdiff1d(np.arange(nb + 1), sel, assume_unique=True)
        if cand.size == 0:
            break
        owner = np.searchsorted(sel, cand) - 1  # bin each cut falls into
        w1 = cumw[cand] - cumw[sel[owner]]
        w2 = w[owner] - w1
        d_split = err(w1) + err(w2) - err(w[owner])
        best = np.lexsort((bounds[cand], d_split))[0]  # ties: lower boundary value
        split_cut = cand[best]
        split_bin = owner[best]
        split_gain = d_split[best]

        # candidate merges: adjacent selected pairs not touching the split bin
        pair = np.arange(bins - 1)
        pair = pair[(pair != split_bin) & (pair + 1 != split_bin)]
        if pair.size == 0:
            break
        d_merge = err(w[pair] + w[pair + 1]) - err(w[pair]) - err(w[pair + 1])
        bestm = np.lexsort((bounds[sel[pair + 1]], d_merge))[0]
        merge_pair = pair[bestm]
        merge_cost = d_merge[bestm]

        new = cur + float(split_gain + merge_cost)
        if not new < cur:  # accept only a strict improvement
            break
        sel = np.sort(np.concatenate((np.delete(sel, merge_pair + 1), [split_cut])))
        cur = new
        if trace is not None:
            trace.append(cur)

    return Binning(bounds[sel], sel_weights(sel))


def reference_spread_weights(bounds, kids) -> np.ndarray:
    """Internal-node bin weights over `bounds`, child by child: np.interp of
    each child's cumulative bin weights (non-finite points placed by their
    fraction of the bin), added in child order; a point-mass child adds its
    weight to the one bin holding it.  `kids` is the children's leaf
    table; a plain child is one bin [amin, amax] of weight count."""
    weights = np.zeros(bounds.size - 1)
    for i in range(kids["amin"].size):
        cb = leaf_binning(kids, i)
        if cb is None:
            cb = Binning(np.array([kids["amin"][i], kids["amax"][i]]),
                         np.array([float(kids["count"][i])]))
        if cb.boundaries[0] == cb.boundaries[-1]:
            j = min(int(np.searchsorted(bounds, cb.boundaries[0], side="right")) - 1,
                    bounds.size - 2)
            weights[j] += float(cb.weights.sum())
            continue
        cum = np.concatenate(([0.0], np.cumsum(cb.weights)))
        cdf = np.interp(bounds, cb.boundaries, cum)
        bad = ~np.isfinite(cdf)
        if bad.any():
            x = bounds[bad]
            j = np.clip(np.searchsorted(cb.boundaries, x, side="right") - 1, 0, cb.nbins - 1)
            lo, hi = cb.boundaries[j], cb.boundaries[j + 1]
            cdf[bad] = cum[j] + cb.weights[j] * np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        weights += np.diff(cdf)
    return weights


# ---------------------------------------------------------------------------
# whole-grid reference of the blocked Gaussian field


def reference_field_values(mus, sigmas, shape) -> np.ndarray:
    """The density sum evaluated term by term on whole-grid arrays: the
    bits `datagen.field_values` must reproduce."""
    d = len(shape)
    out = np.zeros(shape)
    axes = [
        np.arange(shape[k]).reshape([-1 if j == k else 1 for j in range(d)])
        for k in range(d)
    ]
    for mu, sigma in zip(mus, sigmas):
        inv = np.linalg.inv(sigma)
        norm = (2.0 * np.pi) ** (-d / 2.0) * np.linalg.det(sigma) ** -0.5
        q = np.zeros(shape)
        diffs = [axes[k] - mu[k] for k in range(d)]
        for j in range(d):
            q = q + inv[j, j] * diffs[j] * diffs[j]
            for k in range(j + 1, d):
                q = q + 2.0 * inv[j, k] * diffs[j] * diffs[k]
        out += norm * np.exp(-q / 2.0)
    return out
