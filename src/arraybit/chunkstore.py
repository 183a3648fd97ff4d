"""Array data model: schema, regular grid chunking, ingestion, the leaf
of each chunk and the batched resolution of partial leaves.

A store keeps its chunks in blocks (:class:`Block`): the chunks of one
shape are rows of one contiguous (chunks, cells) array per attribute, with
one non-empty mask of the same shape beside them.  A `Chunk` is a
read-only view of its row, and a store made from the chunks of others
shares their blocks.  A store also gives its chunks as arrays, each one's
grid coordinates, block, row and count (:class:`ChunkTable`), which the
index joins with its leaves by z, so that attaching a store and grouping
leaves by block take no Python step per chunk.

A chunk's leaf is the index tree's level-0 node: a row of the leaf
table, which holds per leaf the chunk's value range, its non-empty count
and, above a size threshold, the equi-depth bins of its values, which
feed its parent's merged bins.  :func:`build_leaf_index` makes the rows
of a block's chunks together, as columns, keyed by their chunks' grid
coordinates; the tree adds z and the extent.  Each leaf depends on its
own chunk alone, so the build sorts its batches of rows on a pool of one
thread per CPU the process may run on: the copy of a batch's rows, its
empty cells set to NaN and the sort of each row run on the workers, as
numpy releases the interpreter lock for them.  The NaN check, the bins
(`binning.equi_depth_exact`) and the concatenation stay on the calling
thread, which takes the batches in order, so the rows are the same on
any number of workers, and a tracer that wraps those functions keeps its
one span stack.  A batch holds at most 8 MB of sorted values (unless one
chunk holds more), and at most one batch per worker is in flight beside
the one being binned.
Unlike the source paper's leaves it holds no bitmaps: the paper's leaf
bitmaps spare reading cell values from disk, while here every chunk is
resident and the partial leaves of a query are resolved by one batched
scan of their rows per block (:func:`leaf_query`).

Cells are laid out row-major inside each chunk; boundary chunks are clipped
by the global shape.  Empty cells are NaN for float attributes and a
declared sentinel for integer attributes; internally only the non-empty
mask is authoritative.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .binning import equi_depth_exact
from .errors import DataError, InputError

_DTYPES = {"float64": np.float64, "int64": np.int64}


@dataclass
class QueryStats:
    """Operational counters collected while answering a query.

    nodes_fetched counts the tree nodes the descent fetched, leaves
    included.  leaves_scanned counts the partial leaves whose values
    :func:`leaf_query` scanned, every one whose runs neither miss nor
    cover it.  candidate_checks counts the cells whose value was compared:
    every non-empty cell of a scanned leaf inside the query's dimension
    runs, and the candidates of `baseline.DimsAttsIndex`.  Both count per
    leaf, however the leaves are batched.  Bitmap fetches come
    only from that baseline, whose queries read bitmaps: bitmap_fetches
    counts those fetched for bin spans, and candidate_bitmap_fetches those
    fetched only to isolate the boundary bins of the candidate check.  The
    tree's queries fetch none.
    """

    nodes_evaluated: int = 0
    nodes_fetched: int = 0
    bitmap_fetches: int = 0
    candidate_bitmap_fetches: int = 0
    candidate_checks: int = 0
    leaves_scanned: int = 0


@dataclass(frozen=True)
class ArraySchema:
    """A<a_1..a_m>[d_1..d_n] with a regular chunk grid."""

    dims: tuple  # ((name, extent), ...)
    attributes: tuple  # ((name, "float64"|"int64"), ...)
    chunk_shape: tuple
    empty_values: dict = field(default_factory=dict)  # int attrs need one

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple((str(n), int(e)) for n, e in self.dims))
        object.__setattr__(
            self, "attributes", tuple((str(n), str(t)) for n, t in self.attributes)
        )
        object.__setattr__(self, "chunk_shape", tuple(int(c) for c in self.chunk_shape))
        # NaN is the implied float sentinel; drop explicit ones so schema
        # equality is well defined
        floats = {n for n, t in self.attributes if t == "float64"}
        cleaned = {
            k: v
            for k, v in self.empty_values.items()
            if not (k in floats and isinstance(v, float) and np.isnan(v))
        }
        object.__setattr__(self, "empty_values", cleaned)
        if not self.dims or not self.attributes:
            raise InputError("schema needs at least one dimension and one attribute")
        names = [n for n, _ in self.dims + self.attributes]
        for i, name in enumerate(names):  # a query term names one of them
            if name in names[:i]:
                raise InputError(f"name {name!r} is repeated: each dimension and attribute "
                                 f"needs its own")
        if any(e < 1 for _, e in self.dims):
            raise InputError("dimension extents must be >= 1")
        if len(self.chunk_shape) != len(self.dims):
            raise InputError("chunk_shape rank must match dimension count")
        if any(c < 1 for c in self.chunk_shape):
            raise InputError("chunk extents must be >= 1")
        for name, typ in self.attributes:
            if typ not in _DTYPES:
                raise InputError(f"unsupported attribute type {typ!r}")
            if typ == "int64" and name not in self.empty_values:
                raise InputError(f"integer attribute {name!r} needs an empty sentinel")
            if typ == "int64" and not _int64_value(self.empty_values[name]):
                raise InputError(f"empty sentinel {self.empty_values[name]!r} of integer "
                                 f"attribute {name!r} is not an int64 value")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple:
        return tuple(e for _, e in self.dims)

    @property
    def dim_names(self) -> tuple:
        return tuple(n for n, _ in self.dims)

    @property
    def chunk_grid(self) -> tuple:
        return tuple(-(-e // c) for e, c in zip(self.shape, self.chunk_shape))

    def attr_type(self, name: str) -> str:
        for n, t in self.attributes:
            if n == name:
                return t
        raise InputError(f"unknown attribute {name!r}")

    def empty_value(self, name: str):
        typ = self.attr_type(name)
        if typ == "float64":
            return self.empty_values.get(name, float("nan"))
        return self.empty_values[name]

    def with_extents(self, extents) -> "ArraySchema":
        dims = tuple((n, e) for (n, _), e in zip(self.dims, extents))
        return ArraySchema(dims, self.attributes, self.chunk_shape, dict(self.empty_values))

    def to_json(self) -> dict:
        """The saved form of the schema, in an index's metadata and a raw
        header: each field as it is, and each attribute's empty sentinel,
        null for NaN."""
        empty = ((n, self.empty_value(n)) for n, _ in self.attributes)
        return {"dims": [list(d) for d in self.dims],
                "attributes": [list(a) for a in self.attributes],
                "chunk_shape": list(self.chunk_shape),
                "empty": {n: None if isinstance(v, float) and np.isnan(v) else v
                          for n, v in empty}}

    @classmethod
    def from_json(cls, obj, where: str) -> "ArraySchema":
        """The schema of a saved form (:meth:`to_json`) read from a file.
        DataError, `where` leading and naming the field, for a field that
        is missing or of the wrong form, or a schema the fields do not
        make."""
        for key, ok, form in _SCHEMA_FIELDS:
            if not isinstance(obj, dict) or key not in obj:
                raise DataError(f"{where} field {key!r} is missing")
            if not ok(obj[key]):
                raise DataError(f"{where} field {key!r} is not {form}")
        try:
            return cls(tuple(map(tuple, obj["dims"])), tuple(map(tuple, obj["attributes"])),
                       tuple(obj["chunk_shape"]),
                       {k: float("nan") if v is None else v for k, v in obj["empty"].items()})
        except InputError as exc:
            raise DataError(f"{where} schema: {exc}") from None


def _int64_value(value) -> bool:
    """Whether a sentinel is an integral number an int64 array holds: NaN,
    a fraction or a number past the int64 range would fill no cell exactly."""
    if isinstance(value, (float, np.floating)):
        if not float(value).is_integer():
            return False
    elif not isinstance(value, (int, np.integer)):
        return False
    return -(2**63) <= int(value) < 2**63


def _ints(value, n: int | None = None) -> bool:
    """Whether a JSON value is a list of integers (of length n if given)."""
    return (isinstance(value, list) and (n is None or len(value) == n)
            and all(type(v) is int for v in value))


def _pairs(value, second: type) -> bool:
    """Whether a JSON value is a list of [name, value] pairs."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and type(p[1]) is second
        for p in value)


_SCHEMA_FIELDS = (
    ("dims", lambda v: _pairs(v, int), "a list of [name, extent] pairs"),
    ("attributes", lambda v: _pairs(v, str), "a list of [name, type] pairs"),
    ("chunk_shape", _ints, "a list of integers"),
    ("empty", lambda v: isinstance(v, dict) and all(
        x is None or type(x) in (int, float) for x in v.values()), "a map to numbers or null"),
)


class Block:
    """Chunks of one shape stored as rows: per attribute one (rows, cells)
    array of row-major chunk cells, the non-empty mask of the same shape
    beside them, and each row's non-empty count.  Every array is read-only:
    an index and its queries only read them, and a write through any view
    raises.  A block does not hold its rows' grid coordinates: a store
    made from a dict may hold a row at any coordinates, so they are the
    store's (:meth:`ChunkStore.table`)."""

    __slots__ = ("shape", "values", "nonempty", "counts")

    def __init__(self, shape, values: dict, nonempty: np.ndarray):
        self.shape = tuple(shape)
        self.values = values
        self.nonempty = nonempty
        self.counts = _row_counts(nonempty)
        for arr in (*values.values(), nonempty, self.counts):
            arr.flags.writeable = False


class Chunk:
    """One grid tile: a read-only view of row `row` of a `Block`, its
    attribute payloads and non-empty mask in the tile's (clipped) shape."""

    __slots__ = ("coords", "offsets", "shape", "block", "row", "nonempty_count")

    def __init__(self, block: Block, row: int, coords, offsets):
        self.coords = tuple(coords)
        self.offsets = tuple(offsets)
        self.shape = block.shape
        self.block = block
        self.row = row
        self.nonempty_count = int(block.counts[row])

    @property
    def values(self) -> dict:
        return {n: v[self.row].reshape(self.shape) for n, v in self.block.values.items()}

    @property
    def nonempty(self) -> np.ndarray:
        return self.block.nonempty[self.row].reshape(self.shape)


class ChunkStore:
    """All non-empty chunks of one array, keyed by grid coordinates.

    The chunks are views of blocks (:class:`Block`); a store made from the
    chunks of other stores shares their blocks and copies nothing.  The
    same chunks as arrays, with each one's coordinates, block, row and
    count, are its :meth:`table`.  A store's chunks are not changed in
    place once its table has been read.
    """

    def __init__(self, schema: ArraySchema, chunks: dict):
        self.schema = schema
        self.chunks = chunks
        self._table = None  # (chunks, their ChunkTable)

    def table(self) -> "ChunkTable":
        """The store's chunks as a :class:`ChunkTable`, each at its key in
        `chunks`: the one `from_dense` makes with the blocks, or else one
        made from the chunks on the first call, and again once `chunks` is
        another dict."""
        if self._table is None or self._table[0] is not self.chunks:
            self._table = (self.chunks, ChunkTable.of(list(self.chunks), self.chunks.values(),
                                                      self.schema.ndim))
        return self._table[1]

    @classmethod
    def from_dense(cls, schema: ArraySchema, data: dict) -> "ChunkStore":
        """Chunk dense global arrays; tiles with no non-empty cell are omitted.

        The tiles of one shape form one block, filled by one reshaped and
        transposed copy per attribute: the whole tiles in one, and each
        shape of tiles clipped by the array's edge in another.  Where some
        of those tiles hold no non-empty cell, the block keeps only the
        others' rows, so the store holds no more than its chunks.  The
        blocks are copies, so later writes to `data` leave the store
        unchanged.  The store's :meth:`table` is made here, from each
        block's rows, counts and grid coordinates.
        """
        for name, _ in schema.attributes:
            if name not in data:
                raise InputError(f"missing data for attribute {name!r}")
            if tuple(data[name].shape) != schema.shape:
                raise InputError(f"attribute {name!r} shape mismatch")
        cs = schema.chunk_shape
        # per dimension, the runs of tiles of one extent: (first tile,
        # tiles, extent), whole tiles first, then the one the edge clips
        parts = []
        for e, c in zip(schema.shape, cs):
            whole, rest = divmod(e, c)
            parts.append([p for p in ((0, whole, c), (whole, 1, rest)) if p[1] and p[2]])
        chunks, blocks, grids = [], [], []
        for group in itertools.product(*parts):
            first, tiles, shape = zip(*group)
            sl = tuple(slice(g * c, g * c + n * s) for g, n, s, c in zip(first, tiles, shape, cs))
            vals, nonempty = {}, None
            for name, typ in schema.attributes:
                vals[name] = rows = _tile_rows(data[name][sl], tiles, shape, _DTYPES[typ])
                mask = _nonempty_mask(rows, typ, schema.empty_value(name))
                nonempty = mask if nonempty is None else (nonempty | mask)
            kept = np.flatnonzero(_row_counts(nonempty))
            if not kept.size:
                continue
            if kept.size < len(nonempty):
                vals = {name: v[kept] for name, v in vals.items()}
                nonempty = nonempty[kept]
            block = Block(shape, vals, nonempty)
            grid = np.stack(np.unravel_index(kept, tiles), axis=1) + first
            for row, coords in enumerate(grid.tolist()):
                chunks.append(Chunk(block, row, coords, [g * c for g, c in zip(coords, cs)]))
            blocks.append(block)
            grids.append(grid)
        chunks.sort(key=lambda chunk: chunk.coords)
        store = cls(schema, {chunk.coords: chunk for chunk in chunks})
        sizes = [len(b.counts) for b in blocks]
        store._table = (store.chunks, ChunkTable(
            tuple(blocks), np.repeat(np.arange(len(blocks)), sizes),
            np.concatenate([np.arange(n) for n in sizes] or [np.empty(0, np.intp)]),
            np.concatenate(grids or [np.empty((0, schema.ndim), np.int64)]),
            np.concatenate([b.counts for b in blocks] or [np.empty(0, np.int64)])))
        return store

    def merged(self, other: "ChunkStore", schema: ArraySchema) -> "ChunkStore":
        """A store of `schema` holding this store's chunks and `other`'s,
        `other`'s where both hold the same coordinates.  Where none are in
        both, its table is the two tables joined (:meth:`ChunkTable.joined`),
        with no step per chunk; else it is made on first use."""
        store = ChunkStore(schema, {**self.chunks, **other.chunks})
        if len(store.chunks) == len(self.chunks) + len(other.chunks):
            store._table = (store.chunks, self.table().joined(other.table()))
        return store

    def nonempty_total(self) -> int:
        return sum(c.nonempty_count for c in self.chunks.values())

    def iter_chunks(self):
        for coords in sorted(self.chunks):
            yield self.chunks[coords]

    def dense(self, attr: str) -> np.ndarray:
        """Reassemble the global array, empties filled with the sentinel."""
        typ = self.schema.attr_type(attr)
        out = np.full(self.schema.shape, self.schema.empty_value(attr), _DTYPES[typ])
        for chunk in self.chunks.values():
            sl = tuple(slice(o, o + s) for o, s in zip(chunk.offsets, chunk.shape))
            out[sl] = chunk.values[attr]
        return out

    def nonempty_dense(self) -> np.ndarray:
        out = np.zeros(self.schema.shape, bool)
        for chunk in self.chunks.values():
            sl = tuple(slice(o, o + s) for o, s in zip(chunk.offsets, chunk.shape))
            out[sl] = chunk.nonempty
        return out


class ChunkTable(NamedTuple):
    """Chunks as arrays, one entry each: `block` indexes `blocks`, the
    chunk's rows lie at `row` of its block, and `coords` (entries, ndim)
    and `count` are its grid coordinates and non-empty cells."""

    blocks: tuple
    block: np.ndarray
    row: np.ndarray
    coords: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, coords, chunks, ndim: int) -> "ChunkTable":
        """The table of `chunks`, at the grid coordinates `coords` in the
        same order; one pass over the chunks in Python."""
        ids, blocks, entries = {}, [], []
        for chunk in chunks:
            b = ids.setdefault(id(chunk.block), len(blocks))
            if b == len(blocks):
                blocks.append(chunk.block)
            entries.append((b, chunk.row, chunk.nonempty_count))
        block, row, count = np.array(entries, np.int64).reshape(-1, 3).T
        return cls(tuple(blocks), block.astype(np.intp), row.astype(np.intp),
                   np.array(coords, np.int64).reshape(len(entries), ndim), count)

    def joined(self, other: "ChunkTable") -> "ChunkTable":
        """This table's entries, then `other`'s; a block of both tables is
        listed once, found by identity as :meth:`of` finds it."""
        blocks, ids = list(self.blocks), {id(b): i for i, b in enumerate(self.blocks)}
        for b in other.blocks:
            if id(b) not in ids:
                ids[id(b)] = len(blocks)
                blocks.append(b)
        at = np.array([ids[id(b)] for b in other.blocks], np.intp)
        return ChunkTable(tuple(blocks), np.concatenate((self.block, at[other.block])),
                          np.concatenate((self.row, other.row)),
                          np.concatenate((self.coords, other.coords)),
                          np.concatenate((self.count, other.count)))

    def take(self, entries) -> "ChunkTable":
        """The entries at `entries`, in that order."""
        return self._replace(block=self.block[entries], row=self.row[entries],
                             coords=self.coords[entries], count=self.count[entries])

    def batches(self, first) -> list:
        """The entries grouped by their block: per block (block, the
        entries' positions in the table, increasing, their rows, their tile
        positions counted from tile `first`, one index array per
        dimension)."""
        if not self.block.size:
            return []
        at = (self.coords - np.asarray(first, np.int64)).T
        order = np.argsort(self.block, kind="stable")
        cuts = np.flatnonzero(np.diff(self.block[order])) + 1
        return [(self.blocks[self.block[p[0]]], p, self.row[p], tuple(at[:, p]))
                for p in np.split(order, cuts)]


def _tile_rows(arr: np.ndarray, tiles, shape, dtype) -> np.ndarray:
    """The tiles of `arr`, `tiles` of `shape` per dimension, as the rows of
    one (tiles, cells) array of `dtype`, in row-major tile order; one copy."""
    n = len(shape)
    out = np.empty((math.prod(tiles), math.prod(shape)), dtype)
    split = arr.reshape([x for pair in zip(tiles, shape) for x in pair])
    out.reshape(*tiles, *shape)[...] = split.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))
    return out


def _nonempty_mask(block, typ, sentinel):
    if typ == "float64":
        if np.isnan(sentinel):
            return ~np.isnan(block)
        return block != sentinel
    return block != sentinel


# ---------------------------------------------------------------------------
# chunk leaves, and the batched resolution of partial leaves

# one batch of the leaf build sorts at most this many cells (8 MB of
# float64); a single row may exceed it
_BATCH_CELLS = 1 << 20


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The leaf build's pool of `workers` threads, made on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="arraybit-leaves")


def build_leaf_index(chunks: ChunkTable, attr: str, bins: int, e: int = 4) -> dict:
    """The leaf table rows of the non-empty chunks of `chunks`, a
    :class:`ChunkTable`, block by block: the leaf table's columns but z
    and extent, and the chunks' grid coordinates as `coords`, (leaves,
    ndim).  A leaf below e*bins non-empty cells is plain, nbins 0 and no
    bins; the others get the equi-depth binning of their values (integers
    binned as float64): k + 1 boundaries and k weights back to back in
    `bounds` and `weights`, the last boundary their amax.  InputError for
    a NaN value.

    The chunks of one block are built together, binned ones first, in
    batches of at most _BATCH_CELLS cells, and in at least one batch per
    worker where the block has that many rows.  A batch's copy of its rows
    (:func:`_copy_rows`), emptied to NaN and sorted row by row, is made on
    a pool of one thread per CPU the process may run on (:func:`_cpus`):
    numpy releases the interpreter lock for the copy, the fill and the
    sort, which are most of a leaf's cost, and each batch reads only its
    own rows.  The calling thread takes the sorted batches in batch order,
    so the rows come out in the same order on any number of workers, and
    does the rest: the NaN check, each leaf's count, amin and amax, one
    :func:`equi_depth_exact` call for the bins and the concatenation.
    Those stay on one thread because a tracer that wraps a function keeps
    one span stack per process.  At most one batch per worker is in flight
    while the calling thread bins another, so the sorted copies take at
    most (workers + 1) * 8 MB at a time."""
    chunks = chunks.take(np.flatnonzero(chunks.count))
    workers = _cpus()
    jobs = []
    for block, entries, rows, _ in chunks.batches(0):
        counts = block.counts[rows]
        order = np.argsort(counts < e * bins, kind="stable")
        rows, counts, coords = rows[order], counts[order], chunks.coords[entries[order]]
        cap = max(1, _BATCH_CELLS // block.nonempty.shape[1])
        n = max(-(-rows.size // cap), min(workers, rows.size))
        cuts = rows.size * np.arange(n + 1) // n
        jobs += [(block, rows[a:b], coords[a:b], counts[a:b]) for a, b in zip(cuts, cuts[1:])]
    sorted_cells = _in_order(_pool(workers), workers,
                             ((_sorted_rows, block, attr, rows) for block, rows, _, _ in jobs))
    parts = []
    for (_, _, coords, live), cells in zip(jobs, sorted_cells):
        amax = cells[np.arange(live.size), live - 1]
        if np.isnan(amax).any():  # NaN sorts last
            raise InputError("cannot index NaN values")
        nbins, bounds, weights = np.zeros(live.size, "<u4"), np.empty(0), np.empty(0)
        binned = int(np.count_nonzero(live >= e * bins))
        if binned:
            k, bounds, weights, _, _ = equi_depth_exact(cells[:binned], live[:binned], bins)
            nbins[:binned], amax[:binned] = k, bounds[np.cumsum(k + 1) - 1]
        parts.append((coords, cells[:, 0].copy(), amax, live.astype("<u8"), nbins, bounds,
                      weights))
    cols = zip(*parts or [(np.empty((0, 0), np.int64), np.empty(0), np.empty(0),
                           np.empty(0, "<u8"), np.empty(0, "<u4"), np.empty(0), np.empty(0))])
    return dict(zip(("coords", "amin", "amax", "count", "nbins", "bounds", "weights"),
                    map(np.concatenate, cols)))


def _sorted_rows(block: Block, attr: str, rows: np.ndarray) -> np.ndarray:
    """The values of `attr` in `rows` of `block` as float64, their empty
    cells NaN, each row sorted: a fresh array, so a worker of the leaf
    build makes it alone."""
    cells = _copy_rows(block.values[attr], rows, np.float64)
    empty = block.nonempty[rows]
    np.logical_not(empty, out=empty)
    np.copyto(cells, np.nan, where=empty)
    cells.sort(axis=1)
    return cells


def _in_order(pool: ThreadPoolExecutor, ahead: int, calls):
    """The result of each (function, *args) of `calls`, in order, run on
    `pool` with at most `ahead` calls submitted beyond the one whose result
    is being read.  Calls not yet run when the reader stops are cancelled."""
    futures = collections.deque()
    try:
        for fn, *args in calls:
            futures.append(pool.submit(fn, *args))
            if len(futures) > ahead:
                yield futures.popleft().result()
        while futures:
            yield futures.popleft().result()
    finally:
        for future in futures:
            future.cancel()


def _copy_rows(arr: np.ndarray, rows: np.ndarray, dtype) -> np.ndarray:
    """`arr[rows]` as a fresh array of `dtype`, one copy per run of
    consecutive rows (a slab's chunks are one run).  An integer block is
    cast on the way: gathering its rows first made a member-3d build touch
    about 850 more fresh pages (a 2-CPU x86-64 host), 26% of its time."""
    out = np.empty((len(rows), arr.shape[1]), dtype)
    for a, b in _row_runs(rows):
        out[a:b] = arr[rows[a] : rows[b - 1] + 1]
    return out


def _row_runs(rows: np.ndarray) -> list:
    """(a, b) per run of consecutive values in `rows[a:b]`, in order."""
    cuts = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), len(rows)]
    return list(zip(cuts, cuts[1:]))


def in_runs(vals: np.ndarray, runs) -> np.ndarray:
    """Mask of `vals` lying in any of the sorted, disjoint inclusive runs."""
    los = np.array([lo for lo, _ in runs])
    his = np.array([hi for _, hi in runs])
    i = np.searchsorted(los, vals, side="right") - 1
    return (i >= 0) & (vals <= his[np.maximum(i, 0)])


def _int_base(amin: float, amax: float, cells: int):
    """The integer at the first entry of a lookup table over [amin, amax]
    of an integer column, or None when no table of at most `cells` entries
    spans it exactly in float64.  The base is 0 when 0..amax fits, so the
    values index the table unshifted; else amin."""
    if 0 <= amin and amax < cells:
        return 0
    if amax - amin + 1 <= cells and -2**53 <= amin and amax <= 2**53:
        return int(amin)
    return None


def _spans(runs, amin: float, amax: float, base: int) -> list:
    """The integers of each run within [amin, amax], as inclusive offsets
    from `base`; a run holding none gives a > b."""
    return [(math.ceil(max(lo, amin)) - base, math.floor(min(hi, amax)) - base)
            for lo, hi in runs]


def _lut(spans, size: int) -> np.ndarray:
    lut = np.zeros(size, bool)
    for a, b in spans:
        if a <= b:
            lut[a : b + 1] = True
    return lut


def run_matcher(runs, integral: bool, amin: float, amax: float, cells: int, empty=None):
    """How one query matches values against its runs: a function of a
    value array giving a fresh mask, exact for the values of a column whose
    non-empty values lie in [amin, amax] (others, empty cells, may match).

    Runs that miss [amin, amax] are dropped.  One run takes two
    comparisons, with integer bounds on an integer column, so its values
    are not converted to float.  More runs on an integer column take one
    lookup table over [amin, amax], built here once, when
    :func:`_int_base` allows one for `cells`, the cells the query scans at
    most; every batch then matches with one lookup.  Otherwise they are
    matched by :func:`in_runs`.

    The lookup indexes the table with the values themselves where `empty`,
    the column's empty value, indexes it too, as a non-negative or a
    negative index: that reads a read-only block in place, where `take`
    first copies it (half the lookup's time on member-3d's 4096-cell
    chunks).  Else it is a clipped `take`.
    """
    runs = [(lo, hi) for lo, hi in runs if hi >= amin and lo <= amax]
    if not runs:
        return lambda vals: np.zeros(vals.shape, bool)
    if integral and -2**53 <= amin and amax <= 2**53:
        if len(runs) == 1:
            (a, b), = _spans(runs, amin, amax, 0)
            return lambda vals: (vals >= a) & (vals <= b)
        base = _int_base(amin, amax, cells)
        if base is not None:
            lut = _lut(_spans(runs, amin, amax, base), int(amax) - base + 1)
            if base == 0 and empty is not None and -lut.size <= empty < lut.size:
                return lut.__getitem__
            # an index past the table (an empty cell's sentinel) reads its
            # first or last entry
            return lambda vals: lut.take(vals - base if base else vals, mode="clip")
    if len(runs) == 1:
        (lo, hi), = runs
        return lambda vals: (vals >= lo) & (vals <= hi)
    return lambda vals: in_runs(vals, runs)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The True cells of each row of a (rows, cells) boolean array: a
    popcount of eight cells at a time where the rows split into them,
    about three times faster than `np.count_nonzero` along the rows."""
    if mask.shape[1] % 8:
        return np.count_nonzero(mask, axis=1)
    return np.bitwise_count(mask.view(np.uint64)).sum(axis=1, dtype=np.int64)


class Cover(NamedTuple):
    """Where the partial leaves of one query are written: `answer`, a
    boolean array over the chunk-aligned cover of the query's box in tiles
    of `chunk_shape`, whose first tile per dimension is `first`, and per
    dimension `windows`, the mask of the cover's indices that the query's
    runs of that dimension hold, shaped (tiles, tile extent), or None where
    they hold every index of the array in the cover."""

    answer: np.ndarray
    chunk_shape: tuple
    first: tuple
    windows: tuple

    @property
    def origin(self) -> tuple:
        return tuple(g * c for g, c in zip(self.first, self.chunk_shape))


def query_box(dim_ranges, extents) -> tuple:
    """The box of a query's dimension runs: per dimension from the first
    run's low to the last run's high end, clipped to the array."""
    return tuple((max(r[0][0], 0), min(r[-1][1], e - 1)) for r, e in zip(dim_ranges, extents))


def query_cover(dim_ranges, extents, chunk_shape) -> Cover:
    """The chunk-aligned cover of the box of `dim_ranges` in an array of
    `extents` (:func:`query_box`), with a zeroed answer and a window along
    a dimension that is None when its one run holds every index of the
    array in the cover."""
    first, shape, windows = [], [], []
    for r, e, c, (lo, hi) in zip(dim_ranges, extents, chunk_shape,
                                 query_box(dim_ranges, extents)):
        first.append(lo // c)
        shape.append((hi // c + 1 - lo // c) * c)
        start = first[-1] * c
        if len(r) == 1 and r[0][0] <= start and min(start + shape[-1], e) - 1 <= r[0][1]:
            windows.append(None)
            continue
        window = np.zeros(shape[-1], bool)
        for a, b in r:
            window[max(a - start, 0) : max(b + 1 - start, 0)] = True
        windows.append(window.reshape(-1, c))
    return Cover(np.zeros(shape, bool), tuple(chunk_shape), tuple(first), tuple(windows))


def put_rows(answer: np.ndarray, chunk_shape, at: tuple, rows: np.ndarray, shape) -> None:
    """Write (rows, cells) boolean chunk rows of `shape` into a chunk-aligned
    C-contiguous boolean `answer` in tiles of `chunk_shape`, at the tile
    positions `at` (one index array per dimension).  Both sides are viewed
    with one item per run of `shape[-1]` cells along the last dimension,
    so the write copies runs, not single cells: on 16^3 chunks 4-5x faster
    than through boolean views."""
    item = np.dtype(f"V{shape[-1]}")
    steps = answer.strides
    tiles = np.ndarray(tuple(e // c for e, c in zip(answer.shape, chunk_shape)) + shape[:-1],
                       item, answer, 0,
                       tuple(c * s for c, s in zip(chunk_shape, steps)) + steps[:-1])
    tiles[at] = rows.view(item).reshape(-1, *shape[:-1])


def put_chunks(cover: Cover, chunks: ChunkTable) -> None:
    """Write the non-empty cells of `chunks`, a :class:`ChunkTable`, into
    `cover.answer`, one assignment per block (:func:`put_rows`)."""
    for block, _, rows, at in chunks.batches(cover.first):
        put_rows(cover.answer, cover.chunk_shape, at, block.nonempty[rows], block.shape)


def _apply_windows(hits: np.ndarray, windows, where, shape) -> None:
    """AND into chunk rows, as (rows, shape[0], other cells), the windows
    of their tiles: the first dimension's along axis 1, and the outer
    product of the others', one small (rows, other cells) mask, along
    axis 2; so both ANDs run over contiguous cells, not runs of one tile
    extent."""
    k = hits.shape[0]
    if any(w is not None for w in windows[1:]):
        rest = np.ones((k, 1), bool)
        for window, s, i in zip(windows[1:], shape[1:], where[1:]):
            w = np.ones((k, s), bool) if window is None else window[i, :s]
            rest = (rest[:, :, None] & w[:, None, :]).reshape(k, -1)
        hits &= rest[:, None, :]
    if windows[0] is not None:
        hits &= windows[0][where[0], : shape[0]][:, :, None]


def leaf_query(block: Block, rows: np.ndarray, at: tuple, leaves, attr: str, runs,
               match, cover: Cover, stats: QueryStats | None = None) -> np.ndarray:
    """Resolve a batch of partial leaves whose chunks are the `rows` of one
    block, at tile positions `at` of the cover (one index array per
    dimension), into `cover.answer`; returns each leaf's hit count.
    `leaves` holds the batch's rows of the leaf table, in the same order:
    at least its amin and amax columns.

    runs are the attribute constraint as sorted, disjoint inclusive
    (lo, hi) value runs, matched by `match` (:func:`run_matcher`).  A leaf
    that no run meets ([amin, amax] of the leaf) is left out and reads
    nothing.  A leaf that a run covers takes its row's non-empty cells,
    reading no value.  The others are scanned in place: ordered by block
    row, each run of consecutive rows is matched as one slice of the block,
    a view, so no value is copied.  The cover's windows are applied to
    each row, so a leaf's hits and count are those inside the query's
    dimension runs; the non-empty cells of the scanned rows inside them
    count as `candidate_checks`, and each scanned leaf in
    `leaves_scanned`.  The rows with a hit are written into the answer in
    one assignment.  The block is only read, and no bitmap is.

    Leaves hold no bitmaps to resolve from: the source paper's leaf
    bitmaps spare reading cell values from disk, and here every chunk is
    resident.  A batch costs a fixed few numpy calls, one match per run of
    consecutive scanned rows and a few passes per cell.  At seed 101 a main
    query's batches took 1.28 / 1.34 / 0.65 ms on range-2d / member-3d /
    ingest-4d, writes into the answer included, where gathering the
    scanned values first took 1.64 / 1.85 / 0.73 ms (one process on a
    shared 2-CPU x86-64 host, the mean over the queries of each one's
    median of 15 rounds).  Their scanned rows, 109 / 155 / 50 a batch,
    fall in about 47 / 13 / 23 runs.
    """
    los = np.array([lo for lo, _ in runs])[:, None]
    his = np.array([hi for _, hi in runs])[:, None]
    amin, amax = leaves["amin"], leaves["amax"]
    covered = ((los <= amin) & (amax <= his)).any(axis=0)
    scanned = ((his >= amin) & (los <= amax)).any(axis=0) & ~covered
    scan = np.flatnonzero(scanned)
    scan = scan[np.argsort(rows[scan])]
    keep = np.concatenate([scan, np.flatnonzero(covered)])
    counts = np.zeros(amin.size, np.int64)
    if not keep.size:
        return counts
    take = rows[keep]
    hits = block.nonempty[take]
    shape = block.shape
    where = tuple(a[keep] for a in at)
    _apply_windows(hits.reshape(len(take), shape[0], -1), cover.windows, where, shape)
    n = scan.size
    if n:
        if stats is not None:
            stats.leaves_scanned += n
            stats.candidate_checks += int(np.count_nonzero(hits[:n]))
        vals = block.values[attr]
        for a, b in _row_runs(take[:n]):
            hits[a:b] &= match(vals[take[a] : take[b - 1] + 1])
    counts[keep] = found = _row_counts(hits)
    hit = np.flatnonzero(found)
    if hit.size < keep.size:
        hits, where = hits[hit], tuple(i[hit] for i in where)
    put_rows(cover.answer, cover.chunk_shape, where, hits, shape)
    return counts


# ---------------------------------------------------------------------------
# ingestion


def write_raw(header_path, schema: ArraySchema, data: dict, origin=None) -> None:
    """Write one block of dense row-major data plus its sidecar header.

    If the header already exists, the block joins the blocks it lists and
    its extents grow to cover it; otherwise a fresh single-block header of
    `schema` is written.  InputError, before any file is written, for a
    header of other dimensions, attributes or empty sentinels, or a block
    at an origin the header already lists, whose files it would overwrite.
    """
    header_path = Path(header_path)
    origin = tuple(int(o) for o in (origin or (0,) * schema.ndim))
    arrays = {name: np.ascontiguousarray(data[name], dtype=_DTYPES[typ])
              for name, typ in schema.attributes}
    shape = next(iter(arrays.values())).shape
    if any(arr.shape != shape for arr in arrays.values()):
        raise InputError("all attribute blocks must share one shape")
    blocks = []
    if header_path.exists():
        held, blocks = read_header(header_path)
        if ((held.dim_names, held.attributes, held.to_json()["empty"])
                != (schema.dim_names, schema.attributes, schema.to_json()["empty"])):
            raise InputError(f"{header_path} holds an array of other dimensions or attributes, "
                             "or other empty sentinels")
        if any(tuple(b["origin"]) == origin for b in blocks):
            raise InputError(f"{header_path} already holds a block at origin {list(origin)}")
        schema = held
    stem = header_path.stem + "".join(f"_{o}" for o in origin)
    files = {}
    for name, typ in schema.attributes:
        files[name] = f"{stem}.{name}.bin"
        arr = arrays[name].astype("<f8" if typ == "float64" else "<i8")
        arr.tofile(header_path.parent / files[name])
    blocks.append({"origin": list(origin), "shape": list(shape), "files": files})
    schema = schema.with_extents([max(e, o + s) for e, o, s in zip(schema.shape, origin, shape)])
    head = {"format": "arraybit-raw-v1", **schema.to_json(), "blocks": blocks}
    header_path.write_text(json.dumps(head, indent=1))


def read_header(header_path) -> tuple:
    """Parse a sidecar header; returns (schema, blocks), every block with
    its origin.  DataError, naming the field, for a schema field that is
    missing or of the wrong form, or a schema the fields do not make
    (:meth:`ArraySchema.from_json`), a missing or malformed block list, or
    a block whose rank is not the array's or that reaches past its
    extents."""
    header_path = Path(header_path)
    try:
        head = json.loads(header_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read header {header_path}: {exc}") from exc
    if not isinstance(head, dict) or head.get("format") != "arraybit-raw-v1":
        raise DataError(f"{header_path} is not an arraybit raw header")
    schema = ArraySchema.from_json(head, f"{header_path}: header")
    if not isinstance(head.get("blocks"), list) or not all(
            isinstance(b, dict) for b in head["blocks"]):
        raise DataError(f"{header_path}: header field 'blocks' is missing or not a list of "
                        "blocks")
    blocks = []
    for i, block in enumerate(head["blocks"]):
        origin, shape = block.get("origin", [0] * schema.ndim), block.get("shape")
        for key, value in (("origin", origin), ("shape", shape)):
            if not _ints(value, schema.ndim):
                raise DataError(f"{header_path}: blocks[{i}].{key} is missing or not "
                                f"{schema.ndim} integers")
        files = block.get("files")
        if not isinstance(files, dict) or not all(
                isinstance(files.get(name), str) for name, _ in schema.attributes):
            raise DataError(f"{header_path}: blocks[{i}].files does not name a file for "
                            "every attribute")
        if any(o < 0 or s < 0 or o + s > e for o, s, e in zip(origin, shape, schema.shape)):
            raise DataError(f"{header_path}: blocks[{i}] at origin {origin} of shape {shape} "
                            f"reaches past the extents {list(schema.shape)}")
        blocks.append({**block, "origin": origin})
    return schema, blocks


def load_store(header_path, chunk_shape=None) -> ChunkStore:
    """Load every block referenced by a header into one chunked store."""
    header_path = Path(header_path)
    schema, blocks = read_header(header_path)
    if chunk_shape is not None:
        schema = ArraySchema(schema.dims, schema.attributes, chunk_shape, schema.empty_values)
    data = {
        name: np.full(schema.shape, schema.empty_value(name), _DTYPES[typ])
        for name, typ in schema.attributes
    }
    for block in blocks:
        origin, shape = block["origin"], block["shape"]
        sl = tuple(slice(o, o + s) for o, s in zip(origin, shape))
        for name, typ in schema.attributes:
            path = header_path.parent / block["files"][name]
            try:
                raw = np.fromfile(path, dtype="<f8" if typ == "float64" else "<i8")
            except OSError as exc:
                raise DataError(f"cannot read {path}: {exc}") from exc
            if raw.size != int(np.prod(shape)):
                raise DataError(f"{path}: expected {np.prod(shape)} cells, got {raw.size}")
            data[name][sl] = raw.reshape(shape)
    return ChunkStore.from_dense(schema, data)
