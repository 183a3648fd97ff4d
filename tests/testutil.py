"""Shared helpers for building randomized stores, indexes and queries."""

import struct

import numpy as np

from arraybit.chunkstore import ArraySchema, ChunkStore
from arraybit.hierindex import build_index
from arraybit.query import RawQuery


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


def random_raw_query(rng, schema, amin, amax, kind="mixed"):
    """A plausible query; `kind` picks range / one-sided / membership."""
    raw = RawQuery()
    span = amax - amin
    if kind == "membership":
        k = int(rng.integers(1, 6))
        raw.values = tuple(float(amin + span * rng.random()) for _ in range(k))
    else:
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
        if rng.random() < 0.7:
            a = int(rng.integers(0, extent))
            b = int(rng.integers(a, extent))
            raw.dims[name] = (a, b)
    return raw


def region_cells_satisfy(store, attribute, region, query):
    """Oracle check that every non-empty cell in a complete region matches."""
    import itertools

    cs = store.schema.chunk_shape
    ranges = [range(lo // c, hi // c + 1) for (lo, hi), c in zip(region.extent, cs)]
    for coords in itertools.product(*ranges):
        chunk = store.chunks.get(coords)
        if chunk is None:
            continue
        vals = chunk.values[attribute][chunk.nonempty]
        if vals.size == 0:
            continue
        if query.values is not None:
            if not np.isin(vals, np.asarray(query.values)).all():
                return False
        elif not ((vals >= query.attr_lo) & (vals <= query.attr_hi)).all():
            return False
        for d, (qlo, qhi) in enumerate(query.dim_ranges):
            lo, hi = chunk.offsets[d], chunk.offsets[d] + chunk.shape[d] - 1
            idx = np.arange(chunk.shape[d]) + chunk.offsets[d]
            shape = [1] * store.schema.ndim
            shape[d] = -1
            covered = (idx >= qlo) & (idx <= qhi)
            if not covered.all():
                # cells outside the dim range must all be empty
                outside = chunk.nonempty & ~covered.reshape(shape)
                if outside.any():
                    return False
    return True


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
