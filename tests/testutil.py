"""Shared helpers for building randomized stores, indexes and queries."""

import struct

import numpy as np

from arraybit.binning import Binning
from arraybit.bitvec import BitVector
from arraybit.chunkstore import ArraySchema, BinnedBitmapIndex, ChunkStore, PlainLeaf
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


# ---------------------------------------------------------------------------
# per-chunk reference of the batched leaf builder


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
    binning = Binning(boundaries)
    weights = np.bincount(binning.bin_of(values), weights=counts, minlength=binning.nbins)
    return Binning(boundaries, weights)


def _reference_vector(bits) -> BitVector:
    return BitVector.from_bytes(reference_bitvector_bytes(bits))[0]


def reference_binned(values, nonempty, bins: int, encoding: str) -> BinnedBitmapIndex:
    """One column indexed bitmap by bitmap, each encoded on its own."""
    live = values[nonempty]
    uticks, ucounts = np.unique(live, return_counts=True)
    binning = reference_equi_depth(uticks, ucounts, bins)
    k = binning.nbins
    ubins = binning.bin_of(uticks)
    span_lo = np.full(k, np.inf)
    span_hi = np.full(k, -np.inf)
    np.minimum.at(span_lo, ubins, uticks)
    np.maximum.at(span_hi, ubins, uticks)
    binidx = np.full(values.shape, -1, np.int64)
    binidx[nonempty] = binning.bin_of(live)
    if encoding == "equality":
        windows = [(j, j) for j in range(k)]
    elif encoding == "range":
        windows = [(0, j) for j in range(k - 1)]
    else:
        m = -(-k // 2)
        windows = [(s, s + m - 1) for s in range(m)]
    bitmaps = [_reference_vector((binidx >= lo) & (binidx <= hi)) for lo, hi in windows]
    ebm = _reference_vector(nonempty)
    return BinnedBitmapIndex(binning, encoding, bitmaps, span_lo, span_hi, ebm,
                             int(nonempty.sum()))


def reference_leaf(chunk, attr: str, bins: int, encoding: str, e: int = 4):
    """The leaf of one chunk: None when empty, a PlainLeaf below e*bins
    non-empty cells, else its binned bitmap index."""
    if chunk.nonempty_count == 0:
        return None
    vals = chunk.values_flat(attr)
    nonempty = chunk.nonempty.reshape(-1)
    live = vals[nonempty]
    if chunk.nonempty_count < e * bins:
        return PlainLeaf(float(live.min()), float(live.max()), chunk.nonempty_count)
    return reference_binned(vals, nonempty, bins, encoding)


def reference_spread_weights(bounds, children) -> np.ndarray:
    """Internal-node bin weights over `bounds`, child by child: np.interp of
    each child's cumulative bin weights (non-finite points placed by their
    fraction of the bin), added in child order; a point-mass child adds its
    weight to the one bin holding it."""
    weights = np.zeros(bounds.size - 1)
    for child in children:
        cb = getattr(child, "binning", None)
        if cb is None:
            cb = Binning(np.array([child.amin, child.amax]), np.array([float(child.count)]))
        if cb.lo == cb.hi:
            j = min(int(np.searchsorted(bounds, cb.lo, side="right")) - 1, bounds.size - 2)
            weights[j] += cb.total_weight
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
