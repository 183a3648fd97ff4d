"""Deterministic synthetic arrays: a sum of randomly placed Gaussian bumps
over the cell grid, with a sparsity threshold that empties faint cells."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chunkstore import ArraySchema, ChunkStore, write_raw
from .errors import InputError

_PD_RETRIES = 8
# cells per block of `field_values`: its working set stays in cache
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class SumGaussSpec:
    """Parameters of the generated field; same spec + seed is bit-identical."""

    shape: tuple
    gaussians: int
    seed: int
    threshold: float = 1e-4
    cov_min: float = 0.5
    cov_max: float | None = None  # default: max(shape) / 4

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(e) for e in self.shape))
        if self.gaussians < 1:
            raise InputError("need at least one gaussian")
        if not self.shape:
            raise InputError("need at least one dimension")
        if any(e < 1 for e in self.shape):
            raise InputError("extents must be >= 1")
        for name in ("threshold", "cov_min", "cov_max"):
            value = getattr(self, name)
            if value is not None and math.isnan(value):
                raise InputError(f"{name} is NaN")
        if self.cov_max is not None and self.cov_max <= 0:
            raise InputError(f"cov_max must be > 0, got {self.cov_max}")

    @property
    def ndim(self) -> int:
        return len(self.shape)


def gaussian_params(spec: SumGaussSpec) -> tuple:
    """Sample means and bounded symmetric positive definite covariances."""
    rng = np.random.default_rng(spec.seed)
    d = spec.ndim
    hi = spec.cov_max if spec.cov_max is not None else max(spec.shape) / 4.0
    lo = min(spec.cov_min, hi)
    mus = np.empty((spec.gaussians, d))
    sigmas = np.empty((spec.gaussians, d, d))
    for i in range(spec.gaussians):
        mus[i] = rng.uniform(0, np.array(spec.shape) - 1)
        for _ in range(_PD_RETRIES):
            a = rng.uniform(-1.0, 1.0, size=(d, d))
            sigma = a @ a.T + 0.1 * np.eye(d)
            evals, evecs = np.linalg.eigh(sigma)
            evals = np.clip(evals, lo, hi)
            sigma = (evecs * evals) @ evecs.T
            sigma = (sigma + sigma.T) / 2.0
            if np.linalg.det(sigma) > 0 and (np.linalg.eigvalsh(sigma) > 0).all():
                break
        else:
            raise InputError("could not sample a positive definite covariance")
        sigmas[i] = sigma
    return mus, sigmas


def field_values(mus: np.ndarray, sigmas: np.ndarray, shape: tuple) -> np.ndarray:
    """Evaluate the density sum on the whole grid.

    One pass over the output in blocks of whole d0 rows, at most
    `_BLOCK_CELLS` cells each (one row when a row is larger).  Inside a
    block, each bump's quadratic form is summed over broadcast per-axis
    offsets, each term at the rank of the axes it spans, so peak memory is
    the output plus about one block.  Every cell adds the same floats in the
    same order as a whole-grid evaluation, so the bits do not depend on the
    block size.
    """
    d = len(shape)
    out = np.zeros(shape)
    if out.size == 0:
        return out
    offsets = [
        np.arange(shape[k]).reshape([-1 if j == k else 1 for j in range(d)])
        for k in range(d)
    ]
    bumps = []
    for mu, sigma in zip(mus, sigmas):
        inv = np.linalg.inv(sigma)
        norm = (2.0 * np.pi) ** (-d / 2.0) * np.linalg.det(sigma) ** -0.5
        diffs = [offsets[k] - mu[k] for k in range(d)]
        # j ascending, then k >= j.  A cross term whose inverse entry is
        # exactly 0 adds ±0 to a q that is never -0 (its first term is
        # >= +0), which changes no bit: skip it.
        terms = [
            (inv[j, j] if j == k else 2.0 * inv[j, k], j, k)
            for j in range(d)
            for k in range(j, d)
            if j == k or inv[j, k] != 0
        ]
        bumps.append((norm, diffs, terms))
    rows = max(1, _BLOCK_CELLS // (out.size // shape[0]))
    buf = np.empty((min(rows, shape[0]),) + tuple(shape[1:]))
    for start in range(0, shape[0], rows):
        block = out[start : start + rows]
        b = buf[: block.shape[0]]
        for norm, diffs, terms in bumps:
            axes = [diffs[0][start : start + rows]] + diffs[1:]
            q = None
            for c, j, k in terms:
                t = c * axes[j] * axes[k]
                if q is None:
                    q = t
                else:  # once q spans the whole block, it is summed in buf
                    full = np.broadcast_shapes(q.shape, t.shape) == b.shape
                    q = np.add(q, t, out=b if full else None)
            np.multiply(q, -0.5, out=b)  # the same rounding as -q / 2.0
            np.exp(b, out=b)
            b *= norm
            block += b
    return out


def generate_dense(spec: SumGaussSpec) -> np.ndarray:
    """The field with sub-threshold cells emptied to NaN."""
    mus, sigmas = gaussian_params(spec)
    vals = field_values(mus, sigmas, spec.shape)
    if spec.threshold > 0:
        vals[vals < spec.threshold] = np.nan
    return vals


def generate_store(spec: SumGaussSpec, chunk_shape) -> ChunkStore:
    """Generate and chunk in one step; all-empty tiles are dropped."""
    schema = ArraySchema(
        tuple((f"d{i}", e) for i, e in enumerate(spec.shape)),
        (("a", "float64"),),
        tuple(chunk_shape),
    )
    return ChunkStore.from_dense(schema, {"a": generate_dense(spec)})


def generate(spec: SumGaussSpec, header_path, chunk_shape=None) -> None:
    """Write the generated array in the raw ingestion format."""
    chunk_shape = tuple(chunk_shape) if chunk_shape else tuple(
        min(64, e) for e in spec.shape
    )
    schema = ArraySchema(
        tuple((f"d{i}", e) for i, e in enumerate(spec.shape)),
        (("a", "float64"),),
        chunk_shape,
    )
    write_raw(header_path, schema, {"a": generate_dense(spec)})
