import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybit.chunkstore import load_store
from arraybit.datagen import (
    _BLOCK_CELLS,
    SumGaussSpec,
    field_values,
    gaussian_params,
    generate,
    generate_dense,
    generate_store,
)
from arraybit.errors import InputError
from testutil import reference_field_values


def test_mode_value_identity_covariance():
    # a unit gaussian centered on a grid cell peaks at (2*pi)^(-D/2)
    for d in (1, 2, 3):
        shape = (9,) * d
        mu = np.array([[4.0] * d])
        sigma = np.eye(d)[None]
        vals = field_values(mu, sigma, shape)
        assert vals[(4,) * d] == pytest.approx((2 * np.pi) ** (-d / 2), rel=1e-12)


def test_threshold_above_max_empties_everything():
    spec = SumGaussSpec(shape=(16, 16), gaussians=2, seed=1, threshold=1e9)
    store = generate_store(spec, (4, 4))
    assert not store.chunks


def test_values_match_direct_reevaluation():
    spec = SumGaussSpec(shape=(64, 64), gaussians=3, seed=7, threshold=0.0)
    mus, sigmas = gaussian_params(spec)
    vals = field_values(mus, sigmas, spec.shape)
    rng = np.random.default_rng(0)
    for _ in range(100):
        cell = (int(rng.integers(0, 64)), int(rng.integers(0, 64)))
        want = 0.0
        for mu, sigma in zip(mus, sigmas):
            inv = np.linalg.inv(sigma)
            diff = np.array(cell, float) - mu
            norm = (2 * np.pi) ** (-1.0) * np.linalg.det(sigma) ** -0.5
            want += norm * np.exp(-0.5 * diff @ inv @ diff)
        assert vals[cell] == pytest.approx(want, rel=1e-12)


def test_determinism():
    spec = SumGaussSpec(shape=(32, 32), gaussians=4, seed=42)
    a = generate_dense(spec)
    b = generate_dense(spec)
    assert np.array_equal(a, b, equal_nan=True)
    c = generate_dense(SumGaussSpec(shape=(32, 32), gaussians=4, seed=43))
    assert not np.array_equal(a, c, equal_nan=True)


def test_covariances_are_pd_and_bounded():
    spec = SumGaussSpec(shape=(40, 40), gaussians=10, seed=3, cov_min=0.5)
    _, sigmas = gaussian_params(spec)
    for s in sigmas:
        evals = np.linalg.eigvalsh(s)
        assert (evals > 0).all()
        assert evals.max() <= 10.0 + 1e-9  # max(shape) / 4
        assert np.allclose(s, s.T)


def test_nonempty_fraction_monotone_in_threshold():
    fractions = []
    for thr in (0.0, 1e-6, 1e-4, 1e-2, 1.0):
        spec = SumGaussSpec(shape=(32, 32), gaussians=3, seed=5, threshold=thr)
        vals = generate_dense(spec)
        fractions.append(np.count_nonzero(~np.isnan(vals)))
    assert fractions == sorted(fractions, reverse=True)


def test_symmetry_centered_diagonal():
    shape = (17, 17)
    mu = np.array([[8.0, 8.0]])
    sigma = np.diag([3.0, 5.0])[None]
    vals = field_values(mu, sigma, shape)
    assert np.allclose(vals, vals[::-1, :])
    assert np.allclose(vals, vals[:, ::-1])


def test_generate_writes_ingestion_format(tmp_path):
    spec = SumGaussSpec(shape=(20, 12), gaussians=2, seed=9, threshold=1e-5)
    head = tmp_path / "gauss.json"
    generate(spec, head, chunk_shape=(4, 4))
    store = load_store(head)
    assert store.schema.shape == (20, 12)
    dense = store.dense("a")
    assert np.array_equal(dense, generate_dense(spec), equal_nan=True)


def test_bad_spec():
    with pytest.raises(InputError):
        SumGaussSpec(shape=(4, 4), gaussians=0, seed=0)
    with pytest.raises(InputError):
        SumGaussSpec(shape=(0,), gaussians=1, seed=0)
    with pytest.raises(InputError):
        SumGaussSpec(shape=(), gaussians=1, seed=0)
    for bad in ({"threshold": np.nan}, {"cov_min": np.nan}, {"cov_max": np.nan},
                {"cov_max": 0.0}, {"cov_max": -1.0}):
        with pytest.raises(InputError, match=next(iter(bad))):
            SumGaussSpec(shape=(4, 4), gaussians=1, seed=0, **bad)


# Shapes past one block: a d0 extent of 1 with a large inner size, rows that
# do not divide into whole blocks, and rows above `_BLOCK_CELLS` cells, so
# each block is one row.
_BLOCKED_SHAPES = [(1, 300, 301), (700, 131), (3, 70000), (5, 23, 29, 31), (1,)]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple),
        st.sampled_from(_BLOCKED_SHAPES),
    ),
    seed=st.integers(0, 2**32 - 1),
    gaussians=st.integers(1, 4),
    full=st.booleans(),
    far=st.booleans(),
)
def test_field_values_bit_identical_to_reference(shape, seed, gaussians, full, far):
    d = len(shape)
    mus, sigmas = gaussian_params(SumGaussSpec(shape=shape, gaussians=gaussians, seed=seed))
    if not full:
        sigmas = sigmas * np.eye(d)  # diagonal: every cross term is exactly 0
    if far:
        # q / 2 is 712.5 at the origin and grows from there: every cell of
        # this bump underflows to a subnormal or to 0
        mus[0] = np.zeros(d)
        mus[0][0] = -75.5
        sigmas[0] = 4.0 * np.eye(d)
    got = field_values(mus, sigmas, shape)
    want = reference_field_values(mus, sigmas, shape)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_bit_identity_cases_reach_their_edges():
    # some shape spans several blocks with a short last one, some has rows
    # above `_BLOCK_CELLS` cells
    inner = [int(np.prod(s[1:])) for s in _BLOCKED_SHAPES]
    rows = [max(1, _BLOCK_CELLS // n) for n in inner]
    assert any(s[0] > r and s[0] % r for s, r in zip(_BLOCKED_SHAPES, rows))
    assert any(n > _BLOCK_CELLS for n in inner)
    # the far bump alone gives subnormals and zeros
    vals = field_values(np.array([[-75.5, 0.0]]), 4.0 * np.eye(2)[None], (9, 9))
    tiny = np.finfo(np.float64).tiny
    assert vals.max() < tiny and (vals > 0).any() and (vals == 0).any()


def test_field_values_peak_memory_is_output_plus_a_block():
    shape = (1024, 1024)
    mus, sigmas = gaussian_params(SumGaussSpec(shape=shape, gaussians=4, seed=11))
    assert (sigmas[:, 0, 1] != 0).all()  # full covariances: no term skipped
    tracemalloc.start()
    try:
        out = field_values(mus, sigmas, shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20
