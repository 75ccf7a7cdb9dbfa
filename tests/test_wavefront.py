import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearwave.geometry import ArraySpec, GeometryPose, frequency_factors, sample_pose, synth
from nearwave.wavefront import (
    PolyPhaseModel,
    approx_channel,
    basis_at,
    basis_on_lattice,
    binomial,
    build_degree_set,
    coefficients_from_geometry,
    degree_set_for_shape,
    fraunhofer_distance,
    legendre,
    normalized_offsets,
    range_factor,
    range_factor_taylor,
    spatial_cardinality,
    sqrt_series_coeff,
    truncation_bound,
    truncation_dominant_term,
)

# closed forms used as the oracle for the recurrence
_LEGENDRE_CLOSED = {
    0: lambda x: np.ones_like(x),
    1: lambda x: x,
    2: lambda x: (3 * x**2 - 1) / 2,
    3: lambda x: (5 * x**3 - 3 * x) / 2,
    4: lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
    5: lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
}


def test_legendre_values():
    assert legendre(0, 0.37) == 1.0
    assert legendre(2, 0.5) == pytest.approx(-0.125, abs=1e-15)
    assert legendre(4, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_legendre_recurrence_matches_closed_forms():
    x = np.linspace(-1, 1, 1000)
    for ell, closed in _LEGENDRE_CLOSED.items():
        assert np.max(np.abs(legendre(ell, x) - closed(x))) < 1e-12


def test_legendre_starts_exactly_at_one_and_x():
    x = np.array([-1.0, -0.5, -0.0, 0.0, 0.3, 1.0, np.inf, -np.inf, np.nan])
    assert np.array_equal(legendre(0, x), np.ones_like(x))
    p1 = legendre(1, x)
    assert np.array_equal(p1, x, equal_nan=True)
    assert np.array_equal(np.signbit(p1), np.signbit(x))
    assert type(legendre(0, 0.3)) is float and type(legendre(1, 0.3)) is float
    assert legendre(1, -0.0) == 0.0 and math.copysign(1.0, legendre(1, -0.0)) == -1.0


def test_sqrt_series_coeff_values():
    x = np.linspace(-1, 1, 101)
    assert np.allclose(sqrt_series_coeff(2, x), (1 - x**2) / 2, atol=1e-14)
    assert sqrt_series_coeff(3, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert sqrt_series_coeff(4, 1.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        sqrt_series_coeff(1, 0.5)


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_range_factor_taylor_basics():
    rng = np.random.default_rng(0)
    r_hat = _random_unit(rng)
    assert range_factor_taylor(3, r_hat, np.zeros(3)) == pytest.approx(1.0)
    for _ in range(20):
        delta = 0.05 * rng.normal(size=3)
        assert range_factor_taylor(1, r_hat, delta) == pytest.approx(
            1.0 + r_hat @ delta, abs=1e-15)


def test_range_factor_taylor_next_term_bound():
    # |g_L - g| <= sup|c_{L+1}| t^{L+1} + t^{L+2} / (1 - t) using |P_l| <= 1
    sup_coeff = {2: 0.5, 3: 1 / (3 * math.sqrt(3)), 4: 0.125}
    rng = np.random.default_rng(1)
    for _ in range(1000):
        r_hat = _random_unit(rng)
        delta = rng.normal(size=3)
        t = rng.uniform(0, 0.1)
        delta *= t / np.linalg.norm(delta)
        exact = range_factor(r_hat, delta)
        for L in (1, 2, 3):
            bound = sup_coeff[L + 1] * t ** (L + 1) + t ** (L + 2) / (1 - t)
            err = abs(range_factor_taylor(L, r_hat, delta) - exact)
            assert err <= bound + 1e-14  # rounding floor for tiny offsets


def test_range_factor_taylor_high_order_converges():
    rng = np.random.default_rng(2)
    for _ in range(200):
        r_hat = _random_unit(rng)
        delta = rng.normal(size=3)
        delta *= rng.uniform(0, 0.3) / np.linalg.norm(delta)
        assert range_factor_taylor(20, r_hat, delta) == pytest.approx(
            range_factor(r_hat, delta), abs=1e-12)


def test_normalized_offsets_affine():
    spec = ArraySpec.half_wavelength(ntx=5, nty=3, nrx=3, nry=3)
    rng = np.random.default_rng(3)
    pose = sample_pose(rng)
    off = normalized_offsets(spec, pose)
    assert np.allclose(off[1, 1, 2, 1], 0.0, atol=1e-15)  # both centers
    # second differences vanish along each antenna axis
    for axis in range(4):
        second = np.diff(off, n=2, axis=axis)
        assert np.max(np.abs(second)) < 1e-14
    lim = (spec.tx_aperture + spec.rx_aperture) / (2 * pose.distance)
    assert np.linalg.norm(off, axis=-1).max() <= lim + 1e-15


# ---------------------------------------------------------------------------
# degree sets and basis
# ---------------------------------------------------------------------------

TOPOLOGY_SHAPES = {
    ("linear", "single"): (1, 1, 8, 1),
    ("planar", "single"): (1, 1, 4, 4),
    ("linear", "linear"): (8, 1, 8, 1),
    ("planar", "linear"): (8, 1, 4, 4),
    ("planar", "planar"): (4, 4, 4, 4),
}

TABLE_COUNTS = {
    ("linear", "single"): {1: 2, 2: 3, 3: 4},
    ("planar", "single"): {1: 3, 2: 6, 3: 10},
    ("linear", "linear"): {1: 3, 2: 6, 3: 10},
    ("planar", "linear"): {1: 4, 2: 10, 3: 20},
    ("planar", "planar"): {1: 5, 2: 15, 3: 35},
}


def test_degree_set_cardinalities_match_table():
    for topo, shape in TOPOLOGY_SHAPES.items():
        for L, expected in TABLE_COUNTS[topo].items():
            ds = degree_set_for_shape(L, shape + (1,))
            assert spatial_cardinality(ds) == expected
            assert len(ds) == expected
            ds_f = degree_set_for_shape(L, shape + (4,))
            assert len(ds_f) == 2 * expected


def test_degree_set_ordering_and_zeroing():
    ds = degree_set_for_shape(2, (1, 1, 8, 1, 4))
    totals = ds.sum(axis=1)
    assert np.all(np.diff(totals) <= 0)
    # ties broken lexicographically descending
    for i in range(len(ds) - 1):
        a, b = tuple(ds[i]), tuple(ds[i + 1])
        assert (sum(a), a) > (sum(b), b)
    assert np.all(ds[:, [0, 1, 3]] == 0)  # singleton axes
    assert set(ds[:, 4]) == {0, 1}


def test_degree_set_rejects_short_axes():
    with pytest.raises(ValueError):
        degree_set_for_shape(3, (1, 1, 3, 1, 1))
    ds = degree_set_for_shape(3, (1, 1, 1, 1, 1))  # all singleton is fine
    assert len(ds) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: legendre(-1, 0.5), "ell must be >= 0"),
    (lambda: range_factor_taylor(-1, [0.0, 0.0, 1.0], np.zeros(3)), "order must be >= 0"),
    (lambda: degree_set_for_shape(-1, (1, 1, 4, 1, 1)), "max_degree must be >= 0"),
    (lambda: degree_set_for_shape(1, (1, 0, 4, 1, 1)), "shape components must be >= 1"),
    (lambda: truncation_dominant_term(0, 10.0, 0.01, [0, 0, 1.0], [0.01, 0, 0]), "1, 2, or 3"),
    (lambda: truncation_dominant_term(4, 10.0, 0.01, [0, 0, 1.0], [0.01, 0, 0]), "1, 2, or 3"),
    (lambda: fraunhofer_distance(-0.1, 0.1, 0.01), "apertures must be >= 0"),
    (lambda: fraunhofer_distance(0.1, -0.1, 0.01), "apertures must be >= 0"),
    (lambda: fraunhofer_distance(0.1, 0.1, 0.0), "wavelength > 0"),
    (lambda: fraunhofer_distance(0.1, 0.1, np.nan), "wavelength > 0"),
])
def test_series_and_degree_set_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_build_degree_set_from_spec():
    spec = ArraySpec.half_wavelength(ntx=8, nrx=8)
    ds = build_degree_set(2, spec)
    assert spatial_cardinality(ds) == 6


def test_binomial_values():
    assert binomial(5, 2) == 10.0
    assert binomial(7, -1) == 0.0
    assert binomial(-1, 2) == 1.0
    assert np.allclose(binomial(np.arange(4), 2), [0, 0, 1, 3])


def test_basis_pascal_structure():
    # forward difference of C(n, m) in one axis drops that degree by one
    col = basis_on_lattice((6,), (3,))
    assert np.allclose(np.diff(col), basis_on_lattice((5,), (2,)))
    grid = basis_at((np.array([0, 2, 5]), np.array([1, 3])), (1, 2))
    expected = np.outer([0, 2, 5], [0, 3])
    assert np.allclose(grid, expected)


def batched_model():
    """Three models of the terms 2, 1 and 0 on a 5-sample line, stacked on a batch axis."""
    return PolyPhaseModel(shape=(5,), degrees=np.array([[2], [1], [0]]),
                          coeffs=np.arange(9.0).reshape(3, 3) / 20.0)


@pytest.mark.parametrize("degrees, message", [
    ([[-1], [0]], "0 <= m_d < N_d"),
    ([[4], [0]], "0 <= m_d < N_d"),
    ([[1, 0], [0, 0]], "match the lattice rank"),
    ([1, 0], "match the lattice rank"),
    ([[1], [1]], "must not repeat"),
])
def test_poly_phase_model_checks_each_degree_row(degrees, message):
    with pytest.raises(ValueError, match=message):
        PolyPhaseModel(shape=(4,), degrees=np.array(degrees), coeffs=[0.3, 0.1])


def test_poly_phase_model_checks_the_term_axis():
    degrees = np.array([[1], [0]])
    with pytest.raises(ValueError, match="one entry per degree row"):
        PolyPhaseModel(shape=(4,), degrees=degrees, coeffs=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="one entry per degree row"):
        PolyPhaseModel(shape=(4,), degrees=degrees, coeffs=np.float64(0.5))
    model = batched_model()
    phase = model.phase_cycles()
    assert phase.shape == (3, 5)
    for k in range(3):
        alone = PolyPhaseModel(shape=(5,), degrees=model.degrees, coeffs=model.coeffs[k])
        assert np.array_equal(phase[k], alone.phase_cycles())


def phase_by_terms(model):
    """Phase in cycles summed term by term over full-lattice bases, the oracle of phase_cycles."""
    phase = np.zeros(model.coeffs.shape[:-1] + model.shape)
    for m, a in zip(model.degrees, np.moveaxis(model.coeffs, -1, 0)):
        phase += a.reshape(a.shape + (1,) * len(model.shape)) * basis_on_lattice(model.shape, m)
    return phase


@st.composite
def batched_models(draw):
    """A model on a lattice of rank 1 to 5 with extents 1 to 4, under 0 to 2 batch axes.

    Up to 8 distinct degree rows, coefficients in cycles in [-0.5, 0.5], as ``estimate``
    returns them; so the phase stays below 1000 cycles.
    """
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    row = st.tuples(*[st.integers(0, n - 1) for n in shape])
    degrees = np.array(draw(st.lists(row, min_size=1, max_size=8, unique=True)), dtype=int)
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.uniform(-0.5, 0.5, size=batch + (len(degrees),))
    return PolyPhaseModel(shape=shape, degrees=degrees, coeffs=coeffs)


@settings(max_examples=80, deadline=None)
@given(model=batched_models())
def test_phase_cycles_matches_term_sum_and_batch_equals_loop(model):
    phase = model.phase_cycles()
    assert phase.shape == model.coeffs.shape[:-1] + model.shape
    assert np.max(np.abs(phase - phase_by_terms(model))) <= 1e-12
    for idx in np.ndindex(model.coeffs.shape[:-1]):
        alone = PolyPhaseModel(shape=model.shape, degrees=model.degrees, coeffs=model.coeffs[idx])
        assert np.array_equal(phase[idx], alone.phase_cycles())
        # the readers agree with the phase: one coefficient per term
        read = sum(alone.coefficient(m) * basis_on_lattice(model.shape, m) for m in alone.as_dict())
        assert np.max(np.abs(phase[idx] - read)) <= 1e-12


def test_coefficient_rejects_batched_model():
    with pytest.raises(ValueError, match=r"coefficient needs a single model.*\(3,\)"):
        batched_model().coefficient((1,))


def test_as_dict_rejects_batched_model():
    with pytest.raises(ValueError, match=r"as_dict needs a single model.*\(3,\)"):
        batched_model().as_dict()


# ---------------------------------------------------------------------------
# ground-truth coefficients
# ---------------------------------------------------------------------------


def _direct_phase_cycles(spec, pose, L):
    delta = normalized_offsets(spec, pose)
    g = range_factor_taylor(L, pose.direction, delta)
    return (-pose.distance / spec.wavelength) * g[..., None] * frequency_factors(spec)


def _newton_coefficients(phase, degrees):
    """Independent oracle: multidimensional forward differences at the origin."""
    out = []
    for m in degrees:
        work = phase
        for axis, reps in enumerate(m):
            for _ in range(int(reps)):
                work = np.diff(work, axis=axis)
        out.append(work[(0,) * phase.ndim])
    return np.array(out)


def test_coefficients_single_sample():
    spec = ArraySpec()
    pose = GeometryPose(r=np.array([0.3, -0.2, 7.0]), R=np.eye(3))
    model = coefficients_from_geometry(spec, pose, 0)
    expected = synth(spec, pose, unit_amplitude=True)[0, 0, 0, 0, 0]
    assert np.exp(2j * np.pi * model.coeffs[0]) == pytest.approx(expected, abs=1e-12)


def test_coefficients_broadside_linear_term_vanishes():
    spec = ArraySpec.half_wavelength(ntx=9)
    pose = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    model = coefficients_from_geometry(spec, pose, 1)
    assert model.coefficient((0, 0, 1, 0, 0)) == pytest.approx(0.0, abs=1e-9)


def test_coefficients_reproduce_phase_exactly():
    rng = np.random.default_rng(5)
    spec = ArraySpec.half_wavelength(ntx=6, nty=5, nrx=4, nf=3, df=5e-4)
    for L in (1, 2, 3):
        pose = sample_pose(rng)
        model = coefficients_from_geometry(spec, pose, L)
        direct = _direct_phase_cycles(spec, pose, L)
        assert np.max(np.abs(model.phase_cycles() - direct)) < 1e-9


def test_coefficients_match_newton_oracle():
    rng = np.random.default_rng(6)
    spec = ArraySpec.half_wavelength(ntx=5, nrx=4, nf=2, df=5e-4)
    pose = sample_pose(rng)
    model = coefficients_from_geometry(spec, pose, 2)
    oracle = _newton_coefficients(_direct_phase_cycles(spec, pose, 2), model.degrees)
    assert np.max(np.abs(model.coeffs - oracle)) < 1e-9


def test_approx_channel_basics():
    spec = ArraySpec.half_wavelength(ntx=4, nrx=3, nf=2, df=5e-4)
    rng = np.random.default_rng(7)
    pose = sample_pose(rng)
    model = coefficients_from_geometry(spec, pose, 2)
    h = approx_channel(model)
    assert np.allclose(np.abs(h), 1.0)
    zero = coefficients_from_geometry(spec, pose, 2)
    zero = type(zero)(shape=zero.shape, degrees=zero.degrees,
                      coeffs=np.zeros_like(zero.coeffs))
    assert np.allclose(approx_channel(zero), 1.0)


def test_approx_channel_exactness_invariant():
    rng = np.random.default_rng(8)
    spec = ArraySpec.half_wavelength(ntx=5, nty=4, nrx=4, nry=4, nf=3, df=5e-4)
    pose = sample_pose(rng)
    for L in (1, 2, 3):
        model = coefficients_from_geometry(spec, pose, L)
        expected = np.exp(2j * np.pi * _direct_phase_cycles(spec, pose, L))
        assert np.max(np.abs(approx_channel(model) - expected)) < 1e-9


def test_mismatch_error_decreases_with_degree():
    rng = np.random.default_rng(9)
    spec = ArraySpec.half_wavelength(ntx=16, nrx=8)
    worse = 0
    for _ in range(100):
        pose = sample_pose(rng)
        h = synth(spec, pose, unit_amplitude=True)
        errs = []
        for L in (1, 2, 3):
            model = coefficients_from_geometry(spec, pose, L)
            errs.append(np.mean(np.abs(approx_channel(model) - h) ** 2))
        if not errs[0] >= errs[1] >= errs[2]:
            worse += 1
    assert worse == 0


# ---------------------------------------------------------------------------
# mismatch bounds
# ---------------------------------------------------------------------------


def test_truncation_bound_values():
    D, lam, t = 10.0, 0.01, 0.02
    assert truncation_bound(1, D, lam, t) == pytest.approx(np.pi * D * t**2 / lam)
    assert truncation_bound(2, D, lam, t) == pytest.approx(
        2 * np.pi / (3 * math.sqrt(3)) * D * t**3 / lam)
    assert truncation_bound(3, D, lam, t) == pytest.approx(np.pi / 4 * D * t**4 / lam)
    with pytest.raises(ValueError):
        truncation_bound(4, D, lam, t)


def test_dominant_term_never_exceeds_bound():
    rng = np.random.default_rng(10)
    D, lam = 10.0, 0.01
    for _ in range(2000):
        r_hat = _random_unit(rng)
        delta = rng.normal(size=3)
        delta *= rng.uniform(0, 0.05) / np.linalg.norm(delta)
        t = np.linalg.norm(delta)
        for L in (1, 2, 3):
            exact = truncation_dominant_term(L, D, lam, r_hat, delta)
            assert exact <= truncation_bound(L, D, lam, t) * (1 + 1e-12)


def test_dominant_term_equality_configurations():
    D, lam, t = 10.0, 0.01, 0.04
    r_hat = np.array([0.0, 0.0, 1.0])
    perp = np.array([t, 0.0, 0.0])  # r_hat . delta = 0
    for L in (1, 3):
        assert truncation_dominant_term(L, D, lam, r_hat, perp) == pytest.approx(
            truncation_bound(L, D, lam, t), rel=1e-12)
    x = 1 / math.sqrt(3)
    slanted = t * np.array([math.sqrt(1 - x**2), 0.0, x])
    assert truncation_dominant_term(2, D, lam, r_hat, slanted) == pytest.approx(
        truncation_bound(2, D, lam, t), rel=1e-12)


def test_dominant_term_is_difference_of_truncations():
    # the first dropped term is the step from the order-L to the order-(L+1)
    # truncation; x stays away from the roots of the series coefficients and
    # t >= 0.2, so the oracle's cancellation error stays below 1e-10 relative
    D, lam = 10.0, 0.01
    rng = np.random.default_rng(12)
    for _ in range(5):
        r_hat = _random_unit(rng)
        u = np.cross(r_hat, _random_unit(rng))
        u /= np.linalg.norm(u)
        for x in (-0.9, -0.6, -0.3, 0.15, 0.5, 0.8):
            for t in (0.2, 0.35, 0.5):
                delta = t * (x * r_hat + math.sqrt(1.0 - x**2) * u)
                for L in (1, 2, 3):
                    step = (range_factor_taylor(L + 1, r_hat, delta)
                            - range_factor_taylor(L, r_hat, delta))
                    assert truncation_dominant_term(L, D, lam, r_hat, delta) == pytest.approx(
                        2.0 * np.pi * D / lam * abs(step), rel=1e-9)


def test_fraunhofer_distance():
    assert fraunhofer_distance(0.155, 0.155, 0.01) == pytest.approx(19.22)
    assert fraunhofer_distance(0.1, 0.1, 0.005) == pytest.approx(
        2 * fraunhofer_distance(0.1, 0.1, 0.01))


def test_fraunhofer_worst_case_phase_is_pi_over_eight():
    lt, lr, lam = 0.155, 0.31, 0.01
    d = fraunhofer_distance(lt, lr, lam)
    worst = truncation_bound(1, d, lam, (lt + lr) / (2 * d))
    assert worst == pytest.approx(np.pi / 8, abs=1e-12)


def test_quarter_wave_phase_error_chord():
    chord_db = 10 * np.log10((2 * np.sin(np.pi / 16)) ** 2)
    assert chord_db == pytest.approx(-8.17, abs=0.01)
