import time
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nearwave import ppe
from nearwave.geometry import ArraySpec
from nearwave.ppe import (
    basis_on_lattice,
    binomial,
    circular_average,
    diff,
    diff_multi,
    estimate,
    expand_to_lattice,
    reconstruct,
    weights,
)
from nearwave.wavefront import (
    PolyPhaseModel,
    approx_channel,
    basis_on_support,
    build_degree_set,
    degree_set_for_shape,
    product_degree_set,
    term_order,
)


def random_model(shape, max_degree, rng, amplitude=0.4):
    """Synthetic truth with coefficients inside the unambiguous range."""
    ds = degree_set_for_shape(max_degree, shape)
    coeffs = rng.uniform(-amplitude, amplitude, size=len(ds))
    return PolyPhaseModel(shape=shape, degrees=ds, coeffs=coeffs)


def test_binomial_reexport():
    assert binomial(5, 2) == 10.0
    assert binomial(5, -1) == 0.0
    assert binomial(-1, 2) == 1.0


# ---------------------------------------------------------------------------
# differencing
# ---------------------------------------------------------------------------


def test_diff_linear_phase_is_constant():
    n = np.arange(32)
    f = 0.0371
    s = np.exp(2j * np.pi * f * n)
    out = diff(s, 0)
    assert np.allclose(out, np.exp(2j * np.pi * f))


def test_diff_constant_and_modulus():
    s = np.full((4, 5), 2.0 - 1.0j)
    out = diff(s, 1)
    assert out.shape == (4, 4)
    assert np.allclose(out, abs(2.0 - 1.0j) ** 2)
    rng = np.random.default_rng(0)
    u = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(6, 6)))
    assert np.allclose(np.abs(diff(u, 0)), 1.0)


def test_diff_exhausted_axis_raises():
    with pytest.raises(ValueError):
        diff(np.ones((3, 1), dtype=complex), 1)


def test_diff_multi_identity_and_quadratic():
    rng = np.random.default_rng(1)
    s = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    assert np.array_equal(diff_multi(s, (0, 0)), s)
    a = 0.21
    n = np.arange(12)
    quad = np.exp(2j * np.pi * a * binomial(n, 2))
    out = diff_multi(quad, (2,))
    assert np.allclose(out, np.exp(2j * np.pi * a))


def test_diff_multi_rejects_negative_and_extra_entries():
    s = np.ones((4, 3), dtype=complex)
    with pytest.raises(ValueError, match="m_d >= 0"):
        diff_multi(s, (1, -1))
    with pytest.raises(ValueError, match="at most 2 entries"):
        diff_multi(s, (1, 0, 1))


def test_diff_multi_axis_order_commutes():
    rng = np.random.default_rng(2)
    s = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(6, 5, 4)))
    a = diff_multi(s, (2, 1, 1))
    b = s
    for axis in (1, 2, 0, 0):  # same multiplicities, interleaved order
        b = diff(b, axis)
    assert a.shape == b.shape
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weights_zero_degree_uniform():
    w = weights((0,), (8,))
    assert np.allclose(w, 1 / 8)


def test_weights_known_case():
    w = weights((1,), (4,))
    assert np.allclose(w, [0.3, 0.4, 0.3])


def test_weights_normalized_and_symmetric_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ndim = rng.integers(1, 4)
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        m = tuple(int(rng.integers(0, n)) for n in shape)
        w = weights(m, shape)
        assert w.shape == tuple(n - k for n, k in zip(shape, m))
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(w, w[tuple(slice(None, None, -1) for _ in shape)])


def test_weights_validates_degree():
    with pytest.raises(ValueError):
        weights((4,), (4,))
    with pytest.raises(ValueError, match=r"got m = \(1,\), N = \(4, 4\)"):
        weights((1,), (4, 4))  # rank mismatch
    with pytest.raises(ValueError, match="on every axis"):
        weights((1, 0), (4,))


# ---------------------------------------------------------------------------
# circular averaging
# ---------------------------------------------------------------------------


def test_circular_average_constant_signal():
    phi = 0.83
    s = np.full(16, np.exp(1j * phi))
    out = circular_average(s, (0,))
    assert out == pytest.approx(np.exp(1j * phi), abs=1e-12)


def test_circular_average_rotation_equivariance():
    rng = np.random.default_rng(4)
    s = (rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))) + 3.0
    for phi in rng.uniform(-np.pi, np.pi, size=10):
        lhs = circular_average(np.exp(1j * phi) * s, (0, 0))
        rhs = np.exp(1j * phi) * circular_average(s, (0, 0))
        assert abs(lhs - rhs) < 1e-12


def test_circular_average_rejects_zeros():
    s = np.ones(8, dtype=complex)
    s[3] = 0.0
    with pytest.raises(ValueError):
        circular_average(s, (0,))
    with pytest.raises(ValueError):
        circular_average(np.zeros(8, dtype=complex), (0,))


def test_circular_average_rejects_rank_mismatch():
    s = np.ones((3, 3), dtype=complex)
    for m in [(0,), (0, 0, 0)]:
        with pytest.raises(ValueError, match="signal rank 2"):
            circular_average(s, m)


def test_circular_average_rejects_negative_degree():
    with pytest.raises(ValueError):
        circular_average(np.ones(4, dtype=complex), (-1,))


def test_circular_average_variance_matches_weighted_mean():
    # at high SNR the estimator behaves like plain weighted phase averaging
    rng = np.random.default_rng(5)
    n = 16
    sigma = np.sqrt(0.5 * 10 ** (-30 / 10))
    w = weights((0,), (n,)).ravel()
    circ = np.empty(10_000)
    plain = np.empty(10_000)
    for t in range(10_000):
        y = 1.0 + sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
        circ[t] = np.angle(circular_average(y, (0,)))
        plain[t] = w @ np.angle(y)
    assert np.var(circ) == pytest.approx(np.var(plain), rel=0.1)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def test_estimate_all_ones_gives_zero_coefficients():
    ds = degree_set_for_shape(2, (8, 1))
    model = estimate(np.ones((8, 1), dtype=complex), ds)
    assert np.allclose(model.coeffs, 0.0)


@pytest.mark.parametrize("shape,L", [
    ((1, 1, 8, 1, 1), 1),
    ((1, 1, 8, 1, 1), 3),
    ((4, 4, 4, 4, 1), 2),
    ((8, 1, 4, 4, 3), 2),
    ((6, 1, 6, 1, 2), 3),
])
def test_estimate_noiseless_round_trip(shape, L):
    rng = np.random.default_rng(hash((shape, L)) % 2**32)
    truth = random_model(shape, L, rng)
    y = approx_channel(truth)
    fitted = estimate(y, degree_set_for_shape(L, shape))
    assert fitted.as_dict().keys() == truth.as_dict().keys()
    for m, a in truth.as_dict().items():
        assert fitted.coefficient(m) == pytest.approx(a, abs=1e-9)
    assert np.max(np.abs(reconstruct(fitted) - y)) < 1e-9


@st.composite
def lattice_models(draw):
    """Polynomial phase truth of degree L <= 3 on a lattice of rank 1 to 5.

    Non-singleton axes hold at least L + 1 samples and the coefficients lie
    in +-0.45 cycles, inside the estimator's wrap domain.
    """
    L = draw(st.integers(0, 3))
    extent = st.just(1) | st.integers(max(2, L + 1), L + 3)
    shape = tuple(draw(st.lists(extent, min_size=1, max_size=5)))
    ds = degree_set_for_shape(L, shape)
    coeffs = draw(st.lists(st.floats(-0.45, 0.45), min_size=len(ds), max_size=len(ds)))
    return L, PolyPhaseModel(shape=shape, degrees=ds, coeffs=coeffs)


@settings(max_examples=150, deadline=None)
@given(case=lattice_models())
def test_estimate_noiseless_round_trip_property(case):
    L, truth = case
    y = approx_channel(truth)
    fitted = estimate(y, degree_set_for_shape(L, truth.shape))
    assert np.max(np.abs(fitted.coeffs - truth.coeffs)) < 1e-9
    assert np.max(np.abs(reconstruct(fitted) - y)) < 1e-9


def test_estimate_peeling_leaves_lower_degrees_intact():
    # truth holds only degrees <= 1; fitting with degrees <= 3 returns zeros above
    shape = (10, 1)
    rng = np.random.default_rng(6)
    low = random_model(shape, 1, rng)
    y = approx_channel(low)
    fitted = estimate(y, degree_set_for_shape(3, shape))
    for m, a in fitted.as_dict().items():
        expected = low.coefficient(m) if sum(m) <= 1 else 0.0
        assert a == pytest.approx(expected, abs=1e-9)


def test_estimate_global_phase_moves_only_constant_term():
    shape = (1, 1, 12, 1, 1)
    rng = np.random.default_rng(7)
    truth = random_model(shape, 2, rng)
    y = approx_channel(truth) + 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    phi = 1.234
    base = estimate(y, degree_set_for_shape(2, shape))
    shifted = estimate(np.exp(1j * phi) * y, degree_set_for_shape(2, shape))
    for m in base.as_dict():
        if sum(m) == 0:
            wrap = (shifted.coefficient(m) - base.coefficient(m) - phi / (2 * np.pi)) % 1.0
            assert min(wrap, 1 - wrap) < 1e-10
        else:
            assert shifted.coefficient(m) == pytest.approx(base.coefficient(m), abs=1e-10)


def test_estimate_rejects_bad_inputs():
    ds = degree_set_for_shape(2, (8, 1))
    with pytest.raises(ValueError):
        estimate(np.ones((8,), dtype=complex), ds)  # rank mismatch
    with pytest.raises(ValueError):
        estimate(np.ones((3, 1), dtype=complex), np.array([[3, 0]]))  # degree too high
    with pytest.raises(ValueError, match="2-D array of multi-index rows"):
        estimate(np.ones((8, 1), dtype=complex), [2, 0])  # one multi-index, not a list of rows
    y = np.ones((8, 1), dtype=complex)
    y[0, 0] = np.nan
    with pytest.raises(ValueError):
        estimate(y, ds)


def test_repeated_degree_rows_are_rejected():
    # a noiseless degree-2 phase: peeling the repeated (2, 0) row twice would
    # return a wrong (1, 0) coefficient rather than fail
    n = np.arange(8.0)[:, None]
    y = np.exp(2j * np.pi * (-0.0921 * n + 0.031 * n * (n - 1) / 2))
    repeated = np.array([[2, 0], [2, 0], [1, 0], [0, 0]])
    with pytest.raises(ValueError, match="degree multi-indices must not repeat"):
        estimate(y, repeated)
    model = estimate(y[::2], repeated[1:])
    with pytest.raises(ValueError, match="degree multi-indices must not repeat"):
        expand_to_lattice(model, (np.arange(0, 8, 2), np.arange(1)), (8, 1), repeated)


def test_degree_sets_are_ordered_int_rows_read_in_any_form():
    shape = (3, 4, 2)
    spec = ArraySpec.half_wavelength(ntx=4, nrx=4)
    for ds, lattice in [(degree_set_for_shape(2, shape), shape),
                        (product_degree_set(2, shape), shape),
                        (build_degree_set(2, spec), spec.shape)]:
        assert isinstance(ds, np.ndarray) and ds.dtype.kind == "i" and ds.flags.c_contiguous
        assert ds.shape == (len(ds), len(lattice))
        rows = [tuple(m) for m in ds.tolist()]
        assert rows == sorted(rows, key=term_order, reverse=True)
    rng = np.random.default_rng(21)
    y = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
    ds = degree_set_for_shape(2, shape)
    coeffs = estimate(y, ds).coeffs
    assert np.array_equal(estimate(y, ds.tolist()).coeffs, coeffs)
    assert np.array_equal(estimate(y, tuple(map(tuple, ds))).coeffs, coeffs)


def test_estimate_error_variance_scales_inversely_with_snr():
    shape = (16,)
    degrees = np.array([[2], [1], [0]])
    rng = np.random.default_rng(8)
    truth_coeffs = np.array([0.11, -0.23, 0.05])
    truth = PolyPhaseModel(shape=shape, degrees=degrees, coeffs=truth_coeffs)
    clean = approx_channel(truth)
    snrs = np.array([15.0, 20.0, 25.0, 30.0])
    variances = []
    for snr in snrs:
        sigma = np.sqrt(0.5 * 10 ** (-snr / 10))
        errs = np.empty(1000)
        for t in range(1000):
            y = clean + sigma * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            fitted = estimate(y, degrees)
            errs[t] = fitted.coeffs[0] - truth_coeffs[0]
        variances.append(np.var(errs))
    slope = np.polyfit(snrs / 10.0, np.log10(variances), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_reconstruct_unit_modulus_and_matches_basis():
    shape = (1, 1, 6, 1, 2)
    rng = np.random.default_rng(9)
    model = random_model(shape, 2, rng)
    h = reconstruct(model)
    assert np.allclose(np.abs(h), 1.0)
    assert np.allclose(h, approx_channel(model))


def test_reconstruct_extrapolates_from_pilot_fit():
    # fit on L+1 pilot indices of a line, evaluate on the whole aperture;
    # the truth must keep per-pilot-step increments inside one wrap cycle
    full = 32
    rng = np.random.default_rng(10)
    degrees = np.array([[2], [1], [0]])
    truth = PolyPhaseModel(shape=(full,), degrees=degrees,
                           coeffs=rng.uniform(-1.5e-3, 1.5e-3, size=3))
    clean = approx_channel(truth)
    pilots = np.array([0, 16, 31])
    sub = estimate(clean[pilots], np.array([[2], [1], [0]]))
    expanded = expand_to_lattice(sub, (pilots,), (full,), sub.degrees)
    assert np.max(np.abs(approx_channel(expanded) - clean)) < 1e-9


def test_expand_to_lattice_matches_full_fit():
    shape = (1, 1, 9, 1, 1)
    L = 2
    rng = np.random.default_rng(11)
    truth = random_model(shape, L, rng, amplitude=0.02)
    y = approx_channel(truth)
    coords = (np.arange(1), np.arange(1), np.array([0, 4, 8]), np.arange(1), np.arange(1))
    sub = y[np.ix_(*coords)]
    model_sub = estimate(sub, degree_set_for_shape(L, sub.shape))
    expanded = expand_to_lattice(model_sub, coords, shape, model_sub.degrees)
    for m, a in truth.as_dict().items():
        assert expanded.coefficient(m) == pytest.approx(a, abs=1e-9)


def test_estimate_runtime_scales_linearly():
    degrees = np.array([[2], [1], [0]])
    rng = np.random.default_rng(12)

    def run(n):
        y = np.exp(2j * np.pi * (0.1 * binomial(np.arange(n), 2) % 1.0))
        y = y * np.exp(1j * 0.01 * rng.normal(size=n))
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            estimate(y, degrees)
            best = min(best, time.perf_counter() - t0)
        return best

    run(1 << 16)  # warm up caches and allocator
    t_small = run(1 << 16)
    t_big = run(1 << 17)
    assert t_big <= 2.5 * t_small


# ---------------------------------------------------------------------------
# cached tables
# ---------------------------------------------------------------------------


def peel_oracle(y, rows):
    """The peel with every table rebuilt per term and a full-lattice update; (coeffs, recon)."""
    order = sorted(range(len(rows)), key=lambda i: (int(rows[i].sum()), tuple(rows[i])),
                   reverse=True)
    work = y.copy()
    coeffs = np.empty(len(rows))
    for i in order:
        m = tuple(int(v) for v in rows[i])
        flat = diff_multi(work, m).ravel()
        total = (flat / np.abs(flat)).sum()
        residual = np.angle(flat * np.conj(total))
        w = weights(m, y.shape).ravel()
        a = np.angle(total / abs(total) * np.exp(1j * float(w @ residual))) / (2.0 * np.pi)
        coeffs[i] = a
        work *= np.exp(-2j * np.pi * a * basis_on_lattice(work.shape, m))
    phase = np.zeros(y.shape)
    for m, a in zip(rows, coeffs):
        phase += a * basis_on_lattice(y.shape, m)
    return coeffs, np.exp(2j * np.pi * phase)


def evict_table_caches():
    """Fill both table caches with more distinct keys than they hold."""
    for n in range(2, ppe._weights_1d.cache_info().maxsize + 3):
        weights((1,), (n,))
    for n in range(2, basis_on_support.cache_info().maxsize + 3):
        basis_on_support((n,), (1,))


@st.composite
def noisy_peels(draw):
    """Complex Gaussian input on a lattice of rank 1 to 5 with extents >= 2, and its degrees.

    Degrees run 0 to 3 per axis, below the extent; the rows are distinct.
    """
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=5)))
    row = st.tuples(*[st.integers(0, min(3, n - 1)) for n in shape])
    rows = np.array(draw(st.lists(row, min_size=1, max_size=8, unique=True)), dtype=int)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return y, rows


def oracle_residual_margin(y, rows, coeffs):
    """Least distance from +-pi, in rad, of a residual phase of ``peel_oracle``, replayed."""
    order = sorted(range(len(rows)), key=lambda i: (int(rows[i].sum()), tuple(rows[i])),
                   reverse=True)
    work = y.copy()
    margin = np.inf
    for i in order:
        m = tuple(int(v) for v in rows[i])
        flat = diff_multi(work, m).ravel()
        total = (flat / np.abs(flat)).sum()
        margin = min(margin, np.pi - np.abs(np.angle(flat * np.conj(total))).max())
        work *= np.exp(-2j * np.pi * coeffs[i] * basis_on_lattice(work.shape, m))
    return margin


@settings(max_examples=60, deadline=None)
@given(case=noisy_peels())
def test_estimate_matches_per_call_peel_within_tolerance(case):
    # Level-shared differences, the per-axis weighted mean, the phase reduced before exp,
    # and residuals from float phase differences around a dot-product pilot move the last
    # bits. Over 1500 cases the drift stayed below 9.1e-15 cycles and 1.7e-13 in
    # reconstruction, but on pure noise a last-bit change can carry a residual across the
    # branch cut at +-pi (25 of 1500 skipped), a coefficient across +-0.5 cycles, or the
    # angle of a pilot that nearly cancels (1 of 1500, modulus 1.7e-15: ROADMAP item 7).
    y, rows = case
    coeffs, recon = peel_oracle(y, rows)
    assume(oracle_residual_margin(y, rows, coeffs) > 1e-6)
    assume(np.all(np.abs(0.5 - np.abs(coeffs)) > 1e-9))
    ppe._weights_1d.cache_clear()
    basis_on_support.cache_clear()
    models = [estimate(y, rows) for _ in ("cold", "warm")]
    evict_table_caches()
    models.append(estimate(y, rows))
    for model in models[1:]:
        assert np.array_equal(model.coeffs, models[0].coeffs)
        assert np.array_equal(reconstruct(model), reconstruct(models[0]))
    drift = (models[0].coeffs - coeffs + 0.5) % 1.0 - 0.5
    assert np.max(np.abs(drift)) <= 1e-12
    assert np.max(np.abs(reconstruct(models[0]) - recon)) <= 1e-9


def test_cached_tables_are_read_only():
    with pytest.raises(ValueError):
        ppe._weights_1d(1, 4)[0] = 1.0
    with pytest.raises(ValueError):
        basis_on_support((5, 3), (2, 0))[1, 0] = 1.0


def test_mutating_returned_tables_leaves_estimate_unchanged():
    rng = np.random.default_rng(13)
    shape = (6, 4)
    ds = degree_set_for_shape(2, shape)
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = estimate(y, ds)
    for m in ds:
        weights(m, shape)[...] = 0.0
        weights(m[:1], shape[:1])[...] = 0.0
        basis_on_lattice(shape, m)[...] = 7.0
    after = estimate(y, ds)
    assert np.array_equal(after.coeffs, before.coeffs)
    assert np.array_equal(reconstruct(after), reconstruct(before))


# ---------------------------------------------------------------------------
# batch axes
# ---------------------------------------------------------------------------


@st.composite
def batched_peels(draw):
    """A ``noisy_peels`` lattice and its degrees, under 0 to 2 leading batch axes of 1 to 3."""
    y, rows = draw(noisy_peels())
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + y.shape
    return rng.normal(size=shape) + 1j * rng.normal(size=shape), rows


def _gaussian_batch(shape, max_degree):
    rng = np.random.default_rng(0)
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return y, degree_set_for_shape(max_degree, shape[1:])


@settings(max_examples=60, deadline=None)
@given(case=batched_peels())
# a 320 KiB batch of 4 KiB rows: numpy reuses a temporary in place above 256 KiB
@example(case=_gaussian_batch((80, 16, 16), 2))
def test_estimate_batch_equals_loop(case):
    y, rows = case
    batch = y.shape[:y.ndim - rows.shape[1]]
    model = estimate(y, rows)
    recon = reconstruct(model)
    assert model.coeffs.shape == batch + (len(rows),)
    assert recon.shape == y.shape
    for idx in np.ndindex(batch):
        alone = estimate(y[idx], rows)
        assert np.array_equal(model.coeffs[idx], alone.coeffs)
        assert np.array_equal(recon[idx], reconstruct(alone))


@settings(max_examples=60, deadline=None)
@given(case=batched_peels())
def test_shared_differences_equal_diff_multi_per_term(case):
    y, rows = case
    batch = (0,) * (y.ndim - rows.shape[1])
    ms = sorted((tuple(int(v) for v in row) for row in rows), key=term_order, reverse=True)
    for _, level in groupby(ms, key=sum):
        level = list(level)
        for m, shared in zip(level, ppe._shared_differences(y, level, len(batch)), strict=True):
            assert np.array_equal(shared, diff_multi(y, batch + m))


def test_estimate_checks_apply_to_the_lattice_axes():
    rows = np.array([[2, 1], [0, 0]])
    y = np.ones((5, 3, 2), dtype=complex)
    assert estimate(y, rows).coeffs.shape == (5, 2)
    with pytest.raises(ValueError):
        estimate(y, np.array([[0, 2]]))  # degree reaches the extent of a lattice axis
    with pytest.raises(ValueError):
        estimate(y, np.zeros((1, 4), dtype=int))  # more lattice axes than the signal
    for bad in (np.nan, 0.0):  # one bad observation fails the whole batch
        z = y.copy()
        z[4, 2, 1] = bad
        with pytest.raises(ValueError):
            estimate(z, rows)


def test_expand_to_lattice_rejects_batched_model():
    model = estimate(np.ones((2, 3), dtype=complex), np.array([[1], [0]]))
    with pytest.raises(ValueError, match=r"batch shape \(2,\)"):
        expand_to_lattice(model, (np.array([0, 2, 4]),), (5,), model.degrees)


# ---------------------------------------------------------------------------
# scale and the input check
# ---------------------------------------------------------------------------


@st.composite
def scaled_peels(draw):
    """A noisy polynomial phase on a lattice of rank 1 to 3, all degrees up to total 3 or 4.

    Extents run 2 to 6 and reach total degree 3 at least, under 0 to 2 leading batch
    axes of 1 to 3; the noise is at 20 dB.
    """
    shape = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)
                       .filter(lambda s: sum(s) - len(s) >= 3)))
    total = draw(st.integers(3, 4))
    rows = np.array([m for m in np.ndindex(shape) if sum(m) <= total])
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = PolyPhaseModel(shape=shape, degrees=rows, coeffs=rng.uniform(-0.4, 0.4, len(rows)))
    noise = rng.normal(size=batch + shape) + 1j * rng.normal(size=batch + shape)
    return approx_channel(truth) + 0.07 * noise, rows


@settings(max_examples=60, deadline=None)
@given(case=scaled_peels(),
       scale=st.sampled_from([10.0 ** e for e in (30, -30, 45, -45, 80, -80, 300, -300)]))
def test_estimate_is_scale_invariant(case, scale):
    # each differenced entry multiplies up to 2^4 raw entries, which over- or underflows
    # at these scales unless the magnitudes are divided out first
    y, rows = case
    drift = (estimate(scale * y, rows).coeffs - estimate(y, rows).coeffs + 0.5) % 1.0 - 0.5
    assert np.max(np.abs(drift)) <= 1e-12


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(1.0, np.inf)])
@pytest.mark.parametrize("row", [0, -1])
def test_estimate_rejects_a_bad_entry_in_any_batch_row(bad, row):
    y = np.exp(1j * np.arange(24.0)).reshape(3, 8)
    y[row, 5] = bad
    with pytest.raises(ValueError, match="finite nonzero modulus"):
        estimate(y, np.array([[2], [1], [0]]))


@pytest.mark.parametrize("signal", [np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf]),
                                    np.array([1.0, complex(-np.inf, 1.0)]), np.ones(0)])
def test_circular_average_rejects_non_finite_and_empty(signal):
    with pytest.raises(ValueError):
        circular_average(signal.astype(complex), (0,))


@pytest.mark.parametrize("coords, full_shape, message", [
    ((np.arange(4),), (8, 1), "cover every lattice axis"),
    ((np.arange(3),), (8,), "match the sublattice shape"),
    ((np.array([0, 2, 4, 8]),), (8,), "out of range"),
    ((np.array([0, -1, 4, 6]),), (8,), "out of range"),
    ((np.arange(4),), (8,), "sublattice too small"),
])
def test_expand_to_lattice_rejects_bad_coordinates(coords, full_shape, message):
    rows = np.array([[3], [2], [1], [0]])
    model = PolyPhaseModel(shape=(4,), degrees=rows, coeffs=np.zeros(4))
    degrees = np.array([[4], [0]]) if message == "sublattice too small" else None
    with pytest.raises(ValueError, match=message):
        expand_to_lattice(model, coords, full_shape, degrees)


@pytest.mark.parametrize("degrees", [[1], np.array([[1, 0], [0, 0]]), None])
def test_expand_to_lattice_rejects_bad_degrees(degrees):
    model = PolyPhaseModel(shape=(4,), degrees=np.array([[1], [0]]), coeffs=[0.2, 0.1])
    with pytest.raises(ValueError):
        expand_to_lattice(model, (np.array([0, 2, 4, 6]),), (8,), degrees)


def test_expand_to_lattice_rejects_degrees_of_another_rank():
    # rows of one axis on a two-axis lattice: without the check, lstsq's shape error
    model = PolyPhaseModel(shape=(4, 4), degrees=np.array([[1, 0], [0, 1], [0, 0]]),
                           coeffs=[0.2, 0.1, 0.05])
    coords = (np.array([0, 2, 4, 6]), np.array([0, 2, 4, 6]))
    with pytest.raises(ValueError, match="match the lattice rank"):
        expand_to_lattice(model, coords, (8, 8), np.array([[1], [0]]))


# ---------------------------------------------------------------------------
# array passes
# ---------------------------------------------------------------------------


def test_estimate_difference_passes_on_a_five_axis_lattice(monkeypatch):
    # innermost axes first, terms of a level sorted by their passes: for degrees 1, 2 and 3
    # on 8^5 the phase stack takes 157 float passes (the first axis first would take 181),
    # and the complex stack 50, every pass of a term but its last, which the pilot folds in
    shape = (8, 8, 8, 8, 8)
    calls = {"complex": [], "phase": []}

    def counted(kind, step):
        def wrapped(signal, axis):
            calls[kind].append(axis)
            return step(signal, axis)
        return wrapped

    monkeypatch.setattr(ppe, "diff", counted("complex", diff))
    monkeypatch.setattr(ppe, "_phase_diff", counted("phase", ppe._phase_diff))
    y = np.exp(1j * np.random.default_rng(14).uniform(-np.pi, np.pi, size=shape))
    for L in (1, 2, 3):
        estimate(y, degree_set_for_shape(L, shape))
    assert (len(calls["complex"]), len(calls["phase"])) == (50, 157)


@settings(max_examples=60, deadline=None)
@given(case=batched_peels())
def test_estimate_takes_one_phase_lattice_per_level(case):
    # the residual phases come from float differences of one np.angle per level; only
    # the pilots, one per row and term, are taken as angles beside it
    y, rows = case
    sizes = []
    angle = np.angle

    def counted(z, deg=False):
        sizes.append(np.size(z))
        return angle(z, deg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "angle", counted)
        estimate(y, rows)
    levels = len(set(rows.sum(axis=1).tolist()))
    batch_rows = y.size // np.prod(y.shape[y.ndim - rows.shape[1]:], dtype=int)
    assert sum(sizes) <= levels * y.size + len(rows) * batch_rows


@st.composite
def leaf_parents(draw):
    """Unit phasors on a lattice of rank 1 to 5 under 0 to 2 batch axes, and a leaf axis.

    Extents run 1 to 4, and 2 to 4 on the leaf axis.
    """
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    axis = draw(st.integers(0, len(shape) - 1))
    shape[axis] = draw(st.integers(2, 4))
    batch = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.exp(2j * np.pi * rng.uniform(size=tuple(batch + shape))), len(batch), axis


@settings(max_examples=150, deadline=None)
@given(case=leaf_parents())
def test_leaf_pilot_is_the_sum_of_the_last_difference(case):
    # any m whose first nonzero entry is on the leaf axis ends its passes there; the dot
    # products sum in another order than the plain sum, within 4 eps per summed entry
    x, first, axis = case
    m = (0,) * axis + (1,) * (x.ndim - first - axis)
    batch = x.shape[:first]
    pilot = ppe._leaf_pilot(x, m)
    summed = diff(x, first + axis).reshape(batch + (-1,)).sum(axis=-1)
    assert pilot.shape == batch
    entries = x[(0,) * first].size
    assert np.max(np.abs(pilot - summed), initial=0.0) <= 4 * np.finfo(float).eps * entries


@st.composite
def sixth_degree_models(draw):
    """Polynomial phase truth of total degree 6 on a 1-D lattice of 7 to 10 or a 2-D one.

    The 2-D extents run 2 to 7 and reach total degree 6; coefficients lie in +-0.45 cycles.
    """
    shape = draw(st.one_of(
        st.tuples(st.integers(7, 10)),
        st.tuples(st.integers(2, 7), st.integers(2, 7)).filter(lambda s: sum(s) >= 8)))
    rows = np.array([m for m in np.ndindex(shape) if sum(m) <= 6])
    coeffs = draw(st.lists(st.floats(-0.45, 0.45), min_size=len(rows), max_size=len(rows)))
    return PolyPhaseModel(shape=shape, degrees=rows, coeffs=coeffs)


@settings(max_examples=100, deadline=None)
@given(truth=sixth_degree_models())
def test_estimate_noiseless_round_trip_at_degree_six(truth):
    # six float differences of phases in [-0.5, 0.5] reach 2^5 cycles and keep about
    # 2^5 eps of absolute precision; over 3000 random cases the largest coefficient error
    # was 1.7e-13 cycles and the largest entry error 8.9e-13, as at the complex peel
    y = approx_channel(truth)
    fitted = estimate(y, truth.degrees)
    assert np.max(np.abs(fitted.coeffs - truth.coeffs)) < 1e-11
    assert np.max(np.abs(reconstruct(fitted) - y)) < 1e-10
