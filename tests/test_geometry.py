import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nearwave import geometry
from nearwave.geometry import (
    ArraySpec,
    GeometryPose,
    antenna_positions,
    antenna_positions_alt,
    distance_tensor,
    frequency_factors,
    geometric_parameter_count,
    pair_distances,
    pair_offsets,
    pairwise_distance,
    random_rotation,
    rotation_from_euler,
    rotation_from_tangent,
    rotation_from_tangent_batch,
    rotation_jacobian_batch,
    rotation_log,
    rx_local_grid,
    sample_pose,
    skew,
    synth,
    synth_batch,
    synth_from_distances,
    tx_positions,
    unit_phasor,
)
from nearwave.presets import SPEC_PRESETS
from nearwave.wavefront import normalized_offset


def expm_series(A, terms=30):
    """Independent matrix-exponential oracle: truncated power series."""
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_euler_identity():
    assert np.allclose(rotation_from_euler(0, 0, 0), np.eye(3))


def test_euler_x_quarter_turn_maps_y_to_z():
    R = rotation_from_euler(np.pi / 2, 0, 0)
    assert np.allclose(R @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)


def test_euler_orthonormal_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        R = rotation_from_euler(*rng.uniform(-np.pi, np.pi, size=3))
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(R) - 1) < 1e-12


@settings(max_examples=200, deadline=None)
@given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3))
def test_euler_is_product_of_axis_exponentials(angles):
    # Rz @ Ry @ Rx with each factor the series oracle of expm(skew(phi e_i))
    Rx, Ry, Rz = (expm_series(skew(phi * e)) for phi, e in zip(angles, np.eye(3)))
    assert np.max(np.abs(rotation_from_euler(*angles) - Rz @ Ry @ Rx)) < 1e-12


def test_tangent_zero_is_identity():
    assert np.allclose(rotation_from_tangent([0, 0, 0]), np.eye(3))


def test_tangent_matches_euler_and_series_oracle():
    w = np.array([0.0, 0.0, np.pi / 2])
    R = rotation_from_tangent(w)
    assert np.max(np.abs(R - rotation_from_euler(0, 0, np.pi / 2))) < 1e-12
    assert np.max(np.abs(R - expm_series(skew(w)))) < 1e-12


def test_tangent_det_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.normal(size=3)
        w *= rng.uniform(0, np.pi) / np.linalg.norm(w)
        R = rotation_from_tangent(w)
        assert abs(np.linalg.det(R) - 1) < 1e-12
        assert np.max(np.abs(R - expm_series(skew(w)))) < 1e-12


def test_tangent_inverse_property():
    rng = np.random.default_rng(11)
    for _ in range(30):
        w = rng.normal(size=3)
        R = rotation_from_tangent(w) @ rotation_from_tangent(-w)
        assert np.max(np.abs(R - np.eye(3))) < 1e-10


def test_rotation_jacobian_exact_at_zero():
    J = rotation_jacobian_batch(np.zeros((1, 3)))[0]
    for i in range(3):
        assert np.array_equal(J[i], skew(np.eye(3)[i]))


# tangent norms: zero, both sides of the 1e-9 small-angle switch, generic
@settings(max_examples=80, deadline=None)
@given(direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       norm=st.sampled_from([0.0, 3e-10, 3e-9, 1e-5]) | st.floats(1e-3, 3.0))
def test_rotation_jacobian_matches_finite_differences(direction, norm):
    u = np.array(direction)
    if np.linalg.norm(u) < 1e-3:
        u = np.array([1.0, 0.0, 0.0])
    w = norm * u / np.linalg.norm(u)
    J = rotation_jacobian_batch(w[None])[0]
    step = 1e-6
    for i in range(3):
        e = step * np.eye(3)[i]
        fd = (rotation_from_tangent_batch((w + e)[None])[0]
              - rotation_from_tangent_batch((w - e)[None])[0]) / (2.0 * step)
        # central differences of entries of size <= 1: truncation step^2/6 plus
        # rounding of a few ULPs over 2 step, together below 1e-9
        assert np.max(np.abs(J[i] - fd)) < 1e-9


def test_rotation_log_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        R = random_rotation(rng)
        w = rotation_log(R)
        assert np.linalg.norm(w) <= np.pi + 1e-12
        assert np.max(np.abs(rotation_from_tangent(w) - R)) < 1e-8


@pytest.mark.parametrize("w", [[1e-9, -2e-9, 3e-9], [0.0, 0.0, 5e-8], [0.0, 0.0, 0.0]])
def test_rotation_log_round_trip_at_small_angles(w):
    # below 1e-7 rad, rotation_log reads the tangent off the antisymmetric part
    R = rotation_from_tangent(w)
    assert np.allclose(rotation_log(R), w, rtol=1e-9, atol=1e-24)
    assert np.max(np.abs(rotation_from_tangent(rotation_log(R)) - R)) < 1e-15


def test_rotation_log_near_pi():
    rng = np.random.default_rng(6)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = axis * (np.pi - 1e-7)
        R = rotation_from_tangent(w)
        assert np.max(np.abs(rotation_from_tangent(rotation_log(R)) - R)) < 1e-8


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------


def test_singleton_tx_at_origin():
    spec = ArraySpec(ntx=1, nty=1, nrx=1, nry=1)
    assert np.allclose(tx_positions(spec), 0.0)


def test_two_element_tx_coordinates():
    spec = ArraySpec(ntx=2, dtx=0.005)
    pos = tx_positions(spec)
    assert np.allclose(pos[:, 0, 0], [-0.0025, 0.0025])
    assert np.allclose(pos[..., 1:], 0.0)


def test_rx_positions_mean_is_translation():
    rng = np.random.default_rng(9)
    spec = ArraySpec.half_wavelength(ntx=3, nrx=4, nry=2)
    for _ in range(10):
        pose = sample_pose(rng)
        _, rx = antenna_positions(spec, pose)
        assert np.allclose(rx.reshape(-1, 3).mean(axis=0), pose.r, atol=1e-12)


def test_alt_positions_identity_angles():
    spec = ArraySpec.half_wavelength(ntx=4, nrx=2)
    tx, rx = antenna_positions_alt(spec, 10.0, (0, 0, 0), (0, 0, 0))
    assert np.allclose(rx.reshape(-1, 3).mean(axis=0), [0, 0, 10.0], atol=1e-12)
    assert np.allclose(tx, tx_positions(spec))
    for distance in (0.0, -10.0):
        with pytest.raises(ValueError, match="distance must be > 0"):
            antenna_positions_alt(spec, distance, (0, 0, 0), (0, 0, 0))


def _distance_set(tx, rx):
    diff = rx.reshape(-1, 1, 3) - tx.reshape(1, -1, 3)
    return np.sort(np.linalg.norm(diff, axis=-1), axis=None)


def test_alt_linear_single_two_parameters():
    # distances depend only on (D, phi_ty): the other tx angles are redundant
    spec = ArraySpec.half_wavelength(ntx=8)
    rng = np.random.default_rng(2)
    for _ in range(5):
        phi_ty = rng.uniform(-np.pi, np.pi)
        base = _distance_set(*antenna_positions_alt(spec, 10.0, (0, phi_ty, 0), (0, 0, 0)))
        phi_tx, phi_tz = rng.uniform(-np.pi, np.pi, size=2)
        other = _distance_set(
            *antenna_positions_alt(spec, 10.0, (phi_tx, phi_ty, phi_tz), (0, 0, 0)))
        assert np.allclose(base, other, atol=1e-12)
    assert geometric_parameter_count("linear", "single") == 2


def test_alt_planar_linear_z_angle_redundancy():
    spec = ArraySpec.half_wavelength(ntx=4, nty=3, nrx=5)
    rng = np.random.default_rng(4)
    for _ in range(5):
        tx_ang = rng.uniform(-np.pi / 2, np.pi / 2, size=3)
        rx_ang = rng.uniform(-np.pi / 2, np.pi / 2, size=3)
        rx_ang[0] = 0.0  # x-rotation fixes a linear array laid along x
        a = _distance_set(*antenna_positions_alt(spec, 8.0, tuple(tx_ang), tuple(rx_ang)))
        shifted = (tx_ang[0], tx_ang[1], tx_ang[2] - rx_ang[2])
        b = _distance_set(*antenna_positions_alt(
            spec, 8.0, shifted, (rx_ang[0], rx_ang[1], 0.0)))
        assert np.allclose(a, b, atol=1e-10)


def test_alt_matches_primary_frame_distances():
    # applying Rt^{-1} globally maps the alt frame onto the primary one
    spec = ArraySpec.half_wavelength(ntx=3, nty=2, nrx=4)
    rng = np.random.default_rng(12)
    for _ in range(5):
        tx_ang = rng.uniform(-1, 1, size=3)
        rx_ang = rng.uniform(-1, 1, size=3)
        D = rng.uniform(5, 15)
        Rt = rotation_from_euler(*tx_ang)
        Rr = rotation_from_euler(*rx_ang)
        pose = GeometryPose(r=D * Rt.T @ np.array([0, 0, 1.0]), R=Rt.T @ Rr)
        a = _distance_set(*antenna_positions_alt(spec, D, tuple(tx_ang), tuple(rx_ang)))
        b = _distance_set(*antenna_positions(spec, pose))
        assert np.allclose(a, b, atol=1e-10)


def test_geometric_parameter_counts():
    assert geometric_parameter_count("linear", "single") == 2
    assert geometric_parameter_count("planar", "single") == 3
    assert geometric_parameter_count("linear", "linear") == 4
    assert geometric_parameter_count("planar", "linear") == 5
    assert geometric_parameter_count("planar", "planar") == 6
    assert geometric_parameter_count("single", "planar") == 3  # order-insensitive
    with pytest.raises(ValueError):
        geometric_parameter_count("single", "single")


# ---------------------------------------------------------------------------
# distances and channel synthesis
# ---------------------------------------------------------------------------


def test_single_antenna_distance():
    spec = ArraySpec()
    pose = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    assert pairwise_distance(spec, pose, (0, 0), (0, 0)) == pytest.approx(10.0)


def test_center_index_distance_equals_center_distance():
    spec = ArraySpec.half_wavelength(ntx=5, nrx=3)
    rng = np.random.default_rng(8)
    pose = sample_pose(rng)
    assert pairwise_distance(spec, pose, (2, 0), (1, 0)) == pytest.approx(
        pose.distance, rel=1e-12)


def test_distance_equals_scaled_offset_norm():
    spec = ArraySpec.half_wavelength(ntx=4, nty=2, nrx=3, nry=2)
    rng = np.random.default_rng(10)
    for _ in range(5):
        pose = sample_pose(rng)
        for _ in range(10):
            n_t = (rng.integers(4), rng.integers(2))
            n_r = (rng.integers(3), rng.integers(2))
            d = pairwise_distance(spec, pose, n_t, n_r)
            delta = normalized_offset(spec, pose, n_t, n_r)
            ref = pose.distance * np.linalg.norm(pose.direction + delta)
            assert abs(d - ref) <= 1e-12 * ref


def test_offset_norm_within_aperture_bound():
    spec = ArraySpec.half_wavelength(ntx=8, nty=4, nrx=6, nry=2)
    rng = np.random.default_rng(13)
    bound_num = spec.tx_aperture + spec.rx_aperture
    for _ in range(10):
        pose = sample_pose(rng)
        lim = bound_num / (2 * pose.distance)
        for _ in range(10):
            n_t = (rng.integers(8), rng.integers(4))
            n_r = (rng.integers(6), rng.integers(2))
            delta = normalized_offset(spec, pose, n_t, n_r)
            assert np.linalg.norm(delta) <= lim + 1e-15


def test_synth_center_frequency_factor():
    spec = ArraySpec.half_wavelength(ntx=2, nf=5, df=1e-3)
    factors = frequency_factors(spec)
    assert factors[2] == 1.0
    assert np.allclose(np.diff(factors), 1e-3)


def test_synth_amplitudes():
    spec = ArraySpec.half_wavelength(ntx=6, nrx=2)
    rng = np.random.default_rng(14)
    pose = sample_pose(rng)
    h = synth(spec, pose)
    dist = distance_tensor(spec, pose)
    assert np.allclose(np.abs(h), (pose.distance / dist)[..., None])
    h1 = synth(spec, pose, unit_amplitude=True)
    assert np.allclose(np.abs(h1), 1.0)


def test_synth_phase_at_center_frequency():
    spec = ArraySpec.half_wavelength(ntx=4, nf=3, df=5e-4)
    rng = np.random.default_rng(15)
    pose = sample_pose(rng)
    h = synth(spec, pose, unit_amplitude=True)
    dist = distance_tensor(spec, pose)
    expected = np.exp(-2j * np.pi / spec.wavelength * dist)
    assert np.allclose(h[..., 1], expected, atol=1e-9)


def test_synth_batch_matches_synth():
    spec = ArraySpec.half_wavelength(ntx=4, nrx=3, nf=2, df=5e-4)
    rng = np.random.default_rng(16)
    poses = [sample_pose(rng) for _ in range(4)]
    batch = synth_batch(spec, np.stack([p.r for p in poses]),
                        np.stack([p.R for p in poses]))
    for i, pose in enumerate(poses):
        assert np.allclose(batch[i], synth(spec, pose), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(preset=st.sampled_from(sorted(SPEC_PRESETS)),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
       unit=st.booleans())
def test_synth_batch_equals_loop_bit_for_bit(preset, seeds, unit):
    spec = SPEC_PRESETS[preset]
    poses = [sample_pose(np.random.default_rng(seed)) for seed in seeds]
    batch = synth_batch(spec, np.stack([p.r for p in poses]),
                        np.stack([p.R for p in poses]), unit)
    for h, pose in zip(batch, poses):
        assert np.array_equal(h, synth(spec, pose, unit))


@pytest.mark.parametrize("nf, df", [(1, 0.0), (8, 5e-4)])
@pytest.mark.parametrize("unit", [False, True])
def test_synth_batch_bits_equal_the_textbook_formula(nf, df, unit):
    spec = ArraySpec.half_wavelength(ntx=4, nty=2, nrx=3, nf=nf, df=df)
    rng = np.random.default_rng(17)
    poses = [sample_pose(rng) for _ in range(4)]
    r, R = np.stack([p.r for p in poses]), np.stack([p.R for p in poses])
    d = np.linalg.norm(pair_offsets(spec, r, R), axis=-1)[..., None]
    amplitude = 1.0
    if not unit:
        amplitude = np.array([p.distance for p in poses]).reshape(-1, 1, 1, 1, 1, 1) / d
    expected = amplitude * unit_phasor(d * (frequency_factors(spec) * (-1.0 / spec.wavelength)))
    assert np.array_equal(synth_batch(spec, r, R, unit), expected)
    # the in-place path, into a workspace as the MLE's block kernel passes it
    out, work = (np.empty(expected.shape, dtype=complex) for _ in range(2))
    assert np.array_equal(synth_from_distances(spec, r, d[..., 0], unit, out=out, work=work),
                          expected)
    # against the complex exp of the phase in radians: that phase's rounding, and exp's
    # reduction of it, scale with its magnitude (measured up to 2.0 eps |phase| here)
    phase = (-2.0 * np.pi / spec.wavelength * d) * frequency_factors(spec)
    eps = np.finfo(float).eps
    assert np.all(np.abs(expected - amplitude * np.exp(1j * phase))
                  <= 4.0 * eps * (np.abs(phase) + 1.0) * np.abs(amplitude))


# the largest |unit_phasor(c) - exp(2 pi j f)| measured, f = c - rint(c), over 2e7 uniform
# draws of c each within +-0.5, +-1500, +-1e6 and +-1e12 cycles, is 4.0e-16 (1.8 eps)
PHASOR_TOLERANCE = 5e-16
cycle_arrays = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64).map(np.array)


@settings(max_examples=200, deadline=None)
@given(cycles=cycle_arrays)
def test_unit_phasor_is_exp_of_the_reduced_phase(cycles):
    phasor = unit_phasor(cycles)
    reduced = cycles - np.rint(cycles)
    assert np.all(np.abs(phasor - np.exp(2j * np.pi * reduced)) <= PHASOR_TOLERANCE)
    assert np.all(np.abs(np.abs(phasor) - 1.0) <= 4.5e-16)
    # whole cycles and half cycles, exactly
    assert np.array_equal(unit_phasor(np.rint(cycles)), np.ones(len(cycles), dtype=complex))
    assert np.array_equal(unit_phasor(np.rint(cycles) + 0.5).real, -np.ones(len(cycles)))


def test_unit_phasor_special_values():
    assert unit_phasor(np.zeros(3)).tolist() == [1 + 0j] * 3
    assert np.array_equal(unit_phasor(np.array([0.5, -0.5, 2.5, -7.5])).real, -np.ones(4))
    assert np.array_equal(unit_phasor(np.array([1.0, -3.0, 2.0**53])), np.ones(3, dtype=complex))
    with np.errstate(invalid="ignore"):
        bad = unit_phasor(np.array([np.nan, np.inf, -np.inf]))
        assert np.all(np.isnan(np.exp(2j * np.pi * np.array([np.nan, np.inf, -np.inf]))))
    assert np.all(np.isnan(bad.real) & np.isnan(bad.imag))


@settings(max_examples=60, deadline=None)
@given(cycles=cycle_arrays, rows=st.integers(1, 4))
def test_unit_phasor_buffers_and_batch_change_no_bit(cycles, rows):
    batch = np.stack([cycles * (k + 1) for k in range(rows)])
    fresh = unit_phasor(batch)
    out, work = np.full(batch.shape, np.nan + 0j), np.full(batch.shape, np.nan + 0j)
    assert unit_phasor(batch, out, work) is out
    assert np.array_equal(out, fresh)
    # the phase may already sit in the first half of work, as synthesis writes it
    first_half = work.reshape(-1).view(float)[:batch.size].reshape(batch.shape)
    first_half[...] = batch
    assert np.array_equal(unit_phasor(first_half, work=work), fresh)
    for row, phasor in zip(batch, fresh):
        assert np.array_equal(unit_phasor(row), phasor)


# 1 to 8 antennas per axis, spacings and translations scaled together from
# 1e-3 to 1e3 so the offsets span that range too
@settings(max_examples=120, deadline=None)
@given(counts=st.tuples(*[st.integers(1, 8)] * 4), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e), num_poses=st.integers(1, 3))
def test_pair_distance_kernel_bit_for_bit(counts, seed, scale, num_poses):
    nrx, nry, ntx, nty = counts
    rng = np.random.default_rng(seed)
    dtx, dty, drx, dry = scale * rng.uniform(1e-3, 1e-1, size=4)
    spec = ArraySpec(ntx=ntx, nty=nty, nrx=nrx, nry=nry, dtx=dtx, dty=dty, drx=drx, dry=dry)
    r = scale * rng.normal(size=(num_poses, 3))
    R = np.stack([random_rotation(rng) for _ in range(num_poses)])
    offsets = pair_offsets(spec, r, R)
    # oracle: the plain broadcast over the component axis
    rx = r[:, None, None, :] + np.einsum("sij,xyj->sxyi", R, rx_local_grid(spec))
    assert np.array_equal(offsets, rx[:, :, :, None, None, :]
                          - tx_positions(spec)[None, None, None, :, :, :])
    assert np.array_equal(pair_distances(offsets), np.linalg.norm(offsets, axis=-1))


# the kernel behind synthesis and the MLE, which never forms the offsets, over
# the same layouts and scales
@settings(max_examples=60, deadline=None)
@given(counts=st.tuples(*[st.integers(1, 8)] * 4), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_distance_kernel_keeps_the_bits_of_the_offset_norm(counts, seed, scale):
    nrx, nry, ntx, nty = counts
    rng = np.random.default_rng(seed)
    dtx, dty, drx, dry = scale * rng.uniform(1e-3, 1e-1, size=4)
    spec = ArraySpec(ntx=ntx, nty=nty, nrx=nrx, nry=nry, dtx=dtx, dty=dty, drx=drx, dry=dry)
    r = scale * rng.normal(size=(2, 3))
    R = np.stack([random_rotation(rng) for _ in range(2)])
    dist = geometry._distances(spec, r, R)[1]
    assert np.array_equal(dist, np.linalg.norm(pair_offsets(spec, r, R), axis=-1))


def test_pair_distances_of_coincident_antennas():
    # two identical lines laid on each other: the diagonal pairs coincide
    spec = ArraySpec.half_wavelength(ntx=5, nrx=5)
    offsets = pair_offsets(spec, np.zeros((1, 3)), np.eye(3)[None])
    dist = pair_distances(offsets)
    assert np.array_equal(dist, np.linalg.norm(offsets, axis=-1))
    assert np.all(dist[0, np.arange(5), 0, np.arange(5), 0] == 0.0)
    assert np.all(np.delete(dist.ravel(), np.arange(5) * 6) > 0.0)


# ---------------------------------------------------------------------------
# pose sampling
# ---------------------------------------------------------------------------


def test_sample_pose_shell_and_rotation():
    rng = np.random.default_rng(17)
    for _ in range(200):
        pose = sample_pose(rng, 5.0, 15.0)
        assert 5.0 <= pose.distance <= 15.0
        assert np.max(np.abs(pose.R.T @ pose.R - np.eye(3))) < 1e-12


def test_sample_pose_volume_uniform_cubed_radius():
    rng = np.random.default_rng(18)
    radii = np.array([sample_pose(rng, 5.0, 15.0).distance for _ in range(10_000)])
    stat = stats.kstest(radii**3, stats.uniform(loc=125.0, scale=3375.0 - 125.0).cdf)
    assert stat.statistic < 0.05


def test_sample_pose_radius_measure():
    rng = np.random.default_rng(19)
    radii = np.array([sample_pose(rng, 5.0, 15.0, measure="radius").distance
                      for _ in range(5_000)])
    stat = stats.kstest(radii, stats.uniform(loc=5.0, scale=10.0).cdf)
    assert stat.statistic < 0.05
    with pytest.raises(ValueError):
        sample_pose(rng, 5.0, 15.0, measure="area")


def test_spec_validation():
    with pytest.raises(ValueError):
        ArraySpec(ntx=0)
    with pytest.raises(ValueError):
        ArraySpec(ntx=2, dtx=0.0)  # spacing required once the axis is populated
    with pytest.raises(ValueError):
        ArraySpec(fc=0.0)
    with pytest.raises(ValueError):
        ArraySpec(df=-1e-4)
    # NaN and infinity fail every check, and a singleton's spacing is not negative
    for bad in (dict(fc=np.nan), dict(fc=np.inf), dict(df=np.nan), dict(df=np.inf),
                dict(ntx=2, dtx=np.nan), dict(ntx=2, dtx=np.inf), dict(dry=np.nan),
                dict(dty=-0.1)):
        with pytest.raises(ValueError):
            ArraySpec(**bad)
    # half_wavelength checks the carrier before it divides by it
    for fc in (0.0, -30e9, np.nan, np.inf):
        with pytest.raises(ValueError, match="fc must be finite and > 0"):
            ArraySpec.half_wavelength(ntx=4, fc=fc)
    spec = ArraySpec.half_wavelength(ntx=4, nty=2, nrx=3, nf=2)
    assert spec.shape == (3, 1, 4, 2, 2)
    assert spec.size == 48
    assert spec.tx_topology == "planar" and spec.rx_topology == "linear"
    assert ArraySpec().tx_topology == "single"
    assert spec.tx_aperture == pytest.approx(
        np.hypot(3 * spec.dtx, 1 * spec.dty))


# a stray numpy warning on the way to the error fails the case
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r, angles", [
    ([np.nan, 0.0, 10.0], (0.0, 0.0, 0.0)),
    ([0.0, np.inf, 10.0], (0.0, 0.0, 0.0)),
    ([0.0, 0.0, 10.0], (np.nan, 0.0, 0.0)),
    ([0.0, 0.0, 10.0], (0.0, 0.0, np.nan)),
    ([0.0, 0.0, 10.0], (np.inf, 0.0, 0.0)),
])
def test_pose_rejects_non_finite(r, angles):
    with pytest.raises(ValueError, match="finite"):
        GeometryPose.from_euler(r, *angles)


@pytest.mark.parametrize("rmin, rmax", [(5.0, np.inf), (5.0, np.nan), (np.nan, 15.0)])
def test_sample_pose_needs_a_finite_shell(rmin, rmax):
    with pytest.raises(ValueError, match="rmax < inf"):
        sample_pose(np.random.default_rng(0), rmin, rmax)


@pytest.mark.filterwarnings("error")
def test_sample_pose_needs_a_finite_cubed_radius():
    for measure in ("volume", "radius"):
        with pytest.raises(ValueError, match=r"rmax\*\*3 < inf"):
            sample_pose(np.random.default_rng(0), 1e200, 1e201, measure)
    # a shell whose cube is finite keeps its draws, however large
    pose = sample_pose(np.random.default_rng(0), 1.0, 5e102)
    assert pose.distance == pytest.approx(
        np.random.default_rng(0).uniform(1.0, 5e102**3) ** (1.0 / 3.0), rel=1e-15)


def test_pose_validation():
    with pytest.raises(ValueError):
        GeometryPose(r=np.zeros(3), R=np.eye(3))
    with pytest.raises(ValueError):
        GeometryPose(r=np.array([0, 0, 1.0]), R=np.diag([1.0, 1.0, -1.0]))
    bad = np.eye(3)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GeometryPose(r=np.array([0, 0, 1.0]), R=bad)


def replayed_rotation(rng):
    """The quaternion draw and formula of random_rotation, in numpy scalars."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


@pytest.mark.parametrize("seed", range(8))
def test_sample_pose_draw_order(seed):
    # the radius, then the direction, then the quaternion, each from one draw
    pose = sample_pose(np.random.default_rng(seed), 5.0, 15.0)
    replay = np.random.default_rng(seed)
    radius = replay.uniform(5.0**3, 15.0**3) ** (1.0 / 3.0)
    direction = replay.normal(size=3)
    r = radius * direction / np.linalg.norm(direction)
    assert pose.r.tobytes() == r.tobytes()
    assert pose.R.tobytes() == replayed_rotation(replay).tobytes()


class ZeroFirstDirection:
    """A generator whose first 3-vector normal draw reads zeros; it logs every draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def uniform(self, low, high):
        self.draws.append("uniform")
        return self.rng.uniform(low, high)

    def normal(self, size):
        self.draws.append(f"normal({size})")
        value = self.rng.normal(size=size)
        return np.zeros(3) if self.draws.count("normal(3)") == 1 and size == 3 else value


def test_sample_pose_redraws_a_zero_direction():
    rng = ZeroFirstDirection(3)
    pose = sample_pose(rng, 5.0, 15.0, measure="radius")
    assert rng.draws == ["uniform", "normal(3)", "normal(3)", "normal(4)"]
    replay = np.random.default_rng(3)
    radius = replay.uniform(5.0, 15.0)
    replay.normal(size=3)  # the draw that read zeros
    direction = replay.normal(size=3)
    assert pose.r.tobytes() == (radius * direction / np.linalg.norm(direction)).tobytes()
    assert pose.R.tobytes() == replayed_rotation(replay).tobytes()


# a stray numpy warning on the way to a verdict fails the test
@pytest.mark.filterwarnings("error")
def test_pose_check_verdicts_at_the_edges():
    z = np.array([0.0, 0.0, 1.0])
    R = np.eye(3)
    R[0, 1] = 2e-12
    with pytest.raises(ValueError, match="orthonormal"):
        GeometryPose(r=z, R=R)
    R[0, 1] = 5e-13
    assert GeometryPose(r=z, R=R).R[0, 1] == 5e-13
    with pytest.raises(ValueError, match="determinant"):
        GeometryPose(r=z, R=np.diag([1.0, -1.0, 1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((0, 0), (1, 2)):
            R = np.eye(3)
            R[entry] = bad
            with pytest.raises(ValueError, match="orthonormal"):
                GeometryPose(r=z, R=R)
        r = z.copy()
        r[1] = bad
        with pytest.raises(ValueError, match="translation"):
            GeometryPose(r=r, R=np.eye(3))
    # the squared length must be nonzero and finite
    assert GeometryPose(r=[1e154, 0.0, 0.0], R=np.eye(3)).r[0] == 1e154
    for length in (1e155, 1e-162):
        with pytest.raises(ValueError, match="translation"):
            GeometryPose(r=[length, 0.0, 0.0], R=np.eye(3))
