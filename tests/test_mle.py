import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearwave import mle
from nearwave.geometry import (
    ArraySpec,
    GeometryPose,
    frequency_factors,
    pair_offsets,
    rotation_from_euler,
    rotation_from_tangent_batch,
    rotation_jacobian_batch,
    rx_local_grid,
    sample_pose,
    synth,
    synth_batch,
)
from nearwave.mle import (
    COST_VARIANTS,
    MleConfig,
    batched_cost,
    beta_hat,
    cost_and_grad,
    cost_beta,
    cost_plain,
    cost_unit_beta,
    landscape_scan,
    optimize,
    write_trajectory_csv,
)
from nearwave.presets import SPEC_PRESETS
from nearwave.sim import add_noise

SPEC = ArraySpec.half_wavelength(ntx=8, nrx=2)
TRUTH = GeometryPose(r=np.array([0.2, -0.4, 9.0]), R=np.eye(3))

FD_STEP = 1e-6  # relative central-difference step of the gradient oracle


def draw_starts(rng, config):
    """``config.num_starts`` random starts from sample_pose's default 5-15 m shell."""
    return [sample_pose(rng) for _ in range(config.num_starts)]


def fd_gradient(y, spec, params, base_rotations, variant):
    """Central finite differences of batched_cost over (r, omega), shape (S, 6)."""
    grad = np.zeros_like(params)
    for j in range(6):
        step = FD_STEP * np.maximum(1.0, np.abs(params[:, j]))
        up = params.copy()
        up[:, j] += step
        down = params.copy()
        down[:, j] -= step
        cp = batched_cost(y, spec, up, base_rotations, variant)
        cm = batched_cost(y, spec, down, base_rotations, variant)
        grad[:, j] = (cp - cm) / (2.0 * step)
    return grad


def test_costs_vanish_at_true_pose():
    y = synth(SPEC, TRUTH)
    assert cost_plain(y, SPEC, TRUTH) == pytest.approx(0.0, abs=1e-20)
    assert cost_beta(y, SPEC, TRUTH) == pytest.approx(0.0, abs=1e-12)
    assert cost_unit_beta(y, SPEC, TRUTH) == pytest.approx(0.0, abs=1e-12)


def test_cost_plain_antipodal_unit_amplitude():
    y = -synth(SPEC, TRUTH, unit_amplitude=True)
    assert cost_plain(y, SPEC, TRUTH, unit_amplitude=True) == pytest.approx(4.0)


def test_cost_beta_absorbs_complex_attenuation():
    y = (0.7 - 1.2j) * synth(SPEC, TRUTH)
    assert cost_beta(y, SPEC, TRUTH) == pytest.approx(0.0, abs=1e-12)
    assert cost_unit_beta(y, SPEC, TRUTH) > 1e-3  # modulus change is not absorbed
    y_rot = np.exp(0.9j) * synth(SPEC, TRUTH)
    assert cost_unit_beta(y_rot, SPEC, TRUTH) == pytest.approx(0.0, abs=1e-12)


def test_cost_beta_never_above_plain():
    rng = np.random.default_rng(0)
    y = add_noise(synth(SPEC, TRUTH), 5.0, rng)
    for _ in range(20):
        pose = sample_pose(rng)
        cb = cost_beta(y, SPEC, pose)
        assert cb <= cost_plain(y, SPEC, pose) + 1e-12
        assert cb >= 0.0
        assert cost_unit_beta(y, SPEC, pose) >= -1e-12


def test_beta_hat_values():
    h = synth(SPEC, TRUTH)
    assert beta_hat(h, SPEC, TRUTH, "plain") == 1.0
    assert beta_hat(h, SPEC, TRUTH, "complex_beta") == pytest.approx(1.0)
    assert beta_hat(2 * h, SPEC, TRUTH, "complex_beta") == pytest.approx(2.0)
    assert beta_hat(2 * h, SPEC, TRUTH, "unit_beta") == pytest.approx(1.0)
    assert abs(beta_hat((1 + 1j) * h, SPEC, TRUTH, "unit_beta")) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        beta_hat(np.zeros_like(h), SPEC, TRUTH, "unit_beta")


def test_cost_beta_projection_identity():
    # each cost is the residual at its variant's closed-form attenuation
    rng = np.random.default_rng(1)
    y = add_noise(synth(SPEC, TRUTH), 10.0, rng)
    costs = {"plain": cost_plain, "complex_beta": cost_beta, "unit_beta": cost_unit_beta}
    for _ in range(10):
        pose = sample_pose(rng)
        h = synth(SPEC, pose)
        for variant, cost in costs.items():
            beta = beta_hat(y, SPEC, pose, variant)
            direct = np.mean(np.abs(y - beta * h) ** 2)
            assert cost(y, SPEC, pose) == pytest.approx(direct, abs=1e-10)


def test_unit_amplitude_argmin_matches_correlation_argmax():
    # for unit-amplitude channels both absorbed costs rank poses by |<y, h>|
    spec = ArraySpec.half_wavelength(ntx=16)
    rng = np.random.default_rng(2)
    truth = GeometryPose(r=np.array([0.0, 0.0, 7.0]), R=np.eye(3))
    y = add_noise(synth(spec, truth, unit_amplitude=True), 10.0, rng)
    grid = np.linspace(5.0, 9.0, 1000)
    costs = np.empty(grid.size)
    corr = np.empty(grid.size)
    for i, d in enumerate(grid):
        pose = GeometryPose(r=np.array([0.0, 0.0, d]), R=np.eye(3))
        h = synth(spec, pose, unit_amplitude=True)
        costs[i] = cost_beta(y, spec, pose, unit_amplitude=True)
        corr[i] = np.abs(np.sum(y * np.conj(h)))
    assert np.argmin(costs) == np.argmax(corr)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

# a line-to-line link, and a planar-to-planar one over three frequencies
GRAD_SPECS = (ArraySpec.half_wavelength(ntx=4, nrx=3),
              ArraySpec.half_wavelength(ntx=3, nty=2, nrx=2, nry=2, nf=3, df=5e-4))


# tangent norms: zero (where every start begins), both sides of the 1e-9
# small-angle switch of the rotation map, and generic
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spec=st.sampled_from(GRAD_SPECS),
       variant=st.sampled_from(COST_VARIANTS),
       omega_norm=st.sampled_from([0.0, 3e-10, 3e-9]) | st.floats(1e-3, 3.0))
def test_gradient_matches_finite_differences(seed, spec, variant, omega_norm):
    rng = np.random.default_rng(seed)
    y = add_noise(synth(spec, TRUTH), 10.0, rng)
    pose = sample_pose(rng)
    direction = rng.normal(size=3)
    params = np.concatenate([pose.r, omega_norm * direction / np.linalg.norm(direction)])[None]
    cost, grad = cost_and_grad(y, spec, params, pose.R[None], variant)
    assert np.array_equal(cost, batched_cost(y, spec, params, pose.R[None], variant))
    fd = fd_gradient(y, spec, params, pose.R[None], variant)
    # the oracle's own error: truncation (kappa step)^2 / 6, about 2e-5 relative
    # for the 1.5e-5 m step at 15 m, and the rounding of the ~3e3 rad phases,
    # about 1e-7 absolute over that step
    assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd) + 1e-6


def random_starts(count, rng):
    """(params, base_rotations) of ``count`` random starts, zero tangent."""
    poses = [sample_pose(rng) for _ in range(count)]
    params = np.zeros((count, 6))
    params[:, :3] = [p.r for p in poses]
    return params, np.stack([p.R for p in poses])


@pytest.mark.parametrize("variant", COST_VARIANTS)
def test_batched_cost_blocks_change_no_bit(monkeypatch, variant):
    rng = np.random.default_rng(21)
    y = add_noise(synth(SPEC, TRUTH), 10.0, rng)
    params, base = random_starts(7, rng)
    params[:, 3:] = rng.normal(scale=0.1, size=(7, 3))
    default = batched_cost(y, SPEC, params, base, variant)
    cost, grad = cost_and_grad(y, SPEC, params, base, variant)
    # one start per block, and one block for every start
    for entries in (1, 7 * SPEC.size + 1):
        monkeypatch.setattr(mle, "GRAD_BLOCK_ENTRIES", entries)
        assert np.array_equal(batched_cost(y, SPEC, params, base, variant), default)
        blocked_cost, blocked_grad = cost_and_grad(y, SPEC, params, base, variant)
        assert np.array_equal(blocked_cost, cost)
        assert np.array_equal(blocked_grad, grad)


def test_batched_cost_memory_does_not_grow_with_starts():
    spec = SPEC_PRESETS["ula32-ula32"]
    y = synth(spec, TRUTH)

    def traced_peak(count):
        params, base = random_starts(count, np.random.default_rng(count))
        tracemalloc.start()
        try:
            batched_cost(y, spec, params, base, "complex_beta")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 384 more starts may grow the (S,) result, but by less than one complex
    # channel tensor, where an unblocked pass grows by 384 of them
    assert traced_peak(512) - traced_peak(128) < 16 * spec.size


@pytest.mark.parametrize("variant", COST_VARIANTS)
def test_block_kernel_allocates_no_channel_sized_array(variant):
    # numpy reports its buffers to tracemalloc. Beyond the workspace, a warm gradient
    # pass holds only numpy's iteration buffers (128 KiB each) and per-start arrays:
    # 230 KiB measured. One float array of a block's pair distances is 256 KiB here,
    # and the complex scratch that unit_phasor would otherwise allocate is 512 KiB.
    spec = SPEC_PRESETS["ula32-ula32"]
    y = synth(spec, TRUTH)
    params, base = random_starts(129, np.random.default_rng(5))
    cost_and_grad(y, spec, params, base, variant)
    work = mle._workspace(spec, len(params))
    workspace = sum(a.nbytes for a in work)
    tracemalloc.start()
    try:
        cost_and_grad(y, spec, params, base, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < workspace + work[0].nbytes  # the margin: one float array of pair distances


@pytest.mark.parametrize("variant", COST_VARIANTS)
def test_cost_pass_equals_synthesis_then_fit(monkeypatch, variant):
    # blocks of two starts, so five starts leave a partial last block
    monkeypatch.setattr(mle, "GRAD_BLOCK_ENTRIES", 2 * SPEC.size)
    rng = np.random.default_rng(22)
    y = add_noise(synth(SPEC, TRUTH), 10.0, rng)
    params, base = random_starts(5, rng)
    params[:, 3:] = rng.normal(scale=0.1, size=(5, 3))
    # oracle: the two-step path, a batched synthesis and then the fit
    R = base @ rotation_from_tangent_batch(params[:, 3:])
    expected = mle._fit(y, synth_batch(SPEC, params[:, :3], R), variant)[1]
    assert np.array_equal(batched_cost(y, SPEC, params, base, variant), expected)
    assert np.array_equal(cost_and_grad(y, SPEC, params, base, variant)[0], expected)


def offset_tensor_gradient(y, spec, params, base_rotations, variant):
    """Gradient oracle: the chain rule contracted over the pair offset tensor by one einsum."""
    r, omega = params[:, :3], params[:, 3:]
    R = base_rotations @ rotation_from_tangent_batch(omega)
    offsets = pair_offsets(spec, r, R)
    dist = np.linalg.norm(offsets, axis=-1)
    h = synth_batch(spec, r, R)
    beta = mle._fit(y, h, variant)[0].reshape((-1,) + (1,) * (h.ndim - 1))
    z = (-2.0 / y.size) * beta * np.conj(y - beta * h) * h
    kappa = -2.0 * np.pi / spec.wavelength
    g = np.sum((z * (-1.0 / dist[..., None] + 1j * kappa * frequency_factors(spec))).real,
               axis=-1)
    amp = np.sum(z.real, axis=tuple(range(1, h.ndim)))
    gu = np.einsum("sxyabi,sxyab->sxyi", offsets, g / dist)
    grad_r = gu.sum(axis=(1, 2)) + (amp / np.sum(r * r, axis=1))[:, None] * r
    M = np.einsum("sxyi,xyj->sij", gu, rx_local_grid(spec))
    dR = base_rotations[:, None] @ rotation_jacobian_batch(omega)
    return np.concatenate([grad_r, np.sum(dR * M[:, None], axis=(2, 3))], axis=1)


@pytest.mark.parametrize("variant", COST_VARIANTS)
def test_gradient_matches_offset_tensor_contraction(monkeypatch, variant):
    # blocks of two starts, so five starts leave a partial last block
    monkeypatch.setattr(mle, "GRAD_BLOCK_ENTRIES", 2 * SPEC.size)
    rng = np.random.default_rng(22)
    y = add_noise(synth(SPEC, TRUTH), 10.0, rng)
    params, base = random_starts(5, rng)
    params[:, 3:] = rng.normal(scale=0.1, size=(5, 3))
    grad = cost_and_grad(y, SPEC, params, base, variant)[1]
    expected = offset_tensor_gradient(y, SPEC, params, base, variant)
    # the two contractions round apart: on this draw the translation part sums
    # terms up to 3e5 times its own size, as the cost barely changes along r
    assert np.linalg.norm(grad - expected) <= 1e-12 * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", COST_VARIANTS)
def test_optimize_noiseless_near_genie_start_descends(variant):
    spec = ArraySpec.half_wavelength(ntx=4, nrx=2)
    y = synth(spec, TRUTH)
    # within a tenth of a wavelength, inside the plain cost's basin
    start = GeometryPose(r=TRUTH.r + np.array([1e-3, -5e-4, 1e-3]),
                         R=rotation_from_euler(0.01, -0.02, 0.01))
    config = MleConfig(cost_variant=variant, num_starts=1, iterations=300,
                       learning_rate=1e-3)
    _, (traj,) = optimize(y, spec, config, [start])
    assert traj.costs_db[-1] < traj.costs_db[0]
    assert traj.costs_db[-1] < -60.0
    assert traj.final_grad_norm < 1e-3
    assert not traj.diverged


@pytest.mark.parametrize("variant", COST_VARIANTS)
def test_optimize_batch_equals_loop(monkeypatch, variant):
    # blocks of two starts, so five starts span three blocks
    monkeypatch.setattr(mle, "GRAD_BLOCK_ENTRIES", 2 * SPEC.size)
    rng = np.random.default_rng(6)
    y = add_noise(synth(SPEC, TRUTH), 10.0, rng)
    inits = [sample_pose(rng) for _ in range(5)]
    config = MleConfig(cost_variant=variant, num_starts=5, iterations=20)
    _, batch = optimize(y, SPEC, config, inits)
    for pose, together in zip(inits, batch):
        _, (alone,) = optimize(y, SPEC, config, [pose])
        assert np.array_equal(together.costs_db, alone.costs_db)
        assert np.array_equal(together.final_pose.r, alone.final_pose.r)
        assert np.array_equal(together.final_pose.R, alone.final_pose.R)
        assert together.final_grad_norm == alone.final_grad_norm


def test_optimize_trajectories_hold_each_start_column(monkeypatch):
    passes = []
    cost_pass = mle._cost_pass

    def recorded(*args, **kwargs):
        cost = cost_pass(*args, **kwargs)
        passes.append(cost.copy())
        return cost

    monkeypatch.setattr(mle, "_cost_pass", recorded)
    rng = np.random.default_rng(8)
    y = add_noise(synth(SPEC, TRUTH), 10.0, rng)
    # stand-ins GeometryPose refuses: a NaN translation, and a finite one whose length overflows
    nan_start = SimpleNamespace(r=np.array([np.nan, 0.0, 9.0]), R=np.eye(3))
    far_start = SimpleNamespace(r=np.array([1e200, 1e200, 0.0]), R=np.eye(3))
    inits = [sample_pose(rng) for _ in range(3)] + [nan_start, far_start]
    config = MleConfig(num_starts=len(inits), iterations=4)
    _, trajectories = optimize(y, SPEC, config, inits)
    costs = np.stack(passes)
    assert costs.shape == (config.iterations + 1, len(inits))
    for s, tr in enumerate(trajectories):
        assert tr.costs_db.tobytes() == mle.to_db(costs[:, s]).tobytes()
    assert [tr.final_pose is None for tr in trajectories] == [False] * 3 + [True] * 2
    assert [tr.diverged for tr in trajectories] == [False] * 3 + [True] * 2


def test_optimize_keeps_no_buffer():
    spec = SPEC_PRESETS["ula32-ula32"]
    y = synth(spec, TRUTH)
    config = MleConfig(num_starts=4, iterations=2)
    inits = draw_starts(np.random.default_rng(0), config)
    optimize(y, spec, config, inits)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = optimize(y, spec, config, inits)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result[1]) == 4
    # the returned poses and cost histories stay; the workspace of four starts
    # (10 reals per channel entry and start, 320 KB) must not
    assert kept < 16 * spec.size


def test_optimize_descends_from_near_truth_noiseless():
    spec = ArraySpec.half_wavelength(ntx=2)
    truth = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    y = synth(spec, truth)
    start = GeometryPose(r=truth.r + np.array([0.02, -0.01, 0.03]), R=truth.R)
    config = MleConfig(num_starts=1)
    best, trajs = optimize(y, spec, config, [start])
    initial = 10 ** (trajs[0].costs_db[0] / 10)
    assert trajs[0].final_cost < initial
    assert trajs[0].final_cost < 1e-6
    assert len(trajs[0].costs_db) == config.iterations + 1


def test_optimize_deterministic_given_seed():
    spec = ArraySpec.half_wavelength(ntx=4)
    truth = GeometryPose(r=np.array([0.0, 0.0, 8.0]), R=np.eye(3))
    y = add_noise(synth(spec, truth), 10.0, np.random.default_rng(3))
    config = MleConfig(num_starts=4, iterations=50)
    runs = []
    for _ in range(2):
        _, trajs = optimize(y, spec, config, draw_starts(np.random.default_rng(42), config))
        runs.append(np.stack([t.costs_db for t in trajs]))
    assert np.array_equal(runs[0], runs[1])


def test_optimize_genie_median_cost_non_increasing():
    spec = ArraySpec.half_wavelength(ntx=32)
    truth = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    config = MleConfig(num_starts=1, iterations=120)
    curves = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = add_noise(synth(spec, truth), 10.0, rng)
        _, trajs = optimize(y, spec, config, [truth])
        curves.append(trajs[0].costs_db)
    median = np.median(np.stack(curves), axis=0)
    assert median[-1] <= median[0]
    assert np.all(np.diff(median) <= 0.05)  # plateau wiggle allowance


def test_optimize_multistart_reaches_genie_small_case():
    spec = ArraySpec.half_wavelength(ntx=32)
    truth = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    rng = np.random.default_rng(4)
    y = add_noise(synth(spec, truth), 10.0, rng)
    config = MleConfig(num_starts=64, iterations=300)
    inits = draw_starts(rng, config)
    _, random_trajs = optimize(y, spec, config, inits)
    _, genie_trajs = optimize(y, spec, config, [truth])
    best_db = min(t.costs_db[-1] for t in random_trajs)
    genie_db = genie_trajs[0].costs_db[-1]
    assert best_db <= genie_db + 1.0
    stalled = sum(t.costs_db[-1] > genie_db + 1.0 for t in random_trajs)
    assert stalled > len(random_trajs) / 2  # most starts miss the global basin


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------


def test_landscape_zero_at_truth_and_shapes():
    grid, point, plane = landscape_scan(d_true=5.0, d_range=(4.95, 5.05), step=1e-3)
    assert grid.size == point.size == plane.size == 101
    i5 = int(np.argmin(np.abs(grid - 5.0)))
    assert point[i5] < 1e-10
    assert plane[i5] < 1e-10
    truth = GeometryPose(r=np.array([0.0, 0.0, 5.0]), R=np.eye(3))
    spec = ArraySpec.half_wavelength(ntx=256)
    assert cost_plain(synth(spec, truth), spec, truth) == 0.0


@pytest.mark.filterwarnings("error")
def test_landscape_finite_where_absorbed_cost_rounds_below_zero():
    # 8 antennas at 28 GHz: the absorbed cost rounds below zero at the truth
    _, point, plane = landscape_scan(d_true=5.0, d_range=(4.99, 5.01), step=1e-3,
                                     num_antennas=8, fc=28e9)
    values = np.concatenate([point, plane])
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0)


def test_landscape_plain_oscillates_beta_smooth():
    grid, point, plane = landscape_scan(d_true=5.0, d_range=(4.9, 5.1), step=1e-3)
    d_point = np.diff(point)
    minima = int(np.sum((d_point[:-1] < 0) & (d_point[1:] > 0)))
    assert minima >= 12  # one dip per carrier period over 0.2 m
    d_plane = np.diff(plane)
    signs = np.sign(d_plane[d_plane != 0])
    assert int(np.sum(np.diff(signs) != 0)) == 1


def test_trajectory_csv_format(tmp_path):
    spec = ArraySpec.half_wavelength(ntx=2)
    truth = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    rng = np.random.default_rng(5)
    y = add_noise(synth(spec, truth), 10.0, rng)
    config = MleConfig(num_starts=3, iterations=10)
    _, trajs = optimize(y, spec, config, draw_starts(rng, config))
    path = tmp_path / "trajectories.csv"
    write_trajectory_csv(path, trajs[:-1], trajs[-1])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "Iteration,Best_1_Cost_dB,Best_2_Cost_dB,Proxy_Cost_dB"
    assert len(lines) == config.iterations + 2
    finals = [float(x) for x in lines[-1].split(",")[1:-1]]
    assert finals == sorted(finals)


def test_config_validation():
    with pytest.raises(ValueError):
        MleConfig(cost_variant="nope")
    params, base = random_starts(1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown cost variant"):
        batched_cost(synth(SPEC, TRUTH), SPEC, params, base, "nope")
    for rate in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            MleConfig(learning_rate=rate)
    with pytest.raises(ValueError):
        MleConfig(iterations=0)
