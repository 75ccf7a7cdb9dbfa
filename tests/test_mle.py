import numpy as np
import pytest

from nearwave.geometry import ArraySpec, GeometryPose, sample_pose, synth
from nearwave.mle import (
    MleConfig,
    beta_hat,
    cost_beta,
    cost_plain,
    cost_unit_beta,
    landscape_scan,
    optimize,
    write_trajectory_csv,
)
from nearwave.sim import add_noise

SPEC = ArraySpec.half_wavelength(ntx=8, nrx=2)
TRUTH = GeometryPose(r=np.array([0.2, -0.4, 9.0]), R=np.eye(3))


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
# optimizer
# ---------------------------------------------------------------------------


def test_optimize_descends_from_near_truth_noiseless():
    spec = ArraySpec.half_wavelength(ntx=2)
    truth = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    y = synth(spec, truth)
    start = GeometryPose(r=truth.r + np.array([0.02, -0.01, 0.03]), R=truth.R)
    config = MleConfig(num_starts=1)
    best, trajs = optimize(y, spec, config, np.random.default_rng(0), init_poses=[start])
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
        _, trajs = optimize(y, spec, config, np.random.default_rng(42))
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
        _, trajs = optimize(y, spec, config, rng, init_poses=[truth])
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
    inits = [sample_pose(rng, *config.init_shell) for _ in range(config.num_starts)]
    _, random_trajs = optimize(y, spec, config, rng, init_poses=inits)
    _, genie_trajs = optimize(y, spec, config, rng, init_poses=[truth])
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
    _, trajs = optimize(y, spec, config, rng)
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
    with pytest.raises(ValueError):
        MleConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        MleConfig(iterations=0)
