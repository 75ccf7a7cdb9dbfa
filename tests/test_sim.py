import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nearwave.geometry import ArraySpec, GeometryPose, sample_pose, synth
from nearwave.mle import MleConfig
from nearwave import mle, sim
from nearwave.ppe import estimate, reconstruct
from nearwave.presets import SPEC_PRESETS
from nearwave.sim import (
    ExperimentConfig,
    add_noise,
    crb_asymptote,
    estimate_from_pilots,
    per_entry_mse,
    pilot_subsample,
    run_mse_sweep,
    run_trajectory_experiment,
)
from nearwave.wavefront import (
    PolyPhaseModel,
    approx_channel,
    build_degree_set,
    degree_set_for_shape,
    product_degree_set,
)


def test_add_noise_vanishes_at_huge_snr():
    rng = np.random.default_rng(0)
    h = synth(ArraySpec.half_wavelength(ntx=4), sample_pose(rng))
    y = add_noise(h, 300.0, rng)
    assert np.max(np.abs(y - h)) < 1e-12


def test_add_noise_draws_real_then_imaginary_parts():
    # the draw order of the (seed, trial) contract, written out with two draws
    h = synth(ArraySpec.half_wavelength(ntx=8, nrx=2, nf=3, df=5e-4),
              sample_pose(np.random.default_rng(2)))
    for snr in (0.0, 7.5, 20.0):
        rng = np.random.default_rng(3)
        sigma = np.sqrt(0.5 * 10.0 ** (-snr / 10.0))
        noise = rng.normal(scale=sigma, size=h.shape) + 1j * rng.normal(scale=sigma, size=h.shape)
        assert np.array_equal(add_noise(h, snr, np.random.default_rng(3)), h + noise)


def test_add_noise_variance_calibration():
    rng = np.random.default_rng(1)
    h = np.zeros((100, 100, 100, 1, 1), dtype=complex)  # one million samples
    y = add_noise(h, 7.0, rng)
    snr = 10 ** 0.7
    assert np.mean(np.abs(y) ** 2) == pytest.approx(1 / snr, rel=0.02)
    assert np.var(y.real) == pytest.approx(1 / (2 * snr), rel=0.02)
    assert np.var(y.imag) == pytest.approx(1 / (2 * snr), rel=0.02)
    with pytest.raises(ValueError):
        add_noise(h, np.inf, rng)


def test_per_entry_mse_basics():
    rng = np.random.default_rng(2)
    h = synth(ArraySpec.half_wavelength(ntx=8), sample_pose(rng), unit_amplitude=True)
    assert per_entry_mse(h, h) == 0.0
    assert per_entry_mse(np.zeros_like(h), h) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        per_entry_mse(h[..., :0], h)


def test_ls_estimate_mse_near_inverse_snr():
    rng = np.random.default_rng(3)
    h = synth(ArraySpec.half_wavelength(ntx=32), sample_pose(rng), unit_amplitude=True)
    snr_db = 12.0
    vals = [per_entry_mse(add_noise(h, snr_db, rng), h) for _ in range(1000)]
    assert 10 * np.log10(np.mean(vals)) == pytest.approx(-snr_db, abs=0.2)


def test_crb_asymptote_values():
    assert crb_asymptote(2 * 32, 32, 13.0) == pytest.approx(-13.0)
    assert crb_asymptote(3, 32, 20.0) == pytest.approx(-33.29, abs=0.005)
    with pytest.raises(ValueError):
        crb_asymptote(0, 32, 20.0)


def test_crb_asymptote_floors_at_minus_300_db_and_rejects_an_overflowing_snr():
    assert crb_asymptote(3, 32, 400.0) == -300.0
    for snr_db in (4000.0, -4000.0):
        with pytest.raises(ValueError, match=f"snr_db = {snr_db:g} is out of range"):
            crb_asymptote(3, 32, snr_db)


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------


def test_run_mse_sweep_deterministic():
    cfg = ExperimentConfig(spec=ArraySpec.half_wavelength(ntx=8),
                           snr_grid=(0.0, 10.0), degree_list=(1, 2),
                           trials=5, seed=11)
    a = run_mse_sweep(cfg)
    b = run_mse_sweep(cfg)
    assert np.array_equal(a.mse_db, b.mse_db)
    assert np.array_equal(a.ls_db, b.ls_db)
    header, rows = a.mse_csv_rows()
    assert header == ["snr_db", "mse_db_1", "mse_db_2"]
    assert len(rows) == 2


def sweep_by_loop(cfg):
    """(mse_db, ls_db) of the sweep, estimating one (trial, SNR) observation per call."""
    degree_sets = [build_degree_set(L, cfg.spec) for L in cfg.degree_list]
    mse = np.empty((cfg.trials, len(cfg.snr_grid), len(degree_sets)))
    ls = np.empty((cfg.trials, len(cfg.snr_grid)))
    for trial in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, trial))
        pose = sample_pose(rng, *cfg.shell, measure=cfg.shell_measure)
        h = synth(cfg.spec, pose, unit_amplitude=cfg.amplitude_mode == "unit")
        for i, snr in enumerate(cfg.snr_grid):
            y = add_noise(h, snr, rng)
            ls[trial, i] = np.mean(np.abs(y - h) ** 2)
            for j, ds in enumerate(degree_sets):
                mse[trial, i, j] = np.mean(np.abs(reconstruct(estimate(y, ds)) - h) ** 2)
    return 10.0 * np.log10(np.mean(mse, axis=0)), 10.0 * np.log10(np.mean(ls, axis=0))


def test_run_mse_sweep_blocks_change_no_bit(monkeypatch):
    spec = SPEC_PRESETS["ula8-single"]
    cfg = ExperimentConfig(spec=spec, snr_grid=(0.0, 10.0, 20.0), degree_list=(1, 2),
                           trials=7, amplitude_mode="exact", seed=5)
    default = run_mse_sweep(cfg)
    mse_db, ls_db = sweep_by_loop(cfg)
    assert np.array_equal(default.mse_db, mse_db)
    assert np.array_equal(default.ls_db, ls_db)
    # one observation per block, SNR runs of 2 then 1, one-trial blocks,
    # two-trial blocks ending in a one-trial block, one block for all
    for entries in (1, 2 * spec.size, 5 * spec.size, 6 * spec.size, 21 * spec.size + 1):
        monkeypatch.setattr(sim, "BLOCK_ENTRIES", entries)
        report = run_mse_sweep(cfg)
        for name in ("mse_db", "ls_db", "crb_db"):
            assert np.array_equal(getattr(report, name), getattr(default, name))


def test_run_mse_sweep_ls_only():
    cfg = ExperimentConfig(spec=SPEC_PRESETS["ula8-single"], snr_grid=(0.0, 10.0, 20.0),
                           degree_list=(), trials=7, seed=5)
    report = run_mse_sweep(cfg)
    assert report.mse_db.shape == report.crb_db.shape == (3, 0)
    assert report.mse_csv_rows()[0] == ["snr_db"]
    assert report.crb_csv_rows()[0] == ["snr_db", "ls_db"]
    assert np.array_equal(report.ls_db, sweep_by_loop(cfg)[1])


def test_run_mse_sweep_memory_does_not_grow_with_snrs(monkeypatch):
    spec = SPEC_PRESETS["ula32-ula32"]
    monkeypatch.setattr(sim, "BLOCK_ENTRIES", spec.size)

    def traced_peak(n_snr):
        cfg = ExperimentConfig(spec=spec, snr_grid=tuple(range(n_snr)), degree_list=(1,),
                               trials=1, seed=2)
        tracemalloc.start()
        try:
            run_mse_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)  # fills the estimator's basis and weight caches
    # a block holds one observation here, so 7 more SNRs grow only the small
    # per-SNR arrays, where estimating the whole trial at once grows by 7
    # observations and their temporaries
    assert traced_peak(8) - traced_peak(1) < 16 * spec.size


@pytest.mark.filterwarnings("error")
def test_run_mse_sweep_noiseless_snr_floors_at_minus_300_db():
    # at 400 dB the noise is below one ulp of the channel: the LS error is 0
    cfg = ExperimentConfig(spec=ArraySpec.half_wavelength(ntx=8), snr_grid=(10.0, 400.0),
                           degree_list=(2,), trials=2, seed=0)
    report = run_mse_sweep(cfg)
    assert report.ls_db[1] == -300.0
    assert np.all(np.isfinite(report.mse_db)) and np.all(np.isfinite(report.ls_db))
    assert report.ls_db[0] > -300.0


def test_run_mse_sweep_crb_column():
    spec = ArraySpec.half_wavelength(ntx=8, nf=2, df=5e-4)
    cfg = ExperimentConfig(spec=spec, snr_grid=(20.0,), degree_list=(2,),
                           trials=2, seed=0)
    report = run_mse_sweep(cfg)
    # degree set 3 spatial terms doubled by the frequency axis, 16 entries
    assert report.crb_db[0, 0] == pytest.approx(crb_asymptote(6, 16, 20.0))


def test_run_mse_sweep_estimator_orderings():
    cfg = ExperimentConfig(spec=ArraySpec.half_wavelength(ntx=32),
                           snr_grid=(0.0, 5.0, 20.0), degree_list=(1, 2, 3),
                           trials=60, seed=3)
    report = run_mse_sweep(cfg)
    # low SNR: the higher-degree estimator is at or above the lower one
    for i in range(2):
        assert report.mse_db[i, 2] >= report.mse_db[i, 1]
    # high SNR: degree 2 sits on its asymptote, and nothing beats the bound
    assert report.mse_db[2, 1] == pytest.approx(report.crb_db[2, 1], abs=1.5)
    assert np.all(report.mse_db[2] >= report.crb_db[2] - 0.5)
    # the far-field floor keeps degree 1 within 10x of its bound here: no flags
    assert report.warnings == []


def test_run_mse_sweep_multifrequency_attains_bound():
    # the frequency axis doubles the parameter count and joins the peeling
    cfg = ExperimentConfig(spec=ArraySpec.half_wavelength(ntx=32, nf=32, df=5e-4),
                           snr_grid=(20.0,), degree_list=(2,), trials=30, seed=9)
    report = run_mse_sweep(cfg)
    assert report.crb_db[0, 0] == pytest.approx(crb_asymptote(6, 1024, 20.0))
    assert report.mse_db[0, 0] == pytest.approx(report.crb_db[0, 0], abs=1.5)


def test_run_mse_sweep_cross_link_far_field_gap_and_warning():
    # with apertures at both ends the degree-1 floor sits far above degree 2,
    # which also exercises the high-SNR mismatch warning
    cfg = ExperimentConfig(spec=ArraySpec.half_wavelength(ntx=32, nrx=32),
                           snr_grid=(20.0,), degree_list=(1, 2), trials=30, seed=9)
    report = run_mse_sweep(cfg)
    assert report.mse_db[0, 0] - report.mse_db[0, 1] >= 15.0
    assert any("degree 1" in w for w in report.warnings)


def test_run_mse_sweep_exact_amplitude_floor_below_ls():
    cfg = ExperimentConfig(spec=ArraySpec.half_wavelength(ntx=32, nrx=32),
                           snr_grid=(20.0,), degree_list=(2,), trials=20,
                           amplitude_mode="exact", seed=4)
    report = run_mse_sweep(cfg)
    assert report.mse_db[0, 0] <= report.ls_db[0] - 20.0


# ---------------------------------------------------------------------------
# pilot subsampling
# ---------------------------------------------------------------------------


def test_pilot_subsample_counts():
    planar = np.zeros((2, 2, 8, 8, 1), dtype=complex)
    sub, coords = pilot_subsample(planar, 2)
    assert sub.shape == (2, 2, 3, 3, 1)
    assert coords[2].tolist() == [0, 4, 7]
    assert coords[3].tolist() == [0, 4, 7]
    linear = np.zeros((4, 1, 8, 1, 1), dtype=complex)
    sub, coords = pilot_subsample(linear, 2)
    assert sub.shape == (4, 1, 3, 1, 1)
    multi_f = np.zeros((1, 1, 8, 1, 6), dtype=complex)
    sub, coords = pilot_subsample(multi_f, 1)
    assert sub.shape == (1, 1, 2, 1, 2)
    assert coords[4].tolist() == [0, 5]
    with pytest.raises(ValueError):
        pilot_subsample(np.zeros((1, 1, 2, 1, 1), dtype=complex), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: pilot_subsample(np.ones((8, 8), dtype=complex), 2), "5-axis"),
    (lambda: sim._pilot_indices(3, 5), "cannot place 5 distinct pilots on extent 3"),
])
def test_pilot_placement_rejects_what_it_cannot_place(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def total_degree_by_ranges(max_degree, shape):
    """The total-degree set by per-axis ranges, canonically ordered: a non-singleton spatial
    axis takes 0..L, the frequency axis 0..1, a singleton axis 0, and the spatial degrees of
    a row sum to at most L."""
    spatial = [range(max_degree + 1) if n > 1 else range(1) for n in shape[:-1]]
    freq = range(2) if shape[-1] > 1 else range(1)
    rows = [m + (f,) for m in itertools.product(*spatial) if sum(m) <= max_degree for f in freq]
    return np.array(sorted(rows, key=lambda m: (sum(m), m), reverse=True), dtype=int)


def product_by_ranges(max_degree, shape):
    """The product set by per-axis ranges, canonically ordered: a spatial axis takes
    0..min(L, N - 1), the frequency axis 0..min(1, N - 1), in every combination."""
    caps = [min(max_degree, n - 1) for n in shape[:-1]] + [min(1, shape[-1] - 1)]
    rows = itertools.product(*[range(c + 1) for c in caps])
    return np.array(sorted(rows, key=lambda m: (sum(m), m), reverse=True), dtype=int)


@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_lattice_index_rules_per_axis(L):
    for rank in range(1, 6):
        for shape in itertools.product((1, 2, 5), repeat=rank):
            product_set = product_degree_set(L, shape)
            assert product_set.dtype == int, (L, shape)
            assert np.array_equal(product_set, product_by_ranges(L, shape)), (L, shape)
            if any(1 < n < L + 1 for n in shape[:-1]):
                with pytest.raises(ValueError):
                    degree_set_for_shape(L, shape)
            else:
                ds = degree_set_for_shape(L, shape)
                assert ds.dtype == int and ds.shape[1] == rank
                assert np.array_equal(ds, total_degree_by_ranges(L, shape)), (L, shape)
    for shape in itertools.product((1, 2, 5), repeat=5):
        y = np.arange(np.prod(shape)).reshape(shape)
        if any(1 < n < L + 1 for n in shape[2:4]):
            with pytest.raises(ValueError):
                pilot_subsample(y, L)
            continue
        sub, coords = pilot_subsample(y, L)
        expected = [np.arange(n) for n in shape[:2]]
        expected += [sim._pilot_indices(n, L + 1) if n > 1 else [0] for n in shape[2:4]]
        expected.append([0, shape[4] - 1] if shape[4] > 1 else [0])
        assert [c.tolist() for c in coords] == [list(e) for e in expected], (L, shape)
        assert np.array_equal(sub, y[np.ix_(*coords)])


def test_estimate_from_pilots_never_imports_numpy_ma():
    # a fresh interpreter, in which np.unique would import numpy.ma on first use
    code = ("import sys\n"
            "import numpy as np\n"
            "from nearwave.sim import estimate_from_pilots\n"
            "y = np.exp(2j * np.pi * 0.01 * np.arange(32.0) ** 2).reshape(1, 1, 32, 1, 1)\n"
            "estimate_from_pilots(y, 2)\n"
            "assert 'numpy.ma' not in sys.modules\n")
    src = str(Path(sim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_estimate_from_pilots_exact_on_polynomial_truth():
    shape = (4, 1, 8, 8, 1)
    rng = np.random.default_rng(5)
    ds = degree_set_for_shape(2, shape)
    truth = PolyPhaseModel(shape=shape, degrees=ds,
                           coeffs=rng.uniform(-1e-3, 1e-3, size=len(ds)))
    y = approx_channel(truth)
    model = estimate_from_pilots(y, 2)
    assert np.max(np.abs(reconstruct(model) - y)) < 1e-9


# ---------------------------------------------------------------------------
# trajectory experiment
# ---------------------------------------------------------------------------


def test_run_trajectory_experiment_output(tmp_path):
    spec = ArraySpec.half_wavelength(ntx=2)
    config = MleConfig(num_starts=4, iterations=20)
    result = run_trajectory_experiment(spec, config, snr_db=10.0, seed=7)
    assert len(result.starts) == 4
    assert all(len(t.costs_db) == 21 for t in result.starts)
    frac = result.converged_fraction()
    assert 0.0 <= frac <= 1.0
    path = tmp_path / "out.csv"
    mle.write_trajectory_csv(path, result.starts, result.proxy)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("Iteration,Best_1_Cost_dB")
    assert lines[0].endswith("Proxy_Cost_dB")
    assert len(lines) == 22


def test_trajectory_experiment_deterministic():
    spec = ArraySpec.half_wavelength(ntx=2)
    config = MleConfig(num_starts=3, iterations=15)
    a = run_trajectory_experiment(spec, config, snr_db=10.0, seed=9)
    b = run_trajectory_experiment(spec, config, snr_db=10.0, seed=9)
    assert np.array_equal(a.proxy.costs_db, b.proxy.costs_db)
    for ta, tb in zip(a.starts, b.starts):
        assert np.array_equal(ta.costs_db, tb.costs_db)


@pytest.mark.parametrize("build, name", [
    (lambda: run_mse_sweep(ExperimentConfig(spec=ArraySpec.half_wavelength(ntx=8),
                                            snr_grid=(20.0,), degree_list=(1,), trials=1)),
     "warnings"),
    (lambda: run_trajectory_experiment(ArraySpec.half_wavelength(ntx=2),
                                       MleConfig(num_starts=2, iterations=2)), "starts"),
    (lambda: run_trajectory_experiment(ArraySpec.half_wavelength(ntx=2),
                                       MleConfig(num_starts=2, iterations=2)).proxy, "diverged"),
], ids=["ExperimentReport", "TrajectoryExperiment", "Trajectory"])
def test_results_reject_assignment(build, name):
    result = build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(result, name, getattr(result, name))


def test_converged_fraction_is_the_share_of_starts_within_1_db_of_the_proxy():
    spec = ArraySpec.half_wavelength(ntx=2)
    config = MleConfig(num_starts=8, iterations=20)

    def share(experiment):
        return np.mean([tr.costs_db[-1] <= experiment.proxy.costs_db[-1] + 1.0
                        for tr in experiment.starts])

    result = run_trajectory_experiment(spec, config, snr_db=10.0, seed=3)
    assert 0.0 < share(result) < 1.0
    assert result.converged_fraction() == share(result)
    # trajectories straight from the optimizer, the genie start last, read the same
    truth = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    rng = np.random.default_rng(6)
    y = add_noise(synth(spec, truth), 10.0, rng)
    inits = [sample_pose(rng) for _ in range(config.num_starts)] + [truth]
    *starts, proxy = mle.optimize(y, spec, config, inits)[1]
    direct = sim.TrajectoryExperiment(proxy=proxy, starts=starts)
    assert 0.0 < share(direct) < 1.0
    assert direct.converged_fraction() == share(direct)
