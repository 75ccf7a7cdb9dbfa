"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import time

import numpy as np

from nearwave.mle import MleConfig, landscape_scan
from nearwave.ppe import estimate, reconstruct, weights
from nearwave.presets import SPEC_PRESETS, TOPOLOGY_PRESETS
from nearwave.sim import (
    ExperimentConfig,
    estimate_from_pilots,
    per_entry_mse,
    pilot_subsample,
    run_mse_sweep,
    run_trajectory_experiment,
)
from nearwave.wavefront import (
    PolyPhaseModel,
    approx_channel,
    degree_set_for_shape,
    spatial_cardinality,
    truncation_bound,
    truncation_dominant_term,
)

CRB_TARGET_DB = -33.29  # 10 log10(3 / (2 * 100 * 32))


def _verdict(name, ok, detail):
    print(f"[{name}] {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_crb_attainment():
    config = ExperimentConfig(spec=SPEC_PRESETS["ula32-single"], snr_grid=(20.0,),
                              degree_list=(2,), trials=100, amplitude_mode="unit",
                              seed=101)
    t0 = time.perf_counter()
    report = run_mse_sweep(config)
    elapsed = time.perf_counter() - t0
    mse = report.mse_db[0, 0]
    ok = abs(mse - CRB_TARGET_DB) <= 1.5 and elapsed < 10.0
    assert _verdict("criterion 01", ok,
                    f"CRB attainment: MSE {mse:.2f} dB vs {CRB_TARGET_DB} +/- 1.5 dB, "
                    f"runtime {elapsed:.1f} s (< 10 s)")


def test_criterion_02_ls_baseline():
    config = ExperimentConfig(spec=SPEC_PRESETS["ula32-single"],
                              snr_grid=tuple(float(s) for s in range(21)),
                              degree_list=(), trials=1000, amplitude_mode="unit",
                              seed=102)
    report = run_mse_sweep(config)
    deviation = np.max(np.abs(report.ls_db + report.snr_db))
    ok = deviation <= 0.2
    assert _verdict("criterion 02", ok,
                    f"LS baseline: max |MSE - (-SNR)| = {deviation:.3f} dB (<= 0.2)")


def test_criterion_03_noiseless_round_trip():
    rng = np.random.default_rng(103)
    worst_coeff = 0.0
    worst_mse_db = -np.inf
    for name in TOPOLOGY_PRESETS:
        spec = SPEC_PRESETS[name]
        for L in (1, 2, 3):
            ds = degree_set_for_shape(L, spec.shape)
            truth = PolyPhaseModel(shape=spec.shape, degrees=ds,
                                   coeffs=rng.uniform(-0.4, 0.4, size=len(ds)))
            y = approx_channel(truth)
            fitted = estimate(y, ds)
            worst_coeff = max(worst_coeff, np.max(np.abs(fitted.coeffs - truth.coeffs)))
            mse = per_entry_mse(reconstruct(fitted), y)
            worst_mse_db = max(worst_mse_db, 10 * np.log10(max(mse, 1e-300)))
    ok = worst_coeff < 1e-9 and worst_mse_db < -180.0
    assert _verdict("criterion 03", ok,
                    f"noiseless round-trip over {len(TOPOLOGY_PRESETS)} topologies x L in {{1,2,3}}: "
                    f"worst coeff err {worst_coeff:.2e} (< 1e-9), "
                    f"worst recon MSE {worst_mse_db:.1f} dB (< -180)")


def test_criterion_04_far_field_inadequacy():
    config = ExperimentConfig(spec=SPEC_PRESETS["ula32-single"], snr_grid=(20.0,),
                              degree_list=(1, 2), trials=100, amplitude_mode="unit",
                              seed=104)
    report = run_mse_sweep(config)
    gap = report.mse_db[0, 0] - report.mse_db[0, 1]
    ok = gap >= 15.0
    assert _verdict("criterion 04", ok,
                    f"far-field inadequacy: L=1 at {report.mse_db[0, 0]:.2f} dB, "
                    f"L=2 at {report.mse_db[0, 1]:.2f} dB, gap {gap:.2f} dB (>= 15)")


def test_criterion_05_weight_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        shape = tuple(int(rng.integers(1, 7)) for _ in range(5))
        m = tuple(int(rng.integers(0, n)) for n in shape)
        worst = max(worst, abs(weights(m, shape).sum() - 1.0))
    ok = worst <= 1e-12
    assert _verdict("criterion 05", ok,
                    f"weight normalization over 200 fuzzed (m, N): "
                    f"worst |sum - 1| = {worst:.2e} (<= 1e-12)")


def test_criterion_06_bound_tightness():
    rng = np.random.default_rng(106)
    d_center, wavelength = 10.0, 0.01
    count = 10_000
    r_hat = rng.normal(size=(count, 3))
    r_hat /= np.linalg.norm(r_hat, axis=1, keepdims=True)
    delta = rng.normal(size=(count, 3))
    delta *= (rng.uniform(0, 0.05, size=count) / np.linalg.norm(delta, axis=1))[:, None]
    ok = True
    for L in (1, 2, 3):
        exact = np.array([truncation_dominant_term(L, d_center, wavelength, rh, dl)
                          for rh, dl in zip(r_hat, delta)])
        bound = truncation_bound(L, d_center, wavelength, np.linalg.norm(delta, axis=1))
        ok &= bool(np.all(exact <= bound * (1 + 1e-12)))
    # stated equality configurations
    t = 0.05
    z = np.array([0.0, 0.0, 1.0])
    perp = np.array([t, 0.0, 0.0])
    ratios = []
    for L in (1, 3):
        ratios.append(truncation_dominant_term(L, d_center, wavelength, z, perp)
                      / truncation_bound(L, d_center, wavelength, t))
    x = 1 / np.sqrt(3)
    slanted = t * np.array([np.sqrt(1 - x**2), 0.0, x])
    ratios.append(truncation_dominant_term(2, d_center, wavelength, z, slanted)
                  / truncation_bound(2, d_center, wavelength, t))
    ok &= all(r >= 0.999 for r in ratios)
    assert _verdict("criterion 06", ok,
                    f"truncation bound dominates 10^4 samples and equality ratios "
                    f"{min(ratios):.6f} (>= 0.999)")


def test_criterion_07_mismatch_constant():
    chord_db = 10 * np.log10((2 * np.sin(np.pi / 16)) ** 2)
    ok = abs(chord_db - (-8.17)) <= 0.01
    assert _verdict("criterion 07", ok,
                    f"quarter-threshold chord: {chord_db:.4f} dB vs -8.17 (+/- 0.01)")


def test_criterion_08_degree_set_counts():
    shapes = {
        ("linear", "single"): (1, 1, 8, 1, 1),
        ("planar", "single"): (1, 1, 4, 4, 1),
        ("linear", "linear"): (8, 1, 8, 1, 1),
        ("planar", "linear"): (8, 1, 4, 4, 1),
        ("planar", "planar"): (4, 4, 4, 4, 1),
    }
    expected = {
        ("linear", "single"): (2, 3, 4),
        ("planar", "single"): (3, 6, 10),
        ("linear", "linear"): (3, 6, 10),
        ("planar", "linear"): (4, 10, 20),
        ("planar", "planar"): (5, 15, 35),
    }
    ok = True
    for topo, shape in shapes.items():
        for L in (1, 2, 3):
            ok &= spatial_cardinality(degree_set_for_shape(L, shape)) == expected[topo][L - 1]
    assert _verdict("criterion 08", ok,
                    "degree-set cardinalities match the topology table for L in {1,2,3}")


def test_criterion_09_landscape():
    t0 = time.perf_counter()
    grid, point, plane = landscape_scan(d_true=5.0, d_range=(4.6, 5.4), step=1e-3,
                                        num_antennas=256, fc=30e9)
    elapsed = time.perf_counter() - t0
    d_point = np.diff(point)
    minima = int(np.sum((d_point[:-1] < 0) & (d_point[1:] > 0)))
    d_plane = np.diff(plane)
    signs = np.sign(d_plane[d_plane != 0])
    changes = int(np.sum(np.diff(signs) != 0))
    ok = minima >= 50 and changes == 1 and elapsed < 5.0
    assert _verdict("criterion 09", ok,
                    f"landscape: plain objective has {minima} local minima (>= 50), "
                    f"attenuation-absorbed objective has {changes} derivative sign change "
                    f"(== 1), runtime {elapsed:.2f} s (< 5)")


def test_criterion_10_mle_multistart():
    t0 = time.perf_counter()
    small = run_trajectory_experiment(SPEC_PRESETS["ula2-single"],
                                      MleConfig(num_starts=128), snr_db=10.0, seed=110)
    best_gap = small.ranked[0].costs_db[-1] - small.proxy.costs_db[-1]
    big = run_trajectory_experiment(SPEC_PRESETS["ula32-ula32"],
                                    MleConfig(num_starts=128), snr_db=10.0, seed=110)
    fraction = big.converged_fraction()
    elapsed = time.perf_counter() - t0
    ok = best_gap <= 1.0 and fraction <= 0.20 and elapsed < 300.0
    assert _verdict("criterion 10", ok,
                    f"multistart: 2x1 best random within {best_gap:.2f} dB of genie (<= 1), "
                    f"32x1->32x1 converged fraction {fraction:.3f} (<= 0.20), "
                    f"runtime {elapsed:.0f} s (< 300)")


def test_criterion_11_pilot_extrapolation():
    shape = (1, 1, 8, 8, 1)
    rng = np.random.default_rng(111)
    ds = degree_set_for_shape(2, shape)
    truth = PolyPhaseModel(shape=shape, degrees=ds,
                           coeffs=rng.uniform(-1e-3, 1e-3, size=len(ds)))
    y = approx_channel(truth)
    _, coords = pilot_subsample(y, 2)
    pilot_count = len(coords[2]) * len(coords[3])
    model = estimate_from_pilots(y, 2)
    err = float(np.max(np.abs(reconstruct(model) - y)))
    ok = pilot_count == 9 and err < 1e-9
    assert _verdict("criterion 11", ok,
                    f"pilot extrapolation: {pilot_count} tx pilots (== 9), "
                    f"full-lattice error {err:.2e} (< 1e-9)")
