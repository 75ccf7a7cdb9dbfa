"""Monte Carlo experiment drivers: calibrated noise, MSE and CRB accounting,
pilot subsampling, and the trajectory experiment.

Determinism contract: every trial draws from its own generator seeded with
(seed, trial index), and reductions are plain array sums over the stacked
per-trial results, so identical configurations reproduce identical reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import mle, ppe
from .chanfile import write_csv
from .geometry import ArraySpec, GeometryPose, sample_pose, synth
from .wavefront import build_degree_set, degree_set_for_shape, product_degree_set

TX_AXES = (2, 3)
FREQ_AXIS = 4
SCHEMA_VERSION = 1


def add_noise(h: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Observation h + w with w i.i.d. circularly-symmetric complex Gaussian.

    The noise variance is 1 / SNR in linear scale, split evenly between the
    real and imaginary parts.
    """
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    sigma = np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0))
    noise = rng.normal(scale=sigma, size=h.shape) + 1j * rng.normal(scale=sigma, size=h.shape)
    return h + noise


def per_entry_mse(h_hat: np.ndarray, h: np.ndarray) -> float:
    """Average squared entry error |h_hat - h|^2 over the tensor."""
    h_hat = np.asarray(h_hat)
    h = np.asarray(h)
    if h_hat.shape != h.shape:
        raise ValueError(f"shape mismatch: {h_hat.shape} vs {h.shape}")
    return float(np.mean(np.abs(h_hat - h) ** 2))


def crb_asymptote(num_params: int, num_entries: int, snr_db: float) -> float:
    """High-SNR per-entry MSE floor in dB: 10 log10(M / (2 N SNR))."""
    if num_params < 1 or num_entries < 1:
        raise ValueError("num_params and num_entries must be >= 1")
    snr = 10.0 ** (snr_db / 10.0)
    return 10.0 * np.log10(num_params / (2.0 * num_entries * snr))


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte Carlo sweep settings."""

    spec: ArraySpec
    snr_grid: tuple[float, ...] = tuple(float(s) for s in range(21))
    degree_list: tuple[int, ...] = (1, 2, 3)
    trials: int = 100
    amplitude_mode: str = "unit"
    shell: tuple[float, float] = (5.0, 15.0)
    shell_measure: str = "volume"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.amplitude_mode not in ("unit", "exact"):
            raise ValueError("amplitude_mode must be 'unit' or 'exact'")
        if not self.snr_grid:
            raise ValueError("snr_grid must not be empty")
        if not all(np.isfinite(s) for s in self.snr_grid):
            raise ValueError("snr values must be finite")

    def digest(self) -> str:
        """Short hash identifying the configuration."""
        text = repr(tuple(getattr(self, f.name) for f in fields(self)))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class ExperimentReport:
    """Per-SNR MSE statistics with CRB asymptotes and the LS reference."""

    config: ExperimentConfig
    snr_db: np.ndarray
    degree_list: tuple[int, ...]
    mse_db: np.ndarray  # (n_snr, n_degrees)
    crb_db: np.ndarray  # (n_snr, n_degrees)
    ls_db: np.ndarray  # (n_snr,)
    warnings: list[str] = field(default_factory=list)

    def _csv_rows(self, columns, table):
        """Header and rows: snr_db, then ``columns`` read from the rows of ``table``."""
        rows = [[f"{snr:g}"] + [f"{v:.6f}" for v in row] for snr, row in zip(self.snr_db, table)]
        return ["snr_db", *columns], rows

    def mse_csv_rows(self):
        return self._csv_rows([f"mse_db_{L}" for L in self.degree_list], self.mse_db)

    def crb_csv_rows(self):
        return self._csv_rows([f"crb_db_{L}" for L in self.degree_list] + ["ls_db"],
                              np.column_stack([self.crb_db, self.ls_db]))


def run_mse_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Estimate, reconstruct, and score over the SNR grid and degree list.

    Per trial: draw a pose from the shell, synthesize the channel in the
    configured amplitude mode, then per SNR add noise once and run the
    estimator for every degree on the same observation. The CRB column uses
    the degree-set cardinality as the parameter count.
    """
    spec = config.spec
    degree_sets = [build_degree_set(L, spec) for L in config.degree_list]
    n_snr = len(config.snr_grid)
    n_deg = len(config.degree_list)
    unit = config.amplitude_mode == "unit"

    mse = np.empty((config.trials, n_snr, n_deg))
    ls = np.empty((config.trials, n_snr))
    for trial in range(config.trials):
        rng = np.random.default_rng((config.seed, trial))
        pose = sample_pose(rng, *config.shell, measure=config.shell_measure)
        h = synth(spec, pose, unit_amplitude=unit)
        for i, snr in enumerate(config.snr_grid):
            y = add_noise(h, snr, rng)
            ls[trial, i] = per_entry_mse(y, h)
            for j, ds in enumerate(degree_sets):
                model = ppe.estimate(y, ds)
                mse[trial, i, j] = per_entry_mse(ppe.reconstruct(model), h)

    mse_db = 10.0 * np.log10(np.mean(mse, axis=0))
    ls_db = 10.0 * np.log10(np.mean(ls, axis=0))
    crb_db = np.empty((n_snr, n_deg))
    for j, ds in enumerate(degree_sets):
        for i, snr in enumerate(config.snr_grid):
            crb_db[i, j] = crb_asymptote(len(ds), spec.size, snr)

    report = ExperimentReport(
        config=config,
        snr_db=np.asarray(config.snr_grid, dtype=float),
        degree_list=config.degree_list,
        mse_db=mse_db,
        crb_db=crb_db,
        ls_db=ls_db,
    )
    for i, snr in enumerate(config.snr_grid):
        if snr < 20.0:
            continue
        for j, L in enumerate(config.degree_list):
            if mse_db[i, j] > crb_db[i, j] + 10.0:
                report.warnings.append(
                    f"degree {L} at {snr:g} dB: MSE {mse_db[i, j]:.2f} dB exceeds "
                    f"10x the CRB asymptote (possible wrap slips or model mismatch)"
                )
    return report


def _pilot_indices(extent: int, count: int) -> np.ndarray:
    idx = np.unique(np.round(np.linspace(0, extent - 1, count)).astype(int))
    if idx.size != count:
        raise ValueError(f"cannot place {count} distinct pilots on extent {extent}")
    return idx


def pilot_subsample(y: np.ndarray, max_degree: int):
    """Keep an evenly spaced pilot sublattice of transmit indices.

    Retains max_degree + 1 indices (endpoints included) per non-singleton
    transmit axis, the two endpoint frequencies when there are several, and
    every receive index. Returns (y_sub, coords) with one coordinate array
    per axis.
    """
    y = np.asarray(y)
    if y.ndim != 5:
        raise ValueError("expected a 5-axis channel tensor")
    coords = []
    for axis, extent in enumerate(y.shape):
        if axis in TX_AXES and extent > 1:
            if extent < max_degree + 1:
                raise ValueError(
                    f"transmit axis {axis} has {extent} < {max_degree + 1} samples")
            coords.append(_pilot_indices(extent, max_degree + 1))
        elif axis == FREQ_AXIS and extent > 1:
            coords.append(np.array([0, extent - 1]))
        else:
            coords.append(np.arange(extent))
    sub = y[np.ix_(*coords)]
    return sub, tuple(coords)


def estimate_from_pilots(y: np.ndarray, max_degree: int):
    """Fit on the pilot sublattice and re-express on the full lattice.

    The sublattice fit uses the per-axis product basis: pilot spacing is
    only approximately even, so the index remap is not affine and the
    restricted phase leaves the total-degree family. The re-expansion then
    targets the standard total-degree set of the full lattice.
    """
    sub, coords = pilot_subsample(y, max_degree)
    model_sub = ppe.estimate(sub, product_degree_set(max_degree, sub.shape))
    ds_full = degree_set_for_shape(max_degree, y.shape)
    return ppe.expand_to_lattice(model_sub, coords, y.shape, degrees=ds_full)


@dataclass
class TrajectoryExperiment:
    """Multi-start descent curves plus the genie proxy for one observation."""

    spec: ArraySpec
    config: mle.MleConfig
    snr_db: float
    seed: int
    proxy: mle.Trajectory
    starts: list[mle.Trajectory]
    best_pose: GeometryPose

    @property
    def ranked(self) -> list[mle.Trajectory]:
        return sorted(self.starts,
                      key=lambda tr: (np.isnan(tr.final_cost), tr.final_cost))

    def converged_fraction(self) -> float:
        """Fraction of starts whose final cost is within 1 dB of the proxy."""
        return float(np.mean([tr.converged for tr in self.starts]))

    def to_csv(self, path) -> None:
        mle.write_trajectory_csv(path, self.starts, self.proxy)


def run_trajectory_experiment(spec: ArraySpec, config: mle.MleConfig,
                              snr_db: float = 10.0, seed: int = 0,
                              pose: GeometryPose | None = None) -> TrajectoryExperiment:
    """Multi-start descent on one noisy observation of a fixed pose.

    The default pose places the receive array broadside at 10 m. The genie
    start (initialized at the true pose) is optimized alongside the random
    starts and reported separately as the proxy.
    """
    if pose is None:
        pose = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    rng = np.random.default_rng((seed, 0))
    y = add_noise(synth(spec, pose), snr_db, rng)
    inits = [sample_pose(rng, *config.init_shell) for _ in range(config.num_starts)]
    inits.append(pose)
    labels = ["random"] * config.num_starts + ["genie"]
    best_pose, trajectories = mle.optimize(y, spec, config, rng,
                                           init_poses=inits, labels=labels)
    proxy = trajectories[-1]
    starts = trajectories[:-1]
    for tr in starts:
        tr.converged = bool(tr.costs_db[-1] <= proxy.costs_db[-1] + 1.0)
    proxy.converged = True
    return TrajectoryExperiment(spec=spec, config=config, snr_db=snr_db, seed=seed,
                                proxy=proxy, starts=starts, best_pose=best_pose)

