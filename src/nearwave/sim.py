"""Monte Carlo experiment drivers: calibrated noise, MSE and CRB accounting,
pilot subsampling, and the trajectory experiment.

Determinism contract: every trial draws from its own generator seeded with
(seed, trial index), first its pose and then the noise of each SNR in grid
order, real parts before imaginary ones, and reductions are plain array sums
over the stacked per-trial results, so identical configurations reproduce
identical reports. The MSE sweep synthesises, draws and estimates in blocks
of about BLOCK_ENTRIES channel entries: whole trials, or a run of one trial's
SNRs; the block size changes no draw and no bit of any result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import mle, ppe
from .chanfile import write_csv
from .geometry import ArraySpec, GeometryPose, sample_pose, synth, synth_batch
from .wavefront import build_degree_set, degree_set_for_shape, product_degree_set

SCHEMA_VERSION = 1
# channel entries per block of the MSE sweep: 6 trials of 21 SNRs on a
# 32-antenna line, and one observation of any tensor of 4096 entries or more
BLOCK_ENTRIES = 4096


def _check_snr(snr_db: float) -> None:
    """Raise ValueError unless ``snr_db`` is finite and 10 ** (|snr_db| / 10) a finite double."""
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    try:
        10.0 ** (abs(float(snr_db)) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db = {snr_db:g} is out of range: "
                         "|snr_db| must be at most about 3082.5 dB") from None


def _noise_sigma(snr_db: float) -> float:
    """Standard deviation of each of the real and imaginary noise parts at ``snr_db``."""
    _check_snr(snr_db)
    return np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0))


def _noisy(h: np.ndarray, sigmas, rng: np.random.Generator) -> np.ndarray:
    """Observations h + w of ``h``, one per noise level in ``sigmas``, from one draw.

    The draw holds the real and then the imaginary parts of each level's
    noise in turn, so splitting the levels over several calls changes no bit.
    Each part is added in place, which gives the bits of h + (a + 1j * b)
    without its three complex temporaries.
    """
    z = rng.normal(size=(len(sigmas), 2) + h.shape)
    z *= np.reshape(sigmas, (-1, 1) + (1,) * h.ndim)
    y = np.empty((len(sigmas),) + h.shape, dtype=complex)
    np.add(h.real, z[:, 0], out=y.real)
    np.add(h.imag, z[:, 1], out=y.imag)
    return y


def add_noise(h: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Observation h + w with w i.i.d. circularly-symmetric complex Gaussian.

    The noise variance is 1 / SNR in linear scale, split evenly between the
    real and imaginary parts.
    """
    return _noisy(h, [_noise_sigma(snr_db)], rng)[0]


def per_entry_mse(h_hat: np.ndarray, h: np.ndarray) -> float:
    """Average squared entry error |h_hat - h|^2 over the tensor."""
    h_hat, h = np.asarray(h_hat), np.asarray(h)
    if h_hat.shape != h.shape:
        raise ValueError(f"shape mismatch: {h_hat.shape} vs {h.shape}")
    return float(_row_mse(h_hat, h, h.ndim))


def _row_mse(h_hat: np.ndarray, h: np.ndarray, ndim: int) -> np.ndarray:
    """``per_entry_mse`` over the trailing ``ndim`` axes, the leading ones broadcast."""
    err = np.abs(h_hat - h) ** 2
    return err.reshape(err.shape[:err.ndim - ndim] + (-1,)).mean(axis=-1)


def crb_asymptote(num_params: int, num_entries: int, snr_db: float) -> float:
    """High-SNR per-entry MSE floor in dB: 10 log10(M / (2 N SNR)), through ``mle.to_db``."""
    if num_params < 1 or num_entries < 1:
        raise ValueError("num_params and num_entries must be >= 1")
    _check_snr(snr_db)
    return mle.to_db(num_params / (2.0 * num_entries * 10.0 ** (snr_db / 10.0)))


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.amplitude_mode not in ("unit", "exact"):
            raise ValueError("amplitude_mode must be 'unit' or 'exact'")
        if not self.snr_grid:
            raise ValueError("snr_grid must not be empty")
        if not all(np.isfinite(s) for s in self.snr_grid):
            raise ValueError("snr values must be finite")
        if len(set(self.degree_list)) != len(self.degree_list):
            raise ValueError(f"degree_list repeats a degree: {self.degree_list}")

    def digest(self) -> str:
        """Short hash identifying the configuration."""
        text = repr(tuple(getattr(self, f.name) for f in fields(self)))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentReport:
    """Per-SNR MSE statistics with CRB asymptotes and the LS reference."""

    snr_db: np.ndarray
    degree_list: tuple[int, ...]
    mse_db: np.ndarray  # (n_snr, n_degrees)
    crb_db: np.ndarray  # (n_snr, n_degrees)
    ls_db: np.ndarray  # (n_snr,)
    warnings: list[str]

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
    """Score LS and the PPE of each degree over the SNR grid in one MSE table.

    Per trial: draw a pose from the shell, synthesize the channel in the
    configured amplitude mode, then per SNR add noise once; LS (the
    observation itself) and then PPE per degree reconstruct that same
    observation. With ``per_block`` observations of about BLOCK_ENTRIES
    channel entries (at least one), a block is either ``per_block // n_snr``
    whole trials, or, when one trial is larger, a run of ``per_block`` SNRs
    of one trial, and takes one ``synth_batch`` and one call per estimator;
    the block size changes no draw and no bit of any result. The CRB column
    uses the degree-set cardinality as the parameter count.
    """
    spec = config.spec
    degree_sets = [build_degree_set(L, spec) for L in config.degree_list]
    # block of observations -> its reconstructions; ppe's names are looked up per call
    estimators = [lambda y: y] + [lambda y, ds=ds: ppe.reconstruct(ppe.estimate(y, ds))
                                  for ds in degree_sets]
    n_snr = len(config.snr_grid)
    unit = config.amplitude_mode == "unit"
    sigmas = [_noise_sigma(snr) for snr in config.snr_grid]
    per_block = max(1, BLOCK_ENTRIES // spec.size)
    step, run = max(1, per_block // n_snr), min(n_snr, per_block)

    mse = np.empty((config.trials, n_snr, len(estimators)))
    for lo in range(0, config.trials, step):
        rngs = [np.random.default_rng((config.seed, t))
                for t in range(lo, min(lo + step, config.trials))]
        poses = [sample_pose(rng, *config.shell, measure=config.shell_measure) for rng in rngs]
        truth = synth_batch(spec, np.array([p.r for p in poses]),
                            np.array([p.R for p in poses]), unit)[:, None]
        for s in range(0, n_snr, run):
            y = [_noisy(h, sigmas[s:s + run], rng) for h, rng in zip(truth[:, 0], rngs)]
            # a lone trial's observations are viewed, not copied: on upa-desk copying
            # them measured slower (more page faults) and 0.6 MB larger in peak RSS
            y = np.stack(y) if len(y) > 1 else y[0][None]
            cell = (slice(lo, lo + len(rngs)), slice(s, s + run))
            for j, estimator in enumerate(estimators):
                mse[cell + (j,)] = _row_mse(estimator(y), truth, len(spec.shape))

    table = mle.to_db(np.mean(mse, axis=0))
    crb_db = np.array([[crb_asymptote(len(ds), spec.size, snr) for ds in degree_sets]
                       for snr in config.snr_grid])
    warnings = []
    for snr, mse_row, crb_row in zip(config.snr_grid, table[:, 1:], crb_db):
        for L, m, c in zip(config.degree_list, mse_row, crb_row):
            if snr >= 20.0 and m > c + 10.0:
                warnings.append(f"degree {L} at {snr:g} dB: MSE {m:.2f} dB exceeds "
                                f"10x the CRB asymptote (possible wrap slips or model mismatch)")
    return ExperimentReport(snr_db=np.asarray(config.snr_grid, dtype=float),
                            degree_list=config.degree_list, mse_db=table[:, 1:],
                            crb_db=crb_db, ls_db=table[:, 0], warnings=warnings)


def _pilot_indices(extent: int, count: int) -> np.ndarray:
    # linspace increases, so a step below one repeats an index (np.unique imports numpy.ma)
    idx = np.round(np.linspace(0, extent - 1, count)).astype(int)
    if np.any(np.diff(idx) < 1):
        raise ValueError(f"cannot place {count} distinct pilots on extent {extent}")
    return idx


def pilot_subsample(y: np.ndarray, max_degree: int):
    """Keep an evenly spaced pilot sublattice of transmit indices.

    Retains every receive index, max_degree + 1 indices per transmit axis and
    the two endpoint frequencies, each axis's from ``_pilot_indices``
    (endpoints included); a singleton axis keeps its one index. Returns
    (y_sub, coords) with one coordinate array per axis.
    """
    y = np.asarray(y)
    if y.ndim != 5:
        raise ValueError("expected a 5-axis channel tensor")
    counts = y.shape[:2] + (max_degree + 1,) * 2 + (2,)
    coords = tuple(_pilot_indices(n, count if n > 1 else 1) for n, count in zip(y.shape, counts))
    return y[np.ix_(*coords)], coords


def estimate_from_pilots(y: np.ndarray, max_degree: int):
    """Fit on the pilot sublattice and re-express on the full lattice.

    The sublattice fit uses the per-axis product basis: pilot spacing is
    only approximately even, so the index remap is not affine and the
    restricted phase leaves the total-degree family. The re-expansion then
    targets the standard total-degree set of the full lattice.
    """
    sub, coords = pilot_subsample(y, max_degree)
    model_sub = ppe.estimate(sub, product_degree_set(max_degree, sub.shape))
    return ppe.expand_to_lattice(model_sub, coords, y.shape,
                                 degree_set_for_shape(max_degree, y.shape))


@dataclass(frozen=True)
class TrajectoryExperiment:
    """Multi-start descent curves plus the genie proxy for one observation."""

    proxy: mle.Trajectory
    starts: list[mle.Trajectory]

    @property
    def ranked(self) -> list[mle.Trajectory]:
        return mle.by_final_cost(self.starts)

    def converged_fraction(self) -> float:
        """Fraction of starts whose final cost is within 1 dB of the proxy's."""
        return float(np.mean([tr.costs_db[-1] <= self.proxy.costs_db[-1] + 1.0
                              for tr in self.starts]))


def run_trajectory_experiment(spec: ArraySpec, config: mle.MleConfig,
                              snr_db: float = 10.0, seed: int = 0) -> TrajectoryExperiment:
    """Multi-start descent on one noisy observation of the receive array broadside at 10 m.

    The genie start (initialized at the true pose) is optimized alongside the
    random starts and reported separately as the proxy.
    """
    pose = GeometryPose(r=np.array([0.0, 0.0, 10.0]), R=np.eye(3))
    rng = np.random.default_rng((seed, 0))
    y = add_noise(synth(spec, pose), snr_db, rng)
    inits = [sample_pose(rng) for _ in range(config.num_starts)]
    inits.append(pose)
    *starts, proxy = mle.optimize(y, spec, config, inits)[1]
    return TrajectoryExperiment(proxy=proxy, starts=starts)

