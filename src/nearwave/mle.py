"""Geometric-parameter maximum-likelihood baseline.

Three cost functionals over the pose (r, R), closed-form attenuation
estimates, and a multi-start first-order optimizer. Rotations are
parameterized as R = R0 @ expm(skew(omega)) with R0 the per-start initial
rotation, so the optimization runs over six unconstrained reals (r, omega).
Gradients are central finite differences; all starts are advanced together
as one batched computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chanfile import write_csv
from .geometry import (
    ArraySpec,
    GeometryPose,
    rotation_from_tangent_batch,
    sample_pose,
    synth,
    synth_batch,
)

COST_VARIANTS = ("plain", "complex_beta", "unit_beta")

# adaptive-moment constants, stated explicitly for portability
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FD_STEP = 1e-6  # relative central-difference step

_DB_FLOOR = 1e-30  # linear cost floor so dB trajectories stay finite


@dataclass(frozen=True)
class MleConfig:
    """Optimizer settings for the geometric-parameter baseline."""

    cost_variant: str = "complex_beta"
    learning_rate: float = 0.01
    iterations: int = 500
    num_starts: int = 128
    init_shell: tuple[float, float] = (5.0, 15.0)

    def __post_init__(self):
        if self.cost_variant not in COST_VARIANTS:
            raise ValueError(f"cost_variant must be one of {COST_VARIANTS}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.num_starts < 1:
            raise ValueError("num_starts must be >= 1")


@dataclass
class Trajectory:
    """Cost history of one optimizer start.

    ``costs_db`` has length iterations + 1 (the initial cost is included).
    ``converged`` is set by experiment drivers relative to the genie proxy;
    ``diverged`` marks a non-finite cost encountered during the run.
    """

    costs_db: np.ndarray
    final_pose: GeometryPose | None
    start_index: int
    label: str = "random"
    converged: bool = False
    diverged: bool = False
    final_cost: float = field(default=float("nan"))


def _fit(y: np.ndarray, h: np.ndarray, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form attenuation and cost of each batched channel h (S, ...) against y.

    Returns (beta, cost), each of shape (S,), with cost = mean |y - beta h|^2.
    """
    axes = tuple(range(1, h.ndim))
    size = y.size
    if variant == "plain":
        return np.ones(len(h), dtype=complex), np.sum(np.abs(y[None] - h) ** 2, axis=axes) / size
    inner = np.sum(y[None] * np.conj(h), axis=axes)
    corr = np.abs(inner)
    y_energy = np.sum(np.abs(y) ** 2)
    h_energy = np.sum(np.abs(h) ** 2, axis=axes)
    if variant == "complex_beta":
        return inner / h_energy, (y_energy - corr**2 / h_energy) / size
    if variant == "unit_beta":
        return inner / corr, (y_energy + h_energy - 2.0 * corr) / size
    raise ValueError(f"unknown cost variant: {variant!r}")


def _cost_single(y, spec, pose, variant, unit_amplitude):
    h = synth(spec, pose, unit_amplitude=unit_amplitude)
    return float(_fit(np.asarray(y), h[None], variant)[1][0])


def cost_plain(y, spec: ArraySpec, pose: GeometryPose, unit_amplitude: bool = False) -> float:
    """Mean squared residual sum |y - h(pose)|^2 / N."""
    return _cost_single(y, spec, pose, "plain", unit_amplitude)


def cost_beta(y, spec: ArraySpec, pose: GeometryPose, unit_amplitude: bool = False) -> float:
    """Residual after the best complex attenuation: (sum|y|^2 - |<y,h>|^2 / sum|h|^2) / N.

    Equals min over complex beta of mean |y - beta h|^2.
    """
    return _cost_single(y, spec, pose, "complex_beta", unit_amplitude)


def cost_unit_beta(y, spec: ArraySpec, pose: GeometryPose, unit_amplitude: bool = False) -> float:
    """Residual after the best unit-modulus attenuation: (sum(|y|^2 + |h|^2) - 2 |<y,h>|) / N."""
    return _cost_single(y, spec, pose, "unit_beta", unit_amplitude)


def beta_hat(y, spec: ArraySpec, pose: GeometryPose, variant: str = "complex_beta") -> complex:
    """Closed-form attenuation estimate for a given pose.

    "plain" returns 1, "complex_beta" the least-squares projection
    <y, h> / ||h||^2, and "unit_beta" its unit-modulus counterpart, which
    raises ValueError when <y, h> is 0.
    """
    h = synth(spec, pose)
    with np.errstate(invalid="ignore"):
        beta = _fit(np.asarray(y), h[None], variant)[0][0]
    if np.isnan(beta):
        raise ValueError("zero correlation; unit-modulus attenuation undefined")
    return complex(beta)


def _batched_cost(y, spec, params, base_rotations, variant):
    r = params[:, :3]
    R = base_rotations @ rotation_from_tangent_batch(params[:, 3:])
    with np.errstate(invalid="ignore", divide="ignore"):
        h = synth_batch(spec, r, R)
        return _fit(np.asarray(y), h, variant)[1]


def optimize(y, spec: ArraySpec, config: MleConfig, rng: np.random.Generator,
             init_poses=None, labels=None):
    """Multi-start adaptive-moment descent over (r, omega).

    Starts are drawn from the configured shell (volume-uniform translation,
    Haar rotation) unless ``init_poses`` is given. All starts advance in one
    batched loop; gradients are central finite differences with a relative
    step. Returns (best final pose, list of Trajectory), where the best is
    the non-diverged start with the lowest final cost.
    """
    y = np.asarray(y, dtype=complex)
    if init_poses is None:
        init_poses = [sample_pose(rng, *config.init_shell)
                      for _ in range(config.num_starts)]
    poses = list(init_poses)
    S = len(poses)
    if labels is None:
        labels = ["random"] * S
    params = np.zeros((S, 6))
    params[:, :3] = [p.r for p in poses]
    base_rotations = np.stack([p.R for p in poses])

    m = np.zeros_like(params)
    v = np.zeros_like(params)
    costs = np.empty((config.iterations + 1, S))
    frozen = np.zeros(S, dtype=bool)

    def record(t):
        c = _batched_cost(y, spec, params, base_rotations, config.cost_variant)
        costs[t] = c
        return c

    for t in range(1, config.iterations + 1):
        c = record(t - 1)
        frozen |= ~np.isfinite(c)
        grad = np.zeros_like(params)
        for j in range(6):
            step = FD_STEP * np.maximum(1.0, np.abs(params[:, j]))
            up = params.copy()
            up[:, j] += step
            down = params.copy()
            down[:, j] -= step
            cp = _batched_cost(y, spec, up, base_rotations, config.cost_variant)
            cm = _batched_cost(y, spec, down, base_rotations, config.cost_variant)
            grad[:, j] = (cp - cm) / (2.0 * step)
        frozen |= ~np.all(np.isfinite(grad), axis=1)
        grad[frozen] = 0.0
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        update = config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        update[frozen] = 0.0
        params -= update
    final = record(config.iterations)
    frozen |= ~np.isfinite(final)

    rotations = base_rotations @ rotation_from_tangent_batch(params[:, 3:])
    trajectories = []
    for s in range(S):
        diverged = bool(frozen[s]) or not np.all(np.isfinite(costs[:, s]))
        pose = None
        if np.all(np.isfinite(params[s])) and np.linalg.norm(params[s, :3]) > 0:
            pose = GeometryPose(r=params[s, :3], R=rotations[s])
        with np.errstate(invalid="ignore"):
            costs_db = 10.0 * np.log10(np.maximum(costs[:, s], _DB_FLOOR))
        trajectories.append(Trajectory(
            costs_db=costs_db,
            final_pose=pose,
            start_index=s,
            label=labels[s],
            diverged=diverged,
            final_cost=float(final[s]),
        ))
    usable = [tr for tr in trajectories if not tr.diverged and tr.final_pose is not None]
    if not usable:
        raise RuntimeError("every start diverged")
    best = min(usable, key=lambda tr: tr.final_cost)
    return best.final_pose, trajectories


def landscape_scan(d_true: float = 5.0, d_range: tuple[float, float] = (4.6, 5.4),
                   step: float = 1e-3, num_antennas: int = 256, fc: float = 30e9):
    """Distance sweep of the plain and attenuation-absorbed objectives.

    A broadside uniform linear transmit array faces a single receive antenna
    on the z-axis at ``d_true``; the noiseless observation is scanned over
    candidate distances. Returns (grid, point, plane) where the columns are
    square roots of the unnormalized objectives: "point" for the plain
    residual and "plane" for the complex-attenuation one.
    """
    lo, hi = d_range
    if not (lo < hi and step > 0):
        raise ValueError("need d_range[0] < d_range[1] and step > 0")
    spec = ArraySpec.half_wavelength(ntx=num_antennas, fc=fc)
    truth = GeometryPose(r=np.array([0.0, 0.0, d_true]), R=np.eye(3))
    y = synth(spec, truth)
    grid = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    r_batch = np.zeros((grid.size, 3))
    r_batch[:, 2] = grid
    R_batch = np.broadcast_to(np.eye(3), (grid.size, 3, 3))
    h = synth_batch(spec, r_batch, R_batch)
    size = y.size
    point = np.sqrt(size * _fit(y, h, "plain")[1])
    # rounding can leave the absorbed cost a few ULPs below zero at the truth
    plane = np.sqrt(size * np.maximum(_fit(y, h, "complex_beta")[1], 0.0))
    return grid, point, plane


def write_trajectory_csv(path, trajectories, proxy: Trajectory) -> None:
    """Write best-sorted trajectories plus the genie proxy column.

    Columns: Iteration, Best_1_Cost_dB ... Best_S_Cost_dB, Proxy_Cost_dB,
    with Best_k the k-th lowest final cost among the given starts.
    """
    ranked = sorted(trajectories, key=lambda tr: (np.isnan(tr.final_cost), tr.final_cost))
    header = ["Iteration"]
    header += [f"Best_{k}_Cost_dB" for k in range(1, len(ranked) + 1)]
    header += ["Proxy_Cost_dB"]
    rows = [[i] + [f"{tr.costs_db[i]:.6f}" for tr in [*ranked, proxy]]
            for i in range(proxy.costs_db.shape[0])]
    write_csv(path, header, rows)
