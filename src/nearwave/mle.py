"""Geometric-parameter maximum-likelihood baseline.

Three cost functionals over the pose (r, R), closed-form attenuation
estimates, and a multi-start first-order optimizer. Rotations are
parameterized as R = R0 @ expm(skew(omega)) with R0 the per-start initial
rotation, so the optimization runs over six unconstrained reals (r, omega).
Each iteration takes every start's cost and closed-form gradient in one pass,
in blocks of starts: distances without a pair-offset tensor, the channel
synthesised in place, the attenuation fitted from dot products, and the chain
rule from the cost through the pair distances to (r, omega).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chanfile import write_csv
from .geometry import (
    ArraySpec,
    GeometryPose,
    _distances,
    _rotation_and_jacobian,
    frequency_factors,
    rotation_from_tangent_batch,
    rx_local_grid,
    sample_pose,  # re-exported: the benchmark's layer table wraps mle.sample_pose
    synth,
    synth_batch,
    synth_from_distances,
    tx_positions,
)

COST_VARIANTS = ("plain", "complex_beta", "unit_beta")

# adaptive-moment constants, stated explicitly for portability
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# channel entries per block of the cost pass, with or without the gradient:
# 32 starts of the 32x32 link. One workspace sized for a block serves every
# block of a run, so its arrays are a few MB for any start count
GRAD_BLOCK_ENTRIES = 32768


def to_db(power):
    """10 log10(power), with ``power`` floored at 1e-30 (-300 dB); NaN stays NaN."""
    return 10.0 * np.log10(np.maximum(power, 1e-30))


@dataclass(frozen=True)
class MleConfig:
    """Optimizer settings for the geometric-parameter baseline."""

    cost_variant: str = "complex_beta"
    learning_rate: float = 0.01
    iterations: int = 500
    num_starts: int = 128

    def __post_init__(self):
        if self.cost_variant not in COST_VARIANTS:
            raise ValueError(f"cost_variant must be one of {COST_VARIANTS}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.num_starts < 1:
            raise ValueError("num_starts must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Cost history of one optimizer start.

    ``costs_db`` has length iterations + 1 (the initial cost is included).
    ``diverged`` marks a non-finite cost or gradient encountered during the
    run. ``final_grad_norm`` is the norm of the (r, omega) gradient of the
    last update, NaN for a diverged start.
    """

    costs_db: np.ndarray
    final_pose: GeometryPose | None
    diverged: bool = False
    final_cost: float = field(default=float("nan"))
    final_grad_norm: float = field(default=float("nan"))


class DivergedError(ValueError):
    """Every optimizer start reached a non-finite cost or gradient."""


def _fit(y: np.ndarray, h: np.ndarray, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form attenuation and cost of each batched channel h (S, ...) against y.

    Returns (beta, cost), each of shape (S,), with cost = mean |y - beta h|^2,
    taken from the dot products <h, y>, <h, h> and <y, y>.
    """
    y, h = y.reshape(-1), h.reshape(len(h), -1)
    inner = np.vecdot(h, y)
    corr = np.abs(inner)
    y_energy = np.vdot(y, y).real
    h_energy = np.vecdot(h, h).real
    if variant == "plain":
        return np.ones(len(h), dtype=complex), (y_energy + h_energy - 2.0 * inner.real) / y.size
    if variant == "complex_beta":
        return inner / h_energy, (y_energy - corr**2 / h_energy) / y.size
    if variant == "unit_beta":
        return inner / corr, (y_energy + h_energy - 2.0 * corr) / y.size
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


def _workspace(spec: ArraySpec, count: int):
    """One block's arrays for ``_cost_pass`` over ``count`` starts: pair distances,
    gradient weights (first the distances' scratch), the channel and its scratch."""
    block = max(1, min(count, GRAD_BLOCK_ENTRIES // spec.size))
    pairs, entries = (block,) + spec.shape[:-1], (block,) + spec.shape
    return (np.empty(pairs), np.empty(pairs),
            np.empty(entries, dtype=complex), np.empty(entries, dtype=complex))


def _cost_pass(y, spec, params, base_rotations, variant, work, grad=None):
    """Cost of each start at ``params`` (S, 6), and its gradient into ``grad`` if given.

    Starts run in blocks the size of ``work`` (from ``_workspace``); no
    start's numbers depend on its block. No block forms the pair offsets: the
    gradient takes sum_ab w (rx - tx) as rx sum_ab w - sum_ab w tx, per start.
    """
    cost = np.empty(len(params))
    step = len(work[0])
    tx = tx_positions(spec).reshape(-1, 3)
    rx_local = rx_local_grid(spec).reshape(-1, 3)
    phase_weight = 1j * ((-2.0 * np.pi / spec.wavelength) * frequency_factors(spec))
    for lo in range(0, len(params), step):
        part = slice(lo, lo + step)
        r, omega = params[part, :3], params[part, 3:]
        dist, g, h, zh = (a[:len(r)] for a in work)
        R, dR = _rotation_and_jacobian(omega, grad is not None)
        rx, _ = _distances(spec, r, base_rotations[part] @ R, out=dist, scratch=g)
        synth_from_distances(spec, r, dist, out=h, work=zh)  # zh is idle until the gradient
        beta, cost[part] = _fit(y, h, variant)
        if grad is None:
            continue
        beta = beta.reshape((-1,) + (1,) * (h.ndim - 1))
        # d cost = Re sum conj(z) dh with z = -(2/N) conj(beta) (y - beta h); beta
        # is the optimum of its variant, so its own variation drops out
        np.conj(np.subtract(y, np.multiply(beta, h, out=zh), out=zh), out=zh)
        np.multiply((-2.0 / y.size) * beta, zh, out=zh)
        zh *= h
        # h = (D / d) exp(j kappa f d): the weight of each pair distance, and of
        # log D through the amplitude; the weights overwrite h, which is used up
        np.add(np.divide(-1.0, dist, out=g)[..., None], phase_weight, out=h)
        np.sum(np.multiply(zh, h, out=h).real, axis=-1, out=g)
        amp = np.sum(zh.real, axis=tuple(range(1, h.ndim)))
        # per receive antenna p, sum over transmit antennas of g u, u = (rx - tx) / d
        w = np.divide(g, dist, out=g).reshape(len(r), -1, len(tx))
        gu = rx.reshape(w.shape[:2] + (3,)) * np.sum(w, axis=2)[..., None] - w @ tx
        grad[part, :3] = gu.sum(axis=1) + (amp / np.sum(r * r, axis=1))[:, None] * r
        # d cost / dR = M = sum g u p_rx^T over pairs, p_rx in the array frame
        M = np.swapaxes(gu, 1, 2) @ rx_local
        dR = base_rotations[part, None] @ dR
        grad[part, 3:] = np.sum(dR * M[:, None], axis=(2, 3))
    return cost


def batched_cost(y, spec: ArraySpec, params, base_rotations, variant: str) -> np.ndarray:
    """Cost of each start, shape (S,), at ``params`` (S, 6) = (r, omega).

    Start s has the pose (r, base_rotations[s] @ expm(skew(omega))). Starts
    are evaluated in the blocks of ``cost_and_grad``, which bound the
    memory for any start count; each start's cost does not depend on the
    block it lands in.
    """
    return _cost_pass(np.asarray(y, dtype=complex), spec, params, base_rotations, variant,
                      _workspace(spec, len(params)))


def cost_and_grad(y, spec: ArraySpec, params, base_rotations, variant: str):
    """``batched_cost`` and its gradient over (r, omega), shapes (S,) and (S, 6).

    Starts are evaluated in blocks of about GRAD_BLOCK_ENTRIES channel
    entries; each start's numbers do not depend on the block it lands in.
    """
    grad = np.empty_like(params)
    return _cost_pass(np.asarray(y, dtype=complex), spec, params, base_rotations, variant,
                      _workspace(spec, len(params)), grad), grad


# a start whose numbers overflow or turn NaN is frozen and marked diverged
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def optimize(y, spec: ArraySpec, config: MleConfig, init_poses):
    """Multi-start adaptive-moment descent over (r, omega) from ``init_poses``.

    All starts advance in one batched loop; each iteration takes the costs
    and their closed-form gradients in one pass. A start whose cost or
    gradient turns non-finite is frozen and marked diverged. Returns (best
    final pose, list of Trajectory), where the best is the non-diverged start
    with the lowest final cost; raises DivergedError when every start diverged.
    """
    y = np.asarray(y, dtype=complex)
    S = len(init_poses)
    params = np.zeros((S, 6))
    params[:, :3] = [p.r for p in init_poses]
    base_rotations = np.stack([p.R for p in init_poses])

    m = np.zeros_like(params)
    v = np.zeros_like(params)
    costs = np.empty((config.iterations + 1, S))
    frozen = np.zeros(S, dtype=bool)
    # one workspace for every block of every pass of this run
    work = _workspace(spec, S)
    grad = np.empty_like(params)

    for t in range(1, config.iterations + 1):
        costs[t - 1] = _cost_pass(y, spec, params, base_rotations, config.cost_variant,
                                  work, grad)
        frozen |= ~np.isfinite(costs[t - 1]) | ~np.all(np.isfinite(grad), axis=1)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        update = config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        update[frozen] = 0.0
        params -= update
    final = costs[-1] = _cost_pass(y, spec, params, base_rotations, config.cost_variant,
                                   work)
    frozen |= ~np.isfinite(final)
    grad_norm = np.where(frozen, np.nan, np.linalg.norm(grad, axis=1))

    rotations = base_rotations @ rotation_from_tangent_batch(params[:, 3:])
    lengths = np.linalg.norm(params[:, :3], axis=1)
    placed = np.all(np.isfinite(params), axis=1) & (0.0 < lengths) & (lengths < np.inf)
    costs_db = np.ascontiguousarray(to_db(costs).T)
    poses = [GeometryPose(r=params[s, :3], R=rotations[s]) if placed[s] else None for s in range(S)]
    trajectories = [Trajectory(costs_db=costs_db[s], final_pose=poses[s], diverged=bool(frozen[s]),
                               final_cost=float(final[s]), final_grad_norm=float(grad_norm[s]))
                    for s in range(S)]
    usable = [tr for tr in trajectories if not tr.diverged and tr.final_pose is not None]
    if not usable:
        raise DivergedError("every start diverged: a non-finite cost or gradient; "
                            "a smaller learning_rate may help")
    return by_final_cost(usable)[0].final_pose, trajectories


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
    if not (0 < lo < hi < np.inf and 0 < step < np.inf):
        raise ValueError("need 0 < d_range[0] < d_range[1] < inf and 0 < step < inf")
    spec = ArraySpec.half_wavelength(ntx=num_antennas, fc=fc)
    truth = GeometryPose(r=np.array([0.0, 0.0, d_true]), R=np.eye(3))
    y = synth(spec, truth)
    count = (hi - lo) / step
    if count == np.inf:
        raise ValueError(f"(d_range[1] - d_range[0]) / step = {count} scan points: must be finite")
    grid = lo + step * np.arange(int(round(count)) + 1)
    r_batch = np.zeros((grid.size, 3))
    r_batch[:, 2] = grid
    R_batch = np.broadcast_to(np.eye(3), (grid.size, 3, 3))
    h = synth_batch(spec, r_batch, R_batch)
    point = np.sqrt(y.size * _fit(y, h, "plain")[1])
    # rounding can leave the absorbed cost a few ULPs below zero at the truth
    plane = np.sqrt(y.size * np.maximum(_fit(y, h, "complex_beta")[1], 0.0))
    return grid, point, plane


def by_final_cost(trajectories) -> list[Trajectory]:
    """``trajectories`` sorted by final cost, lowest first, NaN (diverged) last."""
    return sorted(trajectories, key=lambda tr: (np.isnan(tr.final_cost), tr.final_cost))


def write_trajectory_csv(path, trajectories, proxy: Trajectory) -> None:
    """Write best-sorted trajectories plus the genie proxy column.

    Columns: Iteration, Best_1_Cost_dB ... Best_S_Cost_dB, Proxy_Cost_dB,
    with Best_k the k-th lowest final cost among the given starts.
    """
    ranked = by_final_cost(trajectories)
    header = ["Iteration"]
    header += [f"Best_{k}_Cost_dB" for k in range(1, len(ranked) + 1)]
    header += ["Proxy_Cost_dB"]
    rows = [[i] + [f"{tr.costs_db[i]:.6f}" for tr in [*ranked, proxy]]
            for i in range(proxy.costs_db.shape[0])]
    write_csv(path, header, rows)
