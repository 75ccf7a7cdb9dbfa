"""Multidimensional polynomial phase estimation on complex lattice signals.

The estimator peels coefficients in descending degree order, one total
degree (a level) at a time. For each multi-index m of a level it applies
conjugate-product differencing along each axis m_d times to one snapshot of
the working signal, takes a weighted circular average of the result and
reads the coefficient off the averaged phase; then it removes the level's
terms from the working signal. That is exact because the m-th difference of
p_m' vanishes when |m'| = |m| and m' != m, as in the discrete
polynomial-phase transform (S. Peleg and B. Friedlander, IEEE Trans. SP,
1995). With the shared falling-factorial basis the differenced phase of a
degree-m term is exactly constant, so the noiseless procedure is exact for
coefficients inside one wrap cycle.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import groupby, takewhile
from math import prod

import numpy as np

from .geometry import unit_phasor
from .wavefront import (
    PolyPhaseModel,
    approx_channel,
    basis_on_lattice,  # re-exported: callers look it up as ppe.basis_on_lattice
    basis_on_support,
    binomial,
    degree_rows,
    fit_on_grid,
)

__all__ = [
    "binomial",
    "diff",
    "diff_multi",
    "weights",
    "circular_average",
    "estimate",
    "reconstruct",
    "expand_to_lattice",
]


def diff(signal: np.ndarray, axis: int) -> np.ndarray:
    """One conjugate-product difference along ``axis``; the extent shrinks by 1.

    Output entry n is conj(signal(n)) * signal(n + e_axis), so a linear
    phase along the axis becomes constant. The conjugate is the left operand
    because numpy may reuse a large enough temporary in place, computing
    ``conj *= upper``: with the temporary on the left, an array of any size is
    multiplied in the same operand order, and a batch gets its rows' bits.
    """
    signal = np.asarray(signal)
    if signal.shape[axis] < 2:
        raise ValueError(f"axis {axis} is exhausted (extent {signal.shape[axis]})")
    head = (slice(None),) * (axis % signal.ndim)
    return np.conj(signal[head + (slice(None, -1),)]) * signal[head + (slice(1, None),)]


def _phase_diff(phase: np.ndarray, axis: int) -> np.ndarray:
    """``diff`` on phases in cycles: upper minus lower along ``axis``, not reduced."""
    head = (slice(None),) * axis
    return phase[head + (slice(1, None),)] - phase[head + (slice(None, -1),)]


def _passes(m) -> list[int]:
    """Axes of the differences of degree ``m`` in the order they apply: the inner, slower
    ones first, where the terms of a level share them (see ``_shared_differences``).
    """
    return [d for d in reversed(range(len(m))) for _ in range(int(m[d]))]


def diff_multi(signal: np.ndarray, m) -> np.ndarray:
    """Apply ``m_d`` conjugate-product differences along each leading axis d, last axis first."""
    out = np.asarray(signal)
    if len(m) > out.ndim or any(int(k) < 0 for k in m):
        raise ValueError(f"need at most {out.ndim} entries m_d >= 0, got {tuple(m)}")
    return next(_shared_differences(out, [m], 0))


@lru_cache(maxsize=256)
def _weights_1d(m: int, n: int) -> np.ndarray:
    idx = np.arange(n - m)
    out = binomial(idx + m, m) * binomial(n - idx - 1, m) / binomial(n + m, 2 * m + 1)
    out.flags.writeable = False
    return out


def weights(m, shape) -> np.ndarray:
    """Averaging weight table for degree ``m`` on a lattice of shape ``shape``.

    The table lives on the differenced domain [N - m]; it is separable per
    axis, nonnegative, symmetric, and sums to one.
    """
    m = tuple(int(v) for v in m)
    shape = tuple(int(n) for n in shape)
    if len(m) != len(shape) or any(k < 0 or k >= n for k, n in zip(m, shape)):
        raise ValueError(f"need 0 <= m_d < N_d on every axis, got m = {m}, N = {shape}")
    factors = [_weights_1d(k, n) for k, n in zip(m, shape)]
    return reduce(np.multiply.outer, factors, np.ones(()))  # a new array, never a cached factor


def _unit(signal: np.ndarray) -> np.ndarray:
    """``signal / |signal|``; the one check on values: each modulus finite and nonzero."""
    mag = np.abs(signal)
    if not (np.all(np.isfinite(mag)) and mag.all()):
        raise ValueError("every signal entry must have a finite nonzero modulus")
    return signal / mag


def circular_average(signal: np.ndarray, m) -> complex:
    """Weighted circular average of a differenced signal, unit modulus, at any scale.

    The plain sum of the unit-modulus projections fixes a pilot direction;
    the output is that direction corrected by the weighted mean of the
    residual phases wrapped around it. ``m`` is the degree that produced
    ``signal``, which sets the weight table.
    """
    if len(m) != np.ndim(signal) or any(int(k) < 0 for k in m):
        raise ValueError(f"need one m_d >= 0 per axis of the signal rank {np.ndim(signal)}, "
                         f"got {tuple(m)}")
    unit = _unit(np.asarray(signal))
    return complex(unit_phasor(_circular_average(unit.sum(), np.angle(unit) * (0.5 / np.pi), m)))


def _leaf_pilot(parent: np.ndarray, m) -> np.ndarray:
    """Per row, the sum of term m's differenced signal, from ``parent``, m before its last pass.

    ``parent`` has rows on its leading axes (the signal itself when m = 0). Viewed as rows of
    (A, n B), with n its extent on the last pass axis and B the entries after it, that
    difference pairs each row's first and last (n - 1) B entries: its sum is one conjugate
    dot product per A, and the difference is never formed.
    """
    batch = parent.shape[:parent.ndim - len(m)]
    axis = next((len(batch) + d for d, k in enumerate(m) if k), None)
    if axis is None:
        return parent.reshape(batch + (-1,)).sum(axis=-1)
    inner = prod(parent.shape[axis + 1:])
    rows = parent.reshape(batch + (prod(parent.shape[len(batch):axis]), -1))
    return np.vecdot(rows[..., :-inner], rows[..., inner:]).sum(axis=-1)


def _circular_average(pilot: np.ndarray, phase: np.ndarray, m):
    """Phase in cycles, in [-0.5, 0.5], of the weighted circular average, per row.

    ``pilot`` sums each row's differenced unit phasors; ``phase``, rows on the leading axes,
    holds their phases in cycles and is overwritten with the residuals r - rint(r) around the
    pilot's angle. The weighted mean contracts them with the 1-D weight factors one axis at a
    time, from the first, skipping extent 1 (factor 1.0). Each row is its own vector-matrix
    product, so a batch gets the bits of a loop.
    """
    if not pilot.all():
        raise ValueError("projections cancel; pilot direction undefined")
    batch, base = np.shape(pilot), np.angle(pilot) * (0.5 / np.pi)
    residual = phase.reshape(batch + (-1,))
    residual -= base[..., None]
    residual -= np.rint(residual)
    for k, n in [(int(k), n) for k, n in zip(m, phase.shape[phase.ndim - len(m):]) if n > 1]:
        residual = np.matmul(_weights_1d(k, n + k), residual.reshape(batch + (n, -1)))
    cycles = base + residual.reshape(batch)
    return cycles - np.round(cycles)


def _shared_differences(signal: np.ndarray, ms, first_axis: int, step=diff, parents=False):
    """Yield diff_multi(signal, m) per m in ``ms``, axis d at first_axis + d, sharing passes.

    ``step(node, axis)`` takes one difference; with ``parents`` each m stops before its last
    pass. Each m reuses the leading passes it shares with the previous one, so ``ms`` sorted
    by ``_passes`` takes each distinct prefix once.
    """
    stack, previous = [signal], []  # stack[k]: the last m after its first k passes
    for m in ms:
        passes = [first_axis + d for d in _passes(m)][:-1 if parents else None]
        del stack[1 + len(list(takewhile(lambda pair: pair[0] == pair[1], zip(previous, passes)))):]
        for axis in passes[len(stack) - 1:]:
            stack.append(step(stack[-1], axis))
        previous = passes
        yield stack[-1]


def estimate(y: np.ndarray, degrees) -> PolyPhaseModel:
    """Estimate polynomial phase coefficients from the phases of ``y`` by sequential peeling.

    ``degrees`` is a 2-D int array-like of distinct multi-index rows; terms are
    processed in descending total degree (lexicographic tie-break). Each
    coefficient is recovered modulo one cycle of the differenced lattice.
    The lattice is the trailing axes of ``y``, one per multi-index entry;
    any leading axes index independent observations, each peeled to the
    same bits as alone, and the model's ``coeffs`` has shape
    ``batch + (terms,)``. Every entry of ``y`` needs a finite nonzero modulus.
    """
    y = np.asarray(y, dtype=complex)
    rows = degree_rows(degrees, y.shape)
    batch, lattice = y.shape[:y.ndim - rows.shape[1]], y.shape[y.ndim - rows.shape[1]:]
    total, listed = rows.sum(axis=1).tolist(), rows.tolist()
    order = np.lexsort((*rows.T[::-1], total))[::-1].tolist()  # descending (|m|, m)
    levels = [[(i, tuple(listed[i])) for i in level]
              for _, level in groupby(order, key=total.__getitem__)]
    work = _unit(y)
    coeffs = np.empty(batch + (rows.shape[0],))
    for level in levels:
        index, ms = zip(*sorted(level, key=lambda term: _passes(term[1])))
        # bound until the next level: freed earlier, the stacks let the heap shrink and fault back
        parents = _shared_differences(work, ms, len(batch), diff, parents=True)
        phases = _shared_differences(np.angle(work) * (0.5 / np.pi), ms, len(batch), _phase_diff)
        for i, m in zip(index, ms):  # no loop variable holds a node past its term
            coeffs[..., i] = _circular_average(_leaf_pilot(next(parents), m), next(phases), m)
        if level is levels[-1]:
            break  # nothing reads the peeled signal after the last level
        for i, m in level:
            cycles = -coeffs[..., i].reshape(batch + (1,) * len(m)) * basis_on_support(lattice, m)
            work *= unit_phasor(cycles)
    return PolyPhaseModel(shape=lattice, degrees=rows, coeffs=coeffs)


def reconstruct(model: PolyPhaseModel) -> np.ndarray:
    """Unit-modulus lattice signal of a fitted model over its full shape.

    Indices that were never observed (sublattice fits) are filled by the
    polynomial itself, which is an exact extrapolation for noiseless
    polynomial truth.
    """
    return approx_channel(model)


def expand_to_lattice(model: PolyPhaseModel, coords, full_shape, degrees) -> PolyPhaseModel:
    """Re-express a sublattice fit in the coordinates of the full lattice.

    ``coords`` gives, per axis, the full-lattice index of each sublattice
    sample; ``degrees`` (multi-index rows, any int array-like) selects the target
    basis. The fitted polynomial is evaluated on a determining subgrid
    and re-solved against the full-lattice basis there, which is exact
    whenever the fitted values come from a polynomial in the target span.
    """
    model._unbatched("expand_to_lattice")
    full_shape = tuple(int(n) for n in full_shape)
    coords = tuple(np.asarray(c, dtype=int) for c in coords)
    if len(coords) != len(full_shape) or len(coords) != len(model.shape):
        raise ValueError("coords must cover every lattice axis")
    for c, n_sub, n_full in zip(coords, model.shape, full_shape):
        if c.shape != (n_sub,):
            raise ValueError("coords must match the sublattice shape")
        if np.any(c < 0) or np.any(c >= n_full):
            raise ValueError("coords out of range of the full lattice")
    rows = degree_rows(degrees, full_shape)
    if rows.shape[1] != len(full_shape):
        raise ValueError("degree multi-indices must match the lattice rank")
    m_max = np.maximum(rows.max(axis=0), model.degrees.max(axis=0))
    if np.any(m_max + 1 > np.asarray(model.shape)):
        raise ValueError("sublattice too small to determine the full-lattice basis")
    corner = tuple(slice(int(k) + 1) for k in m_max)
    grid = tuple(c[s] for c, s in zip(coords, corner))
    return fit_on_grid(grid, model.phase_cycles()[corner], full_shape, rows)
