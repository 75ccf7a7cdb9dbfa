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

import numpy as np

from .wavefront import (
    DegreeSet,
    PolyPhaseModel,
    approx_channel,
    basis_on_lattice,  # re-exported: callers look it up as ppe.basis_on_lattice
    basis_on_support,
    binomial,
    fit_on_grid,
    term_order,
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

    Output entry n is signal(n + e_axis) * conj(signal(n)), so a linear
    phase along the axis becomes constant.
    """
    signal = np.asarray(signal)
    if signal.shape[axis] < 2:
        raise ValueError(f"axis {axis} is exhausted (extent {signal.shape[axis]})")
    upper = [slice(None)] * signal.ndim
    lower = list(upper)
    upper[axis], lower[axis] = slice(1, None), slice(None, -1)
    return signal[tuple(upper)] * np.conj(signal[tuple(lower)])


def diff_multi(signal: np.ndarray, m) -> np.ndarray:
    """Apply ``m_d`` conjugate-product differences along each leading axis d."""
    out = np.asarray(signal)
    if len(m) > out.ndim or any(int(k) < 0 for k in m):
        raise ValueError(f"need at most {out.ndim} entries m_d >= 0, got {tuple(m)}")
    for axis, reps in enumerate(m):
        for _ in range(int(reps)):
            out = diff(out, axis)
    return out


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
    return complex(np.exp(2j * np.pi * _circular_average(_unit(np.asarray(signal)), m)))


def _circular_average(signal: np.ndarray, m):
    """Phase in cycles, in [-0.5, 0.5], of ``circular_average`` of unit phasors, per row.

    Rows are the leading axes, averaged over the trailing ``len(m)``. The weighted mean
    contracts the residual phases with the 1-D weight factors one axis at a time, from the
    last, skipping extent 1 (factor 1.0).
    """
    batch, lattice = signal.shape[:signal.ndim - len(m)], signal.shape[signal.ndim - len(m):]
    flat = signal.reshape(batch + (-1,))
    pilot = flat.sum(axis=-1)
    if np.any(pilot == 0):
        raise ValueError("projections cancel; pilot direction undefined")
    residual = np.angle(flat * np.conj(pilot)[..., None])
    kept = [(int(k), n) for k, n in zip(m, lattice) if n > 1]
    mean = residual.reshape(batch + tuple(n for _, n in kept))
    for k, n in reversed(kept):
        mean = np.vecdot(mean, _weights_1d(k, n + k))
    cycles = (np.angle(pilot) + mean) / (2.0 * np.pi)
    return cycles - np.round(cycles)


def _shared_differences(signal: np.ndarray, ms, first_axis: int):
    """Yield diff_multi(signal, m) per m in ``ms``, axis d at first_axis + d, sharing passes."""
    stack, previous = [signal], []  # stack[k]: the last m after its first k passes
    for m in ms:
        passes = [first_axis + d for d, k in enumerate(m) for _ in range(int(k))]
        del stack[1 + len(list(takewhile(lambda pair: pair[0] == pair[1], zip(previous, passes)))):]
        for axis in passes[len(stack) - 1:]:
            stack.append(diff(stack[-1], axis))
        previous = passes
        yield stack[-1]


def _degree_rows(degrees) -> np.ndarray:
    if isinstance(degrees, DegreeSet):
        return degrees.degrees
    return np.asarray(degrees, dtype=int)


def estimate(y: np.ndarray, degrees) -> PolyPhaseModel:
    """Estimate polynomial phase coefficients from the phases of ``y`` by sequential peeling.

    ``degrees`` is a DegreeSet or an array of multi-indices; terms are
    processed in descending total degree (lexicographic tie-break). Each
    coefficient is recovered modulo one cycle of the differenced lattice.
    The lattice is the trailing axes of ``y``, one per multi-index entry;
    any leading axes index independent observations, each peeled to the
    same bits as alone, and the model's ``coeffs`` has shape
    ``batch + (terms,)``. Every entry of ``y`` needs a finite nonzero modulus.
    """
    y = np.asarray(y, dtype=complex)
    rows = _degree_rows(degrees)
    if rows.ndim != 2 or rows.shape[1] > y.ndim:
        raise ValueError("degree multi-indices must not have more axes than the signal")
    batch, lattice = y.shape[:y.ndim - rows.shape[1]], y.shape[y.ndim - rows.shape[1]:]
    if np.any(rows < 0) or np.any(rows >= np.asarray(lattice)):
        raise ValueError("every degree must satisfy 0 <= m_d < N_d")
    order = sorted(range(rows.shape[0]), key=lambda i: term_order(rows[i]), reverse=True)
    work = _unit(y)
    coeffs = np.empty(batch + (rows.shape[0],))
    for _, level in groupby(order, key=lambda i: rows[i].sum()):
        level = [(i, tuple(int(v) for v in rows[i])) for i in level]
        # bound until the next level: freed earlier, the stack lets the heap shrink and fault back
        differenced = _shared_differences(work, [m for _, m in level], len(batch))
        for (i, m), signal in zip(level, differenced):
            coeffs[..., i] = _circular_average(signal, m)
        for i, m in level:
            cycles = coeffs[..., i].reshape(batch + (1,) * len(m)) * basis_on_support(lattice, m)
            cycles -= np.round(cycles)  # whole cycles: exp need not reduce a large argument
            work *= np.exp(-2j * np.pi * cycles)
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
    sample; ``degrees`` (a DegreeSet or multi-index rows) selects the target
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
    rows = _degree_rows(degrees)
    m_max = np.maximum(rows.max(axis=0), model.degrees.max(axis=0))
    if np.any(m_max + 1 > np.asarray(model.shape)):
        raise ValueError("sublattice too small to determine the full-lattice basis")
    corner = tuple(slice(int(k) + 1) for k in m_max)
    grid = tuple(c[s] for c, s in zip(coords, corner))
    return fit_on_grid(grid, model.phase_cycles()[corner], full_shape, rows)
