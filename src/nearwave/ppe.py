"""Multidimensional polynomial phase estimation on complex lattice signals.

The estimator peels coefficients in descending degree order: for each
multi-index m it applies conjugate-product differencing along each axis m_d
times, takes a weighted circular average of the result, reads the
coefficient off the averaged phase, and removes the term from the working
signal. With the shared falling-factorial basis the differenced phase of a
degree-m term is exactly constant, so the noiseless procedure is exact for
coefficients inside one wrap cycle.
"""

from __future__ import annotations

from functools import lru_cache, reduce

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


def circular_average(signal: np.ndarray, m) -> complex:
    """Weighted circular average of a differenced signal, unit modulus.

    The plain sum of the unit-modulus projections fixes a pilot direction;
    the output is that direction corrected by the weighted mean of the
    residual phases wrapped around it. ``m`` is the degree that produced
    ``signal``, which sets the weight table.
    """
    if len(m) != np.ndim(signal):
        raise ValueError(f"degree {tuple(m)} does not match the signal rank {np.ndim(signal)}")
    return complex(*_circular_average(np.asarray(signal), m))


def _circular_average(signal: np.ndarray, m):
    """(real, imag) of ``circular_average`` over the trailing ``len(m)`` axes, per leading index.

    The pilot's modulus, the weighted mean and the pilot-correction product
    are spelled out so that each batch row gets the bits of a lone signal.
    """
    batch = signal.shape[:signal.ndim - len(m)]
    flat = signal.reshape(batch + (-1,))
    if flat.shape[-1] == 0:
        raise ValueError("empty signal")
    if np.any(flat == 0):
        raise ValueError("signal contains zeros; projection undefined")
    proj = flat / np.abs(flat)
    total = proj.sum(axis=-1)
    modulus = np.hypot(total.real, total.imag)
    if np.any(modulus == 0):
        raise ValueError("projections cancel; pilot direction undefined")
    pilot = total / modulus
    residual = np.angle(flat * np.conj(total)[..., None])
    shape = tuple(s + int(k) for s, k in zip(signal.shape[len(batch):], m))
    w = weights(m, shape).ravel()
    correction = np.exp(1j * np.vecdot(residual, w))
    return (pilot.real * correction.real - pilot.imag * correction.imag,
            pilot.real * correction.imag + pilot.imag * correction.real)


def _degree_rows(degrees) -> np.ndarray:
    if isinstance(degrees, DegreeSet):
        return degrees.degrees
    return np.asarray(degrees, dtype=int)


def estimate(y: np.ndarray, degrees) -> PolyPhaseModel:
    """Estimate polynomial phase coefficients of ``y`` by sequential peeling.

    ``degrees`` is a DegreeSet or an array of multi-indices; terms are
    processed in descending total degree (lexicographic tie-break). Each
    coefficient is recovered modulo one cycle of the differenced lattice.
    The lattice is the trailing axes of ``y``, one per multi-index entry;
    any leading axes index independent observations, each peeled to the
    same bits as alone, and the model's ``coeffs`` has shape
    ``batch + (terms,)``.
    """
    y = np.asarray(y, dtype=complex)
    rows = _degree_rows(degrees)
    if rows.ndim != 2 or rows.shape[1] > y.ndim:
        raise ValueError("degree multi-indices must not have more axes than the signal")
    batch, lattice = y.shape[:y.ndim - rows.shape[1]], y.shape[y.ndim - rows.shape[1]:]
    if np.any(rows < 0) or np.any(rows >= np.asarray(lattice)):
        raise ValueError("every degree must satisfy 0 <= m_d < N_d")
    if not np.all(np.isfinite(y)):
        raise ValueError("signal must be finite")
    order = sorted(range(rows.shape[0]), key=lambda i: term_order(rows[i]), reverse=True)
    work = y.copy()
    coeffs = np.empty(batch + (rows.shape[0],))
    for i in order:
        m = tuple(int(v) for v in rows[i])
        # `differenced` stays bound until the next term, like `proj` and `w` in
        # _circular_average: freed earlier, they let the heap shrink and fault back
        differenced = diff_multi(work, (0,) * len(batch) + m)
        real, imag = _circular_average(differenced, m)
        a = np.arctan2(imag, real) / (2.0 * np.pi)
        coeffs[..., i] = a
        a = a.reshape(batch + (1,) * len(m))
        work *= np.exp(-2j * np.pi * a * basis_on_support(lattice, m))
    return PolyPhaseModel(shape=lattice, degrees=rows, coeffs=coeffs)


def reconstruct(model: PolyPhaseModel) -> np.ndarray:
    """Unit-modulus lattice signal of a fitted model over its full shape.

    Indices that were never observed (sublattice fits) are filled by the
    polynomial itself, which is an exact extrapolation for noiseless
    polynomial truth.
    """
    return approx_channel(model)


def expand_to_lattice(model: PolyPhaseModel, coords, full_shape,
                      degrees=None) -> PolyPhaseModel:
    """Re-express a sublattice fit in the coordinates of the full lattice.

    ``coords`` gives, per axis, the full-lattice index of each sublattice
    sample; ``degrees`` selects the target basis (the model's own degrees by
    default). The fitted polynomial is evaluated on a determining subgrid
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
    rows = model.degrees if degrees is None else _degree_rows(degrees)
    m_max = np.maximum(rows.max(axis=0), model.degrees.max(axis=0))
    if np.any(m_max + 1 > np.asarray(model.shape)):
        raise ValueError("sublattice too small to determine the full-lattice basis")
    corner = tuple(slice(int(k) + 1) for k in m_max)
    grid = tuple(c[s] for c, s in zip(coords, corner))
    return fit_on_grid(grid, model.phase_cycles()[corner], full_shape, rows)
