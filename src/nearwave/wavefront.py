"""Polynomial wavefront models: series expansion of the spherical wavefront,
degree sets, the shared falling-factorial phase basis, and mismatch bounds.

Phase polynomials are stored in cycles: a channel entry is
``exp(j * 2 pi * sum_m a_m * p_m(n))`` where ``p_m(n)`` is a product of
binomial coefficients ``C(n_d, m_d)`` over the tensor axes. This basis makes
the order-m forward difference of ``p_m`` exactly one, which the sequential
estimator relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .geometry import ArraySpec, GeometryPose, frequency_factors, pair_offsets, unit_phasor


def binomial(n, k: int):
    """Generalized binomial coefficient n(n-1)...(n-k+1) / k! for integer k.

    Returns 0 for k < 0. ``n`` may be any integer (including negative) or an
    integer array; the result is float.
    """
    if k < 0:
        return np.zeros_like(np.asarray(n, dtype=float)) if np.ndim(n) else 0.0
    n = np.asarray(n, dtype=float)
    out = np.ones_like(n)
    for i in range(k):
        out = out * (n - i)
    out = out / math.factorial(k)
    return out if out.ndim else float(out)


def legendre(ell: int, x):
    """Legendre polynomial P_ell(x) via the three-term recurrence from P_-1 = 0, P_0 = 1."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    x = np.asarray(x, dtype=float)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    for k in range(1, ell + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p if p.ndim else float(p)


def sqrt_series_coeff(ell: int, x):
    """Coefficient of (-t)^ell in the expansion of sqrt(1 + 2 x t + t^2).

    Equals (P_{ell-2}(x) - P_ell(x)) / (2 ell - 1); defined for ell >= 2
    (the degree-0 and degree-1 coefficients are 1 and x).
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return (legendre(ell - 2, x) - legendre(ell, x)) / (2 * ell - 1)


def range_factor(r_hat, delta):
    """Exact normalized range ||r_hat + delta||; ``delta`` may be batched (..., 3)."""
    r_hat = np.asarray(r_hat, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return np.linalg.norm(r_hat + delta, axis=-1)


def range_factor_taylor(order: int, r_hat, delta):
    """Degree-``order`` truncation of ||r_hat + delta|| around delta = 0.

    Each retained term of degree ell is a polynomial of total degree ell in
    the components of ``delta``. ``delta`` may be batched with shape (..., 3).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    r_hat = np.asarray(r_hat, dtype=float)
    delta = np.asarray(delta, dtype=float)
    t, x = _series_variables(r_hat, delta)
    total = np.ones_like(t)
    if order >= 1:
        total = total + delta @ r_hat
    for ell in range(2, order + 1):
        total = total + sqrt_series_coeff(ell, x) * (-t) ** ell
    return total if total.ndim else float(total)


def _series_variables(r_hat: np.ndarray, delta: np.ndarray):
    """(t, x) of the series in (-t): t = ||delta|| and x = r_hat . delta / t, 0 where t = 0."""
    t = np.linalg.norm(delta, axis=-1)
    safe_t = np.where(t > 0.0, t, 1.0)
    return t, np.where(t > 0.0, (delta @ r_hat) / safe_t, 0.0)


def normalized_offsets(spec: ArraySpec, pose: GeometryPose) -> np.ndarray:
    """Center-relative antenna offsets ((rx - r) - tx) / D, shape (nrx, nry, ntx, nty, 3).

    Each component is affine in each antenna index.
    """
    return pair_offsets(spec, np.zeros((1, 3)), pose.R[None])[0] / pose.distance


def normalized_offset(spec: ArraySpec, pose: GeometryPose, n_t, n_r) -> np.ndarray:
    """Offset vector for a single antenna pair, n_t = (ntx, nty), n_r = (nrx, nry)."""
    return normalized_offsets(spec, pose)[n_r[0], n_r[1], n_t[0], n_t[1]]


# ---------------------------------------------------------------------------
# Degree sets and the shared polynomial basis
# ---------------------------------------------------------------------------


def _checked_shape(max_degree: int, shape) -> tuple[int, ...]:
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    shape = tuple(int(n) for n in shape)
    if any(n < 1 for n in shape):
        raise ValueError("shape components must be >= 1")
    return shape


def term_order(m) -> tuple:
    """Key of the canonical term order, sorted descending: total degree, then lex."""
    return (sum(m), tuple(m))


def spatial_cardinality(degrees) -> int:
    """Number of distinct spatial parts (all entries but the last) of the multi-index rows."""
    return len({tuple(m[:-1]) for m in np.asarray(degrees).tolist()})


def degree_set_for_shape(max_degree: int, shape) -> np.ndarray:
    """Multi-index rows, shape (T, len(shape)), of the total-degree set of a lattice.

    Rows are ordered descending by total degree with lexicographically
    descending tie-break (``term_order``). Spatial axes are all leading
    axes; the last axis is the frequency axis and carries degree at most 1;
    singleton axes carry 0. Every non-singleton spatial axis must have at
    least ``max_degree + 1`` samples, otherwise the basis would be
    overloaded and a ValueError is raised. The set is then the rows of
    ``product_degree_set`` whose spatial degrees sum to at most ``max_degree``.
    """
    shape = _checked_shape(max_degree, shape)
    for axis, n in enumerate(shape[:-1]):
        if n > 1 and n < max_degree + 1:
            raise ValueError(
                f"axis {axis} has {n} samples, fewer than max_degree+1={max_degree + 1}"
            )
    degrees = product_degree_set(max_degree, shape)
    return degrees[degrees[:, :-1].sum(axis=1) <= max_degree]


def build_degree_set(max_degree: int, spec: ArraySpec) -> np.ndarray:
    """Degree set for the channel tensor of ``spec``; see degree_set_for_shape."""
    return degree_set_for_shape(max_degree, spec.shape)


def product_degree_set(max_degree: int, shape) -> np.ndarray:
    """Per-axis product degree set, without the total-degree coupling.

    Spatial axes carry every degree up to min(max_degree, N_d - 1) in every
    combination; the frequency axis carries {0, 1} when sampled more than
    once. Unevenly subsampled grids need this richer basis: restricting a
    total-degree polynomial to such a grid leaves the total-degree family,
    but any function of L + 1 points per axis is a product polynomial.
    """
    shape = _checked_shape(max_degree, shape)
    caps = [min(max_degree, n - 1) for n in shape[:-1]] + [min(1, shape[-1] - 1)]
    # lexicographically descending rows, grouped by descending total degree: ``term_order``
    rows = np.indices([c + 1 for c in caps]).reshape(len(caps), -1).T[::-1]
    total = rows.sum(axis=1)
    return np.concatenate([rows[total == t] for t in range(total[0], -1, -1)])


def basis_at(coords, m) -> np.ndarray:
    """Evaluate the basis polynomial p_m on a product grid of integer coordinates.

    ``coords`` is one integer array per axis; the result has shape
    ``(len(coords[0]), ..., len(coords[-1]))`` and equals the outer product
    of per-axis binomial coefficients C(coord, m_d).
    """
    factors = [binomial(np.asarray(c, dtype=int), int(k)) for c, k in zip(coords, m)]
    return reduce(np.multiply.outer, factors)


def basis_on_lattice(shape, m) -> np.ndarray:
    """Basis polynomial p_m evaluated on the full lattice [0, N) per axis."""
    return basis_at(tuple(np.arange(n) for n in shape), m)


@lru_cache(maxsize=512)
def basis_on_support(shape: tuple[int, ...], m: tuple[int, ...]) -> np.ndarray:
    """Read-only, cached p_m on ``shape``, of extent 1 (factor 1.0) where m_d = 0, to broadcast."""
    out = basis_at(tuple(np.arange(n if k else 1) for n, k in zip(shape, m)), m)
    out.flags.writeable = False
    return out


def degree_rows(degrees, shape) -> np.ndarray:
    """``degrees`` as 2-D int multi-index rows over the trailing axes of ``shape``, checked."""
    try:
        rows = np.asarray(degrees, dtype=int)
    except (TypeError, ValueError):  # None, ragged rows, entries that are not numbers
        rows = np.empty(0, dtype=int)
    if rows.ndim != 2:
        raise ValueError("degrees must be a 2-D array of multi-index rows")
    if rows.shape[1] > len(shape):
        raise ValueError(f"degree multi-indices have {rows.shape[1]} axes, "
                         f"more than the {len(shape)} available")
    if np.any(rows < 0) or np.any(rows >= np.asarray(shape[len(shape) - rows.shape[1]:])):
        raise ValueError("every degree must satisfy 0 <= m_d < N_d")
    if len(set(map(tuple, rows.tolist()))) != len(rows):
        raise ValueError("degree multi-indices must not repeat: each row names one term")
    return rows


@dataclass(frozen=True)
class PolyPhaseModel:
    """Polynomial phase model: distinct degree rows and real coefficients in cycles.

    The modeled tensor is ``exp(j * 2 pi * phase_cycles())`` over ``shape``.
    ``coeffs`` has shape ``batch + (terms,)``: leading axes, if any, index
    independent models on the same lattice and degrees.
    """

    shape: tuple[int, ...]
    degrees: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        degrees = np.asarray(self.degrees, dtype=int)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim < 1 or degrees.shape[0] != coeffs.shape[-1]:
            raise ValueError("coeffs must end in one axis of one entry per degree row")
        if degrees.ndim != 2 or degrees.shape[1] != len(self.shape):
            raise ValueError("degree multi-indices must match the lattice rank")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "degrees", degree_rows(degrees, self.shape))
        object.__setattr__(self, "coeffs", coeffs)

    def _unbatched(self, what: str) -> None:
        if self.coeffs.ndim != 1:
            raise ValueError(f"{what} needs a single model; this one has batch shape "
                             f"{self.coeffs.shape[:-1]}, so index its coeffs first")

    def coefficient(self, m) -> float:
        """Coefficient of the term with multi-index ``m`` (0 if absent)."""
        self._unbatched("coefficient")
        return self.as_dict().get(tuple(int(v) for v in m), 0.0)

    def as_dict(self) -> dict[tuple[int, ...], float]:
        self._unbatched("as_dict")
        return {tuple(row): float(a) for row, a in zip(self.degrees, self.coeffs)}

    def phase_cycles(self) -> np.ndarray:
        """Phase polynomial in cycles, shape ``batch + shape``, evaluated one axis at a time.

        The coefficients fill a dense tensor of extent max m_d + 1 per axis. From the last
        axis on, each axis expands to the lattice as sum_k C(n_d, k) times its slice k, in
        elementwise multiply-adds (not BLAS, so a batch gets the bits of a loop).
        """
        batch = self.coeffs.shape[:-1]
        out = np.zeros(batch + tuple(self.degrees.max(axis=0, initial=0) + 1))
        out[(...,) + tuple(self.degrees.T)] = self.coeffs
        for axis in reversed(range(len(self.shape))):  # the largest expansion runs along axis 0
            at, n = len(batch) + axis, self.shape[axis]
            if out.shape[at] == 1:
                continue  # every m_d is 0, as on any singleton axis: broadcast below
            head, trailing = (slice(None),) * at, (1,) * (len(self.shape) - axis - 1)
            parts = [out[head + (slice(k, k + 1),)] for k in range(out.shape[at])]
            rows = [basis_on_support((n,), (k,)).reshape((n,) + trailing)
                    for k in range(1, len(parts))]
            out = parts[1] * rows[0]
            out += parts[0]  # C(n, 0) = 1
            if len(parts) > 2:
                term = np.empty_like(out)
                for part, row in zip(parts[2:], rows[1:]):
                    out += np.multiply(part, row, out=term)
        if out.shape != batch + self.shape:
            out = np.broadcast_to(out, batch + self.shape).copy()
        return out


def approx_channel(model: PolyPhaseModel) -> np.ndarray:
    """Unit-amplitude tensor exp(j * 2 pi * phase) of a polynomial phase model."""
    return unit_phasor(model.phase_cycles())


def fit_on_grid(coords, phase, shape, degrees) -> PolyPhaseModel:
    """Model over ``shape`` whose phase matches ``phase`` (cycles) on a product grid.

    ``coords`` gives, per axis, the lattice index of each grid sample. The
    coefficients of ``degrees`` come from a dense least-squares solve, which
    is exact when the grid determines those degrees and ``phase`` lies in
    their span.
    """
    B = np.stack([basis_at(coords, m).ravel() for m in degrees], axis=1)
    coeffs, *_ = np.linalg.lstsq(B, np.ravel(phase), rcond=None)
    return PolyPhaseModel(shape=shape, degrees=degrees, coeffs=coeffs)


def coefficients_from_geometry(spec: ArraySpec, pose: GeometryPose,
                               max_degree: int) -> PolyPhaseModel:
    """Ground-truth polynomial coefficients of the degree-``max_degree`` wavefront.

    Expands the phase -(D / wavelength) * g_L(offset(n)) * f_scale(n_f), in
    cycles, into the shared basis by an exact dense solve on the minimal
    index subgrid that determines the polynomial.
    """
    degrees = build_degree_set(max_degree, spec)
    coords = tuple(np.arange(int(k) + 1) for k in degrees.max(axis=0))
    delta = normalized_offsets(spec, pose)[np.ix_(*coords[:4])]
    g = range_factor_taylor(max_degree, pose.direction, delta)
    scale = frequency_factors(spec)[coords[4]]
    cycles = (-pose.distance / spec.wavelength) * g[..., None] * scale
    return fit_on_grid(coords, cycles, spec.shape, degrees)


# ---------------------------------------------------------------------------
# Mismatch bounds
# ---------------------------------------------------------------------------

_BOUND_SCALE = {
    1: math.pi,
    2: 2.0 * math.pi / (3.0 * math.sqrt(3.0)),
    3: math.pi / 4.0,
}


def truncation_bound(order: int, distance: float, wavelength: float,
                     delta_norm) -> float:
    """Worst-case phase error (radians) of the dominant truncated term.

    Supported truncation orders are 1, 2, and 3, giving
    pi * D ||d||^2 / wl, 2 pi / (3 sqrt 3) * D ||d||^3 / wl, and
    pi / 4 * D ||d||^4 / wl respectively.
    """
    if order not in _BOUND_SCALE:
        raise ValueError("order must be 1, 2, or 3")
    delta_norm = np.asarray(delta_norm, dtype=float)
    out = _BOUND_SCALE[order] * (distance / wavelength) * delta_norm ** (order + 1)
    return out if out.ndim else float(out)


def truncation_dominant_term(order: int, distance: float, wavelength: float,
                             r_hat, delta):
    """Exact magnitude (radians) of the lowest-degree truncated phase term.

    It is 2 pi D / wl * |sqrt_series_coeff(order + 1, x)| * t^(order + 1),
    with t = ||delta|| and x = r_hat . delta / t. This is the quantity that
    truncation_bound dominates; equality holds at x = 0 for orders 1 and 3
    and at x = +-1/sqrt(3) for order 2.
    """
    if order not in _BOUND_SCALE:
        raise ValueError("order must be 1, 2, or 3")
    t, x = _series_variables(np.asarray(r_hat, dtype=float), np.asarray(delta, dtype=float))
    lead = 2.0 * np.pi * distance / wavelength
    out = lead * np.abs(sqrt_series_coeff(order + 1, x)) * t ** (order + 1)
    return out if out.ndim else float(out)


def fraunhofer_distance(tx_aperture: float, rx_aperture: float,
                        wavelength: float) -> float:
    """Conventional near/far-field boundary 2 (L_t + L_r)^2 / wavelength."""
    if not (tx_aperture >= 0 and rx_aperture >= 0 and wavelength > 0):  # NaN fails too
        raise ValueError("apertures must be >= 0 and wavelength > 0")
    return 2.0 * (tx_aperture + rx_aperture) ** 2 / wavelength
