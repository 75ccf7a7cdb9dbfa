"""Array geometry, rigid poses, and exact near-field LOS channel synthesis.

Conventions:
    * The transmit array lies in the xy-plane with its center at the origin.
      The receive array is placed by a rigid pose (translation ``r``,
      rotation ``R``) applied to a centered local grid.
    * Channel tensors are complex arrays with axes ordered
      (n_rx, n_ry, n_tx, n_ty, n_f).
    * All lengths are in meters, all angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition

_TOPOLOGY_PARAMS = {
    ("linear", "single"): 2,
    ("planar", "single"): 3,
    ("linear", "linear"): 4,
    ("planar", "linear"): 5,
    ("planar", "planar"): 6,
}


@dataclass(frozen=True)
class ArraySpec:
    """Dimensions and spacings of the two arrays plus the frequency grid.

    Attributes:
        ntx, nty: transmit antenna counts along the array's x and y axes.
        nrx, nry: receive antenna counts along the array's x and y axes.
        dtx, dty, drx, dry: finite antenna spacings in meters, > 0 except
            that a singleton dimension's may be 0.
        nf: number of equispaced frequencies.
        df: dimensionless fractional frequency step, finite and >= 0.
        fc: carrier frequency in Hz, finite and > 0.
    """

    ntx: int = 1
    nty: int = 1
    nrx: int = 1
    nry: int = 1
    dtx: float = 0.0
    dty: float = 0.0
    drx: float = 0.0
    dry: float = 0.0
    nf: int = 1
    df: float = 0.0
    fc: float = 30e9

    def __post_init__(self):
        for name in ("ntx", "nty", "nrx", "nry", "nf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # written so that NaN fails each comparison
        for count, spacing in ((self.ntx, self.dtx), (self.nty, self.dty),
                               (self.nrx, self.drx), (self.nry, self.dry)):
            if not (0.0 < spacing < math.inf or count == 1 and spacing == 0.0):
                raise ValueError("spacing must be finite and > 0 for a non-singleton "
                                 "dimension, and finite and >= 0 for a singleton")
        if not 0.0 <= self.df < math.inf:
            raise ValueError("df must be finite and >= 0")
        if not 0.0 < self.fc < math.inf:
            raise ValueError("fc must be finite and > 0")

    @classmethod
    def half_wavelength(cls, ntx=1, nty=1, nrx=1, nry=1, nf=1, df=0.0, fc=30e9):
        """Spec with half-wavelength spacings at the carrier on every axis."""
        if not 0.0 < fc < math.inf:
            raise ValueError("fc must be finite and > 0")
        d = SPEED_OF_LIGHT / fc / 2.0
        return cls(ntx=ntx, nty=nty, nrx=nrx, nry=nry,
                   dtx=d, dty=d, drx=d, dry=d, nf=nf, df=df, fc=fc)

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in meters."""
        return SPEED_OF_LIGHT / self.fc

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        """Channel tensor shape (nrx, nry, ntx, nty, nf)."""
        return (self.nrx, self.nry, self.ntx, self.nty, self.nf)

    @property
    def size(self) -> int:
        """Total number of tensor entries."""
        return self.nrx * self.nry * self.ntx * self.nty * self.nf

    @property
    def tx_aperture(self) -> float:
        """Largest transmit-array dimension (diagonal for a planar array)."""
        return math.hypot((self.ntx - 1) * self.dtx, (self.nty - 1) * self.dty)

    @property
    def rx_aperture(self) -> float:
        """Largest receive-array dimension (diagonal for a planar array)."""
        return math.hypot((self.nrx - 1) * self.drx, (self.nry - 1) * self.dry)

    @property
    def tx_topology(self) -> str:
        return _topology(self.ntx, self.nty)

    @property
    def rx_topology(self) -> str:
        return _topology(self.nrx, self.nry)


def _topology(nx: int, ny: int) -> str:
    if nx == 1 and ny == 1:
        return "single"
    if nx == 1 or ny == 1:
        return "linear"
    return "planar"


def geometric_parameter_count(tx_topology: str, rx_topology: str) -> int:
    """Minimal number of geometric parameters for a pair of array topologies.

    Accepts the five supported pairs in either order, e.g.
    ``("linear", "single") -> 2`` and ``("planar", "planar") -> 6``.
    """
    for key in ((tx_topology, rx_topology), (rx_topology, tx_topology)):
        if key in _TOPOLOGY_PARAMS:
            return _TOPOLOGY_PARAMS[key]
    raise ValueError(f"unsupported topology pair: ({tx_topology}, {rx_topology})")


@dataclass(frozen=True)
class GeometryPose:
    """Rigid placement of the receive array: translation ``r`` and rotation ``R``.

    Every entry of R^T R - I, and det R - 1, must be within 1e-12, checked in Python floats
    (whose rounding can move a verdict only within about 1e-16 of that bound), and ``r``
    of length about 1e-161 to 1e154 m, so that its square is nonzero and finite.
    """

    r: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float).reshape(3)
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        ((a, b, c), (d, e, f), (g, h, i)), (x, y, z) = R.tolist(), r.tolist()
        # the upper triangle of the symmetric R^T R - I; NaN and infinity fail each comparison
        gram = (a * a + d * d + g * g - 1.0, a * b + d * e + g * h, a * c + d * f + g * i,
                b * b + e * e + h * h - 1.0, b * c + e * f + h * i, c * c + f * f + i * i - 1.0)
        if not all(abs(entry) <= 1e-12 for entry in gram):
            raise ValueError("R is not a finite orthonormal matrix")
        if not abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) <= 1e-12:
            raise ValueError("R must have determinant +1")
        if not 0.0 < x * x + y * y + z * z < math.inf:
            raise ValueError("translation must be nonzero and finite, and so its squared length")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "R", R)

    @classmethod
    def from_euler(cls, r, phi_x=0.0, phi_y=0.0, phi_z=0.0) -> "GeometryPose":
        return cls(r=np.asarray(r, dtype=float), R=rotation_from_euler(phi_x, phi_y, phi_z))

    @property
    def distance(self) -> float:
        """Distance between array centers, ||r||."""
        return float(np.linalg.norm(self.r))

    @property
    def direction(self) -> np.ndarray:
        """Unit vector r / ||r||."""
        return self.r / self.distance


def skew(omega) -> np.ndarray:
    """Skew-symmetric 3x3 matrix such that skew(w) @ v == cross(w, v); batches (..., 3)."""
    w = np.asarray(omega, dtype=float)
    K = np.zeros(w.shape[:-1] + (3, 3))
    K[..., 0, 1], K[..., 0, 2] = -w[..., 2], w[..., 1]
    K[..., 1, 0], K[..., 1, 2] = w[..., 2], -w[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -w[..., 1], w[..., 0]
    return K


def rotation_from_tangent(omega) -> np.ndarray:
    """Rotation expm(skew(omega)) via the Rodrigues closed form, exact for 3x3 skew matrices."""
    return rotation_from_tangent_batch(np.asarray(omega, dtype=float).reshape(1, 3))[0]


def _rodrigues_terms(w: np.ndarray):
    """skew(w), its square and the coefficients (sin t / t, (1 - cos t) / t^2, (t - sin t) / t^3).

    ``w`` has shape (S, 3) and t = ||w||. Below t = 1e-9 the coefficients take
    their limits 1, 1/2 and 1/6; each one's error there, O(t^2), is below
    double rounding. The second is taken in half-angle form, which keeps its
    precision as t shrinks; the third loses it, but only multiplies K^2.
    """
    theta = np.linalg.norm(w, axis=1)
    K = skew(w)
    small = theta < 1e-9
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, 0.5 * (np.sin(t / 2.0) / (t / 2.0)) ** 2)
    c = np.where(small, 1.0 / 6.0, (1.0 - a) / t**2)
    return K, K @ K, a[:, None, None], b[:, None, None], c[:, None, None]


def rotation_from_tangent_batch(omega: np.ndarray) -> np.ndarray:
    """Rodrigues map applied to a batch of tangent vectors, shape (S, 3) -> (S, 3, 3)."""
    K, K2, a, b, _ = _rodrigues_terms(np.asarray(omega, dtype=float))
    return np.eye(3)[None] + a * K + b * K2


def rotation_from_euler(phi_x: float, phi_y: float, phi_z: float) -> np.ndarray:
    """Rotation composed as Rz(phi_z) @ Ry(phi_y) @ Rx(phi_x), each factor expm(skew(phi e_i))."""
    if not np.all(np.isfinite((phi_x, phi_y, phi_z))):
        raise ValueError("non-finite Euler angle: R is not a finite orthonormal matrix")
    Rx, Ry, Rz = rotation_from_tangent_batch(np.diag([phi_x, phi_y, phi_z]))
    return Rz @ Ry @ Rx


def rotation_jacobian_batch(omega: np.ndarray) -> np.ndarray:
    """Derivatives of the Rodrigues map, shape (S, 3) -> (S, 3, 3, 3).

    Entry [s, i] is d expm(skew(w)) / d w_i at w = omega[s]. It is
    skew(J e_i) @ expm(skew(w)) with J = I + b K + c K^2 the left Jacobian
    of the rotation group, the compact formula of G. Gallego and A. Yezzi
    (J. Math. Imaging Vis., 2015) with (I - R) e_i expanded in K. At
    w = 0 it is exactly skew(e_i).
    """
    K, K2, a, b, c = _rodrigues_terms(np.asarray(omega, dtype=float))
    J = np.eye(3)[None] + b * K + c * K2
    # skew of each column of J: [s, i] = skew(J[s, :, i])
    return skew(np.swapaxes(J, 1, 2)) @ (np.eye(3)[None] + a * K + b * K2)[:, None]


def rotation_log(R: np.ndarray) -> np.ndarray:
    """Tangent vector omega with rotation_from_tangent(omega) == R, ||omega|| <= pi."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = math.acos(cos_theta)
    axis_raw = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < 1e-7:
        return 0.5 * axis_raw
    if theta > math.pi - 1e-5:
        # near pi the antisymmetric part vanishes; recover the axis from R + I
        M = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(M), 0.0, None))
        k = int(np.argmax(axis))
        for j in range(3):
            if j != k and M[k, j] < 0.0:
                axis[j] = -axis[j]
        axis /= np.linalg.norm(axis)
        # disambiguate the overall sign with the antisymmetric remainder
        if axis @ axis_raw < 0.0:
            axis = -axis
        return theta * axis
    return (theta / (2.0 * math.sin(theta))) * axis_raw


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation from a normalized 4-component Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q.tolist()
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def sample_pose(rng: np.random.Generator, rmin: float = 5.0, rmax: float = 15.0,
                measure: str = "volume") -> GeometryPose:
    """Random pose: ``r`` uniform over the shell rmin <= ||r|| <= rmax, ``R`` Haar.

    ``measure`` selects the radial law: "volume" draws uniformly over the
    shell volume (inverse CDF on the cubed radius), "radius" draws the
    radius uniformly on [rmin, rmax]. Under either, rmax**3 must be finite.
    """
    if not 0.0 < rmin < rmax < math.inf:
        raise ValueError("need 0 < rmin < rmax < inf")
    try:
        cubes = rmin**3, rmax**3
    except OverflowError:
        raise ValueError("need rmax**3 < inf") from None
    if measure == "volume":
        radius = rng.uniform(*cubes) ** (1.0 / 3.0)
    elif measure == "radius":
        radius = rng.uniform(rmin, rmax)
    else:
        raise ValueError(f"unknown shell measure: {measure!r}")
    direction = rng.normal(size=3)
    while (norm := np.linalg.norm(direction)) < 1e-12:
        direction = rng.normal(size=3)
    return GeometryPose(r=radius * direction / norm, R=random_rotation(rng))


def _local_grid(nx: int, ny: int, dx: float, dy: float) -> np.ndarray:
    """Centered nx-by-ny grid in the xy-plane, shape (nx, ny, 3)."""
    pos = np.zeros((nx, ny, 3))
    pos[:, :, 0] = (dx * (np.arange(nx) - (nx - 1) / 2.0))[:, None]
    pos[:, :, 1] = (dy * (np.arange(ny) - (ny - 1) / 2.0))[None, :]
    return pos


def tx_positions(spec: ArraySpec) -> np.ndarray:
    """Transmit antenna positions, shape (ntx, nty, 3); grid centered at the origin."""
    return _local_grid(spec.ntx, spec.nty, spec.dtx, spec.dty)


def rx_local_grid(spec: ArraySpec) -> np.ndarray:
    """Receive antenna positions in the receive array's own frame, shape (nrx, nry, 3)."""
    return _local_grid(spec.nrx, spec.nry, spec.drx, spec.dry)


def rx_positions(spec: ArraySpec, r: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Receive antenna positions r + R @ local of a pose batch, shape (S, nrx, nry, 3)."""
    r = np.asarray(r, dtype=float)
    return r[:, None, None, :] + np.einsum("sij,xyj->sxyi", R, rx_local_grid(spec))


def antenna_positions(spec: ArraySpec, pose: GeometryPose):
    """Positions of both arrays: (tx (ntx, nty, 3), rx (nrx, nry, 3))."""
    return tx_positions(spec), rx_positions(spec, pose.r[None], pose.R[None])[0]


def antenna_positions_alt(spec: ArraySpec, distance: float, tx_angles, rx_angles):
    """Alternative placement: both arrays rotated, receive center on the z-axis.

    The transmit grid is rotated by Euler angles ``tx_angles`` about the
    origin; the receive grid is rotated by ``rx_angles`` and centered at
    (0, 0, distance). Redundant angles may be zeroed by the caller.
    """
    if distance <= 0.0:
        raise ValueError("distance must be > 0")
    Rt = rotation_from_euler(*tx_angles)
    tx = np.einsum("ij,xyj->xyi", Rt, tx_positions(spec))
    pose = GeometryPose.from_euler([0.0, 0.0, distance], *rx_angles)
    return tx, rx_positions(spec, pose.r[None], pose.R[None])[0]


def pair_offsets(spec: ArraySpec, r: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Receive-minus-transmit antenna offsets for a batch of poses.

    ``r`` has shape (S, 3) and ``R`` shape (S, 3, 3); the result has shape
    (S, nrx, nry, ntx, nty, 3). Rotations are not validated.
    """
    return rx_positions(spec, r, R)[:, :, :, None, None, :] - tx_positions(spec)


def pair_distances(offsets: np.ndarray) -> np.ndarray:
    """Euclidean length of each offset along the last axis, shape (..., 3) -> (...)."""
    return np.linalg.norm(offsets, axis=-1)


def _distances(spec: ArraySpec, r: np.ndarray, R: np.ndarray, out=None, scratch=None):
    """Receive antenna positions (S, nrx, nry, 3) and pair distances (S, nrx, nry, ntx, nty).

    The bits of pair_distances(pair_offsets(spec, r, R)) without the offset tensor:
    each offset component in turn goes into ``scratch``, the distances into ``out``.
    """
    rx = rx_positions(spec, r, R)
    tx = tx_positions(spec)
    out = np.empty(rx.shape[:3] + tx.shape[:2]) if out is None else out
    scratch = np.empty_like(out) if scratch is None else scratch
    np.square(np.subtract(rx[:, :, :, None, None, 0], tx[..., 0], out=out), out=out)
    for i in (1, 2):
        out += np.square(np.subtract(rx[:, :, :, None, None, i], tx[..., i], out=scratch),
                         out=scratch)
    return rx, np.sqrt(out, out=out)


def distance_tensor(spec: ArraySpec, pose: GeometryPose) -> np.ndarray:
    """Pairwise antenna distances, shape (nrx, nry, ntx, nty)."""
    return _distances(spec, pose.r[None], pose.R[None])[1][0]


def pairwise_distance(spec: ArraySpec, pose: GeometryPose, n_t, n_r) -> float:
    """Distance between transmit antenna n_t = (ntx, nty) and receive antenna n_r."""
    return float(distance_tensor(spec, pose)[n_r[0], n_r[1], n_t[0], n_t[1]])


def frequency_factors(spec: ArraySpec) -> np.ndarray:
    """Per-frequency scale factors 1 + df * (nf - (Nf - 1) / 2), shape (nf,)."""
    return 1.0 + spec.df * (np.arange(spec.nf) - (spec.nf - 1) / 2.0)


def synth(spec: ArraySpec, pose: GeometryPose, unit_amplitude: bool = False) -> np.ndarray:
    """Exact LOS channel tensor, shape (nrx, nry, ntx, nty, nf).

    Each entry is (D / D_pair) * exp(-j * 2 pi / wavelength * D_pair * f_scale)
    with D the center distance and D_pair the antenna pair distance. With
    ``unit_amplitude`` the leading amplitude factor is forced to 1.
    """
    return synth_batch(spec, pose.r[None], pose.R[None], unit_amplitude)[0]


def synth_batch(spec: ArraySpec, r: np.ndarray, R: np.ndarray,
                unit_amplitude: bool = False) -> np.ndarray:
    """Channel tensors for a batch of poses, shape (S, nrx, nry, ntx, nty, nf).

    ``r`` has shape (S, 3) and ``R`` shape (S, 3, 3). Rotations are not
    validated.
    """
    r = np.asarray(r, dtype=float)
    return synth_from_distances(spec, r, _distances(spec, r, R)[1], unit_amplitude)


def synth_from_distances(spec: ArraySpec, r: np.ndarray, dist: np.ndarray,
                         unit_amplitude: bool = False, out=None) -> np.ndarray:
    """``synth_batch`` of the poses with center distances ``r`` (S, 3) and pair distances ``dist``.

    Into ``out`` the phase (kappa d) f goes as the imaginary part, exponentiated in
    place: the bits of exp(1j * phase). A new result takes that formula, whose freed
    complex temporary spares the sweeps' later peel most of its page faults (CHANGES.md).
    """
    kappa = -2.0 * np.pi / spec.wavelength
    if out is None:
        h = np.exp(1j * (kappa * dist[..., None] * frequency_factors(spec)))
    else:
        h = out
        phase = np.multiply(kappa, dist[..., None], out=h.imag)
        phase *= frequency_factors(spec)
        h.real = 0.0
        np.exp(h, out=h)
    if not unit_amplitude:
        # a per-pose dot product, as GeometryPose.distance takes it, so the
        # amplitude uses the same D to the last bit
        center = np.sqrt(r[:, None, :] @ r[:, :, None])[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            h *= np.divide(center[:, None, None, None, None], dist)[..., None]
    return h
