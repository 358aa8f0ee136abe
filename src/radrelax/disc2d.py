"""Full-disc experiments in two dimensions.

The radial machinery reduces everything to one dimension; this module
keeps one genuinely two-dimensional instance around so the reduction
itself can be checked.  A ``DiscField`` is a scalar function sampled on
a square grid covering the disc; the operations extract ray profiles,
compare the averaged ray energy against the full planar energy, and
measure how far a gradient field is from pointing radially.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .potentials import ProblemSpec
from .radial_solver import (RadialGrid, RadialProfile, _reduced_energy,
                           ensure_envelope)

__all__ = [
    "DiscField",
    "RayAverageReport",
    "energy_2d",
    "ray_profile",
    "ray_profiles",
    "averaged_ray_energy_check",
    "colinearity_defect",
    "angular_average",
]

# Calibrated on radial fields (cones and smooth bumps, n in 65..257):
# the gap between the mean ray energy and the planar quadrature is O(h)
# with ratio |gap|/h well under 2.  Frozen with headroom.
RAY_CHECK_TOL_COEFF = 8.0

_SUBCELL = 16  # boundary-cell area weights resolve the arc at h/16


@dataclass
class DiscField:
    """Nodal scalar field on an n-by-n grid over [-R, R]^2, zero outside
    the open disc of radius R.

    ``values[i, j]`` holds u(x[i], x[j]); the first index runs along x,
    the second along y.  Nodes on or outside the circle are forced to
    zero, which encodes the Dirichlet condition.
    """

    n: int
    radius: float
    values: np.ndarray
    mask: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 33 or self.n % 2 == 0:
            raise ValueError("grid size must be odd and at least 33")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n, self.n):
            raise ValueError(
                f"values shape {vals.shape} does not match n={self.n}")
        x = self.coords
        x2 = x * x
        inside = x2[:, None] + x2[None, :] < self.radius ** 2
        vals = vals.copy()
        vals[~inside] = 0.0
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mask", inside)

    @property
    def coords(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.n)

    @property
    def h(self) -> float:
        return 2.0 * self.radius / (self.n - 1)

    @classmethod
    def zeros(cls, n: int, radius: float) -> "DiscField":
        return cls(n, radius, np.zeros((n, n)))

    @classmethod
    def from_function(cls, fn, n: int, radius: float) -> "DiscField":
        """Sample fn(x, y) at the nodes; fn must accept arrays."""
        x = np.linspace(-radius, radius, n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        return cls(n, radius, np.asarray(fn(X, Y), dtype=float))

    @classmethod
    def random_smooth(cls, n: int, radius: float, seed: int,
                      n_bumps: int = 4) -> "DiscField":
        """Seeded sum of Gaussian bumps tapered to zero at the rim."""
        rng = np.random.default_rng(seed)
        x = np.linspace(-radius, radius, n)
        vals = np.zeros((n, n))
        for _ in range(n_bumps):
            rho = 0.6 * radius * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            cx, cy = rho * math.cos(phi), rho * math.sin(phi)
            sigma = rng.uniform(0.15, 0.35) * radius
            amp = rng.uniform(-1.0, 1.0)
            dx2, dy2 = (x - cx) ** 2, (x - cy) ** 2
            vals += amp * np.exp(-(dx2[:, None] + dy2[None, :])
                                 / (2.0 * sigma * sigma))
        x2 = x * x
        taper = np.clip(1.0 - (x2[:, None] + x2[None, :]) / radius ** 2,
                        0.0, None)
        return cls(n, radius, vals * taper)

    def to_csv(self, path: str) -> None:
        """Write nodes as x,y,u rows in x-major order (atomic replace)."""
        x = self.coords
        tmp = f"{path}.tmp"
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "u"])
            for i in range(self.n):
                for j in range(self.n):
                    writer.writerow([repr(float(x[i])), repr(float(x[j])),
                                     repr(float(self.values[i, j]))])
        os.replace(tmp, path)

    @classmethod
    def from_csv(cls, path: str) -> "DiscField":
        """Read an x,y,u table written by to_csv (any row order).

        Raises:
            ValueError: naming the file, and the line where there is one,
                on a bad header, a short row, a value that is not a finite
                number, a node off the grid, or a missing node.
        """
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:3]] != ["x", "y", "u"]:
                raise ValueError(f"{path}: expected header x,y,u")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < 3:
                    raise ValueError(f"{path}: line {lineno}: need 3 columns")
                try:
                    vals = (float(row[0]), float(row[1]), float(row[2]))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                if not all(map(math.isfinite, vals)):
                    raise ValueError(
                        f"{path}: line {lineno}: x, y and u must be finite")
                rows.append(vals)
        m = len(rows)
        n = int(round(math.sqrt(m)))
        if n * n != m:
            raise ValueError(f"{path}: {m} rows is not a square grid")
        radius = max(abs(r[0]) for r in rows)
        if radius <= 0.0:
            raise ValueError(f"{path}: degenerate grid")
        x = np.linspace(-radius, radius, n)
        h = 2.0 * radius / (n - 1)
        vals = np.full((n, n), np.nan)
        for px, py, u in rows:
            i = int(round((px + radius) / h))
            j = int(round((py + radius) / h))
            if not (0 <= i < n and 0 <= j < n) or \
                    abs(x[i] - px) > 1e-9 * radius or abs(x[j] - py) > 1e-9 * radius:
                raise ValueError(f"{path}: node ({px}, {py}) off the grid")
            vals[i, j] = u
        if np.isnan(vals).any():
            raise ValueError(f"{path}: grid has missing nodes")
        return cls(n, radius, vals)


def _cell_gradients(fld: DiscField):
    """Cell-centered bilinear gradient and cell mean."""
    v = fld.values
    h = fld.h
    ux = (v[1:, :-1] - v[:-1, :-1] + v[1:, 1:] - v[:-1, 1:]) / (2.0 * h)
    uy = (v[:-1, 1:] - v[:-1, :-1] + v[1:, 1:] - v[1:, :-1]) / (2.0 * h)
    ubar = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
    return ux, uy, ubar


def _cell_centres(fld: DiscField) -> np.ndarray:
    """Cell-centre coordinates along one axis (the same on both)."""
    x = fld.coords
    return 0.5 * (x[:-1] + x[1:])


def _cell_area_weights(fld: DiscField) -> np.ndarray:
    """Fraction of each cell inside the disc.

    Cells with all four corners inside count fully; cells whose nearest
    point to the origin lies outside count zero; the ring in between is
    subsampled on a 16x16 lattice of subcell centers.

    The farthest corner of a cell is its farthest node along each axis:
    rounded squares, sums and square roots are monotone, so the corner
    distance built from the 1-D maxima of |x| is the largest of the four
    computed corner distances, bit for bit.
    """
    x = fld.coords
    R = fld.radius
    h = fld.h
    ax = np.abs(x)
    far = np.maximum(ax[:-1], ax[1:])
    # nearest point of the cell box to the origin, per axis
    near = np.clip(0.0, x[:-1], x[1:])
    far2, near2 = far * far, near * near
    corner_max = np.sqrt(far2[:, None] + far2[None, :])
    nearest = np.sqrt(near2[:, None] + near2[None, :])
    w = np.zeros_like(corner_max)
    w[corner_max <= R] = 1.0
    straddle = (corner_max > R) & (nearest < R)
    if np.any(straddle):
        ii, jj = np.nonzero(straddle)
        off = (np.arange(_SUBCELL) + 0.5) / _SUBCELL * h
        sx = x[ii][:, None, None] + off[None, :, None]
        sy = x[jj][:, None, None] + off[None, None, :]
        frac = np.mean(sx * sx + sy * sy < R * R, axis=(1, 2))
        w[ii, jj] = frac
    return w


def _donor_gradients(fld: DiscField, ux: np.ndarray, uy: np.ndarray):
    """Replace rim-cell gradients by the nearest fully-interior cell's.

    Cells cut by the circle have corners pinned to zero outside the
    disc, which flattens their bilinear patch and misprices the
    gradient term badly whenever the radial slope at the rim is
    nonzero.  Copying the gradient from the adjacent interior cell
    keeps the error at O(h) on an O(h) strip.

    Every cell that is not full walks toward the center at once, in at
    most six array steps: each step moves one cell along the axis whose
    center coordinate is larger in magnitude, and a cell stops walking
    once it stands on a full cell (its donor).  A step that would leave
    the grid sends the cell back to its origin and stops it, so it keeps
    its own gradient, as does a cell that finds no full cell in six
    steps.  Donors are full cells and targets never are, so one
    fancy-indexed copy reads no value it has already written.  Only
    cells centred within reach of a full cell walk at all.
    """
    m = fld.mask
    full = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    xc = _cell_centres(fld)
    nc = len(xc)
    # a full cell's centre lies inside the disc and a step moves a centre
    # by h, so a cell centred beyond R + 6h (one more h of margin) cannot
    # land and keeps its own gradient without walking
    reach = fld.radius + 7.0 * fld.h
    xc2 = xc * xc
    near = xc2[:, None] + xc2[None, :] <= reach * reach
    i0, j0 = np.nonzero(near & ~full)
    ci, cj = i0.copy(), j0.copy()
    walking = np.ones(len(i0), dtype=bool)
    for _ in range(6):
        walking &= ~full[ci, cj]
        if not walking.any():
            break
        xi, xj = xc[ci], xc[cj]
        along_x = np.abs(xi) >= np.abs(xj)
        ci = np.where(walking & along_x, ci + np.where(xi < 0, 1, -1), ci)
        cj = np.where(walking & ~along_x, cj + np.where(xj < 0, 1, -1), cj)
        off = (ci < 0) | (ci >= nc) | (cj < 0) | (cj >= nc)
        ci[off] = i0[off]
        cj[off] = j0[off]
        walking &= ~off
    landed = full[ci, cj]
    ux = ux.copy()
    uy = uy.copy()
    ux[i0[landed], j0[landed]] = ux[ci[landed], cj[landed]]
    uy[i0[landed], j0[landed]] = uy[ci[landed], cj[landed]]
    return ux, uy


def energy_2d(fld: DiscField, spec: ProblemSpec,
              use_envelope: bool = False) -> float:
    """Planar energy by midpoint quadrature over grid cells.

    The integrand is evaluated at cell centers from the bilinear
    reconstruction; cells clipped by the circle carry fractional area
    weights and borrow the gradient of their nearest interior
    neighbor.  Only two-dimensional problem descriptions are accepted.

    Raises:
        ValueError: if spec.dimension is not 2 or the radii disagree.
    """
    if spec.dimension != 2:
        raise ValueError("planar energy requires dimension 2")
    if abs(fld.radius - spec.radius) > 1e-12 * max(1.0, spec.radius):
        raise ValueError(
            f"field radius {fld.radius} does not match spec radius {spec.radius}")
    ux, uy, ubar = _cell_gradients(fld)
    ux, uy = _donor_gradients(fld, ux, uy)
    weights = _cell_area_weights(fld) * fld.h ** 2
    gnorm = np.hypot(ux, uy)
    if use_envelope:
        wvals = ensure_envelope(spec).eval(gnorm.ravel()).reshape(gnorm.shape)
    else:
        wvals = spec.W.eval(gnorm.ravel()).reshape(gnorm.shape)
    gvals = spec.G.eval(ubar.ravel()).reshape(ubar.shape)
    return float(np.sum(weights * (wvals + gvals)))


def _bilinear(fld: DiscField, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    h = fld.h
    R = fld.radius
    fx = np.clip((px + R) / h, 0.0, fld.n - 1 - 1e-12)
    fy = np.clip((py + R) / h, 0.0, fld.n - 1 - 1e-12)
    i = fx.astype(int)
    j = fy.astype(int)
    tx = fx - i
    ty = fy - j
    v = fld.values
    return ((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
            + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])


def _ray_samples(fld: DiscField, thetas):
    """Sample u along every ray at once, one row per theta.

    Row k holds u(r cos theta_k, r sin theta_k) by bilinear
    interpolation at the nodes r of a uniform radial grid with as many
    cells as the field has nodes per side; the outer value is pinned to
    zero.  cos and sin come from ``math`` one theta at a time, so each
    row equals the samples of a single ray bit for bit.
    """
    grid = RadialGrid.uniform(fld.radius, fld.n)
    r = grid.nodes
    c = np.array([math.cos(th) for th in thetas])
    s = np.array([math.sin(th) for th in thetas])
    u = _bilinear(fld, c[:, None] * r, s[:, None] * r)
    u[:, -1] = 0.0
    return grid, u


def ray_profiles(fld: DiscField, thetas) -> list:
    """Restrict the field to the ray in each direction of thetas."""
    grid, u = _ray_samples(fld, thetas)
    return [RadialProfile(grid, row) for row in u]


def ray_profile(fld: DiscField, theta: float) -> RadialProfile:
    """Restrict the field to the ray in direction theta.

    Samples u(r cos theta, r sin theta) by bilinear interpolation on a
    uniform radial grid with as many cells as the field has nodes per
    side; the outer value is pinned to zero.
    """
    return ray_profiles(fld, [theta])[0]


def _ray_energies(fld: DiscField, spec: ProblemSpec, thetas) -> np.ndarray:
    """Envelope-priced reduced energy of the ray in each direction, by the
    quadrature of ``energy_reduced`` over all rows at once; a separate
    function so its temporaries are freed before the caller goes on to
    the planar energy.

    Raises:
        ValueError: if the field radius disagrees with the spec.
    """
    grid, u = _ray_samples(fld, thetas)
    return _reduced_energy(grid, u, spec, use_envelope=True)


@dataclass
class RayAverageReport:
    """Mean ray energy (lhs) against the planar energy (rhs); entry k of
    ``per_theta`` is the energy of the ray at angle ``thetas[k]``."""

    lhs: float
    rhs: float
    tol: float
    passes: bool
    per_theta: np.ndarray = field(repr=False, compare=False, default=None)
    thetas: np.ndarray = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "tol": float(self.tol),
            "passes": bool(self.passes),
            "per_theta_energies": [float(e) for e in self.per_theta],
        }


def averaged_ray_energy_check(fld: DiscField, spec: ProblemSpec,
                              n_thetas: int = 64) -> RayAverageReport:
    """Mean ray energy against the planar energy.

    Both sides price the gradient with the convex envelope, which is
    nondecreasing on [0, inf); with the raw nonconvex W the one-sided
    bound can fail, so the envelope is used unconditionally.  Passes
    when lhs <= rhs + tol with tol proportional to the grid spacing.

    The rays are sampled together as one (n_thetas, n + 1) bilinear
    gather and priced with one envelope and one G evaluation; each
    per-ray energy equals ``energy_reduced`` on ``ray_profile`` of that
    ray bit for bit.

    Raises:
        ValueError: if n_thetas < 1, the radii disagree, or the spec is
            not two-dimensional.
    """
    if n_thetas < 1:
        raise ValueError("need at least one ray")
    thetas = np.arange(n_thetas) * (2.0 * math.pi / n_thetas)
    energies = _ray_energies(fld, spec, thetas)
    lhs = float(np.mean(energies))
    rhs = energy_2d(fld, spec, use_envelope=True)
    tol = RAY_CHECK_TOL_COEFF * fld.h
    return RayAverageReport(lhs, rhs, tol, lhs <= rhs + tol, energies, thetas)


def colinearity_defect(fld: DiscField) -> float:
    """Relative L2 weight of the nonradial gradient component.

    Measured over cells whose four corners all lie strictly inside the
    disc, so the value ignores the clipped rim and is unchanged by
    adding a constant to the interior nodes.  A gradient-free field has
    defect zero by convention.
    """
    ux, uy, _ = _cell_gradients(fld)
    m = fld.mask
    full = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    xc = _cell_centres(fld)
    XC, YC = xc[:, None], xc[None, :]
    rc = np.sqrt(XC * XC + YC * YC)
    # cell centers sit at half-node offsets, never at the origin
    ex, ey = XC / rc, YC / rc
    radial = ux * ex + uy * ey
    tx = ux - radial * ex
    ty = uy - radial * ey
    tang2 = np.sum((tx * tx + ty * ty)[full])
    grad2 = np.sum((ux * ux + uy * uy)[full])
    if grad2 <= 0.0:
        return 0.0
    return float(math.sqrt(tang2 / grad2))


def angular_average(fld: DiscField, n_thetas: int = 256) -> DiscField:
    """Replace the field by its average over rays (a radial field)."""
    grid, rows = _ray_samples(
        fld, [2.0 * math.pi * k / n_thetas for k in range(n_thetas)])
    acc = np.sum(rows, axis=0) / n_thetas
    x = fld.coords
    X, Y = np.meshgrid(x, x, indexing="ij")
    rad = np.sqrt(X * X + Y * Y)
    vals = np.interp(rad.ravel(), grid.nodes, acc).reshape(rad.shape)
    return DiscField(fld.n, fld.radius, vals)
