"""Full-disc experiments in two dimensions.

The radial machinery reduces everything to one dimension; this module
keeps one genuinely two-dimensional instance around so the reduction
itself can be checked.  A ``DiscField`` is a scalar function sampled on
a square grid covering the disc; the operations extract ray profiles,
compare the averaged ray energy against the full planar energy, and
measure how far a gradient field is from pointing radially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .potentials import ProblemSpec
from .radial_solver import (RadialGrid, RadialProfile, _off_radius,
                            _reduced_energy, ensure_envelope)

__all__ = [
    "DiscField",
    "RayAverageReport",
    "energy_2d",
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
_RIM_CHUNK = 128  # rim cells per subsampling lattice

# Rows per block of the planar kernels, which hold block-sized
# temporaries only (BENCH_disc_stream.json)
_BLOCK_ROWS = 32

# Rays per block of the ray kernels, which sample and price a block of
# rays at a time (BENCH_peak_memory.json)
_BLOCK_RAYS = 16


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

    def __post_init__(self):
        if self.n < 33 or self.n % 2 == 0:
            raise ValueError("grid size must be odd and at least 33")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be positive and finite")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n, self.n):
            raise ValueError(
                f"values shape {vals.shape} does not match n={self.n}")
        vals = vals.copy()
        vals[~self.mask] = 0.0
        object.__setattr__(self, "values", vals)

    @property
    def mask(self) -> np.ndarray:
        """Nodes strictly inside the circle, tested a block of rows at a
        time, so no n-by-n float array is built."""
        x = self.coords
        x2 = x * x
        inside = np.empty((self.n, self.n), dtype=bool)
        for a, b in _row_blocks(self.n):
            inside[a:b] = x2[a:b, None] + x2[None, :] < self.radius ** 2
        return inside

    @property
    def coords(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.n)

    @property
    def h(self) -> float:
        return 2.0 * self.radius / (self.n - 1)

    @classmethod
    def random_smooth(cls, n: int, radius: float, seed: int) -> "DiscField":
        """Seeded sum of four Gaussian bumps tapered to zero at the rim."""
        rng = np.random.default_rng(seed)
        x = np.linspace(-radius, radius, n)
        vals = np.zeros((n, n))
        for _ in range(4):
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


def _row_blocks(rows: int, size: int = _BLOCK_ROWS):
    """Bounds (a, b) of consecutive blocks of ``size`` rows; the last
    block may be short."""
    for a in range(0, rows, size):
        yield a, min(a + size, rows)


def _row_corners(arr: np.ndarray, a: int, b: int):
    """Nodal values at the four corners of the cells in rows a..b: the
    node itself, the next along x, the next along y, the opposite one."""
    return (arr[a:b, :-1], arr[a + 1:b + 1, :-1],
            arr[a:b, 1:], arr[a + 1:b + 1, 1:])


def _cell_corners(arr: np.ndarray, i: np.ndarray, j: np.ndarray):
    """The corners of ``_row_corners`` for the cells (i[k], j[k])."""
    return arr[i, j], arr[i + 1, j], arr[i, j + 1], arr[i + 1, j + 1]


def _gradient(c00, c10, c01, c11, h: float):
    """Cell-centred bilinear gradient (ux, uy) from the corner values."""
    return ((c10 - c00 + c11 - c01) / (2.0 * h),
            (c01 - c00 + c11 - c10) / (2.0 * h))


def _far2(x: np.ndarray) -> np.ndarray:
    """Per cell along one axis of nodes x, the larger squared coordinate
    of its two nodes: cell (i, j) is full, all four corners in the mask,
    exactly when ``far2[i] + far2[j] < radius ** 2``.

    The mask compares x^2 + y^2 at each node, and rounded sums are
    monotone, so the largest of a cell's four corner sums is the sum of
    its per-axis maxima, bit for bit.
    """
    x2 = x * x
    return np.maximum(x2[:-1], x2[1:])


def _cell_centres(fld: DiscField) -> np.ndarray:
    """Cell-centre coordinates along one axis (the same on both)."""
    x = fld.coords
    return 0.5 * (x[:-1] + x[1:])


def _rim(fld: DiscField):
    """The rim cells in row-major order, as index arrays (i, j), and the
    fraction of each inside the disc.

    A cell is in the rim when it is not full (``far2[i] + far2[j] >=
    radius ** 2``) and the point of its box nearest the origin lies
    inside the disc.  The fraction counts the subcell centres of a
    16x16 lattice that lie inside; the count of 0/1 values is exact, so
    it has the bits of their float mean.
    """
    x = fld.coords
    R = fld.radius
    far2 = _far2(x)
    # nearest point of the cell box to the origin, per axis
    near = np.clip(0.0, x[:-1], x[1:])
    near2 = near * near
    rows, cols = [], []
    for a, b in _row_blocks(len(far2)):
        rim = ((far2[a:b, None] + far2[None, :] >= R ** 2)
               & (np.sqrt(near2[a:b, None] + near2[None, :]) < R))
        ii, jj = np.nonzero(rim)
        rows.append(ii + a)
        cols.append(jj)
    i, j = np.concatenate(rows), np.concatenate(cols)
    frac = np.empty(len(i))
    off = (np.arange(_SUBCELL) + 0.5) / _SUBCELL * fld.h
    for s in range(0, len(i), _RIM_CHUNK):
        sx = x[i[s:s + _RIM_CHUNK], None, None] + off[None, :, None]
        sy = x[j[s:s + _RIM_CHUNK], None, None] + off[None, None, :]
        frac[s:s + _RIM_CHUNK] = np.count_nonzero(
            sx * sx + sy * sy < R * R, axis=(1, 2)) / _SUBCELL ** 2
    return i, j, frac


def _cell_area_weights(fld: DiscField, rim, a: int = 0,
                       b: Optional[int] = None) -> np.ndarray:
    """Fraction of each cell inside the disc, for the cell rows a..b
    (all rows by default): 1 where the farthest corner is within the
    radius, the fraction of ``_rim`` on the other rim cells, 0 elsewhere.

    The farthest corner of a cell is its farthest node along each axis:
    rounded squares, sums and square roots are monotone, so the corner
    distance built from ``_far2`` is the largest of the four computed
    corner distances, bit for bit.  A full cell counts 1, since
    sqrt(R * R) == R in IEEE arithmetic.
    """
    i, j, frac = rim
    far2 = _far2(fld.coords)
    b = len(far2) if b is None else b
    lo, hi = np.searchsorted(i, (a, b))
    w = np.zeros((b - a, len(far2)))
    w[i[lo:hi] - a, j[lo:hi]] = frac[lo:hi]
    w[np.sqrt(far2[a:b, None] + far2[None, :]) <= fld.radius] = 1.0
    return w


def _donor_map(fld: DiscField, rim):
    """Rim cells that borrow the gradient of a fully-interior cell, as
    index arrays (i0, j0) of the borrowers and (ci, cj) of their donors,
    row-major in the borrowers.

    Cells cut by the circle have corners pinned to zero outside the
    disc, which flattens their bilinear patch and misprices the
    gradient term badly whenever the radial slope at the rim is
    nonzero.  Copying the gradient from the adjacent interior cell
    keeps the error at O(h) on an O(h) strip.

    Every cell of ``_rim`` walks toward the center at once, in at most
    six array steps: each step moves one cell along the axis whose
    center coordinate is larger in magnitude, and a cell stops walking
    once it stands on a full cell (its donor).  A step moves toward the
    centre, so no walk leaves the grid; a cell that finds no full cell
    in six steps keeps its own gradient and is not in the map.  Donors
    are full cells and borrowers never are, so a donor's gradient is
    its own.
    """
    far2 = _far2(fld.coords)
    R2 = fld.radius ** 2
    xc = _cell_centres(fld)
    i0, j0, _ = rim
    ci, cj = i0, j0
    walking = np.ones(len(i0), dtype=bool)
    for _ in range(6):
        walking &= far2[ci] + far2[cj] >= R2
        if not walking.any():
            break
        xi, xj = xc[ci], xc[cj]
        along_x = np.abs(xi) >= np.abs(xj)
        ci = np.where(walking & along_x, ci + np.where(xi < 0, 1, -1), ci)
        cj = np.where(walking & ~along_x, cj + np.where(xj < 0, 1, -1), cj)
    landed = far2[ci] + far2[cj] < R2
    return i0[landed], j0[landed], ci[landed], cj[landed]


def energy_2d(fld: DiscField, spec: ProblemSpec,
              use_envelope: bool = False) -> float:
    """Planar energy by midpoint quadrature over grid cells.

    The integrand is evaluated at cell centers from the bilinear
    reconstruction; cells clipped by the circle carry fractional area
    weights and borrow the gradient of their nearest interior
    neighbor.  Only two-dimensional problem descriptions are accepted.

    The cells are priced in blocks of rows into one term array, which is
    summed whole; the donors' gradients are taken straight from the
    nodes, so a donor may lie outside its borrower's block.

    Raises:
        ValueError: if spec.dimension is not 2 or the radii disagree.
    """
    if spec.dimension != 2:
        raise ValueError("planar energy requires dimension 2")
    if _off_radius(fld.radius, spec.radius):
        raise ValueError(
            f"field radius {fld.radius} does not match spec radius {spec.radius}")
    W = ensure_envelope(spec) if use_envelope else spec.W
    h = fld.h
    rim = _rim(fld)
    i0, j0, ci, cj = _donor_map(fld, rim)
    donor_norm = np.hypot(*_gradient(*_cell_corners(fld.values, ci, cj), h))
    nc = fld.n - 1
    terms = np.empty((nc, nc))
    for a, b in _row_blocks(nc):
        c = _row_corners(fld.values, a, b)
        gnorm = np.hypot(*_gradient(*c, h))
        lo, hi = np.searchsorted(i0, (a, b))
        gnorm[i0[lo:hi] - a, j0[lo:hi]] = donor_norm[lo:hi]
        wvals = W.eval(gnorm.ravel()).reshape(gnorm.shape)
        ubar = 0.25 * (c[0] + c[1] + c[2] + c[3])
        gvals = spec.G.eval(ubar.ravel()).reshape(ubar.shape)
        w = _cell_area_weights(fld, rim, a, b)
        terms[a:b] = w * h ** 2 * (wvals + gvals)
    return float(np.sum(terms))


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


def _ray_blocks(fld: DiscField, grid: RadialGrid, thetas):
    """Sample u along the rays in blocks of ``_BLOCK_RAYS``, yielding
    (a, b, u) with one row of u per theta of thetas[a:b].

    Row k holds u(r cos theta_k, r sin theta_k) by bilinear
    interpolation at the nodes r of grid; the outer value is pinned to
    zero.  cos and sin come from ``math`` one theta at a time, and each
    sample is computed on its own, so each row equals the samples of a
    single ray bit for bit, whatever the block.
    """
    r = grid.nodes
    c = np.array([math.cos(th) for th in thetas])
    s = np.array([math.sin(th) for th in thetas])
    for a, b in _row_blocks(len(c), _BLOCK_RAYS):
        u = _bilinear(fld, c[a:b, None] * r, s[a:b, None] * r)
        u[:, -1] = 0.0
        yield a, b, u


def _ray_samples(fld: DiscField, thetas):
    """The radial grid with as many cells as the field has nodes per
    side, and the samples of ``_ray_blocks`` on it as one (len(thetas),
    n + 1) array, filled block by block."""
    grid = RadialGrid.uniform(fld.radius, fld.n)
    u = np.empty((len(thetas), len(grid.nodes)))
    for a, b, block in _ray_blocks(fld, grid, thetas):
        u[a:b] = block
    return grid, u


def ray_profiles(fld: DiscField, thetas) -> list:
    """Restrict the field to the ray in each direction of thetas.

    Samples u(r cos theta, r sin theta) by bilinear interpolation on a
    uniform radial grid with as many cells as the field has nodes per
    side; the outer value is pinned to zero.
    """
    grid, u = _ray_samples(fld, thetas)
    return [RadialProfile(grid, row) for row in u]


def _ray_energies(fld: DiscField, spec: ProblemSpec, thetas) -> np.ndarray:
    """Envelope-priced reduced energy of the ray in each direction, by the
    quadrature of ``energy_reduced`` on each block of ``_ray_blocks``, so
    only one block's samples and pricing temporaries are alive at once.

    Raises:
        ValueError: if the field radius disagrees with the spec.
    """
    grid = RadialGrid.uniform(fld.radius, fld.n)
    energies = np.empty(len(thetas))
    for a, b, u in _ray_blocks(fld, grid, thetas):
        energies[a:b] = _reduced_energy(grid, u, spec, use_envelope=True)
    return energies


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
            "per_theta_energies": self.per_theta.tolist(),
        }


def averaged_ray_energy_check(fld: DiscField, spec: ProblemSpec,
                              n_thetas: int = 64) -> RayAverageReport:
    """Mean ray energy against the planar energy.

    Both sides price the gradient with the convex envelope, which is
    nondecreasing on [0, inf); with the raw nonconvex W the one-sided
    bound can fail, so the envelope is used unconditionally.  Passes
    when lhs <= rhs + tol with tol proportional to the grid spacing.

    The rays are sampled and priced in blocks of ``_BLOCK_RAYS``, with
    one envelope and one G evaluation per block; each per-ray energy
    equals ``energy_reduced`` on ``ray_profiles`` of that ray bit for
    bit.

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

    The full cells' terms are gathered in blocks of rows, in row-major
    order, into two 1-D arrays, each summed whole.
    """
    xc = _cell_centres(fld)
    far2 = _far2(fld.coords)
    blocks = list(_row_blocks(len(xc)))
    fulls = [far2[a:b, None] + far2[None, :] < fld.radius ** 2
             for a, b in blocks]
    tang = np.empty(sum(np.count_nonzero(full) for full in fulls))
    grad = np.empty_like(tang)
    k = 0
    YC = xc[None, :]
    for (a, b), full in zip(blocks, fulls):
        ux, uy = _gradient(*_row_corners(fld.values, a, b), fld.h)
        XC = xc[a:b, None]
        rc = np.sqrt(XC * XC + YC * YC)
        # cell centers sit at half-node offsets, never at the origin
        ex, ey = XC / rc, YC / rc
        radial = ux * ex + uy * ey
        tx = ux - radial * ex
        ty = uy - radial * ey
        e = k + np.count_nonzero(full)
        tang[k:e] = (tx * tx + ty * ty)[full]
        grad[k:e] = (ux * ux + uy * uy)[full]
        k = e
    tang2 = np.sum(tang)
    grad2 = np.sum(grad)
    if grad2 <= 0.0:
        return 0.0
    return float(math.sqrt(tang2 / grad2))


def angular_average(fld: DiscField, n_thetas: int = 256) -> DiscField:
    """Replace the field by its average over rays (a radial field).

    The rays are sampled block by block into one (n_thetas, n + 1)
    array, whose axis-0 sum is the average; the array is freed before
    the output field is built.
    """
    grid, rows = _ray_samples(
        fld, [2.0 * math.pi * k / n_thetas for k in range(n_thetas)])
    acc = np.sum(rows, axis=0) / n_thetas
    del rows
    x = fld.coords
    x2 = x * x
    vals = np.empty((fld.n, fld.n))
    for a, b in _row_blocks(fld.n):
        vals[a:b] = np.interp(np.sqrt(x2[a:b, None] + x2[None, :]),
                              grid.nodes, acc)
    return DiscField(fld.n, fld.radius, vals)
