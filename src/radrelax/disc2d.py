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
from functools import cached_property

import numpy as np

from .potentials import ProblemSpec
from .radial_solver import (RadialGrid, RadialProfile, _RadialCells,
                            _off_radius, ensure_envelope)

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


@dataclass(eq=False)
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
        self._settle(None, copy=True)

    @classmethod
    def _on(cls, geo: "_DiscGeometry", values: np.ndarray) -> "DiscField":
        """A field on ``geo``'s grid holding ``values``, a float array built
        for it: checked and masked in place, not copied."""
        fld = cls.__new__(cls)
        fld.n, fld.radius, fld.values = geo.n, geo.radius, values
        fld._settle(geo, copy=False)
        return fld

    def _settle(self, geo, copy: bool):
        # check the grid and the values' shape, then keep the values (a
        # copy when the caller may still hold them) with the nodes outside
        # the disc zeroed
        if self.n < 33 or self.n % 2 == 0:
            raise ValueError("grid size must be odd and at least 33")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be positive and finite")
        vals = (np.array if copy else np.asarray)(self.values, dtype=float)
        if vals.shape != (self.n, self.n):
            raise ValueError(
                f"values shape {vals.shape} does not match n={self.n}")
        if geo is None:
            geo = _DiscGeometry(self.n, self.radius)
        vals[~geo.mask] = 0.0
        self.values = vals

    @property
    def mask(self) -> np.ndarray:
        """Nodes strictly inside the circle."""
        return _DiscGeometry(self.n, self.radius).mask

    @property
    def coords(self) -> np.ndarray:
        return _DiscGeometry(self.n, self.radius).x

    @property
    def h(self) -> float:
        return _DiscGeometry(self.n, self.radius).h

    @classmethod
    def random_smooth(cls, n: int, radius: float, seed: int) -> "DiscField":
        """Seeded sum of four Gaussian bumps tapered to zero at the rim."""
        rng = np.random.default_rng(seed)
        geo = _DiscGeometry(n, radius)
        x = geo.x
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
        vals *= geo._outer(
            geo.x2, lambda s: np.clip(1.0 - s / radius ** 2, 0.0, None), float)
        return cls._on(geo, vals)


def _row_blocks(rows: int, size: int = _BLOCK_ROWS):
    """Bounds (a, b) of consecutive blocks of ``size`` rows; the last
    block may be short."""
    for a in range(0, rows, size):
        yield a, min(a + size, rows)


def _cell_corners(arr: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Nodal values at the four corners of the cells (i[k], j[k]): the
    node itself, the next along x, the next along y, the opposite one."""
    return arr[i, j], arr[i + 1, j], arr[i, j + 1], arr[i + 1, j + 1]


def _gradient(c00, c10, c01, c11, h: float, ux: np.ndarray, uy: np.ndarray):
    """Cell-centred bilinear gradient (ux, uy) from the corner values, into
    the arrays ``ux`` and ``uy``.

    Each starts as a copy of a corner and takes the others in place, so
    strided corners cost a ufunc one block-sized buffer, not two.
    """
    np.copyto(ux, c10)
    ux -= c00
    ux += c11
    ux -= c01
    ux /= 2.0 * h
    np.copyto(uy, c01)
    uy -= c00
    uy += c11
    uy -= c10
    uy /= 2.0 * h
    return ux, uy


class _DiscGeometry:
    """What the n-by-n grid over [-R, R]^2 fixes, whatever the field on
    it: each fact is derived once, the two-dimensional ones on first use,
    and kept.

    The public kernels build one per call; ``radrelax symmetry`` builds
    one per run and prices every field on it.  The two-dimensional facts
    are built a block of rows at a time, so none needs an n-by-n float
    temporary.
    """

    def __init__(self, n: int, radius: float):
        self.n = n
        self.radius = radius
        self.h = 2.0 * radius / (n - 1)
        # node coordinates along one axis (the same on both), and the
        # cell centres
        self.x = np.linspace(-radius, radius, n)
        self.xc = 0.5 * (self.x[:-1] + self.x[1:])
        self.x2 = self.x * self.x
        # per cell along one axis, the larger squared coordinate of its two
        # nodes: the mask compares x^2 + y^2 at each node, and rounded sums
        # are monotone, so the largest of a cell's four corner sums is the
        # sum of its per-axis maxima, bit for bit
        self.far2 = np.maximum(self.x2[:-1], self.x2[1:])

    def _outer(self, s2: np.ndarray, fn, dtype=bool) -> np.ndarray:
        # fn(s2[i] + s2[j]) for every pair (i, j), a block of rows at a time
        out = np.empty((len(s2), len(s2)), dtype=dtype)
        for a, b in _row_blocks(len(s2)):
            out[a:b] = fn(s2[a:b, None] + s2[None, :])
        return out

    @cached_property
    def mask(self) -> np.ndarray:
        """Nodes strictly inside the circle."""
        return self._outer(self.x2, lambda s: s < self.radius ** 2)

    @cached_property
    def full(self) -> np.ndarray:
        """Full cells, all four corners in the mask."""
        return self._outer(self.far2, lambda s: s < self.radius ** 2)

    @cached_property
    def rim(self):
        """The rim table: the rim cells in row-major order, as arrays
        (i, j, w, di, dj) of each cell's indices, its area weight and its
        gradient donor.

        A cell is in the rim when it is not full and the point of its box
        nearest the origin lies inside the disc.  It weighs 1 where its
        farthest corner is within the radius, and otherwise the fraction
        of the subcell centres of a 16x16 lattice that lie inside.  The
        farthest corner of a cell is its farthest node along each axis:
        rounded squares, sums and square roots are monotone, so the
        corner distance built from ``far2`` is the largest of the four
        computed corner distances, bit for bit.  The count of 0/1 values
        is exact, so a fraction has the bits of their float mean.  Every
        other cell weighs 1 if full and 0 if outside, and keeps its own
        gradient.

        Cells cut by the circle have corners pinned to zero outside the
        disc, which flattens their bilinear patch and misprices the
        gradient term badly whenever the radial slope at the rim is
        nonzero.  A rim cell therefore borrows the gradient of a full
        cell, its donor, which keeps the error at O(h) on an O(h) strip.
        Every rim cell walks toward the centre at once, in at most six
        array steps: each step moves one cell along the axis whose centre
        coordinate is larger in magnitude, and a cell stops walking once
        it stands on a full cell.  A step moves toward the centre, so no
        walk leaves the grid; a cell that finds no full cell in six steps
        is its own donor.  Donors are full cells or rim cells that do not
        land, so a donor's gradient is its own.
        """
        x, R, full, xc = self.x, self.radius, self.full, self.xc
        # nearest point of the cell box to the origin, per axis
        near = np.clip(0.0, x[:-1], x[1:])
        i, j = np.nonzero(~full & self._outer(near * near,
                                              lambda s: np.sqrt(s) < R))
        w = np.empty(len(i))
        off = (np.arange(_SUBCELL) + 0.5) / _SUBCELL * self.h
        for a, b in _row_blocks(len(i), _RIM_CHUNK):
            sx = x[i[a:b], None, None] + off[None, :, None]
            sy = x[j[a:b], None, None] + off[None, None, :]
            w[a:b] = np.count_nonzero(sx * sx + sy * sy < R * R,
                                      axis=(1, 2)) / _SUBCELL ** 2
        w[np.sqrt(self.far2[i] + self.far2[j]) <= R] = 1.0
        # the donor walk
        di, dj = i, j
        walking = np.ones(len(i), dtype=bool)
        for _ in range(6):
            walking &= ~full[di, dj]
            if not walking.any():
                break
            xi, xj = xc[di], xc[dj]
            along_x = np.abs(xi) >= np.abs(xj)
            di = np.where(walking & along_x, di + np.where(xi < 0, 1, -1), di)
            dj = np.where(walking & ~along_x, dj + np.where(xj < 0, 1, -1), dj)
        landed = full[di, dj]
        return i, j, w, np.where(landed, di, i), np.where(landed, dj, j)

    def cells(self, values: np.ndarray, means: bool = True):
        """The cell map of nodal values, a block of cell rows a..b at a
        time: yields (a, b, ux, uy, ubar), each cell's own bilinear
        gradient and the mean of its four corners (None without
        ``means``).

        The three arrays are block buffers, refilled for the next block,
        so a caller may overwrite them but not keep them."""
        bufs = self.buffers(3 if means else 2)
        for a, b in _row_blocks(self.n - 1):
            m = b - a
            c = (values[a:b, :-1], values[a + 1:b + 1, :-1],
                 values[a:b, 1:], values[a + 1:b + 1, 1:])
            ux, uy = _gradient(*c, self.h, bufs[0, :m], bufs[1, :m])
            ubar = None
            if means:
                ubar = bufs[2, :m]
                np.copyto(ubar, c[0])
                ubar += c[1]
                ubar += c[2]
                ubar += c[3]
                ubar *= 0.25
            yield a, b, ux, uy, ubar

    def buffers(self, k: int) -> np.ndarray:
        """k float buffers, each one block of cell rows."""
        return np.empty((k, min(_BLOCK_ROWS, self.n - 1), self.n - 1))


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
    return _energy_2d(_DiscGeometry(fld.n, fld.radius), fld, spec,
                      use_envelope)


def _energy_2d(geo: _DiscGeometry, fld: DiscField, spec: ProblemSpec,
               use_envelope: bool) -> float:
    # energy_2d on the field's geometry
    if spec.dimension != 2:
        raise ValueError("planar energy requires dimension 2")
    if _off_radius(fld.radius, spec.radius):
        raise ValueError(
            f"field radius {fld.radius} does not match spec radius {spec.radius}")
    W = ensure_envelope(spec) if use_envelope else spec.W
    h = geo.h
    i, j, w, di, dj = geo.rim
    rim_norm = np.hypot(*_gradient(*_cell_corners(fld.values, di, dj), h,
                                    *np.empty((2, len(i)))))
    terms = np.empty((fld.n - 1, fld.n - 1))
    for a, b, ux, uy, ubar in geo.cells(fld.values):
        gnorm = np.hypot(ux, uy, out=ux)
        lo, hi = np.searchsorted(i, (a, b))
        ri, rj = i[lo:hi] - a, j[lo:hi]
        gnorm[ri, rj] = rim_norm[lo:hi]
        t = terms[a:b]
        t[...] = W.eval(gnorm.ravel()).reshape(t.shape)
        t += spec.G.eval(ubar.ravel()).reshape(t.shape)
        # the weights go in gnorm's buffer, which W has priced: 1 on the
        # full cells, 0 outside, and the rim table's weights on the rim
        np.copyto(gnorm, geo.full[a:b])
        gnorm[ri, rj] = w[lo:hi]
        gnorm *= h ** 2
        t *= gnorm
    return float(np.sum(terms))


def _bilinear(fld: DiscField, h: float, px: np.ndarray,
              py: np.ndarray) -> np.ndarray:
    # (1 - tx) (1 - ty) v[i, j] + tx (1 - ty) v[i + 1, j]
    # + (1 - tx) ty v[i, j + 1] + tx ty v[i + 1, j + 1], summed left to
    # right: the products of that expression (a product's factors
    # commute bit for bit), each weight formed in the buffer of a factor
    # it outlives, and the corner indices stepped in place
    top = fld.n - 1 - 1e-12
    tx, ty = px + fld.radius, py + fld.radius
    for f in (tx, ty):
        f /= h
        np.clip(f, 0.0, top, out=f)
    i, j = tx.astype(int), ty.astype(int)
    tx -= i
    ty -= j
    sx, sy = 1 - tx, 1 - ty
    v = fld.values
    out = sx * sy
    out *= v[i, j]
    i += 1
    sy *= tx
    sy *= v[i, j]
    out += sy
    i -= 1
    j += 1
    sx *= ty
    sx *= v[i, j]
    out += sx
    i += 1
    tx *= ty
    tx *= v[i, j]
    out += tx
    return out


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
    h = fld.h
    c = np.array([math.cos(th) for th in thetas])
    s = np.array([math.sin(th) for th in thetas])
    for a, b in _row_blocks(len(c), _BLOCK_RAYS):
        u = _bilinear(fld, h, c[a:b, None] * r, s[a:b, None] * r)
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
    cells, env = _RadialCells(grid, spec), ensure_envelope(spec)
    energies = np.empty(len(thetas))
    for a, b, u in _ray_blocks(fld, grid, thetas):
        energies[a:b] = cells.price(u, env)
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
    return _ray_check(_DiscGeometry(fld.n, fld.radius), fld, spec, n_thetas)


def _ray_check(geo: _DiscGeometry, fld: DiscField, spec: ProblemSpec,
               n_thetas: int) -> RayAverageReport:
    # averaged_ray_energy_check on the field's geometry
    if n_thetas < 1:
        raise ValueError("need at least one ray")
    thetas = np.arange(n_thetas) * (2.0 * math.pi / n_thetas)
    energies = _ray_energies(fld, spec, thetas)
    lhs = float(np.mean(energies))
    rhs = _energy_2d(geo, fld, spec, use_envelope=True)
    tol = RAY_CHECK_TOL_COEFF * geo.h
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
    return _colinearity(_DiscGeometry(fld.n, fld.radius), fld)


def _colinearity(geo: _DiscGeometry, fld: DiscField) -> float:
    # colinearity_defect on the field's geometry
    tang = np.empty(np.count_nonzero(geo.full))
    grad = np.empty_like(tang)
    k = 0
    bufs = geo.buffers(4)
    for a, b, ux, uy, _ in geo.cells(fld.values, means=False):
        ex, ey, radial, tmp = bufs[:, :b - a]
        # the cell centres' coordinates, copied out whole: a broadcast
        # ufunc operand would cost a block-sized ufunc buffer
        np.copyto(ex, geo.xc[a:b, None])
        np.copyto(ey, geo.xc[None, :])
        rc = np.multiply(ex, ex, out=radial)
        rc += np.multiply(ey, ey, out=tmp)
        np.sqrt(rc, out=rc)
        # cell centers sit at half-node offsets, never at the origin
        ex /= rc
        ey /= rc
        np.multiply(ux, ex, out=radial)
        radial += np.multiply(uy, ey, out=tmp)
        # the tangential part (tx, ty) in place of (ex, ey)
        tx = np.subtract(ux, np.multiply(radial, ex, out=ex), out=ex)
        ty = np.subtract(uy, np.multiply(radial, ey, out=ey), out=ey)
        tx *= tx
        tx += np.multiply(ty, ty, out=ty)
        ux *= ux
        ux += np.multiply(uy, uy, out=uy)
        # a 1-D mask gathers without building index arrays
        full = geo.full[a:b].ravel()
        e = k + np.count_nonzero(full)
        tang[k:e] = tx.ravel()[full]
        grad[k:e] = ux.ravel()[full]
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
    geo = _DiscGeometry(fld.n, fld.radius)
    vals = geo._outer(geo.x2, lambda s: np.interp(np.sqrt(s), grid.nodes, acc),
                      float)
    return DiscField._on(geo, vals)
