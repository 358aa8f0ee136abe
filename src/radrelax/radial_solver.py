"""Minimization of the radially reduced energy on [0, R].

The reduced energy of a radial profile u with u(R) = 0 is

    E(u) = area(S^{N-1}) * sum_i rbar_i^(N-1) [W(s_i) + G(ubar_i)] dr_i

with per-cell slopes s_i and midpoint values. Relaxed minimization replaces W
by its convex envelope; a value-grid dynamic program provides an independent
discrete optimum; monotone rearrangement realizes a nonincreasing profile
with the same W values per cell.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .envelope import EnvelopeResult, NumericalFailure, convexify
from .potentials import ProblemSpec, _bracketed_roots, sphere_area

__all__ = [
    "RadialGrid",
    "RadialProfile",
    "SolveReport",
    "energy_reduced",
    "minimize_relaxed",
    "dp_oracle",
    "monotone_rearrange",
    "solve_pipeline",
]


@dataclass(eq=False)
class RadialGrid:
    """Strictly increasing radial nodes r_0 = 0 < ... < r_K = R, K >= 16."""

    nodes: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or len(self.nodes) < 17:
            raise ValueError("need at least 17 nodes (K >= 16)")
        if self.nodes[0] != 0.0:
            raise ValueError("first node must be exactly 0")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def uniform(cls, radius: float, cells: int) -> "RadialGrid":
        return cls(np.linspace(0.0, radius, cells + 1))

    @property
    def cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def dr(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])


@dataclass(eq=False)
class RadialProfile:
    """Nodal values on a radial grid with the boundary value pinned to 0."""

    grid: RadialGrid
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float).copy()
        if len(self.u) != len(self.grid.nodes):
            raise ValueError("profile length must match grid nodes")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("profile values must be finite")
        self.u[-1] = 0.0

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.u) / self.grid.dr

    @property
    def midpoint_values(self) -> np.ndarray:
        return 0.5 * (self.u[1:] + self.u[:-1])


@dataclass(eq=False)
class SolveReport:
    """Solver outcome; original energy prices W, relaxed prices its envelope."""

    profile: RadialProfile
    relaxed_energy: float
    original_energy: float
    iterations: int
    converged: bool = True
    warnings: List[str] = field(default_factory=list)
    verify: object = None
    discretization: str = "midpoint"

    def __post_init__(self):
        scale = 1.0 + abs(self.relaxed_energy)
        if self.original_energy < self.relaxed_energy - 1e-9 * scale:
            raise NumericalFailure(
                f"original energy {self.original_energy} fell below relaxed "
                f"energy {self.relaxed_energy}")

    def to_dict(self) -> dict:
        out = {
            "relaxed_energy": float(self.relaxed_energy),
            "original_energy": float(self.original_energy),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "warnings": list(self.warnings),
            "discretization": self.discretization,
            "profile": {
                "r": self.profile.grid.nodes.tolist(),
                "u": self.profile.u.tolist(),
                "du_dr": self.profile.slopes.tolist(),
            },
        }
        if self.verify is not None:
            out["verify"] = self.verify.to_dict()
        return out


def ensure_envelope(spec: ProblemSpec) -> EnvelopeResult:
    """Convexify spec.W once and cache the result on the spec, for that W."""
    env = spec._envelope
    if env is None or env.potential is not spec.W:
        env = spec._envelope = convexify(spec.W)
    return env


def _off_radius(end: float, radius: float) -> bool:
    """Whether a grid or field ending at ``end`` misses the spec radius:
    one bound for every profile or field that is read or priced."""
    return abs(end - radius) > 1e-12 * max(1.0, radius)


def _reduced_energy(grid: RadialGrid, u: np.ndarray, spec: ProblemSpec,
                    use_envelope: bool) -> np.ndarray:
    # the midpoint quadrature of each row of nodal values (a 1-D u is one
    # row), with one W (or envelope) and one G evaluation for all rows
    nodes = grid.nodes
    if _off_radius(nodes[-1], spec.radius):
        raise ValueError(
            f"grid ends at {nodes[-1]}, spec radius is {spec.radius}")
    dr = grid.dr
    s = np.diff(u, axis=-1) / dr
    ubar = 0.5 * (u[..., 1:] + u[..., :-1])
    W = ensure_envelope(spec) if use_envelope else spec.W
    wterm = W.eval(s.ravel()).reshape(s.shape)
    gterm = spec.G.eval(ubar.ravel()).reshape(ubar.shape)
    area = sphere_area(spec.dimension)
    return area * np.sum(grid.midpoints ** (spec.dimension - 1)
                         * (wterm + gterm) * dr, axis=-1)


def energy_reduced(profile: RadialProfile, spec: ProblemSpec,
                   use_envelope: bool = False) -> float:
    """Midpoint-quadrature reduced energy of a profile.

    Args:
        profile: radial profile; its grid must end exactly at spec.radius.
        spec: problem description.
        use_envelope: price the gradient term with the convex envelope of W
            (computed and cached on the spec on first use).

    Raises:
        ValueError: if the grid radius disagrees with the spec.
    """
    return float(_reduced_energy(profile.grid, profile.u, spec, use_envelope))


class _RelaxedEnergy:
    """The relaxed energy as a function of the free nodal values x = u[:K]
    (u[K] = 0), with its gradient and its tridiagonal Hessian.

    Cell i contributes w_i [Wc(s_i) + G(ubar_i)] and couples nodes i and
    i + 1 only, so the Hessian is the sum of per-cell 2 x 2 blocks
    a_i [[1, -1], [-1, 1]] + b_i [[1, 1], [1, 1]] with
    a_i = w_i Wc''(s_i) / dr_i^2 and b_i = w_i G''(ubar_i) / 4.
    """

    def __init__(self, spec, env, grid: RadialGrid):
        self.spec, self.env, self.grid, self.dr = spec, env, grid, grid.dr
        self.weight = (sphere_area(spec.dimension)
                       * grid.midpoints ** (spec.dimension - 1) * grid.dr)
        # lumped node mass: scales the gradient test and the Levenberg shift
        self.mass = self._to_nodes(0.5 * self.weight, 0.5 * self.weight)

    @staticmethod
    def _to_nodes(left, right):
        # per-cell terms on a cell's left and right node, free nodes only
        out = np.zeros(len(left) + 1)
        out[:-1] += left
        out[1:] += right
        return out[:-1]

    def _cells(self, x):
        u = np.append(x, 0.0)
        return np.diff(u) / self.dr, 0.5 * (u[1:] + u[:-1])

    def value(self, x) -> float:
        # the report's price, through the spec's cached envelope (env, as
        # minimize_relaxed passes it), so descent and report agree bit for bit
        return float(_reduced_energy(self.grid, np.append(x, 0.0), self.spec,
                                     use_envelope=True))

    def gradient(self, x) -> np.ndarray:
        s, ubar = self._cells(x)
        a = self.weight * self.env.deriv(s) / self.dr
        g = 0.5 * self.weight * self.spec.G.derivative(ubar)
        return self._to_nodes(g - a, g + a)

    def hessian(self, x):
        """Diagonal and superdiagonal of the Hessian."""
        s, ubar = self._cells(x)
        a = self.weight * self.env.deriv2(s) / self.dr ** 2
        b = 0.25 * self.weight * self.spec.G.derivative(ubar, 2)
        return self._to_nodes(a + b, a + b), (b - a)[:-1]


_MAX_ITERS = 20000
_GTOL = 1e-8
_ARMIJO = 1e-4
_HALVINGS = 40
_ROUNDOFF = 8.0 * sys.float_info.epsilon
# below this many rows a reduction level (about 30 us of numpy calls)
# costs more than the rows it removes cost as Python floats (about 0.6 us
# a row)
_REDUCED_ROWS = 64


def _ldlt_solve(d: list, e: list, b: list) -> Optional[list]:
    """x with A x = b by LDL^T over Python floats, A symmetric tridiagonal
    with diagonal d and off-diagonal e; None at the first pivot that is not
    positive."""
    piv, y = d[0], b[0]
    if not piv > 0.0:
        return None
    pivots, mults, ys = [piv], [], [y]
    for di, ei, bi in zip(d[1:], e, b[1:]):
        m = ei / piv
        piv = di - m * ei
        if not piv > 0.0:
            return None
        y = bi - m * y
        pivots.append(piv)
        mults.append(m)
        ys.append(y)
    xi = y / piv
    x = [xi]
    for y, piv, m in zip(ys[-2::-1], pivots[-2::-1], reversed(mults)):
        xi = y / piv - m * xi
        x.append(xi)
    x.reverse()
    return x


def _spd_tridiagonal_solve(d: np.ndarray, e: np.ndarray,
                           b: np.ndarray) -> Optional[np.ndarray]:
    """x with A x = b, A symmetric tridiagonal with diagonal d and
    off-diagonal e, or None when A is not positive definite.

    Odd-even cyclic reduction (Buzbee, Golub and Nielson, SIAM J. Numer.
    Anal. 7, 1970). The odd-numbered rows of a tridiagonal system couple
    only to even ones, so one level eliminates all of them at once, and
    the Schur complement on the even rows is tridiagonal again. Level
    after level this is Gaussian elimination of P A P^T for a permutation
    P, so every pivot is positive exactly when A is positive definite,
    and the solve stops at the first level whose pivots are not. The
    levels run in place on strided views of O(n) buffers; the last
    _REDUCED_ROWS rows or fewer go to ``_ldlt_solve``.
    """
    d, off = d.copy(), e.copy()  # off[i] couples row i to row i + 1
    x = b.copy()  # the right-hand side, then the solution
    levels = []
    step, rows = 1, len(d)
    while rows > _REDUCED_ROWS:
        dv, ev, xv = d[::step], off[::step], x[::step]
        pivots = dv[1::2]
        if not pivots.min() > 0.0:
            return None
        neg_inv = np.divide(-1.0, pivots)
        odd = len(neg_inv)
        inner = rows - odd - 1     # couplings left between the even rows
        left = ev[0::2][:odd]      # odd row k to even row k
        right = ev[1::2][:inner]   # odd row k to even row k + 1
        fl = left * neg_inv
        fr = right * neg_inv[:inner]
        fb = xv[1::2] * neg_inv
        even_d, even_x = dv[0::2], xv[0::2]
        even_d[:odd] += left * fl
        even_d[1:] += right * fr
        even_x[:odd] += left * fb
        even_x[1:] += right * fb[:inner]
        np.multiply(right, fl[:inner], out=ev[0::2][:inner])
        levels.append((step, fl, fr, fb, inner))
        step, rows = 2 * step, rows - odd
    rest = _ldlt_solve(d[::step].tolist(), off[::step][:rows - 1].tolist(),
                       x[::step].tolist())
    if rest is None:
        return None
    x[::step] = rest
    for step, fl, fr, fb, inner in reversed(levels):
        xv = x[::step]
        even_x, odd_x = xv[0::2], xv[1::2]
        np.multiply(fl, even_x[:len(odd_x)], out=odd_x)
        odd_x -= fb
        odd_x[:inner] += fr * even_x[1:]
    return x


def _newton_direction(diag, off, mass, g):
    """-(H + lam D)^-1 g, D the node masses, for the first lam in
    0, lam0, 10 lam0, ... at which the shifted Hessian is positive definite,
    as ``_spd_tridiagonal_solve`` finds it.

    After 0 and lam0, the search doubles the number of decades past lam0
    until a shift succeeds, then bisects back to the first rung that
    does: a larger shift of a positive definite matrix is positive
    definite.  Each rung is 10 times the one below it, as a product.
    """
    # a positive definite matrix needs a positive diagonal; start at twice
    # the shift that gives one. Inside detachment intervals this leaves the
    # smooth mode nearly singular, and the long step along it is what walks
    # slopes out of the interval: starting at 4x or 10x took 3.4x as many
    # steps on the 1024-cell prototype and stalled on the three-well spec
    lam0 = max(2.0 * float(np.max(-diag / mass)), 1e-8)
    ladder = [0.0, lam0]

    def solve(k):
        while len(ladder) <= k:
            ladder.append(10.0 * ladder[-1])
        return _spd_tridiagonal_solve(diag + ladder[k] * mass, off, g)

    bad, k = -1, 0  # rung bad fails (-1: none tried); k is tried next
    while (x := solve(k)) is None:
        bad, k = k, max(1, 2 * k)
    while k - bad > 1:
        mid = (bad + k) // 2
        y = solve(mid)
        if y is None:
            bad = mid
        else:
            k, x = mid, y
    return -x


def _newton(energy: _RelaxedEnergy, x: np.ndarray):
    """Damped Newton descent with Armijo backtracking.

    Returns (x, E, iterations, converged). A start converges when its
    mass-scaled gradient falls to _GTOL, or when no step decreases E and
    the Newton decrement |g.d| is below what E resolves in floating point.
    It stops unconverged after _MAX_ITERS steps, when a step that is not
    negligible fails to decrease E, or when the derivatives stop being
    finite.
    """
    e = energy.value(x)
    for it in range(_MAX_ITERS + 1):
        g = energy.gradient(x)
        if float(np.max(np.abs(g) / energy.mass)) <= _GTOL:
            return x, e, it, True
        if it == _MAX_ITERS:
            break
        diag, off = energy.hessian(x)
        if not all(np.all(np.isfinite(a)) for a in (g, diag, off)):
            break
        d = _newton_direction(diag, off, energy.mass, g)
        slope = float(g @ d)
        # the quadratic model is trusted for slope changes up to 1 + max|s|
        # per step: a near-singular shift must not leap out of the basin
        s = np.diff(np.append(x, 0.0)) / energy.dr
        ds = np.diff(np.append(d, 0.0)) / energy.dr
        t = min(1.0, (1.0 + np.max(np.abs(s))) / np.max(np.abs(ds)))
        # below the roundoff floor shorter steps cannot resolve a decrease
        # the full step did not show, so one trial decides
        negligible = -slope <= _ROUNDOFF * (1.0 + abs(e))
        for _ in range(1 if negligible else _HALVINGS):
            trial = x + t * d
            e_trial = energy.value(trial)
            if e_trial < e and e_trial <= e + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return x, e, it, negligible
        x, e = trial, e_trial
    return x, e, it, False


def minimize_relaxed(spec: ProblemSpec, grid: RadialGrid) -> SolveReport:
    """Newton minimization of the relaxed reduced energy on ``grid``.

    One start with the shape of a minimizer (nonincreasing, u' <= -M,
    u'(0) = -M): the profile M (R - r) + max(M, 0.5) (R^2 - r^2) / (8 R),
    which leaves the origin at slope -M and steepens quadratically. It
    descends by damped Newton on the requested grid: the relaxed energy
    is a sum of per-cell terms, so its Hessian is tridiagonal and one
    step costs one numpy cyclic reduction (O(K) time and memory), with a
    Levenberg shift where the Hessian is indefinite (inside detachment
    intervals, where Wc'' = 0, and wherever G is concave). Descent takes
    at most ``_MAX_ITERS`` Newton steps; ``iterations`` counts them and
    ``converged`` is Newton's verdict. When it is false, ``warnings``
    says so.

    Raises:
        NumericalFailure: if a lumped node mass underflows to 0 (the
            weights scale as r^(N-1)), so the mass-scaled gradient test and
            the Levenberg shift are undefined; or if the relaxed energy
            is not finite where descent stops (an energy unbounded below).
    """
    env = ensure_envelope(spec)
    energy = _RelaxedEnergy(spec, env, grid)
    if not energy.mass.min() > 0.0:
        raise NumericalFailure(
            f"dimension {spec.dimension} is too large for {grid.cells} cells: "
            f"the lumped mass of the first node underflows to 0")
    nodes, R, M = grid.nodes, spec.radius, env.M
    # the quadratic term keeps the start off the zero profile when M = 0,
    # since that profile is stationary whenever G'(0) = 0
    start = M * (R - nodes) + 0.125 * max(M, 0.5) / R * (R * R - nodes ** 2)
    x, e, iterations, converged = _newton(energy, start[:-1])
    if not math.isfinite(e):
        raise NumericalFailure(
            f"descent diverged: the relaxed energy is {e} after "
            f"{iterations} Newton steps")
    warnings = [] if converged else [
        f"descent did not converge after {iterations} Newton steps"]

    profile = RadialProfile(grid, np.append(x, 0.0))
    return SolveReport(
        profile=profile,
        relaxed_energy=e,
        original_energy=energy_reduced(profile, spec, use_envelope=False),
        iterations=iterations,
        converged=converged,
        warnings=warnings,
    )


def _max_abs_G_slope(spec, window: float) -> float:
    mu = np.linspace(0.0, max(window, 1e-6), 2001)
    return max(float(np.max(np.abs(spec.G.derivative(mu)))), 1e-9)


def _slope_bound(spec, env) -> float:
    # first-integral bound: |Wc'(u')| <= R * max|G'| / N on any minimizer
    R, N, M = spec.radius, spec.dimension, env.M
    window = 2.0 * R * (M + 1.0)
    nu = M + 1.0
    for _ in range(2):
        target = R * _max_abs_G_slope(spec, window) / N
        lo, hi = M, max(M + 1.0, 2.0 * M + 1.0)
        for _ in range(80):
            if env.deriv(hi) >= target:
                break
            hi *= 2.0
        for _ in range(100):
            # a step that moves neither end would repeat forever; stop
            mid = 0.5 * (lo + hi)
            if env.deriv(mid) < target:
                lo, moved = mid, mid != lo
            else:
                hi, moved = mid, mid != hi
            if not moved:
                break
        nu = 0.5 * (lo + hi)
        window = 1.5 * R * nu + 1e-9
    return nu


def dp_oracle(spec: ProblemSpec, r_levels: int = 100, u_levels: int = 200,
              slope_levels: Optional[int] = None) -> SolveReport:
    """Exact optimum of a value-grid discretization of the relaxed problem.

    States are (r_i, u on a uniform nonnegative value grid) with nodes at
    r_i = (i + 1/2) dr, i = 0..r_levels, dr = R/(r_levels + 1/2): the first
    node sits at dr/2 with a free value, the last exactly at R where u = 0.
    The value grid step divides M*dr when M > 0, so the slope -M cone is
    exactly representable. Per-step cost is

        rbar^(N-1) [Wc(s) + (G(u_i) + G(u_{i+1}))/2] dr

    plus a leading half-cell [0, dr/2] priced with a flat extension.
    ``slope_levels`` caps the per-step level jump. Reported energies are
    those of the DP's own discretization; the original energy re-prices the
    optimal path with W in place of its envelope.

    Raises:
        ValueError: on state-space bounds (r_levels in [16, 200],
            u_levels in [2, 400]) or a degenerate slope cap.
    """
    if not 16 <= r_levels <= 200:
        raise ValueError("r_levels must lie in [16, 200]")
    if not 2 <= u_levels <= 400:
        raise ValueError("u_levels must lie in [2, 400]")
    if slope_levels is None:
        slope_levels = u_levels
    if slope_levels < 1:
        raise ValueError("slope_levels must be positive")

    env = ensure_envelope(spec)
    R, N, M = spec.radius, spec.dimension, env.M
    area = sphere_area(N)
    dr = R / (r_levels + 0.5)
    nodes = (np.arange(r_levels + 1) + 0.5) * dr
    nodes[-1] = R

    nu = _slope_bound(spec, env)
    u_need = max(1.5 * M * R, 1.25 * R * nu, 1e-9)
    if M > 0:
        k = max(1, int((u_levels - 1) * M * dr / u_need))
        du = M * dr / k
    else:
        du = u_need / (u_levels - 1)
    ugrid = np.arange(u_levels) * du

    # jumps[U - 1 + j' - j] prices the step from level j to j'; base row j
    # is the window of it that starts at U - 1 - j
    U, D = u_levels, min(int(slope_levels), u_levels - 1)
    jumps = np.full(2 * U - 1, np.inf)
    jumps[U - 1 - D:U + D] = env.eval(np.arange(-D, D + 1) * du / dr)
    g_u = spec.G.eval(ugrid)
    base = np.add.outer(g_u, g_u)
    base *= 0.5
    base += sliding_window_view(jumps, U)[::-1]

    jj = np.arange(u_levels)
    value = np.full(u_levels, np.inf)
    value[0] = 0.0
    choice = np.empty((r_levels, u_levels), dtype=np.int32)
    cost = np.empty((u_levels, u_levels))
    for i in range(r_levels - 1, -1, -1):
        rbar = (i + 1) * dr if i < r_levels - 1 else 0.5 * (nodes[-2] + nodes[-1])
        step = dr if i < r_levels - 1 else nodes[-1] - nodes[-2]
        # in place, with the scalar factor first: the floats of c * base + value
        np.multiply(base, area * rbar ** (N - 1) * step, out=cost)
        cost += value
        cost.argmin(axis=1, out=choice[i])
        value = cost[jj, choice[i]]

    sliver = area * (0.25 * dr) ** (N - 1) * (env.eval(0.0) + g_u) * (0.5 * dr)
    total = value + sliver
    j0 = int(np.argmin(total))
    if not math.isfinite(total[j0]):
        raise NumericalFailure("dp_oracle found no feasible path")

    path = np.empty(r_levels + 1, dtype=np.int32)
    path[0] = j0
    for i in range(r_levels):
        path[i + 1] = choice[i, path[i]]
    u_path = ugrid[path]

    full_nodes = np.concatenate([[0.0], nodes])
    profile = RadialProfile(RadialGrid(full_nodes), np.concatenate([[u_path[0]], u_path]))

    # the original energy re-prices the path with W in place of Wc
    st = np.diff(nodes)
    rb = 0.5 * (nodes[1:] + nodes[:-1])
    gpart = 0.5 * (g_u[path[:-1]] + g_u[path[1:]])
    original = (float(np.sum(area * rb ** (N - 1) * st
                             * (spec.W.eval(np.diff(u_path) / st) + gpart)))
                + float(area * (0.25 * dr) ** (N - 1)
                        * (spec.W.eval(0.0) + g_u[j0]) * (0.5 * dr)))
    return SolveReport(
        profile=profile,
        relaxed_energy=float(total[j0]),
        original_energy=original,
        iterations=int(r_levels),
        converged=True,
        discretization="dp_value_grid",
    )


def _last_brackets(vals: np.ndarray, targets: np.ndarray):
    """Index of the last scan interval [j, j + 1] over which vals - t has a
    sign change or a zero, per target t, and whether any interval does.

    The last such j is the largest one with vals[j] <= t when vals[-1] > t,
    the largest with vals[j] >= t when vals[-1] < t, and n - 2 when they
    are equal. Suffix minima (maxima) of vals are monotone, so each of the
    first two is one searchsorted into a table built once: O(n + K log n)
    time and O(n + K) memory for K targets.
    """
    n = len(vals)
    sufmin = np.minimum.accumulate(vals[::-1])[::-1]
    neg_sufmax = -np.maximum.accumulate(vals[::-1])[::-1]
    last = np.full(targets.shape, -1)
    above = vals[-1] > targets
    below = vals[-1] < targets
    last[above] = np.searchsorted(sufmin, targets[above], side="right") - 1
    last[below] = np.searchsorted(neg_sufmax, -targets[below], side="right") - 1
    last[vals[-1] == targets] = n - 2
    has = last >= 0
    return np.where(has, last, n - 2), has


def _outermost_levels(env, y: np.ndarray) -> np.ndarray:
    """Largest nu >= 0 with W(nu) = W(y) per entry of y, W = env.potential."""
    nu = y.copy()
    free, idx, bracket = _level_brackets(env, y)
    # no scan interval brackets W(y): y, floored at M
    nu[free] = np.maximum(y[free], env.M)
    if idx.size:
        W = env.potential
        _bracketed_roots(W.eval, W.derivative, nu, idx, *bracket)
    # y sits in its own level set, so it floors the outermost point
    np.maximum(nu, y, out=nu)
    # around a well the float evaluation of W flattens to a plateau of
    # rounding noise of width ~sqrt(eps), where a root may land anywhere;
    # inputs already outermost to that resolution snap back exactly
    snap = np.abs(nu - y) <= 1e-7 * np.maximum(1.0, np.abs(y))
    return np.where(snap, y, nu)


def _level_brackets(env, y: np.ndarray):
    """The entries of y that are not their own outermost point: the indices
    of those without a scan bracket, the indices of the others, and their
    last scan intervals (lo, hi) with the residuals of W - W(y) at both
    ends and W(y) itself."""
    W, M = env.potential, env.M
    T = max(float(W.domain_halfwidth), 1.5 * float(np.max(y, initial=0.0)) + 1.0,
            M + 1.0)
    # the outermost level point never lies left of M, and anchoring the
    # scan at M (where W - target <= 0) brackets even level sets narrower
    # than the scan spacing, which open up around the wells
    grid = np.linspace(M, T, 4097)
    vals = np.asarray(W.eval(grid), dtype=float)
    targets = np.asarray(W.eval(y), dtype=float)
    last, has = _last_brackets(vals, targets)
    # Wc is even and convex with minimum set [-M, M], so it increases
    # strictly on [M, inf). Outside the detachment intervals W(y) = Wc(y),
    # and every nu > y has W(nu) >= Wc(nu) > W(y): y is its own outermost
    # point. Margins of the snap's 1e-7 keep rounding near M and the
    # tangency points out; a bracket past y's own scan interval (a sampled
    # W whose extension turns down past the samples) goes to the root finder
    keep = (y >= M * (1.0 + 1e-7)) & (~has | ((grid[last] <= y)
                                              & (y <= grid[last + 1])))
    for c in env.components:
        keep &= (y <= c.a - 1e-7 * abs(c.a)) | (y >= c.b + 1e-7 * abs(c.b))
    idx = np.flatnonzero(~keep & has)
    j = last[idx]
    t = targets[idx]
    return (np.flatnonzero(~(keep | has)), idx,
            (grid[j], grid[j + 1], vals[j] - t, vals[j + 1] - t, t))


def monotone_rearrange(profile: RadialProfile,
                       env: EnvelopeResult) -> RadialProfile:
    """Nonincreasing realization with the same per-cell W values.

    Each cell slope s is replaced by -max{nu >= 0 : W(nu) = W(|s|)}, the
    outermost point of its W level set, and the profile is re-integrated
    inward from u(R) = 0. W is scanned once at 4097 points on [M, T]; the
    last scan interval that brackets W(|s|) comes from a searchsorted into
    suffix minima (or maxima) of the scan. A slope with |s| >= M outside
    every detachment interval, whose last bracket holds |s|, is its own
    outermost point and is kept. Every other cell's root in its bracket
    is found by safeguarded Newton from the bracket's secant point, which
    the scan values at its ends give (about 4 steps per cell, 60 at
    most), and snaps to |s| when |s| is already outermost. Time is
    O(4097 + K log 4097) and memory O(K) for K cells.
    """
    y = np.abs(profile.slopes)
    nu = _outermost_levels(env, y)
    drops = nu * profile.grid.dr
    v = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    return RadialProfile(profile.grid, v)


def solve_pipeline(spec: ProblemSpec, grid: RadialGrid,
                   corner_window: Optional[float] = None,
                   corner_tol: float = 0.05) -> SolveReport:
    """Convexify, minimize, rearrange (under a monotone G), and verify.

    Structural hypotheses that fail to hold (M > 0 without a declared
    monotone shape for G, detachment intervals escaping (-M, M)) are
    recorded as warnings, not errors. The final profile is priced once, by
    the ``energy_consistency`` record of its verification, and the report
    carries that record's energies. After rearrangement the record must
    pass: the original and relaxed energies agree within its tolerance.

    Raises:
        NumericalFailure: if the post-rearrangement energies disagree.
    """
    from . import verify

    env = ensure_envelope(spec)
    warnings = []
    if env.M > 0 and spec.shape_flag == "none":
        warnings.append("M > 0 but G does not declare the G2 monotone "
                        "shape; rearrangement skipped")
    if not env.wcaffine_holds:
        warnings.append("a detachment interval is not contained in (-M, M)")

    descent = minimize_relaxed(spec, grid)
    warnings.extend(descent.warnings)
    profile = descent.profile
    rearranged = spec.shape_flag in ("G2", "G2_strict")
    if rearranged:
        profile = monotone_rearrange(profile, env)

    vrep = verify.full_report(profile, spec, env,
                              corner_window=corner_window,
                              corner_tol=corner_tol)
    consistency = vrep._record("energy_consistency")
    price = consistency["details"]
    if rearranged and not consistency["passed"]:
        raise NumericalFailure(
            f"energy gap {price['gap']} after rearrangement exceeds "
            f"tolerance {price['tolerance']}")
    return SolveReport(
        profile=profile, relaxed_energy=price["relaxed_energy"],
        original_energy=price["original_energy"],
        iterations=descent.iterations, converged=descent.converged,
        warnings=warnings, verify=vrep)
