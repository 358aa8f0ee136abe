"""Independent reference computations used only by the tests.

Everything here is a second route to a quantity the package computes,
written against different algorithms so agreement is evidence and not
tautology.
"""

import math

import numpy as np


def chord_hull_vertices(t, w):
    """Exhaustive lower-hull walk over the sample chords.

    From each vertex, scan the slope of every chord leaving it; the
    successor is the argmin, ties resolved to the farthest node.  O(n^2)
    worst case, independent of the monotone-chain construction.
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(t)
    verts = [0]
    a = 0
    while a < n - 1:
        s = (w[a + 1:] - w[a]) / (t[a + 1:] - t[a])
        smin = s.min()
        b = a + 1 + int(np.nonzero(s == smin)[0][-1])
        verts.append(b)
        a = b
    return verts


def chord_hull_values(t, w, verts):
    """Envelope values from a vertex chain, left-anchored chord arithmetic."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    env = np.empty_like(w)
    for ia, ib in zip(verts[:-1], verts[1:]):
        s = (w[ib] - w[ia]) / (t[ib] - t[ia])
        env[ia:ib] = w[ia] + (t[ia:ib] - t[ia]) * s
    env[verts[-1]] = w[verts[-1]]
    return env


def plain_monotone_chain(t, w):
    """Lower hull vertices by the monotone chain, one point at a time.

    ``envelope._lower_hull`` as it was before it took the runs of
    consecutive non-popping triples from one numpy pass: the same
    predicate on Python floats, tested at every point.
    """
    ts = np.asarray(t, dtype=float).tolist()
    ws = np.asarray(w, dtype=float).tolist()
    idx = []
    for i, (ti, wi) in enumerate(zip(ts, ws)):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            if (ws[b] - ws[a]) * (ti - ts[a]) >= (wi - ws[a]) * (ts[b] - ts[a]):
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def masked_envelope_eval(env, t, order):
    """``env.eval`` (order 0), ``env.deriv`` (1) or ``env.deriv2`` (2) on
    an array, by the masked assignment ``EnvelopeResult`` used before it
    patched components with ``np.where``: W (or W', W'') everywhere, then
    each component's affine piece assigned on its own points."""
    W = env.potential
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.array(W.eval(ts) if order == 0 else W.derivative(ts, order),
                   dtype=float)
    for c in env.components:
        m = c.contains(ts)
        if np.any(m):
            out[m] = (c.alpha * ts[m] + c.beta, c.alpha, 0.0)[order]
    return out


def runs_walk(mask):
    """(first, last) index of each maximal run of True, by a scalar walk.

    The loop ``envelope._runs`` ran before it took the runs from the
    edges of the padded mask.
    """
    runs = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs


def naive_min_chord(t, w):
    """Pointwise minimum over every chord of the sample set.

    Kept as a value-level cross-check; its minimum over many chords can
    land a few ULP away from the hull arithmetic, so comparisons against
    it carry a machine-epsilon allowance.
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    env = w.copy()
    n = len(t)
    for a in range(n - 1):
        s = (w[a + 1:] - w[a]) / (t[a + 1:] - t[a])
        sufmin = np.minimum.accumulate(s[::-1])[::-1]
        cand = w[a] + (t[a + 1:] - t[a]) * sufmin
        np.minimum(env[a + 1:], cand, out=env[a + 1:])
    return env


def random_even_sampled(seed):
    """Random even sampled potential with a coercive quartic tail.

    Bumps are tapered to zero past 0.7 T so the sampled-tail coercivity
    requirement holds by construction.  Node count stays below 2000.
    """
    from radrelax.potentials import Potential1D

    rng = np.random.default_rng(seed)
    half = int(rng.integers(8, 999))
    T = float(rng.uniform(1.0, 3.0))
    tpos = np.linspace(0.0, T, half + 1)
    base = (tpos / T) ** 4
    bumps = np.zeros_like(tpos)
    for _ in range(int(rng.integers(1, 6))):
        c = rng.uniform(0.0, 0.7 * T)
        s = rng.uniform(0.05, 0.3) * T
        a = rng.uniform(-1.0, 1.0)
        bumps += a * np.exp(-((tpos - c) / s) ** 2)
    taper = np.clip((0.8 * T - tpos) / (0.1 * T), 0.0, 1.0)
    vpos = base + bumps * taper
    t = np.concatenate([-tpos[:0:-1], tpos])
    v = np.concatenate([vpos[:0:-1], vpos])
    return Potential1D(kind="sampled", samples=(tuple(t), tuple(v)))


def brute_force_largest_argmin(W, points=1_000_000):
    """Largest minimizer of W on [0, T] by dense scan plus golden refinement."""
    from scipy.optimize import minimize_scalar

    T = float(W.domain_halfwidth)
    t = np.linspace(0.0, T, points)
    v = np.asarray(W.eval(t), dtype=float)
    vmin = float(v.min())
    i = int(np.nonzero(v <= vmin + 1e-10 * (1.0 + abs(vmin)))[0][-1])
    lo = t[max(i - 1, 0)]
    hi = t[min(i + 1, points - 1)]
    res = minimize_scalar(W.eval, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    cand = float(res.x)
    if W.eval(cand) <= W.eval(t[i]):
        return cand
    return float(t[i])


def bisected_min_poly(W, lo, hi):
    """The minimum of W in a scan bracket [lo, hi] as ``compute_M``
    refined it before it took the rearrangement's safeguarded Newton:
    bisection on the sign of W' down to a width of 1e-13 relative, then
    up to three Newton steps on W' kept within one width of the bracket.
    A bracket across which W' does not change sign gives the best of 33
    points."""
    dlo, dhi = W.derivative(lo), W.derivative(hi)
    if not (dlo <= 0.0 <= dhi):
        grid = np.linspace(lo, hi, 33)
        return float(grid[np.argmin(W.eval(grid))])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13 * max(1.0, abs(mid)):
            break
        if W.derivative(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(3):
        d2 = W.derivative(t, order=2)
        if abs(d2) < 1e-12:
            break
        step = W.derivative(t) / d2
        if not (lo - (hi - lo) <= t - step <= hi + (hi - lo)):
            break
        t -= step
    return float(t)


def _level_scan(env, y):
    # the 4097-point scan of W on [M, T] of radial_solver._level_brackets,
    # and the targets W(y)
    W, M = env.potential, env.M
    T = max(float(W.domain_halfwidth), 1.5 * float(np.max(y, initial=0.0)) + 1.0,
            M + 1.0)
    grid = np.linspace(M, T, 4097)
    return (grid, np.asarray(W.eval(grid), dtype=float),
            np.asarray(W.eval(y), dtype=float))


def quadratic_level_brackets(env, y):
    """The last scan interval [lo, hi] over which W - W(y) changes sign or
    vanishes, per entry of y, and whether there is one (else lo = hi =
    max(y, M)).

    The K x 4097 bracket-matrix form that preceded the suffix-table search
    of ``radial_solver._last_brackets``: every scan interval is tested
    against every target and the last bracketing one is kept.  Quadratic
    memory; call it only on small K.
    """
    grid, vals, targets = _level_scan(env, y)
    sign = vals[None, :] - targets[:, None]
    bracket = sign[:, :-1] * sign[:, 1:] <= 0.0
    has = bracket.any(axis=1)
    last = grid.shape[0] - 2 - np.argmax(bracket[:, ::-1], axis=1)
    lo = np.where(has, grid[last], np.maximum(y, env.M))
    hi = np.where(has, grid[np.minimum(last + 1, len(grid) - 1)], lo)
    return lo, hi, has


def suffix_level_brackets(env, y):
    """The brackets of ``quadratic_level_brackets`` from the suffix tables
    of ``radial_solver._last_brackets``."""
    from radrelax.radial_solver import _last_brackets

    grid, vals, targets = _level_scan(env, y)
    last, has = _last_brackets(vals, targets)
    lo = np.where(has, grid[last], np.maximum(y, env.M))
    hi = np.where(has, grid[last + 1], lo)
    return lo, hi, has


def bisected_levels(env, y, brackets):
    """Largest nu >= 0 with W(nu) = W(y), per entry of y, by bisecting
    every bracket (lo, hi, has) to float resolution.

    ``radial_solver._outermost_levels`` as it was before it kept the
    slopes that are their own outermost point and found the other roots
    by Newton: up to 60 bisection steps on every cell, carrying the
    residual at lo, then the floor at y and the 1e-7 snap.
    """
    W, M = env.potential, env.M
    lo, hi, has = brackets
    targets = np.asarray(W.eval(y), dtype=float)
    flo = np.asarray(W.eval(lo), dtype=float) - targets
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(W.eval(mid), dtype=float) - targets
        same = np.sign(fm) == np.sign(flo)
        if np.array_equal(mid, np.where(same, lo, hi)):
            break
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    nu = 0.5 * (lo + hi)
    nu = np.where(~has, np.maximum(y, M), nu)
    nu = np.maximum(nu, y)
    snap = np.abs(nu - y) <= 1e-7 * np.maximum(1.0, np.abs(y))
    return np.where(snap, y, nu)


def level_defects(env, y, nu, want, brackets):
    """Indices of y where the levels nu break their contract with the
    bisected levels want of the same brackets (lo, hi, has).

    Cells that ``radial_solver._level_brackets`` keeps, or finds without
    a bracket, must equal want bit for bit. Every other cell must equal
    want, or have nu >= y, lie in [lo, hi], and leave a residual
    |W(nu) - W(y)| no larger than want's plus 4 ulps of W(y).
    """
    from radrelax.radial_solver import _level_brackets

    W = env.potential
    lo, hi, _ = brackets
    moved = np.zeros(len(y), dtype=bool)
    moved[_level_brackets(env, y)[1]] = True
    t = np.asarray(W.eval(y), dtype=float)
    res = np.abs(np.asarray(W.eval(nu), dtype=float) - t)
    res_want = np.abs(np.asarray(W.eval(want), dtype=float) - t)
    ok = moved & (nu >= y) & (lo <= nu) & (nu <= hi)
    ok &= res <= res_want + 4.0 * np.spacing(np.abs(t))
    return np.flatnonzero(~(ok | (nu == want)))


def quadratic_window_density(rbar, inside, radius):
    """Per-cell fraction of neighbours within ``radius`` that are inside,
    from the full K x K neighbour matrix that preceded the sliding window
    in ``verify.concavity_exclusion_check``.  Quadratic memory."""
    near = np.abs(rbar[:, None] - rbar[None, :]) <= radius
    return (near & inside[None, :]).sum(axis=1) / near.sum(axis=1)


def cell_gradients(fld):
    """Cell-centred bilinear gradient and cell mean as whole (n-1) x (n-1)
    arrays, as ``disc2d`` built them before it went over blocks of rows."""
    v = fld.values
    h = fld.h
    ux = (v[1:, :-1] - v[:-1, :-1] + v[1:, 1:] - v[:-1, 1:]) / (2.0 * h)
    uy = (v[:-1, 1:] - v[:-1, :-1] + v[1:, 1:] - v[1:, :-1]) / (2.0 * h)
    ubar = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
    return ux, uy, ubar


def meshgrid_rim(fld):
    """The rim cells of ``disc2d._rim`` as an (n-1) x (n-1) bool array,
    from the disc mask and 2-D coordinate arrays: a cell is in the rim
    when not all four corners are in the mask and the point of its box
    nearest the origin lies inside the disc."""
    m = fld.mask
    full = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    X, Y = np.meshgrid(fld.coords, fld.coords, indexing="ij")
    nx = np.clip(0.0, X[:-1, :-1], X[1:, 1:])
    ny = np.clip(0.0, Y[:-1, :-1], Y[1:, 1:])
    return ~full & (np.sqrt(nx * nx + ny * ny) < fld.radius)


def loop_donor_walk(fld):
    """``({borrower: donor}, exits)`` of the rim cells' walks, one cell
    at a time.

    The per-cell loop that preceded the array walk of ``disc2d``'s donor
    map, over the cells of ``meshgrid_rim``: a cell steps toward the
    centre along the axis whose centre coordinate is larger in magnitude
    until it stands on a full cell, for at most six steps. A step that
    would leave the grid stops the walk where it began; ``exits`` counts
    those walks.
    """
    m = fld.mask
    full = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    x = fld.coords
    xc = 0.5 * (x[:-1] + x[1:])
    nc = len(xc)
    donors, exits = {}, 0
    for i, j in zip(*np.nonzero(meshgrid_rim(fld))):
        ci, cj = i, j
        for _ in range(6):
            if full[ci, cj]:
                break
            if abs(xc[ci]) >= abs(xc[cj]):
                ci += 1 if xc[ci] < 0 else -1
            else:
                cj += 1 if xc[cj] < 0 else -1
            if not (0 <= ci < nc and 0 <= cj < nc):
                ci, cj = i, j
                exits += 1
                break
        if full[ci, cj]:
            donors[i, j] = ci, cj
    return donors, exits


def loop_donor_gradients(fld, ux, uy):
    """Rim-cell donor gradients from ``loop_donor_walk``; every other
    cell keeps its own gradient."""
    ux = ux.copy()
    uy = uy.copy()
    for (i, j), (ci, cj) in loop_donor_walk(fld)[0].items():
        ux[i, j] = ux[ci, cj]
        uy[i, j] = uy[ci, cj]
    return ux, uy


def plain_bilinear(fld, h, px, py):
    """``disc2d._bilinear`` as one expression, as it was before it formed
    its weights and sums in place."""
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


def batched_ray_samples(fld, thetas):
    """(grid, u) with every ray sampled at once as one (len(thetas), n + 1)
    bilinear gather, as ``disc2d._ray_samples`` did before it filled its
    output a block of rays at a time."""
    from radrelax.disc2d import _bilinear
    from radrelax.radial_solver import RadialGrid

    grid = RadialGrid.uniform(fld.radius, fld.n)
    r = grid.nodes
    c = np.array([math.cos(th) for th in thetas])
    s = np.array([math.sin(th) for th in thetas])
    u = _bilinear(fld, fld.h, c[:, None] * r, s[:, None] * r)
    u[:, -1] = 0.0
    return grid, u


def batched_angular_average(fld, n_thetas):
    """``disc2d.angular_average`` on ``batched_ray_samples``, with the
    axis-0 sum over the whole sample array."""
    from radrelax.disc2d import DiscField

    grid, rows = batched_ray_samples(
        fld, [2.0 * math.pi * k / n_thetas for k in range(n_thetas)])
    acc = np.sum(rows, axis=0) / n_thetas
    x = fld.coords
    rad = np.sqrt(x[:, None] ** 2 + x[None, :] ** 2)
    return DiscField(fld.n, fld.radius, np.interp(rad, grid.nodes, acc))


def exact_line_intercept(x, y):
    """Intercept at x = 0 of the least-squares line through (x, y), in
    exact rational arithmetic on the floats' values."""
    from fractions import Fraction

    xs = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    ys = [Fraction(v) for v in np.asarray(y, dtype=float).tolist()]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((a - xm) * (b - ym) for a, b in zip(xs, ys))
             / sum((a - xm) ** 2 for a in xs))
    return ym - slope * xm


def loop_field_grid(rows):
    """(n, radius, values) of x,y,u node rows placed one at a time on the
    square grid, as the field reader did before it placed them with array
    operations; None when a node is off the grid or missing."""
    n = int(round(math.sqrt(len(rows))))
    radius = max(abs(r[0]) for r in rows)
    x = np.linspace(-radius, radius, n)
    h = 2.0 * radius / (n - 1)
    vals = np.full((n, n), np.nan)
    for px, py, u in rows:
        i = int(round((px + radius) / h))
        j = int(round((py + radius) / h))
        if not (0 <= i < n and 0 <= j < n) or \
                abs(x[i] - px) > 1e-9 * radius or abs(x[j] - py) > 1e-9 * radius:
            return None
        vals[i, j] = u
    return None if np.isnan(vals).any() else (n, radius, vals)


def single_ray_profile(fld, theta):
    """One ray sampled on its own, as ``disc2d.ray_profile`` did before
    the rays were gathered in one batch."""
    from radrelax.disc2d import _bilinear
    from radrelax.radial_solver import RadialGrid, RadialProfile

    grid = RadialGrid.uniform(fld.radius, fld.n)
    r = grid.nodes
    u = _bilinear(fld, fld.h, r * math.cos(theta), r * math.sin(theta))
    return RadialProfile(grid, u)


def meshgrid_cell_area_weights(fld):
    """``disc2d._cell_area_weights`` as it was before it took the corner
    distances from 1-D coordinates: the node distances as a 2-D array,
    the largest of the four corners per cell, the nearest box point from
    2-D coordinate arrays, and each straddling cell's area inside the disc
    from the quadrant areas at its four corners, read from the 2-D
    arrays."""
    R = fld.radius
    h = fld.h
    X, Y = np.meshgrid(fld.coords, fld.coords, indexing="ij")
    rad = np.sqrt(X * X + Y * Y)
    corner_max = np.maximum.reduce([rad[:-1, :-1], rad[1:, :-1],
                                    rad[:-1, 1:], rad[1:, 1:]])
    # nearest point of the cell box to the origin
    nx = np.clip(0.0, X[:-1, :-1], X[1:, 1:])
    ny = np.clip(0.0, Y[:-1, :-1], Y[1:, 1:])
    nearest = np.sqrt(nx * nx + ny * ny)
    w = np.zeros_like(corner_max)
    w[corner_max <= R] = 1.0
    straddle = (corner_max > R) & (nearest < R)

    def quadrant(x, y):
        # signed area of [0, x] x [0, y] inside the circle: columns out to
        # m = min(a, sqrt(R^2 - b^2)) reach b, the rest reach the arc
        a = np.minimum(np.abs(x), R)
        b = np.minimum(np.abs(y), R)
        m = np.minimum(a, np.sqrt((R - b) * (R + b)))
        ca = np.sqrt((R - a) * (R + a))
        cm = np.sqrt((R - m) * (R + m))
        arc = a * ca - m * cm + R * R * (np.arctan2(a, ca) - np.arctan2(m, cm))
        return np.sign(x * y) * (b * m + 0.5 * arc)

    x0, x1 = X[:-1, :-1][straddle], X[1:, 1:][straddle]
    y0, y1 = Y[:-1, :-1][straddle], Y[1:, 1:][straddle]
    w[straddle] = (quadrant(x1, y1) - quadrant(x0, y1) - quadrant(x1, y0)
                   + quadrant(x0, y0)) / h ** 2
    return w


def meshgrid_colinearity_defect(fld):
    """``disc2d.colinearity_defect`` with the cell centres as 2-D meshgrid
    arrays, as it ran before they were broadcast from 1-D."""
    ux, uy, _ = cell_gradients(fld)
    m = fld.mask
    full = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    x = fld.coords
    xc = 0.5 * (x[:-1] + x[1:])
    XC, YC = np.meshgrid(xc, xc, indexing="ij")
    rc = np.sqrt(XC * XC + YC * YC)
    ex, ey = XC / rc, YC / rc
    radial = ux * ex + uy * ey
    tx = ux - radial * ex
    ty = uy - radial * ey
    tang2 = np.sum((tx * tx + ty * ty)[full])
    grad2 = np.sum((ux * ux + uy * uy)[full])
    if grad2 <= 0.0:
        return 0.0
    return float(math.sqrt(tang2 / grad2))


def meshgrid_disc_mask(n, radius):
    """The disc mask of ``DiscField.__post_init__`` from two n x n
    meshgrids, as it was built before the 1-D broadcast."""
    x = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return X * X + Y * Y < radius ** 2


def meshgrid_random_smooth_values(n, radius, seed, n_bumps=4):
    """The values ``DiscField.random_smooth`` passes to the constructor,
    from two n x n meshgrids, as they were built before the 1-D
    broadcast."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = np.zeros((n, n))
    for _ in range(n_bumps):
        rho = 0.6 * radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = rho * math.cos(phi), rho * math.sin(phi)
        sigma = rng.uniform(0.15, 0.35) * radius
        amp = rng.uniform(-1.0, 1.0)
        vals += amp * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2)
                             / (2.0 * sigma * sigma))
    taper = np.clip(1.0 - (X * X + Y * Y) / radius ** 2, 0.0, None)
    return vals * taper


def whole_energy_2d(fld, spec, use_envelope=False):
    """``disc2d.energy_2d`` on whole cell arrays, as it ran before the
    blocks of rows: the rim donors walk one cell at a time and the cells
    are weighed from 2-D corner arrays."""
    from radrelax.radial_solver import ensure_envelope

    ux, uy, ubar = cell_gradients(fld)
    ux, uy = loop_donor_gradients(fld, ux, uy)
    weights = meshgrid_cell_area_weights(fld) * fld.h ** 2
    gnorm = np.hypot(ux, uy)
    W = ensure_envelope(spec) if use_envelope else spec.W
    wvals = W.eval(gnorm.ravel()).reshape(gnorm.shape)
    gvals = spec.G.eval(ubar.ravel()).reshape(ubar.shape)
    return float(np.sum(weights * (wvals + gvals)))


def loop_ray_check(fld, spec, n_thetas):
    """(per_theta, lhs, rhs) of the ray check with one ``energy_reduced``
    call per ray, the loop that preceded the batched ray energies in
    ``disc2d.averaged_ray_energy_check``; the planar side is
    ``whole_energy_2d``."""
    from radrelax.radial_solver import energy_reduced

    thetas = np.arange(n_thetas) * (2.0 * math.pi / n_thetas)
    energies = np.array([
        energy_reduced(single_ray_profile(fld, th), spec, use_envelope=True)
        for th in thetas])
    lhs = float(np.mean(energies))
    return energies, lhs, whole_energy_2d(fld, spec, use_envelope=True)


def loop_angular_average(fld, n_thetas):
    """Angular average by accumulating one ray at a time, then dividing,
    as ``disc2d.angular_average`` did before the batched rays."""
    from radrelax.disc2d import DiscField
    from radrelax.radial_solver import RadialGrid

    grid = RadialGrid.uniform(fld.radius, fld.n)
    acc = np.zeros(fld.n + 1)
    for k in range(n_thetas):
        acc += single_ray_profile(fld, 2.0 * math.pi * k / n_thetas).u
    acc /= n_thetas
    x = fld.coords
    X, Y = np.meshgrid(x, x, indexing="ij")
    rad = np.sqrt(X * X + Y * Y)
    vals = np.interp(rad.ravel(), grid.nodes, acc).reshape(rad.shape)
    return DiscField(fld.n, fld.radius, vals)


def fixed_step_polish_tangency(W, a, b, sigma):
    """``envelope._polish_tangency`` as it ran before its early exits:
    always 4 rounds of 3 Newton steps."""
    for _ in range(4):
        for _ in range(3):
            da = W.derivative(a, 2)
            db = W.derivative(b, 2)
            if abs(da) > 1e-12:
                a -= (W.derivative(a) - sigma) / da
            if abs(db) > 1e-12:
                b -= (W.derivative(b) - sigma) / db
        if b - a > 1e-12:
            sigma = (W.eval(b) - W.eval(a)) / (b - a)
    return a, b, sigma


def allocating_dp_oracle(spec, r_levels=100, u_levels=200, slope_levels=None):
    """``radial_solver.dp_oracle`` as it was before its sweep reused one
    cost buffer: each step allocates the scaled base and the cost matrix."""
    from radrelax.envelope import NumericalFailure
    from radrelax.potentials import sphere_area
    from radrelax.radial_solver import (RadialGrid, RadialProfile, SolveReport,
                                        _slope_bound, ensure_envelope)

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

    D = min(int(slope_levels), u_levels - 1)
    deltas = np.arange(-D, D + 1)
    wc_of_delta = env.eval(deltas * du / dr)
    jj = np.arange(u_levels)
    delta_mat = jj[None, :] - jj[:, None]
    base = np.full((u_levels, u_levels), np.inf)
    ok = np.abs(delta_mat) <= D
    base[ok] = wc_of_delta[delta_mat[ok] + D]
    g_u = spec.G.eval(ugrid)
    base = base + 0.5 * (g_u[:, None] + g_u[None, :])

    value = np.full(u_levels, np.inf)
    value[0] = 0.0
    choice = np.empty((r_levels, u_levels), dtype=np.int32)
    for i in range(r_levels - 1, -1, -1):
        rbar = (i + 1) * dr if i < r_levels - 1 else 0.5 * (nodes[-2] + nodes[-1])
        step = dr if i < r_levels - 1 else nodes[-1] - nodes[-2]
        cost = area * rbar ** (N - 1) * step * base + value[None, :]
        choice[i] = np.argmin(cost, axis=1)
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

    def price(pot_eval):
        s = np.diff(u_path) / np.diff(nodes)
        rb = 0.5 * (nodes[1:] + nodes[:-1])
        st = np.diff(nodes)
        gpart = 0.5 * (g_u[path[:-1]] + g_u[path[1:]])
        e = float(np.sum(area * rb ** (N - 1) * st * (pot_eval(s) + gpart)))
        return e + float(area * (0.25 * dr) ** (N - 1)
                         * (pot_eval(np.zeros(1))[0] + g_u[j0]) * (0.5 * dr))

    relaxed = float(total[j0])
    original = price(lambda s: np.asarray(spec.W.eval(s), dtype=float))
    return SolveReport(
        profile=profile,
        relaxed_energy=relaxed,
        original_energy=original,
        iterations=int(r_levels),
        converged=True,
        discretization="dp_value_grid",
    )


def array_only(W):
    """A copy of W whose every call goes through numpy arrays and
    ``numpy.polynomial.polyval``, as ``Potential1D`` evaluated before its
    Python-float kernels. Self-contained, so that it stays a reference
    for ``_horner``; sampled kinds, whose float arguments take the array
    path as well, keep the package's own."""
    from numpy.polynomial import polynomial as npoly

    from radrelax.potentials import Potential1D

    class ArrayOnlyPotential(Potential1D):
        def _array_path(self, t, order):
            if self.kind == "poly_in_t_squared":
                c = np.asarray(self.coefficients)
                if order == 0:
                    return npoly.polyval(t * t, c)
                dP = npoly.polyval(t * t, npoly.polyder(c, 1))
                if order == 1:
                    return dP * 2.0 * t
                ddP = npoly.polyval(t * t, npoly.polyder(c, 2))
                return ddP * 4.0 * t * t + 2.0 * dP
            out = np.empty_like(t, dtype=float)
            idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
            for k, piece in enumerate(self.coefficients):
                m = idx == k
                if np.any(m):
                    out[m] = npoly.polyval(t[m], npoly.polyder(np.asarray(piece),
                                                               order))
            return out

        def eval(self, t):
            if self.kind == "sampled":
                return super().eval(t)
            arr = np.asarray(t, dtype=float)
            out = self._array_path(np.atleast_1d(arr), 0)
            return float(out[0]) if arr.ndim == 0 else out

        def derivative(self, t, order=1):
            if self.kind == "sampled":
                return super().derivative(t, order)
            if order not in (1, 2):
                raise ValueError("order must be 1 or 2")
            arr = np.asarray(t, dtype=float)
            out = self._array_path(np.atleast_1d(arr), order)
            return float(out[0]) if arr.ndim == 0 else out

    return ArrayOnlyPotential(
        kind=W.kind, coefficients=W.coefficients, breakpoints=W.breakpoints,
        samples=W.samples, even=W.even)


def array_only_envelope(env):
    """A copy of env, over ``array_only`` of its potential, whose scalar
    calls go through numpy, as ``EnvelopeResult`` ran before its scalar
    branches."""
    import dataclasses

    from radrelax.envelope import EnvelopeResult

    class ArrayOnlyEnvelope(EnvelopeResult):
        def eval(self, t):
            arr = np.asarray(t, dtype=float)
            ts = np.atleast_1d(arr)
            if self.potential is not None and self.potential.kind != "sampled":
                out = self.potential.eval(ts).copy()
            else:
                out = np.interp(ts, self.grid, self.values)
                beyond = np.abs(ts) > max(abs(self.grid[0]), self.grid[-1])
                if np.any(beyond) and self.potential is not None:
                    out[beyond] = self.potential.eval(ts[beyond])
            for c in self.components:
                m = c.contains(ts)
                if np.any(m):
                    out[m] = c.alpha * ts[m] + c.beta
            return float(out[0]) if arr.ndim == 0 else out

        def deriv(self, t):
            arr = np.asarray(t, dtype=float)
            ts = np.atleast_1d(arr)
            out = np.asarray(self.potential.derivative(ts), dtype=float).copy()
            for c in self.components:
                m = c.contains(ts)
                if np.any(m):
                    out[m] = c.alpha
            return float(out[0]) if arr.ndim == 0 else out

        def deriv2(self, t):
            arr = np.asarray(t, dtype=float)
            ts = np.atleast_1d(arr)
            out = np.asarray(self.potential.derivative(ts, 2),
                             dtype=float).copy()
            for c in self.components:
                out[c.contains(ts)] = 0.0
            return float(out[0]) if arr.ndim == 0 else out

    fields = {f.name: getattr(env, f.name) for f in dataclasses.fields(env)}
    fields["potential"] = array_only(env.potential)
    return ArrayOnlyEnvelope(**fields)


def banded_newton_direction(diag, off, mass, g):
    """The Levenberg-shifted Newton direction by LAPACK's banded Cholesky
    solve, as radial_solver computed it before its cyclic reduction."""
    from scipy.linalg import LinAlgError, solveh_banded

    ab = np.empty((2, len(diag)))
    ab[0, 0] = 0.0
    ab[0, 1:] = off
    lam = 0.0
    # a positive definite matrix needs a positive diagonal; start at twice
    # the shift that gives one. Inside detachment intervals this leaves the
    # smooth mode nearly singular, and the long step along it is what walks
    # slopes out of the interval: starting at 4x or 10x took 3.4x as many
    # steps on the 1024-cell prototype and stalled on the three-well spec
    lam0 = max(2.0 * float(np.max(-diag / mass)), 1e-8)
    while True:
        ab[1] = diag + lam * mass
        try:
            return -solveh_banded(ab, g)
        except LinAlgError:
            lam = 10.0 * lam if lam > 0.0 else lam0


def ladder_newton_direction(diag, off, mass, g):
    """``radial_solver._newton_direction`` trying the shifts 0, lam0,
    10 lam0, ... one at a time, as it did before it bracketed them."""
    from radrelax.radial_solver import _spd_tridiagonal_solve

    lam = 0.0
    lam0 = max(2.0 * float(np.max(-diag / mass)), 1e-8)
    while True:
        x = _spd_tridiagonal_solve(diag + lam * mass, off, g)
        if x is not None:
            return -x
        lam = 10.0 * lam if lam > 0.0 else lam0
