"""Independent reference computations used only by the tests.

Everything here is a second route to a quantity the package computes,
written against different algorithms so agreement is evidence and not
tautology.
"""

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


def quadratic_outermost_levels(W, env, y):
    """Largest nu >= 0 with W(nu) = W(y), per entry of y.

    The K x 4097 bracket-matrix form that preceded the suffix-table search
    in ``radial_solver._outermost_levels``: every scan interval is tested
    against every target and the last bracketing one is kept.  Quadratic
    memory; call it only on small K.
    """
    M = env.M
    T = max(float(W.domain_halfwidth), 1.5 * float(np.max(y, initial=0.0)) + 1.0,
            M + 1.0)
    grid = np.linspace(M, T, 4097)
    vals = np.asarray(W.eval(grid), dtype=float)
    targets = np.asarray(W.eval(y), dtype=float)
    sign = vals[None, :] - targets[:, None]
    bracket = sign[:, :-1] * sign[:, 1:] <= 0.0
    has = bracket.any(axis=1)
    last = grid.shape[0] - 2 - np.argmax(bracket[:, ::-1], axis=1)
    lo = np.where(has, grid[last], np.maximum(y, M))
    hi = np.where(has, grid[np.minimum(last + 1, len(grid) - 1)], lo)
    flo = np.asarray(W.eval(lo), dtype=float) - targets
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(W.eval(mid), dtype=float) - targets
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    nu = 0.5 * (lo + hi)
    nu = np.where(~has, np.maximum(y, M), nu)
    nu = np.maximum(nu, y)
    snap = np.abs(nu - y) <= 1e-7 * np.maximum(1.0, np.abs(y))
    return np.where(snap, y, nu)


def quadratic_window_density(rbar, inside, radius):
    """Per-cell fraction of neighbours within ``radius`` that are inside,
    from the full K x K neighbour matrix that preceded the sliding window
    in ``verify.concavity_exclusion_check``.  Quadratic memory."""
    near = np.abs(rbar[:, None] - rbar[None, :]) <= radius
    return (near & inside[None, :]).sum(axis=1) / near.sum(axis=1)
