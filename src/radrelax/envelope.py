"""Convex envelopes of even coercive 1D potentials.

The envelope of a sampled graph is its lower convex hull; where it detaches
from the potential it is affine. This module extracts the maximal open
detachment intervals, refines their endpoints to tangency for polynomial
kinds, and reports whether every interval is contained in (-M, M).

Representable inputs (polynomial pieces, finite samples) only ever produce
finitely many detachment intervals; potentials with infinitely many are out
of representational scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from radrelax.potentials import (Potential1D, _require_coercive,
                                 _second_derivative, compute_M)

__all__ = ["DetachmentComponent", "EnvelopeResult", "convexify", "detachment_components"]

_ENDPOINT_TOL = 1e-10


@dataclass
class DetachmentComponent:
    """Maximal open interval (a, b) where the envelope is affine below W."""

    a: float
    b: float
    alpha: float
    beta: float
    is_constant: bool

    def contains(self, t):
        return (t > self.a) & (t < self.b)

    def to_dict(self) -> dict:
        return {
            "a": float(self.a),
            "b": float(self.b),
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "is_constant": bool(self.is_constant),
        }


@dataclass
class EnvelopeResult:
    """Envelope values on a symmetric grid plus detachment structure."""

    grid: np.ndarray
    values: np.ndarray
    w_values: np.ndarray
    components: List[DetachmentComponent]
    M: float
    constant_radius_M0: float
    wcaffine_holds: bool
    potential: Potential1D = field(repr=False, compare=False, default=None)

    def eval(self, t):
        """Envelope value: W outside detachment intervals, affine inside."""
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
        """Envelope slope: W' outside detachment intervals, alpha inside."""
        arr = np.asarray(t, dtype=float)
        ts = np.atleast_1d(arr)
        out = np.asarray(self.potential.derivative(ts), dtype=float).copy()
        for c in self.components:
            m = c.contains(ts)
            if np.any(m):
                out[m] = c.alpha
        return float(out[0]) if arr.ndim == 0 else out

    def deriv2(self, t):
        """Envelope curvature: W'' outside detachment intervals, 0 inside."""
        arr = np.asarray(t, dtype=float)
        ts = np.atleast_1d(arr)
        out = np.asarray(_second_derivative(self.potential, ts), dtype=float).copy()
        for c in self.components:
            out[c.contains(ts)] = 0.0
        return float(out[0]) if arr.ndim == 0 else out

    def to_dict(self) -> dict:
        return {
            "M": float(self.M),
            "constant_radius_M0": float(self.constant_radius_M0),
            "wcaffine_holds": bool(self.wcaffine_holds),
            "components": [c.to_dict() for c in self.components],
            "grid_points": int(len(self.grid)),
        }


def _lower_hull(t: np.ndarray, w: np.ndarray) -> list:
    # monotone chain over x-sorted points; linear time
    idx: list = []
    for i in range(len(t)):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            if (w[b] - w[a]) * (t[i] - t[a]) >= (w[i] - w[a]) * (t[b] - t[a]):
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def _hull_values(t: np.ndarray, w: np.ndarray, hull: list) -> np.ndarray:
    env = np.empty_like(w)
    for ia, ib in zip(hull[:-1], hull[1:]):
        s = (w[ib] - w[ia]) / (t[ib] - t[ia])
        env[ia:ib] = w[ia] + (t[ia:ib] - t[ia]) * s
    env[hull[-1]] = w[hull[-1]]
    return env


def _support_argmin(W: Potential1D, sigma: float, lo: float, hi: float) -> float:
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda x: W.eval(x) - sigma * x, bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-13})
    return float(res.x)


def _refine_tangency(W, t, w, ia, ib):
    """Bitangent line near contact nodes ia, ib by bisection on its slope.

    g(sigma) = support gap between the two branches; g is strictly increasing
    (g' = b - a > 0), so a sign-changing bracket around the raw chord slope
    pins the common tangent to floating-point resolution.
    """
    h = t[1] - t[0]
    lo_a, hi_a = t[ia] - 2 * h, t[ia] + 2 * h
    lo_b, hi_b = t[ib] - 2 * h, t[ib] + 2 * h

    def gap(sigma):
        a = _support_argmin(W, sigma, lo_a, hi_a)
        b = _support_argmin(W, sigma, lo_b, hi_b)
        return (W.eval(a) - sigma * a) - (W.eval(b) - sigma * b), a, b

    sigma0 = (w[ib] - w[ia]) / (t[ib] - t[ia])
    dsig = max(1e-8, 1e-3 * abs(sigma0), h)
    lo_s, hi_s = sigma0 - dsig, sigma0 + dsig
    glo, _, _ = gap(lo_s)
    ghi, _, _ = gap(hi_s)
    for _ in range(60):
        if glo < 0.0 <= ghi:
            break
        if glo >= 0.0:
            lo_s -= dsig
            glo, _, _ = gap(lo_s)
        if ghi < 0.0:
            hi_s += dsig
            ghi, _, _ = gap(hi_s)
        dsig *= 2.0
    a = b = None
    for _ in range(200):
        mid = 0.5 * (lo_s + hi_s)
        gmid, a, b = gap(mid)
        if gmid < 0.0:
            lo_s = mid
        else:
            hi_s = mid
        if hi_s - lo_s < 1e-15 * max(1.0, abs(mid)):
            break
    sigma = 0.5 * (lo_s + hi_s)
    a, b, sigma = _polish_tangency(W, a, b, sigma)
    beta = 0.5 * ((W.eval(a) - sigma * a) + (W.eval(b) - sigma * b))
    return float(a), float(b), float(sigma), float(beta)


def _polish_tangency(W, a, b, sigma):
    # alternating Newton steps on W'(x) = sigma with the chord-slope update;
    # quadratically sharpens the bisection estimate to float resolution
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


def _runs(mask: np.ndarray) -> list:
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


def _extract_components(t, w, env, W, M, refine):
    scale = float(np.max(w) - np.min(w)) or 1.0
    tol = 1e-9 * scale
    comps = []
    for i0, i1 in _runs(env < w - tol):
        ia, ib = max(i0 - 1, 0), min(i1 + 1, len(t) - 1)
        slope = (w[ib] - w[ia]) / (t[ib] - t[ia])
        if refine and t[ia] < 0.0 < t[ib] and W.is_even():
            # even potential: the straddling component is the constant plateau
            a, b, alpha, beta = -M, M, 0.0, W.eval(M)
        elif refine:
            a, b, alpha, beta = _refine_tangency(W, t, w, ia, ib)
        else:
            a, b, alpha = float(t[ia]), float(t[ib]), float(slope)
            beta = float(w[ia] - alpha * t[ia])
        slope_scale = max(1.0, scale / float(t[-1] - t[0]))
        comps.append(DetachmentComponent(
            a=a, b=b, alpha=alpha, beta=beta,
            is_constant=abs(alpha) <= 1e-12 * slope_scale))
    return _merge_agreeing(comps, t, scale)


def _merge_agreeing(comps, t, scale):
    # components separated by a single touching node merge if affine data agree
    if len(comps) < 2:
        return comps
    h = float(t[1] - t[0]) if len(t) > 1 else 0.0
    merged = [comps[0]]
    for c in comps[1:]:
        prev = merged[-1]
        gap = c.a - prev.b
        agree = (abs(c.alpha - prev.alpha) <= 1e-8 * max(1.0, scale)
                 and abs(c.beta - prev.beta) <= 1e-8 * max(1.0, scale))
        if gap <= 1.5 * h and agree:
            merged[-1] = DetachmentComponent(
                a=prev.a, b=c.b, alpha=prev.alpha, beta=prev.beta,
                is_constant=prev.is_constant and c.is_constant)
        else:
            merged.append(c)
    return merged


def _wcaffine(comps, M):
    return all(c.a >= -M - 1e-8 and c.b <= M + 1e-8 for c in comps)


def convexify(W: Potential1D, grid_points: int = 4097) -> EnvelopeResult:
    """Lower convex envelope of an even coercive potential.

    Polynomial kinds are sampled symmetrically on [-T, T] with T pushed past
    the outermost inflection (extended automatically if the tail is not yet
    convex); component endpoints are then refined to the true tangency and
    the envelope re-evaluated exactly (W outside the intervals, the common
    tangent inside). Sampled kinds keep their own grid as ground truth: the
    envelope is the lower hull of the samples, with no sub-node refinement,
    and ``grid_points`` is not used.

    Raises:
        ValueError: on fewer than 64 grid points, odd W, or non-coercive W.
    """
    if grid_points < 64:
        raise ValueError("grid_points must be at least 64")
    _require_coercive(W)
    if not W.is_even():
        raise ValueError("W must be even")

    M = compute_M(W)
    if W.kind == "sampled":
        t = np.asarray(W.samples[0], dtype=float)
        w = np.asarray(W.samples[1], dtype=float)
        env = _hull_values(t, w, _lower_hull(t, w))
        comps = _extract_components(t, w, env, W, M, refine=False)
    else:
        T = float(W.domain_halfwidth)
        for _ in range(8):
            tail = np.linspace(0.9 * T, T, 64)
            if np.all(W.derivative(tail, 2) >= -1e-9):
                break
            T *= 1.6
        t = np.linspace(-T, T, grid_points)
        w = W.eval(t)
        env = _hull_values(t, w, _lower_hull(t, w))
        comps = _extract_components(t, w, env, W, M, refine=True)
        env = w.copy()
        for c in comps:
            m = c.contains(t)
            env[m] = c.alpha * t[m] + c.beta

    return EnvelopeResult(
        grid=t, values=env, w_values=w, components=comps, M=M,
        constant_radius_M0=M, wcaffine_holds=_wcaffine(comps, M),
        potential=W)


def detachment_components(env: EnvelopeResult) -> List[DetachmentComponent]:
    """Re-extract the detachment intervals of an envelope.

    Pure recomputation from the stored grid and potential; refreshes the
    ``components`` and ``wcaffine_holds`` fields and returns the list.
    Idempotent on convexify output up to the endpoint refinement target.
    """
    refine = env.potential is not None and env.potential.kind != "sampled"
    comps = _extract_components(env.grid, env.w_values, env.values,
                                env.potential, env.M, refine=refine)
    env.components = comps
    env.wcaffine_holds = _wcaffine(comps, env.M)
    return comps
