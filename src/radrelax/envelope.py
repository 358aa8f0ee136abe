"""Convex envelopes of even coercive 1D potentials.

The envelope of a sampled graph is its lower convex hull; where it detaches
from the potential it is affine. This module extracts the maximal open
detachment intervals and reports whether every interval is contained in
(-M, M). For polynomial kinds each interval's endpoints are the tangency
points of its affine piece, found by Newton's method from the hull chord
and checked afterwards; a check that fails raises ``NumericalFailure``.

Representable inputs (polynomial pieces, finite samples) only ever produce
finitely many detachment intervals; potentials with infinitely many are out
of representational scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from radrelax.potentials import (Potential1D, _require_coercive,
                                 _second_derivative, compute_M)

__all__ = ["DetachmentComponent", "EnvelopeResult", "NumericalFailure", "convexify"]


class NumericalFailure(RuntimeError):
    """A numerical invariant of the pipeline failed."""


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
    wcaffine_holds: bool
    potential: Potential1D = field(repr=False, compare=False)

    def _patched(self, t, outside, inside):
        # outside(t) everywhere, then inside(c, t) on each component c. A
        # float argument (np.float64 included) of a polynomial W stays a
        # Python float, with the bits an array argument gives
        if isinstance(t, float) and self.potential.kind != "sampled":
            out = outside(t)
            for c in self.components:
                if c.contains(t):
                    out = inside(c, t)
            return float(out)
        arr = np.asarray(t, dtype=float)
        ts = np.atleast_1d(arr)
        out = np.array(outside(ts), dtype=float)
        for c in self.components:
            m = c.contains(ts)
            if np.any(m):
                out[m] = inside(c, ts[m])
        return float(out[0]) if arr.ndim == 0 else out

    def _w_or_hull(self, ts):
        # a sampled W's envelope is its hull between the samples, W beyond
        if self.potential.kind != "sampled":
            return self.potential.eval(ts)
        out = np.interp(ts, self.grid, self.values)
        beyond = np.abs(ts) > max(abs(self.grid[0]), self.grid[-1])
        if np.any(beyond):
            out[beyond] = self.potential.eval(ts[beyond])
        return out

    def eval(self, t):
        """Envelope value: W outside detachment intervals, affine inside."""
        return self._patched(t, self._w_or_hull, lambda c, s: c.alpha * s + c.beta)

    def deriv(self, t):
        """Envelope slope: W' outside detachment intervals, alpha inside."""
        return self._patched(t, self.potential.derivative, lambda c, s: c.alpha)

    def deriv2(self, t):
        """Envelope curvature: W'' outside detachment intervals, 0 inside."""
        return self._patched(t, lambda s: _second_derivative(self.potential, s),
                             lambda c, s: 0.0)

    def to_dict(self) -> dict:
        return {
            "M": float(self.M),
            "wcaffine_holds": bool(self.wcaffine_holds),
            "components": [c.to_dict() for c in self.components],
            "grid_points": int(len(self.grid)),
        }


def _lower_hull(t: np.ndarray, w: np.ndarray) -> list:
    # monotone chain over x-sorted points; linear time.  Python floats are
    # IEEE doubles, so the predicate is the one numpy scalars would give
    ts, ws = t.tolist(), w.tolist()
    idx: list = []
    for i, (ti, wi) in enumerate(zip(ts, ws)):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            if (ws[b] - ws[a]) * (ti - ts[a]) >= (wi - ws[a]) * (ts[b] - ts[a]):
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def _hull_values(t: np.ndarray, w: np.ndarray, hull: list) -> np.ndarray:
    # np.interp evaluates each hull chord left-anchored,
    # slope * (t - t[ia]) + w[ia], and returns a vertex's own sample
    return np.interp(t, t[hull], w[hull])


def _refine_tangency(W, t, w, ia, ib, tol):
    """Common tangent of W near the hull chord from node ia to node ib.

    Newton's method starts from the chord itself (its end nodes and its
    slope) and is then checked, not trusted: the result must have a < b,
    W'(a) = W'(b) = sigma to 1e-9 relative, and W minus the line no lower
    than -tol on the grid nodes of [a, b].

    Raises:
        NumericalFailure: if any of those checks fails.
    """
    sigma = (w[ib] - w[ia]) / (t[ib] - t[ia])
    a, b, sigma = _polish_tangency(W, float(t[ia]), float(t[ib]), sigma)
    beta = 0.5 * ((W.eval(a) - sigma * a) + (W.eval(b) - sigma * b))
    where = f"tangency near [{t[ia]:.6g}, {t[ib]:.6g}]"
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise NumericalFailure(
            f"{where}: contacts a = {a:.10g}, b = {b:.10g}, need finite a < b")
    slope_tol = 1e-9 * max(1.0, abs(sigma))
    residual = max(abs(W.derivative(a) - sigma), abs(W.derivative(b) - sigma))
    if not residual <= slope_tol:
        raise NumericalFailure(f"{where}: slope residual {residual:.3g}")
    inside = (t >= a) & (t <= b)
    cut = float(np.min(w[inside] - (sigma * t[inside] + beta), initial=0.0))
    if cut < -tol:
        raise NumericalFailure(f"{where}: the tangent cuts W by {-cut:.3g}")
    return float(a), float(b), float(sigma), float(beta)


def _polish_tangency(W, a, b, sigma):
    # alternating Newton steps on W'(x) = sigma with the chord-slope update;
    # the slope map is flat at the common tangent, so this converges
    # quadratically to float resolution. A step (a round) that changes
    # nothing would repeat unchanged to the end, so it ends its loop
    for _ in range(4):
        start = (a, b, sigma)
        for _ in range(3):
            before = (a, b)
            da = W.derivative(a, 2)
            db = W.derivative(b, 2)
            if abs(da) > 1e-12:
                a -= (W.derivative(a) - sigma) / da
            if abs(db) > 1e-12:
                b -= (W.derivative(b) - sigma) / db
            if (a, b) == before:
                break
        if b - a > 1e-12:
            sigma = (W.eval(b) - W.eval(a)) / (b - a)
        if (a, b, sigma) == start:
            break
    return a, b, sigma


def _runs(mask: np.ndarray) -> list:
    # (first, last) index of each maximal run of True
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def _extract_components(t, w, env, W, M):
    refine = W.kind != "sampled"
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
            a, b, alpha, beta = _refine_tangency(W, t, w, ia, ib, tol)
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
    convex). Each hull chord across a detachment run then seeds Newton's
    method for the common tangent; the envelope is re-evaluated exactly (W
    outside the intervals, the common tangent inside). Sampled kinds keep
    their own grid as ground truth: the envelope is the lower hull of the
    samples, with no sub-node refinement, and ``grid_points`` is not used.

    Raises:
        ValueError: on fewer than 64 grid points, odd W, or non-coercive W.
        NumericalFailure: if a tangency fails its checks (see
            ``_refine_tangency``).
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
        comps = _extract_components(t, w, env, W, M)
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
        comps = _extract_components(t, w, env, W, M)
        env = w.copy()
        for c in comps:
            m = c.contains(t)
            env[m] = c.alpha * t[m] + c.beta

    return EnvelopeResult(
        grid=t, values=env, w_values=w, components=comps, M=M,
        wcaffine_holds=_wcaffine(comps, M), potential=W)

