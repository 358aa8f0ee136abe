"""Numerical verification of the qualitative properties of minimizers.

Each check returns a record with a stable descriptive ``property`` string,
a pass flag, a signed margin (positive means headroom), and details. The
overall report is the conjunction. All checks are pure functions of their
inputs and rerun identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from radrelax.envelope import EnvelopeResult
from radrelax.potentials import ProblemSpec, sphere_area
from radrelax.radial_solver import RadialProfile, energy_reduced

__all__ = [
    "VerifyReport",
    "detachment_avoidance_report",
    "slope_and_sign_check",
    "corner_condition_check",
    "euler_lagrange_affine_check",
    "concavity_exclusion_check",
    "energy_consistency",
    "consistency_tolerance",
    "full_report",
]

_EPS_SLOPE = 1e-6

# the property each check's record states, by record name
_PROPERTIES = {
    "detachment_avoidance":
        "minimizer slopes avoid the interiors of detachment intervals",
    "slope_and_sign":
        "du/dr <= -M on almost every cell and u keeps a single sign",
    "corner_condition": "the limiting slope at the origin equals -M",
    "euler_lagrange_affine":
        "-(N-1) alpha / r + G'(u) = 0 where the slope sits in a "
        "nonconstant affine interval",
    "concavity_exclusion":
        "strict concavity of G excludes density points of affine slope sets",
    "energy_consistency": "W and its envelope price the minimizer identically",
}


def _rec(name, passed, margin, details) -> dict:
    return {
        "name": name,
        "property": _PROPERTIES[name],
        "passed": bool(passed),
        "margin": float(margin),
        "details": details,
    }


@dataclass
class VerifyReport:
    records: list
    overall: bool
    grid: dict

    def to_dict(self) -> dict:
        return {"overall": bool(self.overall), "grid": dict(self.grid),
                "records": list(self.records)}

    def _record(self, name: str) -> dict:
        return next(r for r in self.records if r["name"] == name)


def _interior_mask(slopes: np.ndarray, components) -> np.ndarray:
    mask = np.zeros_like(slopes, dtype=bool)
    for c in components:
        mask |= (slopes > c.a + _EPS_SLOPE) & (slopes < c.b - _EPS_SLOPE)
    return mask


def detachment_avoidance_report(profile: RadialProfile,
                                env: EnvelopeResult) -> dict:
    """Radial measure of cells whose slope sits strictly inside a detachment
    interval; minimizers concentrate this on at most a grid-resolution set."""
    dr = profile.grid.dr
    inside = _interior_mask(profile.slopes, env.components)
    measure = float(np.sum(dr[inside]))
    threshold = 2.0 * float(np.max(dr))
    return _rec(
        "detachment_avoidance",
        measure <= threshold,
        threshold - measure,
        {"measure": measure, "threshold": threshold,
         "cells_inside": int(np.count_nonzero(inside))},
    )


def slope_and_sign_check(profile: RadialProfile, M: float) -> dict:
    """At least 99% of cells have slope <= -M (+1e-6), and the nodal values
    keep one sign up to 1e-9 slack."""
    s = profile.slopes
    u = profile.u
    frac = float(np.mean(s <= -M + 1e-6))
    slack = 1e-9 * max(1.0, float(np.max(np.abs(u))))
    nonneg = bool(np.all(u >= -slack))
    nonpos = bool(np.all(u <= slack))
    sign_ok = nonneg or nonpos
    return _rec(
        "slope_and_sign",
        frac >= 0.99 and sign_ok,
        frac - 0.99 if sign_ok else -1.0,
        {"fraction_steep": frac, "nonnegative": nonneg, "nonpositive": nonpos},
    )


def _corner_window(window: Optional[float], radius: float) -> float:
    # the corner window is 0.2 R unless one is given
    return 0.2 * radius if window is None else window


def _corner_cells(rbar: np.ndarray, window: float) -> np.ndarray:
    # the cells of the corner fit, which needs 8 (ValueError otherwise)
    sel = rbar < window
    if int(np.count_nonzero(sel)) < 8:
        raise ValueError(
            f"corner window {window} holds {int(np.count_nonzero(sel))} cells; "
            "need at least 8")
    return sel


def corner_condition_check(profile: RadialProfile, M: float,
                           window: float, tol: float = 0.05) -> dict:
    """Least-squares linear fit of cell slopes on rbar < window, extrapolated
    to r = 0; the intercept must match -M within tol.

    The line is the closed-form centred fit, so the check makes no LAPACK
    call (whose first use leaves about 1 MB of workspace resident).

    Raises:
        ValueError: when fewer than 8 cells fall inside the window, or
            when the slopes are so large that the intercept is not finite.
    """
    rbar = profile.grid.midpoints
    sel = _corner_cells(rbar, window)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = rbar[sel], profile.slopes[sel]
        xm, ym = np.mean(x), np.mean(y)
        dx = x - xm
        fit0 = float(ym - xm * np.sum(dx * (y - ym)) / np.sum(dx * dx))
    if not math.isfinite(fit0):
        raise ValueError(f"corner fit at r = 0 is not finite ({fit0})")
    err = abs(fit0 + M)
    return _rec(
        "corner_condition",
        err <= tol,
        tol - err,
        {"fit_at_zero": fit0, "target": -M, "window": float(window),
         "cells": int(np.count_nonzero(sel))},
    )


def _require_poly_G(spec: ProblemSpec):
    if spec.G.kind == "sampled":
        raise ValueError("check requires a polynomial G")


def euler_lagrange_affine_check(profile: RadialProfile, env: EnvelopeResult,
                                spec: ProblemSpec) -> dict:
    """On cells whose slope lies inside a nonconstant affine interval with
    slope alpha, the radial stationarity residual -(N-1) alpha / r + G'(u)
    must vanish; vacuously passes when no such cell exists (the expected
    outcome for minimizers).

    Raises:
        ValueError: for sampled G (needs trustworthy derivatives).
    """
    _require_poly_G(spec)
    s = profile.slopes
    # each cell's affine slope; NaN where no nonconstant interval holds it
    alphas = np.full(len(s), np.nan)
    for c in env.components:
        if not c.is_constant:
            alphas[(s > c.a + _EPS_SLOPE) & (s < c.b - _EPS_SLOPE)] = c.alpha
    inside = ~np.isnan(alphas)
    if not np.any(inside):
        return _rec("euler_lagrange_affine", True, 0.0,
                    {"vacuous": True, "cells": 0})
    rbar = profile.grid.midpoints[inside]
    ubar = profile.midpoint_values[inside]
    res = np.abs(-(spec.dimension - 1) * alphas[inside] / rbar
                 + spec.G.derivative(ubar))
    gmax = float(np.max(np.abs(spec.G.derivative(profile.midpoint_values))))
    tol = max(1e-8, 5.0 * float(np.max(profile.grid.dr))) * (1.0 + gmax)
    return _rec(
        "euler_lagrange_affine",
        bool(np.max(res) <= tol),
        tol - float(np.max(res)),
        {"vacuous": False, "cells": int(np.count_nonzero(inside)),
         "max_residual": float(np.max(res)), "tolerance": tol,
         "consistent_cells": int(np.count_nonzero(res <= tol))},
    )


def _window_density(rbar: np.ndarray, inside: np.ndarray,
                    radius: float) -> np.ndarray:
    """Fraction of cells j with |rbar_i - rbar_j| <= radius that are inside,
    per cell i, for strictly increasing rbar.

    The neighbours of i form a window [lo_i, hi_i) of the sorted midpoints:
    searchsorted places its edges, each edge is then moved until it agrees
    with the exact float predicate (which is monotone in j), and a
    cumulative sum counts the inside cells. The integer counts, and so the
    densities, equal those of the full K x K neighbour matrix, in O(K log K)
    time and O(K) memory.
    """
    k = len(rbar)
    idx = np.arange(k)
    lo = np.searchsorted(rbar, rbar - radius, side="left")
    hi = np.searchsorted(rbar, rbar + radius, side="right")

    def near(j):
        return np.abs(rbar - rbar[j]) <= radius

    while True:
        grow_lo = (lo > 0) & near(np.maximum(lo - 1, 0))
        shrink_lo = (lo < idx) & ~near(lo)
        grow_hi = (hi < k) & near(np.minimum(hi, k - 1))
        shrink_hi = (hi > idx + 1) & ~near(hi - 1)
        if not (grow_lo.any() or shrink_lo.any()
                or grow_hi.any() or shrink_hi.any()):
            break
        lo = lo - grow_lo + shrink_lo
        hi = hi + grow_hi - shrink_hi
    counts = np.concatenate([[0], np.cumsum(inside)])
    return (counts[hi] - counts[lo]) / (hi - lo)


def concavity_exclusion_check(profile: RadialProfile, env: EnvelopeResult,
                              spec: ProblemSpec) -> dict:
    """Cells that are density points (neighborhood fraction > 1/2 within
    radius 5 max(dr)) of an affine slope set must not see strictly concave G.

    Each cell's neighbourhood is a window of the sorted midpoints, counted
    with a cumulative sum (see ``_window_density``): O(K log K) time and
    O(K) memory for K cells.

    Raises:
        ValueError: for sampled G (needs second derivatives).
    """
    _require_poly_G(spec)
    s = profile.slopes
    inside = _interior_mask(s, env.components)
    if not np.any(inside):
        return _rec("concavity_exclusion", True, 0.0,
                    {"vacuous": True, "density_cells": 0})
    rbar = profile.grid.midpoints
    radius = 5.0 * float(np.max(profile.grid.dr))
    density = _window_density(rbar, inside, radius)
    dens_pts = inside & (density > 0.5)
    if not np.any(dens_pts):
        return _rec("concavity_exclusion", True, 0.0,
                    {"vacuous": False, "density_cells": 0})
    g2 = spec.G.derivative(profile.midpoint_values[dens_pts], order=2)
    worst = float(np.min(g2))
    return _rec(
        "concavity_exclusion",
        worst >= -1e-9,
        worst + 1e-9,
        {"vacuous": False, "density_cells": int(np.count_nonzero(dens_pts)),
         "min_G_second_derivative": worst},
    )


def _component_gap_bound(env: EnvelopeResult) -> float:
    worst = 0.0
    W = env.potential
    for c in env.components:
        t = np.linspace(c.a, c.b, 258)[1:-1]
        gap = np.asarray(W.eval(t)) - (c.alpha * t + c.beta)
        worst = max(worst, float(np.max(gap)))
    return worst


def consistency_tolerance(profile: RadialProfile, spec: ProblemSpec,
                          env: EnvelopeResult, relaxed_energy: float) -> float:
    """1e-6 relative to the profile's relaxed energy plus the price of a
    grid-resolution detachment set."""
    maxdr = float(np.max(profile.grid.dr))
    area = sphere_area(spec.dimension)
    allowance = (2.0 * maxdr * area * spec.radius ** (spec.dimension - 1)
                 * _component_gap_bound(env))
    return 1e-6 * (1.0 + abs(relaxed_energy)) + allowance


def energy_consistency(profile: RadialProfile, spec: ProblemSpec,
                       env: EnvelopeResult) -> dict:
    """The potential and its envelope must price the profile identically up
    to the tolerance for an allowed grid-resolution detachment set. The
    record's energies are the price ``solve`` and ``verify`` report."""
    e_orig = energy_reduced(profile, spec, use_envelope=False)
    e_rel = energy_reduced(profile, spec, use_envelope=True)
    gap = abs(e_orig - e_rel)
    tol = consistency_tolerance(profile, spec, env, e_rel)
    return _rec(
        "energy_consistency",
        gap <= tol,
        tol - gap,
        {"original_energy": e_orig, "relaxed_energy": e_rel, "gap": gap,
         "relative_gap": gap / (1.0 + abs(e_rel)), "tolerance": tol},
    )


def full_report(profile: RadialProfile, spec: ProblemSpec,
                env: EnvelopeResult, corner_window: Optional[float] = None,
                corner_tol: float = 0.05) -> VerifyReport:
    """Run every applicable check and conjoin the outcomes.

    The derivative-based checks are recorded as skipped (passing) when G is
    sampled; call them directly to get the hard error instead.
    """
    corner_window = _corner_window(corner_window, spec.radius)
    records = [
        detachment_avoidance_report(profile, env),
        slope_and_sign_check(profile, env.M),
        corner_condition_check(profile, env.M, corner_window, corner_tol),
    ]
    for name, check in (("euler_lagrange_affine", euler_lagrange_affine_check),
                        ("concavity_exclusion", concavity_exclusion_check)):
        records.append(_rec(name, True, 0.0, {"skipped": "sampled G"})
                       if spec.G.kind == "sampled"
                       else check(profile, env, spec))
    records.append(energy_consistency(profile, spec, env))

    mu = profile.midpoint_values
    span = np.linspace(float(np.min(mu)), float(np.max(mu)), 512)
    lipschitz = float(np.max(np.abs(spec.G.derivative(span))))
    grid_meta = {
        "cells": int(profile.grid.cells),
        "max_dr": float(np.max(profile.grid.dr)),
        "radius": float(profile.grid.nodes[-1]),
        "lipschitz_G": lipschitz,
    }
    return VerifyReport(records=records,
                        overall=all(r["passed"] for r in records),
                        grid=grid_meta)
