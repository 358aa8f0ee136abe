"""Even 1D potentials, lower-order terms, and problem descriptions.

A problem is posed on the ball of radius R in dimension N >= 2 and consists of
a gradient potential W acting on |grad u| and a zero-order term G acting on u.
W must be even in the scalar slope variable; it may be polynomial in t^2,
piecewise polynomial, or sampled on a grid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "Potential1D",
    "GrowthDeclaration",
    "ProblemSpec",
    "ShapeReport",
    "ValidationReport",
    "compute_M",
    "check_G_shape",
    "validate_spec",
]

KINDS = ("poly_in_t_squared", "piecewise_poly", "sampled")
SHAPE_FLAGS = ("none", "G2", "G2_strict")

_SCAN_POINTS = 10_000
_EVEN_TOL = 1e-12


def _as_tuple(x) -> tuple:
    return tuple(np.asarray(x, dtype=float).tolist())


def _horner(c: tuple, x):
    # numpy.polynomial.polyval's recurrence, on a Python float or an
    # array: the same IEEE operations in the same order, so the same bits
    y = c[-1] + x * 0
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


def _pchip_end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, kept shape-preserving (Moler,
    # "Numerical Computing with MATLAB", pchiptx); both ends at once
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    d[flip] = 0.0
    d[~flip & steep] = 3.0 * m0[~flip & steep]
    return d


def _pchip_coeffs(x: np.ndarray, y: np.ndarray) -> tuple:
    """Per-interval cubic coefficients (c0, c1, c2, c3) of the monotone
    piecewise cubic interpolant (PCHIP; Fritsch and Carlson, SIAM J. Numer.
    Anal. 17, 1980), highest power first, in the local variable s = t - x[i].

    Node slopes are the weighted harmonic mean of the neighbouring secants,
    zero where the secants change sign or one of them vanishes (Fritsch and
    Butland, SIAM J. Sci. Stat. Comput. 5, 1984). The operations and their
    order are those of SciPy's PCHIP interpolator, so the cubics are its
    cubics bit for bit.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.zeros_like(y)
    # tiny secants overflow w / m to inf, and the node slope 1 / inf is 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    d[[0, -1]] = _pchip_end_slope(h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]])
    # the Hermite form of each interval, as CubicHermiteSpline builds it
    t = (d[:-1] + d[1:] - 2 * m) / h
    return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]


def _pchip_eval(x: np.ndarray, coeffs: tuple, t: np.ndarray) -> np.ndarray:
    """Evaluate the cubics at t as SciPy's PPoly does: the end cubics
    continue on both sides, and the sum starts from 0.0 so that signed
    zeros come out as PPoly's. Infinite t gives inf or NaN silently, as
    PPoly does."""
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    c0, c1, c2, c3 = (c[i] for c in coeffs)
    with np.errstate(invalid="ignore", over="ignore"):
        s = t - x[i]
        s2 = s * s
        out = 0.0 + c3
        out += c2 * s
        out += c1 * s2
        out += c0 * (s2 * s)
    return out


def _trim(coeffs: Sequence[float]) -> tuple:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass
class Potential1D:
    """A scalar potential t -> W(t) on [-T, T], extended beyond by its outer piece.

    Args:
        kind: one of ``poly_in_t_squared``, ``piecewise_poly``, ``sampled``.
        coefficients: ascending coefficients. For ``poly_in_t_squared`` these
            are c_0..c_d with W(t) = sum c_k t^(2k). For ``piecewise_poly``
            a sequence of per-piece ascending-in-t coefficient sequences,
            one more piece than there are breakpoints.
        breakpoints: sorted interior breakpoints (piecewise kind only).
        samples: pair (t_grid, values) for the sampled kind; the grid must be
            finite, strictly increasing and contain t = 0; the values
            finite. Evaluation is the Fritsch-Carlson monotone cubic
            (PCHIP), computed in numpy; outside the grid the end cubic
            continues.
        domain_halfwidth: T > 0. ``None`` auto-sizes T past the outermost
            critical point so downstream scans see the full shape.
        even: declared evenness for ``piecewise_poly`` (self-checked on a
            1000-point grid). The t^2 kind is even by construction.
    """

    kind: str
    coefficients: tuple = ()
    breakpoints: tuple = ()
    samples: Optional[tuple] = None
    domain_halfwidth: Optional[float] = None
    even: bool = False
    _pchip: tuple = field(default=None, init=False, repr=False, compare=False)
    _dcoeffs: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "poly_in_t_squared":
            self.coefficients = _as_tuple(self.coefficients)
            if not self.coefficients:
                raise ValueError("poly_in_t_squared needs coefficients")
            self.even = True
        elif self.kind == "piecewise_poly":
            pieces = tuple(_as_tuple(p) for p in self.coefficients)
            if not pieces or any(not p for p in pieces):
                raise ValueError("piecewise_poly needs per-piece coefficients")
            self.coefficients = pieces
            self.breakpoints = _as_tuple(self.breakpoints)
            if list(self.breakpoints) != sorted(self.breakpoints):
                raise ValueError("breakpoints must be sorted")
            if len(pieces) != len(self.breakpoints) + 1:
                raise ValueError(
                    f"{len(self.breakpoints)} breakpoints need "
                    f"{len(self.breakpoints) + 1} pieces, got {len(pieces)}"
                )
        else:
            if self.samples is None:
                raise ValueError("sampled kind needs samples")
            tg, vals = self.samples
            tg, vals = _as_tuple(tg), _as_tuple(vals)
            if len(tg) != len(vals) or len(tg) < 4:
                raise ValueError("samples need matching t/value arrays, >= 4 points")
            grid = np.array((tg, vals))
            if not np.all(np.isfinite(grid)):
                raise ValueError("samples must be finite")
            if not np.all(np.diff(grid[0]) > 0):
                raise ValueError("sample grid must be strictly increasing")
            if 0.0 not in tg:
                raise ValueError("sample grid must contain t = 0")
            self.samples = (tg, vals)
        if self.domain_halfwidth is None:
            self.domain_halfwidth = self._auto_halfwidth()
        self.domain_halfwidth = float(self.domain_halfwidth)
        if not self.domain_halfwidth > 0:
            raise ValueError("domain_halfwidth must be positive")
        if self.kind == "piecewise_poly" and self.even:
            self._check_even_declaration()

    def _auto_halfwidth(self) -> float:
        if self.kind == "sampled":
            tg = np.asarray(self.samples[0])
            return float(max(tg[-1], -tg[0]))
        maxbp = max((abs(b) for b in self.breakpoints), default=0.0)
        probe = max(8.0, 4.0 * maxbp)
        t = np.linspace(1e-9, probe, 4096)
        d = self._poly(t, 1)
        sign_change = np.nonzero(d[:-1] * d[1:] <= 0)[0]
        t_crit = float(t[sign_change[-1] + 1]) if sign_change.size else 0.0
        return max(2.0, 1.5 * t_crit + 1.0, 1.25 * maxbp + 1.0)

    def _check_even_declaration(self):
        t = np.linspace(0.0, self.domain_halfwidth, 1000)
        a, b = self.eval(t), self.eval(-t)
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a - b)) > _EVEN_TOL * scale:
            raise ValueError("piecewise_poly declared even but is not")

    def _derivative_coeffs(self, order: int):
        """Coefficients of the order-th derivative (order 0: W itself), as
        Python-float tuples: of P for the t^2 kind (W = P(t^2)), per piece
        for the piecewise kind. Built once per order."""
        coeffs = self._dcoeffs.get(order)
        if coeffs is None:
            if self.kind == "poly_in_t_squared":
                coeffs = tuple(npoly.polyder(np.asarray(self.coefficients),
                                             order).tolist())
            else:
                coeffs = tuple(tuple(npoly.polyder(np.asarray(p), order).tolist())
                               for p in self.coefficients)
            self._dcoeffs[order] = coeffs
        return coeffs

    def _poly(self, t, order: int):
        """W (order 0), W' or W'' of a polynomial kind at a Python float or
        an array; the same operations in the same order either way."""
        if self.kind == "poly_in_t_squared":
            if order == 0:
                return _horner(self._derivative_coeffs(0), t * t)
            dP = _horner(self._derivative_coeffs(1), t * t)
            if order == 1:
                return dP * 2.0 * t
            ddP = _horner(self._derivative_coeffs(2), t * t)
            return ddP * 4.0 * t * t + 2.0 * dP
        pieces = self._derivative_coeffs(order)
        if isinstance(t, float):
            # bisect_right is searchsorted(side="right")
            return _horner(pieces[bisect.bisect_right(self.breakpoints, t)], t)
        out = np.empty_like(t)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        for k, piece in enumerate(pieces):
            m = idx == k
            if np.any(m):
                out[m] = _horner(piece, t[m])
        return out

    def _sampled(self, t: np.ndarray, order: int) -> np.ndarray:
        """The PCHIP (order 0) or its centered difference (order 1)."""
        if self._pchip is None:
            tg, vals = (np.asarray(a, dtype=float) for a in self.samples)
            self._pchip = (tg, _pchip_coeffs(tg, vals))
        if order == 0:
            return _pchip_eval(*self._pchip, t)
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        return (_pchip_eval(*self._pchip, t + h)
                - _pchip_eval(*self._pchip, t - h)) / (2.0 * h)

    def _at(self, t, order: int):
        # a finite float (np.float64 included) of a polynomial kind stays
        # a Python float; anything else goes through a 1-D array
        if self.kind != "sampled" and isinstance(t, float) and math.isfinite(t):
            return self._poly(float(t), order)
        arr = np.asarray(t, dtype=float)
        ts = np.atleast_1d(arr)
        kernel = self._sampled if self.kind == "sampled" else self._poly
        out = kernel(ts, order)
        return float(out[0]) if arr.ndim == 0 else out

    def eval(self, t):
        """Evaluate W(t); scalar in, scalar out; arrays pass through.

        A finite float argument of a polynomial kind is evaluated on
        Python floats, bit for bit as an array argument would give it.
        """
        return self._at(t, 0)

    def derivative(self, t, order: int = 1):
        """Evaluate W', or W'' for polynomial kinds.

        Args:
            t: scalar or array of slope values.
            order: 1 or 2. Sampled potentials only support order 1
                (second differences of an interpolant are not trustworthy).

        Raises:
            ValueError: on unsupported order.
        """
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if order == 2 and self.kind == "sampled":
            raise ValueError("order 2 derivative unavailable for sampled kind")
        return self._at(t, order)

    def is_even(self, probes: int = 256, tol: float = _EVEN_TOL) -> bool:
        if self.kind == "poly_in_t_squared":
            return True
        if self.kind == "piecewise_poly" and not self.even:
            return False
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, self.domain_halfwidth, probes)
        a, b = self.eval(t), self.eval(-t)
        scale = max(1.0, float(np.max(np.abs(a))))
        return bool(np.max(np.abs(a - b)) <= tol * scale)

    def degree(self) -> Optional[int]:
        """Trimmed polynomial degree in t, or None for sampled kind."""
        if self.kind == "poly_in_t_squared":
            return 2 * (len(_trim(self.coefficients)) - 1)
        if self.kind == "piecewise_poly":
            return max(len(_trim(p)) - 1 for p in self.coefficients)
        return None


def _second_derivative(pot: Potential1D, t):
    """pot'' for every kind, as a Newton model needs it.

    ``derivative(order=2)`` refuses sampled kinds because the result is not
    trustworthy as data; a Newton step only needs a curvature estimate, so
    sampled kinds get a centered difference of the first derivative.
    """
    if pot.kind != "sampled":
        return pot.derivative(t, 2)
    t = np.asarray(t, dtype=float)
    h = 1e-4 * np.maximum(1.0, np.abs(t))
    return (pot.derivative(t + h) - pot.derivative(t - h)) / (2.0 * h)


def _require_coercive(W: Potential1D):
    if W.kind == "poly_in_t_squared":
        c = _trim(W.coefficients)
        if len(c) < 2 or c[-1] <= 0:
            raise ValueError("potential is not coercive (leading coefficient)")
    elif W.kind == "piecewise_poly":
        outer = _trim(W.coefficients[-1])
        if len(outer) < 2 or outer[-1] <= 0:
            raise ValueError("potential is not coercive (outer piece)")
    else:
        vals = np.asarray(W.samples[1])
        tail = vals[int(0.9 * len(vals)):]
        scale = max(1.0, float(np.max(np.abs(vals))))
        if not (np.all(np.diff(tail) >= -1e-12 * scale) and tail[-1] > vals.min()):
            raise ValueError("potential is not coercive (sample tail not rising)")


def _refine_min_poly(W: Potential1D, lo: float, hi: float) -> float:
    # bisection on W' over a bracket holding one interior minimum
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
    # Newton finish: bisection stalls at the 1e-13 width floor
    for _ in range(3):
        d2 = W.derivative(t, order=2)
        if abs(d2) < 1e-12:
            break
        step = W.derivative(t) / d2
        if not (lo - (hi - lo) <= t - step <= hi + (hi - lo)):
            break
        t -= step
    return float(t)


def compute_M(W: Potential1D, scan_points: int = _SCAN_POINTS) -> float:
    """Largest nonnegative minimizer of W.

    Candidates are the discrete local minima (plateau points included, and
    t = 0 when W does not fall from it): of the samples with t >= 0 for
    sampled kinds, whose monotone interpolant has its minima on the
    samples; of a ``scan_points`` scan of [0, T] for polynomial kinds,
    each refined by bisection on W'. Value ties within 1e-10 resolve
    toward the largest candidate. Returns exactly 0.0 when the global
    minimum is attained only at t = 0.

    Raises:
        ValueError: if W is not coercive.
    """
    _require_coercive(W)
    T = W.domain_halfwidth
    if W.kind == "sampled":
        t, v = (np.asarray(x, dtype=float) for x in W.samples)
        t, v = t[t >= 0.0], v[t >= 0.0]
    else:
        t = np.linspace(0.0, T, scan_points)
        v = W.eval(t)
    mins = list(np.nonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:]))[0] + 1)
    if len(v) > 1 and v[0] <= v[1]:
        mins.insert(0, 0)
    if not mins:
        return 0.0
    if W.kind == "sampled":
        cands, cvals = t[mins], v[mins]
    else:
        cands = [_refine_min_poly(W, t[max(i - 1, 0)], t[i + 1]) for i in mins]
        cvals = np.array([W.eval(c) for c in cands])
    vstar = cvals.min()
    tie = 1e-10 * (1.0 + abs(vstar))
    best = max(c for c, cv in zip(cands, cvals) if cv <= vstar + tie)
    return 0.0 if best <= 1e-12 * T else float(best)


@dataclass
class ShapeReport:
    """Outcome of the monotone-shape test for G."""

    passes: bool
    strict: bool
    witnesses: list
    samples: int

    def to_dict(self) -> dict:
        return {
            "passes": bool(self.passes),
            "strict": bool(self.strict),
            "witnesses": list(self.witnesses),
            "samples": int(self.samples),
        }


def check_G_shape(G: Potential1D, strict: bool = False,
                  samples: int = _SCAN_POINTS) -> ShapeReport:
    """Test that G is (strictly) nonincreasing on [0, T] with G(mu) <= G(-mu).

    The first violating consecutive sample pair of each flavor is reported as
    a witness dict. Strict mode demands a genuine decrease between every pair
    of consecutive samples.
    """
    T = G.domain_halfwidth
    mu = np.linspace(0.0, T, samples)
    g = G.eval(mu)
    scale = max(1.0, float(np.max(np.abs(g))))
    tol = 1e-12 * scale
    witnesses = []
    d = np.diff(g)
    bad = np.nonzero(d >= 0.0)[0] if strict else np.nonzero(d > tol)[0]
    if bad.size:
        i = int(bad[0])
        witnesses.append({
            "check": "monotone_decrease",
            "mu_lo": float(mu[i]), "mu_hi": float(mu[i + 1]),
            "g_lo": float(g[i]), "g_hi": float(g[i + 1]),
        })
    gneg = G.eval(-mu[1:])
    dom = np.nonzero(g[1:] > gneg + tol)[0]
    if dom.size:
        i = int(dom[0])
        witnesses.append({
            "check": "even_dominance",
            "mu": float(mu[i + 1]),
            "g_pos": float(g[i + 1]), "g_neg": float(gneg[i]),
        })
    return ShapeReport(passes=not witnesses, strict=strict,
                       witnesses=witnesses, samples=samples)


@dataclass
class GrowthDeclaration:
    """Optionally declared growth constants for the bound spot-checks."""

    nu1: Optional[float] = None
    nu2: Optional[float] = None
    nu3: Optional[float] = None
    nu4: Optional[float] = None
    rho: Optional[float] = None
    C: Optional[float] = None
    p_tilde: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("nu1", "nu2", "nu3", "nu4", "rho", "C", "p_tilde")}


@dataclass
class ProblemSpec:
    """A radially symmetric problem on the ball of radius R in dimension N."""

    dimension: int
    radius: float
    p: float
    W: Potential1D
    G: Potential1D
    declared_growth: Optional[GrowthDeclaration] = None
    shape_flag: str = "none"
    envelope: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 2:
            raise ValueError("dimension must be an integer >= 2")
        self.dimension = int(self.dimension)
        self.radius = float(self.radius)
        self.p = float(self.p)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if self.shape_flag not in SHAPE_FLAGS:
            raise ValueError(f"unknown shape flag {self.shape_flag!r}")
        if not self.W.is_even():
            raise ValueError("W must be even")
        if self.shape_flag != "none":
            rep = check_G_shape(self.G, strict=self.shape_flag == "G2_strict")
            if not rep.passes:
                raise ValueError(
                    f"G fails the declared {self.shape_flag} shape: {rep.witnesses[0]}")

    @property
    def p_star(self) -> float:
        if self.p < self.dimension:
            return self.p * self.dimension / (self.dimension - self.p)
        return math.inf


@dataclass
class ValidationReport:
    records: list
    passes: bool

    def to_dict(self) -> dict:
        return {"passes": bool(self.passes), "records": list(self.records)}


def _record(records, name, passed, detail):
    records.append({"name": name, "passed": bool(passed), "detail": detail})


def validate_spec(spec: ProblemSpec) -> ValidationReport:
    """Check declared growth and shape data against the potentials.

    Structural constraints (N, R, p ranges, evenness of W) are re-reported;
    growth inequalities are spot-checked on 1000-point grids when the
    corresponding constants were declared, otherwise recorded as skipped.
    """
    records = []
    _record(records, "ranges", True,
            f"N={spec.dimension}, R={spec.radius}, p={spec.p}")
    _record(records, "W_even", spec.W.is_even(), "evenness probe, 256 points")

    g = spec.declared_growth
    rho = g.rho if g else None
    if rho is not None:
        _record(records, "rho_range", 0.0 < rho <= spec.p,
                f"rho={rho}, p={spec.p}")

    degG = spec.G.degree()
    if spec.p < spec.dimension:
        if degG is None:
            _record(records, "G_upper_growth", True, "skipped: sampled G")
        elif rho is not None:
            _record(records, "G_upper_growth", degG <= spec.p_star - rho,
                    f"deg G={degG}, limit p*-rho={spec.p_star - rho}")
        else:
            _record(records, "G_upper_growth", degG < spec.p_star,
                    f"deg G={degG}, undeclared rho, strict limit p*={spec.p_star}")
    elif spec.p == spec.dimension:
        ok = g is not None and g.p_tilde is not None and math.isfinite(g.p_tilde)
        _record(records, "p_tilde_declared", ok, "p = N requires finite p_tilde")
    else:
        if g is not None and g.nu3 is not None and g.C is not None and rho is not None:
            mu = np.linspace(-spec.G.domain_halfwidth, spec.G.domain_halfwidth, 1000)
            lower = -g.nu3 * np.abs(mu) ** (spec.p - rho) - g.C
            ok = bool(np.all(spec.G.eval(mu) >= lower - 1e-9))
            _record(records, "G_lower_growth", ok, "1000-point spot check")
        else:
            _record(records, "G_lower_growth", True, "skipped: constants undeclared")

    if g is not None and g.nu1 is not None and g.nu2 is not None and g.C is not None:
        t = np.linspace(-spec.W.domain_halfwidth, spec.W.domain_halfwidth, 1000)
        w = spec.W.eval(t)
        lo_ok = bool(np.all(w >= g.nu1 * np.abs(t) ** spec.p - g.C - 1e-9))
        hi_ok = bool(np.all(np.abs(w) <= g.nu2 * np.abs(t) ** spec.p + g.C + 1e-9))
        _record(records, "W_growth_bounds", lo_ok and hi_ok,
                f"lower={lo_ok}, upper={hi_ok}")
    else:
        _record(records, "W_growth_bounds", True, "skipped: constants undeclared")

    if spec.shape_flag != "none":
        rep = check_G_shape(spec.G, strict=spec.shape_flag == "G2_strict")
        _record(records, "G_shape", rep.passes, f"flag={spec.shape_flag}")

    return ValidationReport(records=records,
                            passes=all(r["passed"] for r in records))
