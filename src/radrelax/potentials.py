"""Even 1D potentials, lower-order terms, and problem descriptions.

A problem is posed on the ball of radius R in dimension N >= 2 and consists of
a gradient potential W acting on |grad u| and a zero-order term G acting on u.
W must be even in the scalar slope variable; it may be polynomial in t^2,
piecewise polynomial, or sampled on a grid.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Potential1D",
    "ProblemSpec",
    "compute_M",
    "check_G_shape",
    "sphere_area",
]

KINDS = ("poly_in_t_squared", "piecewise_poly", "sampled")
SHAPE_FLAGS = ("none", "G2", "G2_strict")

_SCAN_POINTS = 10_000
_EVEN_TOL = 1e-12
# the fields a kind does not use, which it refuses
_UNUSED_FIELDS = {
    "poly_in_t_squared": ("breakpoints", "samples"),
    "piecewise_poly": ("samples",),
    "sampled": ("coefficients", "breakpoints"),
}


def _finite_tuple(x, what: str) -> tuple:
    c = tuple(np.asarray(x, dtype=float).tolist())
    if not all(map(math.isfinite, c)):
        raise ValueError(f"{what} must be finite")
    return c


def _derivative_tables(coeffs: tuple) -> tuple:
    # ascending coefficients of the 0th, 1st and 2nd derivative, by
    # numpy.polynomial.polyder's products: j * c[j] per order, and
    # (c[0] * 0,) once the degree is used up; of Python floats, or of
    # arrays with one entry per point (looked-up cubics)
    tables = [tuple(coeffs)]
    for k in (1, 2):
        d = tables[-1]
        tables.append(tuple(j * d[j] for j in range(1, len(d)))
                      if k < len(coeffs) else (coeffs[0] * 0,))
    return tuple(tables)


def _horner(c: tuple, x):
    # numpy.polynomial.polyval's recurrence, on a Python float or an
    # array: the same IEEE operations in the same order, so the same bits
    y = c[-1] + x * 0
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


def _power_sum(c: tuple, s):
    # SciPy's PPoly sum of ascending c: 0.0 + c[0] + c[1] s + c[2] (s s)
    # + ..., each power the product of the one below with s, so the bits,
    # signed zeros included, are PPoly's
    out, z = 0.0 + c[0], s
    for ck in c[1:-1]:
        out += ck * z
        z = z * s
    out += c[-1] * z
    return out


def _pchip_end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, kept shape-preserving (Moler,
    # "Numerical Computing with MATLAB", pchiptx); both ends at once
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    d[flip] = 0.0
    d[~flip & steep] = 3.0 * m0[~flip & steep]
    return d


def _pchip_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-interval cubics of the monotone piecewise cubic interpolant
    (PCHIP; Fritsch and Carlson, SIAM J. Numer. Anal. 17, 1980): row k of
    the (4, n - 1) result holds the coefficients of (t - x[i])^k.

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
    return np.array((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))


def _trim(coeffs: Sequence[float]) -> tuple:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def _limit(c: Sequence[float], sign: float, order: int) -> float:
    # the limit at sign * inf of the order-th derivative of the polynomial
    # of ascending coefficients c, in a variable that tends to sign * inf
    # with t: its constant (0.0 once the degree is used up), or the sign
    # of its leading term
    c = _trim(_derivative_tables(c)[order]) if order < len(c) else (0.0,)
    if len(c) == 1:
        return c[0]
    return math.copysign(math.inf, c[-1] * sign ** (len(c) - 1))


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
        samples: pair (t_grid, values) for the sampled kind, kept as one
            read-only (2, n) float64 array; the grid must be finite,
            strictly increasing and contain t = 0; the values finite. W
            is the Fritsch-Carlson monotone cubic (PCHIP), W' and W'' its
            exact derivatives; outside the grid the end cubic continues,
            and at +-inf W, W' and W'' take its limit.
        even: whether W is even; declared for ``piecewise_poly``, and set
            at construction for the others: True for the t^2 kind, the
            evenness probe's verdict for the sampled kind. The probe
            compares W(t) with W(-t) on 1000 points of [0, T]; a
            piecewise kind declared even must pass it. Read evenness
            from this field.

    Coefficients and breakpoints must be finite, and a kind given a field
    it does not use (breakpoints or samples for the t^2 kind, samples for
    the piecewise kind, coefficients or breakpoints for the sampled kind)
    raises ValueError naming it; an empty one is reset to its default.
    Construction builds all that evaluation needs, and decides the
    evenness. Potentials are equal when their kind, coefficients,
    breakpoints, samples, evenness and T are.
    """

    kind: str
    coefficients: tuple = ()
    breakpoints: tuple = ()
    samples: Optional[np.ndarray] = field(default=None, repr=False)
    even: bool = False
    # T, sized past the outermost critical point so downstream scans see
    # the full shape
    domain_halfwidth: float = field(init=False)
    # the table (see _kernel): cut points; per order 0-2, each piece's
    # Python-float coefficients in its local variable (polynomial kinds);
    # the same as one array's columns per order, or the sampled cubics of
    # order 0 alone; and the limits (at -inf, at +inf) of W, W' and W''
    _cuts: Sequence = field(default=(), init=False, repr=False, compare=False)
    _tables: tuple = field(default=(), init=False, repr=False, compare=False)
    _columns: tuple = field(default=(), init=False, repr=False, compare=False)
    _limits: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for name in _UNUSED_FIELDS[self.kind]:
            value = getattr(self, name)
            if value is not None and len(value):
                raise ValueError(f"{self.kind} takes no {name}")
            # an empty one goes back to its default, so it cannot count
            # in equality
            setattr(self, name, None if name == "samples" else ())
        if self.kind == "poly_in_t_squared":
            self.coefficients = _finite_tuple(self.coefficients, "coefficients")
            if not self.coefficients:
                raise ValueError("poly_in_t_squared needs coefficients")
            pieces = (self.coefficients,)
            # W in t, c_k at t^(2k), for its limits
            ends = 2 * ([x for c in self.coefficients for x in (c, 0.0)][:-1],)
        elif self.kind == "piecewise_poly":
            pieces = tuple(_finite_tuple(p, "coefficients")
                           for p in self.coefficients)
            if not pieces or any(not p for p in pieces):
                raise ValueError("piecewise_poly needs per-piece coefficients")
            self.coefficients = pieces
            self.breakpoints = _finite_tuple(self.breakpoints, "breakpoints")
            if list(self.breakpoints) != sorted(self.breakpoints):
                raise ValueError("breakpoints must be sorted")
            if len(pieces) != len(self.breakpoints) + 1:
                raise ValueError(
                    f"{len(self.breakpoints)} breakpoints need "
                    f"{len(self.breakpoints) + 1} pieces, got {len(pieces)}"
                )
            self._cuts, ends = self.breakpoints, (pieces[0], pieces[-1])
        else:
            if self.samples is None:
                raise ValueError("sampled kind needs samples")
            tg, vals = (np.asarray(a, dtype=float) for a in self.samples)
            if tg.ndim != 1 or tg.shape != vals.shape or len(tg) < 4:
                raise ValueError("samples need matching t/value arrays, >= 4 points")
            grid = np.array((tg, vals))
            if not np.all(np.isfinite(grid)):
                raise ValueError("samples must be finite")
            if not np.all(np.diff(grid[0]) > 0):
                raise ValueError("sample grid must be strictly increasing")
            if not np.any(grid[0] == 0.0):
                raise ValueError("sample grid must contain t = 0")
            grid.flags.writeable = False
            self.samples = grid
            cubics = _pchip_coeffs(grid[0], grid[1])
            self._cuts, self._columns = grid[0][1:-1], (cubics,)
            ends, pieces = cubics[:, [0, -1]].T.tolist(), ()
        if pieces:
            self._tables = tuple(zip(*map(_derivative_tables, pieces)))
            # an array's lookup among several pieces gathers from these;
            # zeros above a short piece's degree leave Horner's bits
            # unchanged at every finite t
            self._columns = tuple(
                np.array(list(itertools.zip_longest(*tab, fillvalue=0.0)))
                for tab in self._tables if self._cuts)
        self._limits = tuple((_limit(ends[0], -1.0, k), _limit(ends[1], 1.0, k))
                             for k in range(3))
        self.domain_halfwidth = self._auto_halfwidth()
        self.even = self._decide_evenness()

    def __eq__(self, other):
        # the generated __eq__ would compare the sample arrays elementwise
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.coefficients, self.breakpoints, self.even,
                 self.domain_halfwidth)
                == (other.kind, other.coefficients, other.breakpoints,
                    other.even, other.domain_halfwidth)
                and np.array_equal(self.samples, other.samples))

    def _auto_halfwidth(self) -> float:
        if self.kind == "sampled":
            tg = self.samples[0]
            return float(max(tg[-1], -tg[0]))
        maxbp = max((abs(b) for b in self.breakpoints), default=0.0)
        probe = max(8.0, 4.0 * maxbp)
        t = np.linspace(1e-9, probe, 4096)
        d = self._kernel(t, 1)
        sign_change = np.nonzero(d[:-1] * d[1:] <= 0)[0]
        t_crit = float(t[sign_change[-1] + 1]) if sign_change.size else 0.0
        return max(2.0, 1.5 * t_crit + 1.0, 1.25 * maxbp + 1.0)

    def _decide_evenness(self) -> bool:
        # the t^2 kind is even; a piecewise one only as declared, and the
        # declaration must pass the probe; a sampled one as the probe
        # finds it
        if self.kind == "poly_in_t_squared":
            return True
        if self.kind == "piecewise_poly" and not self.even:
            return False
        t = np.linspace(0.0, self.domain_halfwidth, 1000)
        a, b = self.eval(t), self.eval(-t)
        scale = max(1.0, float(np.max(np.abs(a))))
        even = bool(np.max(np.abs(a - b)) <= _EVEN_TOL * scale)
        if self.kind == "piecewise_poly" and not even:
            raise ValueError("piecewise_poly declared even but is not")
        return even

    def _kernel(self, t, order: int):
        """W (order 0), W' or W'' at a finite float of a polynomial kind or
        at an array of finite values: the t^2 kind's one piece by the chain
        rule, else the piece that bisect_right (a float, or no cuts) or
        searchsorted finds, PPoly's among the sampled cuts x[1:-1]. Sampled
        derivative tables are taken here. Horner's rule for polynomial
        kinds and PPoly's power sums for the cubics keep every W's bits."""
        if self.kind == "poly_in_t_squared":
            # one piece, P's tables in x = t^2: W = P(x) by the chain rule
            x = t * t
            c = self._tables[order][0]
            if order == 0:
                return _horner(c, x)
            dP = _horner(self._tables[1][0], x)
            if order == 1:
                return dP * 2.0 * t
            return _horner(c, x) * 4.0 * t * t + 2.0 * dP
        if isinstance(t, float) or not len(self._cuts):
            c = self._tables[order][bisect.bisect_right(self._cuts, t)]
        else:
            i = np.searchsorted(self._cuts, t, side="right")
            if self.kind == "sampled":
                c = tuple(self._columns[0].take(i, axis=1))
                if order:
                    c = _derivative_tables(c)[order]
                # far out the powers overflow silently, as PPoly's do
                with np.errstate(invalid="ignore", over="ignore"):
                    return _power_sum(c, t - self.samples[0][i])
            c = self._columns[order].take(i, axis=1)
        return _horner(c, t)

    def _at(self, t, order: int):
        # a finite float (np.float64 included) of a polynomial kind stays
        # a Python float; anything else goes through a 1-D array, whose
        # +-inf entries, NaN in the kernel, take their limit
        if isinstance(t, float) and math.isfinite(t) and self._tables:
            return self._kernel(float(t), order)
        arr = np.asarray(t, dtype=float)
        ts = np.atleast_1d(arr)
        big = np.isinf(ts)
        any_big = big.any()
        out = self._kernel(np.where(big, 0.0, ts) if any_big else ts, order)
        if any_big:
            out[big] = np.where(ts[big] < 0, *self._limits[order])
        return float(out[0]) if arr.ndim == 0 else out

    def eval(self, t):
        """Evaluate W(t); scalar in, scalar out; arrays pass through.

        A finite float argument of a polynomial kind is evaluated on
        Python floats, bit for bit as an array argument would give it.
        """
        return self._at(t, 0)

    def derivative(self, t, order: int = 1):
        """Evaluate W' (order 1) or W'' (order 2).

        Args:
            t: scalar or array of slope values.
            order: 1 or 2. Every kind gives exact derivatives of its
                pieces; a sampled kind's are those of SciPy's
                ``PchipInterpolator(x, y).derivative(order)``, bit for bit,
                so its W'' jumps at the sample nodes.

        Raises:
            ValueError: on unsupported order.
        """
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        return self._at(t, order)


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
        vals = W.samples[1]
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


def compute_M(W: Potential1D) -> float:
    """Largest nonnegative minimizer of W.

    Candidates are the discrete local minima (plateau points included, and
    t = 0 when W does not fall from it): of the samples with t >= 0 for
    sampled kinds, whose monotone interpolant has its minima on the
    samples; of a ``_SCAN_POINTS`` scan of [0, T] for polynomial kinds,
    each refined by bisection on W'. Value ties within 1e-10 resolve
    toward the largest candidate. Returns exactly 0.0 when the global
    minimum is attained only at t = 0.

    Raises:
        ValueError: if W is not coercive.
    """
    _require_coercive(W)
    T = W.domain_halfwidth
    if W.kind == "sampled":
        t, v = W.samples
        t, v = t[t >= 0.0], v[t >= 0.0]
    else:
        t = np.linspace(0.0, T, _SCAN_POINTS)
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


def check_G_shape(G: Potential1D, strict: bool = False) -> list:
    """Test that G is (strictly) nonincreasing on [0, T] with G(mu) <= G(-mu).

    Returns the witnesses, empty when G has the shape: the first violating
    consecutive sample pair of each flavor, as a dict. Strict mode demands
    a genuine decrease between every pair of consecutive samples.
    """
    T = G.domain_halfwidth
    mu = np.linspace(0.0, T, _SCAN_POINTS)
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
    return witnesses


def sphere_area(dimension: int) -> float:
    """Surface measure of the unit sphere S^(N-1)."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


@dataclass
class ProblemSpec:
    """A radially symmetric problem on the ball of radius R in dimension N."""

    dimension: int
    radius: float
    p: float
    W: Potential1D
    G: Potential1D
    shape_flag: str = "none"
    # the convex envelope of W, set by radial_solver.ensure_envelope
    _envelope: object = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        # abs(d) < inf is false for nan and +-inf, where int(d) raises,
        # and exact for an int of any size
        if not (abs(self.dimension) < math.inf
                and int(self.dimension) == self.dimension >= 2):
            raise ValueError("dimension must be an integer >= 2")
        self.dimension = int(self.dimension)
        try:  # Gamma(N/2) in the sphere area overflows from N = 344 on
            sphere_area(self.dimension)
        except OverflowError:
            raise ValueError(f"dimension {self.dimension} is too large: the "
                             "unit sphere's area overflows a float") from None
        self.radius = float(self.radius)
        self.p = float(self.p)
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 1 < self.p < math.inf:
            raise ValueError("p must exceed 1 and be finite")
        if self.shape_flag not in SHAPE_FLAGS:
            raise ValueError(f"unknown shape flag {self.shape_flag!r}")
        if not self.W.even:
            raise ValueError("W must be even")
        if self.shape_flag != "none":
            witnesses = check_G_shape(self.G,
                                      strict=self.shape_flag == "G2_strict")
            if witnesses:
                raise ValueError(
                    f"G fails the declared {self.shape_flag} shape: {witnesses[0]}")
