"""Property tests on arbitrary inputs: the monotone rearrangement laws
and its levels against the all-cell bisection, the spec emit/parse round
trip, the sampled-kind hull against the chord-walk oracle, the hull
against the plain monotone chain, the detachment runs against the scalar
walk, the report writer against json.dumps, the derivative tables
against numpy's polyder, the scalar kernels of potentials and envelopes
against their array paths, the envelope array path against masked
assignment, and the sampled kind's monotone cubic against SciPy's."""

import functools
import json
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radrelax.cli import _csv_text, _json_text  # noqa: E402
from radrelax.envelope import (_hull_values, _lower_hull, _runs,  # noqa: E402
                               convexify)
from radrelax.potentials import (Potential1D, ProblemSpec,  # noqa: E402
                                 _derivative_tables)
from radrelax.radial_solver import (  # noqa: E402
    RadialGrid,
    RadialProfile,
    _outermost_levels,
    _spd_tridiagonal_solve,
    energy_reduced,
    ensure_envelope,
    monotone_rearrange,
)
from radrelax.specfile import emit_spec_text, parse_spec_text  # noqa: E402

from conftest import (double_well, graded_grid, make_m0_spec,  # noqa: E402
                      three_well)
from oracles import (bisected_levels, chord_hull_values,  # noqa: E402
                     chord_hull_vertices, level_defects, masked_envelope_eval,
                     plain_monotone_chain, random_even_sampled, runs_walk,
                     suffix_level_brackets)

# G(u) = -u^2 does not increase in |u| (G2), so the energy cannot rise
_SPECS = {
    name: ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=W, shape_flag="G2",
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)))
    for name, W in (("double_well", double_well()),
                    ("three_well", three_well()))
}


@st.composite
def profiles(draw):
    cells = draw(st.integers(16, 80))
    slopes = np.array(draw(st.lists(
        st.floats(-3.0, 3.0, allow_nan=False), min_size=cells,
        max_size=cells)))
    if draw(st.booleans()):
        grid = RadialGrid.uniform(1.0, cells)
    else:
        grid = graded_grid(1.0, cells)
    u = np.concatenate([[0.0], np.cumsum(slopes * grid.dr)])
    return RadialProfile(grid, u - u[-1])


@settings(max_examples=50)
@given(prof=profiles(), name=st.sampled_from(sorted(_SPECS)))
def test_rearrangement_laws(prof, name):
    spec = _SPECS[name]
    env = ensure_envelope(spec)
    W = env.potential
    v = monotone_rearrange(prof, env)
    w_before = np.asarray(W.eval(np.abs(prof.slopes)))
    w_after = np.asarray(W.eval(np.abs(v.slopes)))
    assert float(np.max(np.abs(w_after - w_before))) <= 1e-8
    assert np.all(v.u >= np.abs(prof.u) - 1e-12)
    assert np.all(np.diff(v.u) <= 1e-15)
    e_before = energy_reduced(prof, spec)
    e_after = energy_reduced(v, spec)
    assert e_after <= e_before + 1e-9 * (1.0 + abs(e_before))


# (t^2 - 1)^2 sampled on [-1.5, 1.5]: the PCHIP extension turns down
# past the samples
_TURNING_T = np.linspace(-1.5, 1.5, 61)
_LEVEL_POTENTIALS = {
    "double_well": double_well(),
    "three_well": three_well(),
    "m0": make_m0_spec().W,
    "random_sampled": random_even_sampled(2),
    "turning_sampled": Potential1D(kind="sampled", samples=(
        _TURNING_T, (_TURNING_T ** 2 - 1.0) ** 2)),
}


def _level_slopes(env):
    # M and the tangency points, on, 1e-9 off and at the 1e-7 relative
    # margins of each, and the end of the samples and beyond it
    W = env.potential
    edges = [env.M] + [abs(x) for c in env.components for x in (c.a, c.b)]
    out = [0.0]
    for e in edges:
        for m in (e, e * (1.0 + 1e-7), e * (1.0 - 1e-7)):
            out += [m, m + 1e-9, m - 1e-9, np.nextafter(m, np.inf),
                    np.nextafter(m, -np.inf)]
    if W.kind == "sampled":
        end = W.samples[0][-1]
        out += [end, 1.01 * end, 1.5 * end, 3.0 * end]
    return sorted({float(x) for x in out if x >= 0.0})


@settings(max_examples=50)
@given(name=st.sampled_from(sorted(_LEVEL_POTENTIALS)), data=st.data())
def test_rearrangement_matches_bisecting_oracle(name, data):
    # cells of unit width whose nodes alternate between 0 and a drawn
    # value: every slope is exactly a drawn value or its negative
    env = _envelope(name)
    special = _level_slopes(env)
    top = 2.0 * max(special[-1], env.potential.domain_halfwidth)
    values = data.draw(st.lists(
        st.sampled_from(special) | st.floats(0.0, top), min_size=8,
        max_size=40))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                               min_size=len(values), max_size=len(values)))
    cells = 2 * len(values)
    u = np.zeros(cells + 1)
    u[1::2] = np.multiply(signs, values)
    prof = RadialProfile(RadialGrid.uniform(float(cells), cells), u)
    y = np.abs(prof.slopes)
    assert np.array_equal(y, np.repeat(values, 2))
    # kept and bracketless cells keep the bisection's bits; a root found
    # by Newton lies in its bracket, is no smaller than y, and misses
    # W(y) by no more than the bisection's root plus 4 ulps of W(y)
    nu = _outermost_levels(env, y)
    brackets = suffix_level_brackets(env, y)
    want = bisected_levels(env, y, brackets)
    assert level_defects(env, y, nu, want, brackets).size == 0
    drops = nu * prof.grid.dr
    v = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    assert np.array_equal(monotone_rearrange(prof, env).u, v)


_COEFF = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def specs(draw):
    # W coercive and even: a t^2 polynomial with a positive leading
    # coefficient, or one piece even in t; p its degree in t; G any
    # polynomial in u, whole or piecewise, with shape flag none (a drawn
    # G rarely meets G2)
    lead = draw(st.floats(0.01, 10.0))
    coeffs = draw(st.lists(_COEFF, min_size=1, max_size=3)) + [lead]
    if draw(st.booleans()):
        W = Potential1D(kind="poly_in_t_squared", coefficients=coeffs)
    else:
        even = [c for k in coeffs for c in (k, 0.0)][:-1]
        W = Potential1D(kind="piecewise_poly", coefficients=(even,), even=True)
    if draw(st.booleans()):
        G = Potential1D(kind="poly_in_t_squared", coefficients=draw(
            st.lists(_COEFF, min_size=1, max_size=4)))
    else:
        breaks = sorted(draw(st.lists(_COEFF, max_size=3, unique=True)))
        pieces = [draw(st.lists(_COEFF, min_size=1, max_size=4))
                  for _ in range(len(breaks) + 1)]
        G = Potential1D(kind="piecewise_poly", coefficients=pieces,
                        breakpoints=breaks)
    return ProblemSpec(
        dimension=draw(st.integers(2, 6)),
        radius=draw(st.floats(1e-3, 1e3)),
        p=2.0 * (len(coeffs) - 1),
        W=W, G=G)


@given(spec=specs())
def test_spec_emit_parse_round_trip(spec):
    text = emit_spec_text(spec)
    back = parse_spec_text(text)
    assert back == spec
    assert emit_spec_text(back) == text


@st.composite
def even_samples(draw):
    # arbitrary spacings and values on [0, T], mirrored to [-T, T]
    k = draw(st.integers(2, 80))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    tpos = np.concatenate([[0.0], np.cumsum(gaps)])
    vpos = np.array(draw(st.lists(_COEFF, min_size=k + 1, max_size=k + 1)))
    t = np.concatenate([-tpos[:0:-1], tpos])
    w = np.concatenate([vpos[:0:-1], vpos])
    return t, w


@settings(max_examples=50)
@given(samples=even_samples())
def test_sampled_hull_matches_chord_oracle(samples):
    # the hull convexify builds for a sampled W, on the samples themselves
    t, w = samples
    verts = chord_hull_vertices(t, w)
    hull = _lower_hull(t, w)
    assert list(hull) == verts
    assert np.array_equal(_hull_values(t, w, hull),
                          chord_hull_values(t, w, verts))


@st.composite
def hull_points(draw):
    # x-sorted points, n < 3 included: arbitrary values, a double well
    # (convex runs around a concave middle), or a line on integer nodes
    # (every triple collinear, exactly); values rounded to one decimal
    # give ties and repeated chords
    n = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["random", "well", "line"]))
    if kind == "line":
        t = np.arange(n, dtype=float) - n // 2
        return t, 2.0 * t - 1.0
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    t = np.cumsum(gaps) - 0.5 * sum(gaps)
    if kind == "well":
        w = (t * t - draw(st.floats(0.0, 4.0))) ** 2
    else:
        w = np.array(draw(st.lists(_COEFF, min_size=n, max_size=n)))
    return t, np.round(w, 1) if draw(st.booleans()) else w


@given(points=hull_points())
def test_lower_hull_matches_plain_monotone_chain(points):
    t, w = points
    assert _lower_hull(t, w) == plain_monotone_chain(t, w)


@given(mask=st.lists(st.booleans(), max_size=64))
@example(mask=[])
@example(mask=[True])
@example(mask=[False])
@example(mask=[True] * 9)
@example(mask=[False] * 9)
def test_runs_match_scalar_walk(mask):
    # the detachment runs convexify refines, against the scalar walk
    mask = np.array(mask, dtype=bool)
    assert _runs(mask) == runs_walk(mask)


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                1e308, -1e308])
_FLOATS = st.floats() | _EDGE_FLOATS
_SCALARS = (st.none() | st.booleans() | st.integers() | _FLOATS
            | _FLOATS.map(np.float64) | st.text())
# lists of plain floats take the writer's one-join path unless their sum
# is not finite (NaN, an infinity, or an overflow such as 1e308 + 1e308)
_FLOAT_LISTS = st.lists(_FLOATS, max_size=12)


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(), children, max_size=4))


@settings(max_examples=50)
@given(obj=st.recursive(_SCALARS | _FLOAT_LISTS, _containers, max_leaves=30))
@example(obj={})
@example(obj=[])
@example(obj={"a": [], "b": {}, "c": ()})
@example(obj=[1e308, 1e308])
@example(obj=[math.nan, 1.0, -0.0, 5e-324])
@example(obj=[np.float64(0.1), 0.2])
@example(obj={"\u00e9\"\n\x00\u2028": ["\x1f\\", ("quote\"", True, None)]})
def test_report_writer_matches_json_dumps(obj):
    # a NaN or infinite float has no JSON token, so both raise ValueError
    try:
        want = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            _json_text(obj)
    else:
        assert _json_text(obj) == want


@pytest.mark.parametrize("obj", [{1: 2.0}, {None: "x"}, {"a": [{(1, 2): 3}]}])
def test_report_writer_rejects_non_str_keys(obj):
    # reports only use str keys; json.dumps would have converted these
    with pytest.raises(TypeError):
        _json_text(obj)


@pytest.mark.parametrize("obj", [math.nan, -math.inf, [1.0, math.inf],
                                 {"a": {"b": np.float64(math.nan)}},
                                 ("x", [1e308, math.nan])])
def test_report_writer_rejects_nan_and_infinity(obj):
    # RFC 8259 JSON has no NaN or Infinity token
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_text(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_csv_writer_rejects_nan_and_infinity(value):
    # the readers refuse inputs that price to NaN or infinity, so no
    # command is known to hand the CSV writer one; it refuses them too
    with pytest.raises(ValueError, match="not CSV compliant"):
        _csv_text(["r", "u"], [(0.0, 1.0), (1.0, value)])


def _bits(x):
    return np.float64(x).tobytes()


_SMALL_COEFF = st.floats(-10.0, 10.0, allow_nan=False)
_ARGS = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def polynomial_potentials(draw):
    # arbitrary coefficients: the kernels do not need W to be even or
    # coercive
    coeff_lists = st.lists(_SMALL_COEFF, min_size=1, max_size=5)
    if draw(st.booleans()):
        return Potential1D(kind="poly_in_t_squared",
                           coefficients=draw(coeff_lists))
    breaks = sorted(draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False),
                                  max_size=3, unique=True)))
    pieces = [draw(coeff_lists) for _ in range(len(breaks) + 1)]
    return Potential1D(kind="piecewise_poly", coefficients=pieces,
                       breakpoints=breaks)


@given(coeffs=st.lists(_SMALL_COEFF | st.just(-0.0), min_size=1, max_size=6))
def test_derivative_tables_match_polyder(coeffs):
    # every table entry with its bits, the signed zero of a constant's
    # derivative (c[0] * 0) included
    from numpy.polynomial import polynomial as npoly

    got = _derivative_tables(tuple(coeffs))
    want = [npoly.polyder(coeffs, k).tolist() for k in range(3)]
    assert [list(map(_bits, c)) for c in got] == \
        [list(map(_bits, c)) for c in want]


def _at(W, order, t):
    return W.eval(t) if order == 0 else W.derivative(t, order)


@given(W=polynomial_potentials(), order=st.sampled_from([0, 1, 2]),
       data=st.data())
@example(W=double_well(), order=1, data=None)
@example(W=three_well(), order=2, data=None)
@example(W=_LEVEL_POTENTIALS["turning_sampled"], order=1, data=None)
@example(W=_LEVEL_POTENTIALS["turning_sampled"], order=2, data=None)
def test_potential_scalar_path_matches_array_path(W, order, data):
    # signed zeros, an underflowing square, and the exact breakpoints or
    # sample nodes, where bisect_right must pick the piece searchsorted
    # picks
    ts = [0.0, -0.0, 1.0, -1.0, 1e-300]
    ts += [b for bp in W.breakpoints for b in (bp, -bp)]
    ts += list(W.samples[0]) if W.kind == "sampled" else []
    if data is not None:
        ts += data.draw(st.lists(_ARGS, max_size=8))
    for t in ts:
        want = _at(W, order, np.array([t]))[0]
        for arg in (float(t), np.float64(t)):
            got = _at(W, order, arg)
            assert type(got) is float
            assert _bits(got) == _bits(want), (t, order)


_ENVELOPES = {
    "double_well": double_well(),
    "three_well_0.02": three_well(0.02),
    "three_well_0.1": three_well(0.1),
    "m0": make_m0_spec().W,
}


_SAMPLED_ENVELOPES = {f"sampled_{seed}": random_even_sampled(seed)
                      for seed in range(3)}


@functools.lru_cache(maxsize=None)
def _envelope(name):
    return convexify({**_ENVELOPES, **_SAMPLED_ENVELOPES,
                      **_LEVEL_POTENTIALS}[name])


@given(name=st.sampled_from(sorted(_ENVELOPES) + ["sampled_0"]),
       ts=st.lists(_ARGS, max_size=8))
def test_envelope_scalar_path_matches_array_path(name, ts):
    env = _envelope(name)
    # the component endpoints, where the affine piece hands over to W
    ts = ts + [0.0, -0.0, env.M, -env.M]
    ts += [x for c in env.components for x in (c.a, c.b)]
    for t in ts:
        for method in (env.eval, env.deriv, env.deriv2):
            want = method(np.array([t]))[0]
            for arg in (float(t), np.float64(t)):
                got = method(arg)
                assert type(got) is float
                assert _bits(got) == _bits(want), (name, method.__name__, t)


def _warned(f, *args):
    # f(*args) and the messages of the RuntimeWarnings it raised
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", RuntimeWarning)
        out = f(*args)
    return out, [str(w.message) for w in seen]


@given(name=st.sampled_from(sorted({**_ENVELOPES, **_SAMPLED_ENVELOPES})),
       ts=st.lists(_ARGS, max_size=16))
def test_envelope_array_path_matches_masked_assignment(name, ts):
    # the endpoints of each component, where the mask flips, NaN, and the
    # infinities that overflow each affine piece (0 * inf under a constant
    # one): the array path may raise only the warnings W itself raises,
    # none for the value of a sampled W
    env = _envelope(name)
    ts = ts + [np.nan, np.inf, -np.inf, 0.0, -0.0, env.M, -env.M]
    ts = np.array(ts + [x for c in env.components
                        for x in (c.a, c.b, -c.a, -c.b)])
    for order, method in enumerate((env.eval, env.deriv, env.deriv2)):
        got, got_warned = _warned(method, ts)
        want, want_warned = _warned(masked_envelope_eval, env, ts, order)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
            (name, order, ts[got.view(np.int64) != want.view(np.int64)])
        assert got_warned == want_warned, (name, order)
        if order == 0 and env.potential.kind == "sampled":
            assert not got_warned


_SAMPLE_VALUES = st.integers(-2, 2).map(float) | st.just(-0.0) | _COEFF


def _end_cubic_limit(c, t):
    # the limit at t = +-inf of the polynomial c[0] s^k + ... + c[k] in
    # s = t - x_i: an end cubic of PPoly, or its derivative
    lead = np.flatnonzero(c[:-1])
    if not lead.size:
        return c[-1]
    j = lead[0]
    odd = (len(c) - 1 - j) % 2 == 1
    return math.copysign(math.inf, c[j] * (t if odd else 1.0))


@st.composite
def sampled_potentials(draw):
    # a non-uniform grid through t = 0; small integer values give
    # plateaus, zero secants and sign changes, and -0.0 signed zeros
    n = draw(st.integers(4, 40))
    gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1,
                         max_size=n - 1))
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    t = t - t[draw(st.integers(0, n - 1))]
    w = draw(st.lists(_SAMPLE_VALUES, min_size=n, max_size=n))
    return Potential1D(kind="sampled", samples=(t, w))


@settings(max_examples=50)
@given(W=sampled_potentials(),
       ts=st.lists(st.floats(-200.0, 200.0, allow_nan=False), max_size=16),
       beyond=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4))
@example(W=Potential1D(kind="sampled", samples=(
    np.linspace(-2.0, 2.0, 41), (np.linspace(-2.0, 2.0, 41) ** 2 - 1) ** 2)),
    ts=[], beyond=[0.0, 12.0])
def test_sampled_eval_matches_scipy_pchip_bitwise(W, ts, beyond):
    # the numpy monotone cubic and its first two derivatives must be
    # SciPy's PCHIP with extrapolation and its derivative(k), signed zeros
    # and NaN included; at +-inf, where PPoly meets inf * 0 or inf - inf,
    # each takes the limit of SciPy's end cubic of that order
    from scipy.interpolate import PchipInterpolator

    x, y = (np.asarray(a) for a in W.samples)
    beyond = np.asarray(beyond)
    t = np.concatenate([ts, x, -x, x[0] - beyond, x[-1] + beyond,
                        [np.nan, np.inf, -np.inf, -0.0]])
    # SciPy's own harmonic mean overflows on tiny secants and warns
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pchip = PchipInterpolator(x, y, extrapolate=True)
    for order in (0, 1, 2):
        pp = pchip.derivative(order) if order else pchip
        with np.errstate(over="ignore", invalid="ignore"):
            want = pp(t)
        for k in np.flatnonzero(np.isinf(t)):
            want[k] = _end_cubic_limit(pp.c[:, 0 if t[k] < 0 else -1], t[k])
        got = W.derivative(t, order) if order else W.eval(t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
            (order, t[got.view(np.int64) != want.view(np.int64)])


# sizes around powers of two change the parity of the rows left at some
# level of the reduction, and the Python-float tail takes the last rows
_TRIDIAGONAL_SIZES = [2 ** k + j for k in range(5, 13) for j in (-1, 0, 1)]


@given(n=st.one_of(st.sampled_from(_TRIDIAGONAL_SIZES), st.integers(17, 4097)),
       seed=st.integers(0, 2 ** 32 - 1),
       definite=st.booleans(),
       margin=st.floats(1e-6, 1.0))
@example(n=17, seed=0, definite=True, margin=1e-6)
@example(n=4097, seed=0, definite=False, margin=1e-6)
def test_cyclic_reduction_matches_banded_cholesky(n, seed, definite, margin):
    # the smallest eigenvalue is set to +margin or -margin, far outside
    # the rounding of either factorization, so both must give the same
    # verdict; a solution must have a normwise backward error of at most
    # 1e-13, as LAPACK's banded Cholesky has
    from scipy.linalg import LinAlgError, eigvalsh_tridiagonal, solveh_banded

    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0, n)
    e = rng.uniform(-1.0, 1.0, n - 1)
    b = rng.normal(size=n)
    lowest = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
    d += (margin if definite else -margin) - lowest
    try:
        want = solveh_banded(np.vstack([np.append(0.0, e), d]), b)
    except LinAlgError:
        want = None
    got = _spd_tridiagonal_solve(d, e, b)
    assert (got is None) == (want is None) == (not definite)
    if definite:
        residual = d * got - b
        residual[:-1] += e * got[1:]
        residual[1:] += e * got[:-1]
        row_sums = np.abs(d)
        row_sums[:-1] += np.abs(e)
        row_sums[1:] += np.abs(e)
        scale = row_sums.max() * np.abs(got).max() + np.abs(b).max()
        assert np.abs(residual).max() <= 1e-13 * scale
