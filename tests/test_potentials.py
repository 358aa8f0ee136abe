import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import radrelax
from radrelax.potentials import (
    Potential1D,
    ProblemSpec,
    check_G_shape,
    compute_M,
)
from radrelax.radial_solver import RadialGrid, RadialProfile

from conftest import double_well, make_m0_spec, three_well
from corpus import HARD, MONOTONE
from oracles import (bisected_min_poly, brute_force_largest_argmin,
                     random_even_sampled)


def test_double_well_point_values():
    W = double_well()
    assert W.eval(1.0) == 0.0
    assert W.eval(0.0) == 1.0
    assert W.eval(-2.0) == 9.0
    out = W.eval(np.array([0.0, 1.0, -2.0]))
    assert out.shape == (3,)
    assert list(out) == [1.0, 0.0, 9.0]


def test_polynomial_derivatives_exact():
    W = double_well()
    # W' = 4t^3 - 4t vanishes at the well bottom
    assert W.derivative(1.0) == 0.0
    assert W.derivative(2.0) == 24.0
    G = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0))
    assert G.derivative(2.0) == -4.0
    assert G.derivative(2.0, order=2) == -2.0
    assert G.derivative(0.0) == 0.0


_INF = math.inf

# potentials and their limits (at -inf, at +inf) for orders 0, 1 and 2
_LIMITS = {
    "double_well": (double_well,
                    [(_INF, _INF), (-_INF, _INF), (_INF, _INF)]),
    "trailing_zero": (lambda: Potential1D(kind="poly_in_t_squared",
                                          coefficients=(1.0, -2.0, 1.0, 0.0)),
                      [(_INF, _INF), (-_INF, _INF), (_INF, _INF)]),
    "concave_G": (lambda: Potential1D(kind="poly_in_t_squared",
                                      coefficients=(0.0, -1.0)),
                  [(-_INF, -_INF), (_INF, -_INF), (-2.0, -2.0)]),
    "constant": (lambda: Potential1D(kind="poly_in_t_squared",
                                     coefficients=(3.0,)),
                 [(3.0, 3.0), (0.0, 0.0), (0.0, 0.0)]),
    "linear_G": (lambda: Potential1D(kind="piecewise_poly",
                                     coefficients=((0.0, -1.0),)),
                 [(_INF, -_INF), (-1.0, -1.0), (0.0, 0.0)]),
    "three_well": (three_well,
                   [(_INF, _INF), (-_INF, _INF), (_INF, _INF)]),
    "cubic_left": (lambda: Potential1D(kind="piecewise_poly",
                                       coefficients=((0.0, 0.0, 0.0, 1.0),
                                                     (0.0, 2.0)),
                                       breakpoints=(0.0,)),
                   [(-_INF, _INF), (_INF, 2.0), (-_INF, 0.0)]),
}


def _orders(W):
    # W.eval for order 0, W.derivative above it
    def at(t, order):
        return W.eval(t) if order == 0 else W.derivative(t, order)
    return at


@pytest.mark.parametrize("name", list(_LIMITS))
def test_polynomial_kinds_take_their_limit_at_infinity(name):
    # x * 0 and 0 * inf gave NaN with a RuntimeWarning (an error in this
    # suite) before; the finite entries keep the kernel's bits
    make, limits = _LIMITS[name]
    W = make()
    at = _orders(W)
    t = np.array([-_INF, -1.5, 0.5, _INF])
    for order, (lo, hi) in enumerate(limits):
        out = at(t, order)
        assert [out[0], out[-1]] == [lo, hi]
        assert out[1:3].tobytes() == W._kernel(t[1:3], order).tobytes()
        assert [at(-_INF, order), at(_INF, order)] == [lo, hi]


def test_sampled_kind_takes_the_end_cubics_limit_at_infinity():
    # eval gave NaN silently, and the centered differences met inf - inf
    # with a RuntimeWarning, before. The end cubics continue past the
    # grid, so at +-1e100 each order is already huge with its limit's
    # sign; the finite entries keep the kernel's bits
    W = random_even_sampled(3)
    at = _orders(W)
    t = np.array([-_INF, -1.5, 0.5, _INF])
    for order in (0, 1, 2):
        far = at(np.array([-1e100, 1e100]), order)
        assert np.all(np.abs(far) > 1e99)
        limits = [math.copysign(_INF, x) for x in far]
        out = at(t, order)
        assert [out[0], out[-1]] == limits
        assert out[1:3].tobytes() == W._kernel(t[1:3], order).tobytes()
        assert [at(-_INF, order), at(_INF, order)] == limits


@pytest.mark.parametrize("name", list(_LIMITS))
def test_polynomial_array_path_keeps_finite_bits(name):
    # the array path on finite input, signed zeros and subnormals
    # included, is the kernel it called before, bit for bit; a float
    # argument gives the same bits
    W = _LIMITS[name][0]()
    at = _orders(W)
    t = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.25, -1.0,
                  1.0, math.sqrt(151.0 / 60.0), -2.5, 3.0, 1e30, -1e30])
    for order in (0, 1, 2):
        out = at(t, order)
        assert out.tobytes() == W._kernel(t, order).tobytes()
        assert (np.array([at(float(x), order) for x in t]).tobytes()
                == out.tobytes())


def test_cached_derivative_orders_stay_apart():
    W = three_well()
    t = np.array([-3.0, -1.2, 0.0, 0.7, 1.5, 2.5])
    inner = np.abs(t) < math.sqrt(151.0 / 60.0)
    d1 = np.where(inner, 4.0 * t ** 3 - 4.0 * t, 4.0 * t ** 3 - 16.0 * t)
    d2 = np.where(inner, 12.0 * t * t - 4.0, 12.0 * t * t - 16.0)
    for _ in range(2):
        assert np.allclose(W.derivative(t, order=2), d2, rtol=0, atol=1e-12)
        assert np.allclose(W.derivative(t), d1, rtol=0, atol=1e-12)


def test_piecewise_eval_continuity_and_values():
    W = three_well()
    assert W.eval(1.0) == 0.0
    assert abs(W.eval(2.0) - 0.1) < 1e-14
    bp = W.breakpoints[1]
    left = W.eval(bp - 1e-9)
    right = W.eval(bp + 1e-9)
    assert abs(left - right) < 1e-7
    assert W.eval(0.0) == 1.0


def test_sampled_kind_interpolates_its_nodes():
    W = random_even_sampled(3)
    t, v = W.samples
    out = np.asarray(W.eval(t))
    assert np.max(np.abs(out - v)) < 1e-12
    # float32-representable samples given as lists, float64 arrays and
    # float32 arrays are stored as the same read-only float64 array, and
    # build equal potentials
    t32, v32 = t.astype(np.float32), v.astype(np.float32)
    want = np.array((t32, v32), dtype=np.float64)
    built = [Potential1D(kind="sampled", samples=samples)
             for samples in ((t32.tolist(), v32.tolist()),
                             (t32.astype(float), v32.astype(float)),
                             (t32, v32))]
    for P in built:
        got = P.samples
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == want.shape == (2, len(t))
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()
        assert P == built[0]


def test_sampled_evenness_is_the_even_field():
    # the probe's verdict is the field itself, so an even sampled
    # potential equals the same samples declared even
    W = random_even_sampled(3)
    assert W.even is True
    assert W == Potential1D(kind="sampled", samples=W.samples, even=True)
    t = np.linspace(-2.0, 2.0, 41)
    tilted = Potential1D(kind="sampled", samples=(t, t ** 4 + 0.1 * t),
                         even=True)
    assert tilted.even is False


def test_evenness_declarations():
    assert double_well().even is True
    assert three_well().even is True
    odd = Potential1D(kind="piecewise_poly", coefficients=((0.0, 1.0, 0.0, 1.0),))
    assert odd.even is False
    with pytest.raises(ValueError, match="declared even"):
        Potential1D(kind="piecewise_poly", coefficients=((0.0, 1.0, 0.0, 1.0),),
                    even=True)


def test_construction_errors():
    with pytest.raises(ValueError, match="unknown potential kind"):
        Potential1D(kind="spline")
    with pytest.raises(ValueError, match="breakpoints need"):
        Potential1D(kind="piecewise_poly", coefficients=((1.0,), (1.0,)),
                    breakpoints=())
    with pytest.raises(ValueError, match="sorted"):
        Potential1D(kind="piecewise_poly",
                    coefficients=((1.0,), (1.0,), (1.0,)),
                    breakpoints=(1.0, -1.0))
    with pytest.raises(ValueError, match="t = 0"):
        Potential1D(kind="sampled",
                    samples=((0.5, 1.0, 1.5, 2.0), (1.0, 0.0, 1.0, 2.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        Potential1D(kind="sampled",
                    samples=((0.0, 1.0, 1.0, 2.0), (1.0, 0.0, 1.0, 2.0)))
    # the increasing test alone lets an infinite grid point through, and
    # nothing else looks at the values
    with pytest.raises(ValueError, match="finite"):
        Potential1D(kind="sampled",
                    samples=((-1.0, 0.0, 1.0, 2.0), (1.0, 0.0, math.nan, 2.0)))
    with pytest.raises(ValueError, match="finite"):
        Potential1D(kind="sampled",
                    samples=((-1.0, 0.0, 1.0, math.inf), (1.0, 0.0, 1.0, 2.0)))


@pytest.mark.parametrize("build, message", [
    (lambda: Potential1D(kind="poly_in_t_squared"),
     "poly_in_t_squared needs coefficients"),
    (lambda: Potential1D(kind="piecewise_poly", coefficients=()),
     "piecewise_poly needs per-piece coefficients"),
    (lambda: Potential1D(kind="sampled"), "sampled kind needs samples"),
    (lambda: Potential1D(kind="sampled",
                         samples=((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))),
     "samples need matching t/value arrays, >= 4 points"),
    (lambda: double_well().derivative(1.0, order=3), "order must be 1 or 2"),
    (lambda: ProblemSpec(dimension=2, radius=1.0, p=4.0, W=double_well(),
                         G=double_well(), shape_flag="G3"),
     "unknown shape flag 'G3'"),
    (lambda: RadialProfile(RadialGrid.uniform(1.0, 16), np.zeros(5)),
     "profile length must match grid nodes"),
])
def test_missing_and_malformed_inputs_raise(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_potential_is_unequal_to_other_types():
    assert (double_well() == 3) is False


_SAMPLES = ((-1.0, 0.0, 1.0, 2.0), (1.0, 0.0, 1.0, 4.0))


@pytest.mark.parametrize("kind,field,value", [
    ("poly_in_t_squared", "breakpoints", (10.0,)),
    ("poly_in_t_squared", "samples", _SAMPLES),
    ("piecewise_poly", "samples", _SAMPLES),
    ("sampled", "coefficients", (1.0, -2.0, 1.0)),
    ("sampled", "breakpoints", (10.0,)),
])
def test_unused_fields_rejected(kind, field, value):
    # a field its kind never evaluates would still count in equality, and
    # breakpoints would size T: the double well given breakpoints=(10.0,)
    # got T = 13.5 instead of 2.50
    given = {"poly_in_t_squared": {"coefficients": (1.0, -2.0, 1.0)},
             "piecewise_poly": {"coefficients": ((1.0, -2.0, 1.0),)},
             "sampled": {"samples": _SAMPLES}}[kind]
    with pytest.raises(ValueError, match=f"^{kind} takes no {field}$"):
        Potential1D(kind=kind, **given, **{field: value})


@pytest.mark.parametrize("kind,given,field,empty", [
    ("poly_in_t_squared", {"coefficients": (1.0, 1.0)}, "breakpoints", []),
    ("piecewise_poly", {"coefficients": ((1.0, -2.0, 1.0),)}, "samples", ()),
    ("sampled", {"samples": _SAMPLES}, "coefficients", []),
])
def test_empty_unused_field_compares_equal(kind, given, field, empty):
    # an empty unused field was kept as given, so these pairs compared
    # unequal
    bare = Potential1D(kind=kind, **given)
    padded = Potential1D(kind=kind, **given, **{field: empty})
    assert padded == bare
    assert getattr(padded, field) == getattr(bare, field)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_polynomial_data_rejected(bad):
    # the spec parser rejects these first; the library must too, or
    # eval returns nan or inf
    with pytest.raises(ValueError, match="coefficients must be finite"):
        Potential1D(kind="poly_in_t_squared", coefficients=(0.0, bad, 1.0))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        Potential1D(kind="piecewise_poly",
                    coefficients=((1.0, 0.0, 1.0), (1.0, bad)),
                    breakpoints=(1.0,))
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        Potential1D(kind="piecewise_poly",
                    coefficients=((1.0,), (1.0,), (1.0, 0.0, 1.0)),
                    breakpoints=(bad, 1.0))
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        ProblemSpec(dimension=2, radius=bad, p=4.0, W=double_well(),
                    G=double_well())
    with pytest.raises(ValueError, match="p must exceed 1 and be finite"):
        ProblemSpec(dimension=2, radius=1.0, p=bad, W=double_well(),
                    G=double_well())
    # int(nan) and int(inf) raise their own errors, so finiteness is
    # tested first
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        ProblemSpec(dimension=bad, radius=1.0, p=4.0, W=double_well(),
                    G=double_well())


def test_spec_rejects_dimension_with_overflowing_sphere_area():
    # Gamma(N/2) in the sphere area overflows a float from N = 344 on
    ProblemSpec(dimension=343, radius=1.0, p=4.0, W=double_well(),
                G=double_well())
    for N in (344, 10 ** 6):
        with pytest.raises(ValueError, match=f"dimension {N} is too large"):
            ProblemSpec(dimension=N, radius=1.0, p=4.0, W=double_well(),
                        G=double_well())


def test_sample_array_is_read_only():
    # the potential keeps its own copy of the samples: writing the
    # caller's array later leaves it, and its values, unchanged
    t = np.linspace(-2.0, 2.0, 41)
    given = np.array((t, (t * t - 1.0) ** 2))
    kept = given.copy()
    W = Potential1D(kind="sampled", samples=given)
    arr = W.samples
    assert arr.shape == (2, 41) and arr.dtype == np.float64
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[1, 0] = 0.0
    assert not np.shares_memory(arr, given)
    given[1] = 0.0
    assert arr.tobytes() == kept.tobytes()
    assert W.eval(0.0) == 1.0


def test_changing_one_sample_breaks_equality():
    W = random_even_sampled(4)
    t, v = (a.copy() for a in W.samples)
    assert W == Potential1D(kind="sampled", samples=(t, v))
    spec = ProblemSpec(dimension=2, radius=1.0, p=2.0, W=W, G=double_well())
    v[len(v) // 2] += 1e-9
    bumped = Potential1D(kind="sampled", samples=(t, v))
    assert W != bumped and not W == bumped
    same = Potential1D(kind="sampled", samples=W.samples)
    assert spec == ProblemSpec(dimension=2, radius=1.0, p=2.0, W=same,
                               G=double_well())
    assert spec != ProblemSpec(dimension=2, radius=1.0, p=2.0, W=bumped,
                               G=double_well())
    t[1] = t[0] - (t[0] - t[1]) / 2  # one node moved, the values kept
    assert W != Potential1D(kind="sampled", samples=(t, W.samples[1]))
    assert W != double_well()


def test_sampled_potential_rebuilt_from_its_samples_keeps_its_bits():
    W = random_even_sampled(5)
    again = Potential1D(kind="sampled", samples=W.samples)
    pts = np.concatenate([W.samples[0], [0.0, -0.0, np.inf, -np.inf]])

    def at(P, t, order):
        return np.asarray(P.eval(t) if order == 0 else P.derivative(t, order))

    for order in range(3):
        for t in (pts, *pts.tolist()):
            assert at(W, t, order).tobytes() == at(again, t, order).tobytes()


def test_sampled_potential_holds_its_samples_once():
    # the samples (16 bytes per node) and the cubics (32) are all a
    # sampled potential keeps; a second copy of the samples as a tuple
    # of Python floats kept about 114 bytes per node
    t = np.linspace(-3.0, 3.0, 1501)
    samples = (t, (t * t - 1.0) ** 2)
    Potential1D(kind="sampled", samples=samples)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        W = Potential1D(kind="sampled", samples=samples)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert W.samples.shape == (2, 1501)
    assert retained <= 56 * 1501


def test_sampled_path_loads_no_scipy():
    # a sampled W, its envelope and the Newton curvature model are numpy
    # only, beyond the sample range too, so they never pay for scipy
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {tests_dir!r})\n"
        "import numpy as np\n"
        "from oracles import random_even_sampled\n"
        "from radrelax.envelope import convexify\n"
        "W = random_even_sampled(3)\n"
        "env = convexify(W)\n"
        "T = W.domain_halfwidth\n"
        "t = np.linspace(-2.0 * T, 2.0 * T, 101)\n"
        "W.eval(t), W.derivative(t), W.derivative(t, 2)\n"
        "env.eval(t), env.deriv(t), env.eval(1.5 * T), env.deriv(-1.5 * T)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(radrelax.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_compute_M_double_well_exact():
    assert compute_M(double_well()) == 1.0


def test_compute_M_convex_is_zero():
    W = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0))
    assert compute_M(W) == 0.0


def test_compute_M_three_well_against_brute_force():
    W = three_well()
    M = compute_M(W)
    # the derivative-free oracle is limited to ~sqrt(eps) in the argmin
    ref = brute_force_largest_argmin(W)
    assert abs(M - ref) <= 1e-6
    assert abs(M - 1.0) <= 1e-12


def test_compute_M_picks_largest_tied_minimizer():
    # W = (t^2-1)^2 (t^2-4)^2 has equal zero minima at t = 1 and t = 2
    W = Potential1D(
        kind="poly_in_t_squared",
        coefficients=(16.0, -40.0, 33.0, -10.0, 1.0),
    )
    assert abs(compute_M(W) - 2.0) <= 1e-10
    assert abs(brute_force_largest_argmin(W) - 2.0) <= 1e-6


def test_compute_M_refines_as_the_bisection_did(monkeypatch):
    # safeguarded Newton on W' lands on the bisection's minimizer, bit for
    # bit, in every scan bracket of the corpus and fixture potentials
    import radrelax.potentials as potentials_mod

    real, calls = potentials_mod._refine_min_poly, []

    def spy(W, lo, hi):
        calls.append((W, lo, hi, real(W, lo, hi)))
        return calls[-1][-1]

    monkeypatch.setattr(potentials_mod, "_refine_min_poly", spy)
    Ws = {(W.kind, W.coefficients): W for W in
          [make().W for make in (*MONOTONE.values(), *HARD.values())]
          + [double_well(), three_well(), make_m0_spec().W]}
    for W in Ws.values():
        compute_M(W)
    assert len(Ws) == 53 and len(calls) == 54
    for W, lo, hi, got in calls:
        assert got == bisected_min_poly(W, lo, hi)


def test_compute_M_shift_and_scale_invariance():
    M0 = compute_M(double_well())
    shifted = Potential1D(kind="poly_in_t_squared", coefficients=(4.5, -2.0, 1.0))
    scaled = Potential1D(kind="poly_in_t_squared", coefficients=(3.0, -6.0, 3.0))
    assert abs(compute_M(shifted) - M0) <= 1e-12
    assert abs(compute_M(scaled) - M0) <= 1e-12


def test_compute_M_scan_density_stable(monkeypatch):
    W = three_well()
    a = compute_M(W)
    monkeypatch.setattr("radrelax.potentials._SCAN_POINTS", 16384)
    b = compute_M(W)
    assert abs(a - b) <= 1e-8


def test_compute_M_sampled_kind():
    # monotone interpolation puts the minimum on a sample node, so the
    # recovered M is exact only to the grid spacing (here 1.5e-3)
    t = np.linspace(-3.0, 3.0, 4001)
    v = (t * t - 1.0) ** 2
    W = Potential1D(kind="sampled", samples=(tuple(t), tuple(v)))
    assert abs(compute_M(W) - 1.0) <= float(t[1] - t[0])


def test_compute_M_sampled_plateau_is_its_last_sample():
    # 20 equal samples on [0, 1.9], then a rising tail: the plateau's
    # points are all local minima, and the largest of them is M
    tpos = np.concatenate([np.linspace(0.0, 1.9, 20),
                           1.9 + 0.1 * np.arange(1, 11)])
    wpos = np.maximum(tpos - 1.9, 0.0) ** 2
    t = np.concatenate([-tpos[:0:-1], tpos])
    w = np.concatenate([wpos[:0:-1], wpos])
    W = Potential1D(kind="sampled", samples=(tuple(t), tuple(w)))
    assert compute_M(W) == 1.9


def test_compute_M_sampled_origin_win_is_exactly_zero():
    # the neighbour node of t = 0 lies within the tie tolerance of the
    # minimum but is not a local minimum, so it does not compete
    assert compute_M(random_even_sampled(102)) == 0.0


def test_compute_M_sampled_is_a_sample_node():
    for seed in range(50):
        W = random_even_sampled(seed)
        assert compute_M(W) in set(W.samples[0])


def test_coercivity_rejection():
    with pytest.raises(ValueError, match="coercive"):
        compute_M(Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)))
    with pytest.raises(ValueError, match="coercive"):
        compute_M(Potential1D(kind="piecewise_poly",
                              coefficients=((0.0, 0.0, -1.0),)))
    t = np.linspace(-2.0, 2.0, 101)
    v = -t * t
    with pytest.raises(ValueError, match="coercive"):
        compute_M(Potential1D(kind="sampled", samples=(tuple(t), tuple(v))))


def test_check_G_shape_monotone_cases():
    G = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0))
    assert check_G_shape(G) == []
    assert check_G_shape(G, strict=True) == []

    rising = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0))
    witnesses = check_G_shape(rising)
    assert witnesses
    assert witnesses[0]["check"] == "monotone_decrease"
    assert witnesses[0]["mu_lo"] == 0.0

    linear = Potential1D(kind="piecewise_poly", coefficients=((0.0, -1.0),))
    assert check_G_shape(linear, strict=True) == []


def test_check_G_shape_strict_implies_nonstrict():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0, size=3)
        G = Potential1D(kind="poly_in_t_squared", coefficients=tuple(c))
        strict = check_G_shape(G, strict=True)
        loose = check_G_shape(G)
        if not strict:
            assert not loose


def test_check_G_shape_even_dominance_witness():
    # decreasing on [0, T] but larger there than at the mirrored point
    G = Potential1D(kind="piecewise_poly", coefficients=((0.0, 1.0, -1.0),))
    witnesses = check_G_shape(G)
    assert witnesses
    assert any(wit["check"] == "even_dominance" for wit in witnesses)


def test_problem_spec_validation():
    with pytest.raises(ValueError, match="dimension"):
        ProblemSpec(dimension=1, radius=1.0, p=4.0, W=double_well(),
                    G=double_well())
    with pytest.raises(ValueError, match="radius"):
        ProblemSpec(dimension=2, radius=0.0, p=4.0, W=double_well(),
                    G=double_well())
    with pytest.raises(ValueError, match="p must exceed"):
        ProblemSpec(dimension=2, radius=1.0, p=1.0, W=double_well(),
                    G=double_well())
    odd = Potential1D(kind="piecewise_poly", coefficients=((0.0, 1.0, 0.0, 1.0),))
    with pytest.raises(ValueError, match="even"):
        ProblemSpec(dimension=2, radius=1.0, p=4.0, W=odd, G=double_well())
    rising = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0))
    with pytest.raises(ValueError, match="G2"):
        ProblemSpec(dimension=2, radius=1.0, p=4.0, W=double_well(),
                    G=rising, shape_flag="G2")


@pytest.mark.parametrize("layer", ["specfile", "potentials", "envelope",
                                   "radial_solver", "verify", "disc2d"])
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"radrelax.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
