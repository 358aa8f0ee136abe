import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import radrelax
from radrelax.potentials import (
    GrowthDeclaration,
    Potential1D,
    ProblemSpec,
    check_G_shape,
    compute_M,
    validate_spec,
)

from conftest import double_well, three_well
from oracles import brute_force_largest_argmin, random_even_sampled


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
    t, v = np.asarray(W.samples[0]), np.asarray(W.samples[1])
    out = np.asarray(W.eval(t))
    assert np.max(np.abs(out - v)) < 1e-12
    # float32-representable samples given as lists, float64 arrays and
    # float32 arrays are stored as the same tuples of Python floats
    t32, v32 = t.astype(np.float32), v.astype(np.float32)
    want = tuple(tuple(float(x) for x in a) for a in (t32, v32))
    for samples in ((t32.tolist(), v32.tolist()),
                    (t32.astype(float), v32.astype(float)), (t32, v32)):
        got = Potential1D(kind="sampled", samples=samples).samples
        assert got == want
        assert all(type(x) is float for a in got for x in a)


def test_evenness_declarations():
    assert double_well().is_even()
    assert three_well().is_even()
    odd = Potential1D(kind="piecewise_poly", coefficients=((0.0, 1.0, 0.0, 1.0),))
    assert not odd.is_even()
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
        "from radrelax.potentials import _second_derivative\n"
        "W = random_even_sampled(3)\n"
        "env = convexify(W)\n"
        "T = W.domain_halfwidth\n"
        "t = np.linspace(-2.0 * T, 2.0 * T, 101)\n"
        "W.eval(t), W.derivative(t), _second_derivative(W, t)\n"
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


def test_compute_M_shift_and_scale_invariance():
    M0 = compute_M(double_well())
    shifted = Potential1D(kind="poly_in_t_squared", coefficients=(4.5, -2.0, 1.0))
    scaled = Potential1D(kind="poly_in_t_squared", coefficients=(3.0, -6.0, 3.0))
    assert abs(compute_M(shifted) - M0) <= 1e-12
    assert abs(compute_M(scaled) - M0) <= 1e-12


def test_compute_M_scan_density_stable():
    W = three_well()
    a = compute_M(W)
    b = compute_M(W, scan_points=16384)
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
    assert check_G_shape(G).passes
    assert check_G_shape(G, strict=True).passes

    rising = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0))
    rep = check_G_shape(rising)
    assert not rep.passes
    assert rep.witnesses[0]["check"] == "monotone_decrease"
    assert rep.witnesses[0]["mu_lo"] == 0.0

    linear = Potential1D(kind="piecewise_poly", coefficients=((0.0, -1.0),))
    assert check_G_shape(linear, strict=True).passes


def test_check_G_shape_strict_implies_nonstrict():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0, size=3)
        G = Potential1D(kind="poly_in_t_squared", coefficients=tuple(c))
        strict = check_G_shape(G, strict=True)
        loose = check_G_shape(G)
        if strict.passes:
            assert loose.passes


def test_check_G_shape_even_dominance_witness():
    # decreasing on [0, T] but larger there than at the mirrored point
    G = Potential1D(kind="piecewise_poly", coefficients=((0.0, 1.0, -1.0),))
    rep = check_G_shape(G)
    assert not rep.passes
    assert any(wit["check"] == "even_dominance" for wit in rep.witnesses)


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


def test_p_star():
    spec = ProblemSpec(dimension=3, radius=1.0, p=2.0, W=double_well(),
                       G=double_well())
    assert abs(spec.p_star - 6.0) <= 1e-12
    spec4 = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=double_well(),
                        G=double_well())
    assert spec4.p_star == math.inf


def test_validate_spec_rho_range(prototype_spec):
    ok = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=prototype_spec.W,
                     G=prototype_spec.G, shape_flag="G2",
                     declared_growth=GrowthDeclaration(rho=2.0))
    rep = validate_spec(ok)
    assert rep.passes
    bad = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=prototype_spec.W,
                      G=prototype_spec.G, shape_flag="G2",
                      declared_growth=GrowthDeclaration(rho=5.0))
    rep = validate_spec(bad)
    assert not rep.passes
    assert any(r["name"] == "rho_range" and not r["passed"]
               for r in rep.records)


def test_validate_spec_subcritical_G_growth():
    W = double_well()
    G4 = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 0.0, -1.0))
    ok = ProblemSpec(dimension=3, radius=1.0, p=2.0, W=W, G=G4,
                     declared_growth=GrowthDeclaration(rho=2.0))
    assert validate_spec(ok).passes
    G5 = Potential1D(kind="piecewise_poly",
                     coefficients=((0.0, 0.0, 0.0, 0.0, 0.0, -1.0),))
    bad = ProblemSpec(dimension=3, radius=1.0, p=2.0, W=W, G=G5,
                      declared_growth=GrowthDeclaration(rho=2.0))
    rep = validate_spec(bad)
    assert not rep.passes
    assert any(r["name"] == "G_upper_growth" and not r["passed"]
               for r in rep.records)


def test_validate_spec_W_growth_bounds(prototype_spec):
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=prototype_spec.W, G=prototype_spec.G,
        shape_flag="G2",
        declared_growth=GrowthDeclaration(nu1=0.5, nu2=2.0, C=2.0, rho=2.0))
    rep = validate_spec(spec)
    assert rep.passes
    assert any(r["name"] == "W_growth_bounds" and r["passed"]
               for r in rep.records)
    tight = ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=prototype_spec.W, G=prototype_spec.G,
        shape_flag="G2",
        declared_growth=GrowthDeclaration(nu1=2.0, nu2=2.0, C=0.0, rho=2.0))
    rep = validate_spec(tight)
    assert any(r["name"] == "W_growth_bounds" and not r["passed"]
               for r in rep.records)


def test_degree_report():
    assert double_well().degree() == 4
    assert three_well().degree() == 4
    assert random_even_sampled(0).degree() is None
