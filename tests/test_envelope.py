import numpy as np
import pytest

from radrelax import envelope
from radrelax.envelope import (NumericalFailure, _hull_values, _lower_hull,
                               _refine_tangency, convexify)
from radrelax.potentials import Potential1D, compute_M

from conftest import double_well, make_m0_spec, three_well
from oracles import (
    array_only,
    chord_hull_values,
    chord_hull_vertices,
    fixed_step_polish_tangency,
    naive_min_chord,
    plain_monotone_chain,
    random_even_sampled,
)

# Tangency data for the three-well fixture, frozen from an independent
# solve of W'(a) = W'(b) = (W(b) - W(a))/(b - a) with both pieces known
# in closed form (scipy.optimize.fsolve, residuals < 2e-15).
THREE_WELL_A = 1.0123292525679293
THREE_WELL_B = 2.0031321895401732
THREE_WELL_ALPHA = 0.10046564287189406
THREE_WELL_BETA = -0.10108874747268787


def test_double_well_envelope_closed_form():
    env = convexify(double_well())
    t = env.grid
    ref = np.where(np.abs(t) <= 1.0, 0.0, (t * t - 1.0) ** 2)
    assert float(np.max(np.abs(env.values - ref))) <= 1e-8
    assert env.M == 1.0
    assert env.wcaffine_holds
    assert len(env.components) == 1
    comp = env.components[0]
    assert (comp.a, comp.b) == (-1.0, 1.0)
    assert comp.alpha == 0.0
    assert comp.beta == 0.0
    assert comp.is_constant


def test_touching_components_merge(monkeypatch):
    # W = t^2 (t^2 - 1)^2 has three global minima, at 0 and +-1, so the
    # hull runs (-1, 0) and (0, 1) share the node t = 0 and carry the
    # same (zero) affine data: they must merge into one constant piece
    W = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0, -2.0, 1.0))
    seen = []
    merge = envelope._merge_agreeing

    def spy(comps, t, scale):
        seen.append([(c.a, c.b) for c in comps])
        return merge(comps, t, scale)

    monkeypatch.setattr(envelope, "_merge_agreeing", spy)
    env = convexify(W)
    assert len(seen) == 1
    (a0, b0), (a1, b1) = seen[0]
    assert (a0, b1) == (-1.0, 1.0)
    assert abs(b0) <= 1e-12 and abs(a1) <= 1e-12
    assert env.M == 1.0
    assert env.wcaffine_holds
    assert len(env.components) == 1
    comp = env.components[0]
    assert (comp.a, comp.b) == (-1.0, 1.0)
    assert comp.is_constant
    assert abs(comp.alpha) <= 1e-12 and abs(comp.beta) <= 1e-12


def test_three_well_tangency_frozen_values():
    env = convexify(three_well())
    assert env.M == 1.0
    assert not env.wcaffine_holds
    assert len(env.components) == 3
    left, mid, right = env.components
    assert abs(right.a - THREE_WELL_A) <= 1e-10
    assert abs(right.b - THREE_WELL_B) <= 1e-10
    assert abs(right.alpha - THREE_WELL_ALPHA) <= 1e-12
    assert abs(right.beta - THREE_WELL_BETA) <= 1e-12
    assert abs(left.a + THREE_WELL_B) <= 1e-10
    assert abs(left.b + THREE_WELL_A) <= 1e-10
    assert abs(left.alpha + THREE_WELL_ALPHA) <= 1e-12
    assert abs(left.beta - THREE_WELL_BETA) <= 1e-12
    assert (mid.a, mid.b) == (-1.0, 1.0)
    assert mid.alpha == 0.0 and mid.is_constant
    assert not left.is_constant and not right.is_constant
    assert left.alpha < 0.0 < right.alpha


def test_convex_potential_is_its_own_envelope():
    W = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0))
    env = convexify(W)
    assert np.array_equal(env.values, env.w_values)
    assert env.components == []
    assert env.wcaffine_holds
    assert env.M == 0.0


def test_envelope_idempotent():
    env = convexify(double_well())
    resampled = Potential1D(kind="sampled",
                            samples=(tuple(env.grid), tuple(env.values)))
    again = convexify(resampled)
    assert float(np.max(np.abs(again.values - env.values))) <= 1e-12


def test_envelope_below_potential_and_convex():
    for W in (double_well(), three_well(), random_even_sampled(5)):
        env = convexify(W)
        assert np.all(env.values <= env.w_values + 1e-12)
        scale = float(np.max(env.w_values) - np.min(env.values)) or 1.0
        second = np.diff(env.values, 2)
        assert float(second.min()) >= -1e-10 * scale


def test_envelope_even():
    env = convexify(three_well())
    t = np.linspace(0.0, 2.5, 1001)
    assert float(np.max(np.abs(env.eval(t) - env.eval(-t)))) <= 1e-10


def test_envelope_nondecreasing_on_nonnegative_axis():
    for W in (double_well(), three_well()):
        env = convexify(W)
        t = np.linspace(0.0, float(W.domain_halfwidth), 2001)
        vals = env.eval(t)
        assert float(np.min(np.diff(vals))) >= -1e-12


def test_envelope_contact_at_M():
    for W in (double_well(), three_well()):
        env = convexify(W)
        assert abs(env.eval(env.M) - W.eval(env.M)) <= 1e-12
        assert abs(env.eval(-env.M) - W.eval(-env.M)) <= 1e-12


def test_component_endpoints_stable_under_grid_doubling():
    W = three_well()
    a = convexify(W, grid_points=4097)
    b = convexify(W, grid_points=8193)
    for ca, cb in zip(a.components, b.components):
        assert abs(ca.a - cb.a) <= 1e-6
        assert abs(ca.b - cb.b) <= 1e-6
        assert abs(ca.alpha - cb.alpha) <= 1e-8


def test_component_interiors_strictly_detached():
    env = convexify(three_well())
    W = env.potential
    for c in env.components:
        interior = np.linspace(c.a, c.b, 102)[1:-1]
        gap = np.asarray(W.eval(interior)) - (c.alpha * interior + c.beta)
        assert float(gap.min()) >= -1e-10
        assert float(gap[len(gap) // 2]) > 1e-6
        assert abs(W.eval(c.a) - (c.alpha * c.a + c.beta)) <= 1e-8
        assert abs(W.eval(c.b) - (c.alpha * c.b + c.beta)) <= 1e-8


def test_eval_and_deriv_split_inside_outside():
    env = convexify(double_well())
    assert env.eval(0.5) == 0.0
    assert env.deriv(0.5) == 0.0
    assert env.eval(2.0) == 9.0
    assert env.deriv(2.0) == 24.0
    assert env.eval(np.array([0.0])).shape == (1,)


def test_deriv2_zero_inside_detachment():
    env = convexify(double_well())
    assert env.deriv2(0.5) == 0.0
    assert env.deriv2(2.0) == 44.0
    # sampled kinds: W'' of the cubics, which jumps at the knots (these
    # x are knots), outside the components, and 0 inside them
    t = np.linspace(-3.0, 3.0, 601)
    W = Potential1D(kind="sampled", samples=(t, (t * t - 1.0) ** 2))
    sampled = convexify(W)
    x = np.array([-2.5, -1.7, 0.0, 0.5, 1.3, 2.0])
    inside = np.zeros(len(x), dtype=bool)
    for c in sampled.components:
        inside |= c.contains(x)
    assert list(inside) == [False, False, True, True, False, False]
    assert np.array_equal(sampled.deriv2(x),
                          np.where(inside, 0.0, W.derivative(x, 2)))


def test_convexify_input_validation():
    with pytest.raises(ValueError, match="grid_points"):
        convexify(double_well(), grid_points=32)
    odd = Potential1D(kind="piecewise_poly",
                      coefficients=((0.0, 1.0, 0.0, 1.0),))
    with pytest.raises(ValueError, match="even"):
        convexify(odd)
    with pytest.raises(ValueError, match="coercive"):
        convexify(Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)))


TANGENCY_POTENTIALS = {
    "three_well_0.02": lambda: three_well(0.02),
    "three_well_0.1": lambda: three_well(0.1),
    "three_well_0.3": lambda: three_well(0.3),
    "octic_a": lambda: Potential1D(kind="poly_in_t_squared",
                                   coefficients=(16, -39.9, 33, -10, 1)),
    "octic_b": lambda: Potential1D(kind="poly_in_t_squared",
                                   coefficients=(16, -39.5, 33, -10, 1)),
    "octic_c": lambda: Potential1D(kind="poly_in_t_squared",
                                   coefficients=(1, -4.95, 8.25, -5, 1)),
    "dodecic": lambda: Potential1D(
        kind="poly_in_t_squared",
        coefficients=(16.2, -48.4, 54.45, -28.8, 7.7, -1, 0.05)),
}


@pytest.mark.parametrize("grid_points", [64, 257, 4097, 16385])
@pytest.mark.parametrize("name", sorted(TANGENCY_POTENTIALS))
def test_tangency_residuals(name, grid_points):
    # each affine piece touches W tangentially at both ends and stays
    # below W in between, at every grid size
    W = TANGENCY_POTENTIALS[name]()
    env = convexify(W, grid_points=grid_points)
    pieces = [c for c in env.components if not c.is_constant]
    assert pieces
    for c in pieces:
        tol = 1e-10 * max(1.0, abs(c.alpha))
        chord = (W.eval(c.b) - W.eval(c.a)) / (c.b - c.a)
        assert abs(W.derivative(c.a) - c.alpha) <= tol
        assert abs(W.derivative(c.b) - c.alpha) <= tol
        assert abs(chord - c.alpha) <= tol
        x = np.linspace(c.a, c.b, 2001)
        scale = max(1.0, float(np.max(np.abs(W.eval(x)))))
        assert float(np.min(W.eval(x) - (c.alpha * x + c.beta))) >= -1e-12 * scale


@pytest.mark.parametrize("grid_points", [64, 257, 4097, 16385])
def test_polish_early_exit_keeps_components(grid_points, monkeypatch):
    # leaving the Newton loops once a step or a round changes nothing must
    # give the components the fixed 4 x 3 steps gave, bit for bit
    new = {name: convexify(make(), grid_points=grid_points).components
           for name, make in TANGENCY_POTENTIALS.items()}
    monkeypatch.setattr(envelope, "_polish_tangency", fixed_step_polish_tangency)
    for name, make in TANGENCY_POTENTIALS.items():
        old = convexify(make(), grid_points=grid_points).components
        assert [c.to_dict() for c in new[name]] == [c.to_dict() for c in old], name


SCALAR_KERNEL_POTENTIALS = {**TANGENCY_POTENTIALS, "double_well": double_well,
                            "m0": lambda: make_m0_spec().W}


@pytest.mark.parametrize("name", sorted(SCALAR_KERNEL_POTENTIALS))
def test_scalar_kernels_keep_m_and_components(name):
    # compute_M and the tangency polish call W one float at a time; with
    # every such call taken through numpy they must give the same M and
    # components, bit for bit
    W = SCALAR_KERNEL_POTENTIALS[name]()
    assert compute_M(W).hex() == compute_M(array_only(W)).hex()
    new, old = convexify(W), convexify(array_only(W))
    assert new.M.hex() == old.M.hex()
    assert [c.to_dict() for c in new.components] == [c.to_dict() for c in old.components]
    assert new.values.tobytes() == old.values.tobytes()


@pytest.mark.parametrize("offset, steps", [(0.02, 9), (0.1, 10)])
def test_polish_stops_once_converged(offset, steps, monkeypatch):
    # the three-well contacts settle before the last of the 12 steps
    W = three_well(offset)
    polish = envelope._polish_tangency
    starts = []
    monkeypatch.setattr(envelope, "_polish_tangency",
                        lambda *args: starts.append(args[1:]) or polish(*args))
    convexify(W, grid_points=4097)
    assert len(starts) == 2
    orders = []
    derivative = W.derivative
    monkeypatch.setattr(W, "derivative",
                        lambda x, order=1: orders.append(order) or derivative(x, order))
    for start in starts:
        orders.clear()
        got = polish(W, *start)
        assert orders.count(2) == 2 * steps
        assert got == fixed_step_polish_tangency(W, *start)


@pytest.mark.parametrize("lo, hi, match", [
    (1.2, 1.5, "need finite a < b"),
    (0.2, 2.5, "cuts W"),
])
def test_refine_tangency_rejects_non_hull_chords(lo, hi, match):
    # a chord that is not a hull edge has no common tangent near it; the
    # checks after Newton's method must say so instead of returning one
    env = convexify(three_well(), grid_points=4097)
    t, w = env.grid, env.w_values
    tol = 1e-9 * float(np.max(w) - np.min(w))
    ia, ib = int(np.argmin(np.abs(t - lo))), int(np.argmin(np.abs(t - hi)))
    with pytest.raises(NumericalFailure, match=match):
        _refine_tangency(env.potential, t, w, ia, ib, tol)


@pytest.mark.parametrize("points", [257, 4097])
@pytest.mark.parametrize("name", ["double_well_1", "double_well_1.7",
                                  "three_well", "m0"])
def test_polynomial_grid_hull_matches_chord_oracle_exactly(name, points):
    # the samples of a polynomial W that convexify hulls before it refines
    # the tangencies; for the convex m0 W every node is a vertex, so the
    # cross products are near-degenerate
    a = 1.7
    W = {"double_well_1": double_well(),
         "double_well_1.7": Potential1D(kind="poly_in_t_squared",
                                        coefficients=(a ** 4, -2 * a * a, 1.0)),
         "three_well": three_well(),
         "m0": make_m0_spec().W}[name]
    env = convexify(W, grid_points=points)
    t, w = env.grid, env.w_values
    verts = chord_hull_vertices(t, w)
    hull = _lower_hull(t, w)
    assert hull == verts
    assert hull == plain_monotone_chain(t, w)
    assert np.array_equal(_hull_values(t, w, hull),
                          chord_hull_values(t, w, verts))
    if name == "m0":
        assert len(hull) == points


def test_sampled_envelope_matches_chord_oracle_exactly():
    for seed in (0, 1, 2):
        W = random_even_sampled(seed)
        t = np.asarray(W.samples[0])
        w = np.asarray(W.samples[1])
        env = convexify(W)
        verts = chord_hull_vertices(t, w)
        assert verts == list(_lower_hull(t, w))
        assert np.array_equal(env.values, chord_hull_values(t, w, verts))
        scale = max(1.0, float(np.max(np.abs(w))))
        naive = naive_min_chord(t, w)
        assert float(np.max(np.abs(naive - env.values))) <= 16 * np.finfo(float).eps * scale


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_envelope_eval_and_deriv_agree(seed):
    # eval and deriv describe one function: W outside the detachment
    # intervals, the affine piece inside; at each sample midpoint a
    # centred difference of eval matches deriv
    W = random_even_sampled(seed)
    env = convexify(W)
    t = np.asarray(W.samples[0])
    mid = 0.5 * (t[1:] + t[:-1])
    h = 1e-6
    slope = (env.eval(mid + h) - env.eval(mid - h)) / (2.0 * h)
    assert float(np.max(np.abs(slope - env.deriv(mid)))) <= 1e-5


def test_sampled_envelope_keeps_sample_grid():
    W = random_even_sampled(7)
    env = convexify(W)
    assert np.array_equal(env.grid, np.asarray(W.samples[0]))
    assert np.array_equal(env.w_values, np.asarray(W.samples[1]))


def test_sampled_convexify_evaluates_no_W():
    # the samples, their hull and the evenness decided at construction
    # are all convexify needs of a sampled W
    W = random_even_sampled(4)
    calls = []
    plain = W.eval

    def counted(t):
        calls.append(t)
        return plain(t)

    W.eval = counted
    env = convexify(W)
    assert calls == []
    assert np.array_equal(env.grid, np.asarray(W.samples[0]))
