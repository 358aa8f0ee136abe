import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from radrelax.disc2d import DiscField
from radrelax.envelope import NumericalFailure, convexify
from radrelax.potentials import Potential1D, ProblemSpec, sphere_area
from radrelax.radial_solver import (
    RadialGrid,
    RadialProfile,
    SolveReport,
    dp_oracle,
    energy_reduced,
    ensure_envelope,
    minimize_relaxed,
    monotone_rearrange,
    solve_pipeline,
)
from radrelax.radial_solver import (_RelaxedEnergy, _last_brackets, _newton,
                                    _newton_direction, _outermost_levels,
                                    _slope_bound, _spd_tridiagonal_solve)

from conftest import (double_well, graded_grid, make_m0_spec,
                      make_prototype_spec, make_three_well_spec, three_well)
from corpus import (HARD, HARD_CELLS, HARD_REFERENCE, MONOTONE,
                    MONOTONE_CELLS, MONOTONE_REFERENCE)
from oracles import (allocating_dp_oracle, array_only_envelope,
                     banded_newton_direction, bisected_levels,
                     ladder_newton_direction, level_defects,
                     quadratic_level_brackets, random_even_sampled)

# Frozen before any solver tuning; regression guard for the DP reference.
DP_PROTOTYPE_RELAXED = -0.5237016831861441
DP_PROTOTYPE_ORIGINAL = -0.5236239229165072

CONE_ENERGY_K1024 = -0.5235990252696511

# Relaxed optima of the coarse-to-fine L-BFGS chain that preceded the
# Newton descent.
PROTOTYPE_RELAXED_K1024 = -0.546130991874
THREE_WELL_RELAXED_K256 = -1.803067194


def _cone(grid):
    return RadialProfile(grid, grid.nodes[-1] - grid.nodes)


def _random_profile(seed, grid, amplitude=1.6):
    rng = np.random.default_rng(seed)
    slopes = rng.uniform(-amplitude, amplitude, grid.cells)
    u = np.concatenate([[0.0], np.cumsum(slopes * grid.dr)])
    return RadialProfile(grid, u - u[-1])


def test_sphere_area():
    assert abs(sphere_area(2) - 2.0 * math.pi) <= 1e-15
    assert abs(sphere_area(3) - 4.0 * math.pi) <= 1e-14


def test_grid_validation():
    with pytest.raises(ValueError, match="17 nodes"):
        RadialGrid(np.linspace(0.0, 1.0, 16))
    with pytest.raises(ValueError, match="exactly 0"):
        RadialGrid(np.linspace(0.1, 1.0, 33))
    nodes = np.linspace(0.0, 1.0, 33)
    nodes[5] = nodes[4]
    with pytest.raises(ValueError, match="strictly increasing"):
        RadialGrid(nodes)
    graded = graded_grid(2.0, 64)
    assert graded.nodes[-1] == 2.0
    assert graded.dr[0] < graded.dr[-1]


def test_array_holders_compare_by_identity():
    # an elementwise __eq__ over array fields raised "truth value of an
    # array is ambiguous" whenever the arrays were distinct objects; == is
    # identity, and never raises
    spec = make_prototype_spec()
    grid = RadialGrid.uniform(1.0, 16)
    pairs = [
        (RadialGrid.uniform(1.0, 16), RadialGrid.uniform(1.0, 16)),
        (RadialProfile(grid, np.zeros(17)), RadialProfile(grid, np.zeros(17))),
        (DiscField.random_smooth(33, 1.0, 1), DiscField.random_smooth(33, 1.0, 1)),
        (convexify(spec.W), convexify(spec.W)),
        (minimize_relaxed(spec, grid), minimize_relaxed(spec, grid)),
    ]
    for a, b in pairs:
        assert a == a
        assert a != b
        assert len({a, b}) == 2


def test_profile_boundary_pinned():
    grid = RadialGrid.uniform(1.0, 32)
    prof = RadialProfile(grid, np.ones(33))
    assert prof.u[-1] == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_values(bad):
    # a nan slope made monotone_rearrange return an all-nan profile, and
    # an infinite one overflowed inside its bisection
    u = np.linspace(1.0, 0.0, 33)
    u[5] = bad
    with pytest.raises(ValueError, match="profile values must be finite"):
        RadialProfile(RadialGrid.uniform(1.0, 32), u)


def test_energy_zero_profile_exact(prototype_spec):
    grid = RadialGrid.uniform(1.0, 512)
    prof = RadialProfile(grid, np.zeros(513))
    assert energy_reduced(prof, prototype_spec) == math.pi


def test_energy_cone_anchor(prototype_spec):
    grid = RadialGrid.uniform(1.0, 1024)
    cone = _cone(grid)
    e = energy_reduced(cone, prototype_spec)
    assert abs(e - CONE_ENERGY_K1024) <= 1e-15
    assert energy_reduced(cone, prototype_spec, use_envelope=True) == e


def test_energy_quadrature_second_order(prototype_spec):
    exact = -math.pi / 6.0
    errs = []
    for cells in (64, 128, 256):
        grid = RadialGrid.uniform(1.0, cells)
        errs.append(abs(energy_reduced(_cone(grid), prototype_spec) - exact))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_energy_radius_mismatch_raises(prototype_spec):
    grid = RadialGrid.uniform(2.0, 64)
    with pytest.raises(ValueError, match="radius"):
        energy_reduced(RadialProfile(grid, np.zeros(65)), prototype_spec)


def test_energy_envelope_equals_plain_for_convex_W():
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=2.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0)),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 0.0)))
    grid = RadialGrid.uniform(1.0, 64)
    prof = _random_profile(0, grid)
    assert (energy_reduced(prof, spec, use_envelope=True)
            == energy_reduced(prof, spec))


def test_minimize_convex_goes_to_zero():
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=2.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0)),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 0.0)))
    report = minimize_relaxed(spec, RadialGrid.uniform(1.0, 64))
    assert report.converged
    assert abs(report.relaxed_energy) <= 1e-10
    assert float(np.max(np.abs(report.profile.u))) <= 1e-5


def test_minimize_prototype_beats_cone(prototype_spec):
    report = minimize_relaxed(prototype_spec, RadialGrid.uniform(1.0, 128))
    assert report.converged
    assert report.relaxed_energy < -math.pi / 6.0
    assert report.relaxed_energy < -0.5455


def test_minimize_prototype_fine_grid_direct(prototype_spec):
    # the first-integral solution on 1024 cells, reached without any
    # coarse-grid warm start
    report = minimize_relaxed(prototype_spec, RadialGrid.uniform(1.0, 1024))
    assert report.converged
    assert abs(report.relaxed_energy - PROTOTYPE_RELAXED_K1024) <= 1e-9
    assert report.iterations <= 5


def test_minimize_three_well(three_well_spec):
    # affine envelope pieces outside (-M, M) under a concave G
    report = minimize_relaxed(three_well_spec, RadialGrid.uniform(1.0, 256))
    assert report.converged
    assert report.relaxed_energy <= THREE_WELL_RELAXED_K256 + 1e-9


@pytest.mark.parametrize("make", [make_three_well_spec, make_prototype_spec])
def test_solve_prices_its_profiles_three_times(make, monkeypatch):
    # descent reports Newton's own relaxed energy and prices only the
    # original one; the energy_consistency record prices the final profile
    # twice, rearranged (G2) or not (shape none)
    import radrelax.verify as verify_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return energy_reduced(*args, **kwargs)

    monkeypatch.setattr("radrelax.radial_solver.energy_reduced", counting)
    monkeypatch.setattr(verify_mod, "energy_reduced", counting)
    report = solve_pipeline(make(), RadialGrid.uniform(1.0, 128))
    assert len(calls) == 3
    assert calls[1] is calls[2] is report.profile


def test_minimize_iteration_cap_reports_not_converged(prototype_spec,
                                                     monkeypatch):
    monkeypatch.setattr("radrelax.radial_solver._MAX_ITERS", 1)
    report = minimize_relaxed(prototype_spec, RadialGrid.uniform(1.0, 128))
    assert not report.converged
    assert report.iterations == 1
    assert report.warnings == ["descent did not converge after 1 Newton steps"]


@pytest.mark.parametrize("dimension, g, cells, relaxed", [
    (2, (0.0, -1.0, 0.5), 64, -0.6600870885464344),
    (3, (0.0, -2.0, 0.1), 256, -2.773951375140368),
])
def test_minimize_three_well_under_G_with_a_well(dimension, g, cells,
                                                 relaxed):
    # a three-well W under a G with a well: descent takes hundreds of
    # Newton steps, most of them Levenberg-shifted, to reach a minimizer
    spec = ProblemSpec(dimension=dimension, radius=1.0, p=4.0, W=three_well(),
                       G=Potential1D(kind="poly_in_t_squared", coefficients=g),
                       shape_flag="none")
    report = minimize_relaxed(spec, RadialGrid.uniform(1.0, cells))
    assert report.converged
    assert report.warnings == []
    assert abs(report.relaxed_energy - relaxed) <= 1e-10


def _spy_on_root_finder(monkeypatch):
    # the number of cells of each call to the rearrangement's root finder
    import radrelax.radial_solver as solver_mod

    real, calls = solver_mod._bracketed_roots, []

    def spy(f, fprime, out, idx, *rest):
        calls.append(len(idx))
        return real(f, fprime, out, idx, *rest)

    monkeypatch.setattr(solver_mod, "_bracketed_roots", spy)
    return calls


@pytest.mark.parametrize("name", list(MONOTONE))
def test_monotone_corpus_matches_reference(name, monkeypatch):
    spec = MONOTONE[name]()
    report = minimize_relaxed(spec, RadialGrid.uniform(spec.radius,
                                                       MONOTONE_CELLS))
    reference, _ = MONOTONE_REFERENCE[name]
    assert report.converged
    assert abs(report.relaxed_energy - reference) <= 1e-15 * abs(reference)
    # descent prices its energy by the report's quadrature
    assert report.relaxed_energy == energy_reduced(report.profile, spec,
                                                   use_envelope=True)
    # every descent slope is its own outermost level point, so no cell
    # reaches the root finder and the rearranged profile keeps the
    # descent's bits; among these are the `solve` workload's bench1-4
    calls = _spy_on_root_finder(monkeypatch)
    monotone_rearrange(report.profile, ensure_envelope(spec))
    assert calls == []


@pytest.mark.parametrize("name", list(HARD))
def test_hard_corpus_matches_reference(name):
    spec = HARD[name]()
    report = minimize_relaxed(spec, RadialGrid.uniform(spec.radius,
                                                       HARD_CELLS))
    reference, converged = HARD_REFERENCE[name]
    assert report.converged is converged
    assert (abs(report.relaxed_energy - reference)
            <= 1e-12 * (1.0 + abs(reference)))


@pytest.mark.parametrize("cells, error", [(256, -8.7885e-4),
                                           (1024, -5.4928e-5)])
def test_manufactured_minimizer_has_exact_energy(cells, error):
    # u* = 1 - r^2 minimizes W = t^2 + t^4 under G = -136u + 64u^2 in
    # N = 2 (G' = (r Wc'(u*'))' / r on u*, and the relaxed problem is
    # convex), so E* = -118 pi / 3 exactly; the midpoint energy lies
    # below it by an O(h^2) error measured at these grids
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0, 1.0)),
        G=Potential1D(kind="piecewise_poly",
                      coefficients=((0.0, -136.0, 64.0),)),
        shape_flag="none")
    report = solve_pipeline(spec, RadialGrid.uniform(1.0, cells))
    got = report.relaxed_energy + 118.0 * math.pi / 3.0
    assert got < 0.0
    assert abs(got - error) <= 0.01 * abs(error)
    assert abs(report.profile.u[0] - 1.0) <= 1e-4
    assert report.converged
    assert report.verify.overall


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_unbounded_energy_raises():
    # G = -20 u^4 outgrows W = (t^2 - 1)^2, so the energy is unbounded
    # below; descent reaches -inf, where every step looks negligible
    # against the roundoff of E, and must not call that converged
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=double_well(),
                       G=Potential1D(kind="poly_in_t_squared",
                                     coefficients=(0.0, 0.0, -20.0)),
                       shape_flag="none")
    with pytest.raises(NumericalFailure, match="descent diverged: the relaxed "
                       r"energy is -inf after \d+ Newton steps"):
        minimize_relaxed(spec, RadialGrid.uniform(1.0, 16))


def test_sampled_descent_past_the_grid_raises_without_warning():
    # the end cubics of this W turn down past its grid, so the energy has
    # no minimum; descent walks past T (to -inf after 344 steps) and must
    # say so, with no RuntimeWarning on the way
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0,
                       W=random_even_sampled(10),
                       G=Potential1D(kind="poly_in_t_squared",
                                     coefficients=(0.0, -1.0)))
    with pytest.raises(NumericalFailure, match="descent diverged: the relaxed "
                       r"energy is -inf after \d+ Newton steps"):
        minimize_relaxed(spec, RadialGrid.uniform(1.0, 256))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_unbounded_descent_brackets_its_shifts(monkeypatch):
    # the Hessians of this descent are indefinite with a positive
    # diagonal, so lam0 is the 1e-8 floor and the first positive definite
    # shift lies decades above it; trying the decades one at a time took
    # 87,018 factorizations in the same 968 steps
    import radrelax.radial_solver as rs

    solve, calls = rs._spd_tridiagonal_solve, [0]

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(rs, "_spd_tridiagonal_solve", counted)
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=double_well(),
                       G=Potential1D(kind="poly_in_t_squared",
                                     coefficients=(0.0, 0.0, -20.0)),
                       shape_flag="none")
    with pytest.raises(NumericalFailure, match="-inf after 968 Newton steps"):
        minimize_relaxed(spec, RadialGrid.uniform(1.0, 64))
    assert calls[0] < 20000


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e9, 1e40])
@pytest.mark.parametrize("seed", range(4))
def test_newton_direction_picks_the_first_positive_definite_rung(scale, seed):
    # the bracketed search must land on the rung the one-at-a-time ladder
    # finds, so every direction keeps its bits
    rng = np.random.default_rng(seed)
    n = 200
    diag = rng.uniform(-1.0, 1.0, n) * (seed % 2)
    diag[0] = 1e-6
    off = rng.uniform(-1.0, 1.0, n - 1) * scale
    mass = rng.uniform(0.5, 2.0, n)
    g = rng.standard_normal(n)
    want = ladder_newton_direction(diag, off, mass, g)
    assert _newton_direction(diag, off, mass, g).tobytes() == want.tobytes()


def test_zero_node_mass_raises_before_descent(capped_solves):
    # the masses scale as r^(N-1); once the first underflows to 0 the
    # Levenberg shift is NaN and descent would retry it forever
    spec = dataclasses.replace(make_prototype_spec(), dimension=128)
    with pytest.raises(NumericalFailure,
                       match="dimension 128 is too large for 64 cells"):
        minimize_relaxed(spec, RadialGrid.uniform(1.0, 64))


@pytest.mark.parametrize("dimension, cells", [(127, 64), (104, 256)])
def test_subnormal_node_masses_still_descend(dimension, cells, capped_solves):
    spec = dataclasses.replace(make_prototype_spec(), dimension=dimension)
    grid = RadialGrid.uniform(1.0, cells)
    energy = _RelaxedEnergy(spec, ensure_envelope(spec), grid)
    assert 0.0 < energy.mass[0] < sys.float_info.min
    report = minimize_relaxed(spec, grid)
    assert report.converged
    assert -math.inf < report.relaxed_energy < 0.0


@pytest.mark.parametrize("cells", [128, 1024])
def test_newton_converged_is_plain_bool(prototype_spec, cells):
    # descent from the cones at slopes -M and -1.25 M mostly stops by the
    # roundoff rule; a numpy.bool_ flag from it would make json.dumps
    # reject any record that carries it
    grid = RadialGrid.uniform(1.0, cells)
    env = ensure_envelope(prototype_spec)
    energy = _RelaxedEnergy(prototype_spec, env, grid)
    for slope in (env.M, 1.25 * env.M):
        cone = slope * (1.0 - grid.nodes)
        *_, converged = _newton(energy, cone[:-1])
        assert type(converged) is bool
        assert converged
    assert type(minimize_relaxed(prototype_spec, grid).converged) is bool


def test_newton_direction_matches_banded_cholesky(three_well_spec):
    # the -1.25 M cone of the three-well has an indefinite Hessian, so the
    # direction needs a Levenberg shift; the shifted matrix has condition
    # about 2e5, so two backward-stable solves agree to far below 1e-12.
    # (The quadratic start's first shift leaves a condition of about 8e9,
    # where any two such solves differ by about 3e-8; the property test
    # gates residuals instead.)
    grid = RadialGrid.uniform(1.0, 256)
    env = ensure_envelope(three_well_spec)
    energy = _RelaxedEnergy(three_well_spec, env, grid)
    x = 1.25 * env.M * (1.0 - grid.nodes[:-1])
    g = energy.gradient(x)
    diag, off = energy.hessian(x)
    assert _spd_tridiagonal_solve(diag, off, g) is None
    want = banded_newton_direction(diag, off, energy.mass, g)
    got = _newton_direction(diag, off, energy.mass, g)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_minimize_sampled_potentials(prototype_spec):
    # a sampled kind's order-2 derivative, which the Newton model takes,
    # is the exact W'' of its cubics, which jumps at the sample nodes
    grid = RadialGrid.uniform(1.0, 64)
    mu = np.linspace(-4.0, 4.0, 801)
    G = Potential1D(kind="sampled", samples=(mu, -mu * mu))
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=double_well(), G=G)
    report = minimize_relaxed(spec, grid)
    exact = minimize_relaxed(prototype_spec, grid)
    assert report.converged
    assert abs(report.relaxed_energy - exact.relaxed_energy) <= 1e-5
    t = np.linspace(-3.0, 3.0, 601)
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0, G=G,
                       W=Potential1D(kind="sampled", samples=(t, (t * t - 1.0) ** 2)))
    report = minimize_relaxed(spec, grid)
    assert report.converged
    assert abs(report.relaxed_energy - exact.relaxed_energy) <= 1e-4


def test_minimize_deterministic(prototype_spec):
    grid = RadialGrid.uniform(1.0, 64)
    a = minimize_relaxed(prototype_spec, grid)
    b = minimize_relaxed(make_prototype_spec(), grid)
    assert a.relaxed_energy == b.relaxed_energy
    assert np.array_equal(a.profile.u, b.profile.u)


def test_dp_oracle_frozen_prototype(prototype_spec):
    report = dp_oracle(prototype_spec, r_levels=100, u_levels=200,
                       slope_levels=200)
    assert abs(report.relaxed_energy - DP_PROTOTYPE_RELAXED) <= 1e-9
    assert abs(report.original_energy - DP_PROTOTYPE_ORIGINAL) <= 1e-9
    assert report.relaxed_energy <= -math.pi / 6.0
    assert report.original_energy <= -math.pi / 6.0


def _double_well_3d_spec():
    return ProblemSpec(
        dimension=3, radius=1.0, p=4.0, W=double_well(),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)),
        shape_flag="G2")


@pytest.mark.parametrize("levels", [(100, 200, 200), (16, 2, 2), (50, 37, 5),
                                    (64, 120, 1), (200, 400, None)])
def test_dp_oracle_equals_the_allocating_sweep(levels):
    # the in-place sweep must reproduce every float of the sweep that
    # allocated per step; slope caps below u_levels - 1 put inf in base
    for make in (make_prototype_spec, make_m0_spec, make_three_well_spec,
                 _double_well_3d_spec):
        spec = make()
        new = dp_oracle(spec, *levels)
        old = allocating_dp_oracle(spec, *levels)
        assert new.relaxed_energy == old.relaxed_energy, make.__name__
        assert new.original_energy == old.original_energy, make.__name__
        assert new.profile.u.tobytes() == old.profile.u.tobytes(), make.__name__


def test_dp_oracle_holds_no_jump_matrix():
    # base, cost and choice take 2.75 MiB at (200, 400); a U x U jump
    # matrix, band mask and inf table beside them peaked at 5.06 MiB
    spec = make_prototype_spec()
    ensure_envelope(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dp_oracle(spec, 200, 400)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * 2 ** 20


def test_slope_bound_scalar_kernels_match_array_path():
    # the bisection makes about a hundred scalar envelope calls; taken
    # through numpy one by one they must give the same bound, bit for bit
    for make in (make_prototype_spec, make_m0_spec, make_three_well_spec,
                 _double_well_3d_spec):
        spec = make()
        env = ensure_envelope(spec)
        assert (_slope_bound(spec, env).hex()
                == _slope_bound(spec, array_only_envelope(env)).hex()), make.__name__


def test_slope_bound_doubles_past_a_low_first_bracket():
    # W = t^2 + t^4 has M = 0, so the bracket's first upper end is 1,
    # where Wc' = 6 lies below the target R max|G'| / N = 10; the end
    # doubles once, and the bisection ends on the root to one ulp
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0, 1.0)),
        G=Potential1D(kind="piecewise_poly", coefficients=((0.0, -20.0),)),
        shape_flag="G2_strict")
    env = ensure_envelope(spec)
    assert env.M == 0.0 and env.deriv(1.0) == 6.0
    nu = _slope_bound(spec, env)
    assert nu == 1.2347728250532968
    assert env.deriv(nu) <= 10.0 <= env.deriv(math.nextafter(nu, math.inf))


def test_dp_oracle_value_grid_refinement_monotone():
    # u_levels k -> 2k-1 halves the value step exactly, so the coarse
    # state space embeds in the fine one and the optimum cannot rise
    spec = make_m0_spec()
    vals = [dp_oracle(spec, r_levels=60, u_levels=ul, slope_levels=ul).relaxed_energy
            for ul in (100, 199, 397)]
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_dp_oracle_convex_zero():
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=2.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0)),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 0.0)))
    report = dp_oracle(spec, r_levels=40, u_levels=50)
    assert report.relaxed_energy == 0.0
    assert np.array_equal(report.profile.u, np.zeros_like(report.profile.u))


def test_dp_oracle_bounds_validation(prototype_spec):
    with pytest.raises(ValueError, match="r_levels"):
        dp_oracle(prototype_spec, r_levels=15)
    with pytest.raises(ValueError, match="r_levels"):
        dp_oracle(prototype_spec, r_levels=201)
    with pytest.raises(ValueError, match="u_levels"):
        dp_oracle(prototype_spec, u_levels=1)
    with pytest.raises(ValueError, match="u_levels"):
        dp_oracle(prototype_spec, u_levels=401)
    with pytest.raises(ValueError, match="slope_levels"):
        dp_oracle(prototype_spec, slope_levels=0)


def test_solve_report_energy_invariant():
    grid = RadialGrid.uniform(1.0, 32)
    prof = RadialProfile(grid, np.zeros(33))
    with pytest.raises(NumericalFailure, match="fell below"):
        SolveReport(profile=prof, relaxed_energy=1.0, original_energy=0.5,
                    iterations=0)


def test_rearrange_alternating_sawtooth(prototype_spec):
    env = ensure_envelope(prototype_spec)
    grid = RadialGrid.uniform(1.0, 64)
    dr = 1.0 / 64.0
    u = np.array([dr * (k % 2) for k in range(65)])
    saw = RadialProfile(grid, u)
    assert set(np.round(saw.slopes, 12)) == {-1.0, 1.0}
    v = monotone_rearrange(saw, env)
    assert np.array_equal(v.u, 1.0 - grid.nodes)
    W = env.potential
    assert np.array_equal(np.asarray(W.eval(v.slopes)),
                          np.asarray(W.eval(saw.slopes)))


def test_rearrange_fixed_point_on_cone(prototype_spec):
    env = ensure_envelope(prototype_spec)
    grid = RadialGrid.uniform(1.0, 64)
    cone = _cone(grid)
    again = monotone_rearrange(cone, env)
    assert np.array_equal(again.u, cone.u)


def test_rearrange_laws_three_well(three_well_spec):
    env = ensure_envelope(three_well_spec)
    W = env.potential
    grid = RadialGrid.uniform(1.0, 96)
    for seed in range(20):
        prof = _random_profile(seed, grid)
        v = monotone_rearrange(prof, env)
        w_orig = np.asarray(W.eval(np.abs(prof.slopes)))
        w_new = np.asarray(W.eval(np.abs(v.slopes)))
        assert float(np.max(np.abs(w_new - w_orig))) <= 1e-8
        assert np.all(v.u >= np.abs(prof.u) - 1e-12)
        assert np.all(np.diff(v.u) <= 1e-15)


def test_rearrange_slopes_grazing_the_well(prototype_spec):
    # a slope just inside a well opens a level set narrower than any
    # fixed scan; the inversion must still land on the outward branch
    env = ensure_envelope(prototype_spec)
    W = env.potential
    grid = RadialGrid.uniform(1.0, 32)
    for y in (1.0 - 1e-3, 1.0 - 3.2e-4, 1.0 - 1e-7, 1.0 + 1e-7):
        prof = RadialProfile(grid, y * (1.0 - grid.nodes))
        v = monotone_rearrange(prof, env)
        nu = -float(v.slopes[0])
        assert nu >= y - 1e-15
        assert abs(float(W.eval(nu)) - float(W.eval(y))) <= 1e-12


def test_outermost_levels_equal_the_quadratic_scan():
    # (t^2 - 1)^2 sampled on [-1.5, 1.5]: the PCHIP extension turns down
    # past the samples, so the scan ends below the targets
    t = np.linspace(-1.5, 1.5, 61)
    turning = Potential1D(kind="sampled", samples=(t, (t * t - 1.0) ** 2))
    potentials = [double_well(), three_well(), turning]
    potentials += [random_even_sampled(seed) for seed in range(4)]
    ends_below = False
    for k, W in enumerate(potentials):
        env = convexify(W)
        M = env.M
        rng = np.random.default_rng(100 + k)
        for cells in (16, 33, 257, 4096):
            y = np.abs(rng.uniform(-3.0, 3.0, cells))
            y[:4] = (M + 1e-9, max(M - 1e-9, 0.0), 0.0, M)
            # the bisection of the matrix form's brackets: bits where
            # cells are kept or have no bracket, the root contract where
            # Newton finds them
            nu = _outermost_levels(env, y)
            brackets = quadratic_level_brackets(env, y)
            want = bisected_levels(env, y, brackets)
            bad = level_defects(env, y, nu, want, brackets)
            assert bad.size == 0, (k, cells, bad)
            T = max(W.domain_halfwidth, 1.5 * float(np.max(y)) + 1.0, M + 1.0)
            ends_below |= bool(np.any(W.eval(T) < W.eval(y)))
    assert ends_below


def test_last_brackets_at_the_scan_end_and_past_it():
    # a target equal to the last scan value brackets at the last interval;
    # one above or below every scan value has no bracket (its last reads
    # n - 2); among several crossings the last one counts, whether the
    # scan ends above the target or below it
    vals = np.array([3.0, 0.0, 2.0, 1.0, 4.0])
    last, has = _last_brackets(vals, np.array([4.0, 5.0, 1.5]))
    assert last.tolist() == [3, 3, 3]
    assert has.tolist() == [True, False, True]
    last, has = _last_brackets(vals[:4], np.array([1.0, 0.5, -1.0, 1.5]))
    assert last.tolist() == [2, 1, 2, 2]
    assert has.tolist() == [True, True, False, True]


def test_outermost_levels_keep_and_snap_margins(monkeypatch):
    # past the 1e-7 margin above M the slope is kept without a root
    # search; 1e-6 below M the outer root is 2e-6 from y, past the snap
    env = convexify(double_well())
    M = env.M
    calls = _spy_on_root_finder(monkeypatch)
    y = np.array([M * (1.0 + 2e-7)])
    assert np.array_equal(_outermost_levels(env, y), y)
    assert calls == []
    y = np.array([M * (1.0 - 1e-6)])
    nu = float(_outermost_levels(env, y)[0])
    assert calls == [1]
    assert nu > M
    W = env.potential
    assert abs(W.eval(nu) - W.eval(float(y[0]))) <= 1e-15


def test_rearrange_never_increases_energy_under_G2(prototype_spec):
    env = ensure_envelope(prototype_spec)
    grid = RadialGrid.uniform(1.0, 96)
    for seed in range(20):
        prof = _random_profile(seed, grid)
        v = monotone_rearrange(prof, env)
        e_before = energy_reduced(prof, prototype_spec)
        e_after = energy_reduced(v, prototype_spec)
        assert e_after <= e_before + 1e-9 * (1.0 + abs(e_before))


def test_pipeline_warning_without_monotone_shape():
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(1.0, -2.0, 1.0)),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)),
        shape_flag="none")
    report = solve_pipeline(spec, RadialGrid.uniform(1.0, 64))
    assert any("G2" in w for w in report.warnings)


def test_pipeline_without_monotone_shape_warns_nothing_at_m0():
    # W = t^2 + t^4 has M = 0, so there is no slope band for an undeclared
    # G shape to leave unrearranged
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0, 1.0)),
        G=Potential1D(kind="piecewise_poly", coefficients=((0.0, -1.0),)),
        shape_flag="none")
    report = solve_pipeline(spec, RadialGrid.uniform(1.0, 64))
    assert ensure_envelope(spec).M == 0.0
    assert report.warnings == []
    assert report.verify.overall


def test_pipeline_warning_detachment_escapes(three_well_spec):
    report = solve_pipeline(three_well_spec, RadialGrid.uniform(1.0, 64))
    assert any("not contained" in w for w in report.warnings)


def test_pipeline_prototype_small_grid(prototype_spec):
    report = solve_pipeline(prototype_spec, RadialGrid.uniform(1.0, 128))
    assert report.warnings == []
    assert report.relaxed_energy <= report.original_energy + 1e-12
    assert report.verify is not None and report.verify.overall
    assert np.all(np.diff(report.profile.u) <= 1e-15)


def test_ensure_envelope_cached(prototype_spec):
    env1 = ensure_envelope(prototype_spec)
    env2 = ensure_envelope(prototype_spec)
    assert env1 is env2


def test_replaced_W_gets_its_own_envelope(prototype_spec):
    # a spec copied with another W must not carry the old W's envelope
    ensure_envelope(prototype_spec)
    spec = dataclasses.replace(prototype_spec, W=three_well())
    assert ensure_envelope(spec).potential is spec.W
    grid = RadialGrid.uniform(1.0, 64)
    fresh = dataclasses.replace(make_prototype_spec(), W=three_well())
    assert (minimize_relaxed(spec, grid).relaxed_energy
            == minimize_relaxed(fresh, grid).relaxed_energy)
    # so must a spec whose W is reassigned after its envelope was cached
    spec.W = double_well()
    assert ensure_envelope(spec).potential is spec.W
