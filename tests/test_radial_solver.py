import math

import numpy as np
import pytest

from radrelax.envelope import convexify
from radrelax.potentials import Potential1D, ProblemSpec
from radrelax.radial_solver import (
    NumericalFailure,
    RadialGrid,
    RadialProfile,
    SolveReport,
    dp_oracle,
    energy_reduced,
    ensure_envelope,
    minimize_relaxed,
    monotone_rearrange,
    solve_pipeline,
    sphere_area,
)
from radrelax.radial_solver import _outermost_levels

from conftest import double_well, make_m0_spec, make_prototype_spec, three_well
from oracles import quadratic_outermost_levels, random_even_sampled

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
    graded = RadialGrid.graded_near_zero(2.0, 64)
    assert graded.nodes[-1] == 2.0
    assert graded.refinement_hint == "graded_near_zero"
    assert graded.dr[0] < graded.dr[-1]


def test_profile_boundary_pinned():
    grid = RadialGrid.uniform(1.0, 32)
    prof = RadialProfile(grid, np.ones(33))
    assert prof.u[-1] == 0.0


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
    report = minimize_relaxed(spec, RadialGrid.uniform(1.0, 64),
                              multistarts=4, seed=0)
    assert report.converged
    assert abs(report.relaxed_energy) <= 1e-10
    assert float(np.max(np.abs(report.profile.u))) <= 1e-5


def test_minimize_prototype_beats_cone(prototype_spec):
    report = minimize_relaxed(prototype_spec, RadialGrid.uniform(1.0, 128),
                              multistarts=4, seed=3)
    assert report.converged
    assert report.relaxed_energy < -math.pi / 6.0
    assert report.relaxed_energy < -0.5455


def test_minimize_prototype_fine_grid_direct(prototype_spec):
    # the first-integral solution on 1024 cells, reached without any
    # coarse-grid warm start
    report = minimize_relaxed(prototype_spec, RadialGrid.uniform(1.0, 1024),
                              seed=0)
    assert report.converged
    assert abs(report.relaxed_energy - PROTOTYPE_RELAXED_K1024) <= 1e-9


def test_minimize_three_well(three_well_spec):
    # affine envelope pieces outside (-M, M) under a concave G
    report = minimize_relaxed(three_well_spec, RadialGrid.uniform(1.0, 256),
                              seed=0)
    assert report.converged
    assert report.relaxed_energy <= THREE_WELL_RELAXED_K256 + 1e-9


def test_minimize_iteration_cap_reports_not_converged(prototype_spec):
    report = minimize_relaxed(prototype_spec, RadialGrid.uniform(1.0, 128),
                              max_iters=1, seed=0)
    assert not report.converged
    assert len(report.warnings) == 1
    assert "winning start" in report.warnings[0]
    assert "L-BFGS finish" in report.warnings[0]
    assert "of 8 starts converged" in report.warnings[0]


def test_minimize_rejects_no_starts(prototype_spec):
    with pytest.raises(ValueError, match="multistarts"):
        minimize_relaxed(prototype_spec, RadialGrid.uniform(1.0, 64),
                         multistarts=0)


def test_minimize_sampled_potentials(prototype_spec):
    # sampled kinds have no order-2 derivative; the Newton model takes a
    # centered difference of their first derivative instead
    grid = RadialGrid.uniform(1.0, 64)
    mu = np.linspace(-4.0, 4.0, 801)
    G = Potential1D(kind="sampled", samples=(mu, -mu * mu))
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=double_well(), G=G)
    report = minimize_relaxed(spec, grid, multistarts=3, seed=0)
    exact = minimize_relaxed(prototype_spec, grid, multistarts=3, seed=0)
    assert report.converged
    assert abs(report.relaxed_energy - exact.relaxed_energy) <= 1e-5
    t = np.linspace(-3.0, 3.0, 601)
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0, G=G,
                       W=Potential1D(kind="sampled", samples=(t, (t * t - 1.0) ** 2)))
    report = minimize_relaxed(spec, grid, multistarts=3, seed=0)
    assert report.converged or report.warnings


def test_minimize_deterministic(prototype_spec):
    grid = RadialGrid.uniform(1.0, 64)
    a = minimize_relaxed(prototype_spec, grid, multistarts=4, seed=11)
    b = minimize_relaxed(make_prototype_spec(), grid, multistarts=4, seed=11)
    assert a.relaxed_energy == b.relaxed_energy
    assert np.array_equal(a.profile.u, b.profile.u)


def test_dp_oracle_frozen_prototype(prototype_spec):
    report = dp_oracle(prototype_spec, r_levels=100, u_levels=200,
                       slope_levels=200)
    assert abs(report.relaxed_energy - DP_PROTOTYPE_RELAXED) <= 1e-9
    assert abs(report.original_energy - DP_PROTOTYPE_ORIGINAL) <= 1e-9
    assert report.relaxed_energy <= -math.pi / 6.0
    assert report.original_energy <= -math.pi / 6.0


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
                    iterations=0, multistart_seed=0)


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
            new = _outermost_levels(W, env, y)
            old = quadratic_outermost_levels(W, env, y)
            assert np.array_equal(new, old), (k, cells)
            T = max(W.domain_halfwidth, 1.5 * float(np.max(y)) + 1.0, M + 1.0)
            ends_below |= bool(np.any(W.eval(T) < W.eval(y)))
    assert ends_below


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
    report = solve_pipeline(spec, RadialGrid.uniform(1.0, 64),
                            multistarts=2, seed=0)
    assert any("G2" in w for w in report.warnings)


def test_pipeline_warning_detachment_escapes(three_well_spec):
    report = solve_pipeline(three_well_spec, RadialGrid.uniform(1.0, 64),
                            multistarts=2, seed=0)
    assert any("not contained" in w for w in report.warnings)


def test_pipeline_prototype_small_grid(prototype_spec):
    report = solve_pipeline(prototype_spec, RadialGrid.uniform(1.0, 128),
                            multistarts=4, seed=0)
    assert report.warnings == []
    assert report.relaxed_energy <= report.original_energy + 1e-12
    assert report.verify is not None and report.verify.overall
    assert np.all(np.diff(report.profile.u) <= 1e-15)


def test_ensure_envelope_cached(prototype_spec):
    env1 = ensure_envelope(prototype_spec)
    env2 = ensure_envelope(prototype_spec)
    assert env1 is env2
