import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from radrelax.envelope import DetachmentComponent
from radrelax.potentials import Potential1D, ProblemSpec
from radrelax.radial_solver import (
    RadialGrid,
    RadialProfile,
    energy_reduced,
    ensure_envelope,
    minimize_relaxed,
    monotone_rearrange,
    solve_pipeline,
)
from radrelax.verify import (
    concavity_exclusion_check,
    corner_condition_check,
    detachment_avoidance_report,
    energy_consistency,
    euler_lagrange_affine_check,
    full_report,
    slope_and_sign_check,
)
from radrelax.verify import _interior_mask, _window_density

from conftest import graded_grid, make_prototype_spec, three_well
from corpus import HARD, MONOTONE
from oracles import exact_line_intercept, quadratic_window_density

K = 128


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, K)


@pytest.fixture
def cone(grid):
    return RadialProfile(grid, 1.0 - grid.nodes)


@pytest.fixture
def half_slope(grid):
    return RadialProfile(grid, 0.5 * (1.0 - grid.nodes))


@pytest.fixture(scope="module")
def proto_env():
    spec = make_prototype_spec()
    return spec, ensure_envelope(spec)


@pytest.fixture(scope="module")
def pipeline_reports():
    out = {}
    for cells in (256, 512):
        spec = make_prototype_spec()
        out[cells] = solve_pipeline(spec, RadialGrid.uniform(1.0, cells))
    return out


def test_detachment_avoidance_cone(proto_env, cone):
    _, env = proto_env
    rec = detachment_avoidance_report(cone, env)
    assert rec["passed"]
    assert rec["details"]["measure"] == 0.0


def test_detachment_avoidance_half_domain_fail(proto_env, grid):
    _, env = proto_env
    slopes = np.where(grid.midpoints < 0.5, -0.5, -1.0)
    u = np.concatenate([[0.0], np.cumsum(slopes * grid.dr)])
    prof = RadialProfile(grid, u - u[-1])
    rec = detachment_avoidance_report(prof, env)
    assert not rec["passed"]
    assert abs(rec["details"]["measure"] - 0.5) <= 1e-12
    assert rec["details"]["threshold"] == 2.0 / K


def test_interior_mask_is_open_by_the_slope_margin():
    # slopes exactly 1e-6 inside either end are outside the interval; the
    # next floats inward are inside
    c = DetachmentComponent(-2.0, 2.0, 0.0, 0.0, True)
    lo, hi = -2.0 + 1e-6, 2.0 - 1e-6
    slopes = np.array([lo, hi, np.nextafter(hi, 0.0), np.nextafter(lo, 0.0)])
    assert _interior_mask(slopes, [c]).tolist() == [False, False, True, True]


def test_slope_and_sign_cone(cone):
    rec = slope_and_sign_check(cone, 1.0)
    assert rec["passed"]
    assert rec["details"]["fraction_steep"] == 1.0


def test_slope_and_sign_oscillation_fails(grid):
    u = 0.5 * np.cos(3.0 * math.pi * grid.nodes)
    rec = slope_and_sign_check(RadialProfile(grid, u), 1.0)
    assert not rec["passed"]
    assert rec["margin"] == -1.0


def test_slope_fraction_fails_for_shallow_profile(half_slope):
    rec = slope_and_sign_check(half_slope, 1.0)
    assert not rec["passed"]
    assert rec["details"]["fraction_steep"] == 0.0
    assert rec["details"]["nonnegative"]


def test_corner_condition_cone(cone):
    rec = corner_condition_check(cone, 1.0, window=0.2)
    assert rec["passed"]
    assert abs(rec["details"]["fit_at_zero"] + 1.0) <= 1e-12


def test_corner_condition_steep_fails(grid):
    prof = RadialProfile(grid, 1.5 * (1.0 - grid.nodes))
    rec = corner_condition_check(prof, 1.0, window=0.2)
    assert not rec["passed"]
    assert abs(rec["details"]["fit_at_zero"] + 1.5) <= 1e-12
    assert abs(rec["margin"] + 0.45) <= 1e-12


@pytest.mark.parametrize("cells", [64, 256, 1024])
@pytest.mark.parametrize("name", ["prototype", "m0", "three_well"])
def test_corner_fit_matches_exact_least_squares(name, cells):
    # the closed-form centred line against the rational least-squares
    # fit of the same cells, on descent profiles
    spec = MONOTONE[name]()
    grid = RadialGrid.uniform(spec.radius, cells)
    prof = minimize_relaxed(spec, grid).profile
    window = 0.2 * spec.radius
    fit0 = corner_condition_check(prof, 0.0, window)["details"]["fit_at_zero"]
    sel = grid.midpoints < window
    exact = exact_line_intercept(grid.midpoints[sel], prof.slopes[sel])
    assert abs(Fraction(fit0) - exact) <= Fraction(1e-12) * abs(exact)


@pytest.mark.parametrize("cells, run", [(256, 13), (1024, 53), (4096, 213)])
def test_corner_fit_takes_the_run_before_the_slope_jump(cells, run):
    # the three-well's minimizer leaves the origin at slope -M and jumps
    # across the outer detachment interval (1.0123, 2.0031) near r = 0.05;
    # the fit takes the cells before the jump
    spec = MONOTONE["three_well"]()
    report = solve_pipeline(spec, RadialGrid.uniform(spec.radius, cells))
    rec = report.verify._record("corner_condition")
    assert rec["details"]["cells"] == run
    assert abs(rec["details"]["fit_at_zero"] + 1.0) < 1e-3
    assert report.verify.overall


@pytest.mark.parametrize("name, run, passed", [
    ("three_well/-u^2/N2", 13, True), ("three_well/-u^2/N3", 21, True),
    ("three_well/-3u^2/N2", 4, False), ("three_well/-3u^2/N3", 6, False)])
def test_corner_fit_on_hard_three_wells(name, run, passed):
    # converged at 256 cells; under -3u^2 the slope jumps after 4 and 6
    # cells, too few for a fit, so the record fails and names the run
    spec = HARD[name]()
    report = minimize_relaxed(spec, RadialGrid.uniform(spec.radius, 256))
    assert report.converged
    rec = full_report(report.profile, spec,
                      ensure_envelope(spec))._record("corner_condition")
    assert (rec["passed"], rec["details"]["cells"]) == (passed, run)
    if passed:
        assert abs(rec["details"]["fit_at_zero"] + 1.0) < 1e-3
    else:
        assert rec["details"]["fit_at_zero"] is None
        assert rec["margin"] == -1.0


def test_corner_fit_fails_a_wrong_limit_slope():
    # the three-well's minimizer with its first 20 cells set to -1.2 M,
    # inside the outer detachment interval, leaves no run to fit
    spec = MONOTONE["three_well"]()
    env = ensure_envelope(spec)
    prof = solve_pipeline(spec, RadialGrid.uniform(spec.radius, 256)).profile
    s = prof.slopes
    s[:20] = -1.2 * env.M
    u = np.append(np.cumsum((-s * prof.grid.dr)[::-1])[::-1], 0.0)
    rec = corner_condition_check(RadialProfile(prof.grid, u), env.M, 0.2,
                                 0.05, env.components)
    assert not rec["passed"]
    assert rec["details"]["cells"] == 0


@pytest.mark.parametrize("name", ["prototype", "m0", "bench1/0"])
def test_corner_fit_without_an_outer_interval_keeps_the_window(name):
    # no component starts at or beyond M, so the record is the whole
    # window's, bit for bit
    spec = MONOTONE[name]()
    env = ensure_envelope(spec)
    prof = minimize_relaxed(spec, RadialGrid.uniform(spec.radius, 256)).profile
    assert (corner_condition_check(prof, env.M, 0.2, 0.05, env.components)
            == corner_condition_check(prof, env.M, 0.2))


def test_corner_fit_rejects_non_finite_intercept(grid):
    # finite slopes of 1.5e308 overflow the mean of the fit; nodal values
    # of +-1e308 overflow the slopes themselves
    steep = RadialProfile(grid, -1.5e308 * (1.0 - grid.nodes))
    assert np.all(np.isfinite(steep.slopes))
    zigzag = RadialProfile(grid, np.where(np.arange(K + 1) % 2, -1e308, 1e308))
    for prof in (steep, zigzag):
        with pytest.raises(ValueError, match="not finite"):
            corner_condition_check(prof, 1.0, window=0.2)


def test_corner_condition_window_of_8_cells(cone):
    # 8 cells are the fewest the fit takes
    rec = corner_condition_check(cone, 1.0, window=8.0 / K)
    assert rec["details"]["cells"] == 8
    assert rec["passed"]
    with pytest.raises(ValueError, match="holds 7 cells"):
        corner_condition_check(cone, 1.0, window=7.5 / K)


def test_corner_condition_window_too_small(cone):
    with pytest.raises(ValueError, match="at least 8"):
        corner_condition_check(cone, 1.0, window=3.0 / K)


def test_euler_lagrange_vacuous_on_cone(proto_env, cone):
    spec, env = proto_env
    rec = euler_lagrange_affine_check(cone, env, spec)
    assert rec["passed"]
    assert rec["details"]["vacuous"]


def test_euler_lagrange_residual_three_well(three_well_spec, grid):
    env = ensure_envelope(three_well_spec)
    left = env.components[0]
    prof = RadialProfile(grid, 1.5 * (1.0 - grid.nodes))
    rec = euler_lagrange_affine_check(prof, env, three_well_spec)
    rbar = grid.midpoints
    ubar = prof.midpoint_values
    expected = np.abs(-left.alpha / rbar - 2.0 * ubar)
    assert rec["details"]["cells"] == K
    assert abs(rec["details"]["max_residual"] - float(expected.max())) <= 1e-12
    assert not rec["passed"]


def test_euler_lagrange_linear_G_zero_residual(grid):
    env = ensure_envelope(ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=three_well(),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)),
        shape_flag="none"))
    right = env.components[-1]
    k = 40
    rbar_k = grid.midpoints[k]
    c = right.alpha / rbar_k
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=three_well(),
        G=Potential1D(kind="piecewise_poly", coefficients=((0.0, c),)),
        shape_flag="none")
    slopes = np.zeros(K)
    slopes[k] = 1.5
    u = np.concatenate([[0.0], np.cumsum(slopes * grid.dr)])
    prof = RadialProfile(grid, u - u[-1])
    rec = euler_lagrange_affine_check(prof, env, spec)
    assert rec["details"]["cells"] == 1
    assert rec["details"]["max_residual"] == 0.0
    assert rec["passed"]


def test_concavity_exclusion_flags_dense_concave(proto_env, half_slope):
    spec, env = proto_env
    rec = concavity_exclusion_check(half_slope, env, spec)
    assert not rec["passed"]
    assert rec["details"]["min_G_second_derivative"] == -2.0


def test_concavity_exclusion_convex_G_never_flags(half_slope):
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(1.0, -2.0, 1.0)),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0)),
        shape_flag="none")
    env = ensure_envelope(spec)
    rec = concavity_exclusion_check(half_slope, env, spec)
    assert rec["passed"]
    assert rec["details"]["density_cells"] == K


def test_concavity_exclusion_vacuous_on_cone(proto_env, cone):
    spec, env = proto_env
    rec = concavity_exclusion_check(cone, env, spec)
    assert rec["passed"]
    assert rec["details"]["vacuous"]


def test_window_density_equals_the_neighbour_matrix():
    rng = np.random.default_rng(5)
    cases = []
    for cells in (16, 33, 257, 4096):
        for _ in range(12 if cells < 4096 else 1):
            R = float(rng.uniform(0.1, 10.0))
            cases += [RadialGrid.uniform(R, cells),
                      graded_grid(R, cells)]
    # radii at which searchsorted on rbar +- radius misplaces a window
    # edge against the float predicate |rbar_i - rbar_j| <= radius
    edge_cases = [RadialGrid.uniform(R, 16)
                  for R in (1.031330872069093, 3.7746830781740854)]
    for grid in cases + edge_cases:
        rbar = grid.midpoints
        radius = 5.0 * float(np.max(grid.dr))
        inside = rng.random(grid.cells) < rng.uniform(0.2, 0.8)
        assert np.array_equal(_window_density(rbar, inside, radius),
                              quadratic_window_density(rbar, inside, radius))
    misplaced = 0
    for grid in edge_cases:
        rbar = grid.midpoints
        radius = 5.0 * float(np.max(grid.dr))
        near = np.abs(rbar[:, None] - rbar[None, :]) <= radius
        misplaced += int(np.sum(
            np.searchsorted(rbar, rbar - radius, side="left")
            != np.argmax(near, axis=1)))
        misplaced += int(np.sum(
            np.searchsorted(rbar, rbar + radius, side="right")
            != grid.cells - np.argmax(near[:, ::-1], axis=1)))
    assert misplaced > 0


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2.0 ** 20


def test_rearrange_and_full_report_memory_linear(proto_env):
    # the K x 4097 bracket matrix and the K x K neighbour matrix that
    # these replaced would need about 1 GB here
    spec, env = proto_env
    grid = RadialGrid.uniform(1.0, 16384)
    rng = np.random.default_rng(0)
    u = np.concatenate([[0.0], np.cumsum(rng.uniform(-1.6, 1.6, grid.cells)
                                         * grid.dr)])
    prof = RadialProfile(grid, u - u[-1])
    assert _peak_mb(monotone_rearrange, prof, env) < 16.0
    assert _peak_mb(full_report, prof, spec, env) < 16.0


def test_rearrange_peak_memory_at_check_size(proto_env):
    # the check workload's 4096 cells with slopes in [-1.6, 1.6], about
    # 2,550 of them root-searched: 0.36 MiB, against 0.46 MiB with the
    # bisection and 0.65 MiB for a Newton that allocates its state anew
    # each step
    _, env = proto_env
    grid = RadialGrid.uniform(1.0, 4096)
    rng = np.random.default_rng(1)
    u = np.concatenate([[0.0], np.cumsum(rng.uniform(-1.6, 1.6, grid.cells)
                                         * grid.dr)])
    prof = RadialProfile(grid, u - u[-1])
    assert _peak_mb(monotone_rearrange, prof, env) < 0.5


def test_energy_consistency_cone(proto_env, cone):
    spec, env = proto_env
    rec = energy_consistency(cone, spec, env)
    assert rec["passed"]
    assert rec["details"]["gap"] <= 1e-12


def test_energy_consistency_half_slope_gap(proto_env, half_slope):
    spec, env = proto_env
    rec = energy_consistency(half_slope, spec, env)
    assert not rec["passed"]
    # W(0.5) - envelope(0.5) = 0.5625 integrated against r dr over the disc
    assert abs(rec["details"]["gap"] - 0.5625 * math.pi) <= 1e-12


def test_energy_consistency_prices_with_the_given_envelope(proto_env):
    # the record prices the relaxed energy with env, not with the spec's
    # cached envelope: a plateau raised to 0.5 prices at its own height
    spec, env = proto_env
    (plateau,) = env.components
    raised = dataclasses.replace(
        env, components=[dataclasses.replace(plateau, beta=0.5)])
    grid = RadialGrid.uniform(1.0, 64)
    prof = RadialProfile(grid, 0.5 * (1.0 - grid.nodes))
    rec = energy_consistency(prof, spec, raised)
    assert rec["details"]["relaxed_energy"] == 1.4398806539287814
    assert (rec["details"]["original_energy"]
            == energy_reduced(prof, spec, use_envelope=False))


def test_full_report_structure_and_purity(proto_env, cone):
    spec, env = proto_env
    a = full_report(cone, spec, env)
    b = full_report(cone, spec, env)
    assert a.overall
    assert a.overall == all(r["passed"] for r in a.records)
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)
    names = [r["name"] for r in a.records]
    assert names == ["detachment_avoidance", "slope_and_sign",
                     "corner_condition", "euler_lagrange_affine",
                     "concavity_exclusion", "energy_consistency"]
    assert a.grid["cells"] == K
    assert a.grid["lipschitz_G"] >= 0.0


def test_full_report_lipschitz_G_spans_512_points(cone):
    # max |G'| over 512 points spanning the midpoint values; 513 points
    # read 0.7698002653087315
    spec = dataclasses.replace(
        make_prototype_spec(), shape_flag="none",
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0, 0.5)))
    rep = full_report(cone, spec, ensure_envelope(spec))
    assert rep.grid["lipschitz_G"] == pytest.approx(0.7697988743929771,
                                                    rel=1e-9, abs=0.0)


def test_full_report_runs_derivative_checks_for_sampled_G():
    # a sampled G's G' and G'' are its cubic's own derivatives, so the
    # stationarity and concavity checks run on it as on a polynomial G
    t = np.linspace(-3.0, 3.0, 601)
    spec = dataclasses.replace(
        make_prototype_spec(),
        G=Potential1D(kind="sampled", samples=(tuple(t), tuple(-t * t))))
    env = ensure_envelope(spec)
    cells = RadialGrid.uniform(1.0, 256)
    names = ("euler_lagrange_affine", "concavity_exclusion")
    for slope in (1.0, 0.5):
        profile = RadialProfile(cells, slope * (1.0 - cells.nodes))
        recs = {r["name"]: r for r in full_report(profile, spec, env).records}
        assert [recs[name] for name in names] == [
            euler_lagrange_affine_check(profile, env, spec),
            concavity_exclusion_check(profile, env, spec)]
        assert recs["euler_lagrange_affine"]["details"]["vacuous"]
        concavity = recs["concavity_exclusion"]
        if slope == 1.0:
            # the cone's slope is no interior slope of the envelope
            assert concavity["passed"] and concavity["details"]["vacuous"]
        else:
            # slope -1/2 lies inside the flat part, and -t^2 is concave
            assert not concavity["passed"]
            assert concavity["details"]["min_G_second_derivative"] < 0.0


def test_pipeline_margins_stable_under_refinement(pipeline_reports):
    coarse = {r["name"]: r for r in pipeline_reports[256].verify.records}
    fine = {r["name"]: r for r in pipeline_reports[512].verify.records}
    for name, rec in coarse.items():
        if rec["passed"] and fine[name]["passed"]:
            assert fine[name]["margin"] >= 0.5 * rec["margin"] - 1e-12


def test_pipeline_zero_measure_implies_tiny_gap(pipeline_reports):
    for rep in pipeline_reports.values():
        recs = {r["name"]: r for r in rep.verify.records}
        measure = recs["detachment_avoidance"]["details"]["measure"]
        if measure == 0.0:
            gap = recs["energy_consistency"]["details"]["gap"]
            scale = 1.0 + abs(rep.relaxed_energy)
            assert gap <= 1e-9 * scale
