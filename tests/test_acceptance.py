"""Acceptance gate: one test per shipped guarantee, with runtime budgets.

Each test prints a single [PASS]/[FAIL] line on the live terminal (the
capture is released just for that line) so a full run reads as a
checklist.  Tolerances and budgets are part of the guarantee and are
asserted, not logged.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import radrelax
from radrelax.disc2d import DiscField, averaged_ray_energy_check, colinearity_defect
from radrelax.envelope import convexify
from radrelax.potentials import Potential1D
from radrelax.radial_solver import (
    RadialGrid,
    RadialProfile,
    dp_oracle,
    energy_reduced,
    ensure_envelope,
    minimize_relaxed,
    monotone_rearrange,
    solve_pipeline,
)

from conftest import (double_well, field_from_function, make_m0_spec,
                      make_prototype_spec)
from oracles import chord_hull_values, chord_hull_vertices, random_even_sampled


def _finish(capsys, name, failures, elapsed, budget, detail):
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds {budget}s")
    verdict = "FAIL" if failures else "PASS"
    note = "; ".join(failures) if failures else detail
    with capsys.disabled():
        print(f"[{verdict}] {name}: {note} ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)


def test_envelope_closed_form(capsys):
    t0 = time.perf_counter()
    env = convexify(double_well(), grid_points=10_000)
    elapsed = time.perf_counter() - t0
    g = env.grid
    exact = np.where(np.abs(g) <= 1.0, 0.0, (g * g - 1.0) ** 2)
    sup = float(np.abs(env.values - exact).max())
    failures = []
    if sup > 1e-8:
        failures.append(f"sup error {sup:.2e} > 1e-8")
    if len(env.components) != 1:
        failures.append(f"{len(env.components)} detachment components")
    else:
        c = env.components[0]
        if abs(c.a + 1.0) > 1e-12 or abs(c.b - 1.0) > 1e-12:
            failures.append(f"component ({c.a}, {c.b}) is not (-1, 1)")
        if c.alpha != 0.0:
            failures.append(f"affine slope {c.alpha} is not 0")
    if not env.wcaffine_holds:
        failures.append("wcaffine_holds is false")
    _finish(capsys, "envelope closed form", failures, elapsed, 0.1,
            f"sup error {sup:.1e}, component (-1, 1) with zero slope")


def test_hull_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    failures = []
    for seed in range(50):
        W = random_even_sampled(seed)
        t, w = (np.asarray(a) for a in W.samples)
        env = convexify(W)
        verts = chord_hull_vertices(t, w)
        expected = chord_hull_values(t, w, verts)
        if not np.array_equal(env.values, expected):
            bad = int(np.argmax(env.values != expected))
            failures.append(f"seed {seed}: node {bad} differs")
            break
    elapsed = time.perf_counter() - t0
    _finish(capsys, "hull oracle equivalence", failures, elapsed, 10.0,
            "50 seeded potentials match the exhaustive chord oracle exactly")


def test_solver_oracle_gap(capsys):
    t0 = time.perf_counter()
    spec = make_prototype_spec()
    rep = minimize_relaxed(spec, RadialGrid.uniform(1.0, 256))
    dp = dp_oracle(spec, r_levels=100, u_levels=200, slope_levels=200)
    elapsed = time.perf_counter() - t0
    cone_bound = -math.pi / 6.0
    failures = []
    if rep.relaxed_energy > dp.relaxed_energy + 1e-3 * abs(dp.relaxed_energy):
        failures.append(f"solver {rep.relaxed_energy} trails oracle "
                        f"{dp.relaxed_energy}")
    if rep.relaxed_energy > cone_bound:
        failures.append(f"solver {rep.relaxed_energy} above cone bound")
    if dp.relaxed_energy > cone_bound:
        failures.append(f"oracle {dp.relaxed_energy} above cone bound")
    _finish(capsys, "solver vs oracle", failures, elapsed, 60.0,
            f"solver {rep.relaxed_energy:.6f} <= oracle "
            f"{dp.relaxed_energy:.6f} <= -pi/6")


def test_pipeline_qualitative_checks(capsys):
    t0 = time.perf_counter()
    reports = {}
    for cells in (512, 1024):
        spec = make_prototype_spec()
        reports[cells] = solve_pipeline(spec, RadialGrid.uniform(1.0, cells))
    elapsed = time.perf_counter() - t0
    recs = {cells: {r["name"]: r for r in rep.verify.records}
            for cells, rep in reports.items()}
    failures = []
    m512 = recs[512]["detachment_avoidance"]["details"]["measure"]
    m1024 = recs[1024]["detachment_avoidance"]["details"]["measure"]
    if m512 > 2.0 / 512:
        failures.append(f"detachment measure {m512} > 2 cell widths")
    # refinement must not grow the set; strict decrease only applies when
    # the coarse run detected any detachment at all
    if (m1024 >= m512) if m512 > 0 else (m1024 > m512):
        failures.append(f"measure did not shrink: {m512} -> {m1024}")
    slope = recs[1024]["slope_and_sign"]["details"]
    if slope["fraction_steep"] < 0.99:
        failures.append(f"steep fraction {slope['fraction_steep']} < 0.99")
    if not slope["nonnegative"]:
        failures.append("profile changes sign")
    fit = recs[1024]["corner_condition"]["details"]["fit_at_zero"]
    if abs(fit + 1.0) > 0.05:
        failures.append(f"origin slope {fit} misses -1 by more than 0.05")
    e = recs[1024]["energy_consistency"]["details"]
    rel_gap = e["gap"] / max(1.0, abs(reports[1024].relaxed_energy))
    if rel_gap > 1e-6:
        failures.append(f"relative energy gap {rel_gap:.2e} > 1e-6")
    for cells, rep in reports.items():
        if not rep.verify.overall:
            failures.append(f"verify failed at {cells} cells")
    _finish(capsys, "pipeline qualitative checks", failures, elapsed, 120.0,
            f"measure {m512:g}->{m1024:g}, steep fraction "
            f"{slope['fraction_steep']:.3f}, origin slope {fit:.4f}, "
            f"relative gap {rel_gap:.1e}")


def test_zero_M_branch(capsys):
    t0 = time.perf_counter()
    spec = make_m0_spec()
    rep = solve_pipeline(spec, RadialGrid.uniform(1.0, 256))
    elapsed = time.perf_counter() - t0
    recs = {r["name"]: r for r in rep.verify.records}
    failures = []
    if not rep.verify.overall:
        failures.append("verify failed")
    if len(ensure_envelope(spec).components) != 0:
        failures.append("detachment set is not empty")
    if recs["detachment_avoidance"]["details"]["measure"] != 0.0:
        failures.append("nonzero detachment measure")
    if not recs["euler_lagrange_affine"]["details"]["vacuous"]:
        failures.append("interior-slope check ran on an empty region")
    _finish(capsys, "already-convex branch", failures, elapsed, 30.0,
            "pipeline passes with empty detachment set and vacuous "
            "interior check")


def test_ray_average_inequality(capsys):
    t0 = time.perf_counter()
    spec = make_prototype_spec()
    failures = []
    for seed in range(20):
        fld = DiscField.random_smooth(129, 1.0, seed=seed)
        rep = averaged_ray_energy_check(fld, spec, n_thetas=64)
        if not rep.passes:
            failures.append(f"seed {seed}: lhs {rep.lhs} > rhs {rep.rhs} "
                            f"+ {rep.tol}")
    worst = 0.0
    for radial in (
            field_from_function(
                lambda X, Y: 1.0 - np.sqrt(X * X + Y * Y), 129, 1.0),
            field_from_function(
                lambda X, Y: np.exp(-3.0 * (X * X + Y * Y))
                * (1.0 - (X * X + Y * Y)), 129, 1.0)):
        rep = averaged_ray_energy_check(radial, spec, n_thetas=64)
        gap = abs(rep.lhs - rep.rhs)
        worst = max(worst, gap)
        if gap > rep.tol:
            failures.append(f"radial field misses equality: gap {gap}")
    elapsed = time.perf_counter() - t0
    _finish(capsys, "averaged ray energy", failures, elapsed, 60.0,
            f"20 random fields pass; radial equality gap <= {worst:.1e}")


def test_colinearity_diagnostic(capsys):
    t0 = time.perf_counter()
    cone = field_from_function(
        lambda X, Y: 1.0 - np.sqrt(X * X + Y * Y), 129, 1.0)
    planar = field_from_function(lambda X, Y: X + 0.0 * Y, 129, 1.0)
    radial_defect = colinearity_defect(cone)
    planar_defect = colinearity_defect(planar)
    elapsed = time.perf_counter() - t0
    failures = []
    if radial_defect > 5.0 * cone.h:
        failures.append(f"radial defect {radial_defect} > 5h")
    if planar_defect < 0.5:
        failures.append(f"planar defect {planar_defect} < 0.5")
    _finish(capsys, "colinearity diagnostic", failures, elapsed, 5.0,
            f"radial {radial_defect:.1e} <= 5h, planar {planar_defect:.3f}"
            " >= 0.5")


def test_rearrangement_laws(capsys):
    t0 = time.perf_counter()
    spec = make_prototype_spec()
    env = ensure_envelope(spec)
    grid = RadialGrid.uniform(1.0, 128)
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        slopes = rng.uniform(-1.6, 1.6, grid.cells)
        u = np.concatenate([[0.0], np.cumsum(slopes * grid.dr)])
        prof = RadialProfile(grid, u - u[-1])
        v = monotone_rearrange(prof, env)
        w_err = float(np.abs(spec.W.eval(np.abs(v.slopes))
                             - spec.W.eval(np.abs(prof.slopes))).max())
        if w_err > 1e-8:
            failures.append(f"seed {seed}: W value drift {w_err:.2e}")
        if not np.all(v.u >= np.abs(prof.u) - 1e-12):
            failures.append(f"seed {seed}: rearrangement fails to dominate")
        if not np.all(np.diff(v.u) <= 1e-15):
            failures.append(f"seed {seed}: rearrangement not nonincreasing")
        # the no-increase law prices slopes with the original W, whose
        # per-cell values the rearrangement preserves
        e_u = energy_reduced(prof, spec)
        e_v = energy_reduced(v, spec)
        if e_v > e_u + 1e-9 * (1.0 + abs(e_u)):
            failures.append(f"seed {seed}: energy rose {e_u} -> {e_v}")
        if failures:
            break
    elapsed = time.perf_counter() - t0
    _finish(capsys, "rearrangement laws", failures, elapsed, 10.0,
            "100 seeded profiles: W values kept, dominating, nonincreasing, "
            "energy never rises")


def test_determinism(capsys, prototype_ini, tmp_path):
    t0 = time.perf_counter()
    # the child imports radrelax from the same tree as this process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(radrelax.__file__))
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "radrelax.cli", "solve",
             "--spec", prototype_ini, "--seed", "42", "--out", str(out)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            break
        outs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    failures = []
    if len(outs) != 2:
        failures.append(f"run exited {proc.returncode}: {proc.stderr.strip()}")
    elif outs[0] != outs[1]:
        failures.append("reports differ between runs")
    _finish(capsys, "determinism", failures, elapsed, 120.0,
            "two seeded runs produced byte-identical reports")
