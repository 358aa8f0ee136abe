"""The two benchmark workloads: ``solve`` and ``check``.

A workload's set-up turns the seed into a fixed list of items.  The
timed phase runs that list as one pass, in a closed loop with a single
client, and repeats passes while the time budget lasts.  Each item has a
``run`` step, the only part that is timed, and a ``gate`` step that
checks the program's output and returns the list of failed conditions
plus the exact facts (energies, gaps) the item produced.

Calls into radrelax go through module attributes (``cli.main``,
``verify.full_report``) at call time, so the tracer's wrappers see them.
Gates use the run step's outputs and plain numpy only, never radrelax,
so tracing counts nothing but the workload itself.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from radrelax import cli, disc2d, envelope, radial_solver, verify
from radrelax.disc2d import DiscField
from radrelax.potentials import Potential1D
from radrelax.radial_solver import RadialGrid, RadialProfile

import inputs

SOLVE_CELLS = 1024
CHECK_CELLS = 4096
CHECK_FIELD_N = 257
RAYS = 64
GAP_GATE = 1e-3
CORNER_GATE = 0.05


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    gate: Callable[[object], tuple]


@dataclass
class Context:
    """Where a run lives and how it launches command-line children."""

    root: Path
    work: Path
    trace_dir: Optional[Path] = None
    child_env: dict = field(default_factory=dict)
    child_peak_kb: int = 0
    child_runs: int = 0

    def run_child(self, argv: List[str]) -> int:
        """Run ``python -m radrelax.cli argv`` and return its exit code.

        With a trace directory the child runs under the tracer and leaves
        its spans there.  The child's own peak RSS is read from wait4.
        """
        self.child_runs += 1
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "radrelax.cli", *argv]
        else:
            spans = self.trace_dir / f"child-{self.child_runs:05d}.json.gz"
            cmd = [sys.executable, str(self.root / "bench" / "traced_cli.py"),
                   str(spans), *argv]
        with open(self.work / "child.stderr", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.child_env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode


def _read_report(path: Path) -> tuple:
    """The report a command wrote, parsed, and the SHA-256 of its bytes."""
    try:
        data = path.read_bytes()
    finally:
        path.unlink(missing_ok=True)
    return json.loads(data), hashlib.sha256(data).hexdigest()


def _main(argv: List[str]) -> int:
    return cli.main(argv)


# --- solve ----------------------------------------------------------------

def _solve_gate(out: Path, rc: int) -> tuple:
    report, digest = _read_report(out)
    res = report["results"]
    corner = next(r for r in res["verify"]["records"]
                  if r["name"] == "corner_condition")["details"]
    gap = float(res["oracle_gap"])
    err = abs(corner["fit_at_zero"] - corner["target"])
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    if not res["verify"]["overall"]:
        failures.append("verify.overall is false")
    if not gap <= GAP_GATE:
        failures.append(f"energy_gap_dp {gap:.3e} > {GAP_GATE}")
    if not err <= CORNER_GATE:
        failures.append(f"corner_err {err:.3e} > {CORNER_GATE}")
    facts = {"relaxed_energy": res["relaxed_energy"],
             "original_energy": res["original_energy"],
             "dp_energy": res["oracle"]["relaxed_energy"],
             "iterations": res["iterations"],
             "energy_gap_dp": gap, "corner_err": err, "report_sha256": digest}
    return failures, facts


def solve_items(seed: int, ctx: Context) -> List[Item]:
    """Four in-process ``radrelax solve --oracle`` runs at 1024 cells.

    Three double wells W = (t^2 - a^2)^2 with G = -c u^2 and one M = 0
    case W = b t^2 + t^4 with G = -c u, all in N = 2.  The double wells'
    (a, c, R) form a Latin hypercube, so every seed spans each range once.
    Item k passes the solver ``--seed k``: the random multistarts alone
    move a double well's descent iterations by up to 30% (12,231 to
    15,781 over solver seeds 0 to 5 at a = c = R = 1), so fixed solver
    seeds keep the cost of a pass from swinging with the workload seed.
    The M = 0 solve is the cheapest, so the median item is a double well,
    the case descent work targets.  A pass takes 16 to 25 s on a 2-core
    Xeon.
    """
    rng = inputs.rng_for(seed, 1)
    wells = inputs.latin_hypercube(rng, 3, 3)
    problems = [("double_well", inputs.double_well_spec(wells[0], 2)),
                ("m0", inputs.convex_spec(rng.uniform(size=3), 2)),
                ("double_well", inputs.double_well_spec(wells[1], 2)),
                ("double_well", inputs.double_well_spec(wells[2], 2))]
    items = []
    for k, (name, spec) in enumerate(problems):
        path = ctx.work / f"solve{k}.ini"
        inputs.write_spec(path, spec)
        out = ctx.work / f"solve{k}.json"
        argv = ["solve", "--spec", str(path), "--oracle",
                "--grid-points", str(SOLVE_CELLS),
                "--seed", str(k), "--out", str(out)]
        items.append(Item(f"solve/{name}", functools.partial(_main, argv),
                          functools.partial(_solve_gate, out)))
    return items


# --- check ----------------------------------------------------------------

def _prototype_w(t: np.ndarray) -> np.ndarray:
    return (t * t - 1.0) ** 2


def _envelope_failures(label: str, env) -> List[str]:
    t, c, w = env.grid, env.values, env.w_values
    scale = 1.0 + float(np.max(np.abs(w)))
    failures = []
    if np.any(c > w + 1e-12 * scale):
        failures.append(f"{label}: envelope above the samples")
    slopes = np.diff(c) / np.diff(t)
    if np.any(np.diff(slopes) < -1e-9 * (1.0 + float(np.max(np.abs(slopes))))):
        failures.append(f"{label}: negative second difference")
    return failures


def _check_run(proto, env, sampled, W, prof, fld) -> dict:
    out = {"sampled_env": envelope.convexify(sampled),
           "poly_env": envelope.convexify(W)}
    v = radial_solver.monotone_rearrange(prof, env)
    out.update(
        raw=prof, rearranged=v,
        raw_report=verify.full_report(prof, proto, env),
        rearranged_report=verify.full_report(v, proto, env),
        raw_energy=radial_solver.energy_reduced(prof, proto),
        rearranged_energy=radial_solver.energy_reduced(v, proto),
        ray=disc2d.averaged_ray_energy_check(fld, proto, n_thetas=RAYS),
        defect=disc2d.colinearity_defect(fld))
    return out


def _check_gate(res: dict) -> tuple:
    u, v = res["raw"], res["rearranged"]
    e_u, e_v = res["raw_energy"], res["rearranged_energy"]
    failures = (_envelope_failures("sampled W", res["sampled_env"])
                + _envelope_failures("polynomial W", res["poly_env"]))
    w_err = float(np.max(np.abs(_prototype_w(np.abs(v.slopes))
                                - _prototype_w(np.abs(u.slopes)))))
    if w_err > 1e-8:
        failures.append(f"rearrangement moved W by {w_err:.2e}")
    if not np.all(v.u >= np.abs(u.u) - 1e-12):
        failures.append("rearrangement does not dominate |u|")
    if not np.all(np.diff(v.u) <= 1e-15):
        failures.append("rearrangement is not nonincreasing")
    if e_v > e_u + 1e-9 * (1.0 + abs(e_u)):
        failures.append(f"rearrangement raised the energy {e_u} -> {e_v}")
    slope = next(r for r in res["rearranged_report"].records
                 if r["name"] == "slope_and_sign")
    if not slope["passed"]:
        failures.append("slope_and_sign fails on the rearranged profile")
    ray = res["ray"]
    if not ray.passes:
        failures.append(f"ray check: {ray.lhs} > {ray.rhs} + {ray.tol}")
    if not np.isfinite(res["defect"]):
        failures.append("colinearity defect is not finite")
    facts = {"raw_energy": e_u, "rearranged_energy": e_v,
             "ray_lhs": ray.lhs, "ray_rhs": ray.rhs, "defect": res["defect"],
             "poly_M": res["poly_env"].M,
             "poly_components": len(res["poly_env"].components),
             "sampled_M": res["sampled_env"].M,
             "raw_overall": res["raw_report"].overall}
    return failures, facts


def check_items(seed: int, ctx: Context) -> List[Item]:
    """The no-descent workload: eight in-process items, then the five
    command-line items of ``cli_items``.

    Each in-process item convexifies a random sampled W and a polynomial
    W (alternately a random double well and the three-well W), runs a
    4096-cell rearrangement with full verification of both profiles, and
    the disc checks at n = 257.
    """
    rng = inputs.rng_for(seed, 2)
    proto = inputs.prototype_spec()
    env = radial_solver.ensure_envelope(proto)
    grid = RadialGrid.uniform(proto.radius, CHECK_CELLS)
    items = []
    for k in range(8):
        sampled = Potential1D(kind="sampled",
                              samples=inputs.random_even_samples(rng))
        W = (inputs.double_well(float(rng.uniform(0.9, 1.1))) if k % 2 == 0
             else inputs.three_well())
        prof = RadialProfile(grid, inputs.random_slopes_profile(rng, grid.nodes))
        fld = DiscField(CHECK_FIELD_N, proto.radius,
                        inputs.smooth_field(rng, CHECK_FIELD_N, proto.radius))
        name = "double_well" if k % 2 == 0 else "three_well"
        items.append(Item(f"check/{name}",
                          functools.partial(_check_run, proto, env, sampled, W,
                                            prof, fld),
                          _check_gate))
    return items + cli_items(seed, ctx)


# --- cli ------------------------------------------------------------------

def _verdicts(verify_dict: dict) -> tuple:
    return (verify_dict["overall"],
            [(r["name"], r["passed"], r["margin"]) for r in verify_dict["records"]])


def _cli_gate(out: Path, expected_rc: int, expect: Callable, rc: int) -> tuple:
    report, digest = _read_report(out)
    failures = []
    if rc != expected_rc:
        failures.append(f"exit code {rc}, expected {expected_rc}")
    if "schema_version" not in report:
        failures.append("report lacks schema_version")
    failures += expect(report["results"])
    return failures, {"exit_code": rc, "report_sha256": digest}


def cli_items(seed: int, ctx: Context) -> List[Item]:
    """Five ``python -m radrelax.cli`` subprocesses: envelope, oracle
    (100 x 200), verify on a cone profile (exit 0), verify on a random
    profile (exit 3) and symmetry on four random fields.  Each pays the
    interpreter start and imports, as a shell user does.

    The expected oracle energy and verify verdicts are computed in
    process, from the same files, during set-up.
    """
    rng = inputs.rng_for(seed, 3)
    spec_path = ctx.work / "cli.ini"
    spec = inputs.write_spec(spec_path,
                              inputs.double_well_spec(rng.uniform(size=3), 2))
    env = radial_solver.ensure_envelope(spec)
    nodes = RadialGrid.uniform(spec.radius, 256).nodes
    profiles = {"cone": inputs.cone_profile(env.M, nodes),
                "random": inputs.random_slopes_profile(rng, nodes)}
    expected_verdicts = {}
    for name, u in profiles.items():
        inputs.write_profile_csv(ctx.work / f"{name}.csv", nodes, u)
        rep = verify.full_report(RadialProfile(RadialGrid(nodes), u), spec, env)
        expected_verdicts[name] = _verdicts(
            json.loads(json.dumps(rep.to_dict())))
    dp_energy = radial_solver.dp_oracle(spec, 100, 200, 200).relaxed_energy

    def same_m(res):
        return [] if res["M"] == env.M else [f"envelope M {res['M']} != {env.M}"]

    def same_dp(res):
        if res["relaxed_energy"] == dp_energy:
            return []
        return [f"oracle energy {res['relaxed_energy']!r} != {dp_energy!r}"]

    def same_verdicts(name):
        def expect(res):
            if _verdicts(res["verify"]) == expected_verdicts[name]:
                return []
            return [f"verify verdicts on the {name} profile differ"]
        return expect

    def all_pass(res):
        ok = res["all_pass"] and len(res["fields"]) == 4
        return [] if ok else ["symmetry check failed"]

    base = ["--spec", str(spec_path)]
    commands = [
        ("envelope", [], 0, same_m),
        ("oracle", ["--grid-points", "100", "--u-levels", "200"], 0, same_dp),
        ("verify", ["--profile-csv", str(ctx.work / "cone.csv")], 0,
         same_verdicts("cone")),
        ("verify", ["--profile-csv", str(ctx.work / "random.csv")], 3,
         same_verdicts("random")),
        ("symmetry", ["--random-fields", "4", "--rays", str(RAYS),
                      "--seed", str(int(rng.integers(0, 2 ** 31)))], 0, all_pass),
    ]
    items = []
    for k, (command, extra, expected_rc, expect) in enumerate(commands):
        out = ctx.work / f"cli{k}.json"
        argv = [command, *base, *extra, "--out", str(out)]
        items.append(Item(f"cli/{command}",
                          functools.partial(ctx.run_child, argv),
                          functools.partial(_cli_gate, out, expected_rc, expect)))
    return items


WORKLOADS = {"solve": solve_items, "check": check_items}

# Passes per run, fixed so that a faster program is timed with the same
# estimator (each item's fastest of this many runs) and finishes sooner.
# Set from the parent's timings: a pass takes about 20 s on solve and
# 8 s on check, so both fit a 55 s budget with set-up.
PASSES = {"solve": 2, "check": 5}
