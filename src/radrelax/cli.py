"""Command-line front end.

Five subcommands: ``envelope`` (convexify W and report the detachment
intervals), ``solve`` (full pipeline on a radial grid), ``oracle``
(dynamic-programming reference optimum), ``verify`` (pipeline plus the
qualitative checks as the headline result), and ``symmetry`` (planar
disc experiments: averaged ray energy and gradient colinearity).

Reports are JSON with sorted keys and a schema version; curve outputs
are CSV.  Every report echoes the seed and the parsed spec, output
files are written atomically, and nothing varies run to run for a
fixed seed.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure,
3 a qualitative check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional

from .disc2d import DiscField, averaged_ray_energy_check, colinearity_defect, ray_profiles
from .envelope import convexify
from .potentials import ProblemSpec
from .radial_solver import (
    NumericalFailure,
    RadialGrid,
    dp_oracle,
    solve_pipeline,
)
from .specfile import SpecFileError, emit_spec_text, parse_spec

SCHEMA_VERSION = 2
CSV_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    """Bad flags or unreadable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through UsageError
    # so the exit-code contract stays 1 for usage problems.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    # append "(default: X)" only where the help text does not already give
    # the default and there is one to give
    def _get_help_string(self, action):
        if action.default is None or "default" in action.help:
            return action.help
        return super()._get_help_string(action)


@dataclass
class RunConfig:
    """Parsed command line; paths are checked before any compute starts."""

    command: str
    spec_path: Optional[str] = None
    grid_points: int = 256
    seed: int = 0
    oracle: bool = False
    u_levels: int = 200
    rays: int = 64
    window: Optional[float] = None
    tol_corner: float = 0.05
    out: Optional[str] = None
    profile_csv: Optional[str] = None
    fmt: str = "json"
    field_csv: Optional[str] = None
    random_fields: int = 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # built once per process: parse_args fills a fresh Namespace per call
    parser = _Parser(prog="radrelax",
                     description="Nonconvex radial variational problems: "
                                 "envelope, solver, oracle, checks.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, grid_default):
        p = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
        p.add_argument("--spec", required=True, help="problem spec file (INI)")
        p.add_argument("--grid-points", type=int, default=grid_default,
                       help="grid resolution")
        p.add_argument("--seed", type=int, default=0,
                       help="64-bit seed of the random fields (symmetry); "
                            "echoed in every report")
        p.add_argument("--out", default=None,
                       help="report path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default="json", help="report format")
        return p

    p = add("envelope", "convexify W and report detachment intervals", 4097)

    for name, help_text in (("solve", "minimize the relaxed energy and verify"),
                            ("verify", "run the pipeline; checks are the result")):
        p = add(name, help_text, 256)
        p.add_argument("--window", type=float, default=None,
                       help="near-origin window for the corner fit "
                            "(default: 0.2 R)")
        p.add_argument("--tol-corner", type=float, default=0.05,
                       help="tolerance on the extrapolated origin slope")
        p.add_argument("--profile-csv", default=None,
                       help="also write the profile as CSV" if name == "solve"
                       else "check this r,u profile CSV instead of solving")
        if name == "solve":
            p.add_argument("--oracle", action="store_true",
                           help="run the DP reference and report the gap")
            p.add_argument("--u-levels", type=int, default=200,
                           help="DP value-grid resolution (with --oracle)")

    p = add("oracle", "dynamic-programming reference optimum", 100)
    p.add_argument("--u-levels", type=int, default=200,
                   help="DP value-grid resolution")
    p.add_argument("--profile-csv", default=None,
                   help="also write the oracle profile as CSV")

    p = add("symmetry", "planar disc checks: ray average and colinearity", 129)
    p.add_argument("--rays", type=int, default=64,
                   help="number of equispaced ray directions")
    p.add_argument("--field-csv", default=None,
                   help="read the field from an x,y,u CSV")
    p.add_argument("--random-fields", type=int, default=1,
                   help="number of seeded random fields (without --field-csv)")
    p.add_argument("--profile-csv", default=None,
                   help="prefix for per-ray CSVs (single-field runs)")
    return parser


def parse_args(argv: Optional[List[str]] = None) -> RunConfig:
    """Parse argv into a RunConfig.

    Raises:
        UsageError: on unknown flags, missing files, or out-of-range values.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError("radrelax: a subcommand is required "
                         "(envelope, solve, oracle, verify, symmetry)")
    cfg = RunConfig(command=ns.command)
    for name in ("spec_path", "grid_points", "seed", "oracle", "u_levels",
                 "rays", "window", "tol_corner", "out", "profile_csv", "fmt",
                 "field_csv", "random_fields"):
        src = "spec" if name == "spec_path" else name
        if hasattr(ns, src):
            setattr(cfg, name, getattr(ns, src))
    if not (0 <= cfg.seed < 2 ** 64):
        raise UsageError("--seed must fit in 64 bits")
    # verify reads --profile-csv; the other commands write it
    reads_profile = cfg.command == "verify"
    for what, path in (("spec file", cfg.spec_path),
                       ("field CSV", cfg.field_csv),
                       ("profile CSV", cfg.profile_csv if reads_profile else None)):
        if path is not None and not os.path.isfile(path):
            raise UsageError(f"{what} not found: {path}")
    if cfg.random_fields < 1:
        raise UsageError("--random-fields must be at least 1")
    if cfg.command == "envelope" and cfg.grid_points < 64:
        raise UsageError("--grid-points must be at least 64 for envelope")
    if cfg.command in ("solve", "verify") and cfg.grid_points < 16:
        raise UsageError("--grid-points must be at least 16 cells")
    if cfg.command == "oracle" and not 16 <= cfg.grid_points <= 200:
        raise UsageError("--grid-points must lie in [16, 200] for oracle")
    if cfg.command in ("solve", "oracle") and not 2 <= cfg.u_levels <= 400:
        raise UsageError("--u-levels must lie in [2, 400]")
    if cfg.rays < 1:
        raise UsageError("--rays must be at least 1")
    if (cfg.command == "symmetry" and cfg.field_csv is None
            and (cfg.grid_points < 33 or cfg.grid_points % 2 == 0)):
        raise UsageError("--grid-points must be odd and at least 33 for symmetry")
    for path in (cfg.out, None if reads_profile else cfg.profile_csv):
        if path is not None:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                raise UsageError(f"output directory does not exist: {parent}")
    return cfg


def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        _write_text(cfg.out, text)


def _csv_text(columns: List[str], rows) -> str:
    lines = [f"# radrelax csv {CSV_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _report_text(cfg: RunConfig, spec: Optional[ProblemSpec], results: dict) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "seed": int(cfg.seed),
        "results": results,
    }
    if spec is not None:
        report["spec"] = {
            "dimension": spec.dimension,
            "radius": spec.radius,
            "p": spec.p,
            "shape_flag": spec.shape_flag,
            "ini": emit_spec_text(spec),
        }
    return _json_text(report) + "\n"


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for str-keyed reports.

    An indent sends json through its pure-Python encoder; here a list of
    floats with a finite sum (so none is NaN or infinite) is one join.
    Raises TypeError on a key that is not a str.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("report keys must be str")
        parts = [f"{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
    elif not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    elif all(type(x) is float for x in obj) and math.isfinite(sum(obj)):
        parts = list(map(float.__repr__, obj))
    else:
        parts = [_json_text(x, inner) for x in obj]
    ends = "{}" if isinstance(obj, dict) else "[]"
    if not parts:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{indent}{ends[1]}"


def _profile_csv(profile) -> str:
    s = profile.slopes
    du = list(s) + [s[-1]]
    return _csv_text(["r", "u", "du_dr"], zip(profile.grid.nodes, profile.u, du))


def _emit_profile_report(cfg: RunConfig, spec: ProblemSpec, results: dict,
                         profile, csv_path: Optional[str] = None) -> None:
    """Write the profile CSV to ``csv_path`` if given, then emit the
    profile as CSV (``--format csv``) or the JSON report."""
    if csv_path:
        _write_text(csv_path, _profile_csv(profile))
    if cfg.fmt == "csv":
        _emit(cfg, _profile_csv(profile))
    else:
        _emit(cfg, _report_text(cfg, spec, results))


def _read_profile_csv(path: str, spec: ProblemSpec):
    """Read an r,u(,du_dr) profile CSV into a RadialProfile."""
    import csv as _csv

    from .radial_solver import RadialProfile

    r: List[float] = []
    u: List[float] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(_csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip() == "r":
                continue
            if len(row) < 2:
                raise SpecFileError(f"{path}: line {lineno}: need r,u columns")
            try:
                r.append(float(row[0]))
                u.append(float(row[1]))
            except ValueError as exc:
                raise SpecFileError(f"{path}: line {lineno}: {exc}") from None
    if len(r) < 17:
        raise SpecFileError(f"{path}: profile needs at least 17 nodes")
    if abs(r[-1] - spec.radius) > 1e-9 * max(1.0, spec.radius):
        raise SpecFileError(
            f"{path}: profile ends at r = {r[-1]}, spec radius is {spec.radius}")
    try:
        import numpy as np

        grid = RadialGrid(np.asarray(r))
        return RadialProfile(grid, np.asarray(u))
    except ValueError as exc:
        raise SpecFileError(f"{path}: {exc}") from None


def _cmd_envelope(cfg: RunConfig) -> int:
    spec = parse_spec(cfg.spec_path)
    env = convexify(spec.W, grid_points=cfg.grid_points)
    if cfg.fmt == "csv":
        rows = zip(env.grid, env.w_values, env.values)
        _emit(cfg, _csv_text(["t", "w", "envelope"], rows))
    else:
        _emit(cfg, _report_text(cfg, spec, env.to_dict()))
    return EXIT_OK


def _solve_common(cfg: RunConfig):
    spec = parse_spec(cfg.spec_path)
    grid = RadialGrid.uniform(spec.radius, cfg.grid_points)
    report = solve_pipeline(spec, grid, corner_window=cfg.window,
                            corner_tol=cfg.tol_corner)
    return spec, report


def _cmd_solve(cfg: RunConfig) -> int:
    spec, report = _solve_common(cfg)
    results = {}
    if cfg.oracle:
        oracle = dp_oracle(spec, r_levels=100, u_levels=cfg.u_levels)
        report.oracle_gap = ((report.relaxed_energy - oracle.relaxed_energy)
                             / (abs(oracle.relaxed_energy) or 1.0))
        results["oracle"] = {
            "relaxed_energy": oracle.relaxed_energy,
            "original_energy": oracle.original_energy,
            "r_levels": 100,
            "u_levels": cfg.u_levels,
        }
    results.update(report.to_dict())
    _emit_profile_report(cfg, spec, results, report.profile, cfg.profile_csv)
    if report.verify is not None and not report.verify.overall:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    # with --profile-csv the checks run on that profile; otherwise the
    # pipeline supplies one
    if cfg.profile_csv:
        from . import verify as verify_mod
        from .radial_solver import energy_reduced, ensure_envelope

        spec = parse_spec(cfg.spec_path)
        profile = _read_profile_csv(cfg.profile_csv, spec)
        env = ensure_envelope(spec)
        ver = verify_mod.full_report(profile, spec, env,
                                     corner_window=cfg.window,
                                     corner_tol=cfg.tol_corner)
        results = {
            "relaxed_energy": energy_reduced(profile, spec, use_envelope=True),
            "original_energy": energy_reduced(profile, spec),
            "warnings": [],
            "verify": ver.to_dict(),
        }
        overall = ver.overall
    else:
        spec, report = _solve_common(cfg)
        results = {
            "relaxed_energy": report.relaxed_energy,
            "original_energy": report.original_energy,
            "warnings": list(report.warnings),
            "verify": report.verify.to_dict(),
        }
        overall = report.verify.overall
        profile = report.profile
    _emit_profile_report(cfg, spec, results, profile)
    return EXIT_OK if overall else EXIT_VERIFY


def _cmd_oracle(cfg: RunConfig) -> int:
    spec = parse_spec(cfg.spec_path)
    report = dp_oracle(spec, r_levels=cfg.grid_points, u_levels=cfg.u_levels)
    results = report.to_dict()
    results["r_levels"] = cfg.grid_points
    results["u_levels"] = cfg.u_levels
    _emit_profile_report(cfg, spec, results, report.profile, cfg.profile_csv)
    return EXIT_OK


def _cmd_symmetry(cfg: RunConfig) -> int:
    spec = parse_spec(cfg.spec_path)
    if spec.dimension != 2:
        raise SpecFileError(
            f"{cfg.spec_path}: symmetry needs a spec of dimension 2, "
            f"got {spec.dimension}")
    if cfg.field_csv is not None:
        try:
            fld = DiscField.from_csv(cfg.field_csv)
        except ValueError as exc:
            raise SpecFileError(str(exc)) from None
        if abs(fld.radius - spec.radius) > 1e-12 * max(1.0, spec.radius):
            raise SpecFileError(
                f"{cfg.field_csv}: field radius {fld.radius} does not match "
                f"spec radius {spec.radius}")
        fields = [(None, fld)]
    else:
        fields = [(cfg.seed + k,
                   DiscField.random_smooth(cfg.grid_points, spec.radius,
                                           cfg.seed + k))
                  for k in range(cfg.random_fields)]
    records = []
    all_pass = True
    for field_seed, fld in fields:
        rep = averaged_ray_energy_check(fld, spec, n_thetas=cfg.rays)
        rec = rep.to_dict()
        rec["defect"] = colinearity_defect(fld)
        rec["field_seed"] = field_seed
        records.append(rec)
        all_pass &= rep.passes
    # every field is priced on the same rays; the CSV outputs use their angles
    thetas = rep.thetas
    if cfg.profile_csv and len(fields) == 1:
        for k, prof in enumerate(ray_profiles(fields[0][1], thetas)):
            _write_text(f"{cfg.profile_csv}ray{k:03d}.csv", _profile_csv(prof))
    if cfg.fmt == "csv":
        if len(records) != 1:
            raise UsageError("csv format needs a single field")
        _emit(cfg, _csv_text(["theta", "energy"], zip(thetas, rep.per_theta)))
    else:
        _emit(cfg, _report_text(cfg, spec,
                                {"fields": records, "all_pass": all_pass}))
    return EXIT_OK if all_pass else EXIT_VERIFY


_COMMANDS = {
    "envelope": _cmd_envelope,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "symmetry": _cmd_symmetry,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    return _COMMANDS[cfg.command](cfg)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return run(cfg)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SpecFileError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
