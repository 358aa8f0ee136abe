"""Command-line front end.

Five subcommands: ``envelope`` (convexify W and report the detachment
intervals), ``solve`` (full pipeline on a radial grid), ``oracle``
(dynamic-programming reference optimum), ``verify`` (pipeline plus the
qualitative checks as the headline result), and ``symmetry`` (planar
disc experiments: averaged ray energy and gradient colinearity).

Reports are JSON with sorted keys and a schema version; curve outputs
are CSV.  Every report echoes the seed and the parsed spec, every
output's text is built before any file is written, output files are
written atomically, and nothing varies run to run for a fixed seed.

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
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from .envelope import NumericalFailure, convexify
from .potentials import ProblemSpec
from .specfile import SpecFileError, emit_spec_text, parse_spec

# each command imports the modules it runs, so a command loads only those
if TYPE_CHECKING:
    from .disc2d import DiscField
    from .radial_solver import RadialGrid, RadialProfile

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


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse argv into the subcommand's Namespace, whose defaults are the
    parser's; paths are checked before any compute starts.

    Raises:
        UsageError: on unknown flags, missing files, or out-of-range values.
    """
    cfg = _build_parser().parse_args(argv)
    cmd = cfg.command
    if cmd is None:
        raise UsageError("radrelax: a subcommand is required "
                         "(envelope, solve, oracle, verify, symmetry)")
    if not (0 <= cfg.seed < 2 ** 64):
        raise UsageError("--seed must fit in 64 bits")
    # verify reads --profile-csv; solve, oracle and symmetry write it
    inputs = [("spec file", cfg.spec)]
    if cmd == "symmetry":
        inputs.append(("field CSV", cfg.field_csv))
    if cmd == "verify":
        inputs.append(("profile CSV", cfg.profile_csv))
    for what, path in inputs:
        if path is not None and not os.path.isfile(path):
            raise UsageError(f"{what} not found: {path}")
    if cmd == "symmetry" and cfg.random_fields < 1:
        raise UsageError("--random-fields must be at least 1")
    if cmd == "envelope" and cfg.grid_points < 64:
        raise UsageError("--grid-points must be at least 64 for envelope")
    if cmd in ("solve", "verify") and cfg.grid_points < 16:
        raise UsageError("--grid-points must be at least 16 cells")
    if cmd == "oracle" and not 16 <= cfg.grid_points <= 200:
        raise UsageError("--grid-points must lie in [16, 200] for oracle")
    if cmd in ("solve", "oracle") and not 2 <= cfg.u_levels <= 400:
        raise UsageError("--u-levels must lie in [2, 400]")
    if cmd == "symmetry" and cfg.rays < 1:
        raise UsageError("--rays must be at least 1")
    if cmd in ("solve", "verify"):
        # NaN fails both comparisons; an infinite window fits every cell
        if cfg.window is not None and not cfg.window > 0.0:
            raise UsageError("--window must be positive")
        if not cfg.tol_corner >= 0.0:
            raise UsageError("--tol-corner must be nonnegative")
    if cmd == "symmetry" and cfg.field_csv is None:
        if cfg.grid_points < 33 or cfg.grid_points % 2 == 0:
            raise UsageError(
                "--grid-points must be odd and at least 33 for symmetry")
        if cfg.fmt == "csv" and cfg.random_fields != 1:
            raise UsageError("csv format needs a single field")
        if cfg.profile_csv and cfg.random_fields != 1:
            raise UsageError("--profile-csv needs a single field")
    elif cmd == "symmetry":
        # the field read fixes what these flags would choose; a value other
        # than the parser's default would be silently ignored
        defaults = _build_parser().parse_args([cmd, "--spec", ""])
        for dest, why in (("random_fields", "is a single field"),
                          ("grid_points", "fixes the grid"),
                          ("seed", "is not seeded")):
            default = getattr(defaults, dest)
            if getattr(cfg, dest) != default:
                raise UsageError(f"--field-csv {why}; "
                                 f"--{dest.replace('_', '-')} must be {default}")
    outputs = [cfg.out]
    if cmd in ("solve", "oracle", "symmetry"):
        outputs.append(cfg.profile_csv)
    for path in outputs:
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


def _csv_text(columns: List[str], rows) -> str:
    """The CSV table of rows under the version line and the header.
    Raises ValueError on a NaN or infinite value, as ``_json_text``
    does."""
    lines = [f"# radrelax csv {CSV_VERSION}", ",".join(columns)]
    for row in rows:
        vals = [float(v) for v in row]
        if not all(map(math.isfinite, vals)):
            raise ValueError("Out of range float values are not CSV "
                             "compliant")
        lines.append(",".join(map(repr, vals)))
    return "\n".join(lines) + "\n"


def _report_text(cfg: argparse.Namespace, spec: ProblemSpec,
                 results: dict) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "seed": int(cfg.seed),
        "results": results,
        "spec": {
            "dimension": spec.dimension,
            "radius": spec.radius,
            "p": spec.p,
            "shape_flag": spec.shape_flag,
            "ini": emit_spec_text(spec),
        },
    }
    return _json_text(report) + "\n"


# one encoder: json.dumps builds a new one per call when given an option
_json_scalar = json.JSONEncoder(allow_nan=False).encode


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` for
    str-keyed reports.

    An indent sends json through its pure-Python encoder; here a list of
    floats with a finite sum (so none is NaN or infinite) is one join.
    Raises TypeError on a key that is not a str, and ValueError on a NaN
    or infinite float, which JSON cannot hold.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("report keys must be str")
        parts = [f"{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
    elif not isinstance(obj, (list, tuple)):
        return _json_scalar(obj)
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


def _emit(cfg: argparse.Namespace, spec: ProblemSpec, results: dict,
          csv_text: Callable[[], str], files=()) -> None:
    """Write a command's outputs: the JSON report, or ``csv_text()`` under
    ``--format csv``, to stdout or ``--out``, and each (path, text) pair of
    ``files`` to its path. Every text is built before any file is written,
    so a report that JSON cannot hold (a NaN) writes no file."""
    if cfg.fmt == "csv":
        text = csv_text()
    else:
        text = _report_text(cfg, spec, results)
    for path, side in list(files):
        _write_text(path, side)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        _write_text(cfg.out, text)


def _read_rows(path: str, names: List[str], header: bool):
    """The first len(names) cells of each row of a CSV table as a float
    array, and the line of the last row. Blank rows and rows whose first
    cell starts with ``#`` are skipped; the first row left is a header when
    its first cell is names[0], and ``header`` requires one reading names.
    Raises SpecFileError citing the file, and the line where there is one."""
    import csv

    k = len(names)
    finite = f"{', '.join(names[:-1])} and {names[-1]} must be finite"
    flat: List[float] = []
    head = last = None
    # row by row: holding every row's cells costs more GC time than parsing
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if head is None:
                head = [c.strip() for c in row[:k]]
                if header and head != names:
                    break
                if head[:1] == names[:1]:
                    continue
            try:
                if len(row) < k:
                    raise ValueError(f"need {','.join(names)} columns")
                vals = list(map(float, row[:k]))
                if not all(map(math.isfinite, vals)):
                    raise ValueError(finite)
            except ValueError as exc:
                raise SpecFileError(f"{path}: line {lineno}: {exc}") from None
            flat += vals
            last = lineno
    if header and head != names:
        raise SpecFileError(f"{path}: expected header {','.join(names)}")
    return np.array(flat).reshape(-1, k), last


def _read_profile_csv(path: str, spec: ProblemSpec) -> RadialProfile:
    """Read an r,u(,du_dr) profile table into a RadialProfile."""
    from .radial_solver import RadialGrid, RadialProfile, _off_radius

    ru, last = _read_rows(path, ["r", "u"], header=False)
    r, u = ru.T.tolist()
    if len(r) < 17:
        raise SpecFileError(f"{path}: profile needs at least 17 nodes")
    if _off_radius(r[-1], spec.radius):
        raise SpecFileError(
            f"{path}: profile ends at r = {r[-1]}, spec radius is {spec.radius}")
    # RadialProfile pins u(R) to 0, so any other end value would be
    # replaced, and a different profile checked
    if abs(u[-1]) > 1e-12 * max(1.0, max(map(abs, u))):
        raise SpecFileError(
            f"{path}: line {last}: profile must end at u = 0, got {u[-1]}")
    try:
        profile = RadialProfile(RadialGrid(np.asarray(r)), np.asarray(u))
    except ValueError as exc:
        raise SpecFileError(f"{path}: {exc}") from None
    # finite values can still price to inf: u = 1e300 overflows W and G
    with np.errstate(over="ignore", invalid="ignore"):
        priced = (spec.W.eval(profile.slopes),
                  spec.G.eval(profile.midpoint_values))
    if not all(np.all(np.isfinite(v)) for v in priced):
        raise SpecFileError(f"{path}: W or G is not finite on this profile")
    return profile


def _read_field_csv(path: str, spec_radius: float) -> DiscField:
    """Read an x,y,u field table: a header row ``x,y,u``, then one row per
    node of a square grid over [-R, R]^2, R the spec radius, in any order."""
    from .disc2d import DiscField
    from .radial_solver import _off_radius

    xyu, _ = _read_rows(path, ["x", "y", "u"], header=True)
    m = len(xyu)
    if not m:
        raise SpecFileError(f"{path}: no nodes after the header")
    n = math.isqrt(m)
    if n * n != m:
        raise SpecFileError(f"{path}: {m} rows is not a square grid")
    R = float(np.abs(xyu[:, 0]).max())
    if R <= 0.0 or n == 1:
        raise SpecFileError(f"{path}: degenerate grid")
    # each node's nearest grid index; one past the grid (a far y overflows
    # to inf) clips to an edge node at least h/2 away, so it is off the grid
    with np.errstate(over="ignore"):
        ij = np.rint((xyu[:, :2] + R) / (2.0 * R / (n - 1)))
    ij = np.clip(ij, 0, n - 1).astype(np.intp)
    on = (np.abs(np.linspace(-R, R, n)[ij] - xyu[:, :2]) <= 1e-9 * R).all(axis=1)
    if not on.all():
        px, py = xyu[np.argmin(on), :2]
        raise SpecFileError(f"{path}: node ({float(px)}, {float(py)}) off the grid")
    vals = np.full((n, n), np.nan)
    vals[ij[:, 0], ij[:, 1]] = xyu[:, 2]
    if np.isnan(vals).any():
        raise SpecFileError(f"{path}: grid has missing nodes")
    try:
        fld = DiscField(n, R, vals)
    except ValueError as exc:
        raise SpecFileError(f"{path}: {exc}") from None
    if _off_radius(R, spec_radius):
        raise SpecFileError(f"{path}: field radius {R} does not match "
                            f"spec radius {spec_radius}")
    return fld


def _cmd_envelope(cfg: argparse.Namespace) -> int:
    spec = parse_spec(cfg.spec)
    env = convexify(spec.W, grid_points=cfg.grid_points)
    rows = zip(env.grid, env.w_values, env.values)
    _emit(cfg, spec, env.to_dict(),
          lambda: _csv_text(["t", "w", "envelope"], rows))
    return EXIT_OK


def _require_corner_cells(cfg: argparse.Namespace, spec: ProblemSpec,
                          grid: RadialGrid, error) -> None:
    # the corner fit's cell count, before any compute starts; error
    # makes the exception from the message
    from .verify import _corner_cells, _corner_window

    try:
        _corner_cells(grid.midpoints, _corner_window(cfg.window, spec.radius))
    except ValueError as exc:
        raise error(str(exc)) from None


def _solve_common(cfg: argparse.Namespace):
    from .radial_solver import RadialGrid, solve_pipeline

    spec = parse_spec(cfg.spec)
    grid = RadialGrid.uniform(spec.radius, cfg.grid_points)
    _require_corner_cells(cfg, spec, grid, UsageError)
    report = solve_pipeline(spec, grid, corner_window=cfg.window,
                            corner_tol=cfg.tol_corner)
    return spec, report


def _cmd_solve(cfg: argparse.Namespace) -> int:
    spec, report = _solve_common(cfg)
    results = report.to_dict()
    if cfg.oracle:
        from .radial_solver import dp_oracle

        oracle = dp_oracle(spec, r_levels=100, u_levels=cfg.u_levels)
        results["oracle_gap"] = ((report.relaxed_energy - oracle.relaxed_energy)
                                 / (abs(oracle.relaxed_energy) or 1.0))
        results["oracle"] = {
            "relaxed_energy": oracle.relaxed_energy,
            "original_energy": oracle.original_energy,
            "r_levels": 100,
            "u_levels": cfg.u_levels,
        }
    profile = report.profile
    _emit(cfg, spec, results, lambda: _profile_csv(profile),
          [(cfg.profile_csv, _profile_csv(profile))] if cfg.profile_csv else ())
    return EXIT_OK if report.verify.overall else EXIT_VERIFY


def _cmd_verify(cfg: argparse.Namespace) -> int:
    # with --profile-csv the checks run on that profile; otherwise the
    # pipeline supplies one. Either way the energy_consistency record
    # holds the profile's price
    if cfg.profile_csv:
        from .radial_solver import ensure_envelope
        from .verify import full_report

        spec = parse_spec(cfg.spec)
        profile = _read_profile_csv(cfg.profile_csv, spec)
        _require_corner_cells(
            cfg, spec, profile.grid,
            lambda msg: SpecFileError(f"{cfg.profile_csv}: {msg}"))
        ver = full_report(profile, spec, ensure_envelope(spec),
                          corner_window=cfg.window, corner_tol=cfg.tol_corner)
        warnings = []
    else:
        spec, report = _solve_common(cfg)
        profile, ver, warnings = report.profile, report.verify, report.warnings
    price = ver._record("energy_consistency")["details"]
    results = {
        "relaxed_energy": price["relaxed_energy"],
        "original_energy": price["original_energy"],
        "warnings": list(warnings),
        "verify": ver.to_dict(),
    }
    _emit(cfg, spec, results, lambda: _profile_csv(profile))
    return EXIT_OK if ver.overall else EXIT_VERIFY


def _cmd_oracle(cfg: argparse.Namespace) -> int:
    from .radial_solver import dp_oracle

    spec = parse_spec(cfg.spec)
    report = dp_oracle(spec, r_levels=cfg.grid_points, u_levels=cfg.u_levels)
    results = report.to_dict()
    results["r_levels"] = cfg.grid_points
    results["u_levels"] = cfg.u_levels
    profile = report.profile
    _emit(cfg, spec, results, lambda: _profile_csv(profile),
          [(cfg.profile_csv, _profile_csv(profile))] if cfg.profile_csv else ())
    return EXIT_OK


def _cmd_symmetry(cfg: argparse.Namespace) -> int:
    from .disc2d import (DiscField, averaged_ray_energy_check,
                         colinearity_defect, ray_profiles)

    spec = parse_spec(cfg.spec)
    if spec.dimension != 2:
        raise SpecFileError(
            f"{cfg.spec}: symmetry needs a spec of dimension 2, "
            f"got {spec.dimension}")
    if cfg.field_csv is not None:
        fields = [(None, _read_field_csv(cfg.field_csv, spec.radius))]
    else:
        # one field at a time, whatever the count
        fields = ((cfg.seed + k,
                   DiscField.random_smooth(cfg.grid_points, spec.radius,
                                           cfg.seed + k))
                  for k in range(cfg.random_fields))
    records = []
    all_pass = True
    for field_seed, fld in fields:
        # a field W or G cannot price gives a non-finite record, which the
        # report writer refuses
        with np.errstate(over="ignore", invalid="ignore"):
            rep = averaged_ray_energy_check(fld, spec, n_thetas=cfg.rays)
            defect = colinearity_defect(fld)
        rec = rep.to_dict()
        rec["defect"] = defect
        rec["field_seed"] = field_seed
        records.append(rec)
        all_pass &= rep.passes
    # every field is priced on the same rays; the CSV outputs use their
    # angles.  parse_args admits csv output for single-field runs only
    rows = zip(rep.thetas, rep.per_theta)
    rays = ray_profiles(fld, rep.thetas) if cfg.profile_csv else ()
    _emit(cfg, spec, {"fields": records, "all_pass": all_pass},
          lambda: _csv_text(["theta", "energy"], rows),
          ((f"{cfg.profile_csv}ray{k:03d}.csv", _profile_csv(prof))
           for k, prof in enumerate(rays)))
    return EXIT_OK if all_pass else EXIT_VERIFY


_COMMANDS = {
    "envelope": _cmd_envelope,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "symmetry": _cmd_symmetry,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[cfg.command](cfg)
    # SpecFileError is a ValueError, so the input errors go first
    except (UsageError, SpecFileError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailure, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
