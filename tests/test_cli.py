import json
import os
import subprocess
import sys

import numpy as np
import pytest

import radrelax
from radrelax.cli import main
from radrelax.disc2d import DiscField
from radrelax.specfile import parse_spec, parse_spec_text

FAST = ["--grid-points", "128", "--multistarts", "4"]


def _half_slope_csv(path, nodes=65):
    r = np.linspace(0.0, 1.0, nodes)
    u = 0.5 * (1.0 - r)
    lines = ["# radrelax csv 1", "r,u,du_dr"]
    lines += [f"{float(ri)!r},{float(ui)!r},-0.5" for ri, ui in zip(r, u)]
    path.write_text("\n".join(lines) + "\n")


def _load(path):
    return json.loads(path.read_text())


def test_solve_report_structure(prototype_ini, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", prototype_ini, *FAST,
                 "--seed", "0", "--out", str(out)]) == 0
    rep = _load(out)
    assert rep["schema_version"] == 1
    assert rep["command"] == "solve"
    assert rep["seed"] == 0
    assert rep["spec"]["dimension"] == 2
    assert parse_spec_text(rep["spec"]["ini"]) == parse_spec(prototype_ini)
    res = rep["results"]
    assert res["relaxed_energy"] <= res["original_energy"] + 1e-12
    assert res["verify"]["overall"] is True
    # canonical JSON: sorted keys, two-space indent, trailing newline
    assert out.read_text() == json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_solve_writes_profile_csv(prototype_ini, tmp_path):
    prof = tmp_path / "prof.csv"
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", prototype_ini, *FAST,
                 "--out", str(out), "--profile-csv", str(prof)]) == 0
    lines = prof.read_text().splitlines()
    assert lines[0] == "# radrelax csv 1"
    assert lines[1] == "r,u,du_dr"
    assert len(lines) == 2 + 129
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == 0.0


def test_solve_csv_format_to_stdout(prototype_ini, capsys):
    assert main(["solve", "--spec", prototype_ini, *FAST,
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# radrelax csv 1"
    assert lines[1] == "r,u,du_dr"
    assert len(lines) == 2 + 129


def test_solve_deterministic_bytes(prototype_ini, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        prof = tmp_path / (name + ".csv")
        assert main(["solve", "--spec", prototype_ini, *FAST, "--seed", "42",
                     "--out", str(out), "--profile-csv", str(prof)]) == 0
        outs.append((out.read_bytes(), prof.read_bytes()))
    assert outs[0] == outs[1]


def test_solve_with_oracle_gap(prototype_ini, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", prototype_ini, *FAST, "--oracle",
                 "--u-levels", "150", "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["oracle"]["u_levels"] == 150
    assert res["oracle"]["relaxed_energy"] <= res["oracle"]["original_energy"]
    # descent on the fine grid must not trail the coarse reference
    assert res["oracle_gap"] <= 1e-3


def test_solve_oracle_on_zero_energy_problem(convex_ini, tmp_path):
    # the DP optimum is exactly 0 here, so the gap is taken absolutely
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", convex_ini, "--grid-points", "64",
                 "--oracle", "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["oracle"]["relaxed_energy"] == 0.0
    assert abs(res["oracle_gap"]) <= 1e-12


def test_solve_single_start_finds_the_minimizer(prototype_ini, tmp_path):
    # a lone start must not be the zero profile, a stationary point of
    # the prototype that once came back labelled converged
    energies = []
    for starts in ("1", "8"):
        out = tmp_path / f"rep{starts}.json"
        assert main(["solve", "--spec", prototype_ini, "--grid-points", "128",
                     "--multistarts", starts, "--out", str(out)]) == 0
        res = _load(out)["results"]
        assert res["converged"] is True
        energies.append(res["relaxed_energy"])
    assert abs(energies[0] - energies[1]) <= 1e-9


def test_multistarts_below_one_exits_1(prototype_ini, capsys):
    assert main(["solve", "--spec", prototype_ini, "--multistarts", "0"]) == 1
    assert "--multistarts" in capsys.readouterr().err


def test_grid_points_out_of_range_exits_1(prototype_ini, capsys):
    assert main(["solve", "--spec", prototype_ini, "--grid-points", "8"]) == 1
    assert "--grid-points" in capsys.readouterr().err
    assert main(["oracle", "--spec", prototype_ini,
                 "--grid-points", "500"]) == 1
    assert "--grid-points" in capsys.readouterr().err
    assert main(["symmetry", "--spec", prototype_ini,
                 "--grid-points", "8"]) == 1
    assert "--grid-points" in capsys.readouterr().err


def test_u_levels_out_of_range_exits_1(prototype_ini, capsys):
    assert main(["oracle", "--spec", prototype_ini, "--u-levels", "1"]) == 1
    assert "--u-levels" in capsys.readouterr().err


def test_rays_below_one_exits_1(prototype_ini, capsys):
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "0"]) == 1
    assert "--rays" in capsys.readouterr().err


def test_envelope_report(convex_ini, tmp_path):
    out = tmp_path / "env.json"
    assert main(["envelope", "--spec", convex_ini, "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["wcaffine_holds"] is True
    assert res["components"] == []
    assert res["M"] == 0.0


def test_envelope_csv(prototype_ini, capsys):
    assert main(["envelope", "--spec", prototype_ini, "--grid-points", "4097",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# radrelax csv 1"
    assert lines[1] == "t,w,envelope"
    assert len(lines) == 2 + 4097


def test_verify_pipeline_mode(m0_ini, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verify", "--spec", m0_ini, *FAST, "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["verify"]["overall"] is True
    assert res["warnings"] == []
    names = [r["name"] for r in res["verify"]["records"]]
    assert "detachment_avoidance" in names


def test_verify_profile_csv_round_trip(prototype_ini, tmp_path):
    prof = tmp_path / "prof.csv"
    solve_out = tmp_path / "solve.json"
    assert main(["solve", "--spec", prototype_ini, *FAST,
                 "--out", str(solve_out), "--profile-csv", str(prof)]) == 0
    verify_out = tmp_path / "verify.json"
    assert main(["verify", "--spec", prototype_ini, "--profile-csv", str(prof),
                 "--out", str(verify_out)]) == 0
    vres = _load(verify_out)["results"]
    sres = _load(solve_out)["results"]
    assert vres["verify"]["overall"] is True
    assert abs(vres["relaxed_energy"] - sres["relaxed_energy"]) <= 1e-12
    assert abs(vres["original_energy"] - sres["original_energy"]) <= 1e-12


def test_verify_failing_profile_exits_3(prototype_ini, tmp_path):
    prof = tmp_path / "flat.csv"
    _half_slope_csv(prof)
    out = tmp_path / "rep.json"
    assert main(["verify", "--spec", prototype_ini, "--profile-csv", str(prof),
                 "--out", str(out)]) == 3
    res = _load(out)["results"]
    assert res["verify"]["overall"] is False
    failed = {r["name"] for r in res["verify"]["records"] if not r["passed"]}
    assert "detachment_avoidance" in failed
    assert "slope_and_sign" in failed


def test_verify_rejects_malformed_profile(prototype_ini, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("r,u\n0.0,0.0\n1.0,0.0\n")
    assert main(["verify", "--spec", prototype_ini,
                 "--profile-csv", str(short)]) == 1
    assert "at least 17" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    _half_slope_csv(bad)
    text = bad.read_text().replace("-0.5", "-0.5").splitlines()
    text[10] = "oops," + text[10]
    bad.write_text("\n".join(text) + "\n")
    assert main(["verify", "--spec", prototype_ini,
                 "--profile-csv", str(bad)]) == 1
    assert "line 11" in capsys.readouterr().err
    wrong_end = tmp_path / "wrong.csv"
    r = np.linspace(0.0, 0.5, 33)
    wrong_end.write_text("r,u,du_dr\n" + "\n".join(
        f"{float(ri)!r},{float(0.5 - ri)!r},-1.0" for ri in r) + "\n")
    assert main(["verify", "--spec", prototype_ini,
                 "--profile-csv", str(wrong_end)]) == 1
    assert "radius" in capsys.readouterr().err


def test_oracle_subcommand(m0_ini, tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--spec", m0_ini, "--grid-points", "40",
                 "--u-levels", "60", "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["r_levels"] == 40
    assert res["u_levels"] == 60
    assert res["relaxed_energy"] <= res["original_energy"] + 1e-12


def test_symmetry_random_fields(prototype_ini, tmp_path):
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--grid-points", "65",
                 "--random-fields", "3", "--rays", "16", "--seed", "7",
                 "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["all_pass"] is True
    assert [f["field_seed"] for f in res["fields"]] == [7, 8, 9]
    for f in res["fields"]:
        assert f["passes"] is True
        assert len(f["per_theta_energies"]) == 16
        assert f["defect"] >= 0.0


def test_symmetry_field_csv(prototype_ini, tmp_path):
    fld = DiscField.from_function(
        lambda X, Y: 1.0 - np.sqrt(X * X + Y * Y), 65, 1.0)
    path = tmp_path / "cone.csv"
    fld.to_csv(str(path))
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "8",
                 "--field-csv", str(path), "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert len(res["fields"]) == 1
    assert res["fields"][0]["field_seed"] is None
    assert res["fields"][0]["defect"] <= 0.01


def test_symmetry_csv_needs_single_field(prototype_ini, capsys):
    assert main(["symmetry", "--spec", prototype_ini, "--grid-points", "65",
                 "--random-fields", "2", "--format", "csv"]) == 1
    assert "single field" in capsys.readouterr().err


def test_usage_errors_exit_1(prototype_ini, tmp_path, capsys):
    assert main(["solve", "--spec", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err
    assert main(["frobnicate", "--spec", prototype_ini]) == 1
    capsys.readouterr()
    assert main([]) == 1
    assert "subcommand is required" in capsys.readouterr().err
    assert main(["solve", "--spec", prototype_ini, "--seed", "-1"]) == 1
    assert "64 bits" in capsys.readouterr().err
    assert main(["solve", "--spec", prototype_ini,
                 "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_bad_ini_exits_1_with_line(prototype_ini, tmp_path, capsys):
    text = open(prototype_ini).read().replace("dimension = 2",
                                              "dimension = two")
    lineno = 1 + text.splitlines().index("dimension = two")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["solve", "--spec", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"bad.ini:{lineno}" in err
    assert "not an integer" in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "envelope" in capsys.readouterr().out


def test_numerical_failure_exits_2(prototype_ini, capsys):
    assert main(["envelope", "--spec", prototype_ini,
                 "--grid-points", "32"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_tight_corner_window_exits_2(prototype_ini, capsys):
    assert main(["verify", "--spec", prototype_ini, *FAST,
                 "--window", "0.02"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cold_start_loads_no_scipy(prototype_ini, tmp_path):
    # the command line and a polynomial envelope never touch scipy, so
    # start-up must not pay for importing it
    code = (
        "import json, sys\n"
        "from radrelax.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "after_import = scipy_modules()\n"
        f"rc = main(['envelope', '--spec', {prototype_ini!r}, "
        f"'--out', {str(tmp_path / 'env.json')!r}])\n"
        "print(json.dumps([rc, after_import, scipy_modules()]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(radrelax.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    rc, after_import, after_envelope = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0
    assert after_import == []
    assert after_envelope == []
