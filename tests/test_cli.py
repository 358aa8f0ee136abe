import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import radrelax
from radrelax import verify
from radrelax.cli import _read_field_csv, main, parse_args
from radrelax.disc2d import (DiscField, averaged_ray_energy_check,
                             colinearity_defect)
from radrelax.envelope import NumericalFailure
from radrelax.potentials import Potential1D, ProblemSpec
from radrelax.specfile import emit_spec_text, parse_spec, parse_spec_text

from conftest import (field_from_function, make_prototype_spec, three_well,
                      write_field_csv)
from corpus import CLI_MATRIX, cli_matrix_digests, matrix_digest
from oracles import loop_field_grid

FAST = ["--grid-points", "128"]


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
    assert rep["schema_version"] == 2
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
    # the gap is relative to the oracle's energy, whose size is not 1
    oracle = res["oracle"]["relaxed_energy"]
    assert abs(oracle) != 1.0
    assert res["oracle_gap"] == (res["relaxed_energy"] - oracle) / abs(oracle)


def test_solve_oracle_on_zero_energy_problem(convex_ini, tmp_path):
    # the DP optimum is exactly 0 here, so the gap is taken absolutely
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", convex_ini, "--grid-points", "64",
                 "--oracle", "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["oracle"]["relaxed_energy"] == 0.0
    assert abs(res["oracle_gap"]) <= 1e-12


def test_solve_single_start_finds_the_minimizer(prototype_ini, tmp_path):
    # no start may be the zero profile, a stationary point of the
    # prototype that once came back labelled converged
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", prototype_ini, "--grid-points", "128",
                 "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["converged"] is True
    assert any(res["profile"]["u"])


def test_solve_results_do_not_depend_on_seed(prototype_ini, tmp_path):
    # the descent starts are deterministic; solve only echoes --seed
    reports = []
    for seed in ("0", "5"):
        out = tmp_path / f"rep{seed}.json"
        assert main(["solve", "--spec", prototype_ini, *FAST,
                     "--seed", seed, "--out", str(out)]) == 0
        reports.append(_load(out))
    assert [rep["seed"] for rep in reports] == [0, 5]
    assert reports[0]["results"] == reports[1]["results"]


def test_multistarts_flag_is_unknown(prototype_ini, capsys):
    assert main(["solve", "--spec", prototype_ini, "--multistarts", "4"]) == 1
    assert "unrecognized arguments: --multistarts 4" in capsys.readouterr().err


def test_grid_points_out_of_range_exits_1(prototype_ini, capsys):
    # envelope below 64 points is a usage error, not a numerical failure
    assert main(["envelope", "--spec", prototype_ini,
                 "--grid-points", "32"]) == 1
    err = capsys.readouterr().err
    assert "--grid-points must be at least 64" in err
    assert "numerical failure" not in err
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


@pytest.mark.parametrize("command, flag, lo, hi, message", [
    ("oracle", "--grid-points", 16, 200,
     "--grid-points must lie in [16, 200] for oracle"),
    ("oracle", "--u-levels", 2, 400, "--u-levels must lie in [2, 400]"),
    ("solve", "--u-levels", 2, 400, "--u-levels must lie in [2, 400]"),
])
def test_dp_flag_bounds_are_inclusive(prototype_ini, capsys, command, flag,
                                      lo, hi, message):
    # the bounds themselves parse (checked by parse_args alone, with no DP
    # run); one past either bound exits 1 with the message
    dest = flag[2:].replace("-", "_")
    for value in (lo, hi):
        cfg = parse_args([command, "--spec", prototype_ini, flag, str(value)])
        assert getattr(cfg, dest) == value
    for value in (lo - 1, hi + 1):
        assert main([command, "--spec", prototype_ini, flag, str(value)]) == 1
        assert message in capsys.readouterr().err


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


def test_seed_bound_is_two_to_the_64(convex_ini, tmp_path, capsys):
    # the largest 64-bit seed is accepted and echoed; one more is a usage
    # error, with nothing written
    out = tmp_path / "env.json"
    top = 2 ** 64 - 1
    assert main(["envelope", "--spec", convex_ini, "--seed", str(top),
                 "--out", str(out)]) == 0
    assert _load(out)["seed"] == top
    out.unlink()
    assert main(["envelope", "--spec", convex_ini, "--seed", str(top + 1),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "--seed must fit in 64 bits\n"
    assert not out.exists()


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


def test_verify_profile_csv_round_trip(prototype_ini, m0_ini, tmp_path):
    # one path prices and checks a profile, so the solved profile read
    # back from its CSV gets the same energies and checks, bit for bit
    for spec in (prototype_ini, m0_ini):
        prof = tmp_path / "prof.csv"
        solve_out = tmp_path / "solve.json"
        assert main(["solve", "--spec", spec, *FAST,
                     "--out", str(solve_out), "--profile-csv", str(prof)]) == 0
        verify_out = tmp_path / "verify.json"
        assert main(["verify", "--spec", spec, "--profile-csv", str(prof),
                     "--out", str(verify_out)]) == 0
        vres = _load(verify_out)["results"]
        sres = _load(solve_out)["results"]
        assert vres["verify"]["overall"] is True
        assert vres["relaxed_energy"] == sres["relaxed_energy"]
        assert vres["original_energy"] == sres["original_energy"]
        assert vres["verify"] == sres["verify"]


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


def test_verify_rejects_profile_off_the_spec_radius(prototype_ini, tmp_path,
                                                    capsys):
    # the reader and the quadrature share one end-radius bound, so a last
    # node the reader accepts is never refused later as a numerical failure
    prof = tmp_path / "long.csv"
    r = np.linspace(0.0, 1.0, 65)
    r[-1] = 1.0 + 1e-10
    prof.write_text("r,u\n" + "\n".join(
        f"{float(ri)!r},{float(1.0 - ri)!r}" for ri in r) + "\n")
    assert main(["verify", "--spec", prototype_ini,
                 "--profile-csv", str(prof)]) == 1
    err = capsys.readouterr().err
    assert "radius" in err
    assert "numerical failure" not in err


def test_verify_rejects_profile_not_ending_at_zero(prototype_ini, tmp_path,
                                                  capsys):
    # a profile is pinned to u(R) = 0, so one that ends elsewhere would be
    # replaced by a different profile before it is checked
    prof = tmp_path / "lifted.csv"
    r = np.linspace(0.0, 1.0, 257)
    prof.write_text("r,u\n" + "\n".join(
        f"{float(ri)!r},{float(1.5 - ri)!r}" for ri in r) + "\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "--spec", prototype_ini, "--profile-csv", str(prof),
                 "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"{prof}: line 258: profile must end at u = 0, got 0.5\n")
    assert not out.exists()


# u = 1e300 is finite, but W and G overflow on it, and a report of its
# price would carry NaN, which is not JSON
@pytest.mark.parametrize("token,where", [
    pytest.param("nan", "line 13", id="nan"),
    pytest.param("inf", "line 13", id="inf"),
    pytest.param("1e300", "W or G", id="overflow")])
def test_verify_rejects_non_finite_profile(token, where, prototype_ini,
                                           tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    _half_slope_csv(prof)
    lines = prof.read_text().splitlines()
    r, _, du = lines[12].split(",")
    lines[12] = f"{r},{token},{du}"
    prof.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "--spec", prototype_ini, "--profile-csv", str(prof),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert where in captured.err
    assert "finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--window", "nan"), ("--window", "-1"), ("--window", "0"),
    ("--window", "inf"), ("--tol-corner", "nan"), ("--tol-corner", "-1"),
    ("--tol-corner", "inf")])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_bad_corner_fit_flags_exit_1(command, flag, value, prototype_ini,
                                     capsys):
    assert main([command, "--spec", prototype_ini, *FAST, flag, value]) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "numerical failure" not in err


def test_infinite_corner_fit_flags_exit_1(prototype_ini, tmp_path, capsys):
    # the corner record echoes both values, and JSON cannot hold inf; a
    # finite window of R or more already takes every cell
    out = tmp_path / "rep.json"
    for command in ("solve", "verify"):
        for flag, want in (("--window", "positive"),
                           ("--tol-corner", "nonnegative")):
            assert main([command, "--spec", prototype_ini, flag, "inf",
                         "--out", str(out)]) == 1
            assert (capsys.readouterr().err
                    == f"{flag} must be {want} and finite\n")
            assert not out.exists()


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
    # every field is priced on one geometry, as the public calls price it
    # on their own
    spec = make_prototype_spec()
    for k, f in enumerate(res["fields"]):
        fld = DiscField.random_smooth(65, 1.0, 7 + k)
        rep = averaged_ray_energy_check(fld, spec, n_thetas=16)
        assert f == {**rep.to_dict(), "defect": colinearity_defect(fld),
                     "field_seed": 7 + k}
        assert f["passes"] is True


def test_symmetry_field_csv(prototype_ini, tmp_path):
    fld = field_from_function(
        lambda X, Y: 1.0 - np.sqrt(X * X + Y * Y), 65, 1.0)
    path = tmp_path / "cone.csv"
    write_field_csv(fld, str(path))
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "8",
                 "--field-csv", str(path), "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert len(res["fields"]) == 1
    assert res["fields"][0]["field_seed"] is None
    assert res["fields"][0]["defect"] <= 0.01


def _no_ray_work(*args, **kwargs):
    raise AssertionError("rays priced before the input was checked")


def test_symmetry_rejects_3d_spec_before_ray_work(prototype_ini, tmp_path,
                                                  monkeypatch, capsys):
    spec3 = tmp_path / "d3.ini"
    spec3.write_text(open(prototype_ini).read().replace("dimension = 2",
                                                        "dimension = 3"))
    monkeypatch.setattr("radrelax.disc2d._ray_check", _no_ray_work)
    assert main(["symmetry", "--spec", str(spec3), "--grid-points", "33",
                 "--rays", "4"]) == 1
    err = capsys.readouterr().err
    assert "d3.ini: symmetry needs a spec of dimension 2, got 3" in err
    assert "numerical failure" not in err


def test_symmetry_rejects_field_radius_mismatch(prototype_ini, tmp_path,
                                                monkeypatch, capsys):
    path = tmp_path / "r2.csv"
    write_field_csv(DiscField.random_smooth(33, 2.0, seed=1), str(path))
    monkeypatch.setattr("radrelax.disc2d._ray_check", _no_ray_work)
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "4",
                 "--field-csv", str(path)]) == 1
    err = capsys.readouterr().err
    assert "r2.csv: field radius 2.0 does not match spec radius 1.0" in err
    assert "numerical failure" not in err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_symmetry_rejects_non_finite_field_csv(prototype_ini, tmp_path,
                                               token, capsys):
    path = tmp_path / "field.csv"
    write_field_csv(DiscField.random_smooth(33, 1.0, seed=1), str(path))
    lines = path.read_text().splitlines()
    x, y, _ = lines[300].split(",")
    lines[300] = f"{x},{y},{token}"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "4",
                 "--field-csv", str(path), "--out", str(out)]) == 1
    assert "field.csv: line 301: x, y and u must be finite" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unpriceable_field_exits_1_writing_no_file(prototype_ini, tmp_path,
                                                   capsys, fmt):
    # u = 1e200 inside r < 0.5 is finite, but W and G overflow on it; the
    # reader prices the field and refuses it, naming the CSV, before the
    # output or any per-ray CSV is written, and no RuntimeWarning escapes
    path = tmp_path / "field.csv"
    write_field_csv(field_from_function(
        lambda X, Y: np.where(X * X + Y * Y < 0.25, 1e200, 0.0), 33, 1.0),
        str(path))
    out = tmp_path / "sym.out"
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "4",
                 "--field-csv", str(path), "--profile-csv",
                 str(tmp_path / "ray_"), "--format", fmt,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"{path}: W or G is not finite on this field\n")
    assert not out.exists()
    assert not list(tmp_path.glob("ray*.csv"))


def _prototype_of_radius(radius):
    return dataclasses.replace(make_prototype_spec(), radius=radius)


def test_field_csv_round_trip(tmp_path):
    fld = DiscField.random_smooth(33, 1.5, seed=9)
    path = str(tmp_path / "field.csv")
    write_field_csv(fld, path)
    back, geo = _read_field_csv(path, _prototype_of_radius(1.5))
    assert (geo.n, geo.radius) == (fld.n, fld.radius)
    assert back.n == fld.n
    assert back.radius == fld.radius
    assert np.array_equal(back.values, fld.values)


def test_field_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("r,u,du\n0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        _read_field_csv(str(bad_header), _prototype_of_radius(1.0))
    not_square = tmp_path / "b.csv"
    not_square.write_text("x,y,u\n0.0,0.0,1.0\n1.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="square"):
        _read_field_csv(str(not_square), _prototype_of_radius(1.0))
    bad_value = tmp_path / "c.csv"
    bad_value.write_text("x,y,u\n0.0,0.0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        _read_field_csv(str(bad_value), _prototype_of_radius(1.0))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_field_csv_rejects_non_finite_values(tmp_path, token):
    path = tmp_path / "field.csv"
    write_field_csv(DiscField.random_smooth(33, 1.0, seed=1), str(path))
    lines = path.read_text().splitlines()
    x, y, _ = lines[500].split(",")
    lines[500] = f"{x},{y},{token}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 501: .*finite"):
        _read_field_csv(str(path), _prototype_of_radius(1.0))


def test_field_csv_places_nodes_as_the_row_loop(tmp_path):
    # the array placement reads every node where the row-by-row loop put
    # it, in any row order and up to the reader's 1e-9 R snap, and rejects
    # the tables the loop rejects
    rng = np.random.default_rng(3)
    path = tmp_path / "field.csv"
    for n, radius in ((33, 1.0), (65, 1.5), (33, 0.7)):
        spec = _prototype_of_radius(radius)
        fld = DiscField.random_smooth(n, radius, seed=n)
        x, vals = fld.coords.tolist(), fld.values.tolist()
        rows = [[x[i], x[j], vals[i][j]] for i in range(n) for j in range(n)]
        rng.shuffle(rows)
        for shift in (0.0, 3e-10, 3e-9):
            # every row but the extreme x ones (which set R) moves in y
            moved = [[px, py + shift * radius * float(rng.choice((-1, 1))), u]
                     if abs(px) < radius else [px, py, u]
                     for px, py, u in rows]
            path.write_text("x,y,u\n" + "".join(
                f"{px!r},{py!r},{u!r}\n" for px, py, u in moved))
            ref = loop_field_grid(moved)
            assert (ref is None) == (shift > 1e-9)
            if ref is None:
                with pytest.raises(ValueError, match="off the grid"):
                    _read_field_csv(str(path), spec)
            else:
                back, _ = _read_field_csv(str(path), spec)
                assert (back.n, back.radius) == ref[:2]
                assert (back.values.tobytes()
                        == DiscField(*ref).values.tobytes())


def _edit_line(lineno, edit):
    # lines -> lines with line ``lineno`` (1-based) replaced by
    # edit(its cells)
    def apply(lines):
        cells = lines[lineno - 1].split(",")
        return lines[:lineno - 1] + [edit(cells)] + lines[lineno:]
    return apply


def _text(text):
    return lambda lines: text.splitlines()


# node (16, 16) of a 33-node field, x = y = 0.0, is on line 546
_CENTRE = 2 + 16 * 33 + 16

# (table edit, message) per reader error: the field edits take the lines
# of a 33-node field at radius 1.0, the profile edits those of
# _half_slope_csv, whose node k is on line k + 3
_FIELD_ERRORS = {
    "bad_header": (_text("a,b,c\n0,0,0"), "{p}: expected header x,y,u"),
    "short_row": (_edit_line(40, lambda c: f"{c[0]},{c[1]}"),
                  "{p}: line 40: need x,y,u columns"),
    "non_number": (_edit_line(40, lambda c: f"{c[0]},{c[1]},oops"),
                   "{p}: line 40: could not convert string to float: 'oops'"),
    "non_finite": (_edit_line(40, lambda c: f"inf,{c[1]},{c[2]}"),
                   "{p}: line 40: x, y and u must be finite"),
    "not_square": (lambda lines: lines[:-1], "{p}: 1088 rows is not a square grid"),
    "degenerate": (_text("x,y,u\n0.0,0.0,1.0"), "{p}: degenerate grid"),
    "one_node": (_text("x,y,u\n0.5,0.5,1.0"), "{p}: degenerate grid"),
    "header_only": (_text("x,y,u"), "{p}: no nodes after the header"),
    "small_grid": (_text("x,y,u\n" + "\n".join(
        f"{x},{y},0.0" for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0))),
        "{p}: grid size must be odd and at least 33"),
    "off_grid": (_edit_line(_CENTRE, lambda c: f"0.001,{c[1]},{c[2]}"),
                 "{p}: node (0.001, 0.0) off the grid"),
    "far_node": (_edit_line(_CENTRE, lambda c: f"{c[0]},1e308,{c[2]}"),
                 "{p}: node (0.0, 1e+308) off the grid"),
    "missing_node": (lambda lines: lines[:-1] + [lines[-2]],
                     "{p}: grid has missing nodes"),
    "radius": (lambda lines: [lines[0]] + [
        f"{2 * float(x)!r},{2 * float(y)!r},{u}"
        for x, y, u in (line.split(",") for line in lines[1:])],
        "{p}: field radius 2.0 does not match spec radius 1.0"),
}
_PROFILE_ERRORS = {
    "short_row": (_edit_line(13, lambda c: c[0]), "{p}: line 13: need r,u columns"),
    "non_number": (_edit_line(13, lambda c: f"{c[0]},oops"),
                   "{p}: line 13: could not convert string to float: 'oops'"),
    "non_finite": (_edit_line(13, lambda c: f"{c[0]},nan"),
                   "{p}: line 13: r and u must be finite"),
    "later_header": (_edit_line(13, lambda c: "r,u"),
                     "{p}: line 13: could not convert string to float: 'r'"),
    "few_nodes": (lambda lines: lines[:18], "{p}: profile needs at least 17 nodes"),
    "radius": (lambda lines: lines[:-1], "{p}: profile ends at r = 0.984375, "
               "spec radius is 1.0"),
    "end_value": (_edit_line(67, lambda c: f"{c[0]},0.5"),
                  "{p}: line 67: profile must end at u = 0, got 0.5"),
    "first_node": (_edit_line(3, lambda c: f"0.001,{c[1]}"),
                   "{p}: first node must be exactly 0"),
    "not_increasing": (_edit_line(13, lambda c: f"0.5,{c[1]}"),
                       "{p}: nodes must be strictly increasing"),
    "overflow": (_edit_line(13, lambda c: f"{c[0]},1e300"),
                 "{p}: W or G is not finite on this profile"),
}


@pytest.mark.parametrize("table,case", [
    *(("field", case) for case in _FIELD_ERRORS),
    *(("profile", case) for case in _PROFILE_ERRORS)])
def test_csv_reader_messages(table, case, prototype_ini, tmp_path,
                             monkeypatch, capsys):
    # every reader error exits 1 with its message alone, before any ray
    # or check is computed
    path = tmp_path / "table.csv"
    if table == "field":
        write_field_csv(DiscField.random_smooth(33, 1.0, seed=1), str(path))
        edit, message = _FIELD_ERRORS[case]
        argv = ["symmetry", "--rays", "4", "--field-csv", str(path)]
    else:
        _half_slope_csv(path)
        edit, message = _PROFILE_ERRORS[case]
        argv = ["verify", "--profile-csv", str(path)]
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    monkeypatch.setattr("radrelax.disc2d._ray_check", _no_ray_work)
    monkeypatch.setattr("radrelax.verify.full_report", _no_ray_work)
    out = tmp_path / "rep.json"
    assert main(argv + ["--spec", prototype_ini, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message.format(p=path) + "\n"
    assert not out.exists()


def test_field_csv_skips_comment_and_blank_lines(prototype_ini, tmp_path):
    # the field table reads the dialect the CLI writes, under a
    # ``# radrelax csv 1`` line, as the profile table does
    plain = tmp_path / "plain.csv"
    write_field_csv(DiscField.random_smooth(33, 1.0, seed=1), str(plain))
    marked = tmp_path / "marked.csv"
    marked.write_text("# radrelax csv 1\n\n" + plain.read_text())
    reports = []
    for path in (plain, marked):
        out = tmp_path / f"{path.stem}.json"
        code = main(["symmetry", "--spec", prototype_ini, "--rays", "4",
                     "--field-csv", str(path), "--out", str(out)])
        reports.append((code, out.read_text()))
    assert reports[0][0] in (0, 3)
    assert reports[0] == reports[1]


def test_profile_csv_header_is_optional(prototype_ini, tmp_path):
    headed = tmp_path / "headed.csv"
    _half_slope_csv(headed)
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(headed.read_text().splitlines()[2:]) + "\n")
    reports = []
    for path in (headed, bare):
        out = tmp_path / f"{path.stem}.json"
        code = main(["verify", "--spec", prototype_ini,
                     "--profile-csv", str(path), "--out", str(out)])
        reports.append((code, out.read_text()))
    assert reports[0][0] == 3
    assert reports[0] == reports[1]


def test_symmetry_csv_needs_single_field(prototype_ini, capsys):
    assert main(["symmetry", "--spec", prototype_ini, "--grid-points", "65",
                 "--random-fields", "2", "--format", "csv"]) == 1
    assert "single field" in capsys.readouterr().err


def test_symmetry_csv_rejects_many_fields_before_ray_work(prototype_ini,
                                                         monkeypatch, capsys):
    monkeypatch.setattr("radrelax.disc2d._ray_check", _no_ray_work)
    assert main(["symmetry", "--spec", prototype_ini, "--grid-points", "65",
                 "--random-fields", "2", "--format", "csv"]) == 1
    assert "csv format needs a single field" in capsys.readouterr().err


def test_symmetry_profile_csv_needs_single_field(prototype_ini, tmp_path,
                                                monkeypatch, capsys):
    # per-ray CSVs are written for one field only, so asking for them with
    # several fields is a usage error, not a silent skip
    monkeypatch.setattr("radrelax.disc2d._ray_check", _no_ray_work)
    prefix = str(tmp_path / "p_")
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--grid-points", "33",
                 "--random-fields", "2", "--profile-csv", prefix,
                 "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == "--profile-csv needs a single field\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("fields", ["0", "2", "3"])
def test_symmetry_field_csv_rejects_random_fields(prototype_ini, tmp_path,
                                                  monkeypatch, capsys, fields):
    # --field-csv prices the one field it reads, so asking for several
    # random fields with it is a usage error, not a one-field report
    path = tmp_path / "field.csv"
    write_field_csv(DiscField.random_smooth(33, 1.0, seed=1), str(path))
    monkeypatch.setattr("radrelax.disc2d._ray_check", _no_ray_work)
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "4",
                 "--field-csv", str(path), "--random-fields", fields,
                 "--out", str(out)]) == 1
    want = ("--random-fields must be at least 1\n" if fields == "0" else
            "--field-csv is a single field; --random-fields must be 1\n")
    assert capsys.readouterr().err == want
    assert not out.exists()


@pytest.mark.parametrize("flag, value, want", [
    ("--grid-points", "257", "--field-csv fixes the grid; --grid-points must be 129"),
    ("--seed", "5", "--field-csv is not seeded; --seed must be 0"),
])
def test_symmetry_field_csv_rejects_grid_points_and_seed(
        prototype_ini, tmp_path, monkeypatch, capsys, flag, value, want):
    # the field read fixes its grid and was made by no seed, so these
    # flags would be ignored, and --seed echoed for a field it did not make
    path = tmp_path / "field.csv"
    write_field_csv(DiscField.random_smooth(65, 1.0, seed=1), str(path))
    monkeypatch.setattr("radrelax.disc2d._ray_check", _no_ray_work)
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "4",
                 "--field-csv", str(path), flag, value,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == want + "\n"
    assert not out.exists()


def test_symmetry_field_csv_accepts_default_grid_points_and_seed(
        prototype_ini, tmp_path):
    path = tmp_path / "field.csv"
    write_field_csv(DiscField.random_smooth(65, 1.0, seed=1), str(path))
    out = tmp_path / "sym.json"
    assert main(["symmetry", "--spec", prototype_ini, "--rays", "4",
                 "--field-csv", str(path), "--grid-points", "129",
                 "--seed", "0", "--out", str(out)]) == 0
    assert _load(out)["seed"] == 0


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_dimension_too_large_for_first_cell_exits_2(
        command, prototype_ini, tmp_path, capsys, capped_solves):
    # at 256 cells the first node's lumped mass underflows to 0 from
    # N = 105 on; descent used to spin on a NaN Levenberg shift
    bad = tmp_path / "d105.ini"
    bad.write_text(open(prototype_ini).read().replace("dimension = 2",
                                                      "dimension = 105"))
    out = tmp_path / "rep.json"
    assert main([command, "--spec", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: dimension 105 is too large for 256 cells: "
        "the lumped mass of the first node underflows to 0\n")
    assert not out.exists()
    assert main(["oracle", "--spec", str(bad), "--out", str(out)]) == 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_unbounded_energy_exits_2(tmp_path, capsys):
    # G = -20 u^4 outgrows W = (t^2 - 1)^2: descent reaches an energy of
    # -inf, which solve reported as converged in a report that was not
    # JSON (-Infinity)
    spec = ProblemSpec(dimension=2, radius=1.0, p=4.0,
                       W=Potential1D(kind="poly_in_t_squared",
                                     coefficients=(1.0, -2.0, 1.0)),
                       G=Potential1D(kind="poly_in_t_squared",
                                     coefficients=(0.0, 0.0, -20.0)),
                       shape_flag="none")
    path = tmp_path / "unbounded.ini"
    path.write_text(emit_spec_text(spec))
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", str(path), "--grid-points", "64",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: descent diverged: the relaxed "
                          "energy is -inf after ")
    assert not out.exists()


def test_usage_errors_exit_1(prototype_ini, tmp_path, capsys):
    assert main(["solve", "--spec", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err
    assert main(["frobnicate", "--spec", prototype_ini]) == 1
    capsys.readouterr()
    assert main([]) == 1
    assert "subcommand is required" in capsys.readouterr().err
    assert main(["solve", "--spec", prototype_ini, "--seed", "-1"]) == 1
    assert "64 bits" in capsys.readouterr().err
    # the last field's seed must be one --seed accepts
    top = str(2 ** 64 - 1)
    assert main(["symmetry", "--spec", prototype_ini, "--seed", top,
                 "--random-fields", "2"]) == 1
    assert capsys.readouterr().err == (
        "--seed + --random-fields - 1 must fit in 64 bits\n")
    assert main(["solve", "--spec", prototype_ini,
                 "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 1
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing_dir", "missing_file"])
def test_verify_missing_profile_csv_exits_1(prototype_ini, tmp_path, capsys,
                                            where):
    # verify reads --profile-csv, so a missing one is an input not found,
    # whether or not its directory exists
    path = str(tmp_path / "no" / "x.csv" if where == "missing_dir"
               else tmp_path / "missing.csv")
    assert main(["verify", "--spec", prototype_ini,
                 "--profile-csv", path]) == 1
    assert capsys.readouterr().err == f"profile CSV not found: {path}\n"


@pytest.mark.parametrize("command", ["solve", "oracle", "symmetry"])
def test_profile_csv_output_directory_checked(prototype_ini, tmp_path, capsys,
                                              command):
    # the other commands write --profile-csv: its directory must exist
    missing = tmp_path / "no"
    assert main([command, "--spec", prototype_ini,
                 "--profile-csv", str(missing / "x.csv")]) == 1
    assert (capsys.readouterr().err
            == f"output directory does not exist: {missing}\n")


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


@pytest.mark.parametrize("old,new,cited,message", [
    ("shape = G2\n", "shape = G2\n[growth]\nrho = 2.0\n", "[growth]",
     "unknown section [growth]"),
    ("p = 4.0", "p = inf", "p = inf", "p: not finite"),
], ids=["growth", "p_inf"])
def test_rejected_spec_exits_1_with_line(prototype_ini, tmp_path, capsys,
                                         old, new, cited, message):
    # a [growth] section and a non-finite number are parse errors
    text = open(prototype_ini).read().replace(old, new)
    lineno = 1 + text.splitlines().index(cited)
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    out = tmp_path / "rep.json"
    assert main(["solve", "--spec", str(bad), *FAST, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"{bad}:{lineno}: {message}")
    assert not out.exists()


def test_p_other_than_w_degree_exits_1_citing_its_line(prototype_ini, tmp_path,
                                                       capsys):
    # the prototype's W is quartic, so p = 2.0 (line 4) is a parse error
    bad = tmp_path / "p2.ini"
    bad.write_text(open(prototype_ini).read().replace("p = 4.0", "p = 2.0"))
    assert main(["envelope", "--spec", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(
        f"{bad}:4: p = 2.0 is not W's growth exponent, its degree in t (4)")


@pytest.mark.parametrize("command", ["envelope", "solve", "oracle", "verify",
                                     "symmetry"])
@pytest.mark.parametrize("coeffs", ["1.0, -2.0, -1.0", "1.0; 1.0, 0.0, -1.0; 1.0"])
def test_non_coercive_w_exits_1_citing_its_line(prototype_ini, tmp_path, capsys,
                                                command, coeffs):
    # a W that does not rise at infinity is a parse error of its coeffs line
    text = open(prototype_ini).read().replace(
        "coeffs = 1.0, -2.0, 1.0", f"coeffs = {coeffs}")
    if ";" in coeffs:
        text = text.replace("kind = poly_in_t_squared\n",
                            "kind = piecewise_poly\nbreakpoints = -1.0, 1.0\n", 1)
    lineno = 1 + text.splitlines().index(f"coeffs = {coeffs}")
    bad = tmp_path / "falling.ini"
    bad.write_text(text)
    assert main([command, "--spec", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:{lineno}: [W]: potential is not coercive")
    assert "numerical failure" not in err


def test_symmetry_csv_angles_are_the_priced_rays(prototype_ini, tmp_path,
                                                 capsys):
    # at 100 rays 2 pi k / n and k (2 pi / n) differ in the last bit for
    # half the k; the theta column and each per-ray profile must be those
    # of the ray the check priced
    from radrelax.radial_solver import RadialGrid, RadialProfile, energy_reduced

    rays = 100
    prefix = str(tmp_path / "p_")
    assert main(["symmetry", "--spec", prototype_ini, "--grid-points", "33",
                 "--rays", str(rays), "--format", "csv",
                 "--profile-csv", prefix]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    thetas = [float(t) for t, _ in rows]
    assert thetas == list(np.arange(rays) * (2.0 * np.pi / rays))
    spec = parse_spec(prototype_ini)
    for k, (_, energy) in enumerate(rows):
        lines = open(f"{prefix}ray{k:03d}.csv").read().splitlines()[2:]
        r, u = np.array([[float(v) for v in line.split(",")[:2]]
                         for line in lines]).T
        priced = energy_reduced(RadialProfile(RadialGrid(r), u), spec,
                                use_envelope=True)
        assert float(energy) == priced, k


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "envelope" in capsys.readouterr().out


_HELP = {
    "envelope": (4097, None),
    "solve": (256, "also write the profile as CSV"),
    "verify": (256, "check this r,u profile CSV"),
    "oracle": (100, "also write the oracle profile as CSV"),
    "symmetry": (129, "prefix for per-ray CSVs"),
}


@pytest.mark.parametrize("command", list(_HELP))
def test_help_gives_each_default_once(command, capsys):
    grid, csv_help = _HELP[command]
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    # argparse wraps help lines; judge the text as one line
    flat = " ".join(text.split())
    assert "(default: stdout) (default:" not in flat
    assert "(default: 0.2 R) (default:" not in flat
    assert "(default: None)" not in flat
    assert f"grid resolution (default: {grid})" in flat
    assert "--spec SPEC problem spec file (INI)" in flat
    if csv_help is None:
        assert "--profile-csv" not in flat
    else:
        after = flat.split("--profile-csv PROFILE_CSV")[-1]
        assert after.startswith(f" {csv_help}")


_DEFAULTS = {
    "envelope": {"grid_points": 4097},
    "solve": {"grid_points": 256, "window": None, "tol_corner": 0.05,
              "profile_csv": None, "oracle": False, "u_levels": 200},
    "verify": {"grid_points": 256, "window": None, "tol_corner": 0.05,
               "profile_csv": None},
    "oracle": {"grid_points": 100, "u_levels": 200, "profile_csv": None},
    "symmetry": {"grid_points": 129, "rays": 64, "field_csv": None,
                 "random_fields": 1, "profile_csv": None},
}


@pytest.mark.parametrize("command", list(_DEFAULTS))
def test_parsed_defaults(command, prototype_ini):
    # the parser holds the only copy of each default, and a subcommand
    # gets exactly the flags it defines
    cfg = parse_args([command, "--spec", prototype_ini])
    assert vars(cfg) == {"command": command, "spec": prototype_ini, "seed": 0,
                         "out": None, "fmt": "json", **_DEFAULTS[command]}


def test_numerical_failure_exits_2(prototype_ini, monkeypatch, capsys):
    # a tangency that fails its checks is a numerical failure, not a usage
    # error; no valid spec is known to trip one, so the envelope raises it
    def _failing_convexify(W, grid_points):
        raise NumericalFailure("tangency near [-1, 1]: slope residual 1")

    monkeypatch.setattr("radrelax.cli.convexify", _failing_convexify)
    assert main(["envelope", "--spec", prototype_ini]) == 2
    assert (capsys.readouterr().err
            == "numerical failure: tangency near [-1, 1]: slope residual 1\n")


def test_non_finite_report_value_exits_2(prototype_ini, tmp_path,
                                         monkeypatch, capsys):
    # a NaN would be written as a NaN token, which is not JSON; the report
    # is refused before any file, the profile CSV included, is written
    from radrelax.radial_solver import SolveReport

    to_dict = SolveReport.to_dict

    def nan_energy(self):
        return {**to_dict(self), "relaxed_energy": math.nan}

    monkeypatch.setattr(SolveReport, "to_dict", nan_energy)
    out, prof = tmp_path / "rep.json", tmp_path / "prof.csv"
    assert main(["solve", "--spec", prototype_ini, "--grid-points", "64",
                 "--out", str(out), "--profile-csv", str(prof)]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: Out of range float values are not JSON compliant")
    assert os.listdir(tmp_path) == []


def _no_descent(*args, **kwargs):
    raise AssertionError("descent ran before the corner window was checked")


def test_tight_corner_window_exits_1(prototype_ini, monkeypatch, capsys):
    monkeypatch.setattr("radrelax.radial_solver.solve_pipeline", _no_descent)
    assert main(["verify", "--spec", prototype_ini, *FAST,
                 "--window", "0.02"]) == 1
    assert (capsys.readouterr().err
            == "corner window 0.02 holds 3 cells; need at least 8\n")


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("cells,held", [("16", 3), ("32", 6), ("37", 7)])
def test_coarse_grid_default_window_exits_1_before_descent(
        command, cells, held, prototype_ini, monkeypatch, capsys):
    # the default window 0.2 R holds 8 cells from 38 cells on
    monkeypatch.setattr("radrelax.radial_solver.solve_pipeline", _no_descent)
    assert main([command, "--spec", prototype_ini,
                 "--grid-points", cells]) == 1
    assert (capsys.readouterr().err
            == f"corner window 0.2 holds {held} cells; need at least 8\n")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_coarse_grid_default_window_of_8_cells_exits_0(command, prototype_ini,
                                                       tmp_path):
    # at 38 cells the default window holds exactly the 8 cells the corner
    # fit needs
    out = tmp_path / "rep.json"
    assert main([command, "--spec", prototype_ini, "--grid-points", "38",
                 "--out", str(out)]) == 0
    records = json.loads(out.read_text())["results"]["verify"]["records"]
    corner, = (r for r in records if r["name"] == "corner_condition")
    assert corner["details"]["cells"] == 8


def test_coarse_grid_with_wide_window_exits_0(prototype_ini, capsys):
    assert main(["solve", "--spec", prototype_ini, "--grid-points", "16",
                 "--window", "0.6"]) == 0


def test_coarse_profile_csv_exits_1_before_checks(prototype_ini, tmp_path,
                                                   monkeypatch, capsys):
    def _no_checks(*args, **kwargs):
        raise AssertionError("checks ran before the corner window was checked")

    path = tmp_path / "prof17.csv"
    _half_slope_csv(path, nodes=17)
    monkeypatch.setattr("radrelax.verify.full_report", _no_checks)
    assert main(["verify", "--spec", prototype_ini,
                 "--profile-csv", str(path)]) == 1
    assert (capsys.readouterr().err
            == f"{path}: corner window 0.2 holds 3 cells; need at least 8\n")


@pytest.mark.parametrize("command", ["envelope", "solve", "oracle", "verify",
                                     "symmetry"])
def test_dimension_with_overflowing_sphere_area_exits_1(
        command, prototype_ini, tmp_path, capsys):
    bad = tmp_path / "d344.ini"
    bad.write_text(open(prototype_ini).read().replace("dimension = 2",
                                                      "dimension = 344"))
    out = tmp_path / "rep.json"
    assert main([command, "--spec", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"{bad}: dimension 344 is too large")
    assert not out.exists()


_CORE = ["cli", "envelope", "potentials", "specfile"]


def test_renamed_package_copy_loads_no_radrelax_module(tmp_path):
    # every import between the package's modules is relative, so a copy
    # under another name, beside the original on the path, runs only its
    # own modules: two trees can be loaded into one process
    shutil.copytree(os.path.dirname(radrelax.__file__), tmp_path / "radrelax_b",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        "import json, sys\n"
        "import radrelax_b.cli, radrelax_b.verify, radrelax_b.disc2d\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0].startswith('radrelax'))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path), os.path.dirname(os.path.dirname(radrelax.__file__))])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == ["radrelax_b"] + [f"radrelax_b.{m}" for m in sorted(
        _CORE + ["disc2d", "radial_solver", "verify"])]


def test_cli_matrix_digests_blank_named_fields(tmp_path, monkeypatch):
    # the prototype's row of the CLI matrix with the corner fit nudged:
    # the four reports that carry it change, and blanking its two fields
    # hides the change
    runs = [r for r in CLI_MATRIX if r.startswith("prototype:")]
    blank = ("fit_at_zero", "corner_condition.margin")
    plain = cli_matrix_digests(tmp_path / "a", runs)
    blanked = cli_matrix_digests(tmp_path / "b", runs, blank=blank)
    assert list(plain) == runs
    check = verify.corner_condition_check

    def nudged(*args):
        rec = check(*args)
        rec["details"]["fit_at_zero"] += 1e-9
        rec["margin"] -= 1e-9
        return rec

    monkeypatch.setattr(verify, "corner_condition_check", nudged)
    assert cli_matrix_digests(tmp_path / "c", runs, blank=blank) == blanked
    moved = cli_matrix_digests(tmp_path / "d", runs)
    changed = sorted(r.split(":")[1] for r in runs if moved[r] != plain[r])
    assert changed == ["solve_csv", "solve_oracle", "verify", "verify_csv"]


def test_matrix_digest_folds_runs_in_name_order():
    # one digest for the whole matrix, whatever order the runs came in
    runs = {"b:solve": "0" * 64, "a:verify": "1" * 64}
    folded = matrix_digest(runs)
    assert folded == matrix_digest(dict(sorted(runs.items())))
    assert len(folded) == 16 and int(folded, 16) >= 0
    assert folded != matrix_digest({**runs, "b:solve": "2" * 64})


# The fresh-process tests share one run of each command line below, each
# in its own child interpreter: the child records and refuses every scipy
# import and every LAPACK-backed numpy call (polyfit is lstsq underneath;
# the first LAPACK call leaves about 1 MB of workspace resident), runs
# main on its argv as ``python -m radrelax.cli`` does, and records the
# radrelax modules it loaded
_CHILD = """\
import json, sys
record = {"scipy": [], "lapack": []}


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            record["scipy"].append(name)
            raise ImportError("scipy is unavailable")


sys.meta_path.insert(0, NoScipy())
import numpy


def no_lapack(name):
    def call(*args, **kwargs):
        record["lapack"].append(name)
        raise AssertionError(f"LAPACK call: {name}")
    return call


numpy.polyfit = no_lapack("polyfit")
for name in ("lstsq", "solve", "svd", "inv", "pinv", "qr", "cholesky",
             "eig", "eigh", "eigvals", "eigvalsh"):
    setattr(numpy.linalg, name, no_lapack(name))
try:
    from radrelax.cli import main
    code = main(sys.argv[2:])
finally:
    record["modules"] = sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("radrelax."))
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
sys.exit(code)
"""

# name: (argv, exit code). The three-well under G = -u^2 (G2) has affine
# envelope pieces of nonzero slope, whose tangency points are found too,
# and fails its corner check (exit 3) at 256 cells though its descent
# converges. Under G = -u^2 + 0.5u^4 its descent takes hundreds of Newton
# steps, most of them Levenberg-shifted, and fails a qualitative check
_RUNS = {
    "solve_oracle": (["solve", "--spec", "{prototype}", "--oracle",
                      "--u-levels", "50"], 0),
    "solve": (["solve", "--spec", "{prototype}"], 0),
    "verify_csv": (["verify", "--spec", "{prototype}", "--profile-csv",
                    "{csv}"], 3),
    "oracle": (["oracle", "--spec", "{prototype}"], 0),
    "envelope": (["envelope", "--spec", "{prototype}"], 0),
    "envelope_csv": (["envelope", "--spec", "{prototype}", "--format", "csv"],
                     0),
    "bad_flag": (["oracle", "--spec", "{prototype}", "--u-levels", "50",
                  "--bogus"], 1),
    "help": (["--help"], 0),
    "verify": (["verify", "--spec", "{prototype}"], 0),
    "symmetry": (["symmetry", "--spec", "{prototype}"], 0),
    "three_well_envelope": (["envelope", "--spec", "{three_well}"], 0),
    "three_well_solve": (["solve", "--spec", "{three_well}"], 3),
    "three_well_verify": (["verify", "--spec", "{three_well}"], 3),
    "quartic_solve": (["solve", "--spec", "{quartic}", "--grid-points",
                       "64"], 3),
}


@pytest.fixture(scope="module", autouse=True)
def _fresh_children(prototype_ini, tmp_path_factory):
    """Each command line of _RUNS, run once in a fresh child, as futures.
    The children start with the module's first test, one at a time, so
    they run beside the in-process tests that come before their readers."""
    work = tmp_path_factory.mktemp("fresh")
    paths = {"prototype": prototype_ini, "csv": str(work / "profile.csv")}
    _half_slope_csv(work / "profile.csv")
    for name, G in (("three_well", (0.0, -1.0)), ("quartic", (0.0, -1.0, 0.5))):
        spec = ProblemSpec(dimension=2, radius=1.0, p=4.0, W=three_well(),
                           G=Potential1D(kind="poly_in_t_squared",
                                         coefficients=G),
                           shape_flag="G2" if name == "three_well" else "none")
        paths[name] = str(work / f"{name}.ini")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(emit_spec_text(spec))
    env = dict(os.environ, COLUMNS="80",  # the help text wraps to it
               PYTHONPATH=os.path.dirname(os.path.dirname(radrelax.__file__)))

    def run(name):
        argv = [a.format(**paths) for a in _RUNS[name][0]]
        record = work / f"{name}.json"
        out = subprocess.run([sys.executable, "-c", _CHILD, str(record), *argv],
                             env=env, capture_output=True, timeout=120)
        return {**json.loads(record.read_text()), "argv": argv,
                "code": out.returncode, "stdout": out.stdout,
                "stderr": out.stderr}

    pool = ThreadPoolExecutor(1)
    try:
        yield {name: pool.submit(run, name) for name in _RUNS}
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.fixture
def fresh_runs(_fresh_children):
    """Per command line of _RUNS: its argv, exit code, stdout and stderr
    bytes, the radrelax modules it loaded, and the scipy modules and
    LAPACK functions it asked for."""
    return {name: run.result() for name, run in _fresh_children.items()}


def test_parser_reuse_carries_no_flag_values(fresh_runs, monkeypatch, capsys):
    # main builds its parser once per process; every call must still
    # print and exit as a fresh ``python -m radrelax.cli`` does
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("solve_oracle", "solve", "verify_csv", "oracle",
                 "envelope_csv", "bad_flag", "help"):
        fresh = fresh_runs[name]
        rc = main(fresh["argv"])
        got = capsys.readouterr()
        assert (rc, got.out.encode(), got.err.encode()) == (
            fresh["code"], fresh["stdout"], fresh["stderr"]), name


@pytest.mark.parametrize("which", ["prototype", "three_well"])
def test_cold_start_loads_no_scipy(which, fresh_runs):
    # the command line, a polynomial envelope and Newton descent never
    # touch scipy, so start-up must not pay for importing it. Only solve
    # reports the converged flag
    prefix = "" if which == "prototype" else "three_well_"
    runs = [fresh_runs[prefix + command]
            for command in ("envelope", "solve", "verify")]
    verdict = 0 if which == "prototype" else 3
    assert [[run["code"],
             json.loads(run["stdout"])["results"].get("converged"),
             run["scipy"]] for run in runs] == [
        [0, None, []], [verdict, True, []], [verdict, None, []]]


def test_runtime_works_without_scipy(fresh_runs):
    # every import of scipy fails, and each command still runs to its
    # exit code
    assert {name: run["code"] for name, run in fresh_runs.items()} == {
        name: code for name, (_, code) in _RUNS.items()}


def test_runtime_makes_no_lapack_call(fresh_runs):
    # numpy's LAPACK-backed solvers, and polyfit, raise; no command calls
    # one
    assert {name: run["lapack"] for name, run in fresh_runs.items()} == {
        name: [] for name in _RUNS}


@pytest.mark.parametrize("name,extra", [
    ("envelope", []),
    ("oracle", ["radial_solver"]),
    ("solve_oracle", ["radial_solver", "verify"]),
    ("verify", ["radial_solver", "verify"]),
    ("verify_csv", ["radial_solver", "verify"]),
    ("symmetry", ["disc2d", "radial_solver"]),
], ids=["envelope", "oracle", "solve_oracle", "verify", "verify_csv",
        "symmetry"])
def test_each_command_loads_only_its_modules(name, extra, fresh_runs):
    # each command imports what it runs
    assert fresh_runs[name]["code"] in (0, 3)
    assert fresh_runs[name]["modules"] == sorted(_CORE + extra)
