"""Exit codes under mutated input: ``cli.main`` run in process on spec
texts, profile CSVs and field CSVs with lines dropped, duplicated, swapped
or truncated and with one token replaced. Every run ends with an exit code
in {0, 1, 2, 3}, no exception leaves ``main``, and an exit 1 names the
input file."""

import contextlib
import io
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from radrelax.cli import main  # noqa: E402
from radrelax.disc2d import DiscField  # noqa: E402

from conftest import PROTOTYPE_INI, write_field_csv  # noqa: E402
from corpus import CLI_SPECS  # noqa: E402

_TOKENS = ("", "x", "nan", "inf", "1e400", "1e300", "0", "-1", ";", "=",
           "[G]")
# a token is a run of characters between separators
_SEPARATORS = re.compile(r"([\s,=;]+)")

# u = 0.5 (1 - r) on 41 uniform nodes of [0, 1], under the format marker
_PROFILE_CSV = "\n".join(
    ["# radrelax csv 1", "r,u,du_dr"]
    + [f"{k / 40!r},{0.5 * (1.0 - k / 40)!r},-0.5" for k in range(41)]) + "\n"


def _mutate(data, text):
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(
            ("drop", "duplicate", "swap", "truncate", "token")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            # the text ends inside line i
            cut = data.draw(st.integers(0, len(lines[i])))
            lines = lines[:i] + [lines[i][:cut]]
        else:
            parts = _SEPARATORS.split(lines[i])
            k = 2 * data.draw(st.integers(0, len(parts) // 2))
            parts[k] = data.draw(st.sampled_from(_TOKENS))
            lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


def _run(argv, named):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert str(named) in stderr.getvalue()
    return code


@settings(max_examples=400)
@given(name=st.sampled_from(sorted(CLI_SPECS)), data=st.data())
def test_mutated_spec_exit_codes(name, data, tmp_path_factory):
    work = tmp_path_factory.mktemp("spec")
    spec = work / "spec.ini"
    spec.write_text(_mutate(data, CLI_SPECS[name]()))
    _run(["envelope", "--spec", str(spec), "--out", str(work / "env.json")],
         spec)


@settings(max_examples=400)
@given(data=st.data())
def test_mutated_profile_csv_exit_codes(data, tmp_path_factory):
    work = tmp_path_factory.mktemp("csv")
    spec, profile = work / "spec.ini", work / "profile.csv"
    spec.write_text(PROTOTYPE_INI)
    profile.write_text(_mutate(data, _PROFILE_CSV))
    _run(["verify", "--spec", str(spec), "--profile-csv", str(profile),
          "--out", str(work / "verify.json")], profile)


@pytest.fixture(scope="module")
def field_csv_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("field") / "field.csv"
    write_field_csv(DiscField.random_smooth(33, 1.0, seed=1), str(path))
    return path.read_text()


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_field_csv_exit_codes(data, field_csv_text, tmp_path_factory):
    # a field W or G cannot price exits 2 and writes no file, as
    # test_unpriceable_field_exits_2_writing_no_file in test_cli.py pins
    work = tmp_path_factory.mktemp("field")
    spec, field = work / "spec.ini", work / "field.csv"
    spec.write_text(PROTOTYPE_INI)
    field.write_text(_mutate(data, field_csv_text))
    report = work / "symmetry.json"
    code = _run(["symmetry", "--spec", str(spec), "--field-csv", str(field),
                 "--rays", "4", "--profile-csv", str(work / "p_"),
                 "--out", str(report)], field)
    written = [report] + [work / f"p_ray{k:03d}.csv" for k in range(4)]
    assert [path.exists() for path in written] == [code in (0, 3)] * 5
