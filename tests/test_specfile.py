import pathlib
import textwrap

import numpy as np
import pytest

from radrelax import specfile
from radrelax.potentials import Potential1D, ProblemSpec
from radrelax.specfile import (
    SpecFileError,
    emit_spec_text,
    parse_spec,
    parse_spec_text,
)

from conftest import CONVEX_INI, M0_INI, PROTOTYPE_INI, THREE_WELL_BREAK

THREE_WELL_INI = f"""
[problem]
dimension = 3
radius = 2.0
p = 4.0

[W]
kind = piecewise_poly
coeffs = 16.1, 0.0, -8.0, 0.0, 1.0; 1.0, 0.0, -2.0, 0.0, 1.0; 16.1, 0.0, -8.0, 0.0, 1.0
breakpoints = {-THREE_WELL_BREAK!r}, {THREE_WELL_BREAK!r}

[G]
kind = poly_in_t_squared
coeffs = 0.0, -1.0
shape = none
"""


def _expect(text, fragment):
    with pytest.raises(SpecFileError, match=fragment):
        parse_spec_text(text)


@pytest.mark.parametrize("text", [PROTOTYPE_INI, M0_INI, CONVEX_INI,
                                  THREE_WELL_INI])
def test_round_trip(text):
    spec = parse_spec_text(text)
    assert parse_spec_text(emit_spec_text(spec)) == spec


def test_parse_prototype_fields():
    spec = parse_spec_text(PROTOTYPE_INI)
    assert spec.dimension == 2
    assert spec.radius == 1.0
    assert spec.p == 4.0
    assert spec.W.kind == "poly_in_t_squared"
    assert spec.W.coefficients == (1.0, -2.0, 1.0)
    assert spec.G.kind == "piecewise_poly"
    assert spec.shape_flag == "G2"


def test_parse_piecewise_W_fields():
    spec = parse_spec_text(THREE_WELL_INI)
    assert spec.W.breakpoints == (-THREE_WELL_BREAK, THREE_WELL_BREAK)
    assert spec.W.even


def test_comments_and_blank_lines_ignored():
    text = PROTOTYPE_INI.replace("[W]", "# leading comment\n; alt comment\n\n[W]")
    assert parse_spec_text(text) == parse_spec_text(PROTOTYPE_INI)


def test_shape_defaults_to_none():
    text = "\n".join(l for l in CONVEX_INI.splitlines()
                     if not l.startswith("shape"))
    assert parse_spec_text(text).shape_flag == "none"


def test_parse_spec_reads_file_and_cites_path(tmp_path):
    path = tmp_path / "prob.ini"
    path.write_text(PROTOTYPE_INI)
    assert parse_spec(str(path)) == parse_spec_text(PROTOTYPE_INI)
    path.write_text(PROTOTYPE_INI.replace("radius = 1.0", "radius = huge"))
    with pytest.raises(SpecFileError, match="prob.ini:"):
        parse_spec(str(path))
    with pytest.raises(OSError):
        parse_spec(str(tmp_path / "missing.ini"))


def test_unterminated_section_header():
    _expect("[problem\ndimension = 2\n", "unterminated section header")


def test_unknown_section():
    _expect(PROTOTYPE_INI + "\n[bogus]\n", r"unknown section \[bogus\]")


def test_growth_section_is_unknown():
    # growth constants are not part of the format: nothing would read them
    text = PROTOTYPE_INI + "\n[growth]\nrho = 2.0\n"
    lineno = 1 + text.splitlines().index("[growth]")
    _expect(text, rf":{lineno}: unknown section \[growth\]")


@pytest.mark.parametrize("old,new", [
    ("p = 4.0", "p = inf"),
    ("radius = 1.0", "radius = inf"),
    ("coeffs = 1.0, -2.0, 1.0", "coeffs = 1.0, nan, 1.0"),
    ("coeffs = 0.0, 0.0, -1.0", "coeffs = 0.0, 0.0, -inf"),
])
def test_non_finite_number_cites_its_line(old, new):
    text = PROTOTYPE_INI.replace(old, new)
    lineno = 1 + text.splitlines().index(new)
    _expect(text, f":{lineno}: .*not finite")


def _parse_example(text):
    return parse_spec_text(textwrap.dedent(text).strip() + "\n")


def test_readme_example_parses():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    assert _parse_example(block) == parse_spec_text(PROTOTYPE_INI)


def test_module_docstring_example_parses():
    lines = specfile.__doc__.split("Format::\n", 1)[1].splitlines()
    block = []
    for line in lines:
        if line and not line.startswith("    "):
            break
        block.append(line)
    assert _parse_example("\n".join(block)) == parse_spec_text(PROTOTYPE_INI)


def test_duplicate_section():
    _expect(PROTOTYPE_INI + "\n[W]\nkind = poly_in_t_squared\n",
            r"duplicate section \[W\]")


def test_key_before_section():
    _expect("dimension = 2\n", "key before any section")


def test_missing_equals():
    _expect("[problem]\ndimension 2\n", "expected key = value")


def test_unknown_key():
    _expect("[problem]\ncolor = red\n", "unknown key 'color'")


def test_duplicate_key():
    _expect("[problem]\ndimension = 2\ndimension = 3\n", "duplicate key")


def test_missing_required_section():
    text = "\n".join(l for l in PROTOTYPE_INI.splitlines()
                     if l not in ("[W]", "kind = poly_in_t_squared",
                                  "coeffs = 1.0, -2.0, 1.0"))
    _expect(text, r"missing required section \[W\]")


def test_missing_required_key():
    text = PROTOTYPE_INI.replace("p = 4.0\n", "")
    _expect(text, "missing required key 'p'")


def test_error_cites_line_number():
    text = PROTOTYPE_INI.replace("radius = 1.0", "radius = big")
    lineno = 1 + text.splitlines().index("radius = big")
    _expect(text, f":{lineno}: radius: not a number")


def test_dimension_must_be_integer():
    _expect(PROTOTYPE_INI.replace("dimension = 2", "dimension = 2.5"),
            "not an integer")


def test_dimension_lower_bound():
    _expect(PROTOTYPE_INI.replace("dimension = 2", "dimension = 1"),
            "dimension must be at least 2")


def test_radius_positive():
    _expect(PROTOTYPE_INI.replace("radius = 1.0", "radius = 0.0"),
            "radius must be positive")


def test_p_exceeds_one():
    _expect(PROTOTYPE_INI.replace("p = 4.0", "p = 1.0"), "p must exceed 1")


@pytest.mark.parametrize("text,degree", [(PROTOTYPE_INI, 4), (CONVEX_INI, 2),
                                         (THREE_WELL_INI, 4)],
                         ids=["t2_kind", "convex", "piecewise"])
def test_p_must_be_the_degree_of_W(text, degree):
    # p is W's growth exponent: its degree in t, of the outer piece for a
    # piecewise W; any other p is an error of the p line
    assert parse_spec_text(text).p == degree
    p_line = next(l for l in text.splitlines() if l.startswith("p = "))
    bad = text.replace(p_line, "p = 3.0")
    lineno = 1 + bad.splitlines().index("p = 3.0")
    _expect(bad, f":{lineno}: p = 3.0 is not W's growth exponent, its "
                 rf"degree in t \({degree}\)")


def test_sampled_kind_rejected():
    _expect(PROTOTYPE_INI.replace("kind = poly_in_t_squared", "kind = sampled"),
            "cannot be written")


def test_unknown_potential_kind():
    _expect(PROTOTYPE_INI.replace("kind = poly_in_t_squared", "kind = spline"),
            "unknown potential kind")


def test_poly_rejects_piece_separator():
    _expect(PROTOTYPE_INI.replace("coeffs = 1.0, -2.0, 1.0",
                                  "coeffs = 1.0; 2.0"),
            "single coefficient list")


def test_poly_rejects_breakpoints():
    _expect(PROTOTYPE_INI.replace("coeffs = 1.0, -2.0, 1.0",
                                  "coeffs = 1.0, -2.0, 1.0\nbreakpoints = 0.5"),
            "breakpoints only apply")


def test_piece_group_count_mismatch():
    bad = THREE_WELL_INI.replace(
        "coeffs = 16.1, 0.0, -8.0, 0.0, 1.0; 1.0, 0.0, -2.0, 0.0, 1.0; "
        "16.1, 0.0, -8.0, 0.0, 1.0",
        "coeffs = 16.1, 0.0, -8.0, 0.0, 1.0; 1.0, 0.0, -2.0, 0.0, 1.0")
    _expect(bad, "2 breakpoints need 3 coefficient groups, got 2")


def test_empty_coefficient_list():
    _expect(PROTOTYPE_INI.replace("coeffs = 1.0, -2.0, 1.0", "coeffs = ,"),
            "empty list")


def test_bad_shape_token():
    _expect(PROTOTYPE_INI.replace("shape = G2", "shape = convex"),
            "shape must be one of none, G2, G2strict")


def test_shape_token_mapping():
    assert parse_spec_text(M0_INI).shape_flag == "G2_strict"


def test_uneven_W_rejected_with_section():
    bad = THREE_WELL_INI.replace(
        f"breakpoints = {-THREE_WELL_BREAK!r}, {THREE_WELL_BREAK!r}",
        f"breakpoints = {-THREE_WELL_BREAK!r}, 1.5")
    with pytest.raises(SpecFileError, match=r"\[W\]"):
        parse_spec_text(bad)


def test_semantic_spec_error_wrapped():
    # increasing G contradicts the declared monotone-decrease shape
    bad = PROTOTYPE_INI.replace("coeffs = 0.0, 0.0, -1.0",
                                "coeffs = 0.0, 0.0, 1.0")
    with pytest.raises(SpecFileError):
        parse_spec_text(bad)


def test_emit_rejects_sampled():
    t = np.linspace(-1.0, 1.0, 41)
    W = Potential1D(kind="sampled",
                    samples=(tuple(t), tuple((t * t - 0.5) ** 2)))
    spec = ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=W,
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0,)))
    with pytest.raises(ValueError, match="sampled"):
        emit_spec_text(spec)
