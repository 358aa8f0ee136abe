import math

import pytest

from radrelax.potentials import Potential1D, ProblemSpec

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # derandomized and without an example database, so every run of the
    # suite draws the same examples
    settings.register_profile("deterministic", derandomize=True,
                              database=None, deadline=None)
    settings.load_profile("deterministic")

THREE_WELL_BREAK = math.sqrt(151.0 / 60.0)


def double_well():
    return Potential1D(kind="poly_in_t_squared", coefficients=(1.0, -2.0, 1.0))


def three_well():
    # min((t^2-1)^2, (t^2-4)^2 + 0.1); the pieces cross at t^2 = 151/60
    bp = THREE_WELL_BREAK
    return Potential1D(
        kind="piecewise_poly",
        coefficients=((16.1, 0.0, -8.0, 0.0, 1.0),
                      (1.0, 0.0, -2.0, 0.0, 1.0),
                      (16.1, 0.0, -8.0, 0.0, 1.0)),
        breakpoints=(-bp, bp),
        even=True,
    )


def make_prototype_spec():
    return ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=double_well(),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)),
        shape_flag="G2",
    )


def make_m0_spec():
    return ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, 1.0, 1.0)),
        G=Potential1D(kind="piecewise_poly", coefficients=((0.0, -1.0),)),
        shape_flag="G2_strict",
    )


@pytest.fixture
def prototype_spec():
    return make_prototype_spec()


@pytest.fixture
def m0_spec():
    return make_m0_spec()


@pytest.fixture
def three_well_spec():
    return ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=three_well(),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)),
        shape_flag="none",
    )


PROTOTYPE_INI = """\
[problem]
dimension = 2
radius = 1.0
p = 4.0

[W]
kind = poly_in_t_squared
coeffs = 1.0, -2.0, 1.0

[G]
kind = piecewise_poly
coeffs = 0.0, 0.0, -1.0
shape = G2
"""

M0_INI = """\
[problem]
dimension = 2
radius = 1.0
p = 4.0

[W]
kind = poly_in_t_squared
coeffs = 0.0, 1.0, 1.0

[G]
kind = piecewise_poly
coeffs = 0.0, -1.0
shape = G2strict
"""

CONVEX_INI = """\
[problem]
dimension = 2
radius = 1.0
p = 2.0

[W]
kind = poly_in_t_squared
coeffs = 0.0, 1.0

[G]
kind = poly_in_t_squared
coeffs = 0.0, 0.0
"""


@pytest.fixture(scope="session")
def prototype_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "prototype.ini"
    path.write_text(PROTOTYPE_INI)
    return str(path)


@pytest.fixture(scope="session")
def m0_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "m0.ini"
    path.write_text(M0_INI)
    return str(path)


@pytest.fixture(scope="session")
def convex_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "convex.ini"
    path.write_text(CONVEX_INI)
    return str(path)
