import csv
import math
import time

import numpy as np
import pytest

from radrelax.disc2d import DiscField
from radrelax.potentials import Potential1D, ProblemSpec
from radrelax.radial_solver import RadialGrid

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

# Tier-1 (the whole suite) must finish within this wall time
WALL_BUDGET_S = 40.0
_session_start = []


def pytest_sessionstart(session):
    _session_start.append(time.perf_counter())


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    # every run reports its wall time and test count against the budget
    wall = time.perf_counter() - _session_start[0]
    count = sum(len(terminalreporter.stats.get(outcome, ()))
                for outcome in ("passed", "failed", "error", "skipped",
                                "xfailed", "xpassed"))
    verdict = "over" if wall > WALL_BUDGET_S else "within"
    terminalreporter.write_line(
        f"wall time {wall:.1f} s for {count} tests, {verdict} the "
        f"{WALL_BUDGET_S:.0f} s Tier-1 budget")


def graded_grid(radius, cells):
    """Radial nodes r_k = R (k / K)^2, finer near the origin."""
    nodes = radius * np.linspace(0.0, 1.0, cells + 1) ** 2
    nodes[-1] = radius
    return RadialGrid(nodes)


def field_from_function(fn, n, radius):
    """Sample fn(x, y) at the nodes of an n x n disc field; fn must accept
    arrays."""
    x = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return DiscField(n, radius, np.asarray(fn(X, Y), dtype=float))


def write_field_csv(fld, path):
    """Write the field's nodes as x,y,u rows in x-major order, the
    ``--field-csv`` format."""
    x = fld.coords
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "u"])
        for i in range(fld.n):
            for j in range(fld.n):
                writer.writerow([repr(float(x[i])), repr(float(x[j])),
                                 repr(float(fld.values[i, j]))])


@pytest.fixture
def capped_solves(monkeypatch):
    """Descent that spins fails instead of hanging: the 1,001st tridiagonal
    solve raises."""
    import radrelax.radial_solver as rs

    solve, calls = rs._spd_tridiagonal_solve, [0]

    def capped(*args):
        calls[0] += 1
        if calls[0] > 1000:
            raise RuntimeError("more than 1,000 tridiagonal solves")
        return solve(*args)

    monkeypatch.setattr(rs, "_spd_tridiagonal_solve", capped)


def double_well():
    return Potential1D(kind="poly_in_t_squared", coefficients=(1.0, -2.0, 1.0))


def three_well(offset=0.1):
    # min((t^2-1)^2, (t^2-4)^2 + offset); the pieces cross at
    # t^2 = (15 + offset)/6
    bp = math.sqrt((15.0 + offset) / 6.0)
    outer = (16.0 + offset, 0.0, -8.0, 0.0, 1.0)
    return Potential1D(
        kind="piecewise_poly",
        coefficients=(outer, (1.0, 0.0, -2.0, 0.0, 1.0), outer),
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


def make_three_well_spec():
    return ProblemSpec(
        dimension=2, radius=1.0, p=4.0,
        W=three_well(),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)),
        shape_flag="none",
    )


@pytest.fixture
def three_well_spec():
    return make_three_well_spec()


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
