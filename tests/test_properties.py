"""Property tests of the monotone rearrangement on arbitrary profiles."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from radrelax.potentials import Potential1D, ProblemSpec  # noqa: E402
from radrelax.radial_solver import (  # noqa: E402
    RadialGrid,
    RadialProfile,
    energy_reduced,
    ensure_envelope,
    monotone_rearrange,
)

from conftest import double_well, three_well  # noqa: E402

# G(u) = -u^2 does not increase in |u| (G2), so the energy cannot rise
_SPECS = {
    name: ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=W, shape_flag="G2",
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)))
    for name, W in (("double_well", double_well()),
                    ("three_well", three_well()))
}


@st.composite
def profiles(draw):
    cells = draw(st.integers(16, 80))
    slopes = np.array(draw(st.lists(
        st.floats(-3.0, 3.0, allow_nan=False), min_size=cells,
        max_size=cells)))
    if draw(st.booleans()):
        grid = RadialGrid.uniform(1.0, cells)
    else:
        grid = RadialGrid.graded_near_zero(1.0, cells)
    u = np.concatenate([[0.0], np.cumsum(slopes * grid.dr)])
    return RadialProfile(grid, u - u[-1])


@given(prof=profiles(), name=st.sampled_from(sorted(_SPECS)))
def test_rearrangement_laws(prof, name):
    spec = _SPECS[name]
    env = ensure_envelope(spec)
    W = env.potential
    v = monotone_rearrange(prof, env)
    w_before = np.asarray(W.eval(np.abs(prof.slopes)))
    w_after = np.asarray(W.eval(np.abs(v.slopes)))
    assert float(np.max(np.abs(w_after - w_before))) <= 1e-8
    assert np.all(v.u >= np.abs(prof.u) - 1e-12)
    assert np.all(np.diff(v.u) <= 1e-15)
    e_before = energy_reduced(prof, spec)
    e_after = energy_reduced(v, spec)
    assert e_after <= e_before + 1e-9 * (1.0 + abs(e_before))
