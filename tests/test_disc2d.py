import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from radrelax.disc2d import (
    DiscField,
    angular_average,
    averaged_ray_energy_check,
    colinearity_defect,
    energy_2d,
    ray_profiles,
    _BLOCK_RAYS,
    _BLOCK_ROWS,
    _cell_area_weights,
    _donor_map,
    _ray_energies,
    _rim,
)
from radrelax.potentials import Potential1D, ProblemSpec

from conftest import field_from_function, make_prototype_spec, three_well
from oracles import (
    batched_angular_average,
    batched_ray_samples,
    cell_gradients,
    loop_angular_average,
    loop_donor_gradients,
    loop_donor_walk,
    loop_ray_check,
    meshgrid_cell_area_weights,
    meshgrid_colinearity_defect,
    meshgrid_disc_mask,
    meshgrid_random_smooth_values,
    meshgrid_rim,
    single_ray_profile,
    whole_energy_2d,
)

N = 129
R = 1.0


def _cone(n=N, radius=R):
    return field_from_function(
        lambda X, Y: radius - np.sqrt(X * X + Y * Y), n, radius)


def _tilted(n=N, radius=R):
    return field_from_function(
        lambda X, Y: X * (radius - np.sqrt(X * X + Y * Y)), n, radius)


@pytest.fixture(scope="module")
def spec():
    return make_prototype_spec()


def test_zero_field_energy_is_disc_area(spec):
    # W(0) = 1 and G(0) = 0, so the energy reduces to the disc area
    e = energy_2d(DiscField(N, R, np.zeros((N, N))), spec)
    assert abs(e - math.pi) <= 1e-3


def test_cone_energy_matches_radial_value(spec):
    e = energy_2d(_cone(), spec)
    assert abs(e + math.pi / 6.0) <= 0.02 * (math.pi / 6.0)


def _offcenter_spec():
    return ProblemSpec(
        dimension=2, radius=2.0, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(1.0, -2.0, 1.0)),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0,)))


def _offcenter_cone():
    return field_from_function(
        lambda X, Y: np.clip(1.0 - np.sqrt((X - 0.5) ** 2 + Y * Y), 0.0, None),
        N, 2.0)


def test_offcenter_cone_envelope_gradient_term_is_zero():
    # unit cone at (0.5, 0) inside a radius-2 disc; every bilinear cell
    # gradient has norm at most 1, where the double-well envelope is flat
    assert energy_2d(_offcenter_cone(), _offcenter_spec(),
                     use_envelope=True) == 0.0


def _mapped_donor_gradients(fld, ux, uy):
    # the donor map applied to whole cell arrays
    i0, j0, ci, cj = _donor_map(fld, _rim(fld))
    ux, uy = ux.copy(), uy.copy()
    ux[i0, j0] = ux[ci, cj]
    uy[i0, j0] = uy[ci, cj]
    return ux, uy


@pytest.mark.parametrize("n", [33, 35, 65, 129, 257])
@pytest.mark.parametrize("radius", [0.5, 1.0, 1.7])
def test_donor_gradients_match_cell_walk(n, radius):
    fld = DiscField.random_smooth(n, radius, seed=n)
    ux, uy, _ = cell_gradients(fld)
    new = _mapped_donor_gradients(fld, ux, uy)
    old = loop_donor_gradients(fld, ux, uy)
    assert np.array_equal(new[0], old[0])
    assert np.array_equal(new[1], old[1])


@pytest.mark.parametrize("n", [33, 35, 65, 129, 257, 259])
@pytest.mark.parametrize("radius", [0.3, 1.0, 1.7, 10.0])
def test_borrowers_are_the_rim_cells_that_land(n, radius):
    # each rim cell walks on its own: no step leaves the grid, the
    # borrowers are the walks that stand on a full cell within six steps,
    # and those cells are their donors
    fld = DiscField.random_smooth(n, radius, seed=n)
    rim = _rim(fld)
    assert np.array_equal(np.stack(rim[:2]), np.nonzero(meshgrid_rim(fld)))
    donors, exits = loop_donor_walk(fld)
    assert exits == 0
    i0, j0, ci, cj = _donor_map(fld, rim)
    assert len(i0) == len(donors)
    assert dict(zip(zip(i0, j0), zip(ci, cj))) == donors
    m = fld.mask
    assert (m[ci, cj] & m[ci + 1, cj] & m[ci, cj + 1] & m[ci + 1, cj + 1]).all()


def test_rim_at_257_nodes_holds_1020_borrowers():
    # the walk from every non-full cell centred within R + 7h found 3,364
    # borrowers here, 2,352 of them with zero area weight
    fld = DiscField.random_smooth(257, R, seed=1)
    assert len(_donor_map(fld, _rim(fld))[0]) == 1020


@pytest.mark.parametrize("n", [33, 65, 129, 257])
@pytest.mark.parametrize("radius", [0.3, 1.0, 1.7, 10.0])
def test_disc_geometry_matches_meshgrid_forms(n, radius):
    # the 1-D corner distances and broadcast cell centres must give the
    # weights and the colinearity defect of the 2-D arrays, bit for bit
    fld = DiscField.random_smooth(n, radius, seed=n)
    assert (_cell_area_weights(fld, _rim(fld)).tobytes()
            == meshgrid_cell_area_weights(fld).tobytes())
    assert (colinearity_defect(fld).hex()
            == meshgrid_colinearity_defect(fld).hex())


@pytest.mark.parametrize("n", [33, 65, 257])
@pytest.mark.parametrize("radius", [0.3, 1.0, 10.0])
def test_disc_mask_and_random_field_match_meshgrid_forms(n, radius):
    # the broadcast 1-D coordinates must give the mask and the random
    # field of the two n x n meshgrids, bit for bit
    mask = meshgrid_disc_mask(n, radius)
    for seed in (0, 1, n):
        fld = DiscField.random_smooth(n, radius, seed=seed)
        vals = meshgrid_random_smooth_values(n, radius, seed)
        vals[~mask] = 0.0
        assert np.array_equal(fld.mask, mask)
        assert fld.values.tobytes() == vals.tobytes()
    assert np.array_equal(DiscField(n, radius, np.zeros((n, n))).mask, mask)


@pytest.mark.parametrize("n_thetas", [1, 7, 64])
@pytest.mark.parametrize("case", ["prototype", "offcenter"])
def test_ray_check_matches_per_ray_loop(n_thetas, case):
    if case == "prototype":
        spec0 = make_prototype_spec()
        fields = [DiscField.random_smooth(N, R, seed=11), _tilted()]
    else:
        spec0 = _offcenter_spec()
        fields = [_offcenter_cone(),
                  DiscField.random_smooth(65, 2.0, seed=12)]
    for fld in fields:
        rep = averaged_ray_energy_check(fld, spec0, n_thetas=n_thetas)
        per_theta, lhs, rhs = loop_ray_check(fld, spec0, n_thetas)
        assert np.array_equal(rep.per_theta, per_theta)
        assert rep.lhs == lhs
        assert rep.rhs == rhs


@pytest.mark.parametrize("n", [33, 35, 65, 257, 259])
def test_row_blocks_match_whole_array_oracles(n):
    # 33 nodes fill one block of cell rows exactly; 35 and 259 end on a
    # short block; at 35, 257 and 259 some rim cells borrow across a
    # block edge
    assert _BLOCK_ROWS == 32
    for radius, W in ((1.0, make_prototype_spec().W), (1.7, three_well())):
        spec0 = dataclasses.replace(make_prototype_spec(), radius=radius, W=W)
        fld = DiscField.random_smooth(n, radius, seed=n)
        rim = _rim(fld)
        i0, _, ci, _ = _donor_map(fld, rim)
        crosses = np.any(i0 // _BLOCK_ROWS != ci // _BLOCK_ROWS)
        assert crosses == (n in (35, 257, 259))
        assert (_cell_area_weights(fld, rim).tobytes()
                == meshgrid_cell_area_weights(fld).tobytes())
        assert (colinearity_defect(fld).hex()
                == meshgrid_colinearity_defect(fld).hex())
        assert (energy_2d(fld, spec0).hex()
                == whole_energy_2d(fld, spec0).hex())
        rep = averaged_ray_energy_check(fld, spec0, n_thetas=8)
        per_theta, lhs, rhs = loop_ray_check(fld, spec0, 8)
        assert rep.per_theta.tobytes() == per_theta.tobytes()
        assert (rep.lhs, rep.rhs) == (lhs, rhs)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [257, 513])
def test_planar_kernels_hold_few_cell_arrays(n, spec):
    # the whole-array kernels held about eleven (n-1)^2 float arrays at once
    fld = DiscField.random_smooth(n, R, seed=n)
    bound = 5 * 8 * (n - 1) ** 2
    kernels = {
        "energy_2d": lambda: energy_2d(fld, spec, use_envelope=True),
        "ray check": lambda: averaged_ray_energy_check(fld, spec),
        "colinearity": lambda: colinearity_defect(fld),
    }
    for name, kernel in kernels.items():
        kernel()  # builds and caches the envelope outside the measurement
        assert _peak_bytes(kernel) <= bound, name


def test_ray_energies_hold_one_block_of_rays(spec):
    # all 64 rays priced at once peaked at 1.65 MiB
    fld = DiscField.random_smooth(257, R, seed=5)
    thetas = np.arange(64) * (2.0 * math.pi / 64)
    _ray_energies(fld, spec, thetas)  # caches the envelope
    peak = _peak_bytes(lambda: _ray_energies(fld, spec, thetas))
    assert peak <= 0.6 * 2 ** 20


def test_angular_average_holds_one_sample_array():
    # at n = 257 the 256 rays' samples, (256, 258) floats, are 0.53 MB;
    # the peak is that array plus one block of rays, then the output
    # field and the copy its constructor makes. The batched gather
    # peaked at 6.57 MiB
    fld = DiscField.random_smooth(257, R, seed=6)
    samples = 256 * 258 * 8
    assert _peak_bytes(lambda: angular_average(fld)) <= 3 * samples


@pytest.mark.parametrize("n_thetas", [1, 7, _BLOCK_RAYS, _BLOCK_RAYS + 1, 64,
                                      256])
def test_ray_kernels_match_batched_samples(n_thetas):
    # the block-by-block samples against the whole-array gather
    fld = DiscField.random_smooth(65, 1.3, seed=n_thetas)
    thetas = np.arange(n_thetas) * (2.0 * math.pi / n_thetas)
    _, u = batched_ray_samples(fld, thetas)
    profiles = ray_profiles(fld, thetas)
    assert len(profiles) == n_thetas
    for prof, row in zip(profiles, u):
        assert prof.u.tobytes() == row.tobytes()
    assert (angular_average(fld, n_thetas).values.tobytes()
            == batched_angular_average(fld, n_thetas).values.tobytes())


def test_ray_check_rejects_radius_mismatch(spec):
    with pytest.raises(ValueError, match="grid ends at 2.0, spec radius is 1.0"):
        averaged_ray_energy_check(DiscField.random_smooth(65, 2.0, seed=1),
                                  spec, n_thetas=4)


def test_ray_profiles_match_single_rays():
    fld = DiscField.random_smooth(65, 1.3, seed=2)
    thetas = [2.0 * math.pi * k / 9 for k in range(9)]
    for prof, theta in zip(ray_profiles(fld, thetas), thetas):
        ref = single_ray_profile(fld, theta)
        assert np.array_equal(prof.grid.nodes, ref.grid.nodes)
        assert prof.u.tobytes() == ref.u.tobytes()


def test_energy_2d_rejects_wrong_dimension_and_radius(spec):
    spec3 = ProblemSpec(dimension=3, radius=R, p=4.0, W=spec.W, G=spec.G,
                        shape_flag="G2")
    with pytest.raises(ValueError, match="dimension 2"):
        energy_2d(DiscField(N, R, np.zeros((N, N))), spec3)
    with pytest.raises(ValueError, match="radius"):
        energy_2d(DiscField(N, 2.0, np.zeros((N, N))), spec)


def test_ray_profile_cone_exact_on_axis():
    prof = ray_profiles(_cone(), [0.0])[0]
    assert np.abs(prof.u - (R - prof.grid.nodes)).max() <= 1e-14


def test_ray_profile_tilted_field():
    fld = _tilted()
    p0 = ray_profiles(fld, [0.0])[0]
    r = p0.grid.nodes
    assert np.abs(p0.u - r * (R - r)).max() <= 5.0 * fld.h ** 2
    p90 = ray_profiles(fld, [math.pi / 2.0])[0]
    assert np.abs(p90.u).max() <= 1e-12


def test_ray_profiles_respect_grid_symmetry():
    fld = DiscField.random_smooth(N, R, seed=5)
    sym = DiscField(N, R, fld.values + fld.values[::-1, :])
    a = ray_profiles(sym, [math.pi / 3.0])[0]
    b = ray_profiles(sym, [math.pi - math.pi / 3.0])[0]
    assert np.abs(a.u - b.u).max() <= 1e-12


def test_ray_slopes_bounded_by_planar_gradient():
    fld = DiscField.random_smooth(N, R, seed=3)
    ux, uy, _ = cell_gradients(fld)
    gmax = float(np.hypot(ux, uy).max())
    thetas = [2.0 * math.pi * k / 16 for k in range(16)]
    smax = max(float(np.abs(prof.slopes).max())
               for prof in ray_profiles(fld, thetas))
    assert smax <= gmax + 5.0 * fld.h


def test_ray_average_radial_field_two_sided(spec):
    rep = averaged_ray_energy_check(_cone(), spec, n_thetas=64)
    assert rep.passes
    assert abs(rep.lhs - rep.rhs) <= 0.01
    assert float(np.ptp(rep.per_theta)) <= 0.01


def test_ray_average_tilted_field(spec):
    rep = averaged_ray_energy_check(_tilted(), spec, n_thetas=64)
    assert rep.passes
    assert abs(rep.lhs - rep.rhs) <= 0.01


def test_ray_average_random_fields_pass(spec):
    for seed in range(5):
        fld = DiscField.random_smooth(65, R, seed=seed)
        rep = averaged_ray_energy_check(fld, spec, n_thetas=32)
        assert rep.passes, seed
        assert rep.tol == 8.0 * fld.h


def test_ray_average_report_dict(spec):
    d = averaged_ray_energy_check(_cone(), spec, n_thetas=8).to_dict()
    assert sorted(d.keys()) == ["lhs", "passes", "per_theta_energies",
                                "rhs", "tol"]
    assert len(d["per_theta_energies"]) == 8


def test_ray_average_needs_a_ray(spec):
    with pytest.raises(ValueError, match="at least one"):
        averaged_ray_energy_check(_cone(), spec, n_thetas=0)


def test_colinearity_radial_field_small():
    fld = _cone()
    assert colinearity_defect(fld) <= 5.0 * fld.h


def test_colinearity_tilted_field_large():
    assert colinearity_defect(_tilted()) >= 0.5


def test_colinearity_zero_field():
    assert colinearity_defect(DiscField(N, R, np.zeros((N, N)))) == 0.0


def test_colinearity_invariances():
    fld = _tilted()
    base = colinearity_defect(fld)
    shifted = fld.values.copy()
    shifted[fld.mask] += 3.7
    assert abs(colinearity_defect(DiscField(N, R, shifted)) - base) <= 1e-12
    assert abs(colinearity_defect(DiscField(N, R, np.rot90(fld.values)))
               - base) <= 1e-12


def test_angular_average_removes_defect():
    mix = field_from_function(
        lambda X, Y: (1.0 + 0.8 * X) * (R - np.sqrt(X * X + Y * Y)), N, R)
    defects = []
    avg = angular_average(mix)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        blend = DiscField(N, R, (1.0 - t) * mix.values + t * avg.values)
        defects.append(colinearity_defect(blend))
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert defects[-1] <= 5.0 * mix.h


def test_angular_average_matches_ray_loop():
    negative_zeros = DiscField(33, R, np.full((33, 33), -0.0))
    for fld in (DiscField.random_smooth(65, 1.2, seed=4), _tilted(),
                negative_zeros):
        for n_thetas in (1, 7, 256):
            new = angular_average(fld, n_thetas).values
            old = loop_angular_average(fld, n_thetas).values
            assert new.tobytes() == old.tobytes()


def test_grid_validation():
    with pytest.raises(ValueError, match="odd"):
        DiscField(64, R, np.zeros((64, 64)))
    with pytest.raises(ValueError, match="at least 33"):
        DiscField(17, R, np.zeros((17, 17)))
    with pytest.raises(ValueError, match="radius"):
        DiscField(33, 0.0, np.zeros((33, 33)))
    with pytest.raises(ValueError, match="shape"):
        DiscField(33, R, np.zeros((33, 34)))


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
def test_grid_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        DiscField(33, radius, np.zeros((33, 33)))


def test_nodes_outside_disc_are_zeroed():
    fld = field_from_function(lambda X, Y: np.ones_like(X), 33, R)
    assert np.all(fld.values[~fld.mask] == 0.0)
    assert np.all(fld.values[fld.mask] == 1.0)
    assert not fld.mask[0, 0]
