"""Problem sets with reference energies, shared by the tests.

Data and builders only, no test logic. Each set maps a problem name to a
builder that returns a fresh ``ProblemSpec`` (a spec caches its envelope
on itself, so specs are not shared between tests).

- ``MONOTONE``: the 51 problems with a monotone G: the prototype, m0,
  the three-well W under G = -u^2 (declared G2), and the 48 problems of
  the ``solve`` benchmark workload, seeds 1-12.
- ``HARD``: 40 problems with shape ``none``: five W (the double wells
  (t^2 - a^2)^2 for a in {0.5, 1, 1.7}, the three-well and the convex
  t^2 + t^4) times four G with a well or a concave part, in N = 2 and 3.

``MONOTONE_REFERENCE`` and ``HARD_REFERENCE`` give each problem's
relaxed energy and ``converged`` flag from ``minimize_relaxed`` as it was
before descent went to one start, when it kept the lowest of three
starts and continued an unconverged winner by Newton: MONOTONE at 1024
cells, HARD at 64 cells.

``CLI_MATRIX`` names the 192 command lines of the output comparison (16
spec texts times 12 commands), ``cli_matrix_digests`` runs them in
process and returns one SHA-256 per run, and ``matrix_digest`` folds
those into one short digest of the whole matrix. ``potential_digests``
returns one SHA-256 of W, W' and W'' of each of 225 potentials (the W and
G of every ``MONOTONE`` and ``HARD`` problem, the three double wells, the
three-well and ``random_even_sampled(0..38)``) on a fixed point set.
``disc_digests`` returns one SHA-256 of the planar disc checks of each of
126 random fields (``DISC_FIELDS``), from public calls only.

Run as a script, ``PYTHONPATH=src python tests/corpus.py``, it prints
the matrix digest on its first line, the folded potential digest on its
second and the folded disc digest on its third; ``--save FILE`` also
writes the per-run, per-potential and per-field ``{name: digest}`` JSON
to FILE, and ``--diff FILE`` prints, in place of the digests, the names
whose digest differs from FILE's, then FILE's three folded digests and
the current ones. A byte comparison of two trees is then ``--save`` on
one and ``--diff`` on the other.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os

import numpy as np

from radrelax.disc2d import (DiscField, averaged_ray_energy_check,
                             colinearity_defect, energy_2d)
from radrelax.potentials import Potential1D, ProblemSpec
from radrelax.specfile import emit_spec_text, parse_spec_text

from conftest import (CONVEX_INI, M0_INI, PROTOTYPE_INI, make_m0_spec,
                      make_prototype_spec, make_three_well_spec, three_well,
                      write_field_csv)
from oracles import random_even_sampled

MONOTONE_CELLS = 1024
HARD_CELLS = 64

# The ``solve`` workload's specs as its inputs module writes and parses
# them back, item k of seed s named "bench<s>/<k>". Items 0, 2 and 3:
# W = (t^2 - a^2)^2 as (a^4, -2 a^2, 1) and G = -c u^2, declared G2.
# Item 1: W = b t^2 + t^4 and G = -c u, declared G2strict. Rows are
# (W coefficients, c, R), all in N = 2 with p = 4.
_BENCH_SOLVE = {
    "bench1/0": ((1.3957736986942004, -2.362857336949652, 1.0), 0.919810648831774, 0.9051135219289357),
    "bench1/1": ((0.0, 0.7938131590572629, 1.0), 0.76440560758842, 0.9010703534816762),
    "bench1/2": ((0.7453549993276685, -1.7266788923568488, 1.0), 1.242182929783577, 1.0876288001258902),
    "bench1/3": ((0.9438703231008051, -1.9430597758183408, 1.0), 0.8477776671323325, 0.9807230101768101),
    "bench2/0": ((0.6643145789434521, -1.6301099091085265, 1.0), 0.8293367065888332, 0.9699625237765409),
    "bench2/1": ((0.0, 1.2374629034452491, 1.0), 1.244741608899075, 1.0431529823465218),
    "bench2/2": ((1.363694820014347, -2.335546890999491, 1.0), 1.1010898849459918, 1.0360621323549615),
    "bench2/3": ((1.1178160624809812, -2.1145364148966377, 1.0), 0.9673971602922573, 0.9100253718411747),
    "bench3/0": ((0.8508910142249367, -1.8448750789415924, 1.0), 0.9714439332472031, 0.934768676316248),
    "bench3/1": ((0.0, 0.5079520807252388, 1.0), 0.8871359811806949, 1.0502829917511598),
    "bench3/2": ((1.0677369659027751, -2.0666271709263624, 1.0), 1.1882280186466911, 1.0057437808419727),
    "bench3/3": ((1.2270548963090113, -2.2154501992227327, 1.0), 0.8066472486022831, 1.095955024731555),
    "bench4/0": ((1.1583290950166265, -2.1525139674498064, 1.0), 1.0389559083156028, 0.9026774871334798),
    "bench4/1": ((0.0, 1.2929271337646484, 1.0), 1.1614168833550338, 0.9550406155383461),
    "bench4/2": ((1.0631333077566072, -2.0621671200526954, 1.0), 1.157926649389418, 1.0011102051783656),
    "bench4/3": ((0.8144390467618179, -1.8049255350421722, 1.0), 0.7669617196876857, 1.076041713535797),
    "bench5/0": ((0.7670931615829202, -1.7516770953379737, 1.0), 1.1695493704783042, 0.9806814096804595),
    "bench5/1": ((0.0, 0.5591069179336384, 1.0), 0.9636566573938115, 0.9979287528926212),
    "bench5/2": ((1.1611235468840835, -2.1551088574678388, 1.0), 0.8300025224171697, 1.0995059220902088),
    "bench5/3": ((1.1039360373466187, -2.1013672095534552, 1.0), 1.0786184082785593, 0.9287761142946491),
    "bench6/0": ((1.276834835348507, -2.259942331431054, 1.0), 1.0652751140452337, 1.077092907867361),
    "bench6/1": ((0.0, 1.0973418832522701, 1.0), 1.1958409713046947, 0.9010278880581746),
    "bench6/2": ((1.1012805797619707, -2.098838326086095, 1.0), 1.2465991009330393, 0.9025651310647513),
    "bench6/3": ((0.7460435041358933, -1.7274761985461835, 1.0), 0.7574895911271655, 0.9877267557669336),
    "bench7/0": ((0.6877523319918368, -1.6586166910915092, 1.0), 1.155328137006024, 1.0001152314335233),
    "bench7/1": ((0.0, 1.2822952764268936, 1.0), 1.2035133894106562, 1.0691728908620672),
    "bench7/2": ((1.4615555776675857, -2.4178962572183162, 1.0), 0.9677302073054938, 0.9217236020016296),
    "bench7/3": ((1.0065745201465923, -2.0065637494448985, 1.0), 0.7911525386379328, 1.0357048994188438),
    "bench8/0": ((1.0774718697293237, -2.0760268492765923, 1.0), 1.244267296147544, 0.9288219539886505),
    "bench8/1": ((0.0, 0.5443712322106474, 1.0), 0.9545699997389282, 0.9464821743760541),
    "bench8/2": ((0.780898100841152, -1.7673687796735031, 1.0), 0.8931350483296567, 0.9718535328442566),
    "bench8/3": ((1.1772663420718175, -2.1700381029574736, 1.0), 1.0310233645557971, 1.0435077289203596),
    "bench9/0": ((0.995125683154599, -1.9951197288930798, 1.0), 0.8931734758944638, 0.9576294338629718),
    "bench9/1": ((0.0, 1.3224017788932865, 1.0), 1.217831164704974, 1.071657390904793),
    "bench9/2": ((1.2127921228308034, -2.2025368308664475, 1.0), 1.138026162265366, 1.001072679098799),
    "bench9/3": ((0.7487726434682107, -1.730632998030733, 1.0), 0.9867149966810784, 1.0518451850470998),
    "bench10/0": ((0.7283141740416114, -1.7068264985540988, 1.0), 1.2417082011010356, 0.9792079886699683),
    "bench10/1": ((0.0, 0.8923616895217158, 1.0), 0.9271907805206356, 0.9787968412048753),
    "bench10/2": ((1.2786495822238033, -2.2615477728527456, 1.0), 1.0176681610770355, 0.9648917618073066),
    "bench10/3": ((1.0203535470161276, -2.0202510210527085, 1.0), 0.8762003923671359, 1.0925587543320854),
    "bench11/0": ((0.8182500109654305, -1.8091434558546544, 1.0), 1.0780401116157396, 0.990622939424038),
    "bench11/1": ((0.0, 0.5394360784915856, 1.0), 0.7552924583190157, 1.0808553425152847),
    "bench11/2": ((1.1368490360930645, -2.132462460249244, 1.0), 0.9117705951551692, 0.9259547655322506),
    "bench11/3": ((1.4558436324407578, -2.4131669088073933, 1.0), 1.2208859359219337, 1.0951568341383497),
    "bench12/0": ((0.7381296411077753, -1.718289429761791, 1.0), 0.9430544505057243, 1.0936043626662457),
    "bench12/1": ((0.0, 0.9435393191242307, 1.0), 0.9316049649613439, 1.0322427072279445),
    "bench12/2": ((0.9188774581202236, -1.9171619212995272, 1.0), 0.8156874850509434, 0.9067479420761028),
    "bench12/3": ((1.453476995827424, -2.41120467470302, 1.0), 1.146797371603517, 1.0135024049925365),
}


def _bench_spec(name):
    w, c, radius = _BENCH_SOLVE[name]
    if name.endswith("/1"):
        G = Potential1D(kind="piecewise_poly", coefficients=((0.0, -c),))
        shape = "G2_strict"
    else:
        G = Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -c))
        shape = "G2"
    return ProblemSpec(dimension=2, radius=radius, p=4.0, shape_flag=shape,
                       W=Potential1D(kind="poly_in_t_squared", coefficients=w),
                       G=G)


def _three_well_g2():
    return dataclasses.replace(make_three_well_spec(), shape_flag="G2")


MONOTONE = {"prototype": make_prototype_spec, "m0": make_m0_spec,
            "three_well": _three_well_g2}
MONOTONE.update({name: functools.partial(_bench_spec, name)
                 for name in _BENCH_SOLVE})


def _double_well(a):
    return Potential1D(kind="poly_in_t_squared",
                       coefficients=(a ** 4, -2.0 * a * a, 1.0))


_HARD_W = {
    "double_well_0.5": functools.partial(_double_well, 0.5),
    "double_well_1": functools.partial(_double_well, 1.0),
    "double_well_1.7": functools.partial(_double_well, 1.7),
    "three_well": three_well,
    "convex": lambda: Potential1D(kind="poly_in_t_squared",
                                  coefficients=(0.0, 1.0, 1.0)),
}

# coefficients of G in u^2, poly_in_t_squared
_HARD_G = {
    "-u^2": (0.0, -1.0),
    "-3u^2": (0.0, -3.0),
    "-u^2+0.5u^4": (0.0, -1.0, 0.5),
    "-2u^2+0.1u^4": (0.0, -2.0, 0.1),
}


def _hard_spec(w, g, dimension):
    return ProblemSpec(dimension=dimension, radius=1.0, p=4.0, W=_HARD_W[w](),
                       G=Potential1D(kind="poly_in_t_squared",
                                     coefficients=_HARD_G[g]),
                       shape_flag="none")


HARD = {f"{w}/{g}/N{n}": functools.partial(_hard_spec, w, g, n)
        for w in _HARD_W for g in _HARD_G for n in (2, 3)}

MONOTONE_REFERENCE = {
    "prototype": (-0.546130991879962, True),
    "m0": (-0.09468262074244214, True),
    "three_well": (-1.803053952193624, True),
    "bench1/0": (-0.3923544342226231, True),
    "bench1/1": (-0.046020625696051226, True),
    "bench1/2": (-0.8432907165027421, True),
    "bench1/3": (-0.4133640136828621, True),
    "bench2/0": (-0.32618894641872775, True),
    "bench2/1": (-0.14087511236312267, True),
    "bench2/2": (-0.8095404535727655, True),
    "bench2/3": (-0.3792626040339645, True),
    "bench3/0": (-0.37242328955778875, True),
    "bench3/1": (-0.15820392266510983, True),
    "bench3/2": (-0.6907014843218963, True),
    "bench3/3": (-0.7003782262941055, True),
    "bench4/0": (-0.401884265580276, True),
    "bench4/1": (-0.08337408033511198, True),
    "bench4/2": (-0.658326337876947, True),
    "bench4/3": (-0.5064422090689157, True),
    "bench5/0": (-0.523494023402581, True),
    "bench5/1": (-0.14129409046957064, True),
    "bench5/2": (-0.7118221610606541, True),
    "bench5/3": (-0.4583806405730773, True),
    "bench6/0": (-0.8882056622420899, True),
    "bench6/1": (-0.08164542236350854, True),
    "bench6/2": (-0.47348664410935826, True),
    "bench6/3": (-0.33807165492736974, True),
    "bench7/0": (-0.531994239334871, True),
    "bench7/1": (-0.14074135989404196, True),
    "bench7/2": (-0.45508527790218056, True),
    "bench7/3": (-0.4956270335174294, True),
    "bench8/0": (-0.5257196290191398, True),
    "bench8/1": (-0.11569743662649822, True),
    "bench8/2": (-0.3837961002935634, True),
    "bench8/3": (-0.725448710329402, True),
    "bench9/0": (-0.4062050426855646, True),
    "bench9/1": (-0.1412745227891793, True),
    "bench9/2": (-0.6884013357584403, True),
    "bench9/3": (-0.576939405922635, True),
    "bench10/0": (-0.5407462889185012, True),
    "bench10/1": (-0.08330534923357343, True),
    "bench10/2": (-0.5411030349576139, True),
    "bench10/3": (-0.6897452713338716, True),
    "bench11/0": (-0.5164562191317434, True),
    "bench11/1": (-0.12621695112639278, True),
    "bench11/2": (-0.3860000632776672, True),
    "bench11/3": (-1.1674615931083603, True),
    "bench12/0": (-0.6410706316134169, True),
    "bench12/1": (-0.09856420451180478, True),
    "bench12/2": (-0.2850900076126522, True),
    "bench12/3": (-0.7959323049579808, True),
}

HARD_REFERENCE = {
    "double_well_0.5/-u^2/N2": (-0.15342469331152578, True),
    "double_well_0.5/-u^2/N3": (-0.11530965797746207, True),
    "double_well_0.5/-3u^2/N2": (-0.5950018568349899, True),
    "double_well_0.5/-3u^2/N3": (-0.4093995708702204, True),
    "double_well_0.5/-u^2+0.5u^4/N2": (-0.14217353735079694, True),
    "double_well_0.5/-u^2+0.5u^4/N3": (-0.10999705806257706, True),
    "double_well_0.5/-2u^2+0.1u^4/N2": (-0.34816848313090043, True),
    "double_well_0.5/-2u^2+0.1u^4/N3": (-0.2503149859381826, True),
    "double_well_1/-u^2/N2": (-0.5461977586403771, True),
    "double_well_1/-u^2/N3": (-0.4294737484818639, True),
    "double_well_1/-3u^2/N2": (-1.7736361733574004, True),
    "double_well_1/-3u^2/N3": (-1.3519590419668426, True),
    "double_well_1/-u^2+0.5u^4/N2": (-0.4273427628521555, True),
    "double_well_1/-u^2+0.5u^4/N3": (-0.364490320928596, True),
    "double_well_1/-2u^2+0.1u^4/N2": (-1.109106254654425, True),
    "double_well_1/-2u^2+0.1u^4/N3": (-0.8656772163194326, True),
    "double_well_1.7/-u^2/N2": (-1.5359277747496216, True),
    "double_well_1.7/-u^2/N3": (-1.221156434095757, True),
    "double_well_1.7/-3u^2/N2": (-4.742967426240176, True),
    "double_well_1.7/-3u^2/N3": (-3.727033002797936, True),
    "double_well_1.7/-u^2+0.5u^4/N2": (-0.7677862351704906, True),
    "double_well_1.7/-u^2+0.5u^4/N3": (-0.7519099903531095, True),
    "double_well_1.7/-2u^2+0.1u^4/N2": (-2.9225177312497985, True),
    "double_well_1.7/-2u^2+0.1u^4/N3": (-2.356797576419298, True),
    "three_well/-u^2/N2": (-1.8032809944409223, True),
    "three_well/-u^2/N3": (-1.267305991830211, True),
    "three_well/-3u^2/N2": (-6.1726376005951105, True),
    "three_well/-3u^2/N3": (-4.703051826480899, True),
    "three_well/-u^2+0.5u^4/N2": (-0.6600870885464344, True),
    "three_well/-u^2+0.5u^4/N3": (-0.5547842858635101, True),
    "three_well/-2u^2+0.1u^4/N2": (-3.6042098265047438, True),
    "three_well/-2u^2+0.1u^4/N3": (-2.7739715962630207, True),
    "convex/-u^2/N2": (1.5238344467911247e-34, True),
    "convex/-u^2/N3": (1.1368559446247481e-34, True),
    "convex/-3u^2/N2": (3.2821637699108894e-31, True),
    "convex/-3u^2/N3": (2.6993026602879312e-33, True),
    "convex/-u^2+0.5u^4/N2": (1.8415292982598228e-34, True),
    "convex/-u^2+0.5u^4/N3": (1.2243147948792184e-34, True),
    "convex/-2u^2+0.1u^4/N2": (3.232398729568276e-33, True),
    "convex/-2u^2+0.1u^4/N3": (4.78343434125786e-34, True),
}


def _spec_potentials(label, problems):
    # the W and G of each problem, "<label>/<problem>/W" and ".../G"
    out = {}
    for name, build in problems.items():
        spec = build()
        out[f"{label}/{name}/W"], out[f"{label}/{name}/G"] = spec.W, spec.G
    return out


def _potentials():
    pots = {**_spec_potentials("MONOTONE", MONOTONE),
            **_spec_potentials("HARD", HARD)}
    pots.update({f"double_well_{a:g}": _double_well(a) for a in (0.5, 1, 1.7)})
    pots["three_well"] = three_well()
    pots.update({f"sampled_{s}": random_even_sampled(s) for s in range(39)})
    return pots


def potential_digests():
    """``{"<potential>:<order>": sha256 hex}`` over the 225 potentials
    and the orders 0 (W), 1 (W') and 2 (W'').

    A digest covers the values at 401 points over [-2T, 2T], the cut
    points (the breakpoints, or every sample node), +-0.0, +-1e-300 and
    +-inf, from one array call and then from one Python float at a time.
    """
    digests = {}
    for name, W in _potentials().items():
        T = W.domain_halfwidth
        cuts = W.samples[0] if W.kind == "sampled" else W.breakpoints
        pts = np.concatenate([np.linspace(-2.0 * T, 2.0 * T, 401), cuts,
                              [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf]])
        for order in range(3):
            at = (W.eval if order == 0
                  else functools.partial(W.derivative, order=order))
            h = hashlib.sha256(np.asarray(at(pts), dtype=float).tobytes())
            h.update(np.array([at(x) for x in pts.tolist()]).tobytes())
            digests[f"{name}:{order}"] = h.hexdigest()
    return digests


# The disc fields: ``DiscField.random_smooth(n, R, seed)`` on 42
# geometries, seven grid sizes (one block of cell rows, short last
# blocks, rims that borrow across a block edge) times six radii
DISC_FIELDS = {f"disc/n{n}/R{radius:g}/seed{seed}": (n, radius, seed)
               for n in (33, 35, 65, 129, 257, 259, 513)
               for radius in (0.3, 0.5, 1.0, 1.7, 2.0, 10.0)
               for seed in (0, 1, 7)}


def disc_digests():
    """``{"disc/n<n>/R<R>/seed<seed>": sha256 hex}`` over ``DISC_FIELDS``.

    A digest covers the field's planar energy under the prototype's W and
    G at its radius, with W and with its envelope, the lhs, rhs and
    per-ray energies of the 16-ray check, and the colinearity defect.
    """
    specs = {}
    digests = {}
    for name, (n, radius, seed) in DISC_FIELDS.items():
        if radius not in specs:
            specs[radius] = dataclasses.replace(make_prototype_spec(),
                                                radius=radius)
        spec = specs[radius]
        fld = DiscField.random_smooth(n, radius, seed)
        rep = averaged_ray_energy_check(fld, spec, n_thetas=16)
        h = hashlib.sha256(np.array([
            energy_2d(fld, spec), energy_2d(fld, spec, use_envelope=True),
            rep.lhs, rep.rhs, colinearity_defect(fld)]).tobytes())
        h.update(rep.per_theta.tobytes())
        digests[name] = h.hexdigest()
    return digests


def _bench_text(name):
    return emit_spec_text(_bench_spec(name))


# The CLI matrix: the conftest prototype, m0 and convex spec texts, the
# three-well W under G2, and the ``solve`` workload's inputs of bench
# seeds 1-3, each run through 12 commands. ``{csv}`` is the profile CSV
# the first command writes and the fourth checks; ``{field}`` is a
# 33-node field CSV at the spec's radius, and ``{marked}`` the same table
# under a ``# radrelax csv 1`` line.
CLI_SPECS = {"prototype": lambda: PROTOTYPE_INI, "m0": lambda: M0_INI,
             "convex": lambda: CONVEX_INI,
             "three_well": lambda: emit_spec_text(_three_well_g2())}
CLI_SPECS.update({f"bench{s}/{k}": functools.partial(_bench_text,
                                                    f"bench{s}/{k}")
                  for s in (1, 2, 3) for k in range(4)})

CLI_COMMANDS = {
    "solve_csv": ("solve", "--profile-csv", "{csv}"),
    "solve_oracle": ("solve", "--oracle", "--grid-points", "256"),
    "verify": ("verify",),
    "verify_csv": ("verify", "--profile-csv", "{csv}"),
    "oracle": ("oracle", "--u-levels", "40"),
    "envelope": ("envelope",),
    "envelope_csv": ("envelope", "--format", "csv"),
    "symmetry": ("symmetry", "--random-fields", "2"),
    "symmetry_field": ("symmetry", "--field-csv", "{field}", "--rays", "8"),
    "symmetry_marked_field": ("symmetry", "--field-csv", "{marked}",
                              "--rays", "8"),
    "symmetry_ray_csv": ("symmetry", "--profile-csv", "{csv}", "--rays", "8"),
    "symmetry_csv": ("symmetry", "--format", "csv", "--rays", "8"),
}

CLI_MATRIX = {f"{spec}:{cmd}": (spec, cmd)
              for spec in CLI_SPECS for cmd in CLI_COMMANDS}


def _blanked(obj, blank):
    # obj with the value of every key named in blank set to None; a name
    # "rec.key" blanks key only in a dict whose "name" is rec
    if isinstance(obj, dict):
        rec = obj.get("name")
        return {k: None if k in blank or f"{rec}.{k}" in blank
                else _blanked(v, blank) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_blanked(v, blank) for v in obj]
    return obj


def cli_matrix_digests(workdir, runs=None, blank=()):
    """Run ``CLI_MATRIX`` (or the named runs of it, in its order) through
    ``radrelax.cli.main`` in process, one directory per spec under
    workdir (which starts empty), and return ``{run: sha256 hex}``.

    A run's digest covers its exit code, stdout, stderr and every file
    its directory gains, with workdir written as ``<dir>``. In a file or
    stdout that parses as JSON, the keys named in blank are set to null
    first (see ``_blanked``), so a comparison can leave out fields it
    expects to change.
    """
    from radrelax.cli import main

    names = [r for r in CLI_MATRIX if runs is None or r in runs]
    workdir = str(workdir)

    def canonical(text):
        text = text.replace(workdir, "<dir>")
        if blank:
            try:
                text = json.dumps(_blanked(json.loads(text), blank),
                                  sort_keys=True, indent=2)
            except ValueError:
                pass
        return text

    digests = {}
    for run in names:
        spec, cmd = CLI_MATRIX[run]
        rundir = os.path.join(workdir, spec)
        os.makedirs(rundir, exist_ok=True)
        spec_path, field, marked = (os.path.join(rundir, name) for name in
                                    ("spec.ini", "field.csv", "marked.csv"))
        text = CLI_SPECS[spec]()
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        radius = parse_spec_text(text).radius
        write_field_csv(DiscField.random_smooth(33, radius, seed=1), field)
        with open(field, encoding="utf-8") as src, \
                open(marked, "w", encoding="utf-8") as fh:
            fh.write("# radrelax csv 1\n" + src.read())
        before = set(os.listdir(rundir))
        out_path = os.path.join(rundir, f"{cmd}.out")
        argv = [a.format(csv=os.path.join(rundir, "profile.csv"),
                         field=field, marked=marked)
                for a in CLI_COMMANDS[cmd]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv + ["--spec", spec_path, "--out", out_path])
        h = hashlib.sha256(f"exit {code}\n".encode())
        for text in (stdout.getvalue(), stderr.getvalue()):
            h.update(canonical(text).encode() + b"\0")
        for name in sorted(set(os.listdir(rundir)) - before):
            with open(os.path.join(rundir, name), encoding="utf-8") as fh:
                h.update(name.encode() + b"\0"
                         + canonical(fh.read()).encode() + b"\0")
        digests[run] = h.hexdigest()
    return digests


def matrix_digest(digests):
    """The first 16 hex digits of the SHA-256 of ``digests`` (a ``{run:
    digest}`` dict, as ``cli_matrix_digests`` returns) as sorted-key JSON;
    a change to any run's digest changes it."""
    text = json.dumps(digests, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="Digests of the outputs of the CLI matrix, of the "
        "potentials' values and of the planar disc checks.")
    parser.add_argument("--save", metavar="FILE",
                        help="write the {name: digest} JSON to FILE")
    parser.add_argument("--diff", metavar="FILE",
                        help="print the names whose digest differs from "
                        "FILE's, then both triples of folded digests")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        digests = cli_matrix_digests(workdir)
    kernel = potential_digests()
    disc = disc_digests()

    def folded(found):
        # the matrix, potential and disc digests of {name: digest}
        def group(k):
            return 0 if k in CLI_MATRIX else 2 if k in DISC_FIELDS else 1
        return tuple(matrix_digest({k: v for k, v in found.items()
                                    if group(k) == g}) for g in range(3))

    if args.diff is None:
        for part in (digests, kernel, disc):
            print(matrix_digest(part))
    digests.update(kernel)
    digests.update(disc)
    if args.diff is not None:
        with open(args.diff, encoding="utf-8") as fh:
            saved = json.load(fh)
        for name in sorted(saved.keys() | digests.keys()):
            if saved.get(name) != digests.get(name):
                print(name)
        print(*folded(saved), args.diff)
        print(*folded(digests), "current")
    if args.save is not None:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
