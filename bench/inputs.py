"""Seeded input generators for the benchmark.

Everything a workload feeds to radrelax is made here from the workload
seed: problem specs (written through ``specfile.emit_spec_text`` and
checked by a parse round trip), profile CSVs in the ``# radrelax csv 1``
format, sampled potentials and disc fields.  The same seed always gives
the same inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from radrelax import specfile
from radrelax.potentials import Potential1D, ProblemSpec

# The three-well W of the test suite: min((t^2-1)^2, (t^2-4)^2 + 0.1),
# whose pieces cross at t^2 = 151/60.  It drives the envelope's tangency
# refinement through two detachment components.
_THREE_WELL_BREAK = math.sqrt(151.0 / 60.0)


class InputError(RuntimeError):
    """A generated input failed its own consistency check."""


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one input stream of one workload seed."""
    return np.random.default_rng([seed, stream])


def double_well(a: float) -> Potential1D:
    """W(t) = (t^2 - a^2)^2, largest minimizer M = a."""
    return Potential1D(kind="poly_in_t_squared",
                       coefficients=(a ** 4, -2.0 * a * a, 1.0))


def three_well() -> Potential1D:
    bp = _THREE_WELL_BREAK
    return Potential1D(
        kind="piecewise_poly",
        coefficients=((16.1, 0.0, -8.0, 0.0, 1.0),
                      (1.0, 0.0, -2.0, 0.0, 1.0),
                      (16.1, 0.0, -8.0, 0.0, 1.0)),
        breakpoints=(-bp, bp),
        even=True,
    )


def prototype_spec() -> ProblemSpec:
    """W = (t^2 - 1)^2, G = -u^2 on the unit disc (N = 2)."""
    return ProblemSpec(
        dimension=2, radius=1.0, p=4.0, W=double_well(1.0),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -1.0)),
        shape_flag="G2")


def _scale(q: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * q)


def latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims with one point in each n-th of every axis."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (strata + rng.uniform(size=(n, dims))) / n


def double_well_spec(q, dimension: int) -> ProblemSpec:
    """W = (t^2 - a^2)^2, G = -c u^2 (declared G2).

    ``q`` in [0, 1)^3 places a in [0.9, 1.1], c in [0.75, 1.25] and the
    radius in [0.9, 1.1].
    """
    a, c, radius = (_scale(q[0], 0.9, 1.1), _scale(q[1], 0.75, 1.25),
                    _scale(q[2], 0.9, 1.1))
    return ProblemSpec(
        dimension=dimension, radius=radius, p=4.0, W=double_well(a),
        G=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, -c)),
        shape_flag="G2")


def convex_spec(q, dimension: int) -> ProblemSpec:
    """The M = 0 case: W = b t^2 + t^4, G = -c u (declared G2strict).

    ``q`` in [0, 1)^3 places b in [0.5, 1.5], c in [0.75, 1.25] and the
    radius in [0.9, 1.1].
    """
    b, c, radius = (_scale(q[0], 0.5, 1.5), _scale(q[1], 0.75, 1.25),
                    _scale(q[2], 0.9, 1.1))
    return ProblemSpec(
        dimension=dimension, radius=radius, p=4.0,
        W=Potential1D(kind="poly_in_t_squared", coefficients=(0.0, b, 1.0)),
        G=Potential1D(kind="piecewise_poly", coefficients=((0.0, -c),)),
        shape_flag="G2_strict")


def write_spec(path: Path, spec: ProblemSpec) -> ProblemSpec:
    """Write spec as INI text and return it parsed back from the file.

    Raises:
        InputError: if the parsed spec or its re-emitted text differs.
    """
    text = specfile.emit_spec_text(spec)
    path.write_text(text, encoding="utf-8")
    parsed = specfile.parse_spec(str(path))
    if parsed != spec or specfile.emit_spec_text(parsed) != text:
        raise InputError(f"{path}: spec does not survive the round trip")
    return parsed


def random_slopes_profile(rng: np.random.Generator, nodes: np.ndarray,
                          bound: float = 1.6) -> np.ndarray:
    """Nodal values with per-cell slopes uniform in [-bound, bound], u(R) = 0."""
    slopes = rng.uniform(-bound, bound, len(nodes) - 1)
    u = np.concatenate([[0.0], np.cumsum(slopes * np.diff(nodes))])
    return u - u[-1]


def cone_profile(M: float, nodes: np.ndarray) -> np.ndarray:
    """u = M (R - r): slope exactly -M, the corner profile."""
    return M * (nodes[-1] - nodes)


def write_profile_csv(path: Path, nodes: np.ndarray, u: np.ndarray) -> None:
    """Profile as ``# radrelax csv 1`` with r,u,du_dr columns."""
    du = np.diff(u) / np.diff(nodes)
    du = np.append(du, du[-1])
    lines = ["# radrelax csv 1", "r,u,du_dr"]
    lines += [f"{float(r)!r},{float(v)!r},{float(d)!r}"
              for r, v, d in zip(nodes, u, du)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_even_samples(rng: np.random.Generator) -> tuple:
    """Even sampled potential: quartic tail plus tapered Gaussian bumps.

    Returns the (t, w) sample tuples on a symmetric uniform grid of up to
    about 2000 nodes; the bumps vanish past 0.8 T so the tail rises.
    """
    half = int(rng.integers(64, 999))
    T = float(rng.uniform(1.0, 3.0))
    tpos = np.linspace(0.0, T, half + 1)
    bumps = np.zeros_like(tpos)
    for _ in range(int(rng.integers(1, 6))):
        centre = rng.uniform(0.0, 0.7 * T)
        width = rng.uniform(0.05, 0.3) * T
        bumps += rng.uniform(-1.0, 1.0) * np.exp(-((tpos - centre) / width) ** 2)
    taper = np.clip((0.8 * T - tpos) / (0.1 * T), 0.0, 1.0)
    wpos = (tpos / T) ** 4 + bumps * taper
    t = np.concatenate([-tpos[:0:-1], tpos])
    w = np.concatenate([wpos[:0:-1], wpos])
    return tuple(t), tuple(w)


def smooth_field(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n-by-n nodal values: four Gaussian bumps tapered to zero at the rim."""
    x = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = np.zeros((n, n))
    for _ in range(4):
        rho = 0.6 * radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        sigma = rng.uniform(0.15, 0.35) * radius
        vals += rng.uniform(-1.0, 1.0) * np.exp(
            -((X - rho * math.cos(phi)) ** 2 + (Y - rho * math.sin(phi)) ** 2)
            / (2.0 * sigma * sigma))
    return vals * np.clip(1.0 - (X * X + Y * Y) / radius ** 2, 0.0, None)
