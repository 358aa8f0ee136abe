"""Problem-spec files: a small INI dialect, parsed by hand.

Sections and keys are fixed; anything unrecognized is a hard error that
cites the offending line, so a typo cannot silently change a problem.
The canonical emitter round-trips: ``parse_spec_text(emit_spec_text(s))``
reconstructs an equal ``ProblemSpec``.

Format::

    [problem]
    dimension = 2
    radius = 1.0
    p = 4.0

    [W]
    # kind is poly_in_t_squared or piecewise_poly; a piecewise kind
    # separates the coeffs of its pieces by ";" and adds breakpoints
    kind = poly_in_t_squared
    coeffs = 1.0, -2.0, 1.0

    [G]
    kind = piecewise_poly
    coeffs = 0.0, 0.0, -1.0
    # shape is none, G2 or G2strict
    shape = G2

Comments take a whole line and start with ``#`` or ``;``.  Every number
must be finite.  ``p`` must be W's growth exponent, its degree in t (of
the outer piece for a piecewise W).  The sampled potential kind holds
imported data and has no file syntax.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from .potentials import Potential1D, ProblemSpec, _require_coercive, _trim

__all__ = ["SpecFileError", "parse_spec", "parse_spec_text", "emit_spec_text"]

_SECTION_KEYS = {
    "problem": ("dimension", "radius", "p"),
    "W": ("kind", "coeffs", "breakpoints"),
    "G": ("kind", "coeffs", "breakpoints", "shape"),
}
# every section is required
_REQUIRED_KEYS = {
    "problem": ("dimension", "radius", "p"),
    "W": ("kind", "coeffs"),
    "G": ("kind", "coeffs"),
}
_SHAPE_TOKENS = {"none": "none", "G2": "G2", "G2strict": "G2_strict"}
_SHAPE_EMIT = {v: k for k, v in _SHAPE_TOKENS.items()}


class SpecFileError(ValueError):
    """Raised for any malformed spec file; message cites file and line."""


def _err(src: str, line: int, msg: str) -> SpecFileError:
    return SpecFileError(f"{src}:{line}: {msg}")


def _scan(text: str, src: str) -> Dict[str, Dict[str, Tuple[str, int]]]:
    """Split into sections of key -> (raw value, line number)."""
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise _err(src, lineno, f"unterminated section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise _err(src, lineno, f"unknown section [{name}]")
            if name in sections:
                raise _err(src, lineno, f"duplicate section [{name}]")
            sections[name] = {}
            section = name
            continue
        if section is None:
            raise _err(src, lineno, f"key before any section: {line!r}")
        if "=" not in line:
            raise _err(src, lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[section]:
            raise _err(src, lineno, f"unknown key {key!r} in section [{section}]")
        if key in sections[section]:
            raise _err(src, lineno, f"duplicate key {key!r} in section [{section}]")
        sections[section][key] = (value, lineno)
    for name in _REQUIRED_KEYS:
        if name not in sections:
            raise SpecFileError(f"{src}: missing required section [{name}]")
    for name, keys in _REQUIRED_KEYS.items():
        for key in keys:
            if key not in sections[name]:
                raise SpecFileError(
                    f"{src}: section [{name}] is missing required key {key!r}")
    return sections


def _float(src: str, entry: Tuple[str, int], what: str) -> float:
    value, lineno = entry
    try:
        out = float(value)
    except ValueError:
        raise _err(src, lineno, f"{what}: not a number: {value!r}") from None
    if not math.isfinite(out):
        raise _err(src, lineno, f"{what}: not finite: {value!r}")
    return out


def _int(src: str, entry: Tuple[str, int], what: str) -> int:
    value, lineno = entry
    try:
        return int(value)
    except ValueError:
        raise _err(src, lineno, f"{what}: not an integer: {value!r}") from None


def _float_list(src: str, entry: Tuple[str, int], what: str) -> tuple:
    value, lineno = entry
    items = [s.strip() for s in value.split(",") if s.strip()]
    if not items:
        raise _err(src, lineno, f"{what}: empty list")
    return tuple(_float(src, (item, lineno), what) for item in items)


def _potential(src: str, name: str, sec: Dict[str, Tuple[str, int]],
               force_even: bool) -> Potential1D:
    kind, kind_line = sec["kind"]
    if kind == "sampled":
        raise _err(src, kind_line,
                   "sampled potentials hold imported data and cannot be "
                   "written in a spec file")
    if kind not in ("poly_in_t_squared", "piecewise_poly"):
        raise _err(src, kind_line, f"unknown potential kind {kind!r}")
    coeffs_raw, coeffs_line = sec["coeffs"]
    if kind == "poly_in_t_squared":
        if ";" in coeffs_raw:
            raise _err(src, coeffs_line,
                       "poly_in_t_squared takes a single coefficient list")
        coeffs = _float_list(src, sec["coeffs"], f"[{name}] coeffs")
        if "breakpoints" in sec:
            raise _err(src, sec["breakpoints"][1],
                       "breakpoints only apply to piecewise_poly")
        pot_args = dict(kind=kind, coefficients=coeffs)
    else:
        groups = []
        for part in coeffs_raw.split(";"):
            groups.append(_float_list(src, (part, coeffs_line),
                                      f"[{name}] coeffs"))
        breaks: tuple = ()
        if "breakpoints" in sec:
            breaks = _float_list(src, sec["breakpoints"],
                                 f"[{name}] breakpoints")
        if len(groups) != len(breaks) + 1:
            raise _err(src, coeffs_line,
                       f"{len(breaks)} breakpoints need {len(breaks) + 1} "
                       f"coefficient groups, got {len(groups)}")
        pot_args = dict(kind=kind, coefficients=tuple(groups),
                        breakpoints=breaks, even=force_even)
    try:
        pot = Potential1D(**pot_args)
    except ValueError as exc:
        raise _err(src, kind_line, f"[{name}]: {exc}") from None
    if name == "W":
        # every command needs a coercive W; a bad one is a parse error
        try:
            _require_coercive(pot)
        except ValueError as exc:
            raise _err(src, coeffs_line, f"[W]: {exc}") from None
    return pot


def _growth_exponent(W: Potential1D) -> int:
    # W's degree in t: twice that of P for W = P(t^2), else the outer
    # piece's
    if W.kind == "poly_in_t_squared":
        return 2 * (len(_trim(W.coefficients)) - 1)
    return len(_trim(W.coefficients[-1])) - 1


def parse_spec_text(text: str, src: str = "<string>") -> ProblemSpec:
    """Parse spec text; see parse_spec."""
    sections = _scan(text, src)

    prob = sections["problem"]
    dimension = _int(src, prob["dimension"], "dimension")
    if dimension < 2:
        raise _err(src, prob["dimension"][1],
                   f"dimension must be at least 2, got {dimension}")
    radius = _float(src, prob["radius"], "radius")
    if not radius > 0:
        raise _err(src, prob["radius"][1], "radius must be positive")
    p = _float(src, prob["p"], "p")
    if not p > 1:
        raise _err(src, prob["p"][1], "p must exceed 1")

    W = _potential(src, "W", sections["W"], force_even=True)
    degree = _growth_exponent(W)
    if p != degree:
        raise _err(src, prob["p"][1], f"p = {p!r} is not W's growth "
                   f"exponent, its degree in t ({degree})")
    G = _potential(src, "G", sections["G"], force_even=False)

    shape = "none"
    if "shape" in sections["G"]:
        token, line = sections["G"]["shape"]
        if token not in _SHAPE_TOKENS:
            raise _err(src, line,
                       f"shape must be one of none, G2, G2strict; got {token!r}")
        shape = _SHAPE_TOKENS[token]

    try:
        return ProblemSpec(dimension, radius, p, W, G, shape_flag=shape)
    except ValueError as exc:
        raise SpecFileError(f"{src}: {exc}") from None


def parse_spec(path: str) -> ProblemSpec:
    """Read and parse a problem-spec file.

    Raises:
        SpecFileError: on any syntactic or semantic problem; the message
            cites the file and, where one exists, the line.
        OSError: if the file cannot be read.
    """
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read(), src=path)


def _fmt_floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def emit_spec_text(spec: ProblemSpec) -> str:
    """Canonical spec text for a ProblemSpec; parses back to an equal spec.

    Raises:
        ValueError: if either potential is of the sampled kind.
    """
    if spec.W.kind == "sampled" or spec.G.kind == "sampled":
        raise ValueError("sampled potentials cannot be written to a spec file")
    lines = [
        "[problem]",
        f"dimension = {spec.dimension}",
        f"radius = {repr(float(spec.radius))}",
        f"p = {repr(float(spec.p))}",
        "",
    ]
    for name, pot in (("W", spec.W), ("G", spec.G)):
        lines.append(f"[{name}]")
        lines.append(f"kind = {pot.kind}")
        if pot.kind == "poly_in_t_squared":
            lines.append(f"coeffs = {_fmt_floats(pot.coefficients)}")
        else:
            lines.append("coeffs = " + "; ".join(
                _fmt_floats(piece) for piece in pot.coefficients))
            if pot.breakpoints:
                lines.append(f"breakpoints = {_fmt_floats(pot.breakpoints)}")
        if name == "G":
            lines.append(f"shape = {_SHAPE_EMIT[spec.shape_flag]}")
        lines.append("")
    return "\n".join(lines)
