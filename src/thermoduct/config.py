"""Run configuration: a line-based ``key = value`` format with sections.

The format is deliberately small: ``[section]`` headers, one ``key =
value`` pair per line, ``#`` comment lines and blank lines.  Parsing
validates against a fixed schema, collects every violation with its line
number instead of failing fast, fills defaults, and then rejects the key
combinations that a run would reject or ignore; a key that the chosen
option does not read (``UNREAD``) must stay at its default.  ``emit``
writes the canonical form (fixed section and key order, lossless float
formatting), so parse -> emit -> parse is a fixpoint.  Configuration
names become objects in one place, the builders at the end of this
module.
"""

import math
from dataclasses import dataclass

from .certificates import check_exponents
from .fields import constant_scalar, span_scalar
from .material import clamped_boussinesq, constant_density, make_material
from .mesh import build_channel_mesh
from .spaces import build_spaces
from .spectrum import admissible_sr, default_bounds
from .verification import CASES

__all__ = ["ConfigError", "parse_config", "emit_config", "build_model",
           "build_body_force", "build_problem_parts"]


class ConfigError(ValueError):
    """Carries every violation as (line, message); line None for file-level."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [
            f"line {ln}: {msg}" if ln is not None else msg for ln, msg in self.errors
        ]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


def _at_least_one(v):
    return v >= 1


@dataclass(frozen=True)
class _Key:
    typ: type
    default: object = None
    required: bool = False
    check: object = None
    choices: tuple = None
    hint: str = ""


# section and key order here is the canonical emission order
SCHEMA = {
    "geometry": {
        "Lx": _Key(float, required=True, check=_positive, hint="> 0"),
        "Ly": _Key(float, required=True, check=_positive, hint="> 0"),
        "Lz": _Key(float, required=True, check=_positive, hint="> 0"),
        "nx": _Key(int, required=True, check=_at_least_one, hint=">= 1"),
        "ny": _Key(int, required=True, check=_at_least_one, hint=">= 1"),
        "nz": _Key(int, required=True, check=_at_least_one, hint=">= 1"),
    },
    "material": {
        "nu": _Key(float, required=True, check=_positive, hint="> 0"),
        "rho0": _Key(float, required=True, check=_positive, hint="> 0"),
        "c_v": _Key(float, required=True, check=_positive, hint="> 0"),
        "lambda": _Key(float, required=True, check=_positive, hint="> 0"),
        "alpha1": _Key(float, required=True, check=_nonnegative, hint=">= 0"),
        "law": _Key(str, default="clamped_boussinesq",
                    choices=("clamped_boussinesq", "constant")),
        "alpha_v": _Key(float, default=0.1, check=_nonnegative, hint=">= 0"),
        "theta_ref": _Key(float, default=0.0),
        "rho_min_factor": _Key(float, default=0.5, check=lambda v: 0 < v <= 1,
                               hint="in (0, 1]"),
    },
    "body_force": {
        "field": _Key(str, default="zero", choices=("zero", "constant")),
        "gx": _Key(float, default=0.0),
        "gy": _Key(float, default=0.0),
        "gz": _Key(float, default=0.0),
    },
    "temperature_bc": {
        "field": _Key(str, default="constant",
                      choices=("constant", "span_y", "span_z")),
        "theta0": _Key(float, default=0.0),
        "delta": _Key(float, default=0.0),
    },
    "solver": {
        "outer_tol": _Key(float, default=1e-10, check=_positive, hint="> 0"),
        "inner_tol": _Key(float, default=1e-12, check=_positive, hint="> 0"),
        "max_outer": _Key(int, default=30, check=_at_least_one, hint=">= 1"),
        "max_inner": _Key(int, default=50, check=_at_least_one, hint=">= 1"),
    },
    "certificates": {
        "samples": _Key(int, default=200, check=lambda v: v >= 100, hint=">= 100"),
        "s": _Key(float, default=2.0, check=_positive, hint="> 0"),
        "r": _Key(float, default=2.0, check=_positive, hint="> 0"),
    },
    "spectrum": {
        "re_min": _Key(float, default=0.02),
        "re_max": _Key(float, default=1.95),
        "im_max": _Key(float, default=5.0, check=_positive, hint="> 0"),
        "k_max": _Key(int, default=10, check=_nonnegative, hint=">= 0"),
        "samples_csv": _Key(bool, default=False),
    },
    "mms": {
        "study": _Key(str, default="stokes", choices=("stokes", "heat", "coupled")),
        "case": _Key(str, default="trig_smooth", choices=tuple(CASES)),
        "levels": _Key(int, default=3, check=lambda v: 1 <= v <= 6, hint="in [1, 6]"),
    },
    "run": {
        "seed": _Key(int, default=0, check=_nonnegative, hint=">= 0"),
        "out_dir": _Key(str, default="out"),
    },
}


def _parse_value(raw, key_spec):
    if key_spec.typ is bool:
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"expected a boolean, got '{raw}'")
    if key_spec.typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got '{raw}'") from None
    if key_spec.typ is float:
        try:
            val = float(raw)
        except ValueError:
            raise ValueError(f"expected a number, got '{raw}'") from None
        if not math.isfinite(val):
            raise ValueError(f"expected a finite number, got '{raw}'")
        return val
    return raw


# the keys of its section that each choice does not read; they stay at their defaults
UNREAD = {
    ("material", "law", "constant"): ("alpha_v", "theta_ref", "rho_min_factor"),
    ("body_force", "field", "zero"): ("gx", "gy", "gz"),
    ("temperature_bc", "field", "constant"): ("delta",),
    ("mms", "study", "coupled"): ("case", "levels"),  # one case, on the base mesh
}


def _combination_errors(values):
    """(section, keys, message) per key combination a run would reject or ignore."""
    c, sp = values["certificates"], values["spectrum"]
    found = []
    keys = ("s",)
    try:
        admissible_sr(c["s"])
        keys = ("r", "s")
        check_exponents(c["s"], c["r"])
    except ValueError as exc:
        found.append(("certificates", keys, str(exc)))
    if sp["re_min"] >= sp["re_max"]:
        found.append(("spectrum", ("re_min", "re_max"),
                      f"{sp['re_min']} must be below re_max = {sp['re_max']}"))
    elif sp["re_min"] > 1.0:
        found.append(("spectrum", ("re_min",),
                      f"{sp['re_min']} starts above z = 1, which the strip must hold"))
    mu_M, _ = default_bounds()
    if sp["re_max"] < mu_M:
        found.append(("spectrum", ("re_max",),
                      f"{sp['re_max']} stops below mu_M = {mu_M:.6f}, which the strip must reach"))
    for (sname, choice, option), keys in UNREAD.items():
        for key in keys:
            default = SCHEMA[sname][key].default
            if values[sname][choice] == option and values[sname][key] != default:
                found.append((sname, (key,), f"{choice} = {option} does not read {key}; "
                                             f"leave it at {_emit_value(default)}"))
    return found


def parse_config(text):
    """Parse and validate to a dict of sections; raises ConfigError listing
    every violation, and checks key combinations once every key is valid."""
    errors = []
    values = {s: {} for s in SCHEMA}
    seen = {s: {} for s in SCHEMA}  # key -> line
    section_lines = {}
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMA:
                errors.append((ln, f"unknown section [{name}]"))
                section = None
            else:
                section = name
                section_lines[name] = ln
            continue
        if "=" not in line:
            errors.append((ln, f"expected 'key = value', got '{line}'"))
            continue
        if section is None:
            errors.append((ln, "key outside of any known section"))
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        spec = SCHEMA[section].get(key)
        if spec is None:
            errors.append((ln, f"unknown key '{key}' in section [{section}]"))
            continue
        if key in seen[section]:
            errors.append((ln, f"duplicate key '{key}' in section [{section}]"))
            continue
        seen[section][key] = ln
        try:
            val = _parse_value(raw_val, spec)
        except ValueError as exc:
            errors.append((ln, f"{section}.{key}: {exc}"))
            continue
        if spec.choices is not None and val not in spec.choices:
            errors.append(
                (ln, f"{section}.{key}: '{val}' not one of {list(spec.choices)}")
            )
            continue
        if spec.check is not None and not spec.check(val):
            errors.append((ln, f"{section}.{key}: value {val} must be {spec.hint}"))
            continue
        values[section][key] = val

    for sname, keys in SCHEMA.items():
        for key, spec in keys.items():
            if key in seen[sname]:
                continue
            if spec.required:
                errors.append(
                    (section_lines.get(sname), f"missing required key {sname}.{key}")
                )
            else:
                values[sname][key] = spec.default

    if not errors:
        # defaults always pass, so one of the keys is set; name its line
        for sname, keys, msg in _combination_errors(values):
            line = next(seen[sname][k] for k in keys if k in seen[sname])
            errors.append((line, f"{sname}.{keys[0]}: {msg}"))
    if errors:
        raise ConfigError(errors)
    return values


def _emit_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_config(config):
    """Canonical text form; emit(parse(text)) is a normalization."""
    lines = []
    for sname, keys in SCHEMA.items():
        lines.append(f"[{sname}]")
        for key in keys:
            lines.append(f"{key} = {_emit_value(config[sname][key])}")
        lines.append("")
    return "\n".join(lines)


# -- builders -------------------------------------------------------------------


def build_model(config):
    m = config["material"]
    if m["law"] == "constant":
        law = constant_density(m["rho0"])
    else:
        law = clamped_boussinesq(
            m["rho0"],
            alpha_v=m["alpha_v"],
            theta_ref=m["theta_ref"],
            rho_min=m["rho_min_factor"] * m["rho0"],
        )
    return make_material(nu=m["nu"], cV=m["c_v"], lam=m["lambda"], alpha1=m["alpha1"],
                         law=law)


def build_body_force(config):
    """The constant body force (gx, gy, gz); zeros for field = zero."""
    bf = config["body_force"]
    if bf["field"] == "zero":
        return (0.0, 0.0, 0.0)
    return (bf["gx"], bf["gy"], bf["gz"])


def build_problem_parts(config):
    """(space, model, g, theta_D field) for ``CoupledProblem`` from a configuration."""
    geo = config["geometry"]
    mesh = build_channel_mesh(
        geo["Lx"], geo["Ly"], geo["Lz"], geo["nx"], geo["ny"], geo["nz"]
    )
    space = build_spaces(mesh)
    bc = config["temperature_bc"]
    if bc["field"] == "constant":
        theta_D = constant_scalar(bc["theta0"])
    else:
        axis = {"span_y": 1, "span_z": 2}[bc["field"]]
        theta_D = span_scalar(axis, bc["theta0"], bc["delta"], mesh.dims[axis])
    return space, build_model(config), build_body_force(config), theta_D
