"""The benchmark's workloads: CLI inputs, output checks and expected spans.

Every workload runs one thermoduct CLI subcommand on a frozen copy of a
shipped demo configuration (``configs/``).  The checks read the artifacts a
run leaves in its output directory and return a list of problems; an empty
list means the run passed.

Reference values were produced by the seed commit.  REL_TOL admits the
~1e-14 relative rounding changes a refactor may make and nothing larger.
``d_theta_norm`` is the H1 norm of the last temperature update, about
2.8e-11 against a temperature of norm 2.8, so a rounding change of 1e-14 in
the iterates moves it by up to ~1e-3 of itself: it gets D_THETA_REL_TOL.
"""

import json
import math
from dataclasses import dataclass, field

import tracer as spans

REL_TOL = 1e-9
D_THETA_REL_TOL = 1e-2
DEFAULT_SEED = 0

SOLVE_REFERENCE = {
    "d_theta_norm": 2.803203289818774e-11,
    "min_flux": -0.5351150534129308,
    "inflow_fraction": 0.5166633404948084,
}
CERTIFY_SAMPLES = 100
# certify at seed 0 with 100 samples
CERTIFY_REFERENCE = {
    "C_b": 0.0032100263413840746,
    "C_d": 0.0031824159542681333,
    "C_e": 0.007547607193852131,
    "C_eps": 0.9780259162419092,
    "C_1": 0.049332530721319726,
    "beta": 0.24909804409140435,
    "R1": 0.05864030503312669,
    "R2": 0.1464282461860228,
}
# seed-independent: the solve that certify repeats
CERTIFY_STATE_REFERENCE = {
    "u1_norm": 16.962258087239018,
    "theta1_norm": 2.778072596773943,
    "g_norm": 19.400000000000013,
}
MMS_REFERENCE = {
    "u_L2": [0.30470776640545677, 0.047329113847650955, 0.005960998541523069],
    "u_H1": [4.353894090591581, 1.305293938779722, 0.3186300167087254],
    "p_L2": [3.997070996520218, 0.6731773293887915, 0.1518892012412271],
}
# acceptance criterion 03: observed orders on the finest pair of levels
MMS_MIN_ORDER = {"u_H1": 1.8, "u_L2": 2.5}


def _close(problems, name, got, want, rel=REL_TOL):
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= rel * abs(want)):
        problems.append(f"{name} = {got!r}, reference {want!r} (relative tolerance {rel:g})")


def _read_json(out, name, problems):
    try:
        with open(out / name, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {name}: {exc}")
        return None


def check_solve(out, seed):
    problems = []
    report = _read_json(out, "solve_report.json", problems)
    if report is None:
        return problems
    if report.get("outer_iterations") != 9:
        problems.append(f"outer_iterations = {report.get('outer_iterations')!r}, expected 9")
    for key in ("r_momentum", "r_heat"):
        value = report.get(key)
        if not (isinstance(value, float) and 0.0 <= value < 1e-10):
            problems.append(f"{key} = {value!r}, expected < 1e-10")
    for key, want in SOLVE_REFERENCE.items():
        rel = D_THETA_REL_TOL if key == "d_theta_norm" else REL_TOL
        _close(problems, key, report.get(key), want, rel)
    return problems


def check_certify(out, seed):
    problems = []
    report = _read_json(out, "certificate.json", problems)
    if report is None:
        return problems
    if not (report.get("smallness_ok") is True and report.get("uniqueness_ok") is True):
        problems.append("a certificate verdict is false")
    inputs = report.get("inputs", {})
    constants = inputs.get("constants", {})
    if constants.get("samples") != CERTIFY_SAMPLES or constants.get("seed") != seed:
        problems.append(f"certificate made with samples={constants.get('samples')!r}, "
                        f"seed={constants.get('seed')!r}")
    for key in ("C_b", "C_d", "C_e", "C_eps", "C_1"):
        value = constants.get(key)
        if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
            problems.append(f"{key} = {value!r}, expected finite and positive")
    for key, want in CERTIFY_STATE_REFERENCE.items():
        _close(problems, key, inputs.get(key), want)
    if seed == DEFAULT_SEED:
        values = {**constants, **report}
        for key, want in CERTIFY_REFERENCE.items():
            _close(problems, key, values.get(key), want)
    return problems


def check_mms(out, seed):
    problems = []
    report = _read_json(out, "mms_report.json", problems)
    if report is None:
        return problems
    if report.get("monotone") is not True:
        problems.append("errors are not monotone under refinement")
    orders = report.get("orders", {})
    for key, least in MMS_MIN_ORDER.items():
        finest = (orders.get(key) or [None])[-1]
        if not (isinstance(finest, float) and finest >= least):
            problems.append(f"finest-pair {key} order = {finest!r}, expected >= {least}")
    errors = report.get("errors", {})
    for key, want in MMS_REFERENCE.items():
        got = errors.get(key) or []
        if len(got) != len(want):
            problems.append(f"{key} has {len(got)} levels, expected {len(want)}")
            continue
        for level, (g, w) in enumerate(zip(got, want)):
            _close(problems, f"{key}[{level}]", g, w)
    return problems


@dataclass
class Workload:
    command: str          # thermoduct CLI subcommand
    config: str           # file in configs/
    check: object         # check(out_dir, seed) -> list of problems
    setup_end: str        # set-up ends when this first returns (see child.py)
    must_call: list = field(default_factory=list)  # spans a traced run must record


_SOLVE_SPANS = (
    spans.BUILD + spans.ASSEMBLE
    + ["forms.eval_velocity_grad", "forms.convection_load", "forms.discrete_norms",
       spans.FACTOR, spans.SADDLE_SOLVE, spans.SPD_SOLVE,
       spans.INNER, spans.HEAT, spans.RESIDUAL,
       "fixed_point.write_trace_csv", "io_vtk.write_state_vtk"]
)

WORKLOADS = {
    "channel_solve": Workload(
        "solve", "channel.cfg", check_solve, "cli.build_problem_parts",
        _SOLVE_SPANS + ["io_vtk.write_boundary_vtk"],
    ),
    "certify": Workload(
        "certify", "certify.cfg", check_certify, "cli.build_problem_parts",
        _SOLVE_SPANS + [spans.SAMPLER, spans.FIND_ROOTS, "forms.lp_norm_of_values",
                        "forms.field_load_scalar"],
    ),
    "mms_stokes": Workload(
        "mms", "mms_stokes.cfg", check_mms, "verification.build_spaces",
        spans.BUILD + ["forms.assemble_saddle", "forms.field_load_vector",
                       spans.FACTOR, spans.SADDLE_SOLVE],
    ),
}
