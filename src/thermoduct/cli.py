"""Command-line entry point.

Subcommands: ``solve`` (coupled fixed-point run), ``certify`` (solve plus
smallness/uniqueness certificates), ``spectrum`` (corner spectrum) and
``mms`` (manufactured-solution studies).  Artifacts are CSV/JSON (and VTK
for solution fields) in the output directory; given the same
configuration and seed the CSV/JSON artifacts are byte-identical across
runs, so reports carry no timing or host information.

Exit codes: 0 success, 2 configuration error, 3 solver divergence,
4 certificate verdict failure, 5 internal error.  A divergence or a
failed linear solve that completed outer steps leaves their records in
``trace.csv``.  Running out of memory is an internal error whose message
names the command, the ``[geometry]`` divisions and the innermost
thermoduct function that was running.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import certificates as cert
from . import spectrum as spec
from . import verification as verif
from .config import (SCHEMA, ConfigError, build_body_force, build_model,
                     build_problem_parts, emit_config, parse_config)
from .fixed_point import CoupledProblem, DivergenceError, outer_loop, write_trace_csv
from .io_vtk import write_boundary_vtk, write_state_vtk
from .linsolve import LinearSolveError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CERTIFICATE = 4
EXIT_INTERNAL = 5

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _load(args):
    seed = SCHEMA["run"]["seed"]
    if args.seed is not None and not seed.check(args.seed):
        raise ConfigError([(None, f"--seed: value {args.seed} must be {seed.hint}")])
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([(None, f"{args.config}: not UTF-8 text ({exc})")]) from exc
    config = parse_config(text)
    if args.seed is not None:
        config["run"]["seed"] = args.seed
    if args.out is not None:
        config["run"]["out_dir"] = args.out
    out = Path(config["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    # echo the normalized configuration next to the artifacts
    (out / "config.normalized.txt").write_text(emit_config(config), encoding="utf-8")
    return config, out


def _solve(config, out):
    """The coupled solve of ``config``; writes ``trace.csv`` and ``solution.vtk``."""
    problem = CoupledProblem(*build_problem_parts(config))
    state, records = outer_loop(problem, **config["solver"])
    write_trace_csv(records, out / "trace.csv")
    write_state_vtk(problem.space, state, out / "solution.vtk")
    return problem, state, records


def run_solve(config, out):
    problem, state, records = _solve(config, out)
    write_boundary_vtk(problem.space.mesh, out / "solution_boundary.vtk")
    last = records[-1]
    flow = last.flow
    _write_json(
        out / "solve_report.json",
        {
            "outer_iterations": len(records),
            "d_theta_norm": last.d_theta_norm,
            "r_momentum": last.r_momentum,
            "r_heat": last.r_heat,
            "min_flux": flow.min_flux,
            "inflow_fraction": flow.inflow_fraction,
            "per_face": {k: list(v) for k, v in flow.per_face.items()},
        },
    )
    return EXIT_OK


def run_certify(config, out):
    problem, state, _ = _solve(config, out)
    c = config["certificates"]
    estimates = cert.estimate_constants(
        problem, samples=c["samples"], seed=config["run"]["seed"], s=c["s"], r=c["r"])
    report = cert.uniqueness_certificate(problem, estimates, state)
    _write_json(out / "certificate.json", report.as_dict())
    if not (report.smallness_ok and report.uniqueness_ok):
        return EXIT_CERTIFICATE
    return EXIT_OK


def run_spectrum(config, out):
    sc = config["spectrum"]
    result = spec.compute_spectrum(
        re_min=sc["re_min"],
        re_max=sc["re_max"],
        im_max=sc["im_max"],
        k_max=sc["k_max"],
    )
    z0 = max(z.real for z in result.stokes_roots)
    _write_json(out / "spectrum.json", {**asdict(result), "z0": z0})
    if sc["samples_csv"]:
        xs = np.linspace(sc["re_min"], sc["re_max"], 2001)
        vals = spec.mellin_symbol(xs).real
        lines = ["z,f"] + [f"{x:.17g},{v:.17g}" for x, v in zip(xs, vals)]
        (out / "mellin_samples.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def run_mms(config, out):
    geo = config["geometry"]
    dims = (geo["Lx"], geo["Ly"], geo["Lz"])
    base = (geo["nx"], geo["ny"], geo["nz"])
    m = config["mms"]
    if m["study"] in ("stokes", "heat"):
        study, coefficient = {
            "stokes": (verif.mms_stokes_study, {"nu": config["material"]["nu"]}),
            "heat": (verif.mms_heat_study, {"lam": config["material"]["lambda"]}),
        }[m["study"]]
        table = study(verif.CASES[m["case"]], dims, base, n_levels=m["levels"], **coefficient)
        table.to_csv(out / f"mms_{m['study']}.csv")
        payload = {"study": m["study"], "errors": table.errors, "orders": table.orders,
                   "monotone": table.monotone}
    else:
        # one case on the base mesh; parse_config keeps case and levels at their defaults
        model = build_model(config)
        report = verif.coupled_mms(
            verif.coupled_case(dims, nu=model.nu), dims, base, model, build_body_force(config),
            **config["solver"],
        )
        payload = {
            "study": "coupled",
            "errors": {k: report[k] for k in ("u_L2", "u_H1", "theta_L2", "theta_H1")},
            "outer_iterations": len(report["records"]),
        }
        write_trace_csv(report["records"], out / "mms_coupled_trace.csv")
    _write_json(out / "mms_report.json", payload)
    return EXIT_OK


def _innermost(tb):
    """``module.qualname`` of the innermost traceback frame inside thermoduct."""
    where = None
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.split(".")[0] == __package__:
            where = f"{module}.{tb.tb_frame.f_code.co_qualname}"
        tb = tb.tb_next
    return where


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermoduct",
        description="Buoyant channel-flow solver, certificates and corner spectrum",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("solve", "run the coupled fixed-point solver"),
        ("certify", "solve, then evaluate smallness/uniqueness certificates"),
        ("spectrum", "corner spectrum: symbol roots, mu_M and s0"),
        ("mms", "manufactured-solution convergence studies"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    args = parser.parse_args(argv)
    try:
        config, out = _load(args)
    except (OSError, ConfigError) as exc:   # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    runner = {
        "solve": run_solve,
        "certify": run_certify,
        "spectrum": run_spectrum,
        "mms": run_mms,
    }[args.command]
    try:
        return runner(config, out)
    except (DivergenceError, LinearSolveError) as exc:
        if exc.records:
            write_trace_csv(exc.records, out / "trace.csv")
        what = "solver diverged" if isinstance(exc, DivergenceError) else "linear solve failed"
        print(f"error: {what}: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as exc:
        geo = config["geometry"]
        detail = f": {exc}" if str(exc) else ""
        print(f"internal error: MemoryError: out of memory in {args.command} with [geometry] "
              f"{geo['nx']}x{geo['ny']}x{geo['nz']}, in {_innermost(exc.__traceback__)}{detail}",
              file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - map anything else to the internal code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
