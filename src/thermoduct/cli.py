"""Command-line entry point.

Subcommands: ``solve`` (coupled fixed-point run), ``certify`` (solve plus
smallness/uniqueness certificates), ``spectrum`` (corner spectrum) and
``mms`` (manufactured-solution studies).  Artifacts are CSV/JSON (and VTK
for solution fields) in the output directory; given the same
configuration and seed the CSV/JSON artifacts are byte-identical across
runs, so reports carry no timing or host information.

Exit codes: 0 success, 2 configuration error, 3 solver divergence,
4 certificate verdict failure, 5 internal error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import certificates as cert
from . import spectrum as spec
from . import verification as verif
from .config import ConfigError, build_problem_parts, emit_config, parse_config
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
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _load(args):
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_config(text)
    if args.seed is not None:
        config.sections["run"]["seed"] = args.seed
    if args.out is not None:
        config.sections["run"]["out_dir"] = args.out
    out = Path(config["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    # echo the normalized configuration next to the artifacts
    (out / "config.normalized.txt").write_text(emit_config(config), encoding="utf-8")
    return config, out


def _solve(config):
    mesh, space, model, g, theta_D = build_problem_parts(config)
    problem = CoupledProblem(
        space, model, g, theta_D, linear_tol=config["solver"]["linear_tol"]
    )
    sol = config["solver"]
    state, trace = outer_loop(
        problem,
        outer_tol=sol["outer_tol"],
        max_outer=sol["max_outer"],
        inner_tol=sol["inner_tol"],
        max_inner=sol["max_inner"],
        damping=sol["damping"],
    )
    return mesh, space, model, problem, state, trace


def run_solve(config, out):
    from .fixed_point import backward_flow_measure

    mesh, space, model, problem, state, trace = _solve(config)
    write_trace_csv(trace, out / "trace.csv")
    write_state_vtk(space, state, out / "solution.vtk")
    write_boundary_vtk(mesh, out / "solution_boundary.vtk")
    last = trace.records[-1]
    flow = backward_flow_measure(space, state.u)
    _write_json(
        out / "solve_report.json",
        {
            "outer_iterations": len(trace.records),
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
    mesh, space, model, problem, state, trace = _solve(config)
    write_trace_csv(trace, out / "trace.csv")
    write_state_vtk(space, state, out / "solution.vtk")
    c = config["certificates"]
    estimates = cert.estimate_constants(
        space,
        model,
        samples=c["samples"],
        seed=config["run"]["seed"],
        s=c["s"],
        r=c["r"],
    )
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
    payload = {
        "stokes_roots": [{"re": z.real, "im": z.imag} for z in result.stokes_roots],
        "residuals": result.residuals,
        "scalar_roots": result.scalar_roots,
        "mu_M": result.mu_M,
        "s0": result.s0,
        "strip": result.strip,
        "metadata": result.metadata,
        "z0": max(z.real for z in result.stokes_roots),
    }
    _write_json(out / "spectrum.json", payload)
    if sc["samples_csv"]:
        xs = np.linspace(sc["re_min"], sc["re_max"], 2001)
        vals = [spec.mellin_symbol(complex(x)).real for x in xs]
        lines = ["z,f"] + [f"{x:.17g},{v:.17g}" for x, v in zip(xs, vals)]
        (out / "mellin_samples.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def run_mms(config, out):
    geo = config["geometry"]
    dims = (geo["Lx"], geo["Ly"], geo["Lz"])
    base = (geo["nx"], geo["ny"], geo["nz"])
    m = config["mms"]
    factories = {
        "trig_smooth": verif.trig_case,
        "poly_quadratic": verif.poly_case,
        "trig_incompatible": verif.incompatible_heat_case,
        "coupled_smooth": lambda d, nu: verif.coupled_case(d, nu=nu),
    }
    factory = factories[m["case"]]
    model = None
    if m["study"] == "stokes":
        table = verif.mms_stokes_study(
            factory, dims, base, n_levels=m["levels"],
            nu=config["material"]["nu"], quad_order=config["solver"]["quad_order"],
        )
        table.to_csv(out / "mms_stokes.csv")
        payload = {"study": "stokes", "errors": table.errors, "orders": table.orders,
                   "monotone": table.monotone}
    elif m["study"] == "heat":
        table = verif.mms_heat_study(
            factory, dims, base, n_levels=m["levels"],
            lam=config["material"]["lambda"], quad_order=config["solver"]["quad_order"],
        )
        table.to_csv(out / "mms_heat.csv")
        payload = {"study": "heat", "errors": table.errors, "orders": table.orders,
                   "monotone": table.monotone}
    else:
        from .config import build_model
        from .fields import body_force_registry

        model = build_model(config)
        g = body_force_registry()[config["body_force"]["field"]](config["body_force"])
        case = verif.coupled_case(dims, nu=model.nu)
        report = verif.coupled_mms(
            case, dims, base, model, g,
            outer_tol=config["solver"]["outer_tol"],
            quad_order=config["solver"]["quad_order"],
        )
        payload = {
            "study": "coupled",
            "errors": {k: report[k] for k in ("u_L2", "u_H1", "theta_L2", "theta_H1")},
            "outer_iterations": report["outer_iterations"],
        }
        write_trace_csv(report["trace"], out / "mms_coupled_trace.csv")
    _write_json(out / "mms_report.json", payload)
    return EXIT_OK


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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
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
    except DivergenceError as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except LinearSolveError as exc:
        print(f"error: linear solve failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except Exception as exc:  # noqa: BLE001 - map anything else to the internal code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
