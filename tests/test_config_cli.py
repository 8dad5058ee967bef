import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermoduct.cli import main
from thermoduct.config import (SCHEMA, UNREAD, ConfigError, build_model, emit_config,
                               parse_config)
from thermoduct.fixed_point import outer_loop
from thermoduct.material import constant_density

REPO = Path(__file__).resolve().parent.parent

MINIMAL = """\
[geometry]
Lx = 1.0
Ly = 1.0
Lz = 2.0
nx = 2
ny = 2
nz = 4

[material]
nu = 1.0
rho0 = 1.0
c_v = 1.0
lambda = 1.0
alpha1 = 0.1
"""

FULL = MINIMAL + """
[body_force]
field = constant
gz = -0.4

[temperature_bc]
field = span_y
theta0 = 1.0
delta = 0.5

[solver]
outer_tol = 1e-10

[run]
seed = 3
out_dir = out
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["body_force"]["field"] == "zero"
    assert cfg["solver"]["outer_tol"] == 1e-10
    assert cfg["run"]["seed"] == 0


def test_range_error_names_line():
    bad = MINIMAL.replace("nu = 1.0", "nu = -1")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    (line, msg), = err.value.errors
    assert "nu" in msg and "must be" in msg
    assert bad.splitlines()[line - 1] == "nu = -1"


@pytest.mark.parametrize(
    "good, bad",
    [("gz = -0.4", "gz = nan"), ("theta0 = 1.0", "theta0 = inf")],
    ids=["gz-nan", "theta0-inf"],
)
def test_non_finite_number_names_key_and_line(good, bad):
    # keys without a range check must still reject nan and inf
    text = FULL.replace(good, bad)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (line, msg), = err.value.errors
    assert f".{bad.split()[0]}:" in msg and "finite" in msg
    assert text.splitlines()[line - 1] == bad


def test_errors_are_collected_not_fail_fast():
    bad = (
        MINIMAL.replace("nu = 1.0", "nu = banana")
        + "\nunknown_key = 1\n\n[made_up]\nx = 2\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = "\n".join(m for _, m in err.value.errors)
    assert "expected a number" in msgs
    assert "unknown key" in msgs
    assert "unknown section" in msgs
    assert len(err.value.errors) >= 3


def test_missing_required_key_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("[geometry]\nLx = 1.0\n")
    msgs = "\n".join(m for _, m in err.value.errors)
    assert "missing required key geometry.Ly" in msgs
    assert "missing required key material.nu" in msgs


def test_unknown_field_names_rejected():
    bad = FULL.replace("field = span_y", "field = vortex")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("not one of" in m for _, m in err.value.errors)


@pytest.mark.parametrize(
    "text",
    [MINIMAL, FULL, MINIMAL + "\n[mms]\nstudy = coupled\n", MINIMAL + "law = constant\n",
     MINIMAL + "\n[body_force]\nfield = zero\n"],
    ids=["minimal", "full", "coupled_mms", "constant_law", "zero_body_force"],
)
def test_round_trip_fixpoint(text):
    canonical = emit_config(parse_config(text))
    assert emit_config(parse_config(canonical)) == canonical
    cfg1 = parse_config(text)
    cfg2 = parse_config(emit_config(cfg1))
    assert cfg1 == cfg2


SHIPPED = sorted(
    p.relative_to(REPO).as_posix()
    for d in ("demos/configs", "tests/golden", "perfbench/configs")
    for p in (REPO / d).glob("*.cfg")
)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_round_trips(name):
    cfg = parse_config((REPO / name).read_text(encoding="utf-8"))
    canonical = emit_config(cfg)
    assert parse_config(canonical) == cfg
    assert emit_config(parse_config(canonical)) == canonical


def test_shipped_configs_found():
    assert len(SHIPPED) >= 8


def _off_default(spec):
    if spec.choices is not None:
        return next(c for c in spec.choices if c != spec.default)
    return spec.default + 1 if spec.typ is int else spec.default + 0.5


UNREAD_KEYS = [(s, c, o, k) for (s, c, o), keys in UNREAD.items() for k in keys]


@pytest.mark.parametrize("section, choice, option, key", UNREAD_KEYS,
                         ids=[f"{s}.{k}" for s, _, _, k in UNREAD_KEYS])
def test_unread_key_must_stay_at_default(section, choice, option, key):
    # a key the chosen option does not read passes at its default and is
    # rejected, at its own line, anywhere else
    spec = SCHEMA[section][key]
    head = MINIMAL + f"\n[{section}]\n{choice} = {option}\n"
    assert parse_config(head + f"{key} = {spec.default}\n")[section][key] == spec.default
    bad = f"{key} = {_off_default(spec)}"
    text = head + bad + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (line, msg), = err.value.errors
    assert line == text.splitlines().index(bad) + 1
    assert msg.startswith(f"{section}.{key}: {choice} = {option} does not read {key}")


def test_constant_law_builds_constant_density():
    cfg = parse_config(MINIMAL + "\nlaw = constant\n")
    model = build_model(cfg)
    assert model.rho_law == constant_density(1.0)
    assert model.C_rho == 0.0
    assert model.rho_law(np.array([-5.0, 0.0, 5.0])).tolist() == [1.0, 1.0, 1.0]


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_cli_config_error_exit_code(tmp_path, capsys):
    p = write_cfg(tmp_path, MINIMAL.replace("nu = 1.0", "nu = -1"))
    assert main(["solve", "--config", str(p)]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    p = write_cfg(tmp_path, MINIMAL + "\n[body_force]\nfield = constant\ngx = nan\n")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    # a directory, a file that is not UTF-8, and an --out that is a file
    (tmp_path / "dir.cfg").mkdir()
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(MINIMAL.replace("[geometry]", "# \xe9t\xe9\n[geometry]").encode("latin-1"))
    taken = write_cfg(tmp_path, "", name="taken")
    good = write_cfg(tmp_path, MINIMAL, name="good.cfg")
    for argv, path in ((["--config", str(tmp_path / "dir.cfg")], "dir.cfg"),
                       (["--config", str(latin)], "latin.cfg"),
                       (["--config", str(good), "--out", str(taken)], "taken")):
        capsys.readouterr()
        assert main(["solve", *argv]) == 2
        assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, bad",
    [
        ("certify", "[certificates]\ns = 2.0", "r = 3.05"),
        ("certify", "[certificates]", "r = 1.0"),
        ("certify", "[certificates]\nr = 2.0", "s = 1.0"),
        ("spectrum", "[spectrum]", "re_min = 1.96"),
        ("spectrum", "[spectrum]", "re_max = 1.2"),
        ("spectrum", "[spectrum]", "re_max = 0.5"),
        ("mms", "[mms]\nstudy = coupled", "case = poly_quadratic"),
        ("mms", "[mms]\nstudy = coupled", "levels = 4"),
        ("mms", "[mms]\nstudy = coupled", "case = coupled_smooth"),
        ("spectrum", "[spectrum]", "re_min = 1.4"),
        ("spectrum", "[spectrum]\nre_max = 2.5", "re_min = 1.4"),
        ("solve", "law = constant", "alpha_v = 0.3"),
        ("solve", "[body_force]\nfield = zero", "gz = -9.7"),
        ("solve", "[temperature_bc]\nfield = constant", "delta = 0.5"),
    ],
    ids=["r-above-range", "r-below-range", "s-below-range", "empty-strip",
         "strip-below-mu-M", "strip-without-roots", "coupled-case", "coupled-levels",
         "coupled-explicit-case", "strip-above-one", "wide-strip-above-one",
         "constant-law-alpha_v", "zero-force-gz", "constant-bc-delta"],
)
def test_cli_rejects_key_combination_at_parse_time(tmp_path, capsys, command, section, bad):
    text = MINIMAL + f"\n{section}\n{bad}\n"
    p = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    line = text.splitlines().index(bad) + 1
    key = bad.split()[0]
    assert f"line {line}: " in capsys.readouterr().err
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (got_line, msg), = err.value.errors
    assert got_line == line and f".{key}:" in msg
    assert not out.exists()


def test_cli_rejects_quad_order_as_unknown_key(tmp_path, capsys):
    # the volume rule belongs to the space, not to a run
    text = MINIMAL + "\n[solver]\nquad_order = 5\n"
    p = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 2
    line = text.splitlines().index("quad_order = 5") + 1
    assert (f"line {line}: unknown key 'quad_order' in section [solver]"
            in capsys.readouterr().err)
    assert not out.exists()


def test_solver_section_is_outer_loop_keywords():
    # every command that runs the Picard loop passes [solver] on as it is
    params = inspect.signature(outer_loop).parameters.values()
    assert ({k: spec.default for k, spec in SCHEMA["solver"].items()}
            == {p.name: p.default for p in params if p.default is not p.empty})


def test_cli_rejects_negative_seed_before_any_work(tmp_path, capsys):
    p = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "o"
    assert main(["certify", "--config", str(p), "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed: value -1 must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_solve_zero_data(tmp_path):
    p = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "solution.vtk").exists()
    assert (out / "solution_boundary.vtk").exists()
    report = json.loads((out / "solve_report.json").read_text())
    assert report["outer_iterations"] == 1
    assert report["r_momentum"] < 1e-9


def test_cli_spectrum_artifact(tmp_path):
    p = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "spec"
    assert main(["spectrum", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["z0"] == pytest.approx(1.352317, abs=1e-5)
    assert payload["s0"] == pytest.approx(3.087930, abs=1e-5)
    assert payload["mu_M"] == pytest.approx(1.352317, abs=1e-5)


def test_cli_spectrum_samples_csv(tmp_path):
    text = MINIMAL + "\n[spectrum]\nsamples_csv = true\n"
    p = write_cfg(tmp_path, text)
    out = tmp_path / "spec"
    assert main(["spectrum", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "mellin_samples.csv").read_text().splitlines()
    assert lines[0] == "z,f"
    assert len(lines) == 2002


def test_cli_solve_diverged_exit_code(tmp_path):
    text = FULL.replace("gz = -0.4", "gz = -1e6")
    p = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    # the momentum solve of the first outer step fails: no step completed
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_cli_diverged_run_keeps_its_trace(tmp_path):
    text = FULL.replace("outer_tol = 1e-10", "outer_tol = 1e-16\nmax_outer = 2")
    p = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 3
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("iter,inner_iters,beta_hat,")
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2"]


def test_cli_failed_heat_solve_keeps_its_trace(tmp_path, monkeypatch, capsys):
    # the heat solve of the third outer step fails: the two steps before it are kept
    from thermoduct import linsolve

    solve, calls = linsolve.WallSolver.solve, []

    def failing(self, load):
        calls.append(1)
        if len(calls) == 3:
            raise linsolve.SingularMatrixError("injected heat solve failure")
        return solve(self, load)

    monkeypatch.setattr(linsolve.WallSolver, "solve", failing)
    p = write_cfg(tmp_path, FULL)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 3
    assert "error: linear solve failed: injected heat solve failure" in capsys.readouterr().err
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("iter,inner_iters,beta_hat,")
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2"]


def test_cli_rejects_rho_min_factor_above_one(tmp_path, capsys):
    # a floor above rho0 would leave the clamp empty and the law constant
    bad = "rho_min_factor = 2.0"
    text = MINIMAL + bad + "\n"
    p = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    line = text.splitlines().index(bad) + 1
    err = capsys.readouterr().err
    assert f"line {line}: material.rho_min_factor" in err and "in (0, 1]" in err


def test_cli_certify_exit_codes(tmp_path):
    # small load: certificates pass
    ok_cfg = write_cfg(tmp_path, FULL, "ok.cfg")
    out_ok = tmp_path / "cert_ok"
    assert main(["certify", "--config", str(ok_cfg), "--out", str(out_ok)]) == 0
    report = json.loads((out_ok / "certificate.json").read_text())
    assert report["smallness_ok"] and report["uniqueness_ok"]
    assert 0 < report["beta"] < 1

    # large load: smallness is ABSENT, exit code flags the failed certificate
    big = FULL.replace("gz = -0.4", "gz = -100.0")
    big_cfg = write_cfg(tmp_path, big, "big.cfg")
    out_big = tmp_path / "cert_big"
    assert main(["certify", "--config", str(big_cfg), "--out", str(out_big)]) == 4
    report = json.loads((out_big / "certificate.json").read_text())
    assert report["beta"] == "ABSENT"
    assert not report["smallness_ok"]


def test_cli_certify_builds_one_heat_solver(tmp_path, monkeypatch):
    # the sampler reuses the solve's heat solver and its one kappa
    from thermoduct import forms, linsolve

    calls = {"assemble_kappa": 0, "WallSolver": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(forms, "assemble_kappa", counted("assemble_kappa", forms.assemble_kappa))
    monkeypatch.setattr(linsolve.WallSolver, "__init__",
                        counted("WallSolver", linsolve.WallSolver.__init__))
    p = write_cfg(tmp_path, FULL)
    assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    assert calls == {"assemble_kappa": 1, "WallSolver": 1}


def test_cli_mms_poly_quick(tmp_path):
    text = MINIMAL + "\n[mms]\nstudy = stokes\ncase = poly_quadratic\nlevels = 1\n"
    p = write_cfg(tmp_path, text)
    out = tmp_path / "mms"
    assert main(["mms", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads((out / "mms_report.json").read_text())
    assert payload["errors"]["u_L2"][0] < 1e-10
    assert (out / "mms_stokes.csv").exists()


def test_cli_mms_coupled(tmp_path):
    text = (MINIMAL.replace("nz = 4", "nz = 8").replace("Lz = 2.0", "Lz = 4.0")
            + "\n[body_force]\nfield = constant\ngz = -1.0\n\n[mms]\nstudy = coupled\n")
    p = write_cfg(tmp_path, text)
    out = tmp_path / "mms"
    assert main(["mms", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads((out / "mms_report.json").read_text())
    assert payload["study"] == "coupled"
    assert sorted(payload["errors"]) == ["theta_H1", "theta_L2", "u_H1", "u_L2"]
    assert all(0 < e < 1 for e in payload["errors"].values())
    trace = (out / "mms_coupled_trace.csv").read_text().splitlines()
    assert trace[0].startswith("iter,") and len(trace) == payload["outer_iterations"] + 1
    # the run's own normalized configuration parses back to itself
    normalized = (out / "config.normalized.txt").read_text()
    assert emit_config(parse_config(normalized)) == normalized


def test_cli_mms_coupled_reads_the_solver_keys(tmp_path):
    # inner_tol = 1 stops every momentum solve after one step, so max_inner = 1
    # suffices, and max_outer = 2 ends the Picard loop unconverged
    text = (MINIMAL + "\n[body_force]\nfield = constant\ngz = -1.0\n\n[mms]\nstudy = coupled\n"
            "\n[solver]\nmax_outer = 2\nmax_inner = 1\ninner_tol = 1.0\n")
    p = write_cfg(tmp_path, text)
    out = tmp_path / "mms"
    assert main(["mms", "--config", str(p), "--out", str(out)]) == 3
    rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == [("1", "1"), ("2", "1")]


def test_cli_runs_as_module(tmp_path):
    p = write_cfg(tmp_path, MINIMAL)
    proc = subprocess.run(
        [sys.executable, "-m", "thermoduct.cli", "spectrum", "--config", str(p),
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_cli_reproducibility_byte_identical(tmp_path):
    p = write_cfg(tmp_path, FULL)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", str(p), "--out", str(out1), "--seed", "9"]) == 0
    assert main(["solve", "--config", str(p), "--out", str(out2), "--seed", "9"]) == 0
    for name in ("trace.csv", "solve_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "solution.vtk").read_bytes() == (out2 / "solution.vtk").read_bytes()


def test_cli_internal_error_exit_code(tmp_path, monkeypatch):
    import thermoduct.cli as cli

    def boom(config, out):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "run_spectrum", boom)
    p = write_cfg(tmp_path, MINIMAL)
    assert cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "o")]) == 5


def test_cli_memory_error_names_command_mesh_and_function(tmp_path, monkeypatch, capsys):
    from thermoduct import forms

    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(forms, "assemble_saddle", exhausted)
    p = write_cfg(tmp_path, MINIMAL.replace("nz = 4", "nz = 8"))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: MemoryError: out of memory in solve ")
    assert "[geometry] 2x2x8" in err
    assert "in thermoduct.fixed_point.CoupledProblem.saddle" in err


def test_declared_python_floor_has_code_qualname():
    # cli._innermost names the failing frame by f_code.co_qualname (3.11+)
    import tomllib

    with open(REPO / "pyproject.toml", "rb") as fh:
        floor = tomllib.load(fh)["project"]["requires-python"]
    assert floor == ">=3.11"
