"""Compare the artifacts of two thermoduct source trees on a fixed set of runs.

Usage::

    python tests/compare_artifacts.py PARENT_SRC CHILD_SRC [--work DIR]
        [--divisions NX NY NZ]

PARENT_SRC and CHILD_SRC are ``src`` directories (each holding the
``thermoduct`` package), for example the ``src`` of a ``git archive`` of
the parent commit and this tree's ``src``.  Every run of ``RUNS`` is made
with each tree in a fresh process with one BLAS thread, on configs derived
from the shipped ones in this repository, and each artifact of the child
is compared with the parent's:

- a file with the same bytes prints ``identical``;
- otherwise every column (a CSV column, a JSON path with list indices
  dropped, a VTK section, a ``section.key`` of ``config.normalized.txt``,
  or the lines of any other file) whose values differ prints its largest
  move relative to the column's largest magnitude in the parent, when
  both sides are floats, and beside it its largest move relative to a
  row's own parent value, with that row (rows count from 1 in the
  column's order); a row whose parent value is exactly 0 reports its
  absolute move instead;
- a change in an integer column (``inner_iters``, ``outer_iterations``,
  an exit code), in a string or in a column's length is flagged ``CHANGED``.

``config.normalized.txt`` echoes the output directory, so its
``run.out_dir`` is skipped, and equal remaining keys print ``identical``;
a key on one side only prints ``CHANGED only in parent`` (or child).
The exit status is 0 when every artifact is identical, 1 when only
floats moved and 2 when anything is flagged.  ``--divisions`` reruns the
solve and certify runs that do not set their own mesh on another mesh,
for changes whose moves depend on it.  This file is a tool, not a test:
pytest does not collect it.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHANNEL = ROOT / "perfbench" / "configs" / "channel.cfg"
CERTIFY = ROOT / "perfbench" / "configs" / "certify.cfg"
MMS = ROOT / "perfbench" / "configs" / "mms_stokes.cfg"

# name: (command, base config, {section: {key: value}} set on it)
RUNS = {
    "solve_channel": ("solve", CHANNEL, {}),
    "solve_buoyant_channel": ("solve", ROOT / "demos" / "configs" / "buoyant_channel.cfg", {}),
    # delta * (y / Ly) and (delta * y) / Ly round apart at this Ly and delta
    "solve_span_Ly0.7": ("solve", CHANNEL, {"geometry": {"Ly": "0.7"},
                                            "temperature_bc": {"delta": "0.3"}}),
    # a failing run: exits 3 after max_outer = 30 steps, contracting at about 0.54
    "solve_alpha1_20_2x2x8": ("solve", CHANNEL, {"geometry": {"nx": "2", "ny": "2", "nz": "8"},
                                                 "material": {"alpha1": "20"}}),
    "certify_seed0": ("certify", CERTIFY, {"run": {"seed": "0"}}),
    "certify_seed3": ("certify", CERTIFY, {"run": {"seed": "3"}}),
    "certify_s1.8_r1.6": ("certify", CERTIFY, {"certificates": {"s": "1.8", "r": "1.6"}}),
    "spectrum": ("spectrum", ROOT / "demos" / "configs" / "spectrum.cfg", {}),
    "mms_stokes": ("mms", MMS, {"mms": {"study": "stokes"}}),
    "mms_heat": ("mms", MMS, {"mms": {"study": "heat"}}),
    "mms_coupled": ("mms", MMS, {"mms": {"study": "coupled"}}),
    "mms_stokes_poly": ("mms", MMS, {"mms": {"study": "stokes", "case": "poly_quadratic"}}),
    "mms_heat_poly": ("mms", MMS, {"mms": {"study": "heat", "case": "poly_quadratic"}}),
    "mms_heat_incompatible": ("mms", MMS, {"mms": {"study": "heat",
                                                   "case": "trig_incompatible"}}),
}

_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); from thermoduct.cli import main; "
          "sys.exit(main(sys.argv[2:]))")
_INT = re.compile(r"[+-]?\d+")


def with_keys(text, changes):
    """Config ``text`` with each ``{section: {key: value}}`` set: an existing
    key line is replaced, a missing key is added under its section header,
    a missing section is appended."""
    lines, section, todo = [], None, {s: dict(kv) for s, kv in changes.items()}

    def flush(name):
        lines.extend(f"{k} = {v}" for k, v in todo.pop(name, {}).items())

    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            flush(section)
            section = stripped[1:-1].strip()
        elif "=" in stripped and not stripped.startswith("#"):
            key = stripped.partition("=")[0].strip()
            if key in todo.get(section, {}):
                line = f"{key} = {todo[section].pop(key)}"
        lines.append(line)
    flush(section)
    for name in list(todo):
        lines.append(f"[{name}]")
        flush(name)
    return "\n".join(lines) + "\n"


def start(src, command, config, out):
    """A process running ``thermoduct COMMAND`` from ``src`` on one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [command, "--config", str(config), "--out", str(out)]
    return subprocess.Popen([sys.executable, "-c", _CHILD, str(src), *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


# -- columns -------------------------------------------------------------------------


def _json_columns(node, path, out):
    if isinstance(node, dict):
        for key in sorted(node):
            _json_columns(node[key], f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for item in node:
            _json_columns(item, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(node)


def _token(text):
    """An int, a float or the string itself."""
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def columns(path):
    """{column name: list of values} of one artifact."""
    text = path.read_text(encoding="utf-8")
    out = {}
    if path.suffix == ".json":
        _json_columns(json.loads(text), "", out)
    elif path.suffix == ".csv":
        header, *rows = [line.split(",") for line in text.splitlines()]
        for row in rows:
            for name, cell in zip(header, row):
                out.setdefault(name, []).append(_token(cell))
    elif path.suffix == ".vtk":
        section = "header"
        for line in text.splitlines():
            words = line.split()
            if words and words[0][0].isalpha():
                if words[0] in ("SCALARS", "VECTORS"):
                    section = words[1]
                elif words[0] != "LOOKUP_TABLE":
                    section = words[0]
                out.setdefault(f"{section} (header)", []).append(line)
                continue
            out.setdefault(section, []).extend(_token(w) for w in words)
    elif path.name == "config.normalized.txt":
        section = None
        for line in text.splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif "=" in line:
                key, _, value = (part.strip() for part in line.partition("="))
                if (section, key) != ("run", "out_dir"):
                    out[f"{section}.{key}"] = [_token(value)]
    else:
        out["lines"] = text.splitlines()
    return out


def compare_column(old, new):
    """(flag, moves) of one column's values; flag is a reason string when
    the column changed in a way a float move cannot, and ``moves`` holds
    the float moves: ``column`` (relative to the column's largest parent
    magnitude), ``absolute``, and ``row`` and ``zero_row``, each the largest
    move of one row as (move, row number), relative to the row's own parent
    value or, where that value is 0, absolute ((0.0, 0) when no such row
    moved)."""
    if len(old) != len(new):
        return f"length {len(old)} -> {len(new)}", None
    scale, move, row, zero_row = 0.0, 0.0, (0.0, 0), (0.0, 0)
    for i, (a, b) in enumerate(zip(old, new), start=1):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numeric and isinstance(a, float) and isinstance(b, float):
            if not (math.isfinite(a) and math.isfinite(b)):
                if not (a == b or (math.isnan(a) and math.isnan(b))):
                    return f"non-finite {a!r} -> {b!r}", None
                continue
            scale = max(scale, abs(a))
            move = max(move, abs(a - b))
            if a and abs(a - b) / abs(a) > row[0]:
                row = (abs(a - b) / abs(a), i)
            elif not a and abs(b) > zero_row[0]:
                zero_row = (abs(b), i)
        elif a != b or type(a) is not type(b):
            kind = "integer" if numeric else "value"
            return f"{kind} {a!r} -> {b!r}", None
    return None, {"column": move / scale if scale else move, "absolute": move,
                  "row": row, "zero_row": zero_row}


def compare_file(old, new):
    """Report lines of one artifact, and whether anything was flagged."""
    if old.read_bytes() == new.read_bytes():
        return ["identical"], False, False
    a, b = columns(old), columns(new)
    lines, flagged, moved = [], False, False
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            lines.append(f"  {name}: CHANGED only in {'child' if name in b else 'parent'}")
            flagged = True
            continue
        flag, moves = compare_column(a[name], b[name])
        if flag:
            lines.append(f"  {name}: CHANGED {flag}")
            flagged = True
        elif moves["absolute"]:
            line = (f"  {name}: max relative move {moves['column']:.2e} "
                    f"(absolute {moves['absolute']:.2e})")
            if moves["row"][0]:
                line += "; per row {:.2e} at row {}".format(*moves["row"])
            if moves["zero_row"][0]:
                line += "; from 0, absolute {:.2e} at row {}".format(*moves["zero_row"])
            lines.append(line)
            moved = True
    if not lines:
        if new.name != "config.normalized.txt":
            return ["  CHANGED bytes differ, values equal"], True, False
        return ["identical"], False, False
    return lines, flagged, moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("child_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the configs and outputs here (default: a temporary directory)")
    parser.add_argument("--divisions", type=int, nargs=3, metavar=("NX", "NY", "NZ"),
                        help="the [geometry] divisions of the solve and certify runs")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.child_src):
        if not (src / "thermoduct" / "cli.py").is_file():
            parser.error(f"no thermoduct package under {src}")

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for name, (command, base, changes) in RUNS.items():
            own_mesh = "nx" in changes.get("geometry", {})
            if args.divisions and command in ("solve", "certify") and not own_mesh:
                mesh = dict(zip(("nx", "ny", "nz"), map(str, args.divisions)))
                changes = {**changes, "geometry": {**changes.get("geometry", {}), **mesh}}
            config = work / name / "run.cfg"
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text(with_keys(base.read_text(encoding="utf-8"), changes),
                              encoding="utf-8")
            outs = [work / name / side for side in ("parent", "child")]
            procs = [start(src, command, config, out)
                     for src, out in zip((args.parent_src, args.child_src), outs)]
            codes = []
            for proc in procs:
                _, err = proc.communicate()
                codes.append(proc.returncode)
                if proc.returncode not in (0, 3, 4):
                    print(err.strip(), file=sys.stderr)
            print(f"{name} ({command}, exit {codes[0]}"
                  + (f" -> {codes[1]}: CHANGED)" if codes[0] != codes[1] else ")"))
            if codes[0] != codes[1]:
                status = 2
            files = sorted({p.relative_to(out).as_posix() for out in outs if out.is_dir()
                            for p in out.rglob("*") if p.is_file()})
            for rel in files:
                old, new = (out / rel for out in outs)
                if not (old.is_file() and new.is_file()):
                    print(f"  {rel}: CHANGED only in {'child' if new.is_file() else 'parent'}")
                    status = 2
                    continue
                lines, flagged, moved = compare_file(old, new)
                if lines == ["identical"]:
                    print(f"  {rel}: identical")
                else:
                    print(f"  {rel}:")
                    print("\n".join(f"  {line}" for line in lines))
                status = max(status, 2 if flagged else int(moved))
    return status


if __name__ == "__main__":
    sys.exit(main())
