"""Every imported name, and every parameter in the package, is used.

An import that nothing references is dead code that still costs an import
and misleads a reader about what a module depends on.  The scan is a plain
``ast`` walk: a name bound by ``import`` or ``from ... import`` must appear
as a name somewhere in the same file, or in its ``__all__``.  Package
``__init__.py`` files are skipped, since their imports are the exports.

A parameter that its function's body never reads misleads a caller the
same way, so each parameter of a ``def`` or ``lambda`` in
``src/thermoduct`` must appear as a name in that body.

Every name in a ``src/thermoduct`` module's ``__all__`` is read by the
program: as a name, an attribute or an import, in another module of the
package (``__init__.py``, whose imports are the exports, does not count),
in its own module outside its definition, or in ``perfbench``.  A helper
that only tests read belongs in ``tests/oracles.py``; the few exports that
stay for another reader are listed with that reader.

Quadrature work runs over cell blocks through one loop: in
``src/thermoduct`` only ``forms.fill_blocks`` names ``cell_blocks``, so a
second block loop cannot come back unnoticed.

The runtime needs no scipy: a ``solve``, ``certify`` or ``mms`` run must
leave every ``scipy`` module unloaded (``scipy.sparse`` alone took about
0.2 s to import).  The tests use scipy as an oracle.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _files():
    for pattern in ("src/thermoduct/*.py", "tests/**/*.py", "demos/**/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            if path.name != "__init__.py":
                yield path


def unused_imports(source):
    """(line, name) of each imported name that ``source`` never references."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def unused_parameters(source):
    """(line, "function(parameter)") of each parameter its body never references."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            used = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            name = getattr(node, "name", "lambda")
            found += [(node.lineno, f"{name}({p.arg})")
                      for p in params if p.arg not in used]
    return found


def test_scan_flags_only_unreferenced_names():
    source = (
        "import json\nimport os.path\nfrom math import pi, tau as turn\n"
        "__all__ = ['turn']\nprint(os.path.sep, pi)\n"
    )
    assert unused_imports(source) == [(1, "json")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in _files()
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found


def test_parameter_scan_flags_only_unread_parameters():
    source = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g(x):\n        return a + x\n"
        "    return g, args, (lambda p, q: p), (lambda: 0)\n"
    )
    assert unused_parameters(source) == [
        (1, "f(b)"), (1, "f(c)"), (1, "f(kw)"), (4, "lambda(q)")]


def test_no_unused_parameters():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(ROOT.glob("src/thermoduct/*.py"))
        for line, name in unused_parameters(path.read_text(encoding="utf-8"))
    ]
    assert not found


# exports read only where the scan does not look, each with its reader
READ_ELSEWHERE = {
    "forms.eval_scalar_hess": "perfbench/tracer.py traces it by a string, not a name",
    "spectrum.weighted_admissibility": "the paper's weighted-space verdict, used by demo 04",
    "io_vtk.write_mesh_vtk": "demo 01's volume export",
}


def _reads(source):
    """(name, definition) of each name ``source`` reads as a name, an
    attribute or an import, with the top-level definition it is read in."""
    found = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                found.update((alias.name, owner) for alias in node.names)
    return found


def unread_exports(package, readers):
    """"module.name" of each ``__all__`` name of a ``package`` module (a
    dict of module name to source) that no other module reads, nor its own
    module outside its definition, nor any source in ``readers``."""
    reads = {module: _reads(source) for module, source in package.items()}
    outside = {name for source in readers for name, _ in _reads(source)}
    found = []
    for module, source in package.items():
        exports = next((ast.literal_eval(node.value) for node in ast.parse(source).body
                        if isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__" for t in node.targets)), [])
        others = {name for m in package if m != module for name, _ in reads[m]}
        for name in exports:
            own = any(n == name and owner != name for n, owner in reads[module])
            if not (own or name in others or name in outside):
                found.append(f"{module}.{name}")
    return found


def test_export_scan_flags_only_unread_names():
    package = {
        "a": ("__all__ = ['f', 'g', 'h', 'r', 't']\n"
              "def f():\n    return g()\n"
              "def g():\n    return 0\n"
              "def r(n):\n    return r(n - 1)\n"
              "def t():\n    pass\n"
              "h = 1\n"),
        "b": "from .a import f\n",
    }
    assert unread_exports(package, ["import a\na.t()\n"]) == ["a.h", "a.r"]


def test_every_export_is_read_by_the_program():
    package = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("src/thermoduct/*.py"))
               if path.name != "__init__.py"}
    readers = [path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("perfbench/**/*.py"))]
    assert sorted(unread_exports(package, readers)) == sorted(READ_ELSEWHERE)


def cell_block_loops(source):
    """(line, function) of each use of ``cell_blocks`` outside ``fill_blocks``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if "cell_blocks" in (getattr(child, "id", None), getattr(child, "attr", None)):
                if function != "fill_blocks":
                    found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_block_loop_scan_flags_a_second_loop():
    source = (
        "def fill_blocks(space, block):\n"
        "    return [block(c) for c in cell_blocks(space)]\n"
        "def _squared_error(space):\n"
        "    for cells in forms.cell_blocks(space):\n        pass\n"
    )
    assert cell_block_loops(source) == [(4, "_squared_error")]


def test_one_cell_block_loop():
    found = [
        f"{path.relative_to(ROOT)}:{line} {function}"
        for path in sorted(ROOT.glob("src/thermoduct/*.py"))
        for line, function in cell_block_loops(path.read_text(encoding="utf-8"))
    ]
    assert not found


RUN_GEOMETRY = """\
[geometry]
Lx = 1.0
Ly = 1.0
Lz = 4.0
nx = 2
ny = 2
nz = 8

[material]
nu = 1.0
rho0 = 1.0
c_v = 1.0
lambda = 1.0
alpha1 = 0.1

[body_force]
field = constant
gz = -1.0
"""


@pytest.mark.parametrize(
    "command, extra",
    [("solve", ""), ("certify", "\n[certificates]\nsamples = 100\n"),
     ("mms", "\n[mms]\nstudy = stokes\nlevels = 1\n")],
    ids=["solve", "certify", "mms"],
)
def test_runs_leave_linalg_modules_unloaded(tmp_path, command, extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_GEOMETRY + extra, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = (
        "import json, sys\n"
        "from thermoduct.cli import main\n"
        f"status = main({argv!r})\n"
        "print(json.dumps([status, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    status, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert status in (0, 4)   # certify may fail a verdict; the run itself completed
    assert loaded == []
