"""Spans around the public functions of thermoduct's layers.

The benchmark records spans from its own files, without changing the
package: ``install`` replaces each traced function with a wrapper in every
thermoduct module that binds it (``from .linsolve import solve_spd`` makes a
second binding in the importing module), and on the class for methods.

Each wrapper records calls, total time and self time (total minus the time
of wrapped calls made inside it) per function, and calls per
(caller span, callee span) pair.  Spans are kept in memory and written out
once, when the traced process ends.  The span stack is not thread-safe:
traced runs pin ``THERMODUCT_THREADS=1``, which keeps the certificate
sampler on the calling thread.
"""

import functools
import importlib
import sys
import time

# Traced functions, named by module and attribute path inside thermoduct.
EVAL = [
    "forms.eval_scalar",
    "forms.eval_scalar_grad",
    "forms.eval_scalar_hess",
    "forms.eval_velocity",
    "forms.eval_velocity_grad",
]
LOAD = [
    "forms.convection_value",
    "forms.convection_load",
    "forms.dissipation_value",
    "forms.assemble_e_load",
    "forms.heat_convection_value",
    "forms.assemble_d_load",
    "forms.buoyancy_value",
    "forms.assemble_buoyancy",
    "forms.field_load_scalar",
    "forms.field_load_vector",
]
NORMS = ["forms.discrete_norms", "forms.lp_norm_of_values"]
ASSEMBLE = [
    "forms.assemble_a",
    "forms.assemble_kappa",
    "forms.assemble_saddle",
    "forms.divergence_matrix",
]
BUILD = ["mesh.build_channel_mesh", "spaces.build_spaces"]
FACTOR = "linsolve.SaddleFactorization.__init__"
SADDLE_SOLVE = "linsolve.SaddleFactorization.solve"
SPD_SOLVE = "linsolve.solve_spd"
INNER = "fixed_point.inner_momentum_solve"
HEAT = "fixed_point.heat_solve"
RESIDUAL = "fixed_point.weak_residual"
SAMPLER = "certificates.estimate_constants"
FIND_ROOTS = "spectrum.find_roots"
WRITE = [
    "fixed_point.write_trace_csv",
    "io_vtk.write_state_vtk",
    "io_vtk.write_boundary_vtk",
]

TRACED = (
    BUILD + ASSEMBLE + EVAL + LOAD + NORMS
    + [FACTOR, SADDLE_SOLVE, SPD_SOLVE, INNER, HEAT, RESIDUAL, SAMPLER, FIND_ROOTS]
    + WRITE
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, time of wrapped calls inside]
        self.stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
        self.pairs = {}  # "caller>callee" -> calls; caller "" is top level
        self.top_level_s = 0.0
        self.lu_nnz = []  # stored L+U entries of each saddle factorization

    def wrap(self, name, fn):
        stats = self.stats[name]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            caller = self.stack[-1] if self.stack else None
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                stats["calls"] += 1
                stats["total_s"] += dt
                stats["self_s"] += dt - frame[1]
                if caller is None:
                    self.top_level_s += dt
                else:
                    caller[1] += dt
                key = f"{caller[0] if caller else ''}>{name}"
                self.pairs[key] = self.pairs.get(key, 0) + 1
            if name == FACTOR:
                # SuperLU's own count of stored factor entries; reading L and
                # U instead would copy both factors
                self.lu_nnz.append(int(args[0].lu.nnz))
            return result

        return span

    def report(self):
        return {
            "stats": self.stats,
            "pairs": self.pairs,
            "top_level_s": self.top_level_s,
            "lu_nnz": self.lu_nnz,
        }


def _resolve(path):
    module_name, *attrs = path.split(".")
    owner = importlib.import_module(f"thermoduct.{module_name}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


def install(tracer):
    """Wrap every traced function at every thermoduct binding of it.

    Raises RuntimeError when a traced function cannot be found.
    """
    importlib.import_module("thermoduct.cli")  # binds everything the CLI uses
    originals = {}
    for path in TRACED:
        owner, attr = _resolve(path)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            raise RuntimeError(f"traced function {path} not found")
        wrapped = tracer.wrap(path, fn)
        setattr(owner, attr, wrapped)
        originals[id(fn)] = (fn, wrapped)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "thermoduct" or name.startswith("thermoduct."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
