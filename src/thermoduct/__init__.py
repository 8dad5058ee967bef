"""Steady buoyancy-driven flow with viscous dissipation in open box channels.

A numpy library built around three capabilities:

- a Taylor-Hood fixed-point solver for the coupled momentum/temperature
  system with do-nothing open ends (``mesh``, ``spaces``, ``forms``,
  ``linsolve``, ``fixed_point``),
- numerical certificates for the smallness and uniqueness conditions of
  the underlying contraction argument (``certificates``),
- the corner-singularity spectrum at the wall/open-end junction and the
  induced regularity exponent bound (``spectrum``),

plus manufactured-solution verification (``verification``), run
configuration and a small CLI (``config``, ``cli``), and legacy VTK
output (``io_vtk``).
"""

from .mesh import ChannelMesh, FacetTag, build_channel_mesh
from .spaces import DiscreteSpace, build_spaces
from .material import (
    MaterialModel,
    clamped_boussinesq,
    constant_density,
    make_material,
)
from . import forms, linsolve
from .fixed_point import (
    CoupledProblem,
    DivergenceError,
    State,
    backward_flow_measure,
    heat_solve,
    inner_momentum_solve,
    outer_loop,
    weak_residual,
)
from .certificates import (
    estimate_constants,
    smallness_check,
    uniqueness_certificate,
)
from .spectrum import (
    SpectrumResult,
    admissible_sr,
    compute_spectrum,
    find_roots,
    mellin_symbol,
    regularity_bounds,
    scalar_exponents,
    weighted_admissibility,
)
from . import verification
from .config import emit_config, parse_config

__version__ = "0.1.0"
