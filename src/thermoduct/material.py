"""Material constants and the temperature-dependent density law.

The density law must be strictly positive, nonincreasing, continuous and
bounded above by ``rho_sharp``; ``DensityLaw`` rejects parameters that
would break this, so every law it builds has these properties and its
declared Lipschitz constant by construction.  The law multiplies gravity
in the momentum equation and the convective term of the heat equation,
everywhere else the constant reference density is used.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DensityLaw",
    "MaterialModel",
    "clamped_boussinesq",
    "constant_density",
    "make_material",
    "density",
]


@dataclass(frozen=True)
class DensityLaw:
    """Density as a function of temperature.

    kind 'clamped_boussinesq': rho0 * (1 - alpha_v * (theta - theta_ref)),
    clamped to [rho_min, rho0].  kind 'constant': rho0 everywhere.
    Requires rho0 > 0, and for the clamped law alpha_v >= 0 (nonincreasing)
    and rho_min > 0 (strictly positive); raises ValueError otherwise.
    """

    kind: str
    rho0: float
    alpha_v: float = 0.0
    theta_ref: float = 0.0
    rho_min: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "clamped_boussinesq"):
            raise ValueError(f"unknown density law kind '{self.kind}'")
        if not self.rho0 > 0:
            raise ValueError("rho0 must be positive")
        if self.kind == "clamped_boussinesq":
            if not self.alpha_v >= 0:
                raise ValueError("alpha_v must be nonnegative (a nonincreasing law)")
            if not self.rho_min > 0:
                raise ValueError("rho_min must be positive")

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "constant":
            return np.full_like(theta, self.rho0)
        lin = self.rho0 * (1.0 - self.alpha_v * (theta - self.theta_ref))
        return np.clip(lin, self.rho_min, self.rho0)

    @property
    def upper_bound(self):
        return self.rho0

    @property
    def lipschitz(self):
        if self.kind == "constant":
            return 0.0
        return abs(self.rho0 * self.alpha_v)


def clamped_boussinesq(rho0, alpha_v, theta_ref=0.0, rho_min=None):
    if rho_min is None:
        rho_min = rho0 / 2.0
    return DensityLaw("clamped_boussinesq", rho0, alpha_v, theta_ref, rho_min)


def constant_density(rho0):
    return DensityLaw("constant", rho0)


@dataclass(frozen=True)
class MaterialModel:
    nu: float                 # kinematic viscosity
    rho0: float               # reference density
    cV: float                 # specific heat at constant volume
    lam: float                # heat conductivity
    alpha1: float             # dissipation coefficient
    rho_law: DensityLaw = field(default=None)
    rho_sharp: float = 0.0    # upper density bound
    C_rho: float = 0.0        # Lipschitz constant of the density law

    def __post_init__(self):
        for name in ("nu", "rho0", "cV", "lam"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.alpha1 < 0:
            raise ValueError("alpha1 must be nonnegative")


def make_material(nu, rho0, cV, lam, alpha1, law=None):
    """Assemble a MaterialModel, deriving rho_sharp and C_rho from the law."""
    if law is None:
        law = clamped_boussinesq(rho0, alpha_v=0.1)
    return MaterialModel(
        nu=float(nu),
        rho0=float(rho0),
        cV=float(cV),
        lam=float(lam),
        alpha1=float(alpha1),
        rho_law=law,
        rho_sharp=law.upper_bound,
        C_rho=law.lipschitz,
    )


def density(model, theta):
    """Evaluate the density law; total on R, values in (0, rho_sharp]."""
    return model.rho_law(theta)
