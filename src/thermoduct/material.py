"""Material constants and the temperature-dependent density law.

The density law is one formula, rho0 (1 - alpha_v (theta - theta_ref))
clamped to [rho_min, rho0]; the constant law is its alpha_v = 0,
rho_min = rho0 case.  ``DensityLaw`` rejects parameters that would make
the law nonpositive or increasing, or its clamp empty (rho_min > rho0),
so every law is strictly positive, nonincreasing and continuous.  The
reference density rho0, the upper bound rho_sharp = rho0 and the
Lipschitz constant C_rho = rho0 alpha_v are read from the law by
``MaterialModel``, never stored beside it.  The law multiplies gravity in
the momentum equation and the convective term of the heat equation,
everywhere else the constant reference density is used.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensityLaw",
    "MaterialModel",
    "clamped_boussinesq",
    "constant_density",
    "make_material",
]


@dataclass(frozen=True)
class DensityLaw:
    """rho0 * (1 - alpha_v * (theta - theta_ref)), clamped to [rho_min, rho0].

    Requires finite parameters, rho0 > 0, alpha_v >= 0 (nonincreasing) and
    0 < rho_min <= rho0 (a nonempty clamp); raises ValueError naming one otherwise.
    """

    rho0: float
    alpha_v: float
    theta_ref: float
    rho_min: float

    def __post_init__(self):
        if not 0 < self.rho0 < np.inf:
            raise ValueError("rho0 must be finite and positive")
        if not 0 <= self.alpha_v < np.inf:
            raise ValueError("alpha_v must be finite and nonnegative (a nonincreasing law)")
        if not np.isfinite(self.theta_ref):
            raise ValueError("theta_ref must be finite")
        if not 0 < self.rho_min <= self.rho0:
            raise ValueError("rho_min must be finite, positive and at most rho0")

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        lin = self.rho0 * (1.0 - self.alpha_v * (theta - self.theta_ref))
        return np.clip(lin, self.rho_min, self.rho0)


def clamped_boussinesq(rho0, alpha_v, theta_ref=0.0, rho_min=None):
    if rho_min is None:
        rho_min = rho0 / 2.0
    return DensityLaw(rho0, alpha_v, theta_ref, rho_min)


def constant_density(rho0):
    """rho0 for every finite theta, with C_rho = 0."""
    return DensityLaw(rho0, 0.0, 0.0, rho0)


@dataclass(frozen=True)
class MaterialModel:
    nu: float                 # kinematic viscosity
    cV: float                 # specific heat at constant volume
    lam: float                # heat conductivity
    alpha1: float             # dissipation coefficient
    rho_law: DensityLaw

    def __post_init__(self):
        for name in ("nu", "cV", "lam"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.alpha1 < np.inf:
            raise ValueError("alpha1 must be finite and nonnegative")

    @property
    def rho0(self):           # reference density
        return self.rho_law.rho0

    @property
    def rho_sharp(self):      # upper bound of the density law
        return self.rho_law.rho0

    @property
    def C_rho(self):          # Lipschitz constant of the density law
        return self.rho_law.rho0 * self.rho_law.alpha_v


def make_material(nu, cV, lam, alpha1, law):
    return MaterialModel(float(nu), float(cV), float(lam), float(alpha1), law)
