"""Generalized Maxwell (Wiechert) material model.

An elastic branch (Lame parameters mu, lambda) in parallel with M
spring-dashpot arms, each carrying a shear-type modulus kappa_m and a
relaxation time tau_m. Arm m contributes the deviatoric stress
kappa_m * dev(u_ve_m), where the internal field u_ve_m is the
exponentially weighted running integral of the velocity. The model keeps
the arms' moduli and relaxation times as two read-only arrays, ``kappa``
and ``tau``, indexed like the rows of a state's (M, n) internal fields,
so every per-arm formula is a whole-array expression.

Also provides the per-timestep update coefficients of the internal-field
recursion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def lame_from_engineering(E, nu):
    """Lame parameters (mu, lam) from Young's modulus and Poisson ratio."""
    if E <= 0:
        raise ValueError("Young's modulus must be positive")
    if not -1.0 < nu < 0.5:
        raise ValueError("Poisson ratio must lie in (-1, 0.5)")
    mu = E / (2.0 * (1.0 + nu))
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return mu, lam


@dataclass(frozen=True)
class MaxwellArm:
    kappa: float  # arm stiffness modulus [Pa]
    tau: float  # relaxation time [s]

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and np.isfinite(self.tau)):
            raise ValueError("arm modulus and relaxation time must be finite")
        if self.kappa <= 0 or self.tau <= 0:
            raise ValueError("arm modulus and relaxation time must be positive")


@dataclass(frozen=True)
class MaterialModel:
    """Density, elastic Lame pair, and the Maxwell arms; ``kappa`` and
    ``tau`` hold the arms' moduli and relaxation times as read-only
    arrays of length M."""

    rho: float
    mu: float
    lam: float
    arms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.rho, self.mu, self.lam)):
            raise ValueError("density and Lame parameters must be finite")
        if self.rho <= 0:
            raise ValueError("density must be positive")
        if self.mu <= 0 or self.lam < 0:
            raise ValueError("need mu > 0 and lam >= 0")
        object.__setattr__(
            self,
            "arms",
            tuple(a if isinstance(a, MaxwellArm) else MaxwellArm(*a) for a in self.arms),
        )
        for name in ("kappa", "tau"):
            values = np.array([getattr(a, name) for a in self.arms], dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @classmethod
    def from_engineering(cls, rho, E, nu, arms=()):
        mu, lam = lame_from_engineering(E, nu)
        return cls(rho, mu, lam, tuple(arms))

    @property
    def n_arms(self):
        return len(self.arms)


@dataclass(frozen=True)
class StepCoefficients:
    """Per-arm update coefficients for one timestep k.

    alpha = k / (2 + k/tau),  beta = (2 - k/tau) / (2 + k/tau); the
    internal field advances as
    u_ve(t_n) = alpha*(u1(t_n) + u1(t_{n-1})) + beta*u_ve(t_{n-1}).
    """

    alpha: np.ndarray
    beta: np.ndarray


def step_coefficients(arms, k) -> StepCoefficients:
    if k <= 0:
        raise ValueError("timestep must be positive")
    taus = np.array([arm.tau for arm in arms], dtype=float)
    return StepCoefficients(k / (2.0 + k / taus),
                            (2.0 - k / taus) / (2.0 + k / taus))
