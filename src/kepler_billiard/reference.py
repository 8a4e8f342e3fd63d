"""Built-in reference configurations used by the verification suite and CLI.

Two orbits cover the interesting regimes at alpha = 1, h = 1:

* ``conservation``: A = -1/2 (so the semi-major axis equals the wall height).
  Here the invariant level always satisfies R < h*alpha, the momentum loop
  passes through a = 0, and the orbit recurrently visits near-radial arcs.
  Perfect for stressing the exact event-driven route (and, with g > 0, the
  perturbation probe, where the centrifugal barrier regularizes the center).

* ``gamma``: A = -1/6 with R = 1.2 > h*alpha, the rotation regime of the
  angular-momentum sign alternation.  Since a^2 >= R - h*alpha > 0 on the
  whole level, arcs stay away from the center, which also makes this the
  right orbit for cross-validating the ODE integrator against the exact
  propagation.

Note A = -1/2 cannot produce R > h*alpha: with aM = h the bound
R <= alpha*aM/2*(1-e^2) + h*alpha*e approaches h*alpha only as e -> 1.
"""

from __future__ import annotations

import math

from .delaunay import initial_state_on_level
from .kepler import (
    CartesianState,
    OrbitalElements,
    Params,
    cartesian_from_elements,
)

REFERENCE_ALPHA = 1.0
REFERENCE_H = 1.0

CONSERVATION_A = -0.5
CONSERVATION_E = 0.6
CONSERVATION_THETA0 = 1.2

GAMMA_A = -1.0 / 6.0
GAMMA_R = 1.2

PERTURBATION_G = 0.05


def reference_params(g: float = 0.0) -> Params:
    return Params(alpha=REFERENCE_ALPHA, g=g, h=REFERENCE_H)


def conservation_elements() -> OrbitalElements:
    aM = -REFERENCE_ALPHA / (2.0 * CONSERVATION_A)
    a = math.sqrt(0.5 * REFERENCE_ALPHA * aM * (1.0 - CONSERVATION_E**2))
    return OrbitalElements(
        A=CONSERVATION_A, a=a, theta0=CONSERVATION_THETA0, alpha=REFERENCE_ALPHA
    )


def conservation_state() -> CartesianState:
    """Start at the perihelion of the conservation reference ellipse."""
    return cartesian_from_elements(conservation_elements(), 0.0)


def gamma_level() -> tuple[float, float]:
    """(L, R) of the gamma reference orbit."""
    A = GAMMA_A
    aM = -REFERENCE_ALPHA / (2.0 * A)
    L = -math.sqrt(0.5 * REFERENCE_ALPHA * aM)
    return L, GAMMA_R


def gamma_state() -> CartesianState:
    L, R = gamma_level()
    return initial_state_on_level(L, R, reference_params())
