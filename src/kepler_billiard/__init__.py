"""Exact event-driven simulator for a planar Kepler billiard with an elastic wall."""

from .billiard import CollisionEvent, InvariantReport, conserved_R, run, step
from .kepler import (
    CartesianState,
    OrbitalElements,
    Params,
    elements_from_cartesian,
)

__all__ = [
    "CartesianState",
    "CollisionEvent",
    "InvariantReport",
    "OrbitalElements",
    "Params",
    "conserved_R",
    "elements_from_cartesian",
    "run",
    "step",
]
__version__ = "0.1.0"
