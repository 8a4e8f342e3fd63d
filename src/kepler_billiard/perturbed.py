"""Direct numerical integration of the full Hamiltonian, g >= 0, and section ensembles.

The DOP853 route is the independent oracle of the closed-form flow in
:mod:`billiard`: ``verify`` checks the exact g = 0 impacts against it and
measures the drift of the osculating R (and the per-arc energy error) on its
1000-arc g = 0.05 run, and the tests check the g > 0 arcs against it.  No
other subcommand propagates with it.

Integration uses an adaptive 8th-order Runge-Kutta pair (DOP853) at fixed
tolerances ``REL_TOL`` and ``ABS_TOL``; scipy's event search locates the wall
crossing y = h on the interpolant of the step that brackets it, keeping only
crossings that approach the wall (dy/dt > 0).  ``scipy.integrate`` is
imported on the first integration, so the closed-form subcommands never load
it.  An arc is abandoned after ``billiard.MAX_ARC_TIME`` or beyond
``ESCAPE_RADIUS``.  Each impact goes through :func:`billiard.impact_event`
with ten times the exact route's ``TOL_EVENT``.  The osculating R at an
impact is computed from the g = 0 element formulas applied to the
instantaneous state; for g > 0 it is a drift diagnostic, not an invariant.

:func:`section_ensemble` runs the section seeds through :func:`billiard.run`,
the closed-form route, for every g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import billiard
from .errors import BilliardError, NoCollision, StepFailure, Unbound
# elements_from_cartesian is used through billiard.impact_event; perfbench's
# tracer wraps it under this module's name
from .kepler import CartesianState, Params, elements_from_cartesian  # noqa: F401

R_SINGULARITY_GUARD = 1e-6
REL_TOL = 1e-12
ABS_TOL = 1e-12
ESCAPE_RADIUS = 1e3


@dataclass(frozen=True)
class SeedOutcome:
    """Per-seed result of an ensemble run, in seed order; failures are isolated."""

    events: list[billiard.CollisionEvent]
    error: str | None = None


def _rhs(p: Params):
    alpha, g = p.alpha, p.g

    def f(_t, y):
        x, yy, px, py = y
        r2 = x * x + yy * yy
        r = math.sqrt(r2)
        # dV/dr of -alpha/(2r) + g/(2r^2), divided by r
        coef = -0.5 * alpha / (r2 * r) + g / (r2 * r2)
        return (px, py, coef * x, coef * yy)

    return f


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, with scipy.integrate imported on the first call."""
    import scipy.integrate

    return scipy.integrate.solve_ivp(*args, **kwargs)


def integrate_to_wall(s: CartesianState, p: Params) -> CartesianState:
    """Integrate Hamilton's equations until the next upward wall crossing.

    Returns the state at the crossing as propagated (approaching the wall);
    its ``t`` is ``s.t`` plus the elapsed time.  A state already on the wall
    and approaching it returns itself.

    Raises:
        Unbound: for non-negative energy.
        StepFailure: integrator breakdown, leaving the bounding radius or the
            r -> 0 singularity guard.
        NoCollision: no crossing within ``billiard.MAX_ARC_TIME``.
    """
    if abs(s.y - p.h) < billiard.TOL_EVENT and s.py > 0.0:
        return s
    if s.hamiltonian(p) >= 0.0:
        raise Unbound(f"H = {s.hamiltonian(p):g} >= 0")

    def wall(_t, y):
        return y[1] - p.h

    wall.terminal = True
    wall.direction = 1.0

    def escape(_t, y):
        return math.hypot(y[0], y[1]) - ESCAPE_RADIUS

    escape.terminal = True
    escape.direction = 1.0

    def center(_t, y):
        return math.hypot(y[0], y[1]) - R_SINGULARITY_GUARD

    center.terminal = True
    center.direction = -1.0

    sol = solve_ivp(
        _rhs(p),
        (0.0, billiard.MAX_ARC_TIME),
        [s.x, s.y, s.px, s.py],
        method="DOP853",
        rtol=REL_TOL,
        atol=ABS_TOL,
        events=[wall, escape, center],
    )
    if sol.status == -1:
        raise StepFailure(f"integrator failed: {sol.message}")
    if len(sol.t_events[1]):
        raise StepFailure(f"left bounding radius {ESCAPE_RADIUS:g}")
    if len(sol.t_events[2]):
        raise StepFailure(f"approached the center within {R_SINGULARITY_GUARD:g}")
    if not len(sol.t_events[0]):
        raise NoCollision(f"no wall crossing within t = {billiard.MAX_ARC_TIME:g}")
    y_hit = sol.y_events[0][0]
    return CartesianState(
        x=float(y_hit[0]), y=float(y_hit[1]),
        px=float(y_hit[2]), py=float(y_hit[3]),
        t=s.t + float(sol.t_events[0][0]),
    )


def run_perturbed(
    s0: CartesianState, n: int, p: Params
) -> tuple[list[billiard.CollisionEvent], float]:
    """n wall collisions by direct integration, with per-arc energy audit.

    Returns ``(events, max_rel_drift)``: the impacts and the largest per-arc
    change of H relative to |H0|.  Each impact goes through the event-driven
    module's impact record, :func:`billiard.impact_event`, as the closed-form
    g > 0 route's do.
    """
    events: list[billiard.CollisionEvent] = []
    drifts: list[float] = []
    H0 = s0.hamiltonian(p)
    state = s0
    for k in range(n):
        hit = integrate_to_wall(state, p)
        drifts.append(abs(hit.hamiltonian(p) - state.hamiltonian(p)))
        state, event = billiard.impact_event(hit, p, k, tol_event=10.0 * billiard.TOL_EVENT)
        events.append(event)
    scale = abs(H0) if H0 != 0.0 else 1.0
    # np.max, so that a NaN drift is reported rather than skipped
    max_rel = float(np.max(drifts)) / scale if drifts else 0.0
    return events, max_rel


def section_ensemble(seeds: list[CartesianState], n: int, p: Params) -> list[SeedOutcome]:
    """Section clouds for several seeds sharing one energy surface.

    Each seed runs through :func:`billiard.run`.  A seed that never reaches
    the wall, halts, or raises a domain failure (a :class:`BilliardError`)
    is a failed seed: its outcome records the reason, and the other seeds go
    on.  A halted seed keeps the events certified before the halt; the other
    two have none.  Any other exception is a fault and propagates.

    Raises:
        ValueError: if the seeds do not share the same energy A.
    """
    if seeds:
        A0 = seeds[0].energy_A(p)
        for i, s in enumerate(seeds[1:], start=1):
            if abs(s.energy_A(p) - A0) > 1e-9 * max(1.0, abs(A0)):
                raise ValueError(f"seed {i} has A = {s.energy_A(p):g} != {A0:g}")
    outcomes: list[SeedOutcome] = []
    for seed in seeds:
        try:
            res = billiard.run(seed, n, p)
        except BilliardError as exc:
            outcomes.append(SeedOutcome(events=[], error=f"{type(exc).__name__}: {exc}"))
        else:
            error = f"NoCollision: {res.no_collision}" if res.no_collision else res.halted
            outcomes.append(SeedOutcome(events=res.events, error=error))
    return outcomes
