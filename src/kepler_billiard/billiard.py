"""Event-driven dynamics against the wall y = h, with invariant certification.

Between collisions the particle follows its free orbit exactly, and ``step``
picks the route by ``p.g`` alone.

At g = 0 the orbit is a Kepler ellipse, and the wall crossing is located in
closed form because the height along the orbit is a pure sinusoid of the
eccentric anomaly,

    y(E) = Cy + aM*uy*cos(E) + b*vy*sin(E) = Cy + rho*cos(E - E*),

so the upward crossing (dy/dt > 0) is ``E* - arccos((h - Cy)/rho)`` modulo one
revolution.  Reflection negates py, preserving energy and the semi-major axis;
the quantity

    R = a^2 + h*alpha*e*sin(theta0)
      = alpha/(2*aM) * (h^2 + aM^2 - R0^2)

is conserved across collisions, where R0 is the distance from the wall foot
Q = (0, h) to the ellipse center.  Each collision is certified through an
:class:`InvariantReport` that cross-checks the two routes to R0 and R and the
box bounds on both.

At g > 0 the orbit is Newton's revolving ellipse (:class:`RevolvingOrbit`),
and :func:`next_revolving_crossing` finds the first upward root of the wall
function in its true anomaly by a certified scan and a Brent polish.  Its
events carry the osculating g = 0 elements at the impact, so the same report
measures how far R drifts.  An arc that would take longer than
``MAX_ARC_TIME`` counts as never reaching the wall, here and on the ODE route
of :mod:`perturbed`.

The tangent-wall angle ``lambda`` recorded on events is the direction of the
incoming velocity reduced modulo pi into (0, pi); since reflections send
lambda to pi - lambda and the R0 formula depends on cos(2*lambda) only, this
convention is insensitive to the sense of parametrization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    Degenerate,
    DomainError,
    EmptyLevelSet,
    EmptyRegion,
    GrazingContact,
    NoCollision,
    NotOnWall,
)
# state_at_eccentric and time_to_anomaly are the composed route that
# next_wall_crossing fuses (the tests compare the two bit for bit); perfbench's
# tracer wraps them under this module's name
from .kepler import (  # noqa: F401
    TWO_PI,
    CartesianState,
    OrbitalElements,
    Params,
    RevolvingOrbit,
    eccentric_from_true,
    eccentric_of_state,
    elements_from_cartesian,
    mean_from_eccentric,
    revolving_orbit,
    state_at_eccentric,
    time_to_anomaly,
)

TOL_EVENT = 1e-12
TOL_GRAZE = 1e-10
MAX_ARC_TIME = 1e4  # the longest free flight, on every route
MAX_SCAN_STEPS = 100_000  # certified steps per g > 0 arc before it counts as grazing


@dataclass(slots=True)
class CollisionEvent:
    """One wall impact: geometry at the impact point plus both ellipses."""

    n: int
    t: float
    x_impact: float
    r: float
    lam: float
    pre: OrbitalElements
    post: OrbitalElements
    # eccentric anomaly of the impact on the arc's orbit (the radial orbit's
    # at g > 0); NaN on the ODE route
    E_hit: float = math.nan


@dataclass(slots=True)
class InvariantReport:
    """Per-collision certification of the conserved quantity and its bounds;
    the event it certifies holds its ``n`` and ``post.A``."""

    R_eq16: float
    R0: float
    R_eq17: float
    residual_identity: float
    bounds_ok: bool


@dataclass(slots=True)
class BilliardRun:
    """Output of :func:`run`: events, reports, and optional dense samples."""

    events: list[CollisionEvent]
    reports: list[InvariantReport]
    samples: np.ndarray  # shape (N, 5): columns t, x, y, px, py
    no_collision: str | None = None  # why the orbit never reaches the wall
    halted: str | None = None


def conserved_R(el: OrbitalElements, p: Params) -> float:
    """R = a^2 + h*alpha*e*sin(theta0) of the Kepler (osculating) ellipse
    ``el``, whatever ``p.g`` is: conserved at g = 0, and at g > 0 the value
    whose drift measures the perturbation."""
    return el.a * el.a + p.h * p.alpha * el.e * math.sin(el.theta0)


def R0_from_geometry(r: float, aM: float, lam: float) -> float:
    """Distance wall-foot-to-center from impact geometry (r, aM, lambda).

    Raises:
        DomainError: unless 0 < r < 2*aM.
    """
    if not 0.0 < r < 2.0 * aM:
        raise DomainError(f"need 0 < r < 2*aM, got r = {r:g}, aM = {aM:g}")
    q = 2.0 * aM - r
    val = 0.25 * r * r + 0.25 * q * q + 0.5 * r * q * math.cos(2.0 * lam)
    return math.sqrt(max(val, 0.0))


def R0_from_center(el: OrbitalElements, p: Params) -> float:
    """Distance |Q - C| from the wall foot Q = (0, h) to the ellipse center."""
    _, _, _, cx, cy, *_ = el.geometry()
    return math.hypot(cx, p.h - cy)


def R_from_R0(R0: float, aM: float, p: Params) -> float:
    """R recovered from R0: alpha/(2*aM) * (h^2 + aM^2 - R0^2)."""
    if R0 < 0.0:
        raise DomainError("R0 must be non-negative")
    return p.alpha / (2.0 * aM) * (p.h * p.h + aM * aM - R0 * R0)


def tangent_angle(el: OrbitalElements, E: float) -> float:
    """Tangent-line angle against the wall at anomaly E, reduced to [0, pi).

    An oracle, called only by the tests: it takes lambda from the ellipse's
    tangent, where ``next_wall_crossing`` returns the ``lam`` of the hit
    momentum, so the tests check that ``lam`` against it.
    """
    aM, _, b, _, _, ux, uy, vx, vy, _ = el.geometry()
    tx = -aM * math.sin(E) * ux + b * math.cos(E) * vx
    ty = -aM * math.sin(E) * uy + b * math.cos(E) * vy
    lam = math.atan2(ty, tx) % math.pi
    return lam


def next_wall_crossing(
    el: OrbitalElements, E_now: float, p: Params, t0: float = 0.0
) -> tuple[float, float, float, CartesianState]:
    """Earliest forward anomaly at which the ellipse meets y = h going up.

    Returns ``(E_hit, r, lam)`` of the impact and the state there (at time
    ``t0`` plus the flight time), before reflection.  The ellipse is
    ``el.geometry()``, and the state comes out as ``state_at_eccentric`` and
    ``time_to_anomaly`` give it.

    ``alpha`` comes from ``el``; ``p`` gives only the wall height.

    Raises:
        NoCollision: if the ellipse stays below (or entirely above) the wall.
        GrazingContact: if the normal velocity at the contact is below
            ``TOL_GRAZE``.
    """
    aM, e, b, cx, cy, ux, uy, vx, vy, n = el.geometry()
    P = aM * uy
    Q = b * vy
    rho = math.hypot(P, Q)
    d = p.h - cy
    if rho < abs(d):
        if d > 0.0:
            raise NoCollision(f"max y = {cy + rho:g} below wall y = {p.h:g}")
        raise NoCollision("ellipse lies entirely above the wall")
    E_star = math.atan2(Q, P)
    delta = math.acos(max(-1.0, min(1.0, d / rho)))
    E_up = E_star - delta
    dE = (E_up - E_now) % TWO_PI
    E_hit = E_now + dE
    cE, sE = math.cos(E_hit), math.sin(E_hit)
    # outgoing-normal filter: dy/dt must be positive (approaching the wall)
    Edot = n / (1.0 - e * cE)
    vy_hit = rho * math.sin(delta) * Edot
    if vy_hit <= TOL_GRAZE:
        raise GrazingContact(
            f"normal velocity {vy_hit:g} at contact below tol {TOL_GRAZE:g}"
        )
    tx = -aM * sE * ux + b * cE * vx
    ty = -aM * sE * uy + b * cE * vy
    hit = CartesianState(
        x=cx + aM * cE * ux + b * sE * vx,
        y=cy + aM * cE * uy + b * sE * vy,
        px=tx * Edot,
        py=ty * Edot,
        t=t0 + ((E_hit - e * sE) - (E_now - e * math.sin(E_now))) / n,
    )
    return E_hit, aM * (1.0 - e * cE), math.atan2(ty, tx) % math.pi, hit


def _brentq(f, xa: float, xb: float) -> float:
    """A root of f in [xa, xb], given ``f(xa) < 0 <= f(xb)``, by Brent's method.

    A float-for-float port of scipy's ``brentq`` (``Zeros/brentq.c``) at
    ``xtol=1e-15``, its default ``rtol`` of 4 eps and 100 iterations, and
    ``disp=False``: an unconverged search returns its last iterate.  It keeps
    ``scipy.optimize`` off the import path of :mod:`billiard`.
    (R. P. Brent, *Algorithms for Minimization Without Derivatives*, 1973,
    ch. 4.)
    """
    xtol, rtol = 1e-15, 4.0 * sys.float_info.epsilon
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C's x/0 is inf or NaN, and either one fails the test below
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    return xcur


def next_revolving_crossing(
    orb: RevolvingOrbit, p: Params, t0: float = 0.0
) -> tuple[float, CartesianState]:
    """The revolving orbit's first forward crossing of y = h going up.

    In the true anomaly ``nu`` the wall function
    ``f(nu) = (l_eff^2/mu)*sin(phi(nu)) - h*(1 + e*cos nu)`` has the sign of
    ``y - h``, with ``|f'| <= B1 = (l_eff^2/mu)*|k| + h*e`` and
    ``|f''| <= B2 = (l_eff^2/mu)*k^2 + h*e``.  Below the wall the scan steps as
    far as either bound proves ``f < 0``; the second-order step also leaves
    the wall at the arc's start, where ``f`` is about 0.  Once ``f' > 0`` and
    ``f'^2 > 2*B2*|f|``, f rises monotonically through exactly one root within
    twice the Newton step, and Brent's method polishes that root on ``y - h``
    itself.  Returns the radial orbit's eccentric anomaly at the root and the
    state there (at time ``t0`` plus the flight time), before reflection.

    Raises:
        NoCollision: if the apocentre lies below the wall, or the crossing
            comes later than ``MAX_ARC_TIME``.
        GrazingContact: if the scan stalls or exceeds ``MAX_SCAN_STEPS`` near
            a tangency, or the normal velocity at the contact is below
            ``TOL_GRAZE``.
    """
    ell, e, k, h = orb.semi_latus, orb.e, orb.k, p.h
    if ell < h * (1.0 - e):
        raise NoCollision(f"apocentre {ell / (1.0 - e):g} below wall y = {h:g}")
    B1 = ell * abs(k) + h * e
    B2 = ell * k * k + h * e
    # in MAX_ARC_TIME the radial motion completes at most n*T/(2*pi) + 1 turns
    nu_max = orb.nu0 + orb.mean_motion() * MAX_ARC_TIME + TWO_PI
    no_crossing = NoCollision(f"no wall crossing within t = {MAX_ARC_TIME:g}")
    if B2 == 0.0:  # at rest at r = g/mu (k = e = 0)
        raise no_crossing

    def gap(nu: float) -> float:
        return ell * math.sin(orb.phi0 + k * (nu - orb.nu0)) / (1.0 + e * math.cos(nu)) - h

    nu = orb.nu0
    for _ in range(MAX_SCAN_STEPS):
        if nu > nu_max:
            raise no_crossing
        f = gap(nu) * (1.0 + e * math.cos(nu))  # the sign of y - h, exactly
        df = ell * k * math.cos(orb.phi0 + k * (nu - orb.nu0)) + h * e * math.sin(nu)
        if f >= 0.0 and df > 0.0:  # on the wall going up, to round-off
            nu_hit = nu
            break
        if df > 0.0 and df * df > 2.0 * B2 * -f:
            hi = nu - 2.0 * f / df
            if gap(hi) >= 0.0:
                # an unconverged estimate is caught by reflect's TOL_EVENT check
                nu_hit = _brentq(gap, nu, hi)
                break
        disc = df * df - 2.0 * B2 * f
        if disc < 0.0:
            raise GrazingContact(f"cannot leave the wall at nu = {nu:g}")
        root = math.sqrt(disc)
        d2 = (root - df) / B2 if df <= 0.0 else -2.0 * f / (df + root)
        nu_next = nu + max(-f / B1, d2)
        if not nu_next > nu:
            raise GrazingContact(f"wall scan stalled at nu = {nu:g}")
        nu = nu_next
    else:
        raise GrazingContact(f"wall scan took more than {MAX_SCAN_STEPS} certified steps")
    elapsed = orb.time_to(nu_hit)
    if elapsed > MAX_ARC_TIME:
        raise no_crossing
    hit = orb.state_at(nu_hit, t=t0 + elapsed)
    if hit.py <= TOL_GRAZE:
        raise GrazingContact(
            f"normal velocity {hit.py:g} at contact below tol {TOL_GRAZE:g}"
        )
    return eccentric_from_true(nu_hit, e), hit


def reflect(s: CartesianState, p: Params, tol_event: float = TOL_EVENT) -> CartesianState:
    """Elastic impact on the wall: pin the contact onto y = h and negate py.

    Raises:
        NotOnWall: if the state as propagated is ``tol_event`` or farther
            from y = h.
    """
    if abs(s.y - p.h) >= tol_event:
        raise NotOnWall(f"|y - h| = {abs(s.y - p.h):g} >= {tol_event:g}")
    return CartesianState(x=s.x, y=p.h, px=s.px, py=-s.py, t=s.t)


def impact_event(
    hit: CartesianState, p: Params, n: int, tol_event: float = TOL_EVENT, E_hit: float = math.nan
) -> tuple[CartesianState, CollisionEvent]:
    """Reflect a state that the flow carried onto the wall, and record the impact.

    The event carries the osculating (Kepler) elements of the incoming state
    pinned onto the wall and of the outgoing one, so ``conserved_R`` of its
    ``post`` elements is exactly the quantity whose drift measures the
    perturbation.
    """
    out = reflect(hit, p, tol_event=tol_event)
    # the incoming state pinned onto the wall, as reflect pinned it
    pinned = CartesianState(x=out.x, y=out.y, px=out.px, py=hit.py, t=out.t)
    event = CollisionEvent(
        n=n, t=out.t, x_impact=out.x, r=pinned.r,
        lam=math.atan2(hit.py, hit.px) % math.pi,
        pre=elements_from_cartesian(pinned, p),
        post=elements_from_cartesian(out, p),
        E_hit=E_hit,
    )
    return out, event


def step(
    s: CartesianState, p: Params, n: int = 0, el: OrbitalElements | None = None
) -> tuple[CartesianState, CollisionEvent]:
    """Propagate to the next wall impact and reflect.

    Returns the post-reflection state (on the wall, moving away) and the
    fully populated collision event.  At g = 0 the arc is the Kepler
    ellipse ``el``, by default ``elements_from_cartesian(s, p)``; a chain of
    steps passes each event's ``post`` elements on, which are exactly that.
    At g > 0 the arc is the revolving orbit, ``el`` is not read, and the
    event carries the osculating g = 0 elements (:func:`impact_event`).
    """
    if s.y > p.h + TOL_EVENT:
        raise NotOnWall(f"state starts above the wall (y = {s.y:g})")
    if p.g > 0.0:
        E_hit, hit = next_revolving_crossing(revolving_orbit(s, p), p, t0=s.t)
        return impact_event(hit, p, n, E_hit=E_hit)
    if el is None:
        el = elements_from_cartesian(s, p)
    E_hit, r, lam, hit = next_wall_crossing(el, eccentric_of_state(el, s), p, s.t)
    out = reflect(hit, p)
    event = CollisionEvent(
        n=n, t=out.t, x_impact=out.x, r=r, lam=lam,
        pre=el, post=elements_from_cartesian(out, p), E_hit=E_hit,
    )
    return out, event


def invariant_report(event: CollisionEvent, p: Params) -> InvariantReport:
    """Certify one collision: both routes to R plus the inequality box.

    R_eq16, R0 and R_eq17 are ``conserved_R``, ``R0_from_geometry`` and
    ``R_from_R0`` of the event: the Kepler (osculating) quantities of its
    ``post`` elements, whatever ``p.g`` is.

    Raises:
        DomainError: unless 0 < r < 2*aM (from ``R0_from_geometry``).
    """
    el = event.post
    aM, r = el.aM, event.r
    R16 = conserved_R(el, p)
    R0 = R0_from_geometry(r, aM, event.lam)
    R17 = R_from_R0(R0, aM, p)
    lower = p.alpha * p.h * p.h / (2.0 * aM)
    upper = (
        1.0 + (aM / p.h) ** 2 - ((aM - r) / p.h) ** 2
    ) * lower
    bounds_ok = (
        (aM - r) ** 2 < R0 * R0 < aM * aM
        and lower < R16 < upper
    )
    return InvariantReport(
        R_eq16=R16,
        R0=R0,
        R_eq17=R17,
        residual_identity=abs(R16 - R17),
        bounds_ok=bounds_ok,
    )


def _orbit_samples(s: CartesianState, E1: float | None, p: Params, m: int) -> np.ndarray:
    """m states from ``s`` along its free orbit, uniform in E up to (excluding) E1.

    At g > 0, E is the eccentric anomaly of the radial motion.  ``E1 = None``
    samples one full (radial) revolution.
    """
    if p.g > 0.0:
        orb = revolving_orbit(s, p)
        E0 = eccentric_from_true(orb.nu0, orb.e)
        return _revolving_samples(orb, E0, E0 + TWO_PI if E1 is None else E1, s.t, m)
    el = elements_from_cartesian(s, p)
    E0 = eccentric_of_state(el, s)
    return _arc_samples(el, E0, E0 + TWO_PI if E1 is None else E1, s.t, m)


def _arc_samples(el: OrbitalElements, E0: float, E1: float, t0: float, m: int) -> np.ndarray:
    """Sample an elliptic arc at m points (excluding the final anomaly)."""
    aM, e, b, cx, cy, ux, uy, vx, vy, n = el.geometry()
    E = np.linspace(E0, E1, m, endpoint=False)
    cE, sE = np.cos(E), np.sin(E)
    x = cx + aM * cE * ux + b * sE * vx
    y = cy + aM * cE * uy + b * sE * vy
    Edot = n / (1.0 - e * cE)
    px = (-aM * sE * ux + b * cE * vx) * Edot
    py = (-aM * sE * uy + b * cE * vy) * Edot
    M0 = mean_from_eccentric(E0, e)
    t = t0 + ((E - e * np.sin(E)) - M0) / n
    return np.column_stack([t, x, y, px, py])


def _revolving_samples(
    orb: RevolvingOrbit, E0: float, E1: float, t0: float, m: int
) -> np.ndarray:
    """Sample a revolving arc at m points, uniform in the radial eccentric anomaly."""
    e = orb.e
    E = np.linspace(E0, E1, m, endpoint=False)
    cE, sE = np.cos(E), np.sin(E)
    beta = e / (1.0 + math.sqrt(1.0 - e * e))
    nu = E + 2.0 * np.arctan2(beta * sE, 1.0 - beta * cE)
    r = orb.aM * (1.0 - e * cE)
    phi = orb.phi0 + orb.k * (nu - orb.nu0)
    pr = orb.mu / orb.l_eff * e * np.sin(nu)
    pt = orb.l / r
    cphi, sphi = np.cos(phi), np.sin(phi)
    t = t0 + ((E - e * sE) - mean_from_eccentric(E0, e)) / orb.mean_motion()
    return np.column_stack([t, r * cphi, r * sphi, pr * cphi - pt * sphi, pr * sphi + pt * cphi])


def run(
    s0: CartesianState,
    n: int,
    p: Params,
    samples_per_arc: int = 0,
) -> BilliardRun:
    """Run ``n`` collisions from ``s0``, certifying every event.

    Every g >= 0 takes this loop, and ``invariant_report(event, p)``
    certifies each event's Kepler (osculating, when g > 0) elements.  With
    ``samples_per_arc > 0`` each arc is sampled up to the crossing its step
    found.  Orbits that never reach the wall are legal: the run returns one
    sampled (radial) revolution of the untouched orbit with the reason in
    ``no_collision``.  A grazing contact, a near-radial (degenerate) ellipse,
    a hit state off the wall or a reflected orbit that does not return to the
    wall within ``MAX_ARC_TIME`` halts the run early with the events
    certified so far and a diagnostic in ``halted``.  At g = 0 each step
    reuses the previous event's ``post`` elements, so every ellipse is formed
    once.
    """
    events: list[CollisionEvent] = []
    reports: list[InvariantReport] = []
    chunks: list[np.ndarray] = []
    state, el = s0, None
    halted = None
    no_collision = None
    for k in range(n):
        try:
            nxt, event = step(state, p, n=k, el=el)
        except NoCollision as exc:
            if k == 0:
                no_collision = str(exc)
                m = samples_per_arc if samples_per_arc > 0 else 256
                chunks.append(_orbit_samples(state, None, p, m))
            else:
                halted = f"no further collision after event {k - 1}: {exc}"
            break
        except GrazingContact as exc:
            halted = f"grazing contact at event {k}: {exc}"
            break
        except Degenerate as exc:
            halted = f"degenerate orbit at event {k}: {exc}"
            break
        except NotOnWall as exc:
            halted = f"off the wall at event {k}: {exc}"
            break
        if samples_per_arc > 0:
            chunks.append(_orbit_samples(state, event.E_hit, p, samples_per_arc))
        events.append(event)
        reports.append(invariant_report(event, p))
        state, el = nxt, event.post
    if chunks:
        samples = np.vstack(chunks)
    else:
        samples = np.array([[s0.t, s0.x, s0.y, s0.px, s0.py]])
    return BilliardRun(
        events=events,
        reports=reports,
        samples=samples,
        no_collision=no_collision,
        halted=halted,
    )


def accessible_interval(A: float, p: Params) -> tuple[float, float]:
    """Abscissa interval of the energy surface on the wall.

    Returns the outermost roots (x_min, x_max) = (-x_max, x_max) of
    ``A = g/(x^2+h^2) - alpha/sqrt(x^2+h^2)``.

    Raises:
        EmptyRegion: if the energy surface never reaches the wall.
    """
    if A >= 0.0:
        raise ValueError("accessible region is defined for A < 0")
    disc = p.alpha * p.alpha + 4.0 * p.g * A
    if disc < 0.0:
        raise EmptyRegion("energy below the minimum of the effective potential")
    # smaller root of g*u^2 - alpha*u - A in u = 1/r, rationalized so the
    # g -> 0 limit alpha/|A| comes out without cancellation
    u_minus = -2.0 * A / (p.alpha + math.sqrt(disc))
    r_max = 1.0 / u_minus
    if r_max < p.h:
        raise EmptyRegion(f"turning radius {r_max:g} below wall height {p.h:g}")
    x_max = math.sqrt(max(r_max * r_max - p.h * p.h, 0.0))
    return (-x_max, x_max)


def r_value_on_section(x: float, lam: float, A: float, p: Params) -> float:
    """R evaluated at a section point (x, lambda) at energy A/2, g = 0.

    An oracle, called only by the tests: it evaluates R pointwise from the
    impact geometry, so the tests check each point of ``level_set_R`` and
    each impact of a g = 0 run against the level they should carry.
    """
    aM = -p.alpha / (2.0 * A)
    r = math.hypot(x, p.h)
    return R_from_R0(R0_from_geometry(r, aM, lam), aM, p)


def level_set_R(A: float, R: float, p: Params) -> np.ndarray:
    """Trace the level set R(x, lambda) = R inside the section rectangle.

    It is sampled at 1000 interior abscissae of the accessible interval.
    For each x the relation is affine in cos(2*lambda), so the lower-branch
    angle is recovered by a direct arccos and mirrored about pi/2; the two
    branches are returned as one closed polyline, an (N, 2) array of
    (x, lambda).

    Raises:
        EmptyLevelSet: if no interior point of the rectangle carries R.
    """
    aM = -p.alpha / (2.0 * A)
    R0_sq = p.h * p.h + aM * aM - 2.0 * aM * R / p.alpha
    if R0_sq < 0.0:
        raise EmptyLevelSet(f"R = {R:g} exceeds the value at R0 = 0")
    x_min, x_max = accessible_interval(A, Params(alpha=p.alpha, g=0.0, h=p.h))
    xs = np.linspace(x_min, x_max, 1002)[1:-1]
    # math.hypot and math.acos per element: np.hypot and np.arccos differ
    # from them in the last bit on part of their inputs
    r = np.array(list(map(math.hypot, xs.tolist(), [p.h] * xs.size)))
    q = 2.0 * aM - r
    keep = q > 0.0
    xs, r, q = xs[keep], r[keep], q[keep]
    # overflow gives inf or nan, silently as in float arithmetic; an
    # underflowed denominator raises as a float division by zero does
    with np.errstate(over="ignore", invalid="ignore"):
        den = 2.0 * r * q
        if not den.all():
            raise ZeroDivisionError("float division by zero")
        c2 = (4.0 * R0_sq - r * r - q * q) / den
    # the 1e-12 guard keeps round-off at the lambda = 0 boundary from
    # turning the degenerate R0 = aM level into spurious interior points
    inside = (c2 >= -1.0) & (c2 <= 1.0 - 1e-12)
    if not inside.any():
        raise EmptyLevelSet(f"level R = {R:g} does not intersect the rectangle")
    xs = xs[inside]
    lam = 0.5 * np.array(list(map(math.acos, c2[inside].tolist())))  # in (0, pi/2]
    up = lam < 0.5 * math.pi
    return np.concatenate((np.column_stack((xs, lam)),
                           np.column_stack((xs[up], math.pi - lam[up]))[::-1]))
