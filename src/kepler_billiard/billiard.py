"""Event-driven dynamics against the wall y = h, with invariant certification.

Between collisions the particle follows its free orbit exactly.  One loop
per regime runs every collision, :func:`_kepler_chain` at g = 0 and
:func:`_revolving_chain` at g > 0: ``run`` calls one once, and ``step`` is
its one-collision form.

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

The g = 0 loop's one call per arc is the crossing, :func:`wall_crossing`;
the rest it forms inline from the floats it holds: the arc's ellipse (one
sqrt(1 - e^2) serving the semi-minor axis and the anomaly), the start's
anomaly, the post-impact elements and the impact's report.  An impact
builds three records: the post-impact elements, the event and the report.
Its floats are those of the composed route (``elements_from_cartesian``,
``OrbitalElements.geometry``, ``eccentric_of_state``,
``next_wall_crossing``, ``reflect``, ``invariant_report``), bit for bit.

At g > 0 the orbit is Newton's revolving ellipse (:class:`RevolvingOrbit`),
and :func:`next_revolving_crossing` brackets the first upward root of the
wall function by a certified scan in its true anomaly and polishes it by
Newton's method in the radial orbit's eccentric anomaly.  The g > 0 loop
forms each arc's orbit once, for its crossing and its samples.  Its events
carry the osculating g = 0 elements at the impact, so the same report
(:func:`invariant_report`) measures how far R drifts.  An arc that would
take longer than ``MAX_ARC_TIME`` counts as never reaching the wall, here
and on the ODE route of :mod:`perturbed`.

The tangent-wall angle ``lambda`` recorded on events is the direction of the
incoming velocity reduced modulo pi into (0, pi); since reflections send
lambda to pi - lambda and the R0 formula depends on cos(2*lambda) only, this
convention is insensitive to the sense of parametrization.
"""

from __future__ import annotations

import itertools
import math
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
    Unbound,
)
# state_at_eccentric and time_to_anomaly are the composed route that
# wall_crossing fuses, as elements_from_cartesian and eccentric_of_state are
# for _kepler_chain (the tests compare them bit for bit); perfbench's tracer
# wraps them under this module's name
from .kepler import (  # noqa: F401
    TOL_ECC,
    TOL_GEOM,
    TWO_PI,
    CartesianState,
    OrbitalElements,
    Params,
    RevolvingOrbit,
    check_not_radial,
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
MAX_POLISH_ITER = 50  # Newton steps on a g > 0 crossing's bracket


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
    ``t0`` plus the flight time), before reflection: :func:`wall_crossing`
    of ``el.geometry()``.

    ``alpha`` comes from ``el``; ``p`` gives only the wall height.
    """
    E_hit, r, lam, x, y, px, py, t = wall_crossing(el.geometry(), E_now, p.h, t0)
    return E_hit, r, lam, CartesianState(x, y, px, py, t)


def wall_crossing(
    geometry: tuple[float, ...], E_now: float, h: float, t0: float
) -> tuple[float, ...]:
    """The crossing of :func:`next_wall_crossing` on an already formed
    ellipse ``geometry`` (as ``OrbitalElements.geometry()`` gives it), for the
    wall y = h: ``(E_hit, r, lam, x, y, px, py, t)``.  The state comes out as
    ``state_at_eccentric`` and ``time_to_anomaly`` give it.

    Raises:
        NoCollision: if the ellipse stays below (or entirely above) the wall.
        GrazingContact: if the normal velocity at the contact is below
            ``TOL_GRAZE``.
    """
    aM, e, b, cx, cy, ux, uy, vx, vy, n = geometry
    P = aM * uy
    Q = b * vy
    rho = math.hypot(P, Q)
    d = h - cy
    if rho < abs(d):
        if d > 0.0:
            raise NoCollision(f"max y = {cy + rho:g} below wall y = {h:g}")
        raise NoCollision("ellipse lies entirely above the wall")
    E_star = math.atan2(Q, P)
    # max(-1.0, min(1.0, d / rho)) by comparisons: a NaN goes to 1.0 there too
    c = d / rho
    c = c if c < 1.0 else 1.0
    delta = math.acos(c if c > -1.0 else -1.0)
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
    return (
        E_hit, aM * (1.0 - e * cE), math.atan2(ty, tx) % math.pi,
        cx + aM * cE * ux + b * sE * vx,
        cy + aM * cE * uy + b * sE * vy,
        tx * Edot,
        ty * Edot,
        t0 + ((E_hit - e * sE) - (E_now - e * math.sin(E_now))) / n,
    )


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
    twice the Newton step.  Newton's method on ``y(E) - h`` in the radial
    orbit's eccentric anomaly E, from the Newton point, polishes that root,
    bisecting where a step leaves the bracket or the slope is not positive
    (near a near-radial apocentre, a root in nu can lie 1e-11 off the wall).
    Returns E at the root and the state there, at ``t0`` plus the flight time.

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
    n = orb.n
    nu_max = orb.nu0 + n * MAX_ARC_TIME + TWO_PI
    no_crossing = NoCollision(f"no wall crossing within t = {MAX_ARC_TIME:g}")
    if B2 == 0.0:  # at rest at r = g/mu (k = e = 0)
        raise no_crossing

    nu = orb.nu0
    for _ in range(MAX_SCAN_STEPS):
        if nu > nu_max:
            raise no_crossing
        phi = orb.phi0 + k * (nu - orb.nu0)
        f = ell * math.sin(phi) - h * (1.0 + e * math.cos(nu))  # the sign of y - h
        df = ell * k * math.cos(phi) + h * e * math.sin(nu)
        if f >= 0.0 and df > 0.0:  # on the wall going up, to round-off
            lo = E = hi = eccentric_from_true(nu, e)
            break
        if df > 0.0 and df * df > 2.0 * B2 * -f:
            hi = eccentric_from_true(nu - 2.0 * f / df, e)
            # lo needs no such check: only a round-off landing, at a pericentre, puts it on the wall
            if orb.state_at(hi).y >= h:
                lo, E = eccentric_from_true(nu, e), eccentric_from_true(nu - f / df, e)
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
    # y(E) - h, dy/dE = p_y*(1 - e*cos E)/n; the hit is the last state evaluated
    dE = 0.0
    for _ in range(MAX_POLISH_ITER):
        E -= dE
        s = orb.state_at(E)
        f = s.y - h
        df = s.py * (1.0 - e * math.cos(E)) / n
        lo, hi = (E, hi) if f < 0.0 else (lo, E)
        dE = f / df if df > 0.0 else math.inf
        tol = 1e-15 * (1.0 + abs(E))
        # a step of a few ulp ends the polish, even one out of the bracket
        if abs(dE) > tol and not lo < E - dE < hi:
            dE = E - 0.5 * (lo + hi)
        if abs(dE) <= tol:
            break
    # an unconverged estimate is caught by reflect's TOL_EVENT check
    elapsed = orb.time_to(E)
    if elapsed > MAX_ARC_TIME:
        raise no_crossing
    hit = CartesianState(s.x, s.y, s.px, s.py, t0 + elapsed)
    if hit.py <= TOL_GRAZE:
        raise GrazingContact(
            f"normal velocity {hit.py:g} at contact below tol {TOL_GRAZE:g}"
        )
    return E, hit


def reflect(s: CartesianState, p: Params, tol_event: float = TOL_EVENT) -> CartesianState:
    """Elastic impact on the wall: pin the contact onto y = h and negate py.

    Raises:
        NotOnWall: if the state as propagated is ``tol_event`` or farther
            from y = h.
    """
    if abs(s.y - p.h) >= tol_event:
        raise NotOnWall(f"|y - h| = {abs(s.y - p.h):g} >= {tol_event:g}")
    return CartesianState(s.x, p.h, s.px, -s.py, s.t)


def impact_event(
    hit: CartesianState, p: Params, n: int, tol_event: float = TOL_EVENT
) -> tuple[CartesianState, CollisionEvent]:
    """Reflect a state that the flow carried onto the wall, and record the impact.

    The event carries the osculating (Kepler) elements of the incoming state
    pinned onto the wall and of the outgoing one, so ``conserved_R`` of its
    ``post`` elements is exactly the quantity whose drift measures the
    perturbation.  At g > 0 an orbit through the centre's line (angular
    momentum about 0) is regular, and its elements have e up to 1.
    """
    out = reflect(hit, p, tol_event=tol_event)
    # the incoming state pinned onto the wall, as reflect pinned it
    pinned = CartesianState(out.x, out.y, out.px, hit.py, out.t)
    return out, CollisionEvent(
        n, out.t, out.x, pinned.r, math.atan2(hit.py, hit.px) % math.pi,
        elements_from_cartesian(pinned, p), elements_from_cartesian(out, p),
    )


def step(s: CartesianState, p: Params, n: int = 0) -> tuple[CartesianState, CollisionEvent]:
    """Propagate to the next wall impact and reflect.

    Returns the post-reflection state (on the wall, moving away) and the
    fully populated collision event: one collision of the regime's loop,
    :func:`_kepler_chain` on the Kepler ellipse through ``s`` at g = 0,
    :func:`_revolving_chain` on its revolving orbit at g > 0, where the
    event carries the osculating g = 0 elements (:func:`impact_event`).

    A start on the wall (within ``TOL_EVENT``) moving up hits it at once, on
    either route: its event is ``impact_event`` of the start itself.  The
    forward search would instead round the crossing just behind the start
    and fly a whole revolution through the wall.
    """
    events: list[CollisionEvent] = []
    out = (_revolving_chain if p.g > 0.0 else _kepler_chain)(s, p, n, 1, 0, events, None, [])
    return out, events[0]


def _check_start(s: CartesianState, p: Params) -> None:
    if s.y > p.h + TOL_EVENT:
        raise NotOnWall(f"state starts above the wall (y = {s.y:g}, y - h = {s.y - p.h:g})")


def _kepler_chain(
    s: CartesianState, p: Params, k0: int, n: int, samples_per_arc: int,
    events: list[CollisionEvent], reports: list[InvariantReport] | None,
    chunks: list[np.ndarray],
) -> CartesianState:
    """The g = 0 propagation core: ``n`` collisions from ``s``, numbered from ``k0``.

    The first arc is ``elements_from_cartesian(s, p)``, and each impact's
    post-impact elements are the next arc's.  Each impact appends its event to
    ``events``, its report to ``reports`` (unless None) and, with
    ``samples_per_arc > 0``, its arc's samples to ``chunks``; an exception
    leaves the impacts before it there.  Returns the state after the last
    reflection.  It calls :func:`wall_crossing` once an arc and forms the
    rest inline by the expressions of the composed route (module
    docstring), whose floats it gives bit for bit.

    Raises:
        NotOnWall: if ``s`` starts above the wall or a hit state is
            ``TOL_EVENT`` or farther from it.
        Degenerate: if an ellipse (the start's, or one an impact leaves) is
            near-radial (:func:`check_not_radial`).
        Unbound: if a reflected state is not bound.
        DomainError: unless 0 < r < 2*aM at an impact it certifies.
        NoCollision, GrazingContact: from :func:`wall_crossing`.
    """
    if n <= 0:  # no arc: nothing to check or form
        return s
    _check_start(s, p)
    alpha, h = p.alpha, p.h
    x, y, px, py, t = s.x, s.y, s.px, s.py, s.t
    el = elements_from_cartesian(s, p)
    e = el.e
    check_not_radial(e)
    A, a, th = el.A, el.a, el.theta0
    aM, st = -alpha / (2.0 * A), math.sin(th)
    for k in range(k0, k0 + n):
        # el.geometry(); check_not_radial has passed e, so the max(1 - e*e,
        # 0.0) of b and of beta is 1 - e*e, and one sqrt serves both
        w = math.sqrt(1.0 - e * e)
        ct = math.cos(th)
        c = aM * e
        if a >= 0.0:
            sigma, vx, vy = 1.0, st, -ct
        else:
            sigma, vx, vy = -1.0, -st, ct
        geometry = (aM, e, aM * w, c * ct, c * st, -ct, -st, vx, vy,
                    alpha * alpha / (4.0 * math.sqrt(0.5 * alpha * aM) ** 3))
        # eccentric_of_state(el, state): eccentric_from_true of the true
        # anomaly; each fmod and its sign fix is a wrap_angle
        nu = math.fmod(sigma * (math.atan2(y, x) - th - math.pi), TWO_PI)
        if nu < 0.0:
            nu += TWO_PI
        beta = e / (1.0 + w)
        E_now = math.fmod(nu - 2.0 * math.atan2(beta * math.sin(nu), 1.0 + beta * math.cos(nu)),
                          TWO_PI)
        if E_now < 0.0:
            E_now += TWO_PI
        if py > 0.0 and abs(y - h) < TOL_EVENT:  # on the wall moving up, as in step
            out, event = impact_event(CartesianState(x, y, px, py, t), p, k)
            check_not_radial(event.pre.e)
            post, x, px, py, r, lam = event.post, out.x, out.px, out.py, event.r, event.lam
            A, a, th, e = post.A, post.a, post.theta0, post.e
            check_not_radial(e)
        else:
            E_hit, r, lam, x, y, px, py, t_hit = wall_crossing(geometry, E_now, h, t)
            # reflect: pin the hit onto the wall and negate py
            if abs(y - h) >= TOL_EVENT:
                raise NotOnWall(f"|y - h| = {abs(y - h):g} >= {TOL_EVENT:g}")
            py = -py
            # elements_from_cartesian of the reflected state (x, h, px, py)
            r_out = math.hypot(x, h)
            if r_out <= TOL_GEOM:
                raise Degenerate(f"state at r = {r_out:g} is too close to the center")
            A = px * px + py * py - alpha / r_out
            if A >= 0.0:
                raise Unbound(f"A = {A:g} >= 0: not a bound orbit")
            a = x * py - h * px
            e2 = 1.0 + 4.0 * A * a * a / (alpha * alpha)
            e = math.sqrt(e2) if e2 > 0.0 else 0.0
            check_not_radial(e)
            if e <= TOL_ECC:
                th = 0.0
            else:
                ex = 2.0 * a * py / alpha - x / r_out
                ey = -2.0 * a * px / alpha - h / r_out
                th = math.fmod(math.atan2(-ey, -ex), TWO_PI)
                if th < 0.0:
                    th += TWO_PI
            post = OrbitalElements(A, a, th, alpha)
            if samples_per_arc > 0 and t_hit != t:
                chunks.append(_arc_samples(geometry, E_now, E_hit, t, samples_per_arc))
            event = CollisionEvent(k, t_hit, x, r, lam, el, post)
        events.append(event)
        el, y, t = post, h, event.t
        aM, st = -alpha / (2.0 * A), math.sin(th)
        if reports is None:
            continue
        # invariant_report of the event.  R0_from_geometry's max(val, 0.0)
        # passes a NaN on, as this does; R_from_R0 refuses R0 < 0, which a
        # square root never is
        R16 = a * a + h * alpha * e * st
        if not 0.0 < r < 2.0 * aM:
            raise DomainError(f"need 0 < r < 2*aM, got r = {r:g}, aM = {aM:g}")
        q = 2.0 * aM - r
        val = 0.25 * r * r + 0.25 * q * q + 0.5 * r * q * math.cos(2.0 * lam)
        R0 = math.sqrt(0.0 if val < 0.0 else val)
        R17 = alpha / (2.0 * aM) * (h * h + aM * aM - R0 * R0)
        lower = alpha * h * h / (2.0 * aM)
        upper = (1.0 + (aM / h) ** 2 - ((aM - r) / h) ** 2) * lower
        bounds_ok = (aM - r) ** 2 < R0 * R0 < aM * aM and lower < R16 < upper
        reports.append(InvariantReport(R16, R0, R17, abs(R16 - R17), bounds_ok))
    return CartesianState(x, y, px, py, t)


def _revolving_chain(
    s: CartesianState, p: Params, k0: int, n: int, samples_per_arc: int,
    events: list[CollisionEvent], reports: list[InvariantReport] | None,
    chunks: list[np.ndarray],
) -> CartesianState:
    """The g > 0 propagation core, with :func:`_kepler_chain`'s arguments and
    contract.  It forms each arc's revolving orbit once, which also checks that
    the start is bound, and samples the arc from that orbit."""
    for k in range(k0, k0 + n):
        _check_start(s, p)
        orb = revolving_orbit(s, p)
        # py first: a chained step leaves the wall moving down
        on_wall = s.py > 0.0 and abs(s.y - p.h) < TOL_EVENT
        E_hit, hit = (None, s) if on_wall else next_revolving_crossing(orb, p, t0=s.t)
        out, event = impact_event(hit, p, k)
        events.append(event)
        # an on-wall upward start's arc takes no time: the next arc's first
        # sample is that start, reflected
        if samples_per_arc > 0 and event.t != s.t:
            chunks.append(_revolving_samples(orb, E_hit, s.t, samples_per_arc))
        if reports is not None:
            reports.append(invariant_report(event, p))
        s = out
    return s


def invariant_report(event: CollisionEvent, p: Params) -> InvariantReport:
    """Certify one collision: both routes to R plus the inequality box.

    R_eq16, R0 and R_eq17 are ``conserved_R``, ``R0_from_geometry`` and
    ``R_from_R0`` of the event: the Kepler (osculating) quantities of its
    ``post`` elements, whatever ``p.g`` is.  The composed route: ``run`` at
    g > 0 and the tests' oracle of the g = 0 core, which certifies inline.

    Raises:
        DomainError: unless 0 < r < 2*aM (from ``R0_from_geometry``).
    """
    el, r, h = event.post, event.r, p.h
    aM = el.aM
    R16 = conserved_R(el, p)
    R0 = R0_from_geometry(r, aM, event.lam)
    R17 = R_from_R0(R0, aM, p)
    lower = p.alpha * h * h / (2.0 * aM)
    upper = (1.0 + (aM / h) ** 2 - ((aM - r) / h) ** 2) * lower
    bounds_ok = (aM - r) ** 2 < R0 * R0 < aM * aM and lower < R16 < upper
    return InvariantReport(R16, R0, R17, abs(R16 - R17), bounds_ok)


def _orbit_samples(s: CartesianState, p: Params, m: int) -> np.ndarray:
    """m states from ``s`` over one revolution of its free orbit, uniform in E.

    At g > 0, E is the eccentric anomaly of the radial motion.
    """
    if p.g > 0.0:
        orb = revolving_orbit(s, p)
        return _revolving_samples(orb, orb.E0 + TWO_PI, s.t, m)
    el = elements_from_cartesian(s, p)
    E0 = eccentric_of_state(el, s)
    return _arc_samples(el.geometry(), E0, E0 + TWO_PI, s.t, m)


def _arc_samples(geometry: tuple[float, ...], E0: float, E1: float, t0: float, m: int) -> np.ndarray:
    """Sample the arc of a ``geometry()`` tuple at m points (excluding the final anomaly)."""
    aM, e, b, cx, cy, ux, uy, vx, vy, n = geometry
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


def _revolving_samples(orb: RevolvingOrbit, E1: float, t0: float, m: int) -> np.ndarray:
    """Sample a revolving arc from its start ``orb.E0`` to ``E1`` (excluded) at m points
    uniform in E, by the formulas of ``state_at``; the first row is at ``t0``."""
    e, aM = orb.e, orb.aM
    E = np.linspace(orb.E0, E1, m, endpoint=False)
    cE, sE = np.cos(E), np.sin(E)
    beta = e / (1.0 + math.sqrt(1.0 - e * e))
    nu = E + 2.0 * np.arctan2(beta * sE, 1.0 - beta * cE)
    r = orb.semi_latus / (1.0 + e) + 2.0 * aM * e * np.sin(0.5 * E) ** 2
    phi = orb.phi0 + orb.k * (nu - orb.nu0)
    pr = math.sqrt(orb.mu * aM) * e * sE / r
    pt = orb.l / r
    cphi, sphi = np.cos(phi), np.sin(phi)
    t = t0 + ((E - e * sE) - orb.M0) / orb.n
    return np.column_stack([t, r * cphi, r * sphi, pr * cphi - pt * sphi, pr * sphi + pt * cphi])


def run(
    s0: CartesianState,
    n: int,
    p: Params,
    samples_per_arc: int = 0,
) -> BilliardRun:
    """Run ``n`` collisions from ``s0``, certifying every event.

    It is one call of the regime's loop, :func:`_kepler_chain` at g = 0 or
    :func:`_revolving_chain` at g > 0.  Either way the report is
    ``invariant_report``'s of each event's Kepler (osculating, when g > 0)
    elements.  With ``samples_per_arc > 0`` each arc is sampled from the
    orbit its crossing was found on, up to that crossing.  Orbits that never
    reach the wall are legal: the run gives the reason in ``no_collision``
    and, with ``samples_per_arc > 0``, that many samples of one (radial)
    revolution of the untouched orbit.  With ``samples_per_arc = 0`` the
    samples are the start's one row, whether or not the orbit hits.  A
    grazing contact, a near-radial (degenerate) ellipse, a hit state off the
    wall or a reflected orbit that does not return to the wall within
    ``MAX_ARC_TIME`` halts the run early with the events certified so far
    and a diagnostic in ``halted``.
    """
    events: list[CollisionEvent] = []
    reports: list[InvariantReport] = []
    chunks: list[np.ndarray] = []
    halted = None
    no_collision = None
    try:
        chain = _revolving_chain if p.g > 0.0 else _kepler_chain
        chain(s0, p, 0, n, samples_per_arc, events, reports, chunks)
    except NoCollision as exc:
        k = len(events)
        if k == 0:
            no_collision = str(exc)
            if samples_per_arc > 0:
                chunks.append(_orbit_samples(s0, p, samples_per_arc))
        else:
            halted = f"no further collision after event {k - 1}: {exc}"
    except GrazingContact as exc:
        halted = f"grazing contact at event {len(events)}: {exc}"
    except Degenerate as exc:
        halted = f"degenerate orbit at event {len(events)}: {exc}"
    except NotOnWall as exc:
        halted = f"off the wall at event {len(events)}: {exc}"
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
    r = np.fromiter(map(math.hypot, xs.tolist(), itertools.repeat(p.h, xs.size)), float, xs.size)
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
    xs, c2 = xs[inside], c2[inside]
    lam = 0.5 * np.fromiter(map(math.acos, c2.tolist()), float, c2.size)  # in (0, pi/2]
    up = lam < 0.5 * math.pi
    return np.concatenate((np.column_stack((xs, lam)),
                           np.column_stack((xs[up], math.pi - lam[up]))[::-1]))
