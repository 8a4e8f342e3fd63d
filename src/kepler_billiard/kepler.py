"""Closed-form planar two-body motion: Kepler ellipses, and at g > 0 revolving orbits.

The attracting center sits at the origin with potential -alpha/(2r), so the
effective gravitational parameter is mu = alpha/2.  Bound orbits are ellipses
with one focus at the origin, identified by the triplet (A, a, theta0):

* ``A``      twice the orbital energy, ``A = p^2 - alpha/r`` (negative when bound),
* ``a``      the angular momentum ``x*py - y*px`` (its sign is the sense of rotation),
* ``theta0`` the polar angle of the aphelion, reduced to [0, 2*pi).

Derived quantities follow from the triplet: semi-major axis ``aM = -alpha/(2A)``,
eccentricity ``e = sqrt(1 + 4*A*a^2/alpha^2)``, and the Delaunay action
``L = -sqrt(alpha*aM/2)``.  The negative sign of ``L`` is a convention; it makes
the raw mean-motion rate ``alpha^2/(4L^3)`` negative, so elapsed times are always
computed from the magnitude ``|alpha^2/(4L^3)|``.

Anomalies use the standard conventions: true anomaly ``nu`` measured from the
perihelion in the direction of motion, eccentric anomaly ``E`` with
``r = aM*(1 - e*cos E)``, mean anomaly ``M = E - e*sin E``.

Functions of an ellipse alone read alpha from its :class:`OrbitalElements`
and take no :class:`Params`; the elements of a state are its Kepler
(osculating) ellipse at any ``g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Degenerate, NoConvergence, Unbound

TWO_PI = 2.0 * math.pi

# Degeneracy and solver tolerances (double-precision headroom).
TOL_ECC = 1e-12
TOL_GEOM = 1e-12
TOL_KEPLER = 1e-14
MAX_KEPLER_ITER = 50


def wrap_angle(x: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    x = math.fmod(x, TWO_PI)
    return x + TWO_PI if x < 0.0 else x


@dataclass(frozen=True)
class Params:
    """Physical constants: attraction strength, centrifugal coefficient, wall height.

    The in-between-collisions Hamiltonian is
    ``H = (px^2 + py^2)/2 - alpha/(2r) + g/(2r^2)`` and the wall is the line
    ``y = h``.  Everything is dimensionless; the defaults ``alpha = 1, h = 1``
    are the values used throughout the reference runs.
    """

    alpha: float = 1.0
    g: float = 0.0
    h: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")
        if self.g < 0.0:
            raise ValueError("g must be >= 0")
        if not self.h > 0.0:
            raise ValueError("h must be > 0")

    @property
    def mu(self) -> float:
        """Gravitational parameter of the -alpha/(2r) potential."""
        return 0.5 * self.alpha


# The records built per impact (this one, OrbitalElements, RevolvingOrbit,
# billiard's CollisionEvent and InvariantReport) are slotted, not frozen: a
# frozen __init__ stores each field through object.__setattr__, which costs
# about as much as the impact's arithmetic.  The per-run records (billiard's
# BilliardRun, delaunay's GammaSeries) are slotted too.  The package never
# mutates any of them; the slots still reject a misspelt attribute.  The
# per-impact ones are built positionally: by keyword, a slotted record took
# about 0.5 us against 0.25 us (Python 3.11), on three records a g = 0 impact
# (post-impact elements, event, report) and more at g > 0.
@dataclass(slots=True)
class CartesianState:
    """Phase-space point (x, y, px, py) at time t."""

    x: float
    y: float
    px: float
    py: float
    t: float = 0.0

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def speed_sq(self) -> float:
        return self.px * self.px + self.py * self.py

    @property
    def angular_momentum(self) -> float:
        return self.x * self.py - self.y * self.px

    def energy_A(self, p: Params) -> float:
        """Twice the energy: ``p^2 - alpha/r + g/r^2``."""
        r = self.r
        return self.speed_sq - p.alpha / r + p.g / (r * r)

    def hamiltonian(self, p: Params) -> float:
        return 0.5 * self.energy_A(p)


@dataclass(slots=True)
class OrbitalElements:
    """Bound Kepler ellipse (A, a, theta0) with the system constant alpha.

    ``alpha`` is carried along so the derived quantities (aM, e, L, geometry())
    and every function of the ellipse alone are self-contained: those take
    no :class:`Params`.
    """

    A: float
    a: float
    theta0: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.A < 0.0:
            raise ValueError("bound orbit requires A < 0")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")

    @property
    def aM(self) -> float:
        """Semi-major axis, -alpha/(2A)."""
        return -self.alpha / (2.0 * self.A)

    @property
    def e(self) -> float:
        """Eccentricity, sqrt(1 + 4*A*a^2/alpha^2), clipped against round-off."""
        e2 = 1.0 + 4.0 * self.A * self.a * self.a / (self.alpha * self.alpha)
        return math.sqrt(e2) if e2 > 0.0 else 0.0

    @property
    def L(self) -> float:
        """Delaunay action -sqrt(alpha*aM/2) (negative by convention)."""
        return -math.sqrt(0.5 * self.alpha * self.aM)

    def geometry(self) -> tuple[float, ...]:
        """The ellipse formed once: ``(aM, e, b, cx, cy, ux, uy, vx, vy, n)``.

        ``aM`` and ``e`` by the expressions of their properties; ``b`` the
        semi-minor axis; ``(cx, cy)`` the center, aM*e*(cos theta0, sin
        theta0); ``u`` the unit axis from the center toward the perihelion,
        and ``v`` the one a quarter turn from it in the direction of motion,
        so the eccentric anomaly always increases with time whatever the
        rotation sense; ``n`` the magnitude of the mean-anomaly rate,
        |alpha^2 / (4 L^3)|.  The g = 0 core of :mod:`billiard` forms this
        tuple inline by the same expressions, bit for bit.
        """
        aM, e, th = self.aM, self.e, self.theta0
        ct, st = math.cos(th), math.sin(th)
        c = aM * e
        ux, uy = -ct, -st
        vx, vy = (-uy, ux) if self.a >= 0.0 else (uy, -ux)
        n = self.alpha * self.alpha / (4.0 * math.sqrt(0.5 * self.alpha * aM) ** 3)
        return aM, e, aM * math.sqrt(max(1.0 - e * e, 0.0)), c * ct, c * st, ux, uy, vx, vy, n

    def max_y(self) -> float:
        """Largest y reached on the full ellipse."""
        aM, _, b, _, cy, _, uy, _, vy, _ = self.geometry()
        return cy + math.hypot(aM * uy, b * vy)


@dataclass(slots=True)
class RevolvingOrbit:
    """Bound orbit of the full Hamiltonian at g > 0: Newton's revolving ellipse.

    The centrifugal term ``g/(2r^2)`` adds to the angular one, so the radius
    moves exactly as on the Kepler ellipse of angular momentum
    ``l_eff = sqrt(l^2 + g)``: ``r = (l_eff^2/mu)/(1 + e*cos(nu))`` with
    ``e^2 = 1 + 2*H*l_eff^2/mu^2`` and semi-major axis ``aM = -mu/(2H)``.
    The polar angle turns only ``k = l/l_eff`` times as fast as that orbit's
    true anomaly, ``phi = phi0 + k*(nu - nu0)`` (Newton, Principia I,
    Props. 43-45).  ``nu`` increases with time whatever the sense of
    rotation, and ``l_eff^2 >= g`` keeps ``e`` below 1.  A point of the orbit
    is named by the radial orbit's eccentric anomaly ``E``.

    :func:`revolving_orbit` forms once each constant the formulas read:
    ``k = l/l_eff``, ``semi_latus = l_eff^2/mu``, the radial mean motion
    ``n = sqrt(mu/aM^3)``, and the start's anomalies ``E0`` (of ``nu0``) and ``M0``.
    """

    l: float
    l_eff: float
    e: float
    aM: float
    mu: float
    phi0: float
    nu0: float
    k: float
    semi_latus: float
    n: float
    E0: float
    M0: float

    def state_at(self, E: float) -> CartesianState:
        """State at eccentric anomaly ``E``, at t = 0, with r and p_r = dr/dt formed in E
        free of the cancellation in ``1 - e*cos E`` and of nu's rounding near the pericentre."""
        e, aM = self.e, self.aM
        r = self.semi_latus / (1.0 + e) + 2.0 * aM * e * math.sin(0.5 * E) ** 2
        phi = self.phi0 + self.k * (true_from_eccentric(E, e) - self.nu0)
        pr = math.sqrt(self.mu * aM) * e * math.sin(E) / r
        pt = self.l / r
        c, s = math.cos(phi), math.sin(phi)
        return CartesianState(r * c, r * s, pr * c - pt * s, pr * s + pt * c)

    def time_to(self, E: float) -> float:
        """Time from ``E0`` to ``E``, by Kepler's equation of the radial orbit."""
        return (mean_from_eccentric(E, self.e) - self.M0) / self.n


def revolving_orbit(s: CartesianState, p: Params) -> RevolvingOrbit:
    """The revolving orbit through ``s`` under the full Hamiltonian, g > 0.

    Raises:
        Unbound: if the energy is non-negative.
        Degenerate: if r is (numerically) zero.
    """
    if not p.g > 0.0:
        raise ValueError("revolving orbits require g > 0")
    r = s.r
    if r <= TOL_GEOM:
        raise Degenerate(f"state at r = {r:g} is too close to the center")
    H = s.hamiltonian(p)
    if H >= 0.0:
        raise Unbound(f"H = {H:g} >= 0: not a bound orbit")
    mu = p.mu
    l = s.angular_momentum
    l_eff = math.sqrt(l * l + p.g)
    e2 = 1.0 + 2.0 * H * l_eff * l_eff / (mu * mu)
    pr = (s.x * s.px + s.y * s.py) / r
    # (e*cos(nu0), e*sin(nu0)) from r = (l_eff^2/mu)/(1 + e*cos nu) and p_r
    nu0 = math.atan2(pr * l_eff / mu, l_eff * l_eff / (mu * r) - 1.0)
    e = math.sqrt(e2) if e2 > 0.0 else 0.0
    aM = -mu / (2.0 * H)
    E0 = eccentric_from_true(nu0, e)
    return RevolvingOrbit(
        l, l_eff, e, aM, mu, math.atan2(s.y, s.x), nu0,
        l / l_eff, l_eff * l_eff / mu, math.sqrt(mu / aM**3), E0, mean_from_eccentric(E0, e),
    )


def elements_from_cartesian(s: CartesianState, p: Params) -> OrbitalElements:
    """Kepler (osculating) elements of a state: the g = 0 ellipse through it,
    whatever ``p.g`` is.

    Uses the eccentricity vector ``(p x a)/mu - r_hat`` (which points at the
    perihelion) and takes the aphelion angle ``theta0`` from its opposite.
    Circular orbits (``e <= TOL_ECC``) get ``theta0 = 0`` by convention.  A
    radial state (a = 0) gets e = 1, a well-defined record: only propagating
    a near-radial ellipse is refused (:func:`check_not_radial`).

    Raises:
        Unbound: if the energy is non-negative.
        Degenerate: if r is (numerically) zero.
    """
    x, y, px, py = s.x, s.y, s.px, s.py
    r = math.hypot(x, y)
    if r <= TOL_GEOM:
        raise Degenerate(f"state at r = {r:g} is too close to the center")
    alpha = p.alpha
    A = px * px + py * py - alpha / r
    if A >= 0.0:
        raise Unbound(f"A = {A:g} >= 0: not a bound orbit")
    a = x * py - y * px
    e2 = 1.0 + 4.0 * A * a * a / (alpha * alpha)
    e = math.sqrt(e2) if e2 > 0.0 else 0.0
    if e <= TOL_ECC:
        theta0 = 0.0
    else:
        # eccentricity vector (points at perihelion); aphelion is opposite
        ex = 2.0 * a * py / alpha - x / r
        ey = -2.0 * a * px / alpha - y / r
        theta0 = wrap_angle(math.atan2(-ey, -ex))
    return OrbitalElements(A, a, theta0, alpha)


def check_not_radial(e: float) -> None:
    """Refuse to propagate an ellipse of eccentricity ``e`` too close to 1.

    Raises:
        Degenerate: if ``e >= 1 - TOL_ECC`` (a near-radial orbit).
    """
    if e >= 1.0 - TOL_ECC:
        raise Degenerate(f"eccentricity {e:g} too close to 1 (radial orbit)")


def cartesian_from_elements(el: OrbitalElements, nu: float) -> CartesianState:
    """State on the ellipse at true anomaly ``nu`` (measured from perihelion).

    For retrograde orbits (a < 0) the polar angle runs backwards while ``nu``
    still increases with time.

    Raises:
        Degenerate: if ``el`` is near-radial (:func:`check_not_radial`).
    """
    e = el.e
    check_not_radial(e)
    aM = el.aM
    ell = aM * (1.0 - e * e)  # semi-latus rectum
    r = ell / (1.0 + e * math.cos(nu))
    sigma = 1.0 if el.a >= 0.0 else -1.0
    phi = el.theta0 + math.pi + sigma * nu
    cphi, sphi = math.cos(phi), math.sin(phi)
    mu = 0.5 * el.alpha
    hmom = math.sqrt(mu * ell)  # = |a|
    vr = mu / hmom * e * math.sin(nu)
    vt = mu / hmom * (1.0 + e * math.cos(nu))
    return CartesianState(
        x=r * cphi,
        y=r * sphi,
        px=vr * cphi - sigma * vt * sphi,
        py=vr * sphi + sigma * vt * cphi,
    )


def state_at_eccentric(el: OrbitalElements, E: float, t: float = 0.0) -> CartesianState:
    """State on the ellipse at eccentric anomaly ``E`` (exact parametrization)."""
    aM, e, b, cx, cy, ux, uy, vx, vy, n = el.geometry()
    cE, sE = math.cos(E), math.sin(E)
    x = cx + aM * cE * ux + b * sE * vx
    y = cy + aM * cE * uy + b * sE * vy
    Edot = n / (1.0 - e * cE)
    px = (-aM * sE * ux + b * cE * vx) * Edot
    py = (-aM * sE * uy + b * cE * vy) * Edot
    return CartesianState(x=x, y=y, px=px, py=py, t=t)


def true_from_eccentric(E: float, e: float) -> float:
    """True anomaly from eccentric anomaly (continuous across revolutions).

    ``RevolvingOrbit.state_at`` takes the polar angle from it, and the tests
    check ``eccentric_from_true`` as its inverse.
    """
    beta = e / (1.0 + math.sqrt(max(1.0 - e * e, 0.0)))
    return E + 2.0 * math.atan2(beta * math.sin(E), 1.0 - beta * math.cos(E))


def eccentric_from_true(nu: float, e: float) -> float:
    """Eccentric anomaly from true anomaly (continuous across revolutions)."""
    beta = e / (1.0 + math.sqrt(max(1.0 - e * e, 0.0)))
    return nu - 2.0 * math.atan2(beta * math.sin(nu), 1.0 + beta * math.cos(nu))


def mean_from_eccentric(E: float, e: float) -> float:
    return E - e * math.sin(E)


def eccentric_of_state(el: OrbitalElements, s: CartesianState) -> float:
    """Eccentric anomaly in [0, 2*pi) of a state lying on the ellipse ``el``.

    Raises:
        Degenerate: if ``el`` is near-radial (:func:`check_not_radial`).
    """
    e = el.e
    check_not_radial(e)
    sigma = 1.0 if el.a >= 0.0 else -1.0
    phi = math.atan2(s.y, s.x)
    nu = wrap_angle(sigma * (phi - el.theta0 - math.pi))
    return wrap_angle(eccentric_from_true(nu, e))


def solve_kepler(M: float, e: float) -> float:
    """Solve Kepler's equation E - e*sin(E) = M for the eccentric anomaly.

    Newton iteration started at ``M + e*sin(M)`` inside the bracket
    ``[M - e, M + e]``; any Newton step leaving the bracket falls back to
    bisection.  The returned anomaly keeps M's revolution offset.

    Raises:
        NoConvergence: if the residual is still above ``TOL_KEPLER`` after
            ``MAX_KEPLER_ITER`` iterations.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity {e:g} outside [0, 1)")
    k = math.floor(M / TWO_PI)
    Mr = M - TWO_PI * k
    if e == 0.0:
        return Mr + TWO_PI * k
    lo, hi = Mr - e, Mr + e
    E = Mr + e * math.sin(Mr)
    f = E - e * math.sin(E) - Mr
    for _ in range(MAX_KEPLER_ITER):
        if abs(f) < TOL_KEPLER:
            return E + TWO_PI * k
        if f > 0.0:
            hi = E
        else:
            lo = E
        dE = f / (1.0 - e * math.cos(E))
        En = E - dE
        if not lo < En < hi:
            En = 0.5 * (lo + hi)
        E = En
        f = E - e * math.sin(E) - Mr
    if abs(f) < TOL_KEPLER:
        return E + TWO_PI * k
    raise NoConvergence(f"Kepler solver stalled at |f| = {abs(f):g} (e = {e:g})")


def time_to_anomaly(el: OrbitalElements, E_from: float, E_to: float) -> float:
    """Elapsed time along the orbit from ``E_from`` to ``E_to``.

    Positive whenever ``E_to >= E_from`` (forward traversal); the paper's
    negative-L convention is absorbed into the magnitude of the mean motion.
    """
    _, e, *_, n = el.geometry()
    dM = mean_from_eccentric(E_to, e) - mean_from_eccentric(E_from, e)
    return dM / n
