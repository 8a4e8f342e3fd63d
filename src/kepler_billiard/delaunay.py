"""Action-angle machinery for the collision map: level starts and gamma.

At fixed (L, R) the angular momentum a(theta0) on the invariant level set
solves the implicit relation

    a^2 = R - h*alpha*sin(theta0) * sqrt(1 - a^2/L^2),

whose square is a quadratic in a^2.  Of its two roots only the one with
sign(a^2 - R) = -sign(sin(theta0)) meets the relation with e >= 0 (the other
is its e -> -e continuation), so the level's momentum a > 0 is

    a^2 = R - (h*alpha*sin(theta0))^2 / (2L^2) - sign(sin(theta0)) * sqrt(disc),
    disc = (h*alpha*sin(theta0))^4 / (4L^4)
         + (h*alpha*sin(theta0))^2 * (1 - R/L^2).

The roots merge at multiples of pi, where disc = 0, so this one rule gives a
smooth profile.  :func:`_gammas`, :func:`initial_state_on_level` and the
QUADPACK oracle :func:`generating_integral` all read it.

The conjectured angle gamma is the R-derivative of the generating integral
``int_0^theta0 a(L, R, psi) dpsi``; its two-collision increments are the
observable tested against the one-part-per-million constancy claim.  Along
the valid root gamma is an elliptic integral of the first kind, which
:func:`_gammas` evaluates in closed form with Carlson's R_F, in one pass
over a run and the two probe orbits of its anisochrony (:func:`gamma_series_of`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import billiard
from .errors import BilliardError, GammaUndefined, InsufficientData, NoCollision
from .kepler import (
    TWO_PI,
    CartesianState,
    OrbitalElements,
    Params,
    cartesian_from_elements,
)

TOL_QUAD = 1e-11
MIN_SAMPLES = 100  # collisions below which conjecture_report makes no verdict


@dataclass(slots=True, eq=False)
class GammaSeries:
    """A run's gamma series: four columns indexed by collision n."""

    gamma: np.ndarray  # cumulative gamma, nan where undefined
    delta2: np.ndarray  # two-collision increment, nan without two successors
    eps: np.ndarray  # int64 sign of the post-impact angular momentum
    mismatch: np.ndarray  # bool: the (-1)^n alternation breaks or gamma is undefined


def _coeffs(s2: float, R: float, L: float, p: Params):
    """Quadratic-in-a^2 pieces at sin^2 = s2: (t1, disc, m) with m = dd/d(-R)."""
    hb = p.h * p.alpha
    L2 = L * L
    m = hb * hb * s2 / L2
    t1 = R - 0.5 * m
    disc = 0.25 * m * m + hb * hb * s2 - R * m
    return t1, disc, m


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, with scipy.integrate imported on the first call.

    Only the oracle :func:`generating_integral` calls it; gamma itself is in
    closed form, so no subcommand pays for loading scipy.integrate here.
    """
    import scipy.integrate

    return scipy.integrate.quad(*args, **kwargs)


def _rf(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Carlson's symmetric integral R_F(x, y, 1) at each lane, for x, y in [0, 1].

    Duplication, then Carlson's fifth-order series (B. C. Carlson, Numer.
    Algorithms 10, 1995).  Every lane takes 13 steps, so its bits depend on
    its own x and y alone, and one call may hold the lanes of several
    levels (:func:`_gammas`).  That meets Carlson's stopping rule at
    r = 2^-53 wherever R_F is finite: R_F(x, y, 1) <= R_F(0, 5e-324, 1) < 374
    keeps the mean above 374^-2, and 4^-13 brings his bound Q <= 253 below
    it.  A lane that still fails the rule (x = y = 0, where R_F is
    infinite) or has a nan or negative argument is nan.
    """
    v = np.stack(np.broadcast_arrays(x, y, 1.0))
    a0 = (v[0] + v[1] + v[2]) / 3.0
    q = (3.0 * 2.0**-53) ** (-1.0 / 6.0) * np.abs(a0 - v).max(axis=0)
    a, w = a0, v
    for _ in range(13):
        r = np.sqrt(w)
        lam = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
        w = 0.25 * (w + lam)
        a = 0.25 * (a + lam)
    X, Y = (a0 - v[:2]) / (4.0**13 * a)
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a)
    return np.where(q < 4.0**13 * a, rf, np.nan)


def _gammas(theta: np.ndarray, R: np.ndarray, L: np.ndarray, p: Params) -> np.ndarray:
    """gamma at each lane (theta >= 0, R, L) in closed form, nan where it is undefined.

    One pass may hold several levels: a run of consecutive lanes with the
    same (R, L) is one level, which adds its own psi = 0 lane and K lane.
    The arithmetic is elementwise and :func:`_rf` takes a fixed number of
    steps, so every lane has the bits it has in a pass over its level alone.

    In u = a^2, dgamma = du / (2 sqrt(u Q(u))) on the level, with
    Q(u) = -u^2 + (2R - (h*alpha)^2/L^2) u + (h*alpha)^2 - R^2, which equals
    (h*alpha*e*cos(psi))^2 there.  Let u- < u+ be the roots of Q and put
    u = u+ - (u+ - u-) sin^2(phi): then dgamma = dF(phi|m) / sqrt(u+) with
    m = (u+ - u-)/u+, an elliptic integral of the first kind (P. F. Byrd,
    M. D. Friedman, Handbook of Elliptic Integrals, 1971).  Over a turn of
    psi, u runs from R to u-, back to R, to u+ and back to R, one quarter-turn
    each, while phi advances by pi.  So, with phi_theta and phi_R the phi in
    [0, pi/2] of u at theta and of u = R, gamma on the first quarter-turn is
    F(phi_theta) - F(phi_R), on the second and third 2K - F(phi_R) -
    F(phi_theta), and on the fourth 2K - F(phi_R) + F(phi_theta); each whole
    turn before theta adds Gamma = 2K/sqrt(u+).

    Below R = h*alpha, u- < 0 and m > 1, so K, and with it every lane past
    the first quarter-turn, is nan; so is a first-quarter lane past a = 0.
    Above R = L^2, phi_R is not real and every lane is nan.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(theta >= 0.0):  # NaN too, as in the oracle
        raise ValueError("theta0 must be non-negative")
    if np.any(np.isinf(theta)):
        raise ValueError("theta0 must be finite")
    # a level starts wherever (R, L) changes
    n = theta.size
    starts = np.ones(n, dtype=bool)
    starts[1:] = (R[1:] != R[:-1]) | (L[1:] != L[:-1])
    first = np.flatnonzero(starts)
    level = np.cumsum(starts) - 1  # of each theta lane
    n_lvl = first.size
    # the psi lanes: every theta and, last, psi = 0 (where u = R) per level
    R = np.concatenate((R, R[first]))
    L = np.concatenate((L, L[first]))
    psi = np.concatenate((theta, np.zeros(n_lvl)))
    hb = p.h * p.alpha
    L2 = L * L
    b = 2.0 * R - hb * hb / L2
    c = (hb - R) * (hb + R)
    with np.errstate(invalid="ignore", divide="ignore"):
        u_hi = 0.5 * (b + np.sqrt(b * b + 4.0 * c))
        u_lo = -c / u_hi
        d = u_hi - u_lo
        # u on the valid root at each psi
        s = np.sin(psi)
        t1, disc, _ = _coeffs(s * s, R, L, p)
        u = t1 - np.copysign(np.sqrt(disc), s)
        # sin(phi) cos(phi) = h*alpha*e*|cos(psi)| / (u+ - u-).  Of the two,
        # the one that vanishes at the root nearer u is formed from this
        # product: u's distance to that root cancels near the turning point
        prod = hb * np.sqrt(1.0 - u / L2) * np.abs(np.cos(psi)) / d
        near_lo = u - u_lo < u_hi - u
        big = np.sqrt(np.where(near_lo, u_hi - u, u - u_lo) / d)
        sin_phi = np.where(near_lo, big, prod / big)
        cos_phi = np.where(near_lo, prod / big, big)
        # u/u+ = 1 - m sin^2(phi), formed without its cancellation as m -> 1
        y = np.where(near_lo, u_lo + d * cos_phi**2, u_hi - d * sin_phi**2) / u_hi
        # F(phi|m) = sin(phi) R_F(cos^2(phi), u/u+, 1) at each psi, then K per level
        f = np.concatenate((sin_phi, np.ones(n_lvl))) * _rf(
            np.concatenate((cos_phi**2, np.zeros(n_lvl))), np.concatenate((y, (u_lo / u_hi)[n:])))
        f_theta, f_R, K = f[:n], f[n:n + n_lvl][level], f[n + n_lvl:][level]
        quarter = np.floor(theta / (0.5 * math.pi))
        # 2K from the second quarter-turn on and 2K per whole turn before it;
        # a nan K (below R = h*alpha) must leave the first quarter-turn alone
        k = 2.0 * np.ceil(quarter / 4.0)
        whole = np.where(k > 0.0, k * K, 0.0)
        # +F(phi_theta) on the first and fourth quarter-turns, -F on the others
        f_theta = np.where((quarter + 1.0) % 4.0 < 2.0, f_theta, -f_theta)
        return (whole + f_theta - f_R) / np.sqrt(u_hi[:n])


def gamma_of(theta0: float, R: float, L: float, p: Params) -> float:
    """gamma = d/dR of the generating integral int_0^theta0 a dpsi.

    One lane of the closed form :func:`_gammas`, which :func:`gamma_series_of`
    evaluates over whole series.

    Raises:
        ValueError: if theta0 is negative, NaN or infinite.
        GammaUndefined: where gamma is undefined: below R = h*alpha once the
            path crosses a = 0, and everywhere above R = L^2.
    """
    g = float(_gammas(np.array([theta0]), np.array([R]), np.array([L]), p)[0])
    if math.isnan(g):
        raise GammaUndefined(f"gamma undefined at theta0 = {theta0:g}")
    return g


def generating_integral(theta0: float, R: float, L: float, p: Params) -> float:
    """The integral int_0^theta0 a(L, R, psi) dpsi itself (for oracles).

    One QUADPACK call per half-turn [k*pi, (k+1)*pi], the last cut at theta0,
    so sin(psi) keeps its sign on each.  GammaUndefined where disc < 0, or
    where a piece misses the quadrature tolerance or QUADPACK warns.
    """
    if not theta0 >= 0.0:
        raise ValueError("theta0 must be non-negative")
    if math.isinf(theta0):
        raise ValueError("theta0 must be finite")
    from scipy.integrate import IntegrationWarning  # the import runs before warnings are recorded

    def a(psi):
        s = math.sin(psi)
        t1, disc, _ = _coeffs(s * s, R, L, p)
        if disc < -1e-13 * max(1.0, abs(R)):
            raise GammaUndefined(f"discriminant {disc:g} < 0")
        return math.sqrt(max(t1 - math.copysign(math.sqrt(max(disc, 0.0)), s), 0.0))

    total, k = 0.0, 0
    # past k*pi > 0, a sliver under 1e-15 is rounding, not a piece
    while k * math.pi < theta0 - (1e-15 if k else 0.0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val, err = quad(a, k * math.pi, min((k + 1) * math.pi, theta0),
                            epsabs=TOL_QUAD, epsrel=1e-12, limit=200)
        for w in caught:  # QUADPACK's own: the piece did not converge
            if issubclass(w.category, IntegrationWarning):
                raise GammaUndefined("quadrature warning: " + " ".join(str(w.message).split()))
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if err > 1e3 * TOL_QUAD + 1e-12 * abs(val):
            raise GammaUndefined(f"quadrature error estimate {err:g} too large")
        total += val
        k += 1
    return total


def gamma_series_of(
    runs: list[list[billiard.CollisionEvent] | BilliardError], p: Params
) -> list[GammaSeries | BilliardError]:
    """The :func:`gamma_series` of each of several g = 0 runs, from one
    closed-form :func:`_gammas` pass over all their levels.

    A run is its list of collision events.  A run given instead as the
    BilliardError that kept it from starting is returned as given, in its
    place, so a caller can keep the error for its report.
    """
    theta, R, L = [], [], []
    for events in runs:
        if not isinstance(events, BilliardError) and events:
            el0 = events[0].post
            # every collision's gamma and, last, the full-loop integral Gamma
            theta += [ev.post.theta0 for ev in events]
            theta.append(TWO_PI)
            R += [billiard.conserved_R(el0, p)] * (len(events) + 1)
            L += [el0.L] * (len(events) + 1)
    gammas = _gammas(np.array(theta), np.array(R), np.array(L), p)
    out, k = [], 0
    for events in runs:
        if isinstance(events, BilliardError):
            out.append(events)
            continue
        lanes = len(events) + 1 if events else 0
        out.append(_series(events, gammas[k:k + lanes]))
        k += lanes
    return out


def gamma_series(events: list[billiard.CollisionEvent], p: Params) -> GammaSeries:
    """Per-collision gamma and two-step increments for a g = 0 run.

    Conventions:

    * each collision uses the post-collision ellipse (the arc the collision
      creates) and the valid root with a > 0;
    * two consecutive collisions of the same parity sit on the same momentum
      loop, so their gamma increment is well defined modulo the full-loop
      integral Gamma; increments are reduced mod Gamma and re-centered at
      the class median, and the gamma column is the cumulative (unwrapped)
      sum of those increments;
    * ``mismatch`` flags collisions where the sign of the angular momentum
      breaks the (-1)^n alternation (reported, never fatal).

    Events whose gamma is undefined (for example in the R < h*alpha regime
    where the momentum loop crosses a = 0) carry nan gammas and are flagged,
    keeping the series usable as a diagnostic.
    """
    return gamma_series_of([events], p)[0]


def _series(events: list[billiard.CollisionEvent], gammas: np.ndarray) -> GammaSeries:
    """A run's series from its lanes of the pass: each collision's gamma, then Gamma."""
    n_ev = len(events)
    gamma = np.full(n_ev, np.nan)
    delta2 = np.full(n_ev, np.nan)
    eps = np.where(np.array([ev.post.a for ev in events]) >= 0.0, 1, -1).astype(np.int64)
    if not events:
        return GammaSeries(gamma, delta2, eps, np.zeros(0, dtype=bool))
    principal, gamma_full = gammas[:-1], float(gammas[-1])
    undefined = np.isnan(principal)
    alternation = np.where(np.arange(n_ev) % 2 == 0, eps[0], -eps[0])
    mismatch = (eps != alternation) | undefined

    # per-parity increments, reduced mod Gamma and re-centered at the median
    defined = np.flatnonzero(~undefined)
    half = 0.5 * gamma_full
    for par in (0, 1):
        idxs = defined[defined % 2 == par]
        if not idxs.size:
            continue
        gamma[idxs[0]] = principal[idxs[0]]
        if idxs.size < 2 or math.isnan(gamma_full):
            continue
        reduced = np.diff(principal[idxs]) % gamma_full
        # the median as statistics.median takes it, at a tenth of np.median's cost
        srt = np.sort(reduced)
        med = 0.5 * (srt[(srt.size - 1) // 2] + srt[srt.size // 2])
        delta2[idxs[:-1]] = ((reduced - med + half) % gamma_full) + med - half
        # add.accumulate sums left to right: gamma[j] = gamma[i] + delta2[i]
        gamma[idxs] = np.cumsum(np.concatenate((principal[idxs[:1]], delta2[idxs[:-1]])))
    return GammaSeries(gamma, delta2, eps, mismatch)


def _relative_spread(values: np.ndarray) -> float:
    if values.size == 0:
        return math.nan
    mean = float(np.mean(values))
    if mean == 0.0:
        return float(np.ptp(values))
    return float(np.ptp(values) / abs(mean))


def spread_by_parity(series: GammaSeries) -> tuple[float, float]:
    """Relative spread of delta2 over the even and odd subsequences."""
    even, odd = series.delta2[0::2], series.delta2[1::2]
    return _relative_spread(even[~np.isnan(even)]), _relative_spread(odd[~np.isnan(odd)])


def initial_state_on_level(L: float, R: float, p: Params) -> CartesianState:
    """A wall-reaching state on the invariant level (L, R).

    Builds the ellipse with aphelion at theta0 = 3*pi/2 and the valid root
    a > 0 there, and starts the particle at that aphelion, y = -aM*(1 + e),
    below the wall.  sin(theta0) = -1, so the valid root is
    a^2 = t1 + sqrt(disc), with e = sqrt(1 - a^2/L^2) >= 0 in the implicit
    relation a^2 = R + h*alpha*e, and one guarded Newton step of that
    relation polishes it.

    Raises:
        GammaUndefined: if the discriminant is negative, a^2 leaves
            [0, L^2], or the root is the e < 0 continuation.
        NoCollision: if the ellipse stays below the wall.
        Degenerate: if the ellipse is too close to radial.
    """
    theta0 = 1.5 * math.pi
    t1, disc, m = _coeffs(1.0, R, L, p)
    scale = max(1.0, abs(R))
    sd = math.sqrt(max(disc, 0.0))
    a2 = t1 + sd
    L2 = L * L
    # a^2 - R = h*alpha*e needs e >= 0: sd - m/2 >= 0 (zero: merged roots)
    if (disc < -1e-13 * scale or a2 < -1e-12 * scale or a2 > L2 * (1.0 + 1e-12)
            or 0.5 * m - sd > 1e-13 * scale):
        raise GammaUndefined(f"no valid branch at theta0 = {theta0:g}")
    a2 = min(max(a2, 0.0), L2)
    hb = p.h * p.alpha
    e = math.sqrt(max(1.0 - a2 / L2, 0.0))
    if e > 0.0:
        da2 = (a2 - R - hb * e) / (1.0 + 0.5 * hb / (L2 * e))
        if abs(da2) < 1e-6 * scale:
            a2 = min(max(a2 - da2, 0.0), L2)
    el = OrbitalElements(-p.alpha * p.alpha / (4.0 * L * L), math.sqrt(a2), theta0, p.alpha)
    if el.max_y() < p.h:
        raise NoCollision("level-set ellipse does not reach the wall")
    return cartesian_from_elements(el, math.pi)


def omega_estimate_of(series: GammaSeries) -> tuple[float, float]:
    """(mean, stderr) of delta2 over the positive-momentum class.

    The two momentum loops are mirror images, so their increments sum to the
    full-loop integral rather than coinciding; pinning the estimate to the
    a > 0 class makes omega comparable across runs regardless of the initial
    momentum sign.
    """
    d = series.delta2[(series.eps > 0) & ~np.isnan(series.delta2)]
    if d.size < 10:
        raise InsufficientData(f"only {d.size} usable increments")
    return float(np.mean(d)), float(np.std(d) / math.sqrt(d.size))


def _probe_levels(R: float) -> tuple[float, float, float]:
    """(dR, R + dR, R - dR): the levels on which domega_dR reads omega."""
    dR = 1e-4 * abs(R)
    return dR, R + dR, R - dR


def _probe_run(L: float, R: float, p: Params) -> list[billiard.CollisionEvent]:
    """The 4-collision orbit from :func:`initial_state_on_level` on (L, R)."""
    return billiard.run(initial_state_on_level(L, R, p), 4, p).events


def probe_runs(
    L: float, R: float, p: Params
) -> list[list[billiard.CollisionEvent] | BilliardError]:
    """The probe orbits of :func:`conjecture_report` on R + dR, then R - dR,
    each as its events or as the BilliardError its start raised."""
    runs = []
    for R_lvl in _probe_levels(R)[1:]:
        try:
            runs.append(_probe_run(L, R_lvl, p))
        except BilliardError as exc:
            runs.append(exc)
    return runs


def _probe_omega(probe: GammaSeries | BilliardError, R: float) -> float:
    """omega from a probe's series: its first finite a > 0 increment.  A probe
    that is the error its start raised raises it."""
    if isinstance(probe, BilliardError):
        raise probe
    d = probe.delta2[(probe.eps > 0) & np.isfinite(probe.delta2)]
    if not d.size:
        raise InsufficientData(f"no finite a > 0 increment on the level R = {R:g}")
    return float(d[0])


def omega_of_level(L: float, R: float, p: Params) -> float:
    """The rotation rate omega of the level (L, R), read from one collision pair.

    Conjecture 2 makes every two-collision increment on a level equal (verify
    gates their relative spread at 5e-6), so omega is the first a > 0
    increment of a fresh 4-collision orbit from :func:`initial_state_on_level`.
    The sign of a alternates, so four collisions hold one a > 0 pair.  The
    one-level form of what :func:`conjecture_report` reads from the probes of
    a shared pass, and its oracle.

    Raises:
        InsufficientData: where no a > 0 increment is finite, as below
            R = h*alpha, where gamma is undefined.
        NoCollision, GammaUndefined: where :func:`initial_state_on_level`
            finds no wall-reaching start on the level.
    """
    return _probe_omega(gamma_series(_probe_run(L, R, p), p), R)


def conjecture_report(
    series: GammaSeries, L: float, R: float, p: Params, probes: list[GammaSeries | BilliardError]
) -> dict:
    """The verdict data for the rotation conjectures at one (L, R): summarize
    a gamma series and probe anisochrony on the levels R +- dR.

    ``probes`` are the series of :func:`probe_runs` (R + dR first), from the
    same :func:`gamma_series_of` pass as ``series``.  ``domega_dR`` is the
    central difference of omega, one a > 0 collision pair on each of the
    levels R +- 1e-4|R| (:func:`omega_of_level`); that reading of omega holds
    as far as conjecture 2 does.

    Raises:
        InsufficientData: with fewer than MIN_SAMPLES collisions.
        BilliardError: where a probe level fails, R + dR first: the error its
            start raised, or InsufficientData without a finite increment.
    """
    if series.gamma.size < MIN_SAMPLES:
        raise InsufficientData(f"need >= {MIN_SAMPLES} samples, got {series.gamma.size}")
    spread_even, spread_odd = spread_by_parity(series)
    omega, stderr = omega_estimate_of(series)
    dR, R_hi, R_lo = _probe_levels(R)
    om_hi = _probe_omega(probes[0], R_hi)
    om_lo = _probe_omega(probes[1], R_lo)
    return {
        "sign_alternation_ok": not series.mismatch.any(),
        "spread_even": spread_even,
        "spread_odd": spread_odd,
        "omega_estimate": omega,
        "omega_stderr": stderr,
        "domega_dR": (om_hi - om_lo) / (2.0 * dR),
    }
