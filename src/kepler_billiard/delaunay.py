"""Action-angle machinery for the collision map: branch solver and gamma.

At fixed (L, R) the angular momentum a(theta0) on the invariant level set
solves the implicit relation

    a^2 = R - h*alpha*sin(theta0) * sqrt(1 - a^2/L^2),

whose square is a quadratic in a^2 with roots

    a^2 = R - (h*alpha*sin(theta0))^2 / (2L^2)  +  eps * sqrt(disc),
    disc = (h*alpha*sin(theta0))^4 / (4L^4)
         + (h*alpha*sin(theta0))^2 * (1 - R/L^2),

labelled by eps = +-1, with a = sqrt(a^2) > 0.  Only one eps root satisfies
the implicit relation with the non-negative square root (the other is its
e -> -e continuation): the valid one has sign(a^2 - R) = -sign(sin), that is
eps = -1 where sin(theta0) > 0 and eps = +1 where sin(theta0) < 0.
:func:`a_branch` enforces that membership.  The gamma quadrature follows the
valid root by construction: it integrates the eps-labelled quadratic root as
a formula on each half-turn, with eps alternating from -1 on (0, pi).

The conjectured angle gamma is the R-derivative of the generating integral
``int_0^theta0 a(L, R, psi) dpsi``; its two-collision increments are the
observable tested against the one-part-per-million constancy claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median

import numpy as np

from . import billiard
from .errors import GammaUndefined, InsufficientData, NoCollision
from .kepler import (
    TWO_PI,
    CartesianState,
    OrbitalElements,
    Params,
    cartesian_from_elements,
    wrap_angle,
)

TOL_QUAD = 1e-11
N_RERUN = 300  # collisions per anisochrony rerun in conjecture_report


@dataclass(frozen=True)
class GammaSample:
    """Per-collision value of gamma and its two-step increment."""

    n: int
    gamma: float
    delta2_gamma: float  # nan when fewer than two successors exist
    eps_observed: int  # sign of the angular momentum at collision n
    branch_mismatch: bool = False


@dataclass(frozen=True)
class ConjectureReport:
    """Numerical verdict data for the rotation conjectures at one (L, R)."""

    R: float
    L: float
    sign_alternation_ok: bool
    spread_even: float
    spread_odd: float
    omega_estimate: float
    domega_dR: float
    omega_stderr: float = 0.0


def _coeffs(s2: float, R: float, L: float, p: Params):
    """Quadratic-in-a^2 pieces at sin^2 = s2: (t1, disc, m) with m = dd/d(-R)."""
    hb = p.h * p.alpha
    L2 = L * L
    m = hb * hb * s2 / L2
    t1 = R - 0.5 * m
    disc = 0.25 * m * m + hb * hb * s2 - R * m
    return t1, disc, m


def _a_sq_raw(s2: float, R: float, L: float, eps: int, p: Params) -> float:
    """eps-labelled quadratic root for a^2 (no Eq.-membership validation)."""
    t1, disc, _ = _coeffs(s2, R, L, p)
    if disc < -1e-13 * max(1.0, abs(R)):
        raise GammaUndefined(f"discriminant {disc:g} < 0")
    return t1 + eps * math.sqrt(max(disc, 0.0))


def _dadR_raw(s2: float, R: float, L: float, eps: int, p: Params) -> float:
    """d a / d R of the eps-labelled root (a > 0)."""
    t1, disc, m = _coeffs(s2, R, L, p)
    if disc < 0.0:
        raise GammaUndefined(f"discriminant {disc:g} < 0")
    if s2 < 1e-30:
        du = 1.0
        u = R
    else:
        sd = math.sqrt(disc)
        if sd == 0.0:
            raise GammaUndefined("branch point: discriminant vanished")
        du = 1.0 - eps * 0.5 * m / sd
        u = t1 + eps * sd
    if u <= 0.0:
        raise GammaUndefined(f"a^2 = {u:g} <= 0 on branch")
    return du / (2.0 * math.sqrt(u))


def a_branch(theta0: float, R: float, L: float, eps: int, p: Params) -> float:
    """Angular momentum a > 0 on the eps root at aphelion angle theta0.

    Returns ``sqrt(a^2)`` where a^2 is the eps root of the squared implicit
    relation, validated to be a genuine solution (not the e < 0
    continuation) and to lie in [0, L^2].

    Raises:
        GammaUndefined: if the discriminant is negative, a^2 leaves
            [0, L^2], or the root fails the implicit relation.
    """
    if L >= 0.0:
        raise ValueError("L must be negative (paper sign convention)")
    s = math.sin(theta0)
    t1, disc, m = _coeffs(s * s, R, L, p)
    scale = max(1.0, abs(R))
    if disc < -1e-13 * scale:
        raise GammaUndefined(f"discriminant {disc:g} < 0 at theta0 = {theta0:g}")
    sd = math.sqrt(max(disc, 0.0))
    a2 = t1 + eps * sd
    L2 = L * L
    if a2 < -1e-12 * scale or a2 > L2 * (1.0 + 1e-12):
        raise GammaUndefined(f"a^2 = {a2:g} outside [0, L^2]")
    a2 = min(max(a2, 0.0), L2)
    # Eq.-membership: a^2 - R = -h*alpha*sin * e with e >= 0, i.e.
    # sign(eps*sd - m/2) must oppose sign(sin) (zero is fine: merged roots).
    drift = eps * sd - 0.5 * m
    if s * drift > 1e-13 * scale:
        raise GammaUndefined(
            f"eps = {eps:+d} root at theta0 = {theta0:g} is the e < 0 continuation"
        )
    # one guarded Newton polish of the implicit relation to kill cancellation
    hb = p.h * p.alpha
    e = math.sqrt(max(1.0 - a2 / L2, 0.0))
    if e > 0.0:
        f = a2 - R + hb * s * e
        fp = 1.0 - 0.5 * hb * s / (L2 * e)
        if fp != 0.0:
            da2 = f / fp
            if abs(da2) < 1e-6 * scale:
                a2 = min(max(a2 - da2, 0.0), L2)
    return math.sqrt(a2)


def _half_turns(theta0: float):
    """Yield (lo, hi, eps) for each half-turn of [0, theta0].

    The valid root is eps = -1 where sin(psi) > 0 and eps = +1 where
    sin(psi) < 0, and the two roots merge at multiples of pi, so eps
    alternates per half-turn and a(psi)^2 is the smooth momentum profile of
    the level set (a fixed eps would integrate the e < 0 continuation on half
    of each turn).  The first piece is always yielded: theta0 = 0 gives the
    empty piece (0, 0).
    """
    if theta0 < 0.0:
        raise ValueError("theta0 must be non-negative")
    k = 0
    lo = 0.0
    while k == 0 or lo < theta0 - 1e-15:
        hi = min((k + 1) * math.pi, theta0)
        yield lo, hi, (-1 if k % 2 == 0 else 1)
        lo = hi
        k += 1


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, with scipy.integrate imported on the first call.

    Only ``gamma`` and ``verify`` integrate, so the other subcommands never
    pay for loading it.
    """
    import scipy.integrate

    return scipy.integrate.quad(*args, **kwargs)


def _quad_piece(f, lo: float, hi: float) -> float:
    """Adaptive quadrature over one half-turn [lo, hi] (sin keeps its sign)."""
    if lo == hi:
        return 0.0
    val, err = quad(f, lo, hi, epsabs=TOL_QUAD, epsrel=1e-12, limit=200)
    if err > 1e3 * TOL_QUAD + 1e-12 * abs(val):
        raise GammaUndefined(f"quadrature error estimate {err:g} too large")
    return val


def gamma_of(theta0: float, R: float, L: float, p: Params) -> float:
    """gamma = d/dR of the generating integral int_0^theta0 a dpsi.

    Integrates da/dR of the valid root, a > 0, one quadrature per half-turn.
    """
    total = 0.0
    for lo, hi, eps in _half_turns(theta0):
        def f(psi, _e=eps):
            s = math.sin(psi)
            return _dadR_raw(s * s, R, L, _e, p)

        total += _quad_piece(f, lo, hi)
    return total


def generating_integral(theta0: float, R: float, L: float, p: Params) -> float:
    """The integral int_0^theta0 a(L, R, psi) dpsi itself (for oracles)."""
    total = 0.0
    for lo, hi, eps in _half_turns(theta0):
        def f(psi, _e=eps):
            s = math.sin(psi)
            return math.sqrt(max(_a_sq_raw(s * s, R, L, _e, p), 0.0))

        total += _quad_piece(f, lo, hi)
    return total


def _sign(x: float) -> int:
    return 1 if x >= 0.0 else -1


def gamma_series(
    events: list[billiard.CollisionEvent], p: Params
) -> list[GammaSample]:
    """Per-collision gamma and two-step increments for a g = 0 run.

    Conventions:

    * each sample uses the post-collision ellipse (the arc the collision
      creates) and the valid root with a > 0;
    * two consecutive collisions of the same parity sit on the same momentum
      loop, so their gamma increment is well defined modulo the full-loop
      integral Gamma; increments are reduced mod Gamma and re-centered at
      the class median, and the gamma column is the cumulative (unwrapped)
      sum of those increments;
    * ``branch_mismatch`` flags collisions where the sign of the angular
      momentum breaks the (-1)^n alternation (reported, never fatal).

    Events whose gamma quadrature fails (for example in the R < h*alpha
    regime where the momentum loop crosses a = 0) carry nan gammas and are
    flagged, keeping the series usable as a diagnostic.
    """
    if not events:
        return []
    el0 = events[0].post
    L = el0.L
    R = billiard.conserved_R(el0, p)
    s0 = _sign(el0.a)
    theta = [ev.post.theta0 for ev in events]
    n_ev = len(events)

    try:
        gamma_full = gamma_of(TWO_PI, R, L, p)
    except GammaUndefined:
        gamma_full = math.nan

    gamma_principal: list[float] = []
    mism: list[bool] = []
    eps_obs: list[int] = []
    for idx, ev in enumerate(events):
        try:
            g = gamma_of(theta[idx], R, L, p)
        except GammaUndefined:
            g = math.nan
        gamma_principal.append(g)
        a_n = ev.post.a
        bad_sign = _sign(a_n) != s0 * (1 if idx % 2 == 0 else -1)
        mism.append(bad_sign or math.isnan(g))
        eps_obs.append(_sign(a_n))

    # per-parity increments, reduced mod Gamma and re-centered at the median
    gamma_unwrapped = [math.nan] * n_ev
    delta2 = [math.nan] * n_ev
    for par in (0, 1):
        idxs = [i for i in range(par, n_ev, 2) if not math.isnan(gamma_principal[i])]
        if not idxs:
            continue
        gamma_unwrapped[idxs[0]] = gamma_principal[idxs[0]]
        if len(idxs) < 2 or math.isnan(gamma_full):
            continue
        raw = [
            gamma_principal[j] - gamma_principal[i]
            for i, j in zip(idxs, idxs[1:])
        ]
        reduced = [r % gamma_full for r in raw]
        med = median(reduced)
        half = 0.5 * gamma_full
        recentered = [((r - med + half) % gamma_full) + med - half for r in reduced]
        for (i, j), d in zip(zip(idxs, idxs[1:]), recentered):
            delta2[i] = d
            gamma_unwrapped[j] = gamma_unwrapped[i] + d

    samples: list[GammaSample] = []
    for idx in range(n_ev):
        samples.append(
            GammaSample(
                n=idx,
                gamma=gamma_unwrapped[idx],
                delta2_gamma=delta2[idx],
                eps_observed=eps_obs[idx],
                branch_mismatch=mism[idx],
            )
        )
    return samples


def _relative_spread(values: np.ndarray) -> float:
    if values.size == 0:
        return math.nan
    mean = float(np.mean(values))
    if mean == 0.0:
        return float(np.ptp(values))
    return float(np.ptp(values) / abs(mean))


def spread_by_parity(samples: list[GammaSample]) -> tuple[float, float]:
    """Relative spread of delta2_gamma over the even and odd subsequences."""
    d = np.array([s.delta2_gamma for s in samples])
    ok = ~np.isnan(d)
    even = d[(np.arange(d.size) % 2 == 0) & ok]
    odd = d[(np.arange(d.size) % 2 == 1) & ok]
    return _relative_spread(even), _relative_spread(odd)


def initial_state_on_level(L: float, R: float, p: Params) -> CartesianState:
    """A wall-reaching state on the invariant level (L, R).

    Builds the ellipse with aphelion at theta0 = 3*pi/2 and the valid branch
    momentum there (a > 0), then starts the particle at whichever apse lies
    below the wall.
    """
    theta0 = 1.5 * math.pi
    A = -p.alpha * p.alpha / (4.0 * L * L)
    a = None
    # sin(theta0) = -1: the valid root is eps = +1; -1 only where they merge
    for eps in (1, -1):
        try:
            a = a_branch(theta0, R, L, eps, p)
            break
        except GammaUndefined:
            continue
    if a is None:
        raise GammaUndefined(f"no valid branch at theta0 = {theta0:g}")
    el = OrbitalElements(A=A, a=a, theta0=wrap_angle(theta0), alpha=p.alpha)
    if el.max_y() < p.h:
        raise NoCollision("level-set ellipse does not reach the wall")
    for nu in (math.pi, 0.0, 0.5 * math.pi, 1.5 * math.pi):
        state = cartesian_from_elements(el, nu, p)
        if state.y < p.h:
            return state
    raise NoCollision("could not place the start below the wall")


def omega_estimate_of(samples: list[GammaSample]) -> tuple[float, float]:
    """(mean, stderr) of delta2_gamma over the positive-momentum class.

    The two momentum loops are mirror images, so their increments sum to the
    full-loop integral rather than coinciding; pinning the estimate to the
    a > 0 class makes omega comparable across runs regardless of the initial
    momentum sign.
    """
    d = np.array(
        [s.delta2_gamma for s in samples if s.eps_observed > 0],
        dtype=float,
    )
    d = d[~np.isnan(d)]
    if d.size < 10:
        raise InsufficientData(f"only {d.size} usable increments")
    return float(np.mean(d)), float(np.std(d) / math.sqrt(d.size))


def omega_of_level(L: float, R: float, p: Params, n_events: int) -> tuple[float, float]:
    """(mean, stderr) of delta2_gamma for a fresh orbit on the level (L, R)."""
    s0 = initial_state_on_level(L, R, p)
    res = billiard.run(s0, n_events, p)
    return omega_estimate_of(gamma_series(res.events, p))


def conjecture_report(
    samples: list[GammaSample], L: float, R: float, p: Params
) -> ConjectureReport:
    """Summarize a gamma series and probe anisochrony by rerunning at R +- dR.

    Each rerun is a fresh orbit of ``N_RERUN`` collisions on the shifted level.

    Raises:
        InsufficientData: with fewer than 100 samples.
    """
    if len(samples) < 100:
        raise InsufficientData(f"need >= 100 samples, got {len(samples)}")
    spread_even, spread_odd = spread_by_parity(samples)
    omega, stderr = omega_estimate_of(samples)
    dR = 1e-4 * abs(R)
    om_hi, _ = omega_of_level(L, R + dR, p, N_RERUN)
    om_lo, _ = omega_of_level(L, R - dR, p, N_RERUN)
    return ConjectureReport(
        R=R,
        L=L,
        sign_alternation_ok=not any(s.branch_mismatch for s in samples),
        spread_even=spread_even,
        spread_odd=spread_odd,
        omega_estimate=omega,
        domega_dR=(om_hi - om_lo) / (2.0 * dR),
        omega_stderr=stderr,
    )
