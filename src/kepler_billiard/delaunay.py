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


@dataclass(slots=True)
class GammaSample:
    """Per-collision value of gamma and its two-step increment."""

    n: int
    gamma: float
    delta2_gamma: float  # nan when fewer than two successors exist
    eps_observed: int  # sign of the angular momentum at collision n
    branch_mismatch: bool = False


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


def _dadR(s2: np.ndarray, R: float, L: float, eps: np.ndarray, p: Params) -> np.ndarray:
    """d a / d R of the eps-labelled root (a > 0), nan where it is undefined.

    Undefined means a negative discriminant, a branch point (vanishing
    discriminant off the axis sin = 0) or a^2 <= 0 on the branch.
    """
    t1, disc, m = _coeffs(s2, R, L, p)
    sd = np.sqrt(np.maximum(disc, 0.0))
    axis = s2 < 1e-30
    du = np.where(axis, 1.0, 1.0 - eps * 0.5 * m / np.where(sd > 0.0, sd, 1.0))
    u = np.where(axis, R, t1 + eps * sd)
    bad = (disc < 0.0) | (~axis & (sd == 0.0)) | (u <= 0.0)
    return np.where(bad, np.nan, du / (2.0 * np.sqrt(np.where(bad, 1.0, u))))


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

    Only the oracle :func:`generating_integral` calls it; gamma itself runs
    on numpy alone, so no subcommand pays for loading scipy.integrate here.
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


# The 21-point Gauss-Kronrod pair of QUADPACK's qk21: the Kronrod nodes in
# [0, 1] (the rule is symmetric) and their weights, and the weights of the
# embedded 10-point Gauss rule, whose nodes are the Kronrod nodes 1, 3, ..., 9.
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_NODES = np.array(_XK + tuple(-x for x in _XK[-2::-1]))
_W_KRONROD = np.array(_WK + _WK[-2::-1])
_W_GAUSS = np.zeros(21)
_W_GAUSS[1:10:2] = _WG
_W_GAUSS[11:20:2] = _WG[::-1]
QUAD_LIMIT = 200  # panels per piece, as QUADPACK's limit in _quad_piece
_EPS50 = 50.0 * np.finfo(float).eps


def _gk21(f, a: np.ndarray, b: np.ndarray, k: np.ndarray):
    """(value, error estimate) of the 21-point rule on each panel [a, b] of piece k.

    The error estimate is QUADPACK's: the Kronrod-Gauss difference, scaled
    against the integrand's variation on the panel and floored at 50 ulp of
    the integral of |f|.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = f(c[:, None] + h[:, None] * _NODES, k)
    resk = (fx * _W_KRONROD).sum(axis=1)
    resg = (fx * _W_GAUSS).sum(axis=1)
    ah = np.abs(h)
    resasc = ah * (np.abs(fx - 0.5 * resk[:, None]) * _W_KRONROD).sum(axis=1)
    resabs = ah * (np.abs(fx) * _W_KRONROD).sum(axis=1)
    err = np.abs((resk - resg) * h)
    ratio = 200.0 * err / np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio * np.sqrt(ratio)), err)
    return resk * h, np.maximum(err, _EPS50 * resabs)


def _integrate(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integral of f over each piece [lo, hi], nan where it fails.

    ``f(x, k)`` evaluates piece k's integrand at the rows of x, with nan
    where it is undefined.  Every round applies the 21-point rule to all open
    panels at once and bisects the panels above their share (by length) of
    QUADPACK's request in ``_quad_piece`` (absolute ``TOL_QUAD``, relative
    1e-12).  Halves whose summed estimate is no better than their parent's
    and already within ``_quad_piece``'s acceptance bound are not bisected
    again: near a sharp momentum peak the integrand's own rounding sets the
    estimate there.  A piece ends once its summed estimate meets the request
    or no panel of it is bisected, and is accepted only within that bound.
    It is nan when any node gives nan, when the bound fails, or when it
    would need more than ``QUAD_LIMIT`` panels.  A piece's value depends
    only on its own panels, summed in the same order whatever else is in
    the batch.
    """
    n = lo.size
    out = np.where(lo == hi, 0.0, np.nan)
    kept_val = np.zeros(n)
    kept_err = np.zeros(n)
    panels = np.ones(n, dtype=np.int64)
    k = np.flatnonzero(lo != hi)
    a, b = lo[k], hi[k]
    parent_err = np.zeros(0)
    while k.size:
        val, err = _gk21(f, a, b, k)
        est = kept_val + np.bincount(k, val, n)
        tot = kept_err + np.bincount(k, err, n)
        tol = np.maximum(TOL_QUAD, 1e-12 * np.abs(est))
        bound = 1e3 * TOL_QUAD + 1e-12 * np.abs(est)
        split = err > tol[k] * (b - a) / (hi - lo)[k]
        if parent_err.size:  # the panels are halves: the left ones, then the right ones
            err2 = err[:parent_err.size] + err[parent_err.size:]
            stalled = (err2 >= 0.99 * parent_err) & (err2 <= bound[k[:parent_err.size]])
            split &= ~np.concatenate((stalled, stalled))
        # a nan node makes est and tot nan for good: the piece ends nan, in
        # this round or once its other panels stop splitting
        done = (tot <= tol) | (np.bincount(k[split], minlength=n) == 0)
        end = k[done[k]]
        out[end] = np.where(tot[end] <= bound[end], est[end], np.nan)
        go = ~done[k]
        keep, split = go & ~split, go & split
        kept_val += np.bincount(k[keep], val[keep], n)
        kept_err += np.bincount(k[keep], err[keep], n)
        panels += np.bincount(k[split], minlength=n)
        split &= panels[k] <= QUAD_LIMIT
        k, a, b = k[split], a[split], b[split]
        parent_err = err[split]
        mid = 0.5 * (a + b)
        k, a, b = np.concatenate((k, k)), np.concatenate((a, mid)), np.concatenate((mid, b))
    return out


def _gammas(theta: np.ndarray, R: float, L: float, p: Params) -> np.ndarray:
    """gamma at each theta >= 0 in one quadrature pass, nan where it fails.

    The pieces are the half-turns of :func:`_half_turns`, each distinct
    piece integrated once: a full half-turn is shared by every theta that
    covers it.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0):
        raise ValueError("theta0 must be non-negative")
    lo, hi, eps, use = [], [], [], []  # use: (thetas on half-turn t, their pieces)
    for t in range(max(1, math.ceil(float(theta.max(initial=0.0)) / math.pi))):
        on = theta - 1e-15 > t * math.pi if t else np.ones(theta.shape, dtype=bool)
        ends, idx = np.unique(np.minimum((t + 1) * math.pi, theta[on]), return_inverse=True)
        use.append((on, len(lo) + idx))
        lo += [t * math.pi] * ends.size
        hi += ends.tolist()
        eps += [-1.0 if t % 2 == 0 else 1.0] * ends.size
    eps_k = np.array(eps)

    def f(x, k):
        s = np.sin(x)
        return _dadR(s * s, R, L, eps_k[k][:, None], p)

    vals = _integrate(f, np.array(lo), np.array(hi))
    total = np.zeros(theta.shape)
    for on, idx in use:
        total[on] += vals[idx]
    return total


def gamma_of(theta0: float, R: float, L: float, p: Params) -> float:
    """gamma = d/dR of the generating integral int_0^theta0 a dpsi.

    Integrates da/dR of the valid root, a > 0, over each half-turn; one lane
    of the quadrature that :func:`gamma_series` runs over a whole series.

    Raises:
        GammaUndefined: where da/dR is undefined on the path or the
            quadrature does not converge.
    """
    g = float(_gammas(np.array([theta0]), R, L, p)[0])
    if math.isnan(g):
        raise GammaUndefined(f"gamma quadrature failed at theta0 = {theta0:g}")
    return g


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
    n_ev = len(events)
    # every collision's gamma and, last, the full-loop integral Gamma
    gammas = _gammas(np.array([ev.post.theta0 for ev in events] + [TWO_PI]), R, L, p)
    gamma_principal = gammas[:-1].tolist()
    gamma_full = float(gammas[-1])
    eps_obs = [_sign(ev.post.a) for ev in events]
    mism = [
        e != s0 * (1 if idx % 2 == 0 else -1) or math.isnan(g)
        for idx, (e, g) in enumerate(zip(eps_obs, gamma_principal))
    ]

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
        state = cartesian_from_elements(el, nu)
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
) -> dict:
    """The verdict data for the rotation conjectures at one (L, R): summarize
    a gamma series and probe anisochrony by rerunning at R +- dR.

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
    return {
        "sign_alternation_ok": not any(s.branch_mismatch for s in samples),
        "spread_even": spread_even,
        "spread_odd": spread_odd,
        "omega_estimate": omega,
        "omega_stderr": stderr,
        "domega_dR": (om_hi - om_lo) / (2.0 * dR),
    }
