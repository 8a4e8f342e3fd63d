"""Seeded workload inputs, built from closed forms only (no package calls).

Units are alpha = h = 1.  An orbit is fixed by twice its energy ``A``, the
conserved quantity ``R = a^2 + h*alpha*e*sin(theta0)`` and the aphelion angle
``theta0``.  With ``aM = -alpha/(2A)`` and ``L^2 = alpha*aM/2`` the angular
momentum is ``a^2 = L^2*(1 - e^2)``, so ``R`` fixes ``e`` through the quadratic

    L^2*e^2 - h*alpha*sin(theta0)*e + (R - L^2) = 0.

Draws are stratified (each orbit takes its own slice of the ``A`` and ``R``
ranges, jittered by the seed), so every seed gives the same mix of orbit
shapes and the work per run barely depends on the seed.
"""

from __future__ import annotations

import math
import random

ALPHA = 1.0
H = 1.0

# exact: both sides of R = h*alpha (below it the angular momentum passes 0)
EXACT_BANDS = (
    {"A": (-0.55, -0.40), "R": (0.62, 0.94)},
    {"A": (-0.20, -0.14), "R": (1.10, 1.40)},
)
# gamma: inside h*alpha < R < L^2, kept this share of the band away from each edge
GAMMA_A = (-0.20, -0.14)
GAMMA_EDGE = 0.2
# section: a cheap energy and one whose arcs pass near the centre, at g > 0;
# R spans the wall-reaching range at each energy
SECTION_BANDS = (
    {"A": -1.0 / 6.0, "R": (1.05, 1.45)},
    {"A": -0.5, "R": (0.60, 0.95)},
)
SECTION_G = 0.05

EXACT_CANDIDATES = 4

WALL_MARGIN = 0.02  # the ellipse must rise this share of h above the wall
E_RANGE = (0.05, 0.95)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n jittered points, one in each of n equal slices of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _eccentricities(A: float, R: float, theta0: float) -> list[float]:
    L2 = 0.5 * ALPHA * (-ALPHA / (2.0 * A))
    s = math.sin(theta0)
    disc = (H * ALPHA * s) ** 2 - 4.0 * L2 * (R - L2)
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    roots = ((H * ALPHA * s + sq) / (2.0 * L2), (H * ALPHA * s - sq) / (2.0 * L2))
    return [e for e in roots if E_RANGE[0] < e < E_RANGE[1]]


def _state(A: float, e: float, theta0: float, sign: float, nu: float) -> dict:
    """Cartesian state at true anomaly nu on the ellipse (A, e, theta0, sign a)."""
    aM = -ALPHA / (2.0 * A)
    ell = aM * (1.0 - e * e)
    r = ell / (1.0 + e * math.cos(nu))
    phi = theta0 + math.pi + sign * nu
    hmom = math.sqrt(0.5 * ALPHA * ell)
    vr = 0.5 * ALPHA / hmom * e * math.sin(nu)
    vt = 0.5 * ALPHA / hmom * (1.0 + e * math.cos(nu))
    c, s = math.cos(phi), math.sin(phi)
    return {"x": r * c, "y": r * s, "px": vr * c - sign * vt * s,
            "py": vr * s + sign * vt * c, "t": 0.0}


def _max_y(A: float, e: float, theta0: float) -> float:
    aM = -ALPHA / (2.0 * A)
    b = aM * math.sqrt(1.0 - e * e)
    s, c = math.sin(theta0), math.cos(theta0)
    return aM * e * s + math.hypot(aM * s, b * c)


def _orbit(rng: random.Random, A: float, R: float, nus: tuple[float, float]) -> dict:
    """A wall-reaching orbit at (A, R) that starts below the wall."""
    for _ in range(10_000):
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        sign = rng.choice((1.0, -1.0))
        for e in _eccentricities(A, R, theta0):
            if _max_y(A, e, theta0) < H * (1.0 + WALL_MARGIN):
                continue
            for nu in nus:
                st = _state(A, e, theta0, sign, nu)
                if st["y"] < H * (1.0 - WALL_MARGIN):
                    return {"A": A, "R": R, "state": st}
    raise RuntimeError(f"no wall-reaching orbit at A = {A}, R = {R}")


def exact_candidates(seed: int, count: int) -> list[list[dict]]:
    """For each of count strata, EXACT_CANDIDATES orbits at its (A, R).

    Below R = h*alpha the angular momentum passes 0, and on a few orbits in
    a thousand a collision leaves it so close to 0 that the package refuses
    the near-radial orbit (``Degenerate``).  run.py keeps the first
    candidate of each stratum that the package runs through; the others
    start elsewhere on the same level (A, R).
    """
    rng = random.Random(f"exact-{seed}")
    out = []
    for band, n in zip(EXACT_BANDS, (count // 2, count - count // 2)):
        for A, R in zip(_strata(rng, n, *band["A"]), _strata(rng, n, *band["R"])):
            out.append([_orbit(rng, A, R, (0.0, math.pi)) for _ in range(EXACT_CANDIDATES)])
    return out


def gamma_orbits(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"gamma-{seed}")
    out = []
    for A, f in zip(_strata(rng, count, *GAMMA_A), _strata(rng, count, GAMMA_EDGE, 1.0 - GAMMA_EDGE)):
        L2 = 0.5 * ALPHA * (-ALPHA / (2.0 * A))
        R = H * ALPHA + f * (L2 - H * ALPHA)
        out.append(_orbit(rng, A, R, (math.pi, 0.0)))
    return out


def section_seeds(seed: int, count: int) -> list[dict]:
    """count seeds per energy on the g = SECTION_G surface.

    DOP853 cost per arc is heavy-tailed here (an arc can circle the centre
    many times before it meets the wall), so freshly drawn seeds would make
    a run's time depend on the draw far more than on the code.  The orbits
    are therefore a fixed stratified pool and the seed only orders them.
    Each pool orbit is a g = 0 ellipse at (A, R) whose momentum is rescaled
    so that p^2 - alpha/r + g/r^2 = A holds exactly, as the CLI does for its
    ensembles.
    """
    pool_rng = random.Random("section-pool")
    rng = random.Random(f"section-{seed}")
    out = []
    for band in SECTION_BANDS:
        A = band["A"]
        for R in _strata(pool_rng, count, *band["R"]):
            o = _orbit(pool_rng, A, R, (0.0, math.pi))
            st = o["state"]
            r = math.hypot(st["x"], st["y"])
            scale = math.sqrt((A + ALPHA / r - SECTION_G / (r * r)) / (st["px"] ** 2 + st["py"] ** 2))
            st["px"] *= scale
            st["py"] *= scale
            out.append(o)
    rng.shuffle(out)
    return out


def accessible_half_width(A: float, g: float) -> float:
    """x_max of the wall segment with A >= g/r^2 - alpha/r at r = hypot(x, h)."""
    u = -2.0 * A / (ALPHA + math.sqrt(ALPHA * ALPHA + 4.0 * g * A))
    r_max = 1.0 / u
    return math.sqrt(max(r_max * r_max - H * H, 0.0))
