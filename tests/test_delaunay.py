import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kepler_billiard import delaunay
from kepler_billiard.billiard import conserved_R, run
from kepler_billiard.delaunay import (
    GammaSeries,
    conjecture_report,
    gamma_of,
    gamma_series,
    gamma_series_of,
    generating_integral,
    initial_state_on_level,
    omega_estimate_of,
    omega_of_level,
    probe_runs,
    spread_by_parity,
)
from kepler_billiard.errors import (
    Degenerate,
    GammaUndefined,
    InsufficientData,
    NoCollision,
)
from kepler_billiard.kepler import (
    OrbitalElements,
    Params,
    cartesian_from_elements,
    elements_from_cartesian,
)

TWO_PI = 2.0 * math.pi
L_REF = -math.sqrt(1.5)
R_REF = 1.2

# a level of the rotation regime h*alpha < R < L^2: its twice-energy A and
# how far up that band R lies
LEVEL_A = st.floats(-0.24, -0.02)
LEVEL_FRAC = st.floats(0.01, 0.99)


def rotation_level(A, frac, p):
    """(L^2, R) of the level drawn as (A, frac)."""
    L2 = p.alpha * p.alpha / (-4.0 * A)
    hb = p.h * p.alpha
    return L2, hb + frac * (L2 - hb)


@pytest.fixture(scope="module")
def gamma_run():
    p = Params()
    s0 = initial_state_on_level(L_REF, R_REF, p)
    res = run(s0, 320, p)
    return p, res, gamma_series(res.events, p)


class TestGammaOf:
    def test_zero_angle(self, params):
        assert gamma_of(0.0, R_REF, L_REF, params) == 0.0
        assert generating_integral(0.0, R_REF, L_REF, params) == 0.0

    def test_finite_difference_of_generating_integral(self, params):
        # inside each half-turn, on a multiple of pi, at the full loop 2*pi,
        # and past it: inside the fourth half-turn and after two whole turns
        hs = 1e-6 * R_REF
        for th in (0.9, 2.6, math.pi, 4.0, 5.5, TWO_PI, 9.0, 2.0 * TWO_PI):
            g = gamma_of(th, R_REF, L_REF, params)
            ip = generating_integral(th, R_REF + hs, L_REF, params)
            im = generating_integral(th, R_REF - hs, L_REF, params)
            assert abs(g - (ip - im) / (2.0 * hs)) < 1e-6, th

    def test_generating_integral_rejects_bad_angles(self, params):
        for th in (-0.5, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                generating_integral(th, R_REF, L_REF, params)
        with pytest.raises(ValueError, match="finite"):
            generating_integral(math.inf, R_REF, L_REF, params)

    def test_gamma_rejects_bad_angles_as_the_oracle_does(self, params):
        for th in (-0.5, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                gamma_of(th, R_REF, L_REF, params)
        with pytest.raises(ValueError, match="finite"):
            gamma_of(math.inf, R_REF, L_REF, params)

    @pytest.mark.parametrize("theta0, R, L, alpha", [
        (3.310152797252826, 1.0 + 1.24e-9, -1.4591387165169984, 1.0),
        (10.736739069988007, 1.9145063599416754, -2.739781192829705, 1.9145063610210795),
    ])
    def test_generating_integral_quadrature_warning_is_undefined(self, theta0, R, L, alpha):
        # near-edge levels where QUADPACK warns of round-off: the oracle
        # gives no value there, and no warning escapes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GammaUndefined, match="quadrature warning: The occurrence"):
                generating_integral(theta0, R, L, Params(alpha=alpha, h=1.0))

    def test_generating_integral_passes_other_warnings_on(self, params, monkeypatch):
        # only QUADPACK's IntegrationWarning means an undefined level; any
        # other warning raised inside a quad call reaches the caller as it is
        quad = delaunay.quad

        def warning_quad(*args, **kwargs):
            warnings.warn("unrelated", DeprecationWarning)
            return quad(*args, **kwargs)

        monkeypatch.setattr(delaunay, "quad", warning_quad)
        with pytest.warns(DeprecationWarning, match="unrelated"):
            val = generating_integral(1.0, R_REF, L_REF, params)
        monkeypatch.setattr(delaunay, "quad", quad)
        assert val == generating_integral(1.0, R_REF, L_REF, params)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        A=st.floats(-0.24, -0.01),
        frac=st.floats(1e-3, 1.0 - 1e-3),
        theta0=st.floats(0.0, TWO_PI),
    )
    def test_against_quadpack_oracle(self, A, frac, theta0):
        # any level h*alpha < R < L^2 of an ellipse with energy A
        params = Params()
        L = -params.alpha / (2.0 * math.sqrt(-A))
        hb = params.h * params.alpha
        R = hb + frac * (L * L - hb)
        g = gamma_of(theta0, R, L, params)
        assert abs(g - quadpack_gamma(theta0, R, L, params)) <= 1e-12 * max(1.0, abs(g))

    def test_near_edge_level_against_quadpack(self, params):
        # R just above h*alpha: a narrow momentum peak near sin(theta0) = 1
        for th in (0.9, math.pi / 2, 2.6, math.pi, 4.0, 5.5, TWO_PI):
            g = gamma_of(th, 1.0005, L_REF, params)
            assert abs(g - quadpack_gamma(th, 1.0005, L_REF, params)) <= 1e-12 * max(1.0, abs(g)), th

    def test_rounding_limited_level(self, params):
        # R - h*alpha = 3e-8, a narrow momentum peak near psi = pi/2: the
        # closed form keeps to the values of the same integral at 40 digits
        # (mpmath, R = 1 + 3e-8 as a double)
        for th, exact in ((2.0, 15.243498402975346), (5.0, 16.887739656491264)):
            g = gamma_of(th, 1.0 + 3e-8, L_REF, params)
            assert abs(g - exact) <= 1e-12 * abs(g), th


    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(A=LEVEL_A, frac=LEVEL_FRAC, turn=st.sampled_from((0.5 * math.pi, 1.5 * math.pi)),
           side=st.sampled_from((1.0, -1.0)), log_gap=st.floats(-12.0, -3.0))
    def test_turning_points_against_quadpack(self, A, frac, turn, side, log_gap):
        # at psi = pi/2 and 3pi/2, a^2 turns at a root of Q: the elliptic
        # amplitude read from a^2 alone would lose about 1e-16/gap there
        p = Params()
        L2, R = rotation_level(A, frac, p)
        L = -math.sqrt(L2)
        theta0 = turn + side * 10.0**log_gap
        g = gamma_of(theta0, R, L, p)
        assert abs(g - quadpack_gamma(theta0, R, L, p)) <= 1e-12 * max(1.0, abs(g))

    def test_separatrix_turning_points(self, params):
        # R - h*alpha = 1e-10, where m = 1 - 1.1e-10 and a^2 falls to 1.5e-10
        # at psi = pi/2: the values of the same integral at 40 digits (mpmath,
        # R = 1 + 1e-10 as a double), whose momentum peak QUADPACK cannot
        # resolve; forming u/u+ as 1 - m sin^2(phi) misses them by 1.4e-6
        for th, exact in ((math.pi / 2 - 1e-6, 10.583151072250326967),
                          (math.pi / 2 + 1e-9, 10.644398633977941991),
                          (1.5 * math.pi - 1e-7, 21.764387847235386127),
                          (1.5 * math.pi + 1e-4, 21.764409519521143129)):
            g = gamma_of(th, 1.0 + 1e-10, L_REF, params)
            assert abs(g - exact) <= 1e-12 * abs(g), th

    def test_separatrix_level(self, params):
        # R = h*alpha: a^2 falls to 0 at psi = pi/2, where K is infinite
        g = gamma_of(1.5, 1.0, L_REF, params)
        assert abs(g - quadpack_gamma(1.5, 1.0, L_REF, params)) <= 1e-12 * max(1.0, abs(g))
        for th in (2.0, 4.0, TWO_PI):
            with pytest.raises(GammaUndefined):
                gamma_of(th, 1.0, L_REF, params)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(A=LEVEL_A, frac=st.floats(0.01, 0.99), before=st.booleans(), t=st.floats(0.0, 1.0))
    def test_below_h_alpha_defined_until_a_vanishes(self, A, frac, before, t):
        # R < h*alpha: the path reaches a = 0 where sin(psi) = R/(h*alpha),
        # and gamma is undefined from there on, the full loop included
        p = Params()
        L = -p.alpha / (2.0 * math.sqrt(-A))
        hb = p.h * p.alpha
        R = frac * hb
        edge = math.asin(R / hb)
        theta0 = t * edge if before else edge + t * (TWO_PI - edge)
        assume(abs(theta0 - edge) > 1e-9)
        if before:
            g = gamma_of(theta0, R, L, p)
            assert abs(g - quadpack_gamma(theta0, R, L, p)) <= 1e-12 * max(1.0, abs(g))
        else:
            with pytest.raises(GammaUndefined):
                gamma_of(theta0, R, L, p)
        with pytest.raises(GammaUndefined):
            gamma_of(TWO_PI, R, L, p)

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(A=LEVEL_A, excess=st.floats(1e-9, 1.0), theta0=st.floats(0.0, TWO_PI))
    def test_above_L_squared_undefined(self, A, excess, theta0):
        # R > L^2: no momentum a <= |L| has a^2 = R at psi = 0
        p = Params()
        L2 = p.alpha * p.alpha / (-4.0 * A)
        with pytest.raises(GammaUndefined):
            gamma_of(theta0, L2 * (1.0 + excess), -math.sqrt(L2), p)

    def test_carlson_kernel_against_scipy(self):
        # F(phi|m) = sin(phi) R_F(cos^2(phi), 1 - m sin^2(phi), 1) and
        # K(m) = R_F(0, 1 - m, 1); half the draws crowd m -> 1
        from scipy.special import ellipk, ellipkinc

        rng = np.random.default_rng(2)
        n = 20000
        phi = rng.uniform(1e-6, 0.5 * math.pi, n)
        m = np.concatenate((rng.uniform(0.0, 1.0 - 1e-12, n // 2),
                            1.0 - 10.0 ** -rng.uniform(0.0, 12.0, n // 2)))
        s2, c2 = np.sin(phi) ** 2, np.cos(phi) ** 2
        # the same double m, as cos^2 + (1 - m) sin^2 to keep its digits as m -> 1
        F = np.sin(phi) * delaunay._rf(c2, c2 + (1.0 - m) * s2)
        K = delaunay._rf(np.zeros(n), 1.0 - m)
        assert np.max(np.abs(F / ellipkinc(phi, m) - 1.0)) <= 1e-14
        assert np.max(np.abs(K / ellipk(m) - 1.0)) <= 1e-14


def undefined_rows_flagged(res, series, p) -> int:
    """How many rows' gamma_of is undefined; asserts each of them is nan and flagged."""
    R = conserved_R(res.events[0].post, p)
    undefined = 0
    for n, ev in enumerate(res.events):
        try:
            gamma_of(ev.post.theta0, R, ev.post.L, p)
        except GammaUndefined:
            undefined += 1
            assert series.mismatch[n] and math.isnan(series.gamma[n]), n
    return undefined


def quadpack_gamma(theta0: float, R: float, L: float, p) -> float:
    """gamma from QUADPACK over each half-turn, on da/dR from implicit differentiation.

    With e = sqrt(1 - a^2/L^2), differentiating a^2 = R - h*alpha*sin*e in R
    gives da/dR = 1 / (a * (2 - h*alpha*sin / (L^2 * e))); a^2 is the root of
    the squared relation that opposes sin, a > 0.
    """
    hb = p.h * p.alpha
    L2 = L * L

    def dadR(psi):
        s = math.sin(psi)
        m = hb * hb * s * s / L2
        a2 = R - 0.5 * m - math.copysign(math.sqrt(0.25 * m * m + hb * hb * s * s - R * m), s)
        e = math.sqrt(1.0 - a2 / L2)
        return 1.0 / (math.sqrt(a2) * (2.0 - hb * s / (L2 * e)))

    total, k = 0.0, 0
    while k * math.pi < theta0:
        val, _ = delaunay.quad(dadR, k * math.pi, min((k + 1) * math.pi, theta0),
                               epsabs=1e-12, epsrel=1e-13, limit=500)
        total += val
        k += 1
    return total


def columns(series):
    return series.gamma, series.delta2, series.eps, series.mismatch


def report_of(events, L, R, p):
    """conjecture_report on a run and its probes, from one shared pass."""
    series, *probes = gamma_series_of([events, *probe_runs(L, R, p)], p)
    return conjecture_report(series, L, R, p, probes)


class TestGammaSeries:
    def test_empty(self, params):
        series = gamma_series([], params)
        for col, dtype in zip(columns(series), (float, float, np.int64, bool)):
            assert col.size == 0 and col.dtype == dtype

    def test_sign_alternation(self, gamma_run):
        _, res, series = gamma_run
        assert series.eps.dtype == np.int64 and series.mismatch.dtype == bool
        assert all(col.size == len(res.events) for col in columns(series))
        assert np.all(series.eps[1:] == -series.eps[:-1])
        assert not series.mismatch.any()

    def test_delta2_constancy(self, gamma_run):
        _, _, series = gamma_run
        se, so = spread_by_parity(series)
        assert se < 1e-6 and so < 1e-6

    def test_delta2_defined_for_two_successors(self, gamma_run):
        _, _, series = gamma_run
        assert np.all(np.isfinite(series.delta2[:-2]))
        assert np.all(np.isnan(series.delta2[-2:]))

    @pytest.mark.parametrize("m", [40, 41, 42, 43])
    def test_class_median_is_statistics_median(self, gamma_run, m):
        # each parity class's increments are re-centred at their median, as
        # statistics.median takes it: classes of 19 to 21 increments, odd and
        # even, on random principal gammas
        _, res, _ = gamma_run
        principal, gamma_full = np.random.default_rng(m).uniform(0.0, 40.0, m), 3.7
        series = delaunay._series(res.events[:m], np.append(principal, gamma_full))
        half = 0.5 * gamma_full
        for par in (0, 1):
            reduced = np.diff(principal[par::2]) % gamma_full
            med = statistics.median(reduced.tolist())
            want = ((reduced - med + half) % gamma_full) + med - half
            assert series.delta2[par::2][:-1].tobytes() == want.tobytes()

    def test_gamma_cumulative(self, gamma_run):
        _, _, series = gamma_run
        g, d = series.gamma, series.delta2
        assert np.all(np.abs(g[2:] - g[:-2] - d[:-2]) < 1e-12)

    def test_observed_root_follows_sin_sign(self, gamma_run):
        # on the level set the valid quadratic root lies on the side
        # -sign(sin theta0) of t1 = R - (h*alpha*sin)^2/(2L^2), so every
        # collision's post-ellipse must sit on that side
        p, res, _ = gamma_run
        for ev in res.events:
            el = ev.post
            s = math.sin(el.theta0)
            expected = 1 if s <= 0.0 else -1
            t1 = R_REF - 0.5 * (p.h * p.alpha * s) ** 2 / L_REF**2
            assert (1 if el.a * el.a >= t1 else -1) == expected

    def test_low_R_regime_is_diagnostic_only(self, params):
        # R < h*alpha: branch bookkeeping runs, nothing is asserted
        s0 = initial_state_on_level(L_REF, 0.8, params)
        res = run(s0, 60, params)
        series = gamma_series(res.events, params)
        assert all(col.size == len(res.events) for col in columns(series))

    def test_undefined_rows_flagged_without_warnings(self, params):
        # R < h*alpha: the momentum loop crosses a = 0, so gamma is undefined
        # at some collisions; their lanes must not warn and their rows are flagged
        s0 = initial_state_on_level(L_REF, 0.8, params)
        res = run(s0, 60, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = gamma_series(res.events, params)
        assert undefined_rows_flagged(res, series, params) > 0

    def test_series_uses_scalar_gamma_bit_for_bit(self, gamma_run, monkeypatch):
        # the series' one closed-form pass gives every lane the bits of gamma_of
        p, res, series = gamma_run
        passes = []
        real = delaunay._gammas

        def spy(theta, R, L, p):
            passes.append((theta, R, L, real(theta, R, L, p)))
            return passes[-1][-1]

        monkeypatch.setattr(delaunay, "_gammas", spy)
        again = gamma_series(res.events, p)
        for col, col_again in zip(columns(series), columns(again)):
            assert col.tobytes() == col_again.tobytes()
        (theta, R, L, gammas), = passes
        el0 = res.events[0].post
        assert theta[-1] == TWO_PI and theta.size == len(res.events) + 1
        assert np.all(R == conserved_R(el0, p)) and np.all(L == el0.L)
        for th, g in zip(theta, gammas):
            assert g == gamma_of(float(th), R[0], L[0], p)
        assert series.gamma[0] == gammas[0]

    def test_runs_share_one_pass(self, gamma_run, params, monkeypatch):
        # several runs, an empty one and a run that never started: one pass,
        # and each series byte for byte its one-run form
        p, res, series = gamma_run
        low = run(initial_state_on_level(L_REF, 0.8, params), 60, params).events
        failed = NoCollision("level-set ellipse does not reach the wall")
        alone = [gamma_series(ev, p) for ev in (res.events, [], low)]
        calls = []
        real = delaunay._rf
        monkeypatch.setattr(delaunay, "_rf", lambda x, y: calls.append(x.size) or real(x, y))
        got = gamma_series_of([res.events, [], failed, low], p)
        assert len(calls) == 1
        assert got[2] is failed
        for one, joint in zip(alone, got[:2] + got[3:]):
            for col, col_joint in zip(columns(one), columns(joint)):
                assert col.dtype == col_joint.dtype and col.tobytes() == col_joint.tobytes()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(levels=st.lists(
        st.tuples(LEVEL_A, LEVEL_FRAC,
                  st.lists(st.floats(0.0, 4.0 * TWO_PI), min_size=1, max_size=12)),
        min_size=1, max_size=4))
    def test_joint_pass_lanes_match_one_level_passes(self, levels):
        # every lane of a pass over several levels has the bits of a pass
        # over its level alone
        p = Params()
        theta, R, L = [], [], []
        for A, frac, ths in levels:
            L2, R_lvl = rotation_level(A, frac, p)
            theta.append(np.array(ths))
            R.append(np.full(len(ths), R_lvl))
            L.append(np.full(len(ths), -math.sqrt(L2)))
        joint = delaunay._gammas(np.concatenate(theta), np.concatenate(R), np.concatenate(L), p)
        alone = np.concatenate([delaunay._gammas(*lanes, p) for lanes in zip(theta, R, L)])
        assert joint.tobytes() == alone.tobytes()

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(A=LEVEL_A, frac=LEVEL_FRAC, theta0=st.floats(0.0, TWO_PI),
           sense=st.sampled_from((1.0, -1.0)))
    def test_conjecture2_on_random_rotation_orbits(self, A, frac, theta0, sense):
        # any orbit of the rotation regime h*alpha < R < L^2: its e is the
        # positive root of L^2 e^2 - h*alpha*sin(theta0)*e + (R - L^2) = 0
        p = Params()
        L2, R = rotation_level(A, frac, p)
        hb = p.h * p.alpha
        s = math.sin(theta0)
        e = (hb * s + math.sqrt(hb * hb * s * s - 4.0 * L2 * (R - L2))) / (2.0 * L2)
        el = OrbitalElements(A=A, a=sense * math.sqrt(L2 * (1.0 - e * e)), theta0=theta0,
                             alpha=p.alpha)
        # every such ellipse reaches the wall and has an apse below it
        assert el.max_y() > p.h
        apses = [cartesian_from_elements(el, nu) for nu in (math.pi, 0.0)]
        res = run(next(a for a in apses if a.y < p.h), 150, p)
        assert len(res.events) == 150, res.halted
        series = gamma_series(res.events, p)
        assert not series.mismatch.any()
        assert np.all(np.isfinite(series.gamma))
        se, so = spread_by_parity(series)
        assert se <= 5e-6 and so <= 5e-6  # verify's conjecture2_spread_* bound


class TestConjectureReport:
    def test_insufficient_data(self, params):
        series = GammaSeries(np.zeros(99), np.full(99, np.nan), np.ones(99, dtype=np.int64),
                             np.zeros(99, dtype=bool))
        with pytest.raises(InsufficientData):
            conjecture_report(series, L_REF, R_REF, params, [])

    def test_report_fields(self, gamma_run):
        p, res, _ = gamma_run
        rep = report_of(res.events, L_REF, R_REF, p)
        assert set(rep) == {"sign_alternation_ok", "spread_even", "spread_odd",
                            "omega_estimate", "omega_stderr", "domega_dR"}
        assert rep["sign_alternation_ok"] is True
        assert rep["spread_even"] >= 0.0 and rep["spread_odd"] >= 0.0
        assert rep["domega_dR"] != 0.0
        assert rep["omega_stderr"] < 1e-9

    def test_distinct_R_distinct_omega(self, params):
        # anisochrony oracle: rerun at a different level and compare
        s1 = initial_state_on_level(L_REF, R_REF, params)
        s2 = initial_state_on_level(L_REF, R_REF * 1.05, params)
        om1, e1 = omega_estimate_of(gamma_series(run(s1, 250, params).events, params))
        om2, e2 = omega_estimate_of(gamma_series(run(s2, 250, params).events, params))
        assert abs(om1 - om2) > 100.0 * math.hypot(e1, e2)

    def test_probe_errors_in_order(self, gamma_run):
        # the run's own estimate first, then R + dR: its start's error, then
        # its missing increment; then R - dR
        p, res, series = gamma_run
        hi = NoCollision("level-set ellipse does not reach the wall")
        lo = GammaUndefined("no valid branch")
        unusable = GammaSeries(series.gamma, np.full_like(series.delta2, np.nan), series.eps,
                               series.mismatch)
        with pytest.raises(InsufficientData, match="only 0 usable increments"):
            conjecture_report(unusable, L_REF, R_REF, p, [hi, lo])
        with pytest.raises(NoCollision):
            conjecture_report(series, L_REF, R_REF, p, [hi, lo])
        empty = gamma_series([], p)
        with pytest.raises(InsufficientData, match="no finite a > 0 increment on the level R = 1.2001"):
            conjecture_report(series, L_REF, R_REF, p, [empty, lo])
        ok = gamma_series_of(probe_runs(L_REF, R_REF, p), p)
        with pytest.raises(GammaUndefined):
            conjecture_report(series, L_REF, R_REF, p, [ok[0], lo])


class TestOmegaOfLevel:
    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(A=LEVEL_A, frac=LEVEL_FRAC)
    def test_one_pair_matches_300_collision_runs(self, A, frac):
        # oracle: the mean a > 0 increment of a 300-collision run on the
        # level, and domega/dR as the difference quotient of two such means
        p = Params()
        L2, R = rotation_level(A, frac, p)
        L = -math.sqrt(L2)

        def events_of(R_lvl):
            return run(initial_state_on_level(L, R_lvl, p), 300, p).events

        def series_of(R_lvl):
            return gamma_series(events_of(R_lvl), p)

        series = series_of(R)
        omega = omega_estimate_of(series)[0]
        assert abs(omega_of_level(L, R, p) - omega) <= 1e-10 * abs(omega)
        dR = 1e-4 * abs(R)
        quotient = (omega_estimate_of(series_of(R + dR))[0]
                    - omega_estimate_of(series_of(R - dR))[0]) / (2.0 * dR)
        domega_dR = report_of(events_of(R), L, R, p)["domega_dR"]
        assert abs(domega_dR - quotient) <= 1e-8 * abs(quotient)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(A=LEVEL_A, frac=LEVEL_FRAC)
    def test_shared_pass_matches_omega_of_level(self, A, frac):
        # domega_dR from the probes of the shared pass is, bit for bit, the
        # central difference of the one-level oracle omega_of_level
        p = Params()
        L2, R = rotation_level(A, frac, p)
        L = -math.sqrt(L2)
        events = run(initial_state_on_level(L, R, p), 100, p).events
        dR = 1e-4 * abs(R)
        want = (omega_of_level(L, R + dR, p) - omega_of_level(L, R - dR, p)) / (2.0 * dR)
        assert report_of(events, L, R, p)["domega_dR"] == want

    def test_below_h_alpha(self, params):
        # R < h*alpha: the momentum loop crosses a = 0, so gamma is nan
        with pytest.raises(InsufficientData):
            omega_of_level(L_REF, 0.8, params)

    def test_level_missing_the_wall(self, params):
        with pytest.raises(NoCollision):
            omega_of_level(L_REF, 0.1, params)


class TestInitialStateOnLevel:
    def test_lands_on_level(self, params):
        s = initial_state_on_level(L_REF, R_REF, params)
        el = elements_from_cartesian(s, params)
        assert abs(conserved_R(el, params) - R_REF) < 1e-10
        assert abs(el.L - L_REF) < 1e-12
        assert s.y < params.h

    def test_reference_start_pinned(self, params):
        # the start of verify's gamma reference, bit for bit
        assert repr(initial_state_on_level(L_REF, R_REF, params)) == (
            "CartesianState(x=-1.5744818758317942e-15, y=-3.673320053068152, "
            "px=0.3249101759613068, py=-1.5077994319356152e-16, t=0.0)"
        )

    def test_level_above_its_range(self, params):
        # R > L^2: no a^2 in [0, L^2] solves the level at theta0 = 3*pi/2
        with pytest.raises(GammaUndefined, match="no valid branch at theta0 = 4.71239"):
            initial_state_on_level(L_REF, 1.6, params)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        alpha=st.floats(0.1, 10.0),
        h=st.floats(0.1, 10.0),
        size=st.floats(0.5, 5.0),
        ecc=st.floats(-0.5, 0.99),
    )
    def test_random_levels(self, alpha, h, size, ecc):
        # an ellipse of semi-major axis size*h and the level R that its
        # aphelion at 3*pi/2 would carry with eccentricity ecc; ecc < 0 gives
        # levels of the e < 0 continuation, some above L^2.  The start lies
        # below the wall on the level, or the level has none for a named reason
        p = Params(alpha=alpha, h=h)
        L = -math.sqrt(0.5 * alpha * size * h)
        R = L * L * (1.0 - ecc * ecc) - h * alpha * ecc
        try:
            s = initial_state_on_level(L, R, p)
        except (GammaUndefined, NoCollision, Degenerate):
            return
        # the eccentricity vector (toward perihelion) from the state itself:
        # e = sqrt(1 - a^2/L^2) from the elements loses half its digits as
        # e -> 0, this does not
        mu = 0.5 * p.alpha
        a = s.angular_momentum
        ex, ey = s.py * a / mu - s.x / s.r, -s.px * a / mu - s.y / s.r
        assert s.y < p.h
        assert abs(ex) <= 1e-12 and ey >= -1e-12  # aphelion at theta0 = 3*pi/2
        # R = a^2 + h*alpha*e*sin(theta0), and e*sin(theta0) = -ey.  Near a
        # circle R moves with a^2 as h*alpha/(2 L^2 e): one ulp of a^2 moves
        # it by about 1e-8 at e = 0, and the bound holds from e = 1e-3 on
        # (the worst of 10^4 random starts there: 2.4e-13)
        if ey >= 1e-3:
            assert abs(a * a - p.h * p.alpha * ey - R) <= 1e-12 * max(1.0, abs(R))
