import math

import numpy as np
import pytest

from kepler_billiard import delaunay
from kepler_billiard.billiard import conserved_R, run
from kepler_billiard.delaunay import (
    ConjectureReport,
    GammaSample,
    a_branch,
    conjecture_report,
    gamma_of,
    gamma_series,
    generating_integral,
    initial_state_on_level,
    omega_estimate_of,
    spread_by_parity,
)
from kepler_billiard.errors import (
    GammaUndefined,
    InsufficientData,
)
from kepler_billiard.kepler import Params

TWO_PI = 2.0 * math.pi
L_REF = -math.sqrt(1.5)
R_REF = 1.2


@pytest.fixture(scope="module")
def gamma_run():
    p = Params()
    s0 = initial_state_on_level(L_REF, R_REF, p)
    res = run(s0, 320, p)
    return p, res, gamma_series(res.events, p)


class TestABranch:
    def test_theta0_zero_both_eps(self, params):
        for eps in (1, -1):
            a = a_branch(0.0, R_REF, L_REF, eps, params)
            assert abs(a - math.sqrt(R_REF)) < 1e-14

    def test_theta0_pi(self, params):
        for eps in (1, -1):
            a = a_branch(math.pi, R_REF, L_REF, eps, params)
            assert abs(a - math.sqrt(R_REF)) < 1e-13

    def test_implicit_residual(self, params):
        # oracle: substitute back into a^2 = R - h*alpha*sin(theta0)*e(a)
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 400:
            th = rng.uniform(0.0, TWO_PI)
            R = rng.uniform(0.3, 1.45)
            eps = 1 if rng.uniform() < 0.5 else -1
            try:
                a = a_branch(th, R, L_REF, eps, params)
            except GammaUndefined:
                continue
            e = math.sqrt(max(1.0 - a * a / (L_REF * L_REF), 0.0))
            resid = abs(a * a - R + params.h * params.alpha * math.sin(th) * e)
            assert resid < 1e-12
            checked += 1

    def test_continuation_root_rejected(self, params):
        # at sin > 0 the eps = +1 quadratic root solves the e < 0 mirror only
        with pytest.raises(GammaUndefined):
            a_branch(math.pi / 2, R_REF, L_REF, 1, params)
        with pytest.raises(GammaUndefined):
            a_branch(1.5 * math.pi, R_REF, L_REF, -1, params)

    def test_requires_negative_L(self, params):
        with pytest.raises(ValueError):
            a_branch(0.3, R_REF, abs(L_REF), 1, params)

    def test_negative_discriminant(self, params):
        # R > L^2 kills the discriminant near sin(theta0) = 0
        R = 1.6
        with pytest.raises(GammaUndefined):
            a_branch(0.05, R, L_REF, -1, params)


class TestGammaOf:
    def test_zero_angle(self, params):
        assert gamma_of(0.0, R_REF, L_REF, params) == 0.0

    def test_finite_difference_of_generating_integral(self, params):
        # inside each half-turn, on a multiple of pi, and at the full loop 2*pi
        hs = 1e-6 * R_REF
        for th in (0.9, 2.6, math.pi, 4.0, 5.5, TWO_PI):
            g = gamma_of(th, R_REF, L_REF, params)
            ip = generating_integral(th, R_REF + hs, L_REF, params)
            im = generating_integral(th, R_REF - hs, L_REF, params)
            assert abs(g - (ip - im) / (2.0 * hs)) < 1e-6, th

    def test_quadratures_go_through_module_quad(self, params, monkeypatch):
        # the seam a tracer wraps to count quadratures and integrand calls
        pieces = []
        real = delaunay.quad

        def spy(f, lo, hi, **kwargs):
            pieces.append((lo, hi))
            return real(f, lo, hi, **kwargs)

        monkeypatch.setattr(delaunay, "quad", spy)
        g = gamma_of(4.0, R_REF, L_REF, params)
        assert pieces == [(0.0, math.pi), (math.pi, 4.0)]  # one per half-turn
        monkeypatch.undo()
        assert g == gamma_of(4.0, R_REF, L_REF, params)


class TestGammaSeries:
    def test_empty(self, params):
        assert gamma_series([], params) == []

    def test_sign_alternation(self, gamma_run):
        _, _, samples = gamma_run
        signs = [s.eps_observed for s in samples]
        assert all(a == -b for a, b in zip(signs, signs[1:]))
        assert not any(s.branch_mismatch for s in samples)

    def test_delta2_constancy(self, gamma_run):
        _, _, samples = gamma_run
        se, so = spread_by_parity(samples)
        assert se < 1e-6 and so < 1e-6

    def test_delta2_defined_for_two_successors(self, gamma_run):
        _, _, samples = gamma_run
        n = len(samples)
        for s in samples:
            if s.n + 2 < n:
                assert math.isfinite(s.delta2_gamma)
            else:
                assert math.isnan(s.delta2_gamma)

    def test_gamma_cumulative(self, gamma_run):
        _, _, samples = gamma_run
        for s in samples:
            if s.n + 2 < len(samples):
                nxt = samples[s.n + 2]
                assert abs(nxt.gamma - s.gamma - s.delta2_gamma) < 1e-12

    def test_observed_root_follows_sin_sign(self, gamma_run):
        # on the level set the valid quadratic root is -sign(sin theta0),
        # so every collision's post-ellipse must sit on that label; the
        # eps = +1 root is the one with a^2 >= R - (h*alpha*sin)^2/(2L^2)
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
        samples = gamma_series(res.events, params)
        assert len(samples) == len(res.events)


class TestConjectureReport:
    def test_insufficient_data(self, params):
        samples = [GammaSample(n=0, gamma=0.0, delta2_gamma=math.nan, eps_observed=1)]
        with pytest.raises(InsufficientData):
            conjecture_report(samples, L_REF, R_REF, params)

    def test_report_fields(self, gamma_run):
        p, _, samples = gamma_run
        rep = conjecture_report(samples, L_REF, R_REF, p)
        assert isinstance(rep, ConjectureReport)
        assert rep.sign_alternation_ok
        assert rep.spread_even >= 0.0 and rep.spread_odd >= 0.0
        assert rep.domega_dR != 0.0
        assert rep.omega_stderr < 1e-9

    def test_distinct_R_distinct_omega(self, params):
        # anisochrony oracle: rerun at a different level and compare
        s1 = initial_state_on_level(L_REF, R_REF, params)
        s2 = initial_state_on_level(L_REF, R_REF * 1.05, params)
        om1, e1 = omega_estimate_of(gamma_series(run(s1, 250, params).events, params))
        om2, e2 = omega_estimate_of(gamma_series(run(s2, 250, params).events, params))
        assert abs(om1 - om2) > 100.0 * math.hypot(e1, e2)


class TestInitialStateOnLevel:
    def test_lands_on_level(self, params):
        s = initial_state_on_level(L_REF, R_REF, params)
        from kepler_billiard.kepler import elements_from_cartesian

        el = elements_from_cartesian(s, params)
        assert abs(conserved_R(el, params) - R_REF) < 1e-10
        assert abs(el.L - L_REF) < 1e-12
        assert s.y < params.h
