import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kepler_billiard import billiard, reference
from kepler_billiard.billiard import (
    TOL_EVENT,
    CollisionEvent,
    InvariantReport,
    R0_from_center,
    R0_from_geometry,
    R_from_R0,
    accessible_interval,
    conserved_R,
    invariant_report,
    level_set_R,
    next_revolving_crossing,
    next_wall_crossing,
    r_value_on_section,
    reflect,
    run,
    step,
    tangent_angle,
)
from kepler_billiard.delaunay import GammaSample
from kepler_billiard.errors import (
    Degenerate,
    DomainError,
    EmptyLevelSet,
    EmptyRegion,
    GrazingContact,
    NoCollision,
    NotOnWall,
    Unbound,
)
from kepler_billiard.kepler import (
    CartesianState,
    OrbitalElements,
    Params,
    RevolvingOrbit,
    cartesian_from_elements,
    eccentric_of_state,
    elements_from_cartesian,
    revolving_orbit,
    state_at_eccentric,
    time_to_anomaly,
    true_from_eccentric,
)
from kepler_billiard.perturbed import integrate_to_wall

TWO_PI = 2.0 * math.pi

# property tests: a fixed example sequence, so every run checks the same states
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)
coord = st.floats(-10.0, 10.0)


def sampling_crossing_oracle(el, E_now, p, n_grid=10_000, iters=100):
    """Dense sampling of y(E) - h plus bisection: independent crossing finder."""

    def y_of(E):
        return state_at_eccentric(el, E).y

    Es = np.linspace(E_now, E_now + TWO_PI, n_grid)
    ys = np.array([y_of(float(E)) for E in Es]) - p.h
    for i in range(n_grid - 1):
        if ys[i] < 0.0 <= ys[i + 1]:  # upward crossing bracket
            lo, hi = float(Es[i]), float(Es[i + 1])
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                if y_of(mid) - p.h < 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    raise AssertionError("oracle found no upward crossing")


def composed_collision(s, p, n):
    """One g = 0 collision composed from kepler's functions: the oracle of
    ``step`` and ``invariant_report``.  The ellipse comes from
    ``OrbitalElements.geometry()``, the hit state from
    ``state_at_eccentric`` and ``time_to_anomaly``, and R from the public
    ``conserved_R``, ``R0_from_geometry`` and ``R_from_R0``."""
    el = elements_from_cartesian(s, p)
    E0 = eccentric_of_state(el, s)
    aM, e, b, _, cy, _, uy, _, vy, _ = el.geometry()
    P, Q = aM * uy, b * vy
    delta = math.acos(max(-1.0, min(1.0, (p.h - cy) / math.hypot(P, Q))))
    E_hit = E0 + (math.atan2(Q, P) - delta - E0) % TWO_PI
    out = reflect(state_at_eccentric(el, E_hit, t=s.t + time_to_anomaly(el, E0, E_hit)), p)
    r = aM * (1.0 - e * math.cos(E_hit))
    lam = tangent_angle(el, E_hit)
    post = elements_from_cartesian(out, p)
    event = CollisionEvent(n=n, t=out.t, x_impact=out.x, r=r, lam=lam, pre=el, post=post, E_hit=E_hit)
    R16 = conserved_R(post, p)
    R0 = R0_from_geometry(r, post.aM, lam)
    R17 = R_from_R0(R0, post.aM, p)
    lower = p.alpha * p.h * p.h / (2.0 * post.aM)
    upper = (1.0 + (post.aM / p.h) ** 2 - ((post.aM - r) / p.h) ** 2) * lower
    bounds_ok = (r < 2.0 * post.aM and (post.aM - r) ** 2 < R0 * R0 < post.aM * post.aM
                 and lower < R16 < upper)
    report = InvariantReport(R_eq16=R16, R0=R0, R_eq17=R17,
                             residual_identity=abs(R16 - R17), bounds_ok=bounds_ok)
    return out, event, report


def assert_same(got, want):
    """Equal field by field, and bit for bit (repr tells -0.0 from 0.0)."""
    assert got == want
    assert repr(got) == repr(want)


class TestR0:
    def test_geometry_lambda_zero(self):
        assert abs(R0_from_geometry(0.7, 1.3, 0.0) - 1.3) < 1e-14

    def test_geometry_lambda_half_pi(self):
        assert abs(R0_from_geometry(0.7, 1.3, math.pi / 2) - 0.6) < 1e-14
        assert abs(R0_from_geometry(1.9, 1.3, math.pi / 2) - 0.6) < 1e-13

    def test_geometry_r_equals_aM(self):
        for lam in (0.3, 1.2, 2.9):
            got = R0_from_geometry(1.3, 1.3, lam)
            assert abs(got - 1.3 * abs(math.cos(lam))) < 1e-13

    def test_geometry_domain(self):
        with pytest.raises(DomainError):
            R0_from_geometry(2.6, 1.3, 0.5)
        with pytest.raises(DomainError):
            R0_from_geometry(0.0, 1.3, 0.5)

    def test_geometry_range(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            aM = rng.uniform(0.2, 3.0)
            r = rng.uniform(1e-6, 2.0 * aM - 1e-6)
            lam = rng.uniform(0.0, math.pi)
            R0 = R0_from_geometry(r, aM, lam)
            assert (aM - r) ** 2 - 1e-12 <= R0**2 <= aM**2 + 1e-12

    def test_center_circular(self, params):
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.5), theta0=0.0, alpha=1.0)
        assert abs(R0_from_center(el, params) - params.h) < 1e-14

    def test_center_on_wall_foot(self, params):
        # aM*e = h with theta0 = pi/2 puts the center exactly on Q
        aM, e = 2.0, 0.5
        a = math.sqrt(0.5 * aM * (1.0 - e * e))
        el = OrbitalElements(A=-0.25, a=a, theta0=math.pi / 2, alpha=1.0)
        assert R0_from_center(el, params) < 1e-14

    def test_center_vs_geometry_at_crossing(self, params, reference_elements):
        el = reference_elements
        _, r, lam, _ = next_wall_crossing(el, 0.0, params)
        geo = R0_from_geometry(r, el.aM, lam)
        assert abs(geo - R0_from_center(el, params)) < 1e-10


class TestRFromR0:
    def test_lower_bound_value(self, params):
        aM = 1.3
        got = R_from_R0(aM, aM, params)
        assert abs(got - params.alpha * params.h**2 / (2.0 * aM)) < 1e-14

    def test_zero(self, params):
        aM = 1.3
        R0 = math.sqrt(params.h**2 + aM**2)
        assert abs(R_from_R0(R0, aM, params)) < 1e-14

    def test_matches_conserved_R(self, params, reference_elements):
        el = reference_elements
        R0 = R0_from_center(el, params)
        assert abs(R_from_R0(R0, el.aM, params) - conserved_R(el, params)) < 1e-10


class TestConservedR:
    def test_circular(self, params):
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.5), theta0=0.0, alpha=1.0)
        assert abs(conserved_R(el, params) - 0.5) < 1e-14

    def test_theta0_zero(self, params):
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.32), theta0=0.0, alpha=1.0)
        assert abs(conserved_R(el, params) - 0.32) < 1e-14

    @PROPERTY
    @given(
        A=st.floats(-0.45, -0.1),
        e=st.floats(0.0, 0.99),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        nu=st.floats(0.0, TWO_PI),
        g=st.floats(0.0, 1.0),
    )
    def test_osculating_quantities_at_any_g(self, A, e, theta0, prograde, nu, g):
        # the elements, R and the report are those of the Kepler ellipse:
        # at g > 0 the osculating values, bit for bit the g = 0 ones
        p0, pg = Params(), Params(g=g)
        aM = -p0.alpha / (2.0 * A)
        a = math.sqrt(0.5 * p0.alpha * aM * (1.0 - e * e))
        el = OrbitalElements(A=A, a=a if prograde else -a, theta0=theta0, alpha=p0.alpha)
        assume(el.max_y() > p0.h + 1e-3)
        s = cartesian_from_elements(el, nu)
        assume(s.y < p0.h)
        _, ev = step(s, p0)
        assert_same(elements_from_cartesian(s, pg), elements_from_cartesian(s, p0))
        assert_same(conserved_R(ev.post, pg), conserved_R(ev.post, p0))
        assert_same(invariant_report(ev, pg), invariant_report(ev, p0))


class TestCrossing:
    def test_circle_crossing_abscissa(self, params):
        rho = 1.5
        A = -params.alpha / (2.0 * rho)
        a = math.sqrt(params.mu * rho)
        for sgn, side in ((1.0, 1.0), (-1.0, -1.0)):
            el = OrbitalElements(A=A, a=sgn * a, theta0=0.0, alpha=1.0)
            s = cartesian_from_elements(el, 2.5)
            _, _, _, hit = next_wall_crossing(el, eccentric_of_state(el, s), params)
            assert abs(abs(hit.x) - math.sqrt(rho**2 - 1.0)) < 1e-6
            assert math.copysign(1.0, hit.x) == side

    def test_no_collision_below(self, params):
        el = OrbitalElements(A=-1.0, a=math.sqrt(0.2), theta0=0.1, alpha=1.0)
        assert el.max_y() < 1.0
        with pytest.raises(NoCollision):
            next_wall_crossing(el, 0.0, params)

    def test_tangent_circle_is_no_collision(self, params):
        # wall exactly tangent to the bounding circle: degenerate path
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.5), theta0=0.0, alpha=1.0)
        s = cartesian_from_elements(el, 1.0)
        res = run(s, 3, params)
        assert res.no_collision and not res.events

    def test_grazing_via_tolerance(self, params, reference_elements, monkeypatch):
        monkeypatch.setattr(billiard, "TOL_GRAZE", 10.0)
        with pytest.raises(GrazingContact, match="below tol 10"):
            next_wall_crossing(reference_elements, 0.0, params)

    def test_against_sampling_oracle(self, params):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 25:
            A = -rng.uniform(0.2, 1.5)
            e = rng.uniform(0.05, 0.9)
            th = rng.uniform(0.0, TWO_PI)
            sgn = 1.0 if rng.uniform() < 0.5 else -1.0
            aM = -1.0 / (2.0 * A)
            el = OrbitalElements(
                A=A, a=sgn * math.sqrt(0.5 * aM * (1.0 - e * e)), theta0=th, alpha=1.0
            )
            if el.max_y() < params.h + 0.05:
                continue
            E_now = rng.uniform(0.0, TWO_PI)
            if state_at_eccentric(el, E_now).y > params.h:
                continue
            E_hit, _, _, _ = next_wall_crossing(el, E_now, params)
            E_oracle = sampling_crossing_oracle(el, E_now, params)
            assert abs(E_hit - E_oracle) < 1e-10
            checked += 1


class TestReflect:
    def test_example(self, params):
        s = CartesianState(x=0.3, y=1.0, px=1.0, py=0.7)
        out = reflect(s, params)
        assert (out.x, out.y, out.px, out.py, out.t) == (0.3, 1.0, 1.0, -0.7, 0.0)

    def test_grazing_momentum_unchanged(self, params):
        s = CartesianState(x=0.3, y=1.0, px=1.0, py=0.0)
        out = reflect(s, params)
        assert out == CartesianState(0.3, 1.0, 1.0, -0.0, 0.0)
        assert out.py == 0.0

    def test_involution(self, params):
        s = CartesianState(x=-0.2, y=1.0, px=0.4, py=0.9)
        assert reflect(reflect(s, params), params) == s

    def test_preserves_speed(self, params):
        s = CartesianState(x=0.3, y=1.0, px=1.0, py=0.7)
        assert reflect(s, params).speed_sq == s.speed_sq

    def test_not_on_wall(self, params):
        with pytest.raises(NotOnWall):
            reflect(CartesianState(0.3, 0.5, 1.0, 0.7), params)

    def test_pins_within_tolerance(self, params):
        near = CartesianState(0.3, params.h + 0.5 * TOL_EVENT, 1.0, 0.7, 2.0)
        assert reflect(near, params) == CartesianState(0.3, params.h, 1.0, -0.7, 2.0)
        with pytest.raises(NotOnWall):
            reflect(CartesianState(0.3, params.h + 2.0 * TOL_EVENT, 1.0, 0.7), params)

    @PROPERTY
    @given(x=coord, px=coord, py=coord, t=st.floats(0.0, 1e3), off=st.floats(-0.99, 0.99))
    def test_pinned_involution_property(self, x, px, py, t, off):
        p = Params()
        out = reflect(CartesianState(x, p.h + off * TOL_EVENT, px, py, t), p)
        assert out == CartesianState(x, p.h, px, -py, t)
        assert reflect(out, p) == CartesianState(x, p.h, px, py, t)

    @PROPERTY
    @given(x=coord, px=coord, py=coord, dist=st.floats(1.0, 1e9), up=st.booleans())
    def test_off_wall_property(self, x, px, py, dist, up):
        p = Params()
        y = p.h + (dist if up else -dist) * TOL_EVENT
        assume(abs(y - p.h) >= TOL_EVENT)  # y - h rounds; keep the tested side
        with pytest.raises(NotOnWall):
            reflect(CartesianState(x, y, px, py), p)


class TestStep:
    def test_preserves_A_and_aM(self, params, reference_state):
        state = reference_state
        for k in range(20):
            state, ev = step(state, params, n=k)
            assert abs(ev.pre.A - ev.post.A) < 1e-12
            assert abs(ev.pre.aM - ev.post.aM) < 1e-12

    def test_preserves_R(self, params, reference_state):
        state = reference_state
        for k in range(20):
            state, ev = step(state, params, n=k)
            assert abs(
                conserved_R(ev.pre, params) - conserved_R(ev.post, params)
            ) < 1e-10

    def test_lambda_reflection_relation(self, params, reference_state):
        state = reference_state
        for k in range(10):
            state, ev = step(state, params, n=k)
            lam_post = tangent_angle(ev.post, eccentric_of_state(ev.post, state))
            assert abs((math.pi - ev.lam) - lam_post) < 1e-9

    def test_mirror_symmetry(self, params, reference_state):
        s = reference_state
        mirrored = CartesianState(x=-s.x, y=s.y, px=-s.px, py=s.py, t=0.0)
        r1 = run(s, 50, params)
        r2 = run(mirrored, 50, params)
        for a, b in zip(r1.events, r2.events):
            assert abs(a.x_impact + b.x_impact) < 1e-9
            assert abs(a.t - b.t) < 1e-9

    @PROPERTY
    @given(
        A=st.floats(-0.45, -0.1),
        e=st.floats(0.05, 0.9),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        nu=st.floats(0.0, TWO_PI),
    )
    def test_random_orbits_keep_A_and_R(self, A, e, theta0, prograde, nu):
        p = Params()
        aM = -p.alpha / (2.0 * A)
        a = math.sqrt(0.5 * p.alpha * aM * (1.0 - e * e))
        el = OrbitalElements(A=A, a=a if prograde else -a, theta0=theta0, alpha=p.alpha)
        assume(el.max_y() > p.h + 1e-3)  # reaches the wall, not grazing
        s = cartesian_from_elements(el, nu)
        assume(s.y < p.h)
        out, ev = step(s, p)
        assert out.y == p.h and out.py < 0.0  # on the wall, moving away
        R = conserved_R(ev.pre, p)
        assert abs(ev.post.A - ev.pre.A) <= 1e-10
        assert abs(conserved_R(ev.post, p) - R) <= 1e-10 * max(1.0, abs(R))
        assert invariant_report(ev, p).residual_identity <= 1e-10 * max(1.0, abs(R))

    def test_output_state_on_wall_departing(self, params, reference_state):
        out, ev = step(reference_state, params)
        assert out.y == params.h
        assert out.py < 0.0
        assert out.t == ev.t


class TestRun:
    def test_zero_events(self, params, reference_state):
        res = run(reference_state, 0, params)
        assert res.events == [] and res.reports == []
        assert res.samples.shape == (1, 5)

    def test_conservation_drift(self, params, reference_state):
        res = run(reference_state, 2000, params)
        R = np.array([rep.R_eq16 for rep in res.reports])
        A = np.array([ev.post.A for ev in res.events])
        assert np.ptp(R) / abs(R[0]) < 1e-9
        assert np.ptp(A) / abs(A[0]) < 1e-9
        assert all(rep.bounds_ok for rep in res.reports)

    def test_identity_residual(self, params, reference_state):
        res = run(reference_state, 500, params)
        for rep in res.reports:
            assert rep.residual_identity <= 1e-10 * max(1.0, abs(rep.R_eq16))

    def test_no_collision_flagged(self, params):
        el = OrbitalElements(A=-1.0, a=math.sqrt(0.2), theta0=0.1, alpha=1.0)
        s = cartesian_from_elements(el, 0.0)
        res = run(s, 10, params)
        assert res.no_collision and not res.events
        assert res.samples.shape[0] > 1  # one sampled revolution

    def test_grazing_halts_with_partial_output(self, params, reference_state, monkeypatch):
        # normal velocities on this orbit range over ~[0.41, 0.62]; a cutoff
        # inside that range forces the diagnostic halt after a few events
        monkeypatch.setattr(billiard, "TOL_GRAZE", 0.425)
        res = run(reference_state, 50, params)
        assert res.halted is not None and "grazing" in res.halted
        assert 0 < len(res.events) < 50

    def test_near_radial_halts_with_partial_output(self, params):
        # R < h*alpha: the angular momentum passes 0, and collision 452 of
        # this orbit leaves an ellipse too close to radial to carry elements
        s = CartesianState(x=-0.027001534563404105, y=-0.542720763994399,
                           px=1.1602352984510336, py=-0.05772422135138795)
        res = run(s, 500, params)
        assert len(res.events) == len(res.reports) == 452
        assert res.halted is not None and "event 452" in res.halted

    def test_event_numbering_and_time_order(self, params, reference_state):
        res = run(reference_state, 30, params)
        assert [ev.n for ev in res.events] == list(range(30))
        ts = [ev.t for ev in res.events]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_samples_requested(self, params, reference_state):
        res = run(reference_state, 5, params, samples_per_arc=64)
        assert res.samples.shape == (5 * 64, 5)
        assert np.all(res.samples[:, 2] <= params.h + 1e-9)

    def test_samples_reuse_each_steps_crossing(self, params, reference_state, monkeypatch):
        # one crossing search per impact, sampled or not
        calls = []
        search = billiard.next_wall_crossing

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(billiard, "next_wall_crossing", counted)
        res = run(reference_state, 12, params, samples_per_arc=16)
        assert len(res.events) == 12 and len(calls) == 12


class TestOnePassCollision:
    """``step`` forms each ellipse once and ``run`` carries the post-impact
    elements on; both give, bit for bit, what the composed route gives."""

    NEAR_RADIAL = CartesianState(x=-0.027001534563404105, y=-0.542720763994399,
                                 px=1.1602352984510336, py=-0.05772422135138795)

    @PROPERTY
    @given(
        A=st.floats(-0.45, -0.1),
        e=st.floats(0.0, 0.99),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        nu=st.floats(0.0, TWO_PI),
    )
    def test_step_matches_composed_route_bit_for_bit(self, A, e, theta0, prograde, nu):
        p = Params()
        aM = -p.alpha / (2.0 * A)
        a = math.sqrt(0.5 * p.alpha * aM * (1.0 - e * e))
        el = OrbitalElements(A=A, a=a if prograde else -a, theta0=theta0, alpha=p.alpha)
        assume(el.max_y() > p.h + 1e-3)  # reaches the wall, not grazing
        s = cartesian_from_elements(el, nu)
        assume(s.y < p.h)
        out, ev = step(s, p, n=0)
        want_out, want_ev, want_rep = composed_collision(s, p, 0)
        assert_same(out, want_out)
        assert_same(ev, want_ev)
        assert_same(invariant_report(ev, p), want_rep)
        # the next collision from the carried elements, from fresh ones, composed
        want_out, want_ev, want_rep = composed_collision(out, p, 1)
        for got_out, got_ev in (step(out, p, n=1, el=ev.post), step(out, p, n=1)):
            assert_same(got_out, want_out)
            assert_same(got_ev, want_ev)
            assert_same(invariant_report(got_ev, p), want_rep)

    @pytest.mark.parametrize("start, n", [("reference", 300), ("near_radial", 500)])
    def test_run_is_a_chain_of_plain_steps(self, params, reference_state, start, n):
        s0 = reference_state if start == "reference" else self.NEAR_RADIAL
        res = run(s0, n, params)
        state = s0
        for k, (ev, rep) in enumerate(zip(res.events, res.reports)):
            state, want = step(state, params, n=k)
            assert_same(ev, want)
            assert_same(rep, invariant_report(want, params))
        if res.halted:  # the near-radial orbit's collision 452
            assert len(res.events) == 452
            with pytest.raises(Degenerate):
                step(state, params, n=452)
        else:
            assert len(res.events) == n

    @pytest.mark.parametrize("g", [0.0, 0.05])
    def test_off_wall_halts_with_partial_output(self, reference_state, monkeypatch, g):
        # the eighth hit state comes back off the wall: the run keeps the
        # seven certified events and says why it stopped
        p = Params(alpha=1.0, g=g, h=1.0)
        want = run(reference_state, 7, p)
        real, hits = billiard.reflect, []

        def reflect(s, p, tol_event=TOL_EVENT):
            hits.append(s)
            if len(hits) == 8:
                raise NotOnWall(f"|y - h| = 1.6e-11 >= {tol_event:g}")
            return real(s, p, tol_event)

        monkeypatch.setattr(billiard, "reflect", reflect)
        res = run(reference_state, 20, p)
        assert res.halted == "off the wall at event 7: |y - h| = 1.6e-11 >= 1e-12"
        assert res.events == want.events and res.reports == want.reports


class TestRevolvingFlow:
    """The closed-form g > 0 arc, against DOP853 and on random orbits."""

    PG = reference.reference_params(g=reference.PERTURBATION_G)

    def test_per_arc_against_dop853(self):
        # verify's g = 0.05 orbit, each arc from the same start on both routes
        state = reference.conservation_state()
        for k in range(100):
            nxt, ev = step(state, self.PG, n=k)
            hit, _ = integrate_to_wall(state, self.PG)
            assert abs(hit.x - ev.x_impact) <= 1e-8
            assert abs(hit.t - ev.t) <= 1e-8
            state = nxt

    def test_energy_over_chained_arcs(self):
        state = reference.conservation_state()
        H0 = state.hamiltonian(self.PG)
        for k in range(1000):
            state, _ = step(state, self.PG, n=k)
            assert abs(state.hamiltonian(self.PG) - H0) <= 1e-12 * abs(H0)

    @PROPERTY
    @given(
        g=st.floats(1e-3, 0.2),
        A=st.floats(-0.45, -0.1),
        e=st.floats(0.05, 0.9),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        nu=st.floats(0.0, TWO_PI),
    )
    def test_random_orbits_hit_the_wall_first_time(self, g, A, e, theta0, prograde, nu):
        # a g = 0 ellipse state, its momentum rescaled onto the g > 0 surface A
        p = Params(alpha=1.0, g=g, h=1.0)
        aM = -p.alpha / (2.0 * A)
        a = math.sqrt(0.5 * p.alpha * aM * (1.0 - e * e))
        el = OrbitalElements(A=A, a=a if prograde else -a, theta0=theta0, alpha=p.alpha)
        s = cartesian_from_elements(el, nu)
        p_sq = A + p.alpha / s.r - g / (s.r * s.r)
        assume(s.y < p.h and p_sq > 0.0)
        scale = math.sqrt(p_sq / s.speed_sq)
        s = CartesianState(x=s.x, y=s.y, px=s.px * scale, py=s.py * scale)
        orb = revolving_orbit(s, p)
        assume(orb.semi_latus / (1.0 - orb.e) > p.h + 1e-3)  # the apocentre clears the wall
        E_hit, hit = next_revolving_crossing(orb, p)
        assert abs(hit.y - p.h) < TOL_EVENT and hit.py > 0.0
        H = s.hamiltonian(p)
        assert abs(hit.hamiltonian(p) - H) <= 1e-12 * abs(H)
        assert abs(hit.angular_momentum - orb.l) <= 1e-12 * orb.l_eff
        # no upward crossing before the hit, on a dense grid of the arc
        nus = np.linspace(orb.nu0, true_from_eccentric(E_hit, orb.e), 2000)[:-1]
        ys = np.array([orb.state_at(float(v)).y for v in nus]) - p.h
        assert not np.any((ys[:-1] < 0.0) & (ys[1:] >= 0.0))

    def test_apocentre_below_wall(self):
        s = CartesianState(x=0.0, y=-0.5, px=1.0, py=0.0)
        with pytest.raises(NoCollision, match="apocentre 0.75 below"):
            step(s, self.PG)

    def test_time_cap(self, monkeypatch):
        # the first impact of verify's g = 0.05 orbit comes at t = 3.9
        monkeypatch.setattr(billiard, "MAX_ARC_TIME", 3.0)
        with pytest.raises(NoCollision, match="t = 3$"):
            step(reference.conservation_state(), self.PG)
        monkeypatch.setattr(billiard, "MAX_ARC_TIME", 3.95)
        assert step(reference.conservation_state(), self.PG)[1].t < 3.95

    def test_no_crossing_ever_ends_at_time_cap(self):
        # a radial orbit (l = 0) along a ray that never reaches the wall: its
        # apocentre clears y = h, so the scan runs on to the time cap
        s = CartesianState(x=0.5, y=-0.2, px=1.0, py=-0.4)
        assert s.angular_momentum == 0.0
        with pytest.raises(NoCollision, match="t = 10000"):
            step(s, self.PG)

    def test_grazing(self, monkeypatch):
        monkeypatch.setattr(billiard, "TOL_GRAZE", 10.0)
        with pytest.raises(GrazingContact, match="below tol 10"):
            step(reference.conservation_state(), self.PG)

    def test_scan_cap(self, monkeypatch):
        monkeypatch.setattr(billiard, "MAX_SCAN_STEPS", 1)
        with pytest.raises(GrazingContact, match="more than 1 certified steps"):
            step(reference.conservation_state(), self.PG)

    def test_unbound(self):
        with pytest.raises(Unbound):
            step(CartesianState(1.0, 0.0, 0.0, 2.0), self.PG)

    def test_events_carry_osculating_g0_elements(self):
        s = reference.conservation_state()
        out, ev = step(s, self.PG)
        assert out.y == self.PG.h and out.py < 0.0 and out.t == ev.t
        p0 = Params()
        for el, py in ((ev.pre, -out.py), (ev.post, out.py)):
            state = CartesianState(x=out.x, y=out.y, px=out.px, py=py)
            assert el.A == state.speed_sq - p0.alpha / state.r
            assert el.a == state.angular_momentum
        assert ev.lam == math.atan2(-out.py, out.px) % math.pi

    def test_run_halts_when_the_orbit_leaves_the_wall_for_good(self):
        # at g = 1e-4 this orbit leaves the wall nearly tangentially after
        # event 2; its rosette precesses too slowly to reach y = h again
        # within MAX_ARC_TIME, which integrate_to_wall confirms
        p = Params(alpha=1.0, g=1e-4, h=1.0)
        s = CartesianState(x=0.7527827240631315, y=1.0,
                           px=-0.5441102927719436, py=-0.053025992185822705)
        res = run(s, 10, p)
        assert len(res.events) == len(res.reports) == 3
        assert res.no_collision is None
        assert res.halted == ("no further collision after event 2: "
                              "no wall crossing within t = 10000")

    def test_run_samples_each_arc_from_its_step(self):
        s = reference.conservation_state()
        res = run(s, 3, self.PG, samples_per_arc=32)
        assert res.samples.shape == (3 * 32, 5)
        t, x, y, px, py = res.samples.T
        assert list(res.samples[0]) == pytest.approx([s.t, s.x, s.y, s.px, s.py], abs=1e-14)
        H = 0.5 * (px * px + py * py) - 0.5 / np.hypot(x, y) + 0.5 * self.PG.g / (x * x + y * y)
        assert np.max(np.abs(H - s.hamiltonian(self.PG))) <= 1e-13
        assert np.all(y <= self.PG.h + 1e-12) and np.all(np.diff(t) > 0.0)
        # each arc after the first leaves from the impact that ended the one before
        assert list(t[32::32]) == pytest.approx([ev.t for ev in res.events[:2]], abs=1e-12)
        assert t[-1] < res.events[2].t


def revolving_gap(orb: RevolvingOrbit, h: float):
    """The function whose root ``next_revolving_crossing`` polishes: y(nu) - h."""

    def gap(nu: float) -> float:
        return orb.semi_latus * math.sin(orb.phi0 + orb.k * (nu - orb.nu0)) / (
            1.0 + orb.e * math.cos(nu)) - h

    return gap


class TestBrent:
    """The private Brent port against scipy's brentq, the independent oracle."""

    @PROPERTY
    @given(
        l_eff=st.floats(0.3, 2.0),
        k=st.floats(-1.0, 1.0),
        e=st.floats(0.0, 0.95),
        phi0=st.floats(0.0, TWO_PI),
        nu0=st.floats(0.0, TWO_PI),
        level=st.floats(0.01, 0.99),
        lo=st.integers(0, 399),
        hi=st.integers(0, 399),
    )
    def test_matches_scipy_bit_for_bit(self, l_eff, k, e, phi0, nu0, level, lo, hi):
        orb = RevolvingOrbit(l=k * l_eff, l_eff=l_eff, e=e, aM=1.0, mu=0.5, phi0=phi0, nu0=nu0)
        # a wall between the lowest and the highest y on a grid over two turns
        nus = [float(v) for v in np.linspace(nu0, nu0 + 2.0 * TWO_PI, 400)]
        ys = [revolving_gap(orb, 0.0)(v) for v in nus]
        gap = revolving_gap(orb, min(ys) + level * (max(ys) - min(ys)))
        # a bracket gap(a) < 0 <= gap(b) with a < b, as the scan hands over
        below = [v for v in nus if gap(v) < 0.0]
        assume(below)
        a = below[lo % len(below)]
        above = [v for v in nus if v > a and gap(v) >= 0.0]
        assume(above)
        b = above[hi % len(above)]
        assert billiard._brentq(gap, a, b) == brentq(gap, a, b, xtol=1e-15, disp=False)

    def test_interpolation_step_bound(self):
        # a bracket (one in 20 000 random draws) where an interpolated step is
        # taken or refused by the "- delta" of its bound 3*|sbis| - delta
        orb = RevolvingOrbit(l=0.030133574435911914, l_eff=1.8619897444389109,
                             e=0.5794299019337391, aM=1.0, mu=0.5,
                             phi0=6.192579044736169, nu0=5.178908130117778)
        gap = revolving_gap(orb, -0.43192011401310987)
        a, b = 5.21040279331166, 5.462360098862721
        assert billiard._brentq(gap, a, b) == brentq(gap, a, b, xtol=1e-15, disp=False)

    def test_root_at_upper_end(self):
        # gap(0) = 2*sin(pi/2) - 2 = 0 exactly
        orb = RevolvingOrbit(l=1.0, l_eff=1.0, e=0.0, aM=1.0, mu=0.5, phi0=math.pi / 2, nu0=0.0)
        gap = revolving_gap(orb, 2.0)
        assert gap(0.0) == 0.0 and gap(-0.5) < 0.0
        assert billiard._brentq(gap, -0.5, 0.0) == 0.0
        assert brentq(gap, -0.5, 0.0, xtol=1e-15, disp=False) == 0.0


class TestAccessibleInterval:
    def test_closed_form_g0(self, params):
        x_min, x_max = accessible_interval(-0.5, params)
        assert abs(x_max - math.sqrt(3.0)) < 1e-14
        assert x_min == -x_max

    def test_tangent_contact(self, params):
        x_min, x_max = accessible_interval(-1.0, params)
        assert x_max == 0.0

    def test_empty(self, params):
        with pytest.raises(EmptyRegion):
            accessible_interval(-1.5, params)

    def test_g_positive_vs_bisection_oracle(self):
        p = Params(alpha=1.0, g=0.1, h=1.0)
        A = -0.5

        def f(x):
            r = math.hypot(x, p.h)
            return A - p.g / (r * r) + p.alpha / r

        lo, hi = 0.0, 10.0
        assert f(lo) > 0.0 > f(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        x_oracle = 0.5 * (lo + hi)
        _, x_max = accessible_interval(A, p)
        assert abs(x_max - x_oracle) < 1e-12

    def test_positive_A_rejected(self, params):
        with pytest.raises(ValueError):
            accessible_interval(0.5, params)


def _level_set_per_point(A: float, R: float, p: Params) -> np.ndarray:
    """level_set_R one abscissa at a time: the oracle of the array form,
    from the loop level_set_R ran before it."""
    aM = -p.alpha / (2.0 * A)
    R0_sq = p.h * p.h + aM * aM - 2.0 * aM * R / p.alpha
    if R0_sq < 0.0:
        raise EmptyLevelSet(f"R = {R:g} exceeds the value at R0 = 0")
    x_min, x_max = accessible_interval(A, Params(alpha=p.alpha, g=0.0, h=p.h))
    lower, upper = [], []
    for x in np.linspace(x_min, x_max, 1002)[1:-1]:
        r = math.hypot(x, p.h)
        q = 2.0 * aM - r
        if q <= 0.0:
            continue
        c2 = (4.0 * R0_sq - r * r - q * q) / (2.0 * r * q)
        if not -1.0 <= c2 <= 1.0 - 1e-12:
            continue
        lam = 0.5 * math.acos(c2)
        lower.append((x, lam))
        if lam < 0.5 * math.pi:
            upper.append((x, math.pi - lam))
    if not lower:
        raise EmptyLevelSet(f"level R = {R:g} does not intersect the rectangle")
    return np.array(lower + upper[::-1])


def _outcome(f, *args):
    """The bytes of f's array, or the type and message of what it raised."""
    try:
        return f(*args).tobytes()
    except (EmptyLevelSet, EmptyRegion, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestLevelSet:
    @given(
        A=st.floats(-3.0, -0.03),
        alpha=st.floats(0.1, 10.0),
        # h as a share of the turning radius 2 aM; past 1 no orbit reaches the wall
        h_share=st.floats(0.02, 1.1),
        # R as a share of its value at R0 = 0; past 1 the level set is empty
        R_share=st.floats(-0.5, 1.2),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_point_form(self, A, alpha, h_share, R_share):
        aM = -alpha / (2.0 * A)
        h = h_share * 2.0 * aM
        p = Params(alpha=alpha, g=0.0, h=h)
        R = R_share * alpha * (h * h + aM * aM) / (2.0 * aM)
        assert _outcome(level_set_R, A, R, p) == _outcome(_level_set_per_point, A, R, p)

    @pytest.mark.parametrize("A, R, h, expect", [
        (-0.5, 0.8, 1.0, "curve"),
        (-0.5, 1.5, 1.0, "R0 = 0"),                # R beyond the value at R0 = 0
        (-0.5, 0.5, 1.0, "does not intersect"),    # the degenerate R0 = aM level
        (-0.5, 0.5 + 1e-13, 1.0, "guard"),         # straddles the 1 - 1e-12 guard
        (-5e199, 1e-300, 1e-200, "float division by zero"),  # 2*r*q underflows
    ])
    def test_matches_per_point_form_at_edges(self, A, R, h, expect):
        p = Params(alpha=1.0, g=0.0, h=h)
        got = _outcome(level_set_R, A, R, p)
        assert got == _outcome(_level_set_per_point, A, R, p)
        if expect == "curve":
            assert isinstance(got, bytes)
        elif expect == "guard":
            # the guard drops some interior points and keeps others
            assert 0 < len(got) // 16 < 2000
        else:
            assert expect in got[1]

    def test_lower_bound_degenerate(self, params):
        A = -0.5
        aM = 1.0
        with pytest.raises(EmptyLevelSet):
            level_set_R(A, params.alpha * params.h**2 / (2.0 * aM), params)

    def test_r0_zero_excluded(self, params):
        # R beyond the value at R0 = 0 has no level set at all
        A = -0.5
        R_max = params.alpha / (2.0 * 1.0) * (params.h**2 + 1.0)
        with pytest.raises(EmptyLevelSet):
            level_set_R(A, R_max * 1.5, params)

    def test_lambda_half_pi_line_identity(self, params):
        # along lambda = pi/2 the section value reduces to R(|aM - r|)
        A = -0.5
        aM = 1.0
        for x in (0.1, 0.7, 1.4):
            r = math.hypot(x, params.h)
            lhs = r_value_on_section(x, math.pi / 2, A, params)
            rhs = R_from_R0(abs(aM - r), aM, params)
            assert abs(lhs - rhs) < 1e-13

    def test_points_carry_level(self, params):
        curve = level_set_R(-0.5, 0.8, params)
        assert curve.ndim == 2 and curve.shape[1] == 2
        assert len(curve) > 100
        for x, lam in curve[::7]:
            assert abs(r_value_on_section(float(x), float(lam), -0.5, params) - 0.8) < 1e-10

    def test_collision_points_on_level(self, params, reference_state):
        res = run(reference_state, 300, params)
        R = res.reports[0].R_eq16
        for ev in res.events:
            val = r_value_on_section(ev.x_impact, ev.lam, ev.post.A, params)
            assert abs(val - R) < 1e-8


class TestInvariantReport:
    def test_fields_and_bounds(self, params, reference_state):
        _, ev = step(reference_state, params)
        rep = invariant_report(ev, params)
        aM = ev.post.aM
        lower = params.alpha * params.h**2 / (2.0 * aM)
        upper = (1.0 + (aM / params.h) ** 2 - ((aM - ev.r) / params.h) ** 2) * lower
        assert rep.bounds_ok
        assert lower < rep.R_eq16 < upper
        assert (aM - ev.r) ** 2 < rep.R0**2 < aM**2


class TestRecords:
    """The per-impact records are slotted dataclasses that the package
    never mutates."""

    def test_unknown_attribute_rejected(self):
        s = reference.conservation_state()
        pg = reference.reference_params(g=reference.PERTURBATION_G)
        res = run(s, 1, Params())
        ev = res.events[0]
        records = [s, ev.post, revolving_orbit(s, pg), ev, res.reports[0], res,
                   GammaSample(n=0, gamma=0.5, delta2_gamma=math.nan, eps_observed=1)]
        assert [type(r).__name__ for r in records] == [
            "CartesianState", "OrbitalElements", "RevolvingOrbit", "CollisionEvent",
            "InvariantReport", "BilliardRun", "GammaSample"]
        for rec in records:
            with pytest.raises(AttributeError):
                rec.tt = 1.0  # a misspelt field

    def test_asdict_and_replace_round_trip(self):
        s = reference.conservation_state()
        assert CartesianState(**asdict(s)) == s
        assert replace(s) == s and replace(s) is not s
        moved = replace(s, y=0.5)
        assert moved.y == 0.5 and asdict(moved) == {**asdict(s), "y": 0.5}
