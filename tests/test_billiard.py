import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    impact_event,
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
from kepler_billiard.delaunay import GammaSeries
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
    TOL_ECC,
    CartesianState,
    OrbitalElements,
    Params,
    cartesian_from_elements,
    check_not_radial,
    eccentric_from_true,
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
    ``conserved_R``, ``R0_from_geometry`` and ``R_from_R0``.  A start on the
    wall moving up is itself the hit, as ``impact_event`` records it.
    Returns the outgoing state, the event, the report and the anomaly of
    the hit, which the oracle samples the arc up to."""
    el = elements_from_cartesian(s, p)
    E0 = eccentric_of_state(el, s)
    if s.py > 0.0 and abs(s.y - p.h) < TOL_EVENT:
        out = reflect(s, p)
        pinned = CartesianState(out.x, out.y, out.px, s.py, out.t)
        E_hit, r, lam = E0, pinned.r, math.atan2(s.py, s.px) % math.pi
        el = elements_from_cartesian(pinned, p)
        check_not_radial(el.e)
    else:
        aM, e, b, _, cy, _, uy, _, vy, _ = el.geometry()
        P, Q = aM * uy, b * vy
        delta = math.acos(max(-1.0, min(1.0, (p.h - cy) / math.hypot(P, Q))))
        E_hit = E0 + (math.atan2(Q, P) - delta - E0) % TWO_PI
        out = reflect(state_at_eccentric(el, E_hit, t=s.t + time_to_anomaly(el, E0, E_hit)), p)
        r = aM * (1.0 - e * math.cos(E_hit))
        lam = tangent_angle(el, E_hit)
    post = elements_from_cartesian(out, p)
    check_not_radial(post.e)
    event = CollisionEvent(n=n, t=out.t, x_impact=out.x, r=r, lam=lam, pre=el, post=post)
    R16 = conserved_R(post, p)
    R0 = R0_from_geometry(r, post.aM, lam)
    R17 = R_from_R0(R0, post.aM, p)
    lower = p.alpha * p.h * p.h / (2.0 * post.aM)
    upper = (1.0 + (post.aM / p.h) ** 2 - ((post.aM - r) / p.h) ** 2) * lower
    bounds_ok = (r < 2.0 * post.aM and (post.aM - r) ** 2 < R0 * R0 < post.aM * post.aM
                 and lower < R16 < upper)
    report = InvariantReport(R_eq16=R16, R0=R0, R_eq17=R17,
                             residual_identity=abs(R16 - R17), bounds_ok=bounds_ok)
    return out, event, report, E_hit


def composed_run(s, p, n, m):
    """``run(s, n, p, samples_per_arc=m)`` at g = 0 as a chain of
    ``composed_collision``, each arc sampled from its start's own elements
    and anomaly: the events, reports and sample chunks, and the error that
    ended the chain (None if it made all n collisions)."""
    events, reports, chunks = [], [], []
    try:
        for k in range(n):
            out, event, report, E_hit = composed_collision(s, p, k)
            if m > 0 and event.t != s.t:
                el = elements_from_cartesian(s, p)
                chunks.append(billiard._arc_samples(el.geometry(), eccentric_of_state(el, s), E_hit,
                                                    s.t, m))
            events.append(event)
            reports.append(report)
            s = out
    except (NoCollision, GrazingContact, Degenerate, NotOnWall) as exc:
        return events, reports, chunks, exc
    return events, reports, chunks, None


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

    def test_start_above_the_wall(self, params):
        # y prints as 1 at this distance, so the message also gives y - h
        with pytest.raises(NotOnWall, match=r"\(y = 1, y - h = 1e-09\)$"):
            step(CartesianState(0.3, params.h + 1e-9, 1.0, 0.5), params)


class TestOnWallStart:
    """A start on the wall moving up hits it at once, on either route."""

    @PROPERTY
    @given(
        g=st.sampled_from([0.0, 0.05]),
        x=st.floats(-3.0, 3.0),
        off=st.floats(-0.99, 0.99),
        heading=st.floats(0.01, math.pi - 0.01),
        frac=st.floats(0.05, 0.95),
    )
    # about the start of TestSimulate's on-wall run
    @example(g=0.0, x=1.286836803600051, off=0.0, heading=1.031150751816641,
             frac=0.7840511500982955)
    def test_first_event_is_the_start(self, g, x, off, heading, frac):
        # a bound start within TOL_EVENT of the wall, moving up at any heading
        p = Params(alpha=1.0, g=g, h=1.0)
        y = p.h + off * TOL_EVENT
        r_sq = x * x + y * y
        speed = math.sqrt(frac * (p.alpha / math.sqrt(r_sq) - g / r_sq))
        s = CartesianState(x, y, speed * math.cos(heading), speed * math.sin(heading), 2.5)
        out, ev = step(s, p, n=0)
        assert ev.t == s.t
        want_out, want_ev = impact_event(s, p, 0)
        assert_same(out, want_out)
        assert_same(ev, want_ev)


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
        assert res.samples.shape == (1, 5)  # the start only: no samples asked for
        res = run(s, 10, params, samples_per_arc=16)
        assert res.no_collision and not res.events
        assert res.samples.shape == (16, 5)  # one sampled revolution

    def test_revolving_no_collision_samples_one_revolution(self):
        # at g = 0.05 this start's apocentre aM*(1 + e) = 0.625*1.2 lies below the wall
        p = Params(alpha=1.0, g=0.05, h=1.0)
        s = CartesianState(0.0, -0.5, 1.0, 0.0, 2.0)
        res = run(s, 3, p, samples_per_arc=64)
        assert res.no_collision == "apocentre 0.75 below wall y = 1" and not res.events
        orb = revolving_orbit(s, p)
        want = billiard._revolving_samples(orb, orb.E0 + TWO_PI, 2.0, 64)
        assert res.samples.shape == (64, 5)
        assert res.samples.tobytes() == want.tobytes()
        assert np.max(np.abs(res.samples[0] - [s.t, s.x, s.y, s.px, s.py])) <= 1e-14
        H, l = s.hamiltonian(p), s.angular_momentum
        for t, x, y, px, py in res.samples:
            row = CartesianState(x, y, px, py, t)
            assert abs(row.hamiltonian(p) - H) <= 1e-13
            assert abs(row.angular_momentum - l) <= 1e-13

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
        search = billiard.wall_crossing

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(billiard, "wall_crossing", counted)
        res = run(reference_state, 12, params, samples_per_arc=16)
        assert len(res.events) == 12 and len(calls) == 12

    @pytest.mark.parametrize("m", [0, 16])
    def test_g0_run_forms_and_certifies_inline(self, params, reference_state, monkeypatch, m):
        # a g = 0 run forms the start's elements once and one crossing per
        # impact; it certifies each impact inline, not by the composed report
        calls = dict.fromkeys(("wall_crossing", "elements_from_cartesian", "invariant_report",
                               "conserved_R", "R0_from_geometry", "R_from_R0"), 0)
        for name in calls:
            def counted(*args, _call=getattr(billiard, name), _name=name):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(billiard, name, counted)
        res = run(reference_state, 12, params, samples_per_arc=m)
        assert len(res.events) == len(res.reports) == 12 and res.halted is None
        assert calls == {"wall_crossing": 12, "elements_from_cartesian": 1, "invariant_report": 0,
                         "conserved_R": 0, "R0_from_geometry": 0, "R_from_R0": 0}

    @pytest.mark.parametrize("g", [0.0, 0.05])
    def test_sampled_run_forms_each_arc_once(self, reference_state, monkeypatch, g):
        # each arc's orbit is formed once, and its samples come from that
        # orbit: one revolving_orbit an arc at g > 0, where the run makes no
        # step, and no geometry() call at g = 0, where the core forms its own
        p = Params(alpha=1.0, g=g, h=1.0)
        calls = {"revolving_orbit": 0, "step": 0, "geometry": 0}
        for owner, name in ((billiard, "revolving_orbit"), (billiard, "step"),
                            (OrbitalElements, "geometry")):
            def counted(*args, _call=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        res = run(reference_state, 12, p, samples_per_arc=16)
        assert len(res.events) == 12 and res.samples.shape == (12 * 16, 5)
        assert calls == {"revolving_orbit": 12 if g > 0.0 else 0, "step": 0, "geometry": 0}


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
        want_out, want_ev, want_rep, _ = composed_collision(s, p, 0)
        assert_same(out, want_out)
        assert_same(ev, want_ev)
        assert_same(invariant_report(ev, p), want_rep)
        # the next collision, from the state the first left
        want_out, want_ev, want_rep, _ = composed_collision(out, p, 1)
        got_out, got_ev = step(out, p, n=1)
        assert_same(got_out, want_out)
        assert_same(got_ev, want_ev)
        assert_same(invariant_report(got_ev, p), want_rep)

    @pytest.mark.parametrize("start, n, g, m", [
        pytest.param("reference", 300, 0.0, 0, id="reference-300"),
        pytest.param("near_radial", 500, 0.0, 0, id="near_radial-500"),
        *(pytest.param("reference", 300, g, m, id=f"reference-300-g{g}-m{m}")
          for g in (0.05, 0.001) for m in (0, 7)),
    ])
    def test_run_is_a_chain_of_plain_steps(self, reference_state, start, n, g, m):
        # at g > 0 each arc's samples are those of a freshly formed revolving
        # orbit, up to the anomaly of the crossing found on it
        p = Params(alpha=1.0, g=g, h=1.0)
        s0 = reference_state if start == "reference" else self.NEAR_RADIAL
        res = run(s0, n, p, samples_per_arc=m)
        state, chunks = s0, []
        for k, (ev, rep) in enumerate(zip(res.events, res.reports)):
            if m > 0:
                orb = revolving_orbit(state, p)
                E_hit, _ = next_revolving_crossing(orb, p, t0=state.t)
                chunks.append(billiard._revolving_samples(orb, E_hit, state.t, m))
            state, want = step(state, p, n=k)
            assert_same(ev, want)
            assert_same(rep, invariant_report(want, p))
        if res.halted:  # the near-radial orbit's collision 452
            assert len(res.events) == 452
            with pytest.raises(Degenerate) as exc:
                step(state, p, n=452)
            assert res.halted == f"degenerate orbit at event 452: {exc.value}"
        else:
            assert len(res.events) == n
        if m > 0:
            assert res.samples.shape == (n * m, 5)
            assert res.samples.tobytes() == np.vstack(chunks).tobytes()

    @pytest.mark.parametrize("g", [0.0, 0.05])
    def test_off_wall_halts_with_partial_output(self, reference_state, lift_hit, g):
        # the eighth hit state comes back off the wall: the run keeps the
        # seven certified events and says why it stopped
        p = Params(alpha=1.0, g=g, h=1.0)
        want = run(reference_state, 7, p)
        off = lift_hit(8)
        res = run(reference_state, 20, p)
        assert res.halted == f"off the wall at event 7: |y - h| = {off:g} >= 1e-12"
        assert res.events == want.events and res.reports == want.reports

    @pytest.mark.parametrize("g", [0.0, 0.05])
    def test_hits_within_tol_event_are_pinned(self, reference_state, lift_hit, g):
        # reflect's rule on both routes: a hit closer than TOL_EVENT to the
        # wall is pinned onto it, one TOL_EVENT or farther halts the run
        p = Params(alpha=1.0, g=g, h=1.0)
        assert lift_hit(3, 0.99 * TOL_EVENT) < TOL_EVENT
        assert run(reference_state, 5, p).halted is None
        off = lift_hit(3, TOL_EVENT)
        assert off >= TOL_EVENT
        assert run(reference_state, 5, p).halted == f"off the wall at event 2: |y - h| = {off:g} >= 1e-12"


class TestChainOracle:
    """``run`` at g = 0, one call of the propagation core, against a chain of
    composed collisions: every event, report, halt and sample bit for bit."""

    @PROPERTY
    @given(
        A=st.floats(-0.45, -0.1),
        e=st.floats(0.0, 0.99),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        nu=st.floats(0.0, TWO_PI),
        on_wall=st.booleans(),
        x=st.floats(-3.0, 3.0),
        off=st.floats(-0.99, 0.99),
        heading=st.floats(0.01, math.pi - 0.01),
        n=st.integers(1, 20),
        m=st.sampled_from([0, 1, 7]),
        alpha=st.floats(0.5, 2.0),
        h=st.floats(0.5, 2.0),
    )
    def test_run_is_a_chain_of_composed_collisions(
        self, A, e, theta0, prograde, nu, on_wall, x, off, heading, n, m, alpha, h
    ):
        # alpha and h away from 1, where each product of them rounds, so a
        # reassociated product shows; A and x scale with them, so the orbit
        # meets the wall as it does at alpha = h = 1
        p = Params(alpha=alpha, h=h)
        A *= alpha / h
        x *= h
        aM = -p.alpha / (2.0 * A)
        if on_wall:  # within TOL_EVENT of the wall, moving up, at twice-energy A
            y = p.h + off * TOL_EVENT
            speed_sq = A + p.alpha / math.hypot(x, y)
            assume(speed_sq > 0.0)
            speed = math.sqrt(speed_sq)
            s = CartesianState(x, y, speed * math.cos(heading), speed * math.sin(heading), 1.5)
        else:  # below the wall on an ellipse that reaches it
            a = math.sqrt(0.5 * p.alpha * aM * (1.0 - e * e))
            el = OrbitalElements(A=A, a=a if prograde else -a, theta0=theta0, alpha=p.alpha)
            assume(el.max_y() > p.h + 1e-3)
            s = cartesian_from_elements(el, nu)
            assume(s.y < p.h)
        events, reports, chunks, exc = composed_run(s, p, n, m)
        assume(not isinstance(exc, NoCollision) or events)  # an orbit that never hits
        res = run(s, n, p, samples_per_arc=m)
        assert len(res.events) == len(res.reports) == len(events)
        for got_ev, got_rep, want_ev, want_rep in zip(res.events, res.reports, events, reports):
            assert_same(got_ev, want_ev)
            assert_same(got_rep, want_rep)
        if exc is None:
            assert res.halted is None
        else:
            assert res.halted.endswith(f" at event {len(events)}: {exc}")
        want = np.vstack(chunks) if chunks else np.array([[s.t, s.x, s.y, s.px, s.py]])
        assert res.samples.shape == want.shape
        assert res.samples.tobytes() == want.tobytes()


class TestRadialOrbits:
    """An orbit of zero angular momentum: a well-defined record at any g,
    regular at g > 0 (the centrifugal barrier turns it), and refused as a
    g = 0 ellipse through the centre."""

    @pytest.mark.parametrize("g", [0.001, 0.05])
    def test_vertical_start_steps_at_g_positive(self, g):
        # only the first impact: on the line the orbit is hyperbolic, and the
        # 6e-17 of cos(pi/2) grows about 18x per collision at g = 0.05
        p = Params(alpha=1.0, g=g, h=1.0)
        out, ev = step(CartesianState(0.0, p.h, 0.0, -0.3), p)
        assert abs(out.x) < 1e-14 and abs(out.px) < 1e-14
        assert ev.pre.e == 1.0 and ev.post.e == 1.0
        rep = invariant_report(ev, p)
        assert math.isfinite(rep.R_eq16) and math.isfinite(rep.R_eq17)

    def test_small_g_run_passes_a_near_radial_impact(self):
        # a draw from dx dp_x on the section at g = 0.001, A = -0.5: impact 32
        # leaves the angular momentum at -7.9e-7, whose osculating ellipse
        # (e = 1 - 6e-13) used to halt the run as degenerate
        p = Params(alpha=1.0, g=0.001, h=1.0)
        s = CartesianState(x=-0.08104598788433215, y=1.0, px=-0.34451091833356495,
                           py=-0.6140444754405722)
        res = run(s, 100, p)
        assert res.halted is None and len(res.events) == len(res.reports) == 100
        assert res.events[32].post.e >= 1.0 - TOL_ECC
        assert all(rep.residual_identity <= 1e-12 for rep in res.reports)

    def test_g0_radial_start_is_degenerate(self, params):
        message = r"^eccentricity 1 too close to 1 \(radial orbit\)$"
        for s in (CartesianState(0.0, 0.5, 0.0, 0.3), CartesianState(0.0, params.h, 0.0, -0.3)):
            with pytest.raises(Degenerate, match=message):
                step(s, params)
            res = run(s, 10, params)
            assert res.events == [] and res.halted == (
                "degenerate orbit at event 0: eccentricity 1 too close to 1 (radial orbit)")


class TestRevolvingFlow:
    """The closed-form g > 0 arc, against DOP853 and on random orbits."""

    PG = reference.reference_params(g=reference.PERTURBATION_G)

    def test_per_arc_against_dop853(self):
        # verify's g = 0.05 orbit, each arc from the same start on both routes
        state = reference.conservation_state()
        for k in range(100):
            nxt, ev = step(state, self.PG, n=k)
            hit = integrate_to_wall(state, self.PG)
            assert abs(hit.x - ev.x_impact) <= 1e-8
            assert abs(hit.t - ev.t) <= 1e-8
            state = nxt

    def test_energy_over_chained_arcs(self):
        state = reference.conservation_state()
        H0 = state.hamiltonian(self.PG)
        for k in range(1000):
            state, _ = step(state, self.PG, n=k)
            assert abs(state.hamiltonian(self.PG) - H0) <= 1e-12 * abs(H0)

    RANDOM_ORBITS = given(
        g=st.floats(1e-3, 0.2),
        A=st.floats(-0.45, -0.1),
        e=st.floats(0.05, 0.9),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        nu=st.floats(0.0, TWO_PI),
    )

    @staticmethod
    def random_start(g, A, e, theta0, prograde, nu):
        """A g = 0 ellipse state below the wall, its momentum rescaled onto the
        g > 0 surface A, whose revolving orbit's apocentre clears the wall."""
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
        assume(orb.semi_latus / (1.0 - orb.e) > p.h + 1e-3)
        return p, s, orb

    @PROPERTY
    @RANDOM_ORBITS
    # precesses by about 0.0054 rad a radial turn: no hit within MAX_ARC_TIME
    @example(g=0.001, A=-0.1875, e=0.75, theta0=5.5, prograde=True, nu=0.0)
    def test_random_orbits_hit_the_wall_first_time(self, g, A, e, theta0, prograde, nu):
        p, s, orb = self.random_start(g, A, e, theta0, prograde, nu)
        try:
            E_hit, hit = next_revolving_crossing(orb, p)
        except NoCollision as exc:  # precessing too slowly to meet the wall in time
            assert str(exc) == f"no wall crossing within t = {billiard.MAX_ARC_TIME:g}"
            with pytest.raises(NoCollision) as got:
                step(s, p)
            assert str(got.value) == str(exc)
            return
        assert abs(hit.y - p.h) < TOL_EVENT and hit.py > 0.0
        H = s.hamiltonian(p)
        assert abs(hit.hamiltonian(p) - H) <= 1e-12 * abs(H)
        assert abs(hit.angular_momentum - orb.l) <= 1e-12 * orb.l_eff
        # no upward crossing before the hit, on a dense grid of the arc
        nus = np.linspace(orb.nu0, true_from_eccentric(E_hit, orb.e), 2000)[:-1]
        ys = np.array([orb.state_at(eccentric_from_true(float(v), orb.e)).y for v in nus]) - p.h
        assert not np.any((ys[:-1] < 0.0) & (ys[1:] >= 0.0))

    @PROPERTY
    @RANDOM_ORBITS
    def test_step_matches_composed_route_bit_for_bit(self, g, A, e, theta0, prograde, nu):
        # the g > 0 impact composed from the public functions, its records
        # built by keyword: a field that step passes out of place shows here
        p, s, _ = self.random_start(g, A, e, theta0, prograde, nu)
        s = replace(s, t=2.5)
        try:
            _, hit = next_revolving_crossing(revolving_orbit(s, p), p, t0=s.t)
        except NoCollision as exc:  # precessing too slowly to meet the wall in time
            with pytest.raises(NoCollision) as got:
                step(s, p, n=3)
            assert str(got.value) == str(exc)
            return
        want_out = reflect(hit, p)
        pinned = CartesianState(x=want_out.x, y=want_out.y, px=want_out.px, py=hit.py,
                                t=want_out.t)
        want_ev = CollisionEvent(
            n=3, t=want_out.t, x_impact=want_out.x, r=pinned.r,
            lam=math.atan2(hit.py, hit.px) % math.pi,
            pre=elements_from_cartesian(pinned, p),
            post=elements_from_cartesian(want_out, p),
        )
        out, ev = step(s, p, n=3)
        assert_same(out, want_out)
        assert_same(ev, want_ev)

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

    def test_at_rest_at_the_potential_minimum(self):
        # r = g/mu with no momentum: k = e = 0, so the scan has no bound to
        # step by, and the particle never moves
        p = Params(alpha=1.0, g=0.5, h=1.0)
        with pytest.raises(NoCollision, match="t = 10000"):
            step(CartesianState(0.0, -1.0, 0.0, 0.0), p)

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

    def test_unbound_on_wall_start(self):
        # on the wall moving up, with A = -0.173 < 0 but H = 0.1426 >= 0: the
        # start's orbit is formed, and refused, before the on-wall test, so
        # neither step nor run records an impact there
        s = CartesianState(0.3, 1.0, 0.1, 0.88)
        p = Params(alpha=1.0, g=0.5, h=1.0)
        assert s.speed_sq - p.alpha / s.r < 0.0 <= s.hamiltonian(p)
        for call in (lambda: step(s, p), lambda: run(s, 3, p)):
            with pytest.raises(Unbound, match=r"^H = 0\.142645 >= 0: not a bound orbit$"):
                call()

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

    def test_near_radial_run_stays_on_the_wall(self):
        # verify's start at g = 1e-6 reaches an arc with e = 1 - 1.4e-6 that
        # hits the wall near its apocentre; a root found in the true anomaly
        # left that hit 1.6e-11 off the wall and halted the run at event 133
        res = run(reference.conservation_state(), 2000, Params(g=1e-6))
        assert res.halted is None and len(res.events) == 2000

    @PROPERTY
    @given(
        log_g=st.floats(-10.0, -3.0),
        A=st.floats(-0.45, -0.1),
        log_1me=st.floats(-7.0, -1.0),
        xfrac=st.floats(-0.95, 0.95),
        prograde=st.booleans(),
    )
    # a root in the true anomaly left the first hit 2.5e-12 off the wall
    @example(log_g=-5.0, A=-0.4375, log_1me=-5.0, xfrac=0.0, prograde=False)
    def test_near_radial_hits_on_the_wall(self, log_g, A, log_1me, xfrac, prograde):
        # a reflected state on the wall whose revolving orbit has e = 1 - 10**log_1me,
        # chained through 20 impacts; every hit lies within TOL_EVENT of y = h
        p = Params(alpha=1.0, g=10.0**log_g, h=1.0)
        e = 1.0 - 10.0**log_1me
        l_eff_sq = (1.0 - e * e) * p.mu * p.mu / -A
        assume(l_eff_sq > p.g)
        l = math.copysign(math.sqrt(l_eff_sq - p.g), 1.0 if prograde else -1.0)
        x = xfrac * accessible_interval(A, p)[1]
        r = math.hypot(x, p.h)
        pr_sq = A + p.alpha / r - p.g / (r * r) - (l / r) ** 2
        assume(pr_sq > 0.0)
        pr, pt, c, s = -math.sqrt(pr_sq), l / r, x / r, p.h / r
        state = CartesianState(x, p.h, pr * c - pt * s, pr * s + pt * c)
        assume(state.py < 0.0)
        for _ in range(20):
            try:
                _, hit = next_revolving_crossing(revolving_orbit(state, p), p, t0=state.t)
            except (NoCollision, GrazingContact):
                break
            assert abs(hit.y - p.h) < TOL_EVENT and hit.py > 0.0
            state = reflect(hit, p)

    def test_scan_landing_a_rounding_below_the_wall(self):
        # radial orbits (l = 0) whose pericentre lies just under a low wall: y < h
        # only for |nu| < 1e-4, where f'' is within 1e-8*B2 of B2, so the scan's
        # second-order step lands on the root to round-off.  Some landings keep
        # f < 0 in nu while y in E is already on or above the wall, so the
        # bracket's lower end is not below the wall in E; the polish then
        # settles on that end, which lies on the wall to round-off
        p = Params(alpha=1.0, g=0.05, h=0.05)
        ell, nu_star = p.g / p.mu, 1e-4
        for phi0 in np.linspace(0.7, 2.4, 10):
            e = (ell * math.sin(phi0) / p.h - 1.0) / math.cos(nu_star)
            for nu0 in np.linspace(-0.95, -0.05, 10) * nu_star:
                r = ell / (1.0 + e * math.cos(nu0))
                pr = p.mu / math.sqrt(p.g) * e * math.sin(nu0)
                s = CartesianState(r * math.cos(phi0), r * math.sin(phi0),
                                   pr * math.cos(phi0), pr * math.sin(phi0))
                _, hit = next_revolving_crossing(revolving_orbit(s, p), p)
                assert abs(hit.y - p.h) <= 1e-16 and hit.py > 0.0

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

    def test_inline_box_on_perpendicular_impacts(self):
        # an on-wall start moving straight up hits at lambda = pi/2, where
        # R0 = |aM - r| puts its report on the edge of the box: the last bits
        # of the bounds decide bounds_ok, the one field they reach
        rng = np.random.default_rng(0)
        for _ in range(3000):
            alpha, h = rng.uniform(0.5, 2.0, 2)
            x0 = rng.uniform(-2.0 * h, 2.0 * h)
            v = rng.uniform(0.0, math.sqrt(alpha / math.hypot(x0, h)))  # below the escape speed
            p = Params(alpha=alpha, h=h)
            res = run(CartesianState(x0, h, 0.0, v), 1, p)
            assert res.reports == [invariant_report(res.events[0], p)]


class TestRecords:
    """The package's records are slotted dataclasses that it never
    mutates."""

    def test_unknown_attribute_rejected(self):
        s = reference.conservation_state()
        pg = reference.reference_params(g=reference.PERTURBATION_G)
        res = run(s, 1, Params())
        ev = res.events[0]
        records = [s, ev.post, revolving_orbit(s, pg), ev, res.reports[0], res,
                   GammaSeries(np.zeros(1), np.zeros(1), np.ones(1, dtype=np.int64),
                               np.zeros(1, dtype=bool))]
        assert [type(r).__name__ for r in records] == [
            "CartesianState", "OrbitalElements", "RevolvingOrbit", "CollisionEvent",
            "InvariantReport", "BilliardRun", "GammaSeries"]
        for rec in records:
            with pytest.raises(AttributeError):
                rec.tt = 1.0  # a misspelt field

    def test_asdict_and_replace_round_trip(self):
        s = reference.conservation_state()
        assert CartesianState(**asdict(s)) == s
        assert replace(s) == s and replace(s) is not s
        moved = replace(s, y=0.5)
        assert moved.y == 0.5 and asdict(moved) == {**asdict(s), "y": 0.5}
