import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kepler_billiard.errors import Degenerate, Unbound
from kepler_billiard.kepler import (
    TOL_ECC,
    CartesianState,
    OrbitalElements,
    Params,
    cartesian_from_elements,
    eccentric_from_true,
    eccentric_of_state,
    elements_from_cartesian,
    mean_from_eccentric,
    revolving_orbit,
    solve_kepler,
    state_at_eccentric,
    time_to_anomaly,
    true_from_eccentric,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def bisect_kepler(M, e, lo=0.0, hi=TWO_PI, iters=200):
    """Independent bisection oracle for E - e*sin(E) = M on [0, 2*pi]."""
    f = lambda E: E - e * math.sin(E) - M
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def random_elements(rng, alpha=1.0):
    A = -rng.uniform(0.1, 2.0)
    e = rng.uniform(0.01, 0.95)
    th = rng.uniform(0.0, TWO_PI)
    sgn = 1.0 if rng.uniform() < 0.5 else -1.0
    aM = -alpha / (2.0 * A)
    a = sgn * math.sqrt(0.5 * alpha * aM * (1.0 - e * e))
    return OrbitalElements(A=A, a=a, theta0=th, alpha=alpha)


class TestSolveKepler:
    def test_zero_mean_anomaly(self):
        for e in (0.0, 0.3, 0.9, 0.99):
            assert solve_kepler(0.0, e) == 0.0

    def test_zero_eccentricity(self):
        for M in (0.1, 2.0, 5.5):
            assert solve_kepler(M, 0.0) == M

    def test_symmetry_at_pi(self):
        for e in (0.2, 0.6, 0.95):
            assert abs(solve_kepler(math.pi, e) - math.pi) < 1e-14

    def test_against_bisection_oracle(self):
        # frozen from the oracle below: E(M=1, e=0.5) = 1.4987011335178484
        E = solve_kepler(1.0, 0.5)
        assert abs(E - 1.4987011335178484) < 1e-12
        assert abs(E - bisect_kepler(1.0, 0.5)) < 1e-12

    def test_residual_grid(self):
        worst = 0.0
        for e in np.linspace(0.0, 0.99, 34):
            for M in np.linspace(0.0, TWO_PI, 300, endpoint=False):
                E = solve_kepler(float(M), float(e))
                worst = max(worst, abs(E - e * math.sin(E) - M))
        assert worst < 1e-13

    def test_revolution_offset_kept(self):
        E = solve_kepler(1.0 + 6.0 * TWO_PI, 0.5)
        assert abs(E - (1.4987011335178484 + 6.0 * TWO_PI)) < 1e-10

    def test_invalid_eccentricity(self):
        with pytest.raises(ValueError):
            solve_kepler(1.0, 1.0)

    def test_no_convergence_surfaces(self, monkeypatch):
        from kepler_billiard import kepler
        from kepler_billiard.errors import NoConvergence

        monkeypatch.setattr(kepler, "TOL_KEPLER", 0.0)
        with pytest.raises(NoConvergence):
            solve_kepler(1.0, 0.9)


class TestElementsFromCartesian:
    def test_circular_example(self, params):
        s = CartesianState(x=1.0, y=0.0, px=0.0, py=math.sqrt(0.5))
        el = elements_from_cartesian(s, params)
        assert abs(el.A + 0.5) < 1e-15
        assert abs(el.a - math.sqrt(0.5)) < 1e-15
        assert el.e <= TOL_ECC
        assert abs(el.aM - 1.0) < 1e-14

    def test_unbound(self, params):
        with pytest.raises(Unbound):
            elements_from_cartesian(CartesianState(1.0, 0.0, 0.0, 2.0), params)

    def test_radial_degenerate(self, params):
        with pytest.raises(Degenerate):
            elements_from_cartesian(CartesianState(1.0, 0.0, 0.1, 0.0), params)

    def test_at_center_degenerate(self, params):
        with pytest.raises(Degenerate):
            elements_from_cartesian(CartesianState(0.0, 1e-13, 0.1, 0.1), params)

    def test_invariants_recomputed_from_state(self, params):
        # oracle: A and a evaluated directly from the input state
        rng = np.random.default_rng(7)
        for _ in range(200):
            el = random_elements(rng)
            s = cartesian_from_elements(el, rng.uniform(0.0, TWO_PI))
            out = elements_from_cartesian(s, params)
            r = math.hypot(s.x, s.y)
            A_direct = s.px**2 + s.py**2 - params.alpha / r
            a_direct = s.x * s.py - s.y * s.px
            assert abs(out.A - A_direct) < 1e-12
            assert abs(out.a - a_direct) < 1e-12


class TestGeometry:
    # a fixed example sequence, so every run checks the same ellipses
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        A=st.floats(-100.0, -1e-3),
        e0=st.one_of(st.just(0.0), st.floats(0.0, 1.0 - 1e-9)),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        alpha=st.floats(0.1, 10.0),
    )
    def test_one_formation(self, A, e0, theta0, prograde, alpha):
        aM0 = -alpha / (2.0 * A)
        a = math.sqrt(0.5 * alpha * aM0 * (1.0 - e0 * e0))
        el = OrbitalElements(A=A, a=a if prograde else -a, theta0=theta0, alpha=alpha)
        aM, e, b, _, _, ux, uy, vx, vy, n = el.geometry()
        # the one formula pair kept in two places: the properties
        assert repr((aM, e)) == repr((el.aM, el.e))
        ulp4 = 4.0 * sys.float_info.epsilon
        assert abs(ux * ux + uy * uy - 1.0) <= ulp4
        assert abs(vx * vx + vy * vy - 1.0) <= ulp4
        assert abs(ux * vx + uy * vy) <= ulp4
        # v is u turned a quarter turn in the direction of motion
        assert abs(ux * vy - uy * vx - (1.0 if el.a >= 0.0 else -1.0)) <= ulp4
        assert math.isclose(b * b + (aM * e) ** 2, aM * aM, rel_tol=1e-14)
        assert math.isclose(n * n * aM**3, 0.5 * alpha, rel_tol=1e-14)


class TestCartesianFromElements:
    def test_circle_radius(self, params):
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.5), theta0=0.0, alpha=1.0)
        for nu in (0.0, 1.0, 3.0, 5.5):
            s = cartesian_from_elements(el, nu)
            assert abs(s.r - el.aM) < 1e-12

    def test_aphelion_position(self, params, reference_elements):
        el = reference_elements
        s = cartesian_from_elements(el, math.pi)
        assert abs(s.r - el.aM * (1.0 + el.e)) < 1e-12
        assert abs(wrap_angle(math.atan2(s.y, s.x)) - el.theta0) < 1e-12

    def test_conic_equation(self, params):
        rng = np.random.default_rng(3)
        for _ in range(100):
            el = random_elements(rng)
            nu = rng.uniform(0.0, TWO_PI)
            s = cartesian_from_elements(el, nu)
            ell = el.aM * (1.0 - el.e**2)
            assert abs(s.r - ell / (1.0 + el.e * math.cos(nu))) < 1e-12

    def test_energy_momentum_consistency(self, params):
        rng = np.random.default_rng(11)
        for _ in range(500):
            el = random_elements(rng)
            s = cartesian_from_elements(el, rng.uniform(0.0, TWO_PI))
            r = s.r
            assert abs(s.px**2 + s.py**2 - params.alpha / r - el.A) < 1e-12
            assert abs(s.x * s.py - s.y * s.px - el.a) < 1e-12

    # a fixed example sequence, so every run checks the same states
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        A=st.floats(-2.0, -0.1),
        e=st.floats(0.01, 0.95),
        theta0=st.floats(0.0, TWO_PI),
        prograde=st.booleans(),
        nu=st.floats(0.0, TWO_PI),
    )
    def test_roundtrip_property(self, A, e, theta0, prograde, nu):
        p = Params()
        aM = -p.alpha / (2.0 * A)
        a = math.sqrt(0.5 * p.alpha * aM * (1.0 - e * e))
        el = OrbitalElements(A=A, a=a if prograde else -a, theta0=theta0, alpha=p.alpha)
        s = cartesian_from_elements(el, nu)
        s2 = cartesian_from_elements(elements_from_cartesian(s, p), nu)
        worst = max(abs(s2.x - s.x), abs(s2.y - s.y), abs(s2.px - s.px), abs(s2.py - s.py))
        assert worst < 1e-10

    def test_matches_eccentric_parametrization(self, params, reference_elements):
        el = reference_elements
        for nu in (0.2, 1.7, 4.0):
            E = eccentric_from_true(nu, el.e)
            s1 = cartesian_from_elements(el, nu)
            s2 = state_at_eccentric(el, E)
            assert abs(s1.x - s2.x) < 1e-12 and abs(s1.y - s2.y) < 1e-12
            assert abs(s1.px - s2.px) < 1e-12 and abs(s1.py - s2.py) < 1e-12

    def test_near_radial_degenerate(self, params):
        el = OrbitalElements(A=-0.5, a=1e-9, theta0=0.3, alpha=1.0)
        with pytest.raises(Degenerate):
            cartesian_from_elements(el, 0.5)

    def test_retrograde_polar_angle(self, params):
        el = OrbitalElements(A=-0.5, a=-math.sqrt(0.32), theta0=1.2, alpha=1.0)
        s = cartesian_from_elements(el, 0.5)
        phi = wrap_angle(math.atan2(s.y, s.x))
        assert abs(phi - wrap_angle(el.theta0 + math.pi - 0.5)) < 1e-12
        assert s.x * s.py - s.y * s.px < 0.0


class TestAnomalies:
    def test_triple_consistency(self, reference_elements):
        # true -> eccentric -> mean anomaly, and Kepler's equation back
        el = reference_elements
        for nu in np.linspace(0.0, TWO_PI, 37, endpoint=False):
            E = eccentric_from_true(float(nu), el.e)
            M = mean_from_eccentric(E, el.e)
            assert abs(solve_kepler(M, el.e) - E) < 1e-12

    def test_quadrant_progression(self, reference_elements):
        # all three anomalies advance together around the orbit
        el = reference_elements
        nus = np.linspace(0.0, TWO_PI, 50)
        Es = [eccentric_from_true(float(nu), el.e) for nu in nus]
        Ms = [mean_from_eccentric(E, el.e) for E in Es]
        assert all(b > a for a, b in zip(Es, Es[1:]))
        assert all(b > a for a, b in zip(Ms, Ms[1:]))

    def test_true_eccentric_inverse(self):
        for e in (0.0, 0.4, 0.9):
            for E in np.linspace(-2.0 * TWO_PI, 2.0 * TWO_PI, 41):
                nu = true_from_eccentric(float(E), e)
                assert abs(eccentric_from_true(nu, e) - E) < 1e-12

    def test_eccentric_of_state(self, params, reference_elements):
        el = reference_elements
        for nu in (0.3, 2.345, 5.9):
            s = cartesian_from_elements(el, nu)
            E = eccentric_of_state(el, s)
            assert abs(E - wrap_angle(eccentric_from_true(nu, el.e))) < 1e-10


class TestTimeAndDelaunay:
    def test_zero_interval(self, params, reference_elements):
        assert time_to_anomaly(reference_elements, 1.3, 1.3) == 0.0

    def test_full_revolution_period(self, params):
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.32), theta0=1.2, alpha=1.0)
        L = el.L
        T = time_to_anomaly(el, 0.7, 0.7 + TWO_PI)
        assert abs(T - TWO_PI * 4.0 * abs(L) ** 3 / params.alpha**2) < 1e-12

    def test_mean_motion_value(self, params):
        # alpha = 1, L = -sqrt(1/2): |dM/dt| = sqrt(2)/2
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.32), theta0=1.2, alpha=1.0)
        assert abs(el.L + math.sqrt(0.5)) < 1e-14
        assert abs(el.geometry()[-1] - 0.7071067811865476) < 1e-14

    def test_forward_nonnegative(self, params, reference_elements):
        rng = np.random.default_rng(5)
        for _ in range(100):
            E0 = rng.uniform(0.0, TWO_PI)
            dE = rng.uniform(0.0, TWO_PI)
            assert time_to_anomaly(reference_elements, E0, E0 + dE) >= 0.0

    def test_delaunay_L_value(self, params, reference_elements):
        el = reference_elements
        assert abs(el.L + math.sqrt(0.5 * params.alpha * el.aM)) < 1e-14

    def test_delaunay_identity(self, params):
        # the Delaunay action carries the energy: A = -alpha^2/(4 L^2)
        rng = np.random.default_rng(13)
        for _ in range(300):
            el = random_elements(rng)
            assert abs(el.A + params.alpha**2 / (4.0 * el.L * el.L)) < 1e-12


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(alpha=0.0)
        with pytest.raises(ValueError):
            Params(g=-1.0)
        with pytest.raises(ValueError):
            Params(h=0.0)

    def test_elements_validation(self):
        with pytest.raises(ValueError):
            OrbitalElements(A=0.1, a=0.5, theta0=0.0, alpha=1.0)
        # __post_init__ still runs on the slotted record
        with pytest.raises(ValueError, match="bound orbit requires A < 0"):
            OrbitalElements(A=0.1, a=0.0, theta0=0.0)


class TestRevolvingOrbit:
    G = Params(alpha=1.0, g=0.05, h=1.0)

    def states(self):
        rng = np.random.default_rng(5)
        out = []
        while len(out) < 50:
            s = CartesianState(*rng.uniform(-2.0, 2.0, 2), *rng.uniform(-1.0, 1.0, 2))
            if s.r > 0.1 and s.hamiltonian(self.G) < 0.0:
                out.append(s)
        return out

    def test_state_at_start_reproduces_state(self):
        for s in self.states():
            orb = revolving_orbit(s, self.G)
            back = orb.state_at(orb.nu0)
            for a, b in zip((back.x, back.y, back.px, back.py), (s.x, s.y, s.px, s.py)):
                assert abs(a - b) <= 1e-13 * max(1.0, s.r, math.sqrt(s.speed_sq))

    def test_energy_and_angular_momentum_along_orbit(self):
        for s in self.states():
            orb = revolving_orbit(s, self.G)
            H, l = s.hamiltonian(self.G), s.angular_momentum
            for nu in orb.nu0 + np.linspace(0.0, 20.0, 41):
                st = orb.state_at(float(nu))
                assert abs(st.hamiltonian(self.G) - H) <= 1e-13 * abs(H) / min(1.0, st.r)
                assert abs(st.angular_momentum - l) <= 1e-13 * max(1.0, st.r)

    def test_radial_period(self):
        for s in self.states()[:10]:
            orb = revolving_orbit(s, self.G)
            period = TWO_PI / orb.mean_motion()
            assert orb.time_to(orb.nu0) == 0.0
            assert abs(orb.time_to(orb.nu0 + TWO_PI) - period) <= 1e-12 * period
            assert abs(orb.time_to(orb.nu0 + 3.0 * TWO_PI) - 3.0 * period) <= 1e-12 * period

    def test_eccentricity_below_one(self):
        # l_eff^2 >= g bounds e^2 by 1 - 2|H|g/mu^2, even for radial motion
        s = CartesianState(x=0.0, y=0.5, px=0.0, py=0.3)
        orb = revolving_orbit(s, self.G)
        H = s.hamiltonian(self.G)
        assert orb.l == 0.0 and orb.k == 0.0
        assert orb.e**2 <= 1.0 - 2.0 * abs(H) * self.G.g / self.G.mu**2 + 1e-15

    def test_failures(self):
        with pytest.raises(Unbound):
            revolving_orbit(CartesianState(1.0, 0.0, 0.0, 2.0), self.G)
        with pytest.raises(Degenerate):
            revolving_orbit(CartesianState(0.0, 0.0, 0.1, 0.0), self.G)
        with pytest.raises(ValueError):
            revolving_orbit(CartesianState(1.0, 0.0, 0.0, 0.5), Params())
