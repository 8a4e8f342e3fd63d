import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kepler_billiard import billiard, perturbed
from kepler_billiard.billiard import TOL_EVENT, conserved_R, run, step
from kepler_billiard.delaunay import initial_state_on_level
from kepler_billiard.errors import NoCollision, StepFailure, Unbound
from kepler_billiard.kepler import (
    CartesianState,
    OrbitalElements,
    Params,
    cartesian_from_elements,
)
from kepler_billiard.perturbed import (
    integrate_to_wall,
    run_perturbed,
    section_ensemble,
    _rhs,
)

L_REF = -math.sqrt(1.5)
R_REF = 1.2


@pytest.fixture(scope="module")
def rotation_state():
    return initial_state_on_level(L_REF, R_REF, Params())


class TestIntegrateToWall:
    def test_zero_length_arc(self):
        p = Params()
        s = CartesianState(x=0.2, y=1.0, px=0.1, py=0.5)
        assert integrate_to_wall(s, p) is s

    def test_single_arc_matches_closed_form(self, rotation_state):
        p = Params()
        hit = integrate_to_wall(rotation_state, p)
        _, ev = step(rotation_state, p)
        assert abs(hit.x - ev.x_impact) < 1e-8
        assert abs(hit.t - ev.t) < 1e-8
        assert abs(hit.y - p.h) < TOL_EVENT * 10

    def test_energy_conserved_with_g(self, rotation_state):
        p = Params(alpha=1.0, g=0.1, h=1.0)
        s = rotation_state
        H0 = s.hamiltonian(p)
        assert H0 < 0.0
        hit = integrate_to_wall(s, p)
        assert abs(hit.hamiltonian(p) - H0) / abs(H0) < 1e-10

    def test_time_reversal(self, rotation_state):
        p = Params()
        hit = integrate_to_wall(rotation_state, p)
        elapsed = hit.t - rotation_state.t
        back = replace(hit, px=-hit.px, py=-hit.py)
        sol = solve_ivp(
            _rhs(p), (0.0, elapsed), [back.x, back.y, back.px, back.py],
            method="DOP853", rtol=1e-12, atol=1e-12,
        )
        x, y, px, py = sol.y[:, -1]
        assert abs(x - rotation_state.x) < 1e-8
        assert abs(y - rotation_state.y) < 1e-8
        assert abs(px + rotation_state.px) < 1e-8
        assert abs(py + rotation_state.py) < 1e-8

    def test_integration_goes_through_module_solve_ivp(self, rotation_state, monkeypatch):
        # the seam a tracer wraps to count RHS evaluations and steps per arc
        sols = []
        real = perturbed.solve_ivp

        def spy(*args, **kwargs):
            sols.append(real(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(perturbed, "solve_ivp", spy)
        hit = integrate_to_wall(rotation_state, Params())
        assert len(sols) == 1 and sols[0].t_events[0][0] == hit.t - rotation_state.t
        assert sols[0].sol is None  # no dense output: events use the step interpolant

    def test_escape_detected(self):
        p = Params()
        with pytest.raises(Unbound):
            integrate_to_wall(CartesianState(1.0, 0.0, 0.0, 2.0), p)

    def test_escape_radius_is_step_failure(self):
        # a bound orbit whose apoapsis lies far beyond ESCAPE_RADIUS, heading out
        p = Params(alpha=100.0)
        s = CartesianState(0.0, -0.5, 0.0, -math.sqrt(200.0 * (1.0 - 1e-5)))
        assert s.hamiltonian(p) < 0.0
        with pytest.raises(StepFailure, match="left bounding radius"):
            integrate_to_wall(s, p)

    def test_center_guard_is_step_failure(self):
        # from rest beside the centre the particle falls straight at it
        with pytest.raises(StepFailure, match="approached the center within 1e-06"):
            integrate_to_wall(CartesianState(1e-4, -0.5, 0.0, 0.0), Params())

    def test_no_collision_timeout(self, monkeypatch):
        p = Params()
        el = OrbitalElements(A=-1.0, a=math.sqrt(0.2), theta0=0.1, alpha=1.0)
        s = cartesian_from_elements(el, 0.0)
        monkeypatch.setattr(billiard, "MAX_ARC_TIME", 50.0)
        with pytest.raises(NoCollision, match="t = 50"):
            integrate_to_wall(s, p)


class TestRunPerturbed:
    def test_matches_event_driven_g0(self, rotation_state):
        p = Params()
        events_ode, _ = run_perturbed(rotation_state, 40, p)
        res_ev = run(rotation_state, 40, p)
        for a, b in zip(events_ode, res_ev.events):
            assert abs(a.x_impact - b.x_impact) < 1e-6
            assert abs(a.lam - b.lam) < 1e-6

    def test_R_value_constant_g0(self, rotation_state):
        p = Params()
        events, max_rel_drift = run_perturbed(rotation_state, 40, p)
        Rv = np.array([conserved_R(ev.post, p) for ev in events])
        assert np.ptp(Rv) / abs(Rv[0]) < 1e-8
        assert max_rel_drift < 1e-10

    def test_R_drifts_under_perturbation(self):
        p = Params(alpha=1.0, g=0.05, h=1.0)
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.32), theta0=1.2, alpha=1.0)
        s = cartesian_from_elements(el, 0.0)
        events, max_rel_drift = run_perturbed(s, 120, p)
        Rv = np.array([conserved_R(ev.post, Params()) for ev in events])
        assert np.ptp(Rv) / abs(Rv[0]) > 1e-4
        assert max_rel_drift < 1e-10

    def test_g_sweep_monotone_scatter(self):
        # the physics claim, on the production route (billiard.run, every g)
        el = OrbitalElements(A=-0.5, a=math.sqrt(0.32), theta0=1.2, alpha=1.0)
        s = cartesian_from_elements(el, 0.0)
        spreads = []
        for g in (0.0, 1e-3, 1e-2):
            res = run(s, 60, Params(alpha=1.0, g=g, h=1.0))
            assert len(res.events) == 60
            Rv = np.array([conserved_R(ev.post, Params()) for ev in res.events])
            spreads.append(float(np.ptp(Rv) / abs(Rv[0])))
        assert spreads[0] < spreads[1] < spreads[2]

    def test_section_lambda_range(self, rotation_state):
        events, _ = run_perturbed(rotation_state, 20, Params())
        for ev in events:
            assert 0.0 < ev.lam < math.pi


class TestSectionEnsemble:
    def test_empty_points_for_zero_collisions(self, rotation_state):
        out = section_ensemble([rotation_state], 0, Params())
        assert len(out) == 1 and out[0].events == [] and out[0].error is None

    def test_failed_seed_isolated(self):
        p = Params()
        A = -0.5
        good = cartesian_from_elements(
            OrbitalElements(A=A, a=math.sqrt(0.32), theta0=1.2, alpha=1.0), 0.0
        )
        # same energy, but the ellipse stays below the wall
        e_small = 0.05
        a2 = 0.5 * 1.0 * (1.0 - e_small**2)
        bad = cartesian_from_elements(
            OrbitalElements(A=A, a=math.sqrt(a2), theta0=1.5 * math.pi, alpha=1.0),
            0.0,
        )
        out = section_ensemble([bad, good], 5, p)
        assert out[0].error is not None and out[0].error.startswith("NoCollision: max y = ")
        assert out[0].events == []
        assert out[1].error is None and len(out[1].events) == 5

    def test_escaping_domain_error_fails_seed(self):
        # billiard.run lets Unbound out of its first step; the seed fails
        (out,) = section_ensemble([CartesianState(0.0, -0.5, 2.0, 0.0)], 3, Params())
        assert out.error == "Unbound: A = 2 >= 0: not a bound orbit" and out.events == []

    def test_no_collision_within_time_cap_fails_seed(self, reference_state, monkeypatch):
        # this orbit's first g = 0.05 impact comes at t = 3.9
        monkeypatch.setattr(billiard, "MAX_ARC_TIME", 1.0)
        (out,) = section_ensemble([reference_state], 3, Params(alpha=1.0, g=0.05, h=1.0))
        assert out.error == "NoCollision: no wall crossing within t = 1" and out.events == []

    def test_halted_seed_fails(self, reference_state, monkeypatch):
        # a grazing cutoff inside the orbit's range of normal velocities
        # halts the run after a few events (see test_billiard); the seed
        # fails and keeps the events certified before the halt
        monkeypatch.setattr(billiard, "TOL_GRAZE", 0.425)
        (out,) = section_ensemble([reference_state], 50, Params())
        k = len(out.events)
        assert out.error is not None and out.error.startswith(f"grazing contact at event {k}: ")
        assert k > 0 and [ev.n for ev in out.events] == list(range(k))
        assert out.events == billiard.run(reference_state, k, Params()).events

    def test_fault_propagates(self, rotation_state, monkeypatch):
        # only domain errors are a seed's failure; any other error is a fault
        def broken(*args):
            raise ZeroDivisionError("not a domain error")

        monkeypatch.setattr(billiard, "run", broken)
        with pytest.raises(ZeroDivisionError):
            section_ensemble([rotation_state], 3, Params())

    def test_mismatched_energy_rejected(self):
        p = Params()
        s1 = cartesian_from_elements(
            OrbitalElements(A=-0.5, a=math.sqrt(0.32), theta0=1.2, alpha=1.0), 0.0
        )
        s2 = cartesian_from_elements(
            OrbitalElements(A=-0.4, a=math.sqrt(0.32), theta0=1.2, alpha=1.0), 0.0
        )
        with pytest.raises(ValueError):
            section_ensemble([s1, s2], 3, p)
