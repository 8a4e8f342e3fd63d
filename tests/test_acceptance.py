"""Acceptance gate: every criterion at its stated tolerance.

``kepler-billiard verify`` is the only code that computes the acceptance
quantities; the criteria read its ``verify_report.json``.  Every verify
check must pass, must carry the kind and threshold pinned in ``BOUNDS``,
and its measured value must satisfy that pinned bound, so a threshold
loosened in the CLI fails here.  Criterion 4 also recomputes the inequality
box on its own run, criterion 9 solves Kepler's equation on its own grid,
and criterion 10 compares two verify runs byte for byte.  The byte gate
pins verify's two data files by their sha256 (see ``test_golden.py``).

Each check prints one `ACCEPTANCE <name>: PASS/FAIL` line with the measured
value next to its bound (visible with ``pytest -s``, and echoed on failure).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from kepler_billiard import billiard, cli, reference
from kepler_billiard.kepler import solve_kepler

P = reference.reference_params()

# every verify check in report order, with the (kind, bound) it is held to
BOUNDS = {
    "kepler_residual": ("max", 1e-13),
    "roundtrip": ("max", 1e-10),
    "theorem1_R_drift": ("max", 1e-9),
    "theorem1_A_drift": ("max", 1e-9),
    "identity_eq16_eq17": ("max", 1e-10),
    "lemma1_equivalence": ("max", 1e-10),
    "lemma1_reflection": ("max", 1e-10),
    "eq110_box_violations": ("max", 0.0),
    "oracle_impacts": ("max", 1e-6),
    "oracle_arc": ("max", 1e-8),
    "conjecture2_mismatches": ("max", 0.0),
    "conjecture2_spread_even": ("max", 5e-6),
    "conjecture2_spread_odd": ("max", 5e-6),
    "anisochrony_ratio": ("min", 10.0),
    "perturbation_R_drift": ("min", 1e-4),
    "perturbation_H_arc": ("max", 1e-10),
}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def verify_twice(tmp_path_factory):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"verify_{tag}")
        cfg = cli.parse_config({"mode": "verify", "output_dir": str(out)}, "verify")
        bundle = cli.run_command(cfg)
        outs.append((out, 0 if bundle.manifest["all_passed"] else 1))
    return outs


@pytest.fixture(scope="module")
def verify_checks(verify_twice):
    """The checks of run a, by name."""
    (out, _), _ = verify_twice
    report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    return {c["name"]: c for c in report["checks"]}


def _gate(checks: dict, *names: str) -> None:
    """Each named check passed, at the pinned kind and bound."""
    failed = []
    for name in names:
        c = checks[name]
        kind, bound = BOUNDS[name]
        within = c["measured"] >= bound if kind == "min" else c["measured"] <= bound
        ok = c["pass"] and (c["kind"], c["threshold"]) == (kind, bound) and within
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
              f"(measured {c['measured']:.3e}, {kind} bound {bound:g}; "
              f"verify: {c['kind']} {c['threshold']:g}, pass {c['pass']})")
        if not ok:
            failed.append(c)
    assert not failed, failed


def test_01_theorem1_conservation(verify_checks):
    _gate(verify_checks, "theorem1_R_drift", "theorem1_A_drift")


def test_02_identity_eq16_eq17(verify_checks):
    _gate(verify_checks, "identity_eq16_eq17")


def test_03_lemma1_equivalence(verify_checks):
    _gate(verify_checks, "lemma1_equivalence", "lemma1_reflection")


def test_04_eq110_box(verify_checks):
    _gate(verify_checks, "eq110_box_violations")
    # independent recomputation of the box on a run of its own
    res = billiard.run(reference.conservation_state(), 10_000, P)
    violations = 0
    for ev, rep in zip(res.events, res.reports):
        aM = ev.post.aM
        lower = P.alpha * P.h**2 / (2.0 * aM)
        upper = (1.0 + (aM / P.h) ** 2 - ((aM - ev.r) / P.h) ** 2) * lower
        inside = (
            ev.r < 2.0 * aM
            and (aM - ev.r) ** 2 < rep.R0**2 < aM**2
            and lower < rep.R_eq16 < upper
        )
        if not (inside and rep.bounds_ok):
            violations += 1
    _report(
        "4 eq110-box",
        len(res.events) == 10_000 and violations == 0,
        f"{violations} violations over {len(res.events)} collisions",
    )


def test_05_conjecture2_reproduction(verify_checks):
    _gate(verify_checks, "conjecture2_mismatches", "conjecture2_spread_even",
          "conjecture2_spread_odd")


def test_06_conjecture1_anisochrony(verify_checks):
    _gate(verify_checks, "anisochrony_ratio")


def test_07_oracle_equivalence(verify_checks):
    _gate(verify_checks, "oracle_impacts", "oracle_arc")


def test_08_perturbation_sensitivity(verify_checks):
    _gate(verify_checks, "perturbation_R_drift", "perturbation_H_arc")


def test_09_kepler_solver_grid(verify_checks):
    _gate(verify_checks, "kepler_residual", "roundtrip")
    worst = 0.0
    for e in np.linspace(0.0, 0.99, 100):
        for M in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
            E = solve_kepler(float(M), float(e))
            worst = max(worst, abs(E - e * math.sin(E) - M))
    _report(
        "9 kepler-solver",
        worst < 1e-13,
        f"max residual over 10^4-point grid = {worst:.3e}, bound 1e-13",
    )


def test_10_verify_determinism(verify_twice, verify_checks):
    (out_a, code_a), (out_b, code_b) = verify_twice
    csv_a = (out_a / "verify_checks.csv").read_bytes()
    csv_b = (out_b / "verify_checks.csv").read_bytes()
    pinned = list(verify_checks) == list(BOUNDS)
    ok = csv_a == csv_b and code_a == 0 and code_b == 0 and pinned
    _report(
        "10 verify-determinism",
        ok,
        f"exit codes ({code_a}, {code_b}); data CSVs byte-identical: {csv_a == csv_b}; "
        f"checks as pinned: {pinned}",
    )


# verify's data files, as the byte gate pins every reference run's
VERIFY_FILES = {
    "verify_checks.csv": "62fef0d524d3d6c09cdeba953c088418581da9b850d2426b48a15508616bfef7",
    "verify_report.json": "354b9aae0479b9063d479453b07fbfb65bdc811192edf4c5c561ffe02fcb9543",
}


def test_verify_files_pinned(pinned_toolchain, verify_twice):
    (out, _), _ = verify_twice
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(out.iterdir()) if f.name != "manifest.json"}
    assert got == VERIFY_FILES
