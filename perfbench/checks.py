"""Correctness gates on a workload's output files, at the package's own bounds.

Each ``check_<workload>(out, job)`` reads the files one round of the
workload wrote (unit ``i`` under ``out/u<iii>``) and returns a
:class:`Verdict`: whether the outputs pass, the units attempted and failed,
the wall impacts the outputs record, and what went wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from inputs import ALPHA, H, accessible_half_width

# the CLI's DEFAULT_THRESHOLDS; a verify run passes only at these bounds
VERIFY_BOUNDS = {
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
# wall impacts of the built-in verify suite: 10^4 (conservation) + 100 + 100
# (oracle pair) + 30 + 30 (per-arc oracle) + 1100 (gamma) + 600 (anisochrony)
# + 1000 (g = 0.05); verify's outputs do not list them
VERIFY_IMPACTS = 12_960
DRIFT_BOUND = 1e-9  # theorem1_R_drift, theorem1_A_drift
IDENTITY_BOUND = 1e-10  # identity_eq16_eq17
SPREAD_BOUND = 5e-6  # conjecture2_spread_even / _odd
# exact: one file per orbit, events or the error the package raised instead
EXACT_EVENTS = "exact_events.csv"
EXACT_ERROR = "exact_error.txt"


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    impacts: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_verify(out: Path, job: dict) -> Verdict:
    v = Verdict(attempted=len(VERIFY_BOUNDS), impacts=VERIFY_IMPACTS)
    rows = {r["name"]: r for r in _rows(out / "u000" / "verify_checks.csv")}
    if set(rows) != set(VERIFY_BOUNDS):
        v.problems.append(f"verify checks {sorted(rows)} differ from the 16 expected")
    for name, (kind, bound) in VERIFY_BOUNDS.items():
        r = rows.get(name)
        if r is None:
            v.failed += 1
            continue
        measured = float(r["measured"])
        passed = measured >= bound if kind == "min" else measured <= bound
        if not passed or r["pass"] != "true" or r["kind"] != kind or float(r["threshold"]) != bound:
            v.failed += 1
            v.problems.append(f"verify check {name}: {r}")
    return v


def _conserved_R(A: float, a: float, theta0: float) -> float:
    e2 = 1.0 + 4.0 * A * a * a / (ALPHA * ALPHA)
    return a * a + H * ALPHA * math.sqrt(max(e2, 0.0)) * math.sin(theta0)


def _rel_spread(values: list[float]) -> float:
    return (max(values) - min(values)) / abs(values[0])


def check_exact(out: Path, job: dict) -> Verdict:
    v = Verdict()
    for k, unit in enumerate(job["units"]):
        d = out / f"u{k:03d}"
        v.attempted += 1
        if (d / EXACT_ERROR).exists():
            v.failed += 1  # the package raised instead of halting; no events to check
            continue
        rows = _rows(d / EXACT_EVENTS)
        v.impacts += len(rows)
        if [int(r["n"]) for r in rows] != list(range(unit["n"])):
            v.failed += 1  # halted or never reached the wall
            continue
        A = [float(r["A"]) for r in rows]
        R = [_conserved_R(float(r["A"]), float(r["a_post"]), float(r["theta0_post"])) for r in rows]
        resid = max(float(r["residual_identity"]) / max(1.0, abs(x)) for r, x in zip(rows, R))
        box = sum(r["bounds_ok"] != "1" for r in rows)
        if _rel_spread(R) > DRIFT_BOUND or _rel_spread(A) > DRIFT_BOUND or resid > IDENTITY_BOUND or box:
            v.problems.append(f"orbit {k}: R drift {_rel_spread(R):.3g}, A drift "
                              f"{_rel_spread(A):.3g}, identity {resid:.3g}, box violations {box}")
    return v


def check_gamma(out: Path, job: dict) -> Verdict:
    v = Verdict()
    for i, unit in enumerate(job["units"]):
        n, d = unit["n"], out / f"u{i:03d}"
        rows = _rows(d / "gamma.csv")
        rep = json.loads((d / "conjecture_report.json").read_text(encoding="utf-8"))
        v.attempted += n
        v.impacts += len(rows)
        bad = {int(r["n"]) for r in rows if r["gamma"] == ""} | set(rep.get("branch_mismatch_rows", []))
        v.failed += len(bad) + max(n - len(rows), 0)
        conj = rep.get("conjectures", {})
        spreads = (conj.get("spread_even", math.inf), conj.get("spread_odd", math.inf))
        if len(rows) != n or bad or not max(spreads) <= SPREAD_BOUND or not conj.get("sign_alternation_ok"):
            v.problems.append(f"gamma orbit {i}: {len(rows)} rows, bad events {sorted(bad)[:5]}, "
                              f"spreads {spreads}")
    return v


def check_section(out: Path, job: dict) -> Verdict:
    v = Verdict()
    for i, unit in enumerate(job["units"]):
        n, d = unit["n"], out / f"u{i:03d}"
        failed = json.loads((d / "manifest.json").read_text(encoding="utf-8"))["failed_seeds"]
        v.attempted += 1
        v.failed += len(failed)
        rows = _rows(d / "section.csv")
        v.impacts += len(rows)
        if failed:
            continue
        x_max = accessible_half_width(unit["A"], unit["g"]) * (1.0 + 1e-12)
        lam = [float(r["lambda"]) for r in rows]
        if ([int(r["n"]) for r in rows] != list(range(n))
                or not all(0.0 < x < math.pi for x in lam)
                or not all(abs(float(r["x"])) <= x_max for r in rows)):
            v.problems.append(f"section seed {i}: rows do not cover n < {n} inside the section")
    return v


CHECKS = {"verify": check_verify, "exact": check_exact, "gamma": check_gamma,
          "section": check_section}


def run_check(workload: str, out: Path, job: dict) -> Verdict:
    try:
        return CHECKS[workload](out, job)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(attempted=1, failed=1, problems=[f"unreadable outputs: {exc!r}"])


def data_digest(out: Path) -> dict[str, str]:
    """sha256 of every data file under ``out``; manifests carry wall times."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}
