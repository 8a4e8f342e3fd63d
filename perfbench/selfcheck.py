"""Fast self-check of the benchmark.

Usage, from the root of a source checkout: python3 perfbench/selfcheck.py

Runs every workload of run.py once untraced and once traced at ``--tiny``
size and checks that the last stdout line carries exactly the metric names
and units of BENCHMARK.json with ``correct`` true.  Then it corrupts one data
file of each workload's kept outputs and checks that the correctness gate
fails.  Takes about a minute, most of it the full-size ``verify`` (which has
fixed inputs and cannot shrink).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import checks
from run import WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def corrupt(workload: str, out: Path) -> None:
    """Damage one value that the workload's gate reads."""
    if workload == "verify":
        path, old, new = out / "u000" / "verify_checks.csv", ",true\n", ",false\n"
    elif workload == "exact":
        path = out / "u000" / checks.EXACT_EVENTS
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[4] = repr(float(cells[4]) * (1.0 + 1e-6))  # a_post: R drifts
        old, new = lines[2], ",".join(cells)
    elif workload == "gamma":
        path = out / "u000" / "gamma.csv"
        old = path.read_text(encoding="utf-8").splitlines()[3]
        cells = old.split(",")
        cells[1] = ""  # a NaN gamma
        new = ",".join(cells)
    else:
        path = out / "u000" / "section.csv"
        old = path.read_text(encoding="utf-8").splitlines()[1]
        cells = old.split(",")
        cells[3] = "3.5"  # lambda outside (0, pi)
        new = ",".join(cells)
    text = path.read_text(encoding="utf-8")
    assert old in text, (workload, path, old)
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                failures.append(f"{w} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if got != want:
                failures.append(f"{w} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            for name in want:
                if f"  {name} " not in proc.stdout:
                    failures.append(f"{w} trace {trace}: {name} not printed")
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                failures.append(f"{w} trace {trace}: {last}")
        # the first round's outputs are kept; the job file names the inputs
        untraced = ROOT / ".bench_work" / w / "untraced"
        job = json.loads((untraced / "job.json").read_text(encoding="utf-8"))
        out = untraced / "first"
        if not checks.run_check(w, out, job).ok:
            failures.append(f"{w}: gate fails on untouched outputs")
        corrupt(w, out)
        if checks.run_check(w, out, job).ok:
            failures.append(f"{w}: gate passes on corrupted outputs")
        print(f"{w}: checked", flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selfcheck " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
