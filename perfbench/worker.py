"""One worker process of a benchmark run.

Usage: python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the workload's units (one
``billiard.run`` orbit or one CLI call each), the output directory, the time
budget and whether to trace.  The worker imports the package from ``src/``
of the current directory (that import is the set-up the CLI pays on every
call) and writes ``result.json`` next to the job:

- ``probe`` jobs stop there; the result holds the monotonic time at which
  set-up ended.
- ``screen`` jobs (``exact`` only) run each unit's candidate orbits in turn
  and record, per unit, the first candidate that completes its ``n``
  collisions, or None.
- Untraced, the worker runs all units round after round until the budget is
  spent (at least ``min_rounds`` rounds) and records the wall time of every
  unit in every round.  Every ``probe_every_s`` seconds, between rounds, it
  starts a probe process and records its set-up time, so that set-up is
  sampled over the whole run like the units.  The first round's outputs are
  kept under ``out/first``; every later round's outputs are compared byte for
  byte with them and then deleted.
- Traced, it runs one round and records the per-layer figures of it.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
from kepler_billiard import billiard, cli, delaunay, kepler, perturbed, svg  # noqa: E402
from kepler_billiard.errors import BilliardError  # noqa: E402

T_READY = time.monotonic()

from checks import EXACT_ERROR, EXACT_EVENTS, data_digest  # noqa: E402
from inputs import ALPHA, H  # noqa: E402

# exact: columns written after the timed region, for the correctness gate
EXACT_HEADER = "n,t,x_impact,A,a_post,theta0_post,residual_identity,bounds_ok"
PARAMS_G0 = kepler.Params(alpha=ALPHA, g=0.0, h=H)


def run_unit(workload: str, unit: dict, out: Path):
    """Run one unit; returns what must be written after timing, or None."""
    if workload == "exact":
        try:
            return billiard.run(kepler.CartesianState(**unit["state"]), unit["n"], PARAMS_G0)
        except BilliardError as exc:  # the package refuses the orbit (e.g. near-radial)
            return exc
    code = cli.main(unit["argv"] + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"kepler-billiard {unit['argv'][0]} exited with {code}")
    return None


def write_exact(out: Path, res) -> None:
    if isinstance(res, BaseException):
        (out / EXACT_ERROR).write_text(f"{type(res).__name__}: {res}\n", encoding="utf-8")
        return
    lines = [EXACT_HEADER]
    for ev, rep in zip(res.events, res.reports):
        lines.append(",".join(repr(v) for v in (
            ev.n, ev.t, ev.x_impact, ev.post.A, ev.post.a, ev.post.theta0,
            rep.residual_identity)) + ("," + ("1" if rep.bounds_ok else "0")))
    (out / EXACT_EVENTS).write_text("\n".join(lines) + "\n", encoding="utf-8")


def screen(job: dict) -> list[int | None]:
    chosen = []
    for unit in job["units"]:
        for j, state in enumerate(unit["candidates"]):
            res = run_unit("exact", {"state": state, "n": unit["n"]}, Path())
            if not isinstance(res, BaseException) and len(res.events) == unit["n"]:
                chosen.append(j)
                break
        else:
            chosen.append(None)
    return chosen


def run_round(job: dict, root: Path, times: list[list[float]]) -> None:
    for i, unit in enumerate(job["units"]):
        out = root / f"u{i:03d}"
        out.mkdir(parents=True)
        # start each unit with empty GC generations, so that the collections
        # inside it do not depend on which units ran before
        gc.collect()
        t0 = time.perf_counter()
        res = run_unit(job["workload"], unit, out)
        times[i].append(time.perf_counter() - t0)
        if job["workload"] == "exact":
            write_exact(out, res)
        del res


def probe_setup(job: dict) -> float:
    """Start a fresh process that only imports the package; its set-up time."""
    probe = Path(job["probe_job"])
    t_spawn = time.monotonic()
    subprocess.run([sys.executable, __file__, str(probe)], check=True, timeout=60)
    return json.loads((probe.parent / "result.json").read_text(encoding="utf-8"))["t_ready"] - t_spawn


def main() -> int:
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    if Path(cli.__file__).resolve().parent != (SRC / "kepler_billiard").resolve():
        print(f"imported kepler_billiard from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result: dict = {"t_ready": T_READY}
    if job["workload"] == "screen":
        result["chosen"] = screen(job)
    elif job["workload"] != "probe":
        tracer = None
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install({"kepler": kepler, "billiard": billiard, "delaunay": delaunay,
                            "perturbed": perturbed, "cli": cli, "svg": svg})
        # the import's objects are never garbage; keep full collections from
        # scanning them in every unit
        gc.collect()
        gc.freeze()
        out = Path(job["out"])
        first = out / "first"
        times: list[list[float]] = [[] for _ in job["units"]]
        t_start = time.perf_counter()
        run_round(job, first, times)
        first_digest = data_digest(first)
        rounds, mismatched, setups = 1, [], []
        while tracer is None:
            elapsed = time.perf_counter() - t_start
            # stop before a round that would overrun the budget
            if rounds >= job["min_rounds"] and elapsed * (rounds + 1) / rounds > job["budget_s"]:
                break
            if elapsed >= len(setups) * job["probe_every_s"]:
                setups.append(probe_setup(job))
            again = out / "again"
            run_round(job, again, times)
            if data_digest(again) != first_digest:
                mismatched.append(rounds)
            shutil.rmtree(again)
            rounds += 1
        result.update({
            "times": times,
            "setups": setups,
            "rounds": rounds,
            "mismatched_rounds": mismatched,
            "digest": first_digest,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
        })
        if tracer is not None:
            result["layers"] = tracer.metrics(sum(t[0] for t in times))
            tracer.write(job_path.parent / "spans.csv")
    (job_path.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
