"""Benchmark of kepler-billiard: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {verify,exact,gamma,section} \\
        --seed N --seconds S --trace {0,1}

A workload is a list of units: one ``billiard.run`` orbit (``exact``) or one
CLI call (``verify``, ``gamma``, ``section``).  One single-threaded worker
process (perfbench/worker.py) imports the package from ``src/`` and runs all
units round after round until ``--seconds`` have passed, timing each unit in
each round; between rounds it starts SETUP_PROBES fresh processes, spread
over the run, that only import the package, which times the set-up every
CLI call pays.  ``wall_s`` is the sum over units of each unit's fastest
round: on a shared host, slow phases inflate some rounds, and the fastest of
many rounds is what the code costs.  With
``--trace 1`` a traced worker then runs single rounds and the result
reports their per-layer metrics.  The first round's outputs must pass the
workload's correctness gate (checks.py) and every later round's must be
byte-identical to them.  Before timing, ``exact`` keeps for each orbit
the first of its seeded candidates that the package runs through (see
inputs.exact_candidates).  ``--tiny`` shrinks the inputs (for selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

WORKLOADS = ("verify", "exact", "gamma", "section")
# (orbits, or section seeds per energy; collisions each), full and --tiny
SIZES = {
    "exact": ((8, 500), (2, 50)),
    "gamma": ((6, 150), (2, 120)),
    "section": ((2, 2), (1, 2)),
}
END_TO_END = {
    "wall_s": "s",
    "impacts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "outputs_ok": "bool",
}
PER_LAYER = {
    "impacts": "count",
    "kepler.calls_per_impact": "ratio",
    "kepler.solve_kepler.us_per_call": "us",
    "kepler.self_s": "s",
    "kepler.share": "fraction",
    "billiard.step.us_per_call": "us",
    "billiard.step.self_us": "us",
    "billiard.invariant_report.us_per_call": "us",
    "billiard.crossings_per_impact": "ratio",
    "billiard.halts": "count",
    "billiard.self_s": "s",
    "billiard.share": "fraction",
    "delaunay.gamma_of.calls": "count",
    "delaunay.gamma_of.us_per_call": "us",
    "delaunay.quad.calls": "count",
    "delaunay.integrand_evals_per_gamma": "ratio",
    "delaunay.nan_gamma": "count",
    "delaunay.self_s": "s",
    "delaunay.share": "fraction",
    "perturbed.arcs": "count",
    "perturbed.arc.ms_p50": "ms",
    "perturbed.arc.ms_p90": "ms",
    "perturbed.rhs_evals_per_arc": "ratio",
    "perturbed.steps_per_arc": "ratio",
    "perturbed.failed_seeds": "count",
    "perturbed.self_s": "s",
    "perturbed.share": "fraction",
    "cli.parse_config.s": "s",
    "cli.write_csv.s": "s",
    "cli.finalize_bundle.s": "s",
    "cli.bytes_written": "bytes",
    "cli.self_s": "s",
    "cli.share": "fraction",
    "svg.to_svg.s": "s",
    "svg.bytes": "bytes",
    "svg.self_s": "s",
    "svg.share": "fraction",
    "untraced_code.share": "fraction",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0  # the whole run, set-up and checks included
SETUP_PROBES = 10  # fresh processes that only import the package, spread over the run
MIN_ROUNDS = 2  # an untraced worker runs every unit at least this often
TRACED_PROCESSES = 5  # at most, each running one traced round


class BenchError(Exception):
    pass


def make_units(workload: str, seed: int, tiny: bool, inputs_dir: Path) -> list[dict]:
    if workload == "verify":
        return [{"argv": ["verify"]}]
    count, n = SIZES[workload][1 if tiny else 0]
    if workload == "exact":
        return [{"candidates": [o["state"] for o in cands], "n": n}
                for cands in inputs.exact_candidates(seed, count)]
    if workload == "gamma":
        orbits, g = inputs.gamma_orbits(seed, count), 0.0
    else:
        orbits, g = inputs.section_seeds(seed, count), inputs.SECTION_G
    inputs_dir.mkdir(parents=True, exist_ok=True)
    units = []
    for i, o in enumerate(orbits):
        cfg = {"params": {"alpha": inputs.ALPHA, "g": g, "h": inputs.H}, "mode": workload,
               "n_collisions": n, "initial": {"cartesian": o["state"]}}
        path = inputs_dir / f"{workload}_{i:03d}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        units.append({"argv": [workload, "--config", str(path)], "n": n, "A": o["A"], "g": g})
    return units


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> float:
    """Run one child to completion; returns the monotonic time it was started."""
    with open(log, "w", encoding="utf-8") as fh:
        t_spawn = time.monotonic()
        # its own process group, so that a timeout also ends the probes it started
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{argv[1:]} did not finish within {timeout:.0f} s") from None
            raise
    if code != 0:
        raise BenchError(f"{argv[1:]} exited with {code}:\n{log.read_text(encoding='utf-8')[-2000:]}")
    return t_spawn


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    args = ap.parse_args(argv)
    t_begin = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "kepler_billiard" / "__init__.py").is_file():
        print(f"no package source at {root / 'src' / 'kepler_billiard'}; run from a checkout",
              file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    units = make_units(args.workload, args.seed, args.tiny, work / "inputs")
    env = child_env(root)
    python = sys.executable

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - t_begin)

    def run_worker(name: str, **job) -> tuple[float, dict]:
        """Start one worker on ``job``; returns its set-up time and result."""
        proc_dir = work / name
        proc_dir.mkdir()
        job_path = proc_dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        t_spawn = run_child([python, str(here / "worker.py"), str(job_path)], env,
                            proc_dir / "worker.log", remaining())
        res = json.loads((proc_dir / "result.json").read_text(encoding="utf-8"))
        return res["t_ready"] - t_spawn, res

    # compile the package's bytecode once, so that no timed set-up includes it
    run_child([python, "-c", "import kepler_billiard.cli"], env, work / "warmup.log", remaining())
    if args.workload == "exact":
        _, res = run_worker("screen", workload="screen", units=units)
        missing = [i for i, j in enumerate(res["chosen"]) if j is None]
        if missing:
            raise BenchError(f"no candidate of exact orbits {missing} runs {units[0]['n']} collisions")
        units = [{"state": u["candidates"][j], "n": u["n"]} for u, j in zip(units, res["chosen"])]
    probe_dir = work / "probe"
    probe_dir.mkdir()
    (probe_dir / "job.json").write_text(json.dumps({"workload": "probe"}), encoding="utf-8")
    t_start = time.monotonic()

    def budget(share: float) -> float:
        return share * (args.seconds - (time.monotonic() - t_start))

    job = {"workload": args.workload, "units": units}
    untraced_s = budget(0.5 if args.trace else 1.0)
    _, res = run_worker("untraced", **job, out=str(work / "untraced"), trace=False,
                        budget_s=untraced_s, min_rounds=1 if args.trace else MIN_ROUNDS,
                        probe_job=str(probe_dir / "job.json"),
                        probe_every_s=untraced_s / SETUP_PROBES)
    setups = res["setups"]
    traced, t_traced = [], 0.0
    while args.trace and (not traced or budget(1.0) > t_traced) and len(traced) < TRACED_PROCESSES:
        t0 = time.monotonic()
        traced.append(run_worker(f"traced{len(traced)}", **job, trace=True,
                                 out=str(work / f"traced{len(traced)}"))[1])
        t_traced = time.monotonic() - t0

    verdict = checks.run_check(args.workload, work / "untraced" / "first", job)
    problems = list(verdict.problems)
    if res["mismatched_rounds"]:
        problems.append(f"data files of rounds {res['mismatched_rounds'][:10]} differ from round 0")
    if any(t["digest"] != res["digest"] for t in traced):
        problems.append("data files of a traced process differ from the untraced one")
    outputs_ok = 0 if problems else 1
    attempted = verdict.attempted * res["rounds"]
    failed = verdict.failed * res["rounds"]
    wall_s = sum(min(t) for t in res["times"])

    info = dict(machine_info(), **res["versions"])
    print(f"workload {args.workload}  seed {args.seed}  {len(units)} units, {res['rounds']} "
          f"untraced rounds, {len(traced)} traced ({time.monotonic() - t_start:.1f} s)")
    print("machine " + json.dumps(info, sort_keys=True))
    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"failed_fraction {failed}/{attempted} = {failed / max(attempted, 1):.4g}")

    if args.trace:
        metrics = {name: median([t["layers"][name] for t in traced]) for name in PER_LAYER
                   if not name.startswith("trace.") or name == "trace.spans"}
        metrics["trace.wall_s"] = median([sum(u[0] for u in t["times"]) for t in traced])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        units_of = PER_LAYER
    else:
        metrics = {
            "wall_s": wall_s,
            "impacts_per_s": verdict.impacts / wall_s,
            "setup_s": median(setups),
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
            "outputs_ok": float(outputs_ok),
        }
        units_of = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units_of[name]}")

    results = root / ".bench_work" / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": info,
              "metrics": metrics, "failed": failed, "attempted": attempted, "problems": problems,
              "setup_s": setups, "rounds": res["rounds"], "unit_times": res["times"]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": outputs_ok == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
