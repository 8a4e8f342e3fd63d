"""Span tracing installed from outside the package.

Wrappers replace functions at the names their callers look up (for example
``billiard.elements_from_cartesian`` is the kepler function as billiard sees
it), so the package itself is not modified.  Each call records a span
(name, start, end, parent) in memory; :meth:`Tracer.metrics` folds them into
per-layer figures and :meth:`Tracer.write` dumps them once the run is over.
A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("kepler", "billiard", "delaunay", "perturbed", "cli", "svg")

# (module, attribute, span name): kepler functions are wrapped where the other
# layers import them; every other layer at its own module attribute, which is
# also what calls inside that module resolve to.
WRAPPED = (
    ("billiard", "elements_from_cartesian", "kepler.elements_from_cartesian"),
    ("billiard", "eccentric_of_state", "kepler.eccentric_of_state"),
    ("billiard", "state_at_eccentric", "kepler.state_at_eccentric"),
    ("billiard", "time_to_anomaly", "kepler.time_to_anomaly"),
    ("perturbed", "elements_from_cartesian", "kepler.elements_from_cartesian"),
    ("delaunay", "cartesian_from_elements", "kepler.cartesian_from_elements"),
    ("cli", "cartesian_from_elements", "kepler.cartesian_from_elements"),
    ("cli", "elements_from_cartesian", "kepler.elements_from_cartesian"),
    ("cli", "solve_kepler", "kepler.solve_kepler"),
    ("billiard", "run", "billiard.run"),
    ("billiard", "step", "billiard.step"),
    ("billiard", "next_wall_crossing", "billiard.next_wall_crossing"),
    ("billiard", "invariant_report", "billiard.invariant_report"),
    ("billiard", "R0_from_geometry", "billiard.R0_from_geometry"),
    ("billiard", "R0_from_center", "billiard.R0_from_center"),
    ("billiard", "accessible_interval", "billiard.accessible_interval"),
    ("billiard", "level_set_R", "billiard.level_set_R"),
    ("delaunay", "gamma_series", "delaunay.gamma_series"),
    ("delaunay", "gamma_of", "delaunay.gamma_of"),
    ("delaunay", "quad", "delaunay.quad"),
    ("delaunay", "spread_by_parity", "delaunay.spread_by_parity"),
    ("delaunay", "omega_estimate_of", "delaunay.omega_estimate_of"),
    ("delaunay", "initial_state_on_level", "delaunay.initial_state_on_level"),
    ("delaunay", "conjecture_report", "delaunay.conjecture_report"),
    ("perturbed", "section_ensemble", "perturbed.section_ensemble"),
    ("perturbed", "run_perturbed", "perturbed.run_perturbed"),
    ("perturbed", "integrate_to_wall", "perturbed.integrate_to_wall"),
    ("perturbed", "solve_ivp", "perturbed.solve_ivp"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "finalize_bundle", "cli.finalize_bundle"),
    ("cli", "run_verify_checks", "cli.run_verify_checks"),
)
FIGURE_METHODS = ("polyline", "line", "dot", "marker_plus", "marker_cross", "text", "to_svg")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.arcs: list[tuple[int, int]] = []  # (rhs evaluations, steps) per solve_ivp

    def wrap(self, owner, attr: str, name: str, after=None, rewrite=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``after(result)`` reads counters from a returned value; ``rewrite``
        maps (args, kwargs) before the call.  A raised exception is counted
        under ``<name>.errors`` and re-raised.
        """
        fn = getattr(owner, attr)
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()
            if after is not None:
                after(res)
            return res

        setattr(owner, attr, traced)

    def install(self, modules: dict) -> None:
        counts = self.counts

        def count_integrand(args, kwargs):
            f = args[0]

            def integrand(x):
                counts["integrand"] += 1
                return f(x)

            return (integrand,) + tuple(args[1:]), kwargs

        def on_run(res):
            counts["halts"] += bool(res.halted or res.no_collision)

        def on_ensemble(outcomes):
            counts["failed_seeds"] += sum(1 for o in outcomes if o.error)

        def on_arc(sol):
            self.arcs.append((sol.nfev, len(sol.t) - 1))
            counts["arc_impacts"] += bool(len(sol.t_events[0]))

        def on_bundle(bundle):
            counts["bytes_written"] += sum(f["bytes"] for f in bundle.manifest["files"])
            counts["bytes_written"] += bundle.files[-1].stat().st_size

        def on_svg(text):
            counts["svg_bytes"] += len(text.encode("utf-8"))

        hooks = {
            "billiard.run": {"after": on_run},
            "delaunay.quad": {"rewrite": count_integrand},
            "perturbed.section_ensemble": {"after": on_ensemble},
            "perturbed.solve_ivp": {"after": on_arc},
            "cli.finalize_bundle": {"after": on_bundle},
        }
        for mod, attr, name in WRAPPED:
            self.wrap(modules[mod], attr, name, **hooks.get(name, {}))
        figure = modules["svg"].Figure
        for meth in FIGURE_METHODS:
            self.wrap(figure, meth, "svg." + meth, after=on_svg if meth == "to_svg" else None)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced run of ``wall_s`` seconds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        for i, (nid, t0, t1, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            total[name] += t1 - t0
            self_t[name] += t1 - t0 - child[i]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in self_t.items():
            layer_self[name.split(".")[0]] += s
        c = self.counts

        def per_call(name: str, scale: float = 1e6) -> float:
            return scale * total[name] / calls[name] if calls[name] else 0.0

        steps_ok = calls["billiard.step"] - c["billiard.step.errors"]
        impacts = steps_ok + c["arc_impacts"]
        kepler_calls = sum(n for name, n in calls.items() if name.startswith("kepler."))
        gammas = calls["delaunay.gamma_of"]
        arc_ms = sorted(1e3 * (t1 - t0) for nid, t0, t1, _ in self.spans
                        if self.names[nid] == "perturbed.solve_ivp")
        arc_q = statistics.quantiles(arc_ms, n=10, method="inclusive") if len(arc_ms) > 1 else arc_ms * 9
        n_arcs = len(self.arcs)
        m = {
            "impacts": float(impacts),
            "kepler.calls_per_impact": kepler_calls / impacts if impacts else 0.0,
            "kepler.solve_kepler.us_per_call": per_call("kepler.solve_kepler"),
            "billiard.step.us_per_call": per_call("billiard.step"),
            "billiard.step.self_us": 1e6 * self_t["billiard.step"] / calls["billiard.step"]
            if calls["billiard.step"] else 0.0,
            "billiard.invariant_report.us_per_call": per_call("billiard.invariant_report"),
            "billiard.crossings_per_impact": calls["billiard.next_wall_crossing"] / steps_ok
            if steps_ok else 0.0,
            "billiard.halts": float(c["halts"] + c["billiard.run.errors"]),
            "delaunay.gamma_of.calls": float(gammas),
            "delaunay.gamma_of.us_per_call": per_call("delaunay.gamma_of"),
            "delaunay.quad.calls": float(calls["delaunay.quad"]),
            "delaunay.integrand_evals_per_gamma": c["integrand"] / gammas if gammas else 0.0,
            "delaunay.nan_gamma": float(c["delaunay.gamma_of.errors"]),
            "perturbed.arcs": float(n_arcs),
            "perturbed.arc.ms_p50": arc_q[4] if arc_q else 0.0,
            "perturbed.arc.ms_p90": arc_q[8] if arc_q else 0.0,
            "perturbed.rhs_evals_per_arc": sum(a[0] for a in self.arcs) / n_arcs if n_arcs else 0.0,
            "perturbed.steps_per_arc": sum(a[1] for a in self.arcs) / n_arcs if n_arcs else 0.0,
            "perturbed.failed_seeds": float(c["failed_seeds"]),
            "cli.parse_config.s": total["cli.parse_config"],
            "cli.write_csv.s": total["cli.write_csv"],
            "cli.finalize_bundle.s": total["cli.finalize_bundle"],
            "cli.bytes_written": float(c["bytes_written"]),
            "svg.to_svg.s": total["svg.to_svg"],
            "svg.bytes": float(c["svg_bytes"]),
            "trace.spans": float(len(self.spans)),
        }
        for layer, s in layer_self.items():
            m[f"{layer}.self_s"] = s
            m[f"{layer}.share"] = s / wall_s if wall_s > 0.0 else 0.0
        m["untraced_code.share"] = 1.0 - sum(layer_self.values()) / wall_s if wall_s > 0.0 else 0.0
        return m

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for nid, t0, t1, parent in self.spans:
                fh.write(f"{self.names[nid]},{t0!r},{t1!r},{parent}\n")
