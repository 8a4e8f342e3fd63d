"""Command-line front end: run orchestration and CSV/JSON/SVG serialization.

Subcommands: ``simulate``, ``gamma``, ``section``, ``region``, ``verify``;
the subcommand is the run's mode.  A single JSON document configures a run;
a flag (--out, --n, --g, --seed) overrides the corresponding config field,
and a subcommand offers only the flags of the fields it reads.  Each run
writes its data files plus a manifest listing every emitted file with a
sha256 checksum; floats are serialized with 17 significant digits so
repeated runs are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime/numerical error (a failed write of an output file included).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, billiard, delaunay, perturbed, reference
from .errors import BilliardError, ConfigError, Degenerate, EmptyLevelSet, EmptyRegion
from .kepler import (
    CartesianState,
    OrbitalElements,
    Params,
    cartesian_from_elements,
    elements_from_cartesian,
    solve_kepler,
    wrap_angle,
)
from .svg import Figure

@dataclass
class RunConfig:
    """A decided run, and the document that reproduces it."""

    params: Params
    command: str
    n_collisions: int
    output_dir: Path
    # the states the run starts from (its initial state, or section's drawn
    # seeds) and their twice-energy A; None for verify
    starts: list[CartesianState]
    A: float | None
    # the fields the subcommand reads, the start as the Cartesian state it
    # resolved to; the manifest's config adds mode and output_dir
    echo: dict


@dataclass
class OutputBundle:
    manifest: dict
    files: list[Path]


@dataclass(frozen=True)
class Command:
    """One subcommand.  ``fields`` are the run inputs it reads besides
    "mode" and "output_dir", with the ensemble keys it reads: they alone
    decide its flags, the fields its document may set (any other is a
    configuration error) and its manifest's echo; ``config`` is its
    built-in config; ``compute`` maps a run to its ``{file name: content}``
    and its manifest extras."""

    help: str
    fields: tuple[str, ...]
    config: dict
    compute: Callable[[RunConfig], tuple[dict, dict | None]]


# ---------------------------------------------------------------- config ---


def _expect_number(obj, path: str) -> float:
    # json.loads accepts NaN, Infinity and integers beyond the float range;
    # the comparison is False for all three
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not abs(obj) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {obj!r}")
    return float(obj)


def _expect_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    return obj


def _expect_object(obj, path: str, known: tuple[str, ...]) -> dict:
    """``obj`` as a JSON object whose keys are all in ``known``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config root'}: expected a JSON object")
    for k in obj:
        if k not in known:
            raise ConfigError(f"{path + '.' if path else ''}{k}: unknown config field")
    return obj


def _parse_initial(doc, params: Params, path: str) -> CartesianState:
    """The start state of ``doc``, on or below the wall and off the centre."""
    doc = _expect_object(doc, path, ("cartesian", "elements", "nu"))
    if "cartesian" in doc:
        if "elements" in doc or "nu" in doc:
            raise ConfigError(f"{path}: 'cartesian' excludes 'elements' and 'nu'")
        c = _expect_object(doc["cartesian"], f"{path}.cartesian", ("x", "y", "px", "py", "t"))
        vals = {k: _expect_number(c.get(k, 0.0), f"{path}.cartesian.{k}") for k in ("x", "y", "px", "py", "t")}
        for k in ("x", "y", "px", "py"):
            if k not in c:
                raise ConfigError(f"{path}.cartesian.{k}: required")
        s = CartesianState(**vals)
    elif "elements" in doc:
        e = _expect_object(doc["elements"], f"{path}.elements", ("A", "a", "theta0"))
        for k in ("A", "a", "theta0"):
            if k not in e:
                raise ConfigError(f"{path}.elements.{k}: required")
        try:
            el = OrbitalElements(
                A=_expect_number(e["A"], f"{path}.elements.A"),
                a=_expect_number(e["a"], f"{path}.elements.a"),
                theta0=wrap_angle(_expect_number(e["theta0"], f"{path}.elements.theta0")),
                alpha=params.alpha,
            )
        except ValueError as exc:
            raise ConfigError(f"{path}.elements: {exc}") from exc
        nu = _expect_number(doc.get("nu", 0.0), f"{path}.nu")
        try:
            s = cartesian_from_elements(el, nu)
        except (Degenerate, ArithmeticError) as exc:
            raise ConfigError(f"{path}.elements: {type(exc).__name__}: {exc}") from exc
    else:
        raise ConfigError(f"{path}: need either 'cartesian' or 'elements'")
    # the rule billiard.step applies to the state it starts from
    if s.y > params.h + billiard.TOL_EVENT:
        raise ConfigError(f"{path}: the start lies above the wall (y = {s.y!r} > h = {params.h!r})")
    # r = 0 is the singular point of the potential; below r of about 1e-162
    # the g/r^2 term of the energy divides by r^2 = 0
    if s.r * s.r == 0.0:
        raise ConfigError(f"{path}: the start lies at the attraction centre (r = {s.r:g}, r^2 = 0)")
    return s


def _check_energy(A: float, params: Params, command: str, path: str) -> None:
    """The rules on the twice-energy ``A`` of a run's start.

    ``section`` and ``region`` work on the energy surface, so it must be
    bound and reach the wall; ``simulate`` and ``gamma`` run a start that
    never reaches it as an orbit without collisions.  For every command a
    surface that reaches the wall must meet it in a finite interval (for |A|
    below about 1e-154*alpha the turning radius squared overflows).
    """
    if not math.isfinite(A):
        raise ConfigError(f"{path}: the twice-energy of the start is not finite (A = {A:g})")
    on_surface = command in ("section", "region")
    if A >= 0.0:
        if on_surface:
            raise ConfigError(f"{path}: {command} requires A < 0, got A = {A:g}")
        return  # an unbound start is the run's domain error
    try:
        _, x_max = billiard.accessible_interval(A, params)
    except EmptyRegion as exc:
        if on_surface:
            raise ConfigError(f"{path}: the energy surface of A = {A:g} does not reach "
                              f"the wall ({exc})") from exc
        return
    if not math.isfinite(x_max):
        raise ConfigError(f"{path}: the accessible interval of A = {A:g} on the wall is not finite")


def _ensemble_seeds(energy: float, count: int, seed: int, p: Params) -> list[CartesianState]:
    """Deterministic wall-reaching seeds sharing the twice-energy ``energy``.

    Seeds are drawn as g = 0 ellipses at that energy; for g > 0 the momentum
    magnitude is then rescaled in place so A = p^2 - alpha/r + g/r^2 matches
    exactly on the configured surface.
    """
    rng = np.random.default_rng(seed)
    aM = -p.alpha / (2.0 * energy)
    seeds: list[CartesianState] = []
    guard = 0
    while len(seeds) < count and guard < 1000 * max(count, 1):
        guard += 1
        e = rng.uniform(0.05, 0.9)
        th = rng.uniform(0.0, 2.0 * math.pi)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        a = sign * math.sqrt(0.5 * p.alpha * aM * (1.0 - e * e))
        el = OrbitalElements(A=energy, a=a, theta0=th, alpha=p.alpha)
        if el.max_y() < p.h * (1.0 + 1e-9):
            continue
        for nu in (0.0, math.pi):
            s = cartesian_from_elements(el, nu)
            if s.y >= p.h:
                continue
            if p.g > 0.0:
                r = s.r
                p_sq = energy + p.alpha / r - p.g / (r * r)
                if p_sq <= 0.0 or s.speed_sq == 0.0:
                    continue
                scale = math.sqrt(p_sq / s.speed_sq)
                s = CartesianState(x=s.x, y=s.y, px=s.px * scale, py=s.py * scale, t=s.t)
            seeds.append(s)
            break
    if len(seeds) < count:
        raise ConfigError("ensemble: could not draw enough wall-reaching seeds")
    return seeds


def parse_config(doc: dict, command: str) -> RunConfig:
    """The configuration of a ``command`` run from its JSON document.

    The optional ``mode`` key must name ``command``, so a config written for
    one subcommand cannot run under another.  The document may set only the
    fields ``COMMANDS[command]`` lists, and a run gets exactly one start: an
    ``initial`` state, or for ``section`` and ``region`` an ``ensemble``.
    The states the run starts from (``section`` draws its seeds here) and
    their twice-energy A are decided here too, and so is the run's echo.
    """
    if isinstance(doc, dict) and doc.get("mode", command) != command:
        raise ConfigError(f"mode: this config is for {doc['mode']!r}, not {command!r}")
    fields = COMMANDS[command].fields
    top = tuple(dict.fromkeys(f.partition(".")[0] for f in fields))
    doc = _expect_object(doc, "", ("mode", "output_dir") + top)
    pdoc = _expect_object(doc.get("params", {}), "params", ("alpha", "g", "h"))
    try:
        params = Params(
            alpha=_expect_number(pdoc.get("alpha", 1.0), "params.alpha"),
            g=_expect_number(pdoc.get("g", 0.0), "params.g"),
            h=_expect_number(pdoc.get("h", 1.0), "params.h"),
        )
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc
    n = _expect_int(doc.get("n_collisions", 0), "n_collisions")
    if n < 0:
        raise ConfigError("n_collisions: must be >= 0")
    # every value as decided; the fields the command does not read are dropped below
    echo = {"params": asdict(params), "n_collisions": n}
    ensemble = None
    if doc.get("ensemble") is not None:
        keys = tuple(f[len("ensemble."):] for f in fields if f.startswith("ensemble."))
        e = _expect_object(doc["ensemble"], "ensemble", keys)
        ensemble = echo["ensemble"] = {
            "energy": _expect_number(e.get("energy", -0.5), "ensemble.energy")}
        if "seed" in keys:
            if "seed" not in e:
                raise ConfigError("ensemble.seed: required for reproducibility")
            ensemble["count"] = _expect_int(e.get("count", 4), "ensemble.count")
            ensemble["seed"] = _expect_int(e["seed"], "ensemble.seed")
            if ensemble["count"] < 0:
                raise ConfigError("ensemble.count: must be >= 0")
            if ensemble["seed"] < 0:
                raise ConfigError("ensemble.seed: must be >= 0")
    out = doc.get("output_dir", "out")
    # a NUL byte would fail only when the directory is made
    if not isinstance(out, str) or "\0" in out:
        raise ConfigError(f"output_dir: expected a path string, got {out!r}")
    initial = None
    if doc.get("initial") is not None:
        initial = _parse_initial(doc["initial"], params, "initial")
        echo["initial"] = {"cartesian": asdict(initial)}
    if "initial" in top and (initial is None) == (ensemble is None):
        starts = " or ".join(k for k in ("initial", "ensemble") if k in top)
        raise ConfigError(f"{starts}: {command} needs exactly one start")
    if command == "gamma" and params.g != 0.0:
        raise ConfigError("params.g: gamma requires g = 0")
    A, starts = None, []
    path = "initial" if ensemble is None else "ensemble"
    try:
        if ensemble is not None:
            A = ensemble["energy"]
            _check_energy(A, params, command, "ensemble.energy")
            if command == "section":
                starts = _ensemble_seeds(A, ensemble["count"], ensemble["seed"], params)
        elif initial is not None:
            A, starts = initial.energy_A(params), [initial]
            _check_energy(A, params, command, "initial")
    except ArithmeticError as exc:
        # params so extreme that the energy surface's geometry divides by zero
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from exc
    return RunConfig(params=params, command=command, n_collisions=n, output_dir=Path(out),
                     starts=starts, A=A, echo={k: echo[k] for k in top if k in echo})


# ----------------------------------------------------------- serialization ---


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def finalize_bundle(
    cfg: RunConfig, t_start: float, contents: dict, extra: dict | None = None
) -> OutputBundle:
    """Write the run's files into its output directory, in the order of
    ``contents`` ({file name: content}), then the manifest.  A content is a
    CSV as ``(header, rows)``, a JSON document as a dict, or text; None
    writes no file."""
    contents = {name: c for name, c in contents.items() if c is not None}
    files = [cfg.output_dir / name for name in contents]
    for path, content in zip(files, contents.values()):
        if isinstance(content, tuple):
            write_csv(path, *content)
        else:
            path.write_text(content if isinstance(content, str) else _json(content),
                            encoding="utf-8")
    manifest = {
        "config": {"mode": cfg.command, "output_dir": str(cfg.output_dir), **cfg.echo},
        "versions": {
            "kepler-billiard": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_clock_s": round(time.monotonic() - t_start, 3),
        "files": [
            {"name": f.name, "bytes": f.stat().st_size, "sha256": _sha256(f)}
            for f in files
        ],
    }
    if extra:
        manifest.update(extra)
    out = cfg.output_dir / "manifest.json"
    out.write_text(_json(manifest), encoding="utf-8")
    return OutputBundle(manifest=manifest, files=files + [out])


# ---------------------------------------------------------------- figures ---


def _trajectory_figure(
    samples: np.ndarray,
    events: list[billiard.CollisionEvent],
    p: Params,
    dashed_ellipses: bool,
) -> str:
    xs, ys = samples[:, 1], samples[:, 2]
    pad = 0.4
    xlim = (float(xs.min()) - pad, float(xs.max()) + pad)
    ylim = (float(ys.min()) - pad, max(float(ys.max()), p.h) + pad)
    fig = Figure(xlim, ylim, title="trajectory", xlabel="x", ylabel="y", equal_aspect=True)
    fig.line(fig.xlim[0], p.h, fig.xlim[1], p.h, stroke="#000000", width=1.6)
    if dashed_ellipses:
        # each visited ellipse in full; the traversed arcs are redrawn solid
        E = np.linspace(0.0, 2.0 * math.pi, 512)
        cos_E, sin_E = np.cos(E), np.sin(E)
        seen = set()
        for ev in events:
            for el in (ev.pre, ev.post):
                key = (round(el.a, 12), round(el.theta0, 12))
                if key in seen:
                    continue
                seen.add(key)
                aM, _, b, cx, cy, ux, uy, vx, vy, _ = el.geometry()
                ex = cx + aM * cos_E * ux + b * sin_E * vx
                ey = cy + aM * cos_E * uy + b * sin_E * vy
                fig.polyline(ex, ey, stroke="#999999", width=0.7, dashed=True)
    fig.polyline(xs, ys, stroke="#1f77b4", width=1.2)
    fig.dot(0.0, 0.0, radius=4.0, fill="#000000")
    for ev in events:
        fig.dot(ev.x_impact, p.h, radius=1.6, fill="#d62728")
    return fig.to_svg()


def _delta2_figure(samples: list[delaunay.GammaSample]) -> str | None:
    pts = [(s.n, s.delta2_gamma, s.n % 2) for s in samples if not math.isnan(s.delta2_gamma)]
    if not pts:
        return None
    vals = [v for _, v, _ in pts]
    lo, hi = min(vals), max(vals)
    pad = 0.05 * (hi - lo) if hi > lo else max(1e-12, 1e-6 * abs(hi))
    fig = Figure(
        (0.0, max(n for n, _, _ in pts) + 1.0),
        (lo - pad, hi + pad),
        title="two-collision increment of gamma",
        xlabel="collision index n",
        ylabel="delta2 gamma",
    )
    for n, v, par in pts:
        if par == 0:
            fig.marker_plus(n, v, stroke="#1f77b4")
        else:
            fig.marker_cross(n, v, stroke="#d62728")
    fig.text(fig.width - fig.margin, fig.margin - 10, "+ even n, x odd n", anchor="end", size=11)
    return fig.to_svg()


def _section_figure(
    outcomes: list[perturbed.SeedOutcome], R_values: list[list[float]], A: float, p: Params
) -> str | None:
    g0 = Params(alpha=p.alpha, g=0.0, h=p.h)
    try:
        x_min, x_max = billiard.accessible_interval(A, g0)
    except EmptyRegion:
        return None
    fig = Figure(
        (x_min, x_max),
        (0.0, math.pi),
        title="wall section",
        xlabel="impact abscissa x",
        ylabel="tangent angle lambda",
    )
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2",
               "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e"]
    for i, (out, Rv) in enumerate(zip(outcomes, R_values)):
        if not out.events:
            continue
        color = palette[i % len(palette)]
        R_mean = float(np.mean(Rv))
        try:
            curve = billiard.level_set_R(A, R_mean, g0)
            fig.polyline(curve[:, 0], curve[:, 1], stroke=color, width=0.8, opacity=0.6)
        except EmptyLevelSet:
            pass
        for ev in out.events:
            fig.dot(ev.x_impact, ev.lam, radius=1.3, fill=color)
    return fig.to_svg()


# --------------------------------------------------------------- commands ---


def _event_rows(events, reports):
    for ev, rep in zip(events, reports):
        yield (
            ev.n, ev.t, ev.x_impact, ev.r, ev.lam, ev.post.A,
            ev.pre.a, ev.post.a, ev.pre.theta0, ev.post.theta0,
            rep.R_eq16, rep.R0, rep.R_eq17, rep.residual_identity, rep.bounds_ok,
        )


EVENT_HEADER = [
    "n", "t", "x_impact", "r", "lambda", "A", "a_pre", "a_post",
    "theta0_pre", "theta0_post", "R_eq16", "R0", "R_eq17",
    "residual_identity", "bounds_ok",
]


def _energy_drift(s0: CartesianState, res: billiard.BilliardRun, p: Params) -> dict:
    """H0 and the largest |H - H0| over the samples and the impact states,
    each relative to the sum of the magnitudes of H's three terms there
    (near a pericentre |H0| is far below the round-off of that sum)."""
    H0 = s0.hamiltonian(p)
    _, x, y, px, py = res.samples.T
    r_imp = np.array([ev.r for ev in res.events])
    A_imp = np.array([ev.post.A for ev in res.events])
    r = np.concatenate([np.hypot(x, y), r_imp])
    # an impact state's p^2 is its post elements' (g = 0) A plus alpha/r
    kinetic = 0.5 * np.concatenate([px * px + py * py, A_imp + p.alpha / r_imp])
    # g/r/r, not g/(r*r): r*r overflows far out
    kepler, centrifugal = 0.5 * p.alpha / r, 0.5 * p.g / r / r
    drift = np.abs(kinetic - kepler + centrifugal - H0) / (kinetic + kepler + centrifugal)
    # np.max, so that a NaN is reported rather than skipped
    return {"H0": H0, "max_rel_cumulative": float(np.max(drift))}


def _run_outcome(res: billiard.BilliardRun) -> dict:
    """The manifest fields that say why a run has fewer events than asked:
    ``no_collision`` (null when the orbit reaches the wall) and, when a halt
    stopped it, ``halted``."""
    outcome = {"no_collision": res.no_collision}
    if res.halted:
        outcome["halted"] = res.halted
    return outcome


def cmd_simulate(cfg: RunConfig) -> tuple[dict, dict]:
    s0 = cfg.starts[0]
    res = billiard.run(s0, cfg.n_collisions, cfg.params, samples_per_arc=512)
    events, reports, samples = res.events, res.reports, res.samples
    extra = {**_run_outcome(res), "energy_drift": _energy_drift(s0, res, cfg.params)}
    return {
        "events.csv": (EVENT_HEADER, _event_rows(events, reports)),
        "trajectory.csv": (["t", "x", "y", "px", "py"], samples),
        "trajectory.svg": _trajectory_figure(samples, events, cfg.params,
                                             dashed_ellipses=len(events) <= 64),
    }, extra


def cmd_gamma(cfg: RunConfig) -> tuple[dict, dict]:
    res = billiard.run(cfg.starts[0], cfg.n_collisions, cfg.params)
    samples = delaunay.gamma_series(res.events, cfg.params)
    report: dict = {"n_samples": len(samples)}
    if res.events:
        el0 = res.events[0].post
        L = el0.L
        R = billiard.conserved_R(el0, cfg.params)
        report["L"] = L
        report["R"] = R
        report["R_above_h_alpha"] = R > cfg.params.h * cfg.params.alpha
        report["branch_mismatch_rows"] = [s.n for s in samples if s.branch_mismatch]
        try:
            report["conjectures"] = delaunay.conjecture_report(samples, L, R, cfg.params)
        except BilliardError as exc:
            report["conjectures"] = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "gamma.csv": (["n", "gamma", "delta2_gamma", "eps_observed", "parity"],
                      ((s.n, s.gamma, s.delta2_gamma, s.eps_observed, s.n % 2) for s in samples)),
        "conjecture_report.json": report,
        "delta2_gamma.svg": _delta2_figure(samples),
    }, _run_outcome(res)


def cmd_section(cfg: RunConfig) -> tuple[dict, dict]:
    outcomes = perturbed.section_ensemble(cfg.starts, cfg.n_collisions, cfg.params)
    # the osculating R after each impact, per seed
    R_values = [[billiard.conserved_R(ev.post, cfg.params) for ev in o.events] for o in outcomes]
    scatter = [
        float(np.ptp(Rv) / max(1e-300, abs(np.mean(Rv))))
        for Rv in R_values
        if len(Rv) >= 2
    ]
    extra = {
        "r_value_scatter": float(np.mean(scatter)) if scatter else 0.0,
        "failed_seeds": [
            {"seed_id": i, "error": o.error} for i, o in enumerate(outcomes) if o.error
        ],
    }
    return {
        "section.csv": (
            ["seed_id", "n", "x", "lambda", "R_value"],
            (
                (i, ev.n, ev.x_impact, ev.lam, R)
                for i, (o, Rv) in enumerate(zip(outcomes, R_values))
                for ev, R in zip(o.events, Rv)
            ),
        ),
        "section.svg": _section_figure(outcomes, R_values, cfg.A, cfg.params),
    }, extra


def cmd_region(cfg: RunConfig) -> tuple[dict, dict]:
    # cfg.A is the twice-energy of the state simulate starts from, g/r^2 included
    A = cfg.A
    x_min, x_max = billiard.accessible_interval(A, cfg.params)
    xs = np.linspace(x_min, x_max, 1001)
    rows = []
    for x in xs:
        r = math.hypot(x, cfg.params.h)
        rad = A - cfg.params.g / (r * r) + cfg.params.alpha / r
        if rad < 0.0 and rad > -1e-12:
            rad = 0.0
        if rad < 0.0:
            continue
        b = math.sqrt(rad)
        rows.append((x, b, -b))
    return {"region.csv": (["x", "p_plus", "p_minus"], rows)}, {"A": A, "x_min": x_min, "x_max": x_max}


# ----------------------------------------------------------------- verify ---

# verify checks in report order: name -> (kind, threshold).  A "max" check
# passes when the measured value stays at or below its threshold, a "min"
# check when it reaches it; either way the reported margin is >= 0 exactly
# when the check passes.
VERIFY_CHECKS = {
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


def _passes(kind: str, threshold: float, measured: float) -> bool:
    """The verdict of one check (NaN fails either kind)."""
    return bool(measured >= threshold if kind == "min" else measured <= threshold)


def run_verify_checks() -> dict[str, float]:
    """The built-in invariant suite over the reference configurations:
    the measured value of each check in ``VERIFY_CHECKS``."""
    m: dict[str, float] = {}
    p = reference.reference_params()

    # Kepler residual over the (e, M) grid
    worst = 0.0
    for e in np.linspace(0.0, 0.99, 34):
        for M in np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False):
            E = solve_kepler(float(M), float(e))
            worst = max(worst, abs(E - e * math.sin(E) - M))
    m["kepler_residual"] = worst

    # element round trip on random valid elements
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(10_000):
        A = -rng.uniform(0.1, 2.0)
        e = rng.uniform(0.01, 0.95)
        th = rng.uniform(0.0, 2.0 * math.pi)
        sgn = 1.0 if rng.uniform() < 0.5 else -1.0
        aM = -p.alpha / (2.0 * A)
        el = OrbitalElements(
            A=A, a=sgn * math.sqrt(0.5 * p.alpha * aM * (1.0 - e * e)), theta0=th, alpha=p.alpha
        )
        nu = rng.uniform(0.0, 2.0 * math.pi)
        s = cartesian_from_elements(el, nu)
        el2 = elements_from_cartesian(s, p)
        s2 = cartesian_from_elements(el2, nu)
        worst = max(
            worst,
            abs(s2.x - s.x), abs(s2.y - s.y), abs(s2.px - s.px), abs(s2.py - s.py),
        )
    m["roundtrip"] = worst

    # Theorem 1 over 10^4 collisions of the conservation reference
    res = billiard.run(reference.conservation_state(), 10_000, p)
    R = np.array([rep.R_eq16 for rep in res.reports])
    Av = np.array([ev.post.A for ev in res.events])
    m["theorem1_R_drift"] = float(np.ptp(R) / abs(R[0]))
    m["theorem1_A_drift"] = float(np.ptp(Av) / abs(Av[0]))
    m["identity_eq16_eq17"] = max(
        rep.residual_identity / max(1.0, abs(rep.R_eq16)) for rep in res.reports
    )
    m_eq = m_refl = 0.0
    for ev in res.events:
        R0g = billiard.R0_from_geometry(ev.r, ev.pre.aM, ev.lam)
        c_pre = billiard.R0_from_center(ev.pre, p)
        c_post = billiard.R0_from_center(ev.post, p)
        m_eq = max(m_eq, abs(R0g - c_pre), abs(R0g - c_post))
        m_refl = max(m_refl, abs(c_pre - c_post))
    m["lemma1_equivalence"] = m_eq
    m["lemma1_reflection"] = m_refl
    m["eq110_box_violations"] = float(sum(0 if rep.bounds_ok else 1 for rep in res.reports))

    # conjecture 2 statistics on the gamma reference
    s0 = reference.gamma_state()
    res_g = billiard.run(s0, 1100, p)
    samples = delaunay.gamma_series(res_g.events, p)
    m["conjecture2_mismatches"] = float(sum(1 for s in samples if s.branch_mismatch))
    m["conjecture2_spread_even"], m["conjecture2_spread_odd"] = delaunay.spread_by_parity(samples)

    # oracle equivalence on the rotation-regime orbit: its first 100 events
    events_ode, _ = perturbed.run_perturbed(s0, 100, p)
    m["oracle_impacts"] = max(
        abs(a.x_impact - b.x_impact) for a, b in zip(events_ode, res_g.events[:100])
    )
    state = s0
    worst = 0.0
    for k in range(30):
        nxt, ev = billiard.step(state, p, n=k)
        hit, _ = perturbed.integrate_to_wall(state, p)
        worst = max(worst, abs(hit.x - ev.x_impact))
        state = nxt
    m["oracle_arc"] = worst

    # anisochrony: omega at R vs R*(1+1e-3)
    L, R_lvl = reference.gamma_level()
    om1, e1 = delaunay.omega_estimate_of(samples)
    om2, e2 = delaunay.omega_of_level(L, R_lvl * (1.0 + 1e-3), p, 600)
    noise = math.hypot(e1, e2)
    m["anisochrony_ratio"] = abs(om2 - om1) / noise if noise > 0.0 else math.inf

    # perturbation sensitivity at g = 0.05
    pg = reference.reference_params(g=reference.PERTURBATION_G)
    events_p, m["perturbation_H_arc"] = perturbed.run_perturbed(
        reference.conservation_state(), 1000, pg
    )
    Rv = np.array([billiard.conserved_R(ev.post, p) for ev in events_p])
    m["perturbation_R_drift"] = float(np.ptp(Rv) / abs(Rv[0]))
    return m


def cmd_verify(cfg: RunConfig) -> tuple[dict, dict]:
    measured = run_verify_checks()
    rows = [
        (name, kind, thr, measured[name], _passes(kind, thr, measured[name]))
        for name, (kind, thr) in VERIFY_CHECKS.items()
    ]
    report = {
        "all_passed": all(ok for *_, ok in rows),
        "checks": [
            {
                "name": name,
                "kind": kind,
                "threshold": thr,
                "measured": m,
                "pass": ok,
                "margin": m - thr if kind == "min" else thr - m,
            }
            for name, kind, thr, m, ok in rows
        ],
    }
    return {
        "verify_checks.csv": (["name", "kind", "threshold", "measured", "pass"], rows),
        "verify_report.json": report,
    }, {"all_passed": report["all_passed"]}


REFERENCE_PARAMS = asdict(reference.reference_params())
COMMANDS = {
    "simulate": Command(
        "propagate a trajectory and emit events",
        ("params", "initial", "n_collisions"),
        {"params": REFERENCE_PARAMS, "n_collisions": 12,
         "initial": {"cartesian": asdict(reference.conservation_state())}},
        cmd_simulate,
    ),
    "gamma": Command(
        "per-collision gamma series and conjecture statistics",
        ("params", "initial", "n_collisions"),
        {"params": REFERENCE_PARAMS, "n_collisions": 1100,
         "initial": {"cartesian": asdict(reference.gamma_state())}},
        cmd_gamma,
    ),
    "section": Command(
        "wall-section clouds for an ensemble of seeds",
        ("params", "initial", "n_collisions", "ensemble.count", "ensemble.seed", "ensemble.energy"),
        {"params": REFERENCE_PARAMS, "n_collisions": 150,
         "ensemble": {"count": 6, "seed": 20250810, "energy": reference.GAMMA_A}},
        cmd_section,
    ),
    "region": Command(
        "accessible-region boundary on the wall",
        ("params", "initial", "ensemble.energy"),
        {"params": REFERENCE_PARAMS, "ensemble": {"energy": reference.CONSERVATION_A}},
        cmd_region,
    ),
    "verify": Command("run the built-in invariant suite", (), {}, cmd_verify),
}


def run_command(cfg: RunConfig) -> OutputBundle:
    """Make the run's output directory, compute its subcommand and write the
    files and the manifest.  An output path that cannot be a directory (an
    existing file, or a path below one) is a configuration error."""
    t_start = time.monotonic()
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: {exc}") from exc
    return finalize_bundle(cfg, t_start, *COMMANDS[cfg.command].compute(cfg))


# ------------------------------------------------------------------- main ---


def default_config(command: str) -> dict:
    """A fresh copy of ``command``'s built-in config: the flags write into it."""
    return copy.deepcopy(COMMANDS[command].config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kepler-billiard",
        description="Kepler billiard against an elastic wall: simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", type=Path, help="JSON config file")
        sp.add_argument("--out", type=Path, help="output directory")
        # a flag only where the subcommand reads the field it sets
        if "n_collisions" in command.fields:
            sp.add_argument("--n", type=int, help="override n_collisions")
        if "params" in command.fields:
            sp.add_argument("--g", type=float, help="override centrifugal coefficient g")
        if "ensemble.seed" in command.fields:
            sp.add_argument("--seed", type=int, help="override ensemble seed")
    return parser


def _apply_flags(doc: dict, args: argparse.Namespace) -> dict:
    # the flags write into the document before parse_config checks it; a
    # flag the subcommand does not register is absent from args
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    if getattr(args, "n", None) is not None:
        doc["n_collisions"] = args.n
    if getattr(args, "g", None) is not None:
        params = doc.setdefault("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params: expected a JSON object")
        params["g"] = args.g
    if getattr(args, "seed", None) is not None:
        if not isinstance(doc.get("ensemble"), dict):
            raise ConfigError("--seed: no ensemble in this configuration")
        doc["ensemble"]["seed"] = args.seed
    if args.out is not None:
        doc["output_dir"] = str(args.out)
    return doc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"--config: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise ConfigError(f"--config: not UTF-8 text: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--config: invalid JSON: {exc}") from exc
            except RecursionError as exc:
                raise ConfigError("--config: JSON nested deeper than the recursion limit") from exc
        else:
            doc = default_config(args.command)
        doc = _apply_flags(doc, args)
        cfg = parse_config(doc, args.command)
        manifest = run_command(cfg).manifest
        n_files = len(manifest["files"])
        if "all_passed" in manifest:
            status = "PASS" if manifest["all_passed"] else "FAIL"
            print(f"verify: {status} ({n_files} files in {cfg.output_dir})")
        else:
            print(f"{args.command}: wrote {n_files} files to {cfg.output_dir}")
        if "failed_seeds" in manifest:
            failed = len(manifest["failed_seeds"])
            print(f"section: {failed} of {len(cfg.starts)} seeds failed"
                  + (" (errors under failed_seeds in manifest.json)" if failed else ""))
        return 0 if manifest.get("all_passed", True) else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BilliardError, ArithmeticError, OSError) as exc:
        # an OSError here is a failed write of an output file; the files
        # written before it stay
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
