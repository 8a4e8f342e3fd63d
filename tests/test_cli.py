import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kepler_billiard import billiard, cli, delaunay
from kepler_billiard.errors import ConfigError
from kepler_billiard.kepler import OrbitalElements, Params, cartesian_from_elements

ROOT = Path(__file__).resolve().parent.parent


def base_doc(tmp_path, **extra):
    doc = {
        "params": {"alpha": 1.0, "g": 0.0, "h": 1.0},
        "mode": "simulate",
        "n_collisions": 20,
        "initial": {
            "elements": {"A": -0.5, "a": math.sqrt(0.32), "theta0": 1.2},
            "nu": 0.0,
        },
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(extra)
    return doc


# the reference ellipse of base_doc, a start above the wall and an ensemble
ELEMENTS_REF = {"elements": {"A": -0.5, "a": math.sqrt(0.32), "theta0": 1.2}, "nu": 0.0}
ABOVE_WALL = {"cartesian": {"x": 2.56, "y": 2.44, "px": -0.3, "py": -0.3}}
AT_CENTRE = {"cartesian": {"x": 0.0, "y": 0.0, "px": 0.3, "py": 0.1}}
ENSEMBLE = {"count": 1, "seed": 0, "energy": -0.3}
REGION_ENSEMBLE = {"energy": -0.3}  # region reads only the energy
# A = 0.01 - 1/0.3: the turning radius 1/|A| = 0.3009 lies below the wall
OFF_WALL = {"cartesian": {"x": 0.0, "y": -0.3, "px": 0.1, "py": 0.0}}
# the surface of A = -0.99 reaches the wall at r = 1.0101, but no ellipse with
# e <= 0.9 that section draws on it does
UNDRAWABLE = {"count": 2, "seed": 1, "energy": -0.99}


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_unknown_field_path(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            cli.parse_config({"bogus": 1}, "simulate")
        # a misspelt key at any depth is an error, not a silent default
        cartesian = {"x": 0.0, "y": -1.0, "px": 0.5, "py": 0.0}
        for doc, path in [
            ({"params": {"gg": 0.3}}, "params.gg"),
            ({"initial": {"cartesian": cartesian, "nuu": 0.0}}, "initial.nuu"),
            ({"initial": {"cartesian": {**cartesian, "z": 1.0}}}, "initial.cartesian.z"),
            ({"initial": {"elements": {"A": -0.5, "a": 0.5, "theta0": 1.0, "e": 0.1}}},
             "initial.elements.e"),
        ]:
            with pytest.raises(ConfigError, match=f"^{path}: unknown config field"):
                cli.parse_config(base_doc(tmp_path, **doc), "simulate")
        with pytest.raises(ConfigError, match="^ensemble.energie: unknown config field"):
            cli.parse_config({"ensemble": {"seed": 1, "energie": -0.9}}, "section")

    def test_unknown_tolerance_path(self, tmp_path, capsys):
        # the numerical settings are module constants: any tolerances
        # document, a verify check name included, is an unknown field
        for tol in ({}, {"rel_tol": 1e-12}, {"tol_graze": 1e-10}, {"theorem1_R_drift": 1.0}):
            with pytest.raises(ConfigError, match="tolerances: unknown config field"):
                cli.parse_config({"mode": "verify", "tolerances": tol}, "verify")
            f = tmp_path / "v.json"
            f.write_text(json.dumps({"mode": "verify", "tolerances": tol}))
            assert cli.main(["verify", "--config", str(f), "--out", str(tmp_path / "v")]) == 2
            assert "configuration error" in capsys.readouterr().err
            assert not (tmp_path / "v").exists()

    def test_committed_configs_parse(self):
        configs = sorted((ROOT / "configs").glob("*.json"))
        assert configs
        for path in configs:
            doc = json.loads(path.read_text())
            assert cli.parse_config(doc, doc["mode"]).command == doc["mode"]

    def test_bad_mode(self, tmp_path, capsys):
        # the optional mode key must name the subcommand that reads the config
        for mode in ("warp", "exact-g0", "perturbed", "gamma"):
            with pytest.raises(ConfigError, match="^mode: "):
                cli.parse_config({"mode": mode}, "simulate")
        for command, config in (("verify", "gamma_rotation.json"), ("simulate", "section_sweep.json"),
                                ("gamma", "reference_g0.json"), ("region", "perturbed_g005.json")):
            out = tmp_path / command
            assert cli.main([command, "--config", str(ROOT / "configs" / config), "--out", str(out)]) == 2
            assert "configuration error: mode: " in capsys.readouterr().err
            assert not out.exists()

    def test_bad_param_value(self):
        with pytest.raises(ConfigError, match="params"):
            cli.parse_config({"params": {"alpha": -1.0}}, "simulate")

    def test_ensemble_requires_seed(self):
        with pytest.raises(ConfigError, match="ensemble.seed"):
            cli.parse_config({"ensemble": {"count": 3, "energy": -0.5}}, "section")

    def test_initial_requires_fields(self):
        with pytest.raises(ConfigError, match="initial.cartesian.px"):
            cli.parse_config({"initial": {"cartesian": {"x": 1.0, "y": 0.0, "py": 1.0}}}, "simulate")
        cartesian = {"x": 0.0, "y": -1.0, "px": 0.5, "py": 0.0}
        elements = {"A": -0.5, "a": 0.5, "theta0": 1.0}
        for initial in ({"cartesian": cartesian, "elements": elements},
                        {"cartesian": cartesian, "nu": 2.0}):
            with pytest.raises(ConfigError, match="'cartesian' excludes"):
                cli.parse_config({"initial": initial}, "simulate")

    def test_missing_initial_reported(self, tmp_path):
        doc = base_doc(tmp_path)
        del doc["initial"]
        with pytest.raises(ConfigError, match="^initial: simulate needs exactly one start"):
            cli.parse_config(doc, "simulate")

    def test_bad_ensemble_numbers(self):
        for ensemble, path in (({"seed": 1, "energy": math.inf}, "ensemble.energy"),
                               ({"seed": -1, "energy": -0.5}, "ensemble.seed"),
                               ({"seed": 1, "count": -1}, "ensemble.count")):
            with pytest.raises(ConfigError, match=f"^{path}: "):
                cli.parse_config({"ensemble": ensemble}, "section")

    def test_start_on_or_below_the_wall(self):
        # the wall tolerance billiard.step allows a start, and nothing more
        for y, ok in ((1.0 + 1e-12, True), (1.0 + 2e-12, False)):
            doc = {"initial": {"cartesian": {"x": 0.5, "y": y, "px": 0.1, "py": -0.5}}}
            if ok:
                assert cli.parse_config(doc, "simulate").starts[0].y == y
            else:
                with pytest.raises(ConfigError, match="^initial: the start lies above the wall"):
                    cli.parse_config(doc, "simulate")

    def test_start_resolved_once(self, tmp_path):
        # both forms of initial resolve to one Cartesian state, whatever g
        doc = base_doc(tmp_path, params={"alpha": 1.0, "g": 0.05, "h": 1.0})
        cfg = cli.parse_config(doc, "simulate")
        el = doc["initial"]["elements"]
        expected = cartesian_from_elements(
            OrbitalElements(A=el["A"], a=el["a"], theta0=el["theta0"]), 0.0)
        assert cfg.starts == [expected]
        # a near-radial ellipse cannot carry a start
        doc["initial"]["elements"]["a"] = 1e-9
        with pytest.raises(ConfigError, match="^initial.elements: Degenerate: "):
            cli.parse_config(doc, "simulate")

    def test_radial_elements_refused_as_a_run_refuses_them(self, tmp_path, capsys):
        # a radial ellipse is refused by check_not_radial, with the text a
        # run that meets one halts with
        doc = base_doc(tmp_path)
        doc["initial"]["elements"]["a"] = 0.0
        config = tmp_path / "radial.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == ("configuration error: initial.elements: Degenerate: "
                                           "eccentricity 1 too close to 1 (radial orbit)\n")
        assert not (tmp_path / "out").exists()

    def test_negative_n(self):
        with pytest.raises(ConfigError, match="n_collisions"):
            cli.parse_config({"n_collisions": -1}, "simulate")

    def test_run_decided_in_parse_config(self, tmp_path):
        # the starts and their A: section's drawn seeds, or the initial state
        cfg = cli.parse_config({"ensemble": {"count": 3, "seed": 11, "energy": -0.5}}, "section")
        assert len(cfg.starts) == 3 and cfg.A == -0.5
        assert all(s.energy_A(cfg.params) == pytest.approx(-0.5, abs=1e-12) for s in cfg.starts)
        cfg = cli.parse_config(base_doc(tmp_path), "simulate")
        assert len(cfg.starts) == 1 and cfg.A == cfg.starts[0].energy_A(cfg.params)
        cfg = cli.parse_config({"ensemble": {"energy": -0.5}}, "region")
        assert cfg.starts == [] and cfg.A == -0.5
        # a seed draw that fails is a configuration error like any other
        with pytest.raises(ConfigError, match="^ensemble: could not draw enough wall-reaching seeds"):
            cli.parse_config({"ensemble": UNDRAWABLE}, "section")


def generic_cell(v) -> str:
    """The form of one cell by its kind, a numpy scalar as its Python value:
    the oracle of the column formatter."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return "" if math.isnan(v) else format(v, ".17g")


CELLS = [True, False, 0, 1, -7, 2**70, np.int64(-3), np.int64(2**62), 0.1, -0.0, 0.0,
         1e-320, 1e300, math.inf, -math.inf, math.nan, np.float64(0.1), np.float64(-0.0),
         np.float64(math.nan), np.float64(-math.inf), np.bool_(True), "", "abc"]


class TestFmtCell:
    """The cell forms, written by kind of column: a numpy scalar's cell as a
    one-cell array column of its dtype."""

    @pytest.mark.parametrize("v", CELLS, ids=repr)
    def test_matches_generic_rule(self, v):
        col = np.array([v]) if isinstance(v, np.generic) else [v]
        assert cli._cells(col) == [generic_cell(v)]

    def test_written_forms(self):
        assert cli._cells([True, False]) == ["true", "false"]
        assert cli._cells([0, 1, -7, 2**70]) == ["0", "1", "-7", "1180591620717411303424"]
        assert cli._cells([0.1, -0.0, 1e-320, 1e300, math.inf, -math.inf, math.nan]) == [
            "0.10000000000000001", "-0", "9.9998886718268301e-321", "1.0000000000000001e+300",
            "inf", "-inf", ""]
        assert cli._cells(np.array([0.1, math.nan, -math.inf])) == ["0.10000000000000001", "", "-inf"]
        assert cli._cells(np.array([-3, 2**62])) == ["-3", "4611686018427387904"]
        assert cli._cells(["", "abc"]) == ["", "abc"]
        # a lone np.bool_ cell wrote 1; a numpy bool column is a bool column
        assert cli._cells(np.array([True, False])) == ["true", "false"]

    @given(xs=st.lists(st.floats(allow_subnormal=True)),
           ns=st.lists(st.integers(-(2**63), 2**63 - 1)))
    def test_array_columns_write_their_lists(self, xs, ns):
        # a float64 or int64 array column writes what its .tolist() writes,
        # and each float cell reads back as its double (a NaN as empty)
        cells = cli._cells(np.array(xs, dtype=np.float64))
        assert cells == cli._cells(xs) == [generic_cell(x) for x in xs]
        for x, c in zip(xs, cells):
            assert (c == "") if math.isnan(x) else (float(c).hex() == x.hex())
        assert cli._cells(np.array(ns, dtype=np.int64)) == cli._cells(ns) == [str(n) for n in ns]

    def test_table_of_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        data = cli.write_csv(path, ["n", "x", "ok", "s"],
                             [np.arange(2), [0.5, math.nan], [True, False], ["a", "b"]])
        assert data == path.read_bytes() == b"n,x,ok,s\n0,0.5,true,a\n1,,false,b\n"

    def test_table_without_rows_writes_its_header(self, tmp_path):
        path = tmp_path / "t.csv"
        assert cli.write_csv(path, ["t", "x"], [np.zeros(0), []]) == path.read_bytes() == b"t,x\n"

    @pytest.mark.parametrize("columns", [[[1, 2], [0.5]], [[], [0.5]], [[1, 2]]],
                             ids=["short column", "empty column", "header field without column"])
    def test_unequal_columns_raise(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            cli.write_csv(path, ["a", "b"], columns)
        assert not path.exists()

    @pytest.mark.parametrize("col", [[1, 2.0], [True, 1], [0.5, "0.5"], [0.5, np.float64(1.5)],
                                     [np.int64(1)], [None]], ids=repr)
    def test_column_of_mixed_kinds_raises(self, tmp_path, col):
        path = tmp_path / "t.csv"
        with pytest.raises(TypeError, match="^a column holds one kind of cell"):
            cli.write_csv(path, ["a"], [col])
        assert not path.exists()


def subparsers():
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


# each subcommand's options as the parser registers them, help aside
OPTIONS = {name: [s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help")]
           for name, sp in subparsers().choices.items()}


def readme_flag_table():
    """README's ``| subcommand | fields | flags |`` table: the flags of each
    subcommand."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    table = {}
    for line in lines[lines.index("| subcommand | fields | flags |") + 2:]:
        if not line.startswith("|"):
            break
        name, _, flags = line.strip("|").split("|")
        table[name.strip().strip("`")] = re.findall(r"`(--[a-z]+)`", flags)
    return table


class TestCommandTable:
    def test_parser_offers_the_table(self):
        sub = subparsers()
        assert list(sub.choices) == list(cli.COMMANDS)
        assert {a.dest: a.help for a in sub._choices_actions} == {
            name: c.help for name, c in cli.COMMANDS.items()}
        for name in cli.COMMANDS:
            assert cli.parse_config(cli.default_config(name), name).command == name

    def test_builtin_config_is_fresh_per_call(self, tmp_path):
        # the flags write into the document: one run's --g and --seed must
        # not reach the next run's built-in config
        before = {name: cli.default_config(name) for name in cli.COMMANDS}
        assert cli.main(["section", "--out", str(tmp_path / "s"), "--n", "1", "--g", "0.01",
                         "--seed", "3"]) == 0
        assert {name: cli.default_config(name) for name in cli.COMMANDS} == before

    def test_main_reuses_one_parser(self, tmp_path, monkeypatch):
        # the parser is built once per process; a flag of one call does not
        # reach the next
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert cli.main(["region", "--out", str(tmp_path / "r")]) == 0
        assert cli.PARSER.parse_args(["section", "--n", "3", "--seed", "4"]).n == 3
        args = cli.PARSER.parse_args(["section"])
        assert args.n is None and args.seed is None

    def test_flags_follow_the_fields(self):
        # the fields of a subcommand's row decide its flags: --config and
        # --out always, and the flag of each field it reads
        flag_of = {"n_collisions": "--n", "params": "--g", "ensemble.seed": "--seed"}
        for name, command in cli.COMMANDS.items():
            implied = [flag for f, flag in flag_of.items() if f in command.fields]
            assert sorted(OPTIONS[name]) == sorted(["--config", "--out", *implied]), name

    def test_readme_lists_the_parser_flags(self):
        # the flag table of README's Command line section, against the parser
        assert {name: sorted(flags) for name, flags in readme_flag_table().items()} == {
            name: sorted(o for o in options if o != "--config") for name, options in OPTIONS.items()}

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--seed"), ("gamma", "--seed"), ("region", "--n"), ("region", "--seed"),
        ("verify", "--n"), ("verify", "--g"), ("verify", "--seed"),
    ], ids=lambda v: v.lstrip("-"))
    def test_unread_flag_is_unrecognized(self, tmp_path, capsys, monkeypatch, command, flag):
        # a flag for a field the subcommand does not read fails in the
        # parser: exit 2, and nothing is written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_verify_checks", lambda: pytest.fail("verify ran"))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(tmp_path / "o"), flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# JSON values as json.loads returns them: NaN, +-Infinity and integers beyond
# the float range included
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -(10**400)]),
    st.floats(), st.text(max_size=6),
)
JSON_ANY = st.recursive(
    JSON_LEAF,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


def mostly(good, *bad):
    """``good`` nine times in ten, else one of ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: good if i < 9 else st.one_of(*bad))


COMMANDS = ("simulate", "gamma", "section", "region", "verify")
# besides moderate numbers, the magnitudes at which the geometry of the
# energy surface (alpha^2, 1/|A|, r^2) overflows or underflows
MAGNITUDES = st.sampled_from([float(f"{sign}1e{k}") for sign in ("", "-")
                              for k in (147, 154, 200, 300, -147, -154, -200, -300)])
NUMBER = mostly(st.floats(-3.0, 3.0) | st.integers(-3, 3) | MAGNITUDES, JSON_ANY)


def json_object(fields):
    """Objects over the known ``fields``, mostly well formed: a value is
    usually from its field's strategy, else any JSON value; an object
    sometimes carries a junk key or is not an object at all."""
    known = st.fixed_dictionaries({}, optional={k: mostly(v, JSON_ANY) for k, v in fields.items()})
    junk = st.dictionaries(st.text(max_size=6), JSON_ANY, min_size=1, max_size=1)
    with_junk = st.tuples(known, junk).map(lambda kj: {**kj[1], **kj[0]})
    return mostly(known, with_junk, JSON_ANY)


CONFIG_DOCS = json_object({
    "params": json_object({"alpha": NUMBER, "g": NUMBER, "h": NUMBER}),
    "mode": st.sampled_from(COMMANDS),
    "n_collisions": st.integers(-2, 5),
    "initial": json_object({
        "cartesian": json_object({k: NUMBER for k in ("x", "y", "px", "py", "t")}),
        "elements": json_object({"A": NUMBER, "a": NUMBER, "theta0": NUMBER}),
        "nu": NUMBER,
    }),
    "ensemble": json_object({
        "count": st.integers(-2, 5), "seed": st.integers(-2, 2**64), "energy": NUMBER,
    }),
    "output_dir": st.text(max_size=8),
})

# parse_config let a ZeroDivisionError out of the energy check or the seed draw
DIVIDES_BY_ZERO = {
    "region": {"params": {"alpha": 1e300}, "ensemble": {"energy": -1e147}},
    "section": {"params": {"alpha": 1e-300, "h": 1e-300}, "n_collisions": 1,
                "ensemble": {"count": 2, "seed": 1, "energy": -0.5}},
    "simulate": {"params": {"alpha": 1e300, "g": 1.0, "h": 1.0}, "n_collisions": 1,
                 "initial": {"cartesian": {"x": 3.0, "y": -0.5, "px": -1e-147, "py": 1e10}}},
    "gamma": {"params": {"alpha": 1e200, "g": 0.0, "h": 1.0}, "n_collisions": 1,
              "initial": {"elements": {"A": -1e300, "a": -1e10, "theta0": 4.0}, "nu": 3.0}},
}


# numbers whose magnitude runs from 1e-300 to 1e300, and moderate ones
POSITIVE = st.floats(-300.0, 300.0).map(lambda k: 10.0 ** k) | st.floats(0.1, 3.0)
REAL = st.tuples(st.sampled_from([1.0, -1.0]), POSITIVE).map(lambda sm: sm[0] * sm[1]) | st.just(0.0)
NEGATIVE = POSITIVE.map(lambda v: -v)
# a strategy for each field a subcommand may read (COMMANDS[...].fields)
FIELD_VALUES = {
    "params": st.fixed_dictionaries({}, optional={
        "alpha": POSITIVE, "g": st.just(0.0) | POSITIVE, "h": POSITIVE}),
    "initial": st.fixed_dictionaries({"cartesian": st.fixed_dictionaries(
        {k: REAL for k in ("x", "y", "px", "py")}, optional={"t": REAL})})
    | st.fixed_dictionaries({"elements": st.fixed_dictionaries(
        {"A": NEGATIVE, "a": REAL, "theta0": REAL})}, optional={"nu": REAL}),
    "n_collisions": st.integers(0, 3),
    "ensemble.count": st.integers(0, 3),
    "ensemble.seed": st.integers(0, 2**32),
    "ensemble.energy": NEGATIVE,
}


def well_formed(command):
    """Documents that pass every shape rule of ``command``: only the fields
    its ``COMMANDS`` row names, each of its type and sign, and exactly one
    start, so that a draw goes on to the energy check and the seed draw."""
    fields = cli.COMMANDS[command].fields
    top = {f: FIELD_VALUES[f] for f in fields if "." not in f and f != "initial"}
    ensemble = {f.partition(".")[2]: FIELD_VALUES[f] for f in fields if f.startswith("ensemble.")}
    starts = [st.fixed_dictionaries({"initial": FIELD_VALUES["initial"]})] if "initial" in fields else []
    if ensemble:
        starts.append(st.fixed_dictionaries({"ensemble": st.fixed_dictionaries(ensemble)}))
    start = st.one_of(*starts) if starts else st.just({})
    return st.tuples(st.fixed_dictionaries(top), start).map(lambda ts: {**ts[0], **ts[1]})


class TestConfigFuzz:
    @example(doc=DIVIDES_BY_ZERO["region"], command="region")
    @example(doc=DIVIDES_BY_ZERO["section"], command="section")
    @example(doc=DIVIDES_BY_ZERO["simulate"], command="simulate")
    @example(doc=DIVIDES_BY_ZERO["gamma"], command="gamma")
    @settings(max_examples=500, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=CONFIG_DOCS, command=st.sampled_from(COMMANDS))
    def test_parse_config_returns_or_raises_config_error(self, doc, command):
        try:
            cfg = cli.parse_config(doc, command)
        except ConfigError:
            return
        assert isinstance(cfg, cli.RunConfig)

    # shaped draws reach the energy check and the seed draw by themselves:
    # with parse_config's ArithmeticError guard removed, this property
    # fails on a ZeroDivisionError of accessible_interval
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command_doc=st.sampled_from(COMMANDS).flatmap(
        lambda c: st.tuples(st.just(c), well_formed(c))))
    def test_well_formed_documents_return_or_raise_config_error(self, command_doc):
        command, doc = command_doc
        try:
            cfg = cli.parse_config(doc, command)
        except ConfigError:
            return
        assert isinstance(cfg, cli.RunConfig)


class TestSimulate:
    def test_zero_collisions_headers_and_initial_row(self, tmp_path):
        cfg = cli.parse_config(base_doc(tmp_path, n_collisions=0), "simulate")
        cli.run_command(cfg)
        header, rows = read_csv(cfg.output_dir / "events.csv")
        assert header == cli.EVENT_HEADER
        assert rows == []
        t_header, t_rows = read_csv(cfg.output_dir / "trajectory.csv")
        assert t_header == ["t", "x", "y", "px", "py"]
        assert len(t_rows) == 1

    def test_events_schema_and_R_column(self, tmp_path):
        cfg = cli.parse_config(base_doc(tmp_path, n_collisions=100), "simulate")
        cli.run_command(cfg)
        header, rows = read_csv(cfg.output_dir / "events.csv")
        assert header == cli.EVENT_HEADER
        assert len(rows) == 100
        R = np.array([float(r[header.index("R_eq16")]) for r in rows])
        assert np.ptp(R) / abs(R[0]) < 1e-9
        assert all(r[header.index("bounds_ok")] == "true" for r in rows)

    def test_perturbed_cumulative_energy_drift(self, tmp_path):
        doc = base_doc(tmp_path, n_collisions=20)
        doc["params"]["g"] = 0.05
        cfg = cli.parse_config(doc, "simulate")
        bundle = cli.run_command(cfg)
        drift = bundle.manifest["energy_drift"]
        assert set(drift) == {"H0", "max_rel_cumulative"}
        assert drift["max_rel_cumulative"] <= 1e-12
        _, rows = read_csv(cfg.output_dir / "events.csv")
        _, samples = read_csv(cfg.output_dir / "trajectory.csv")
        assert len(rows) == 20 and len(samples) == 20 * 512
        # the samples start at the initial state and stay below the wall
        s0 = cfg.starts[0]
        assert [float(v) for v in samples[0]] == pytest.approx([0.0, s0.x, s0.y, s0.px, s0.py], abs=1e-14)
        assert max(float(r[2]) for r in samples) <= 1.0 + 1e-12

    def test_g0_energy_drift_is_not_round_off(self, tmp_path):
        # the arc after impact 17 has e = 0.99993: at its pericentre the terms
        # of H are about 6e3 and cancel to H0 = -0.25, so |H - H0|/|H0|
        # read 5.2e-8 there; relative to the terms the exact flow is exact
        cfg = cli.parse_config(base_doc(tmp_path, n_collisions=20), "simulate")
        drift = cli.run_command(cfg).manifest["energy_drift"]
        # the energy audit comes at every g, the exact g = 0 route included
        assert drift["H0"] == pytest.approx(-0.25, abs=1e-15)
        assert drift["max_rel_cumulative"] <= 1e-11

    @pytest.mark.parametrize("command, flags, names", [
        ("simulate", ["--n", "5"], ["events.csv", "trajectory.csv", "trajectory.svg"]),
        ("gamma", ["--n", "10"], ["gamma.csv", "conjecture_report.json", "delta2_gamma.svg"]),
        ("section", ["--n", "2"], ["section.csv", "section.svg"]),
        ("region", [], ["region.csv"]),
        ("verify", [], ["verify_checks.csv", "verify_report.json"]),
    ], ids=["simulate", "gamma", "section", "region", "verify"])
    def test_manifest_checksums(self, tmp_path, monkeypatch, command, flags, names):
        # the manifest lists exactly the data files in the directory, in the
        # order they were written, each with its size and checksum; it takes
        # them from the bytes it wrote, so this reads the files back from disk
        monkeypatch.setattr(cli, "run_verify_checks", lambda: {
            name: thr for name, (_, thr) in cli.VERIFY_CHECKS.items()})
        out = tmp_path / "o"
        assert cli.main([command, "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["name"] for e in manifest["files"]] == names
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])
        for entry in manifest["files"]:
            path = out / entry["name"]
            data = path.read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]
            assert path.stat().st_size == len(data) == entry["bytes"]
            assert b"\r" not in data  # written as bytes: '\n' line ends anywhere
        assert manifest["config"]["mode"] == command

    def test_off_wall_halt_keeps_the_events(self, tmp_path, lift_hit):
        # a hit state off the wall halts the run: simulate writes the events
        # before it and the reason, and exits 0
        off = lift_hit(6)
        f = tmp_path / "c.json"
        f.write_text(json.dumps(base_doc(tmp_path)))
        assert cli.main(["simulate", "--config", str(f)]) == 0
        _, rows = read_csv(tmp_path / "out" / "events.csv")
        assert [int(r[0]) for r in rows] == list(range(5))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["halted"] == f"off the wall at event 5: |y - h| = {off:g} >= 1e-12"

    def test_far_radial_start_halts_and_draws(self, tmp_path):
        # at x = 1e20 the figure's padded data span rounds away, and a unit
        # widening would too: the run keeps its halt and draws a finite figure
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"n_collisions": 5, "initial": {
            "cartesian": {"x": 1e20, "y": 0.0, "px": 0.0, "py": 0.0}}}))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(f), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["halted"].startswith("degenerate orbit at event 0: ")
        assert [e["name"] for e in manifest["files"]] == ["events.csv", "trajectory.csv",
                                                          "trajectory.svg"]
        svg = (out / "trajectory.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_start_on_the_wall_moving_up_hits_at_once(self, tmp_path):
        # the first impact is the start: a forward search from it rounds the
        # crossing to just behind it and flies a revolution through the wall
        # (first impact at t = 65.13, y up to 7.01)
        start = {"x": 1.286836803600051, "y": 1.0, "px": 0.35640056639675566,
                 "py": 0.5950443046778483}
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"n_collisions": 3, "initial": {"cartesian": start}}))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(f), "--out", str(out)]) == 0
        header, rows = read_csv(out / "events.csv")
        assert len(rows) == 3
        assert float(rows[0][header.index("t")]) == 0.0
        assert float(rows[0][header.index("x_impact")]) == start["x"]
        _, samples = read_csv(out / "trajectory.csv")
        assert max(float(r[2]) for r in samples) <= 1.0 + 1e-12

    @pytest.mark.parametrize("g", [0.0, 0.05])
    def test_on_wall_start_sampled_once(self, tmp_path, g):
        # the first arc of an on-wall upward start takes no time and adds no
        # samples: the trajectory starts once, reflected, at t = 0
        start = {"x": 1.286836803600051, "y": 1.0, "px": 0.35640056639675566,
                 "py": 0.5950443046778483}
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"n_collisions": 3, "initial": {"cartesian": start}}))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(f), "--out", str(out), "--g", str(g)]) == 0
        _, samples = read_csv(out / "trajectory.csv")
        at_start = [r for r in samples if float(r[0]) == 0.0]
        assert len(at_start) == 1 and float(at_start[0][4]) < 0.0
        assert len(samples) == 512 * 2

    def test_byte_identical_reruns(self, tmp_path):
        doc1 = base_doc(tmp_path, n_collisions=30)
        doc1["output_dir"] = str(tmp_path / "a")
        doc2 = base_doc(tmp_path, n_collisions=30)
        doc2["output_dir"] = str(tmp_path / "b")
        cli.run_command(cli.parse_config(doc1, "simulate"))
        cli.run_command(cli.parse_config(doc2, "simulate"))
        for name in ("events.csv", "trajectory.csv", "trajectory.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestGamma:
    def test_parity_alternates_and_report(self, tmp_path):
        doc = cli.default_config("gamma")
        doc["n_collisions"] = 140
        doc["output_dir"] = str(tmp_path / "g")
        cfg = cli.parse_config(doc, "gamma")
        cli.run_command(cfg)
        header, rows = read_csv(cfg.output_dir / "gamma.csv")
        assert header == ["n", "gamma", "delta2_gamma", "eps_observed", "parity"]
        eps = [int(r[3]) for r in rows]
        assert all(a == -b for a, b in zip(eps, eps[1:]))
        assert [int(r[4]) for r in rows] == [n % 2 for n in range(len(rows))]
        report = json.loads((cfg.output_dir / "conjecture_report.json").read_text())
        assert report["R_above_h_alpha"] is True
        assert report["conjectures"]["sign_alternation_ok"] is True
        assert report["branch_mismatch_rows"] == []

    @pytest.mark.parametrize("n, probes", [(140, 2), (99, 0)])
    def test_one_closed_form_pass_per_call(self, tmp_path, monkeypatch, n, probes):
        # the series and both probe levels share one _rf call: n + 1 lanes of
        # the run, 5 of each 4-collision probe, and psi = 0 and K per level.
        # Below 100 samples no probe orbit is started
        rf_lanes, starts = [], []
        real_rf, real_start = delaunay._rf, delaunay.initial_state_on_level
        monkeypatch.setattr(delaunay, "_rf", lambda x, y: rf_lanes.append(x.size) or real_rf(x, y))
        monkeypatch.setattr(delaunay, "initial_state_on_level",
                            lambda *args: starts.append(args) or real_start(*args))
        doc = cli.default_config("gamma")
        doc["n_collisions"] = n
        doc["output_dir"] = str(tmp_path / "g")
        cli.run_command(cli.parse_config(doc, "gamma"))
        assert rf_lanes == [n + 1 + 5 * probes + 2 * (1 + probes)]
        assert len(starts) == probes

    def test_failing_shifted_level_is_reported(self, tmp_path):
        # R just above h*alpha: the run's own series is fine, but the level
        # R - 1e-4|R| of domega_dR lies below h*alpha, where gamma is nan
        s = delaunay.initial_state_on_level(-math.sqrt(1.5), 1.00005, Params())
        doc = cli.default_config("gamma")
        doc["initial"] = {"cartesian": {"x": s.x, "y": s.y, "px": s.px, "py": s.py}}
        doc["n_collisions"] = 100
        config = tmp_path / "gamma.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["gamma", "--config", str(config), "--out", str(tmp_path / "g")]) == 0
        report = json.loads((tmp_path / "g" / "conjecture_report.json").read_text())
        assert report["R_above_h_alpha"] is True
        assert report["conjectures"] == {
            "error": "InsufficientData: no finite a > 0 increment on the level R = 0.99995"}

    def test_short_run_empty_delta2_no_figure(self, tmp_path):
        doc = cli.default_config("gamma")
        doc["n_collisions"] = 2
        doc["output_dir"] = str(tmp_path / "g2")
        cfg = cli.parse_config(doc, "gamma")
        cli.run_command(cfg)
        _, rows = read_csv(cfg.output_dir / "gamma.csv")
        assert len(rows) == 2
        assert all(r[2] == "" for r in rows)  # delta2 column empty
        assert not (cfg.output_dir / "delta2_gamma.svg").exists()

    def test_near_radial_halt_in_manifest(self, tmp_path):
        # the exact run halts at event 452 (see test_billiard); gamma keeps
        # the rows before it and says why the series is short
        state = {"x": -0.027001534563404105, "y": -0.542720763994399,
                 "px": 1.1602352984510336, "py": -0.05772422135138795}
        doc = {"mode": "gamma", "n_collisions": 500, "initial": {"cartesian": state},
               "output_dir": str(tmp_path / "g4")}
        cli.run_command(cli.parse_config(doc, "gamma"))
        _, rows = read_csv(tmp_path / "g4" / "gamma.csv")
        assert len(rows) == 452
        manifest = json.loads((tmp_path / "g4" / "manifest.json").read_text())
        assert "event 452" in manifest["halted"]

    def test_gamma_rejects_g(self, tmp_path):
        doc = cli.default_config("gamma")
        doc["params"]["g"] = 0.01
        doc["output_dir"] = str(tmp_path / "g3")
        with pytest.raises(ConfigError, match="params.g"):
            cli.run_command(cli.parse_config(doc, "gamma"))


class TestSection:
    def test_ensemble_run_and_scatter(self, tmp_path):
        doc = {
            "mode": "section",
            "n_collisions": 25,
            "ensemble": {"count": 3, "seed": 11, "energy": -1.0 / 6.0},
            "output_dir": str(tmp_path / "s"),
        }
        cfg = cli.parse_config(doc, "section")
        cli.run_command(cfg)
        header, rows = read_csv(cfg.output_dir / "section.csv")
        assert header == ["seed_id", "n", "x", "lambda", "R_value"]
        assert {r[0] for r in rows} == {"0", "1", "2"}
        manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
        assert manifest["failed_seeds"] == []
        assert manifest["r_value_scatter"] < 1e-7

    @pytest.mark.parametrize("flags, ensemble", [
        (["--n", "0"], None), (["--n", "1", "--g", "0.5"], None),
        ([], {"count": 0, "seed": 1, "energy": -0.5}),
    ], ids=["n0", "n1", "count0"])
    def test_scatter_null_without_two_impacts(self, tmp_path, flags, ensemble):
        # no seed has two impacts: nothing was measured, which is not the
        # 0.0 of a perfectly conserved R
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"ensemble": ensemble} if ensemble else cli.default_config("section")))
        assert cli.main(["section", "--config", str(config), "--out", str(tmp_path / "s"), *flags]) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["r_value_scatter"] is None and manifest["failed_seeds"] == []

    def test_scatter_grows_with_g(self, tmp_path):
        scatters = []
        for i, g in enumerate((0.0, 1e-3, 1e-2)):
            doc = {
                "mode": "section",
                "n_collisions": 25,
                "params": {"alpha": 1.0, "g": g, "h": 1.0},
                "ensemble": {"count": 2, "seed": 7, "energy": -1.0 / 6.0},
                "output_dir": str(tmp_path / f"sw{i}"),
            }
            cli.run_command(cli.parse_config(doc, "section"))
            manifest = json.loads((tmp_path / f"sw{i}" / "manifest.json").read_text())
            scatters.append(manifest["r_value_scatter"])
        assert scatters[0] < scatters[1] < scatters[2]

    def test_failed_seeds_on_stdout(self, tmp_path, capsys):
        # this ellipse stays below the wall, so its one seed fails
        doc = {
            "mode": "section",
            "n_collisions": 3,
            "initial": {"elements": {"A": -1.0, "a": math.sqrt(0.2), "theta0": 0.1}, "nu": 0.0},
        }
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["section", "--config", str(f), "--out", str(tmp_path / "s")]) == 0
        assert "section: 1 of 1 seeds failed" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert "NoCollision: max y = " in manifest["failed_seeds"][0]["error"]
        _, rows = read_csv(tmp_path / "s" / "section.csv")
        assert rows == []

    def test_builtin_section_loses_no_seed(self, tmp_path):
        # seed 5 passes within 1e-6 of the center; the exact g = 0 route
        # takes it through all 150 collisions
        doc = cli.default_config("section")
        doc["output_dir"] = str(tmp_path / "sd")
        cli.run_command(cli.parse_config(doc, "section"))
        manifest = json.loads((tmp_path / "sd" / "manifest.json").read_text())
        assert manifest["failed_seeds"] == []
        _, rows = read_csv(tmp_path / "sd" / "section.csv")
        assert [(int(r[0]), int(r[1])) for r in rows] == [(i, n) for i in range(6) for n in range(150)]

    def test_empty_ensemble(self, tmp_path):
        doc = {
            "mode": "section",
            "n_collisions": 10,
            "ensemble": {"count": 0, "seed": 3, "energy": -0.5},
            "output_dir": str(tmp_path / "s0"),
        }
        cfg = cli.parse_config(doc, "section")
        cli.run_command(cfg)
        _, rows = read_csv(cfg.output_dir / "section.csv")
        assert rows == []
        assert (cfg.output_dir / "manifest.json").exists()


class TestRegion:
    def test_boundary_vanishes_at_roots(self, tmp_path):
        doc = {
            "mode": "region",
            "ensemble": {"energy": -0.5},
            "output_dir": str(tmp_path / "r"),
        }
        cfg = cli.parse_config(doc, "region")
        cli.run_command(cfg)
        header, rows = read_csv(cfg.output_dir / "region.csv")
        assert header == ["x", "p_plus", "p_minus"]
        assert abs(float(rows[0][0]) + math.sqrt(3.0)) < 1e-12
        assert abs(float(rows[-1][0]) - math.sqrt(3.0)) < 1e-12
        assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.0
        mid = rows[len(rows) // 2]
        assert abs(float(mid[1]) - math.sqrt(0.5)) < 1e-9
        assert float(mid[2]) == -float(mid[1])

    def test_g_positive_vs_dense_sampling(self, tmp_path):
        p = Params(alpha=1.0, g=0.1, h=1.0)
        doc = {
            "mode": "region",
            "params": {"alpha": 1.0, "g": 0.1, "h": 1.0},
            "ensemble": {"energy": -0.5},
            "output_dir": str(tmp_path / "rg"),
        }
        cfg = cli.parse_config(doc, "region")
        cli.run_command(cfg)
        _, rows = read_csv(cfg.output_dir / "region.csv")
        x_max = float(rows[-1][0])
        # dense-sampling oracle for the outermost root
        xs = np.linspace(0.0, 5.0, 200_001)
        rr = np.hypot(xs, p.h)
        rad = -0.5 - p.g / rr**2 + p.alpha / rr
        idx = np.where(rad >= 0.0)[0][-1]
        assert abs(x_max - xs[idx]) < 1e-4
        for row in rows[:: max(1, len(rows) // 40)]:
            x, b = float(row[0]), float(row[1])
            r = math.hypot(x, p.h)
            assert abs(b**2 - max(-0.5 - p.g / r**2 + p.alpha / r, 0.0)) < 1e-12

    def test_inner_turning_circle_skips_rows(self, tmp_path):
        # g = 2, A = -0.1: the inner turning radius 5 - sqrt(5) = 2.764 lies
        # above the wall, so the abscissae inside it are not accessible and
        # get no row
        p = Params(alpha=1.0, g=2.0, h=1.0)
        doc = {"mode": "region", "params": {"alpha": 1.0, "g": 2.0, "h": 1.0},
               "ensemble": {"energy": -0.1}, "output_dir": str(tmp_path / "r")}
        region = cli.run_command(cli.parse_config(doc, "region")).manifest
        _, rows = read_csv(tmp_path / "r" / "region.csv")
        assert len(rows) == 642

        def rad(x):
            r = math.hypot(x, p.h)
            return -0.1 - p.g / (r * r) + p.alpha / r

        grid = np.linspace(region["x_min"], region["x_max"], 1001).tolist()
        x_in = math.sqrt((5.0 - math.sqrt(5.0)) ** 2 - p.h**2)
        written = [float(r[0]) for r in rows]
        assert written == [x for x in grid if abs(x) >= x_in]
        assert all(rad(x) < 0.0 for x in grid if abs(x) < x_in)
        for x, row in zip(written, rows):
            assert abs(float(row[1]) ** 2 - max(rad(x), 0.0)) < 1e-12

    def test_initial_energy_includes_g(self, tmp_path):
        # region takes A from the state simulate starts from, g/r^2 included,
        # so its interval holds every impact of that run
        doc = json.loads((ROOT / "configs" / "perturbed_g005.json").read_text())
        del doc["mode"]
        doc["n_collisions"] = 10
        doc["output_dir"] = str(tmp_path / "s")
        cli.run_command(cli.parse_config(doc, "simulate"))
        del doc["n_collisions"]
        doc["output_dir"] = str(tmp_path / "r")
        region = cli.run_command(cli.parse_config(doc, "region")).manifest
        assert region["A"] == pytest.approx(-0.1875, abs=1e-12)
        header, rows = read_csv(tmp_path / "s" / "events.csv")
        xs = [float(r[header.index("x_impact")]) for r in rows]
        assert len(xs) == 10
        assert region["x_min"] <= min(xs) and max(xs) <= region["x_max"]

    def test_region_requires_energy(self, tmp_path):
        doc = {"mode": "region", "output_dir": str(tmp_path / "rx")}
        with pytest.raises(ConfigError, match="region"):
            cli.run_command(cli.parse_config(doc, "region"))


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestStartup:
    """Only verify loads scipy.integrate (and with it scipy.optimize and
    scipy.special), for its DOP853 oracle."""

    SLOW = ("scipy.optimize", "scipy.integrate", "scipy.special")

    def test_import_leaves_slow_scipy_modules_out(self):
        out = run_python(
            "import sys\n"
            "import kepler_billiard.cli\n"
            f"print([m for m in {self.SLOW!r} if m in sys.modules])\n"
        )
        assert out == "[]"

    def test_closed_form_commands_run_without_them(self, tmp_path):
        runs = [
            ["simulate"],
            ["simulate", "--config", str(ROOT / "configs" / "perturbed_g005.json")],
            ["section"],
            ["region"],
            ["gamma"],
            ["gamma", "--config", str(ROOT / "configs" / "gamma_rotation.json")],
        ]
        argvs = [argv + ["--out", str(tmp_path / f"run{i}")] for i, argv in enumerate(runs)]
        out = run_python(
            "import sys\n"
            f"for name in {self.SLOW!r}:\n"
            "    sys.modules[name] = None  # any import of it raises ImportError\n"
            "from kepler_billiard import cli\n"
            f"print([cli.main(argv) for argv in {argvs!r}])\n"
        )
        assert out.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"


class TestMainExitCodes:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "warp"}))
        assert cli.main(["simulate", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, flags",
        [
            ({"params": {"g": math.nan}}, []),
            ({"ensemble": {"count": 2, "seed": 1, "energy": math.inf}}, []),
            ({"initial": {"elements": {"A": -0.5, "a": 0.5657, "theta0": math.nan}}}, []),
            ({"initial": {"elements": {"A": 0.5, "a": 0.5657, "theta0": 1.2}}}, []),
            ({}, ["--g", "nan"]),
            ({"ensemble": {"count": 2, "seed": -1, "energy": -0.5}}, []),
            ({"output_dir": 5}, []),
            ({"output_dir": None}, []),
            ({"output_dir": ["out"]}, []),
            ({"output_dir": "out\0x"}, []),
            ({}, ["--n", "-1"]),
        ],
        ids=["g-nan", "energy-inf", "theta0-nan", "A-positive", "flag-g-nan",
             "seed-negative", "output_dir-int", "output_dir-null", "output_dir-list",
             "output_dir-nul", "flag-n-negative"],
    )
    def test_bad_numbers_exit_2(self, tmp_path, capsys, monkeypatch, edit, flags):
        monkeypatch.chdir(tmp_path)  # nothing may be written, not even here
        f = tmp_path / "c.json"
        f.write_text(json.dumps(base_doc(tmp_path, **edit)))  # writes NaN / Infinity
        assert cli.main(["simulate", "--config", str(f), *flags]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize(
        "command, doc, flags",
        [
            ("simulate", [1, 2], ["--n", "3"]),
            ("simulate", {"params": [1.0]}, ["--g", "0.1"]),
            ("simulate", {"params": None}, ["--g", "0.1"]),
            ("section", {"ensemble": [1]}, ["--seed", "3"]),
        ],
        ids=["root-list", "params-list", "params-null", "ensemble-list"],
    )
    def test_flags_on_malformed_config_exit_2(self, tmp_path, capsys, command, doc, flags):
        f = tmp_path / "c.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(f), "--out", str(out), *flags]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source",
        [
            {"initial": {"cartesian": {"x": 0.0, "y": 0.5, "px": 2.0, "py": 0.5}}},
            {"ensemble": {"count": 2, "seed": 1, "energy": 0.5}},
        ],
        ids=["initial-A-positive", "ensemble-energy-positive"],
    )
    def test_section_unbound_exit_2(self, tmp_path, capsys, source):
        # A >= 0 has no accessible interval on the wall: rejected before mkdir
        doc = {"mode": "section", "n_collisions": 2, "output_dir": str(tmp_path / "o"), **source}
        f = tmp_path / "c.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["section", "--config", str(f)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, doc, flags, message",
        [
            *((command, {"initial": start}, [], "initial: the start lies above the wall")
              for command in ("simulate", "gamma", "section", "region")
              for start in (ABOVE_WALL, {**ELEMENTS_REF, "nu": 3.14159})),
            *((command, {"initial": AT_CENTRE}, [], "initial: the start lies at the attraction centre")
              for command in ("simulate", "gamma", "section", "region")),
            ("simulate", {"initial": ELEMENTS_REF, "ensemble": ENSEMBLE}, [],
             "ensemble: unknown config field"),
            ("gamma", {"initial": ELEMENTS_REF, "ensemble": ENSEMBLE}, [],
             "ensemble: unknown config field"),
            ("region", {"ensemble": REGION_ENSEMBLE, "n_collisions": 50}, [],
             "n_collisions: unknown config field"),
            ("region", {"ensemble": ENSEMBLE}, [], "ensemble.count: unknown config field"),
            ("region", {"ensemble": {"seed": 0, "energy": -0.3}}, [],
             "ensemble.seed: unknown config field"),
            ("section", {"initial": ELEMENTS_REF, "ensemble": ENSEMBLE}, [],
             "initial or ensemble: section needs exactly one start"),
            ("region", {"initial": ELEMENTS_REF, "ensemble": REGION_ENSEMBLE}, [],
             "initial or ensemble: region needs exactly one start"),
            # |A| = 1e-300 puts the turning radius at 1e300, whose square overflows
            ("region", {"ensemble": {"energy": -1e-300}}, [],
             "ensemble.energy: the accessible interval of A = -1e-300 on the wall is not finite"),
            ("simulate", {"initial": {"cartesian": {"x": 1e300, "y": 0.0, "px": 0.0, "py": 0.0}}},
             [], "initial: the accessible interval of A = -1e-300 on the wall is not finite"),
            # an energy surface that never reaches the wall has no section
            # and no region; simulate and gamma run it without collisions
            ("region", {"ensemble": {"energy": -2.0}}, [],
             "ensemble.energy: the energy surface of A = -2 does not reach the wall "
             "(turning radius 0.5 below wall height 1)"),
            ("section", {"ensemble": {"count": 2, "seed": 0, "energy": -2.0}}, [],
             "ensemble.energy: the energy surface of A = -2 does not reach the wall "
             "(turning radius 0.5 below wall height 1)"),
            *((command, {"initial": OFF_WALL}, [],
               "initial: the energy surface of A = -3.32333 does not reach the wall "
               "(turning radius 0.300903 below wall height 1)")
              for command in ("section", "region")),
            ("section", {"ensemble": ENSEMBLE}, ["--g", "1e300"],
             "ensemble.energy: the energy surface of A = -0.3 does not reach the wall "
             "(energy below the minimum of the effective potential)"),
            ("region", {"ensemble": REGION_ENSEMBLE}, ["--g", "1e300"],
             "ensemble.energy: the energy surface of A = -0.3 does not reach the wall "
             "(energy below the minimum of the effective potential)"),
            ("gamma", {"initial": ELEMENTS_REF}, ["--g", "0.01"], "params.g: gamma requires g = 0"),
            # p^2 overflows: the manifest's H0 would be Infinity
            ("simulate", {"n_collisions": 0, "initial": {"cartesian": {
                "x": 0.0, "y": 1.0, "px": 1e300, "py": 0.0}}}, [],
             "initial: the twice-energy of the start is not finite (A = inf)"),
            # r^2 underflows to 0: g/r^2 in the start's energy divides by zero
            ("simulate", {"initial": {"cartesian": {"x": 1e-200, "y": 0, "px": 0.1, "py": 0.1}}},
             [], "initial: the start lies at the attraction centre (r = 1e-200, r^2 = 0)"),
            ("simulate", {"initial": {"elements": {"A": -1e300, "a": 1e-151, "theta0": 1.0},
                                      "nu": 0}},
             [], "initial: the start lies at the attraction centre"),
            ("section", {"ensemble": UNDRAWABLE}, [],
             "ensemble: could not draw enough wall-reaching seeds"),
            # params so extreme that the energy surface's geometry divides by zero
            *((command, DIVIDES_BY_ZERO[command], [], f"{start}: ZeroDivisionError: float division by zero")
              for command, start in (("region", "ensemble"), ("section", "ensemble"),
                                     ("simulate", "initial"), ("gamma", "initial"))),
        ],
        ids=[f"{c}-above-wall-{form}" for c in ("simulate", "gamma", "section", "region")
             for form in ("cartesian", "elements")]
        + [f"{c}-at-centre" for c in ("simulate", "gamma", "section", "region")]
        + ["simulate-ensemble", "gamma-ensemble", "region-n_collisions",
           "region-count", "region-seed",
           "section-both-starts", "region-both-starts",
           "region-interval-not-finite", "simulate-interval-not-finite",
           "region-off-wall-ensemble", "section-off-wall-ensemble",
           "section-off-wall-initial", "region-off-wall-initial",
           "section-flag-g-1e300", "region-flag-g-1e300", "gamma-flag-g",
           "simulate-energy-not-finite", "simulate-near-centre-cartesian",
           "simulate-near-centre-elements", "section-seeds-not-drawn"]
        + [f"{c}-divides-by-zero" for c in ("region", "section", "simulate", "gamma")],
    )
    def test_config_boundary_exit_2(self, tmp_path, capsys, command, doc, flags, message):
        # each run input is decided once, before anything is written
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"mode": command, **doc}))
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(f), "--out", str(out), *flags]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "gamma"])
    def test_off_wall_start_runs_without_collisions(self, tmp_path, command):
        # both commands write no rows and say why in the manifest
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"n_collisions": 3, "initial": OFF_WALL}))
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(f), "--out", str(out)]) == 0
        _, rows = read_csv(out / ("events.csv" if command == "simulate" else "gamma.csv"))
        assert rows == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["no_collision"] == "max y = 0.000902708 below wall y = 1"
        assert "halted" not in manifest

    def test_missing_config_file_exit_2(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"mode": "simulate", "output_dir": "\xff"}', "--config: not UTF-8 text"),
            (b'{"params": ' * 100_000 + b"{}" + b"}" * 100_000,
             "--config: JSON nested deeper than the recursion limit"),
        ],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unreadable_config_exit_2(self, tmp_path, capsys, monkeypatch, data, message):
        monkeypatch.chdir(tmp_path)  # nothing may be written, not even here
        f = tmp_path / "c.json"
        f.write_bytes(data)
        assert cli.main(["simulate", "--config", str(f), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command", ["simulate", "section", "verify"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_output_path_not_a_directory_exit_2(self, tmp_path, capsys, monkeypatch,
                                                command, below, via):
        # the output directory cannot be made: exit 2, and the file is left alone
        monkeypatch.setattr(cli, "run_verify_checks", lambda: pytest.fail("verify ran"))
        taken = tmp_path / "taken"
        taken.write_text("data\n")
        out = taken / "sub" if below else taken
        doc = {"output_dir": str(out)} if via == "config" else {}
        f = tmp_path / "c.json"
        f.write_text(json.dumps({**cli.default_config(command), **doc}))
        argv = [command, "--config", str(f)] + (["--out", str(out)] if via == "flag" else [])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: output_dir: " in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "taken"]
        assert taken.read_text() == "data\n"

    @pytest.mark.parametrize("command, blocked", [("simulate", "events.csv"),
                                                  ("verify", "verify_checks.csv")])
    def test_failed_write_exit_3(self, tmp_path, capsys, monkeypatch, command, blocked):
        # an output file that cannot be written is a runtime error, even
        # where a failed check would have made verify exit 1
        monkeypatch.setattr(cli, "run_verify_checks", lambda: {
            name: 2.0 * thr if kind == "max" else 0.5 * thr
            for name, (kind, thr) in cli.VERIFY_CHECKS.items()})
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        assert cli.main([command, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "runtime error: IsADirectoryError: " in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == [blocked]

    def test_runtime_error_exit_3(self, tmp_path, capsys):
        doc = {
            "mode": "simulate",
            "n_collisions": 5,
            "initial": {"cartesian": {"x": 1.0, "y": 0.0, "px": 0.0, "py": 2.0}},
            "output_dir": str(tmp_path / "u"),
        }
        f = tmp_path / "unbound.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(f)]) == 3
        assert "Unbound" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        doc = cli.default_config("simulate")
        f = tmp_path / "c.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(f), "--out", str(out), "--n", "3"]) == 0
        _, rows = read_csv(out / "events.csv")
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "doc, flags",
        [
            ({"params": {"g": 0.3}}, []),
            ({"n_collisions": 5}, []),
            ({"initial": {"cartesian": {"x": 0.0, "y": -1.0, "px": 0.5, "py": 0.0}}}, []),
            ({"ensemble": {"count": 2, "seed": 1, "energy": -0.5}}, []),
            (None, ["--g", "0.3"]),
            (None, ["--n", "5"]),
            (None, ["--seed", "5"]),
        ],
        ids=["params", "n_collisions", "initial", "ensemble", "flag-g", "flag-n", "flag-seed"],
    )
    def test_verify_rejects_run_inputs(self, tmp_path, capsys, monkeypatch, doc, flags):
        # verify runs its built-in references: an input it would ignore is an error
        monkeypatch.setattr(cli, "run_verify_checks", lambda: pytest.fail("verify ran"))
        out = tmp_path / "v"
        argv = ["verify", "--out", str(out), *flags]
        if doc is not None:
            f = tmp_path / "c.json"
            f.write_text(json.dumps({"mode": "verify", **doc}))
            argv += ["--config", str(f)]
            assert cli.main(argv) == 2
            assert "configuration error" in capsys.readouterr().err
        else:
            # verify offers no flag but --config and --out
            with pytest.raises(SystemExit, match="^2$"):
                cli.main(argv)
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_without_ensemble_exit_2(self, tmp_path, capsys):
        # section offers --seed, but this run starts from an initial state
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"n_collisions": 2, "initial": ELEMENTS_REF}))
        out = tmp_path / "o"
        assert cli.main(["section", "--config", str(f), "--out", str(out), "--seed", "5"]) == 2
        assert "configuration error: --seed: no ensemble in this configuration" in capsys.readouterr().err
        assert not out.exists()


# finite numbers, mostly moderate, with the extremes that overflow or
# underflow on the way: +-1e-300 and +-1e300
EXTREME = st.sampled_from([1e-300, -1e-300, 1e300, -1e300])
FINITE = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), EXTREME)
# parameters are mostly valid, so that most runs get past the config check
PARAM = st.one_of(st.floats(0.0, 3.0), EXTREME)
MAIN_DOCS = st.fixed_dictionaries({}, optional={
    "params": st.fixed_dictionaries({}, optional={k: PARAM for k in ("alpha", "g", "h")}),
    "n_collisions": st.integers(0, 5),
    "initial": st.one_of(
        st.fixed_dictionaries({"cartesian": st.fixed_dictionaries(
            {k: FINITE for k in ("x", "y", "px", "py")})}),
        st.fixed_dictionaries({"elements": st.fixed_dictionaries(
            {k: FINITE for k in ("A", "a", "theta0")}), "nu": FINITE}),
    ),
    "ensemble": st.fixed_dictionaries(
        {"count": st.integers(0, 3), "seed": st.integers(0, 2**32), "energy": FINITE}),
})


ELEMENTS = {"elements": {"A": -0.5, "a": 0.5, "theta0": 1.2}, "nu": 0.0}
FAR_UNBOUND = {"initial": {"cartesian": {"x": 1e300, "y": -3, "px": -1, "py": -3}}, "n_collisions": 0}

# the flags, each drawn or left out; --g also at the extremes and non-finite.
# They are drawn on top of the fuzzed documents and of two valid starts, so
# that some flag draws get past the config check to a run
FLAGS = st.fixed_dictionaries({}, optional={
    "--n": st.integers(-2, 5),
    "--g": st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf])),
    "--seed": st.integers(-2, 2**64),
})
FLAG_DOCS = st.one_of(MAIN_DOCS, st.sampled_from([
    {"n_collisions": 3, "initial": ELEMENTS},
    {"n_collisions": 3, "ensemble": ENSEMBLE},
]))


# the four built-in configs and the committed ones
REFERENCE_RUNS = [[command] for command in ("simulate", "gamma", "section", "region")] + [
    [json.loads(path.read_text())["mode"], "--config", str(path)]
    for path in sorted((ROOT / "configs").glob("*.json"))
]


class TestConfigEcho:
    @pytest.mark.parametrize("argv", REFERENCE_RUNS, ids=lambda argv: Path(argv[-1]).stem)
    def test_echo_replays_the_run(self, tmp_path, argv):
        # a manifest's config, the start written as the Cartesian state it
        # resolved to, reruns to byte-identical data files
        first, second = tmp_path / "a", tmp_path / "b"
        assert cli.main(argv + ["--out", str(first)]) == 0
        echo = json.loads((first / "manifest.json").read_text())["config"]
        assert "elements" not in echo.get("initial", {})
        f = tmp_path / "echo.json"
        f.write_text(json.dumps(echo))
        assert cli.main([argv[0], "--config", str(f), "--out", str(second)]) == 0
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (first, second)]
        assert manifests[1]["config"] == {**echo, "output_dir": str(second)}
        assert [e["name"] for e in manifests[0]["files"]] == [e["name"] for e in manifests[1]["files"]]
        for entry in manifests[0]["files"]:
            assert (first / entry["name"]).read_bytes() == (second / entry["name"]).read_bytes()


class TestMainFuzz:
    # each of these let an ArithmeticError escape main as a traceback
    @example("simulate", {"params": {"h": 1e-300}, "n_collisions": 1, "initial": ELEMENTS}, False, {})
    @example("simulate", {"params": {"alpha": 1e-300}, "n_collisions": 1, "initial": ELEMENTS}, False,
             {})
    @example("simulate", {"initial": {"cartesian": {"x": 1e300, "y": 0.0, "px": 0.0, "py": 0.0}}},
             False, {})
    @example("section", {"n_collisions": 1, "ensemble": {"count": 1, "seed": 0, "energy": -1e-300}},
             True, {})
    # r*r overflowed in the energy audit: a RuntimeWarning, a traceback under -W error
    @example("simulate", FAR_UNBOUND, False, {})
    # these ran, or failed only after the output directory was made
    @example("simulate", {"initial": ABOVE_WALL, "n_collisions": 4}, False, {})
    @example("section", {"initial": ELEMENTS, "n_collisions": 2, "ensemble": ENSEMBLE}, True, {})
    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(("simulate", "gamma", "section", "region")),
           doc=FLAG_DOCS, name_mode=st.booleans(), flags=FLAGS)
    def test_main_exits_0_2_or_3(self, tmp_path, capsys, command, doc, name_mode, flags):
        # no traceback escapes main: a run succeeds, rejects its config
        # without writing anything, or reports a runtime error (verify, at
        # about 10 s a call, is left out)
        if name_mode:
            doc = {**doc, "mode": command}
        f = tmp_path / "c.json"
        f.write_text(json.dumps(doc))
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
        # "--g=-1e-300": a separate value with a leading minus reads as an
        # option; a flag the subcommand does not offer is the parser's
        # (test_unread_flag_is_unrecognized)
        argv = [command, "--config", str(f), "--out", str(out)] + [
            f"{k}={v}" for k, v in flags.items() if k in OPTIONS[command]]
        code = cli.main(argv)
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()
        capsys.readouterr()

    def test_far_unbound_start_warns_nothing(self, tmp_path):
        # the run ends at its start sample, at r = 1e300
        f = tmp_path / "c.json"
        f.write_text(json.dumps(FAR_UNBOUND))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", str(f), "--out", str(tmp_path / "o")]) == 0
        drift = json.loads((tmp_path / "o" / "manifest.json").read_text())["energy_drift"]
        assert drift["max_rel_cumulative"] == 0.0


class TestVerifyFaultInjection:
    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        # every check at its threshold passes, except a max check measured
        # at twice it and a min check at half it
        failing = {"theorem1_R_drift": 2.0, "anisochrony_ratio": 0.5}

        def checks():
            return {name: failing.get(name, 1.0) * thr
                    for name, (_, thr) in cli.VERIFY_CHECKS.items()}

        monkeypatch.setattr(cli, "run_verify_checks", checks)
        assert cli.main(["verify", "--out", str(tmp_path / "v")]) == 1
        assert "verify: FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert report["all_passed"] is False
        # the echo holds the whole verify config: the suite takes no run inputs
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert manifest["config"] == {"mode": "verify", "output_dir": str(tmp_path / "v")}
        assert {c["name"] for c in report["checks"] if not c["pass"]} == set(failing)
        # every check reports its measured value and a margin that is
        # non-negative exactly when it passes
        assert len(report["checks"]) == len(cli.VERIFY_CHECKS)
        assert all("measured" in c for c in report["checks"])
        assert all((c["margin"] >= 0) == c["pass"] for c in report["checks"])

    def test_check_min_max(self):
        def passes(name, measured):
            return cli._passes(*cli.VERIFY_CHECKS[name], measured)

        assert passes("theorem1_R_drift", 1e-9) is True
        assert passes("theorem1_R_drift", 1.01e-9) is False
        assert passes("eq110_box_violations", 0.0) is True
        assert passes("eq110_box_violations", 1.0) is False
        assert passes("anisochrony_ratio", 10.0) is True
        assert passes("anisochrony_ratio", 9.99) is False
        assert passes("anisochrony_ratio", math.nan) is False
        assert passes("theorem1_R_drift", math.nan) is False
        assert passes("perturbation_R_drift", 2e-4) is True
        # a measured numpy value still gives a Python bool, as the CSV writes it
        assert passes("kepler_residual", np.float64(1e-14)) is True
