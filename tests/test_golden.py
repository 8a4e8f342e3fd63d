"""Byte gate: every data file of the reference runs, pinned by its sha256.

The reference runs are the committed ``configs/*.json`` and the built-in
configs of ``simulate``, ``gamma``, ``section`` and ``region``.  Every file a
run writes is pinned except ``manifest.json``, which holds the wall clock and
the versions.  A built-in config that is a committed one (up to its output
directory) is covered by that config's pins.  ``verify``'s two files are
pinned in ``test_acceptance.py``, on the acceptance fixture's run.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from kepler_billiard import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# run -> {file name: sha256}; a committed config by its stem, a built-in
# config by its subcommand
GOLDEN = {
    "gamma_rotation": {
        "conjecture_report.json": "b7ed79502bbf0d512666642d85b1bfce636419088b89097a04e304482fc13e07",
        "delta2_gamma.svg": "a8a03fb540d582423ed855a6e26ffc161f0eb0f3194535f09c257c21c12941e9",
        "gamma.csv": "8afa3288d01417086b4215ee41de99515d406fbccc66ac60383209ad224b07fb",
    },
    # a run whose level R - 1e-4|R| of domega_dR lies below h*alpha, so its
    # report holds the probe's error in place of the conjecture statistics
    "gamma_shifted_below": {
        "conjecture_report.json": "f5850bd8702cd20c0ded8d43b4e1f2351c16a3d624e25f3e0a8a0ef1eb39b4e0",
        "delta2_gamma.svg": "affc603ef7f3a57bca0a0a20fd1fed0a3308efb7346dc12c9164b6f3ebc4eb97",
        "gamma.csv": "55257caa3e1a8ec043d16ed45fc4515ee2fa19ab31116f0cae56a0a29208903a",
    },
    # the two g > 0 runs: re-pinned when the revolving wall crossing moved
    # its root polish and its hit state from the true to the eccentric
    # anomaly.  Every hit moved by at most 3.0e-12 in x_impact and 5.8e-11 in
    # t (perturbed_g005, a relative 2.0e-14 after 200 impacts) and 4.5e-12 in
    # x (section_sweep seeds 0-4).  Seed 5 of section_sweep moves by 3e-13 up
    # to impact 10, then by 5.6e-11 at 11 and 2.7e-7 at 22, as a chaotic
    # orbit amplifies any change
    "perturbed_g005": {
        "events.csv": "f50344ba8154fa23f87038f601090333f600366ebb3c8f6bc487723175624e07",
        "trajectory.csv": "801b6ef7ef19501d02f6641ea5e0d73b091fbde7ce984bcf82f6d87016b320ed",
        "trajectory.svg": "1bb3d0ac2673a99ea7e221f13db16132cea0fbdc8a4a1422484a9e37e227357b",
    },
    "reference_g0": {
        "events.csv": "095643fe2bebc8f4a466ee7c2e7ba15639953267bbd1589be00cd2894fe9933e",
        "trajectory.csv": "a7994ea5d664bbf7edbaf07eb1c8fb15aac1843ab65e0fa98aeea56e153c5e03",
        "trajectory.svg": "d04690301f4f3c50cf3aaad8992a9c99818a7368d45993a4ebafa5226de4a828",
    },
    # g = 0 at alpha = 1.3, h = 0.8, where products of alpha and h round,
    # so a reassociated one changes bits; R = 1.020 < h*alpha, so the
    # angular momentum changes sign
    "reference_g0_scaled": {
        "events.csv": "5ccfb5a63c9ea5d953f5d6cc40ddd3b5fa699b1cc20479da6e930359c7fa5699",
        "trajectory.csv": "123c556254e68d31669470433ad970a26c09ec48b4c28fc88513956430fcde55",
        "trajectory.svg": "3a52688936651dca77c65e7d057b804a4578e21c3552d8995f4a389424c261da",
    },
    "region_reference": {
        "region.csv": "a1d3a050add3c8aefc55f11bcff9dc9a65fc9d96180544457b343f0934365eed",
    },
    "section_sweep": {
        "section.csv": "c6096ef07a14e248994fe796dc3485e6e3c7b4e7dc90e043be2996e81f9da3f2",
        "section.svg": "92063bd0f579267563dabb88953ff20040c53c1ac3318dad3ada67e278c66c9e",
    },
    "section": {
        "section.csv": "544fb11c4d0c20d5543e7828064b13252ce909efcb7329e3fcb148621fdc5d8d",
        "section.svg": "8c0ef9db326ba101b173238dd7342ac4456be75dc972f818e8196f324adae870",
    },
}

# the built-in gamma start lies 1.6e-15 from gamma_rotation's, and its run
# writes the same bytes
GOLDEN["gamma"] = GOLDEN["gamma_rotation"]

# built-in configs that are a committed config's run
SAME_RUN = {"simulate": "reference_g0", "region": "region_reference"}


def data_hashes(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.name != "manifest.json"}


@pytest.mark.parametrize("run", GOLDEN)
def test_data_files_pinned(pinned_toolchain, tmp_path, run):
    config = CONFIGS / f"{run}.json"
    if config.exists():
        argv = [json.loads(config.read_text())["mode"], "--config", str(config)]
    else:
        argv = [run]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert data_hashes(tmp_path) == GOLDEN[run]


@pytest.mark.parametrize("command", SAME_RUN)
def test_builtin_config_is_a_pinned_run(command):
    committed = json.loads((CONFIGS / f"{SAME_RUN[command]}.json").read_text())
    want = cli.parse_config(committed, command)
    got = cli.parse_config(cli.default_config(command), command)
    assert replace(got, output_dir=want.output_dir) == want


def test_every_committed_config_is_pinned():
    # a config added to configs/ cannot go unpinned
    assert {config.stem for config in CONFIGS.glob("*.json")} <= GOLDEN.keys()
