"""Smoke tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q

The first tests exercise the output checks without Spark; the last ones
run ``perfbench/run.py`` end to end in child processes, one short run
per workload (about a minute each), and check its result line against
BENCHMARK.json.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pandas as pd
import pytest

from perfbench.checks import Reference, cap_set, count_bad, fingerprint
from perfbench.workloads import WORKLOADS, Session, expected_clicks, summary
from repro.core.types import CAP, MiscelaParams

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PARAMS = MiscelaParams(epsilon=0.05, eta_meters=800.0, mu=3, psi=2, max_sensors=3)


def reference() -> Reference:
    # a, b, c in a row 500 m apart; d 10 km away
    locations = pd.DataFrame({
        "sensor_id": ["a", "b", "c", "d"],
        "attribute": ["light", "sound", "light", "sound"],
        "lat": [43.0, 43.0045, 43.009, 43.1],
        "lon": [-3.8, -3.8, -3.8, -3.8],
    })
    evolving = {"a": frozenset({1, 2, 3}), "b": frozenset({2, 3, 4}),
                "c": frozenset({2, 3}), "d": frozenset({2, 3})}
    return Reference(locations, evolving, PARAMS.eta_meters)


def test_a_valid_cap_passes():
    good = CAP(sensors=("a", "b", "c"), attributes=("light", "sound"), support=2)
    assert count_bad([good], reference(), PARAMS) == (0, None)


@pytest.mark.parametrize("cap", [
    CAP(sensors=("a", "b"), attributes=("light", "sound"), support=3),  # wrong support
    CAP(sensors=("a", "c"), attributes=("light",), support=2),  # one attribute
    CAP(sensors=("b", "d"), attributes=("sound",), support=2),  # not η-connected
    CAP(sensors=("a", "b"), attributes=("light", "temperature"), support=2),  # wrong attrs
])
def test_a_broken_cap_is_counted(cap):
    bad, why = count_bad([cap], reference(), PARAMS)
    assert bad == 1 and why


def test_fingerprint_ignores_order_and_component():
    x = CAP(sensors=("a", "b"), attributes=("light", "sound"), support=2, component="a")
    y = CAP(sensors=("b", "c"), attributes=("light", "sound"), support=2, component="b")
    assert fingerprint([x, y]) == fingerprint([y, CAP(x.sensors, x.attributes, 2, "z")])
    assert fingerprint([x]) != fingerprint([y])


def test_expected_clicks():
    caps = [CAP(("a", "b"), ("light", "sound"), 2), CAP(("a", "c", "b"), ("light", "sound"), 2)]
    assert expected_clicks(caps, "c") == {"a": ["light", "sound"], "b": ["light", "sound"]}


def test_summary_leaves_out_a_fifth_at_each_end():
    assert summary([4.0, 1.0, 100.0, 3.0, 2.0])["trimmed"] == 3.0
    assert summary([2.0, 4.0])["trimmed"] == 3.0


@pytest.mark.parametrize("caps,failed", [
    ([CAP(("a", "b"), ("light", "sound"), 3)], 0),
    ([CAP(("a", "b"), ("light", "sound"), 2)], 1),  # other support
    ([CAP(("a", "b"), ("light", "sound"), 3)] * 2, 1),  # a CAP twice
])
def test_hit_must_return_the_miss_caps(caps, failed):
    want = [CAP(("a", "b"), ("light", "sound"), 3, component="c")]
    session = Session.__new__(Session)
    session.w = WORKLOADS["interactive-session"]
    session.api = SimpleNamespace(
        mine=lambda dataset, params: SimpleNamespace(caps=caps, from_cache=True))
    session.base = PARAMS
    session.samples, session.host = {"mine_hit_s": []}, []
    session.attempted = session.failed = 0
    session.mine_hit((len(want), cap_set(want)))
    assert (session.attempted, session.failed, len(session.host)) == (1, failed, 1)


def probed(caps, recorded) -> Session:
    """A session without Spark whose bundle 1 was just uploaded, whose
    bundle 0 mined ``recorded``, and whose next ``mine`` returns ``caps``."""
    session = Session.__new__(Session)
    session.w = WORKLOADS["interactive-session"]
    session.api = SimpleNamespace(mine=lambda dataset, params: SimpleNamespace(caps=caps))
    session.base = PARAMS
    session.data = [SimpleNamespace(reference=reference())] * 2
    session.version = 1
    session.fingerprints = {0: (len(recorded), fingerprint(recorded))}
    session._verdicts = {}
    session.attempted = session.failed = session.stale_mines = 0
    session.stale_probe()
    assert session.attempted == 1
    return session


OLD = [CAP(("a", "b"), ("light", "sound"), 3)]  # support 3: right for bundle 0 only


def test_probe_counts_the_old_bundles_caps_as_stale():
    session = probed(OLD, OLD)
    assert (session.stale_mines, session.failed) == (1, 0)


def test_probe_fails_wrong_caps_that_are_not_stale():
    session = probed([CAP(("b", "d"), ("sound",), 2)], OLD)
    assert (session.stale_mines, session.failed) == (0, 1)


def test_probe_accepts_the_new_bundles_caps():
    new = [CAP(("a", "b", "c"), ("light", "sound"), 2)]
    session = probed(new, OLD)
    assert (session.stale_mines, session.failed) == (0, 0)
    assert session.fingerprints[1] == (1, fingerprint(new))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [
    ("interactive-session", "0"),
    ("china6-wide", "1"),
])
def test_run_prints_every_metric(workload, trace):
    p = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["cache.stale_mines"]["value"] in (0, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert not p.stdout.strip()
