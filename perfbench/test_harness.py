"""Self-test of the benchmark harness on a shrunken input (a single
explicit-amplitude pulse, about a second per process).

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent

TINY_PULSE = """\
pulse:
  sigma_s: 5.0e-6
  rabi_peak_rad_s: 2.8e+5
"""

# far past any lobe on a 4-site guard: the pulse leaks out of the ladder
# window and the CLI exits 2 (numerical error)
LEAKING_PULSE = """\
pulse:
  sigma_s: 5.0e-6
  rabi_peak_rad_s: 3.0e+7
evolution:
  guard_sites: 4
"""


def pulse_workload(tmp_path: Path, name: str, text: str) -> run.Workload:
    config = tmp_path / f"{name}.yaml"
    config.write_text(text)

    def judge(results):
        ok = abs(results["norm"] - 1.0) < 1e-6
        return ([] if ok else [f"norm {results['norm']}"]), {}

    return run.Workload(
        name, "pulse", config,
        lambda c: {"pulse_populations":
                   2 * (c["pulse"]["order"] + c["evolution"]["guard_sites"]) + 1},
        judge)


@pytest.fixture
def scratch(tmp_path):
    path = tmp_path / "scratch"
    path.mkdir()
    return path


def test_result_line_parses_with_every_end_to_end_metric(tmp_path, monkeypatch,
                                                         capsys):
    tiny = pulse_workload(tmp_path, "tiny", TINY_PULSE)
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": tiny})
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1",
                     "--trace", "0"])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 1 + run.SETUP_SAMPLES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path, scratch):
    tiny = pulse_workload(tmp_path, "tiny", TINY_PULSE)
    record = run.measure(tiny, 3, 1.0, True, scratch, ROOT)
    assert record["failed"] == 0, record["problems"]
    assert set(record["layers"]) == set(run.PER_LAYER)
    assert record["layers"]["ladder.solves"] == 1
    assert record["layers"]["src.lines"] > 0


def test_run_exiting_2_counts_as_failed(tmp_path, scratch):
    leaking = pulse_workload(tmp_path, "leaking", LEAKING_PULSE)
    inv = run.invoke(leaking, 1, "run", scratch, ROOT)
    assert inv.code == 2 and inv.failed
    record = run.measure(leaking, 1, 1.0, False, scratch, ROOT)
    # one warm-up start, then runs and set-up starts up to SETUP_SAMPLES
    assert record["attempted"] == 1 + run.SETUP_SAMPLES
    assert record["failed"] >= 1
    assert all("exit code 2" in p for p in record["problems"])
    assert "metrics" not in record   # main() then exits 1 without a result


def test_nonfinite_outputs_fail_the_check(tmp_path):
    tiny = pulse_workload(tmp_path, "tiny", TINY_PULSE)
    out = tmp_path / "out"
    out.mkdir()
    summary = {"config": {"pulse": {"order": 2}, "evolution": {"guard_sites": 6}},
               "results": {"norm": float("nan")}}
    (out / "summary.json").write_text(json.dumps(summary))
    (out / "pulse_populations.csv").write_text("site,population\n0,inf\n")
    problems, _, _ = run.check_outputs(tiny, out)
    assert any("summary.results.norm is nan" in p for p in problems)
    assert any("pulse_populations.csv row 1" in p for p in problems)
    assert any("has 1 rows, expected 17" in p for p in problems)


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "bvs_profile", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: (inner(), inner()))
    outer()    # outer 0..5, inner 1..2 and 3..4
    layers = tracer.layers()
    assert layers["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert layers["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
