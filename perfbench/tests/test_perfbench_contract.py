"""BENCHMARK.json agrees with the code, and the runner refuses to run
without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import diff
from perlayer import END_TO_END, PER_LAYER, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_lists_the_code_metrics_and_workloads():
    manifest = _manifest()
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert manifest["paths"] == ["perfbench"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_runner_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dumbbell_tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_record(workload, seed, self_s):
    spans = {"engine.run": {"calls": 1, "total_s": 2 * self_s, "self_s": self_s, "measure": 0},
             "core.collect": {"calls": 10, "total_s": self_s, "self_s": self_s, "measure": 0}}
    traced = {"spans": spans, "report": {"sim.events_dispatched": 100,
                                         "accuracy.packets_delivered": 10},
              "horizon_s": 1.0, "traced_wall_s": 2 * self_s, "events_by_layer": {"core": 100},
              "fingerprint": {"flows": [125_000]}}
    return {
        "trace": 1,
        "provenance": {"workload": workload, "seed": seed},
        "per_layer": layer_metrics(traced, self_s),
        "layer_self_s": {"engine": self_s, "core": self_s},
    }


def test_diff_pairs_results_and_reports_deltas(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    (before / "w-seed1-trace1.json").write_text(json.dumps(_traced_record("w", 1, 1.0)))
    (after / "w-seed1-trace1.json").write_text(json.dumps(_traced_record("w", 1, 0.5)))
    assert diff.main([str(before), str(after)]) == 0
    out = capsys.readouterr().out
    assert "== w seed=1" in out
    line = next(l for l in out.splitlines() if l.startswith("self.core"))
    assert "-50.0%" in line
    line = next(l for l in out.splitlines() if l.startswith("engine.events "))
    assert line.rstrip().endswith("=")
