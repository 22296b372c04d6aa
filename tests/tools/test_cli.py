"""Tests for the repro-net CLI."""

import pytest

from repro.tools import main
from repro.topology import load_gml


def test_generate_ring(tmp_path, capsys):
    out = tmp_path / "ring.gml"
    assert main(["generate", "ring", "--routers", "6", "--vns", "2", "-o", str(out)]) == 0
    topology = load_gml(str(out))
    assert topology.num_nodes == 18
    assert "18 nodes" in capsys.readouterr().out


def test_generate_transit_stub_deterministic(tmp_path):
    a, b = tmp_path / "a.gml", tmp_path / "b.gml"
    main(["generate", "transit-stub", "--seed", "5", "-o", str(a)])
    main(["generate", "transit-stub", "--seed", "5", "-o", str(b)])
    assert a.read_text() == b.read_text()


def test_info_reports_classes(tmp_path, capsys):
    out = tmp_path / "ts.gml"
    main(["generate", "transit-stub", "-o", str(out)])
    capsys.readouterr()
    assert main(["info", str(out)]) == 0
    text = capsys.readouterr().out
    assert "connected: True" in text
    assert "transit-transit" in text
    assert "client-stub" in text


def test_annotate_overrides_bandwidths(tmp_path, capsys):
    source = tmp_path / "ts.gml"
    out = tmp_path / "annotated.gml"
    main(["generate", "transit-stub", "-o", str(source)])
    assert main([
        "annotate", str(source), "--transit-bw", "155", "-o", str(out)
    ]) == 0
    topology = load_gml(str(out))
    from repro.topology import classify_link, LinkKind

    transit_links = [
        l for l in topology.links.values()
        if classify_link(topology, l) is LinkKind.TRANSIT_TRANSIT
    ]
    assert transit_links
    assert all(l.bandwidth_bps == pytest.approx(155e6) for l in transit_links)


def test_distill_last_mile(tmp_path, capsys):
    source = tmp_path / "ring.gml"
    out = tmp_path / "distilled.gml"
    main(["generate", "ring", "--routers", "20", "--vns", "20", "-o", str(source)])
    capsys.readouterr()
    assert main(["distill", str(source), "--mode", "last-mile", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "590 pipes" in text
    distilled = load_gml(str(out))
    assert distilled.num_links == 590


def test_route_command(tmp_path, capsys):
    source = tmp_path / "star.gml"
    main(["generate", "star", "--vns", "4", "-o", str(source)])
    capsys.readouterr()
    assert main(["route", str(source), "--src", "1", "--dst", "4"]) == 0
    text = capsys.readouterr().out
    assert "2 hops" in text


def test_route_unreachable(tmp_path, capsys):
    gml = tmp_path / "two.gml"
    gml.write_text(
        'graph [ node [ id 0 kind "client" ] node [ id 1 kind "client" ] ]\n'
    )
    assert main(["route", str(gml), "--src", "0", "--dst", "1"]) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_import_caida(tmp_path, capsys):
    source = tmp_path / "links.txt"
    source.write_text("701 1239\n701 3356\n1239 3356\n")
    out = tmp_path / "imported.gml"
    assert main([
        "import", str(source), "--format", "caida", "--clients", "1",
        "-o", str(out),
    ]) == 0
    topology = load_gml(str(out))
    assert topology.num_nodes >= 3
    assert len(topology.clients()) >= 1
    assert "imported" in capsys.readouterr().out


def test_import_bgp(tmp_path):
    source = tmp_path / "paths.txt"
    source.write_text("701 1239 3356\n3356 7018\n")
    out = tmp_path / "imported.gml"
    assert main(["import", str(source), "--format", "bgp", "-o", str(out)]) == 0
    assert load_gml(str(out)).num_links == 3


def test_run_writes_run_report(tmp_path, capsys):
    source = tmp_path / "ring.gml"
    main(["generate", "ring", "--routers", "4", "--vns", "2", "-o", str(source)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main([
        "run", str(source), "--cores", "2", "--hosts", "2", "--flows", "2",
        "--seconds", "1.0", "--report", str(report_path), "--csv", str(csv_path),
    ]) == 0
    text = capsys.readouterr().out
    assert "RunReport" in text

    from repro.obs import RunReport

    report = RunReport.load(str(report_path))
    assert report.metric("accuracy.packets_delivered") > 0
    assert report.metric("pipe.arrivals") > 0
    assert report.metric("sched.wakeups{core=0}") > 0
    assert report.metric_sum("core.utilization") > 0
    assert report.topology["cores"] == 2
    assert "metric,value" in csv_path.read_text()


def test_run_prints_json_without_output_paths(tmp_path, capsys):
    source = tmp_path / "star.gml"
    main(["generate", "star", "--vns", "4", "-o", str(source)])
    capsys.readouterr()
    assert main([
        "run", str(source), "--flows", "2", "--seconds", "0.5", "--no-obs",
    ]) == 0
    import json

    raw = json.loads(capsys.readouterr().out)
    assert raw["metrics"]["accuracy.packets_entered"] > 0
    # Null registry: no hot-path timing histograms in the report.
    assert "pipe.enqueue_s" not in raw["metrics"]


def test_run_budget_abort_exits_3_with_partial_report(tmp_path, capsys):
    source = tmp_path / "dumbbell.gml"
    main(["generate", "dumbbell", "--vns", "2", "-o", str(source)])
    capsys.readouterr()
    report_path = tmp_path / "abort.json"
    assert main([
        "run", str(source), "--flows", "2", "--seconds", "1.0",
        "--max-events", "500", "--report", str(report_path),
    ]) == 3
    import json

    metrics = json.loads(report_path.read_text())["metrics"]
    assert metrics["run.outcome"] == "aborted{reason=max_events}"
    assert "resilience.downgrades" in metrics


def test_check_src_is_clean(capsys):
    import os

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    assert main(["check", os.path.normpath(src)]) == 0
    assert "no determinism violations" in capsys.readouterr().out


def test_sanitize_seeded_scenario_passes(tmp_path, capsys):
    gml = tmp_path / "dumbbell.gml"
    main(["generate", "dumbbell", "--vns", "2", "-o", str(gml)])
    capsys.readouterr()
    assert main([
        "sanitize", str(gml), "--seeds", "1,2,3", "--seconds", "0.3",
        "--flows", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 3
    assert "digest-identical" in out


def test_sanitize_detects_injected_fault(tmp_path, capsys):
    gml = tmp_path / "dumbbell.gml"
    main(["generate", "dumbbell", "--vns", "2", "-o", str(gml)])
    capsys.readouterr()
    assert main([
        "sanitize", str(gml), "--seeds", "1", "--seconds", "0.3",
        "--flows", "2", "--inject-fault",
    ]) == 1
    out = capsys.readouterr().out
    assert "NONDETERMINISTIC" in out
    assert "run 1:" in out and "t=" in out  # first-divergence report


def test_exp_ls_lists_builtin_suites(capsys):
    assert main(["exp", "ls"]) == 0
    text = capsys.readouterr().out
    for name in ("smoke", "fig4", "fig8", "fig12"):
        assert name in text


def test_exp_run_and_report_produce_tidy_dataset(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["exp", "run", "smoke", "--out-dir", out_dir]) == 0
    capsys.readouterr()
    assert main(["exp", "report", "smoke", "--out-dir", out_dir]) == 0
    capsys.readouterr()
    csv_text = (tmp_path / "results" / "smoke" / "dataset.csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header[:3] == ["run_id", "seed", "flows"]  # keyed by the axes
    assert "goodput_bps" in header
    assert len(csv_text.splitlines()) == 5  # header + 4 runs
    import json

    data = json.loads(
        (tmp_path / "results" / "smoke" / "dataset.json").read_text()
    )
    assert data["format"] == "repro-exp-dataset/1"
    assert all(row["status"] == "ok" for row in data["rows"])


def test_exp_resume_completes_interrupted_sweep(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["exp", "run", "smoke", "--out-dir", out_dir, "--limit", "2"]) == 0
    assert main(["exp", "ls", "smoke", "--out-dir", out_dir]) == 1  # incomplete
    capsys.readouterr()
    assert main(["exp", "resume", "smoke", "--out-dir", out_dir]) == 0
    text = capsys.readouterr().out
    assert "2 skipped" in text
    assert main(["exp", "ls", "smoke", "--out-dir", out_dir]) == 0


def test_exp_report_before_run_fails_with_hint(tmp_path, capsys):
    assert main([
        "exp", "report", "smoke", "--out-dir", str(tmp_path / "empty"),
    ]) == 2
    assert "no sweep manifest" in capsys.readouterr().err


def test_exp_rejects_unknown_suite(tmp_path, capsys):
    assert main(["exp", "run", "figZ", "--out-dir", str(tmp_path)]) == 2
    assert "figZ" in capsys.readouterr().err


def test_run_out_dir_defaults_report_paths(tmp_path, capsys):
    source = tmp_path / "star.gml"
    main(["generate", "star", "--vns", "4", "-o", str(source)])
    capsys.readouterr()
    out_dir = tmp_path / "outrun"
    assert main([
        "run", str(source), "--flows", "2", "--seconds", "0.5",
        "--out-dir", str(out_dir),
    ]) == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()


def test_bench_writes_only_the_scaling_manifest(tmp_path, capsys):
    import json

    assert main([
        "bench", "--profile", "short", "--out-dir", str(tmp_path),
    ]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [
        "BENCH_multicore_scaling.json"
    ]
    manifest = json.loads((tmp_path / "BENCH_multicore_scaling.json").read_text())
    assert manifest["params"]["worker_counts"] == [1, 2]
    assert manifest["extras"]["speedup[w=1]"] > 0
    assert manifest["extras"]["speedup[w=2]"] > 0
    assert len(manifest["digest"]) == 64
    assert not any("digest" in key for key in manifest["extras"])
    assert "speedup[w=2]" in capsys.readouterr().out


def test_bench_fails_when_a_multiprocess_digest_diverges(tmp_path, monkeypatch):
    from repro.engine import parallel

    run = parallel.run_multiprocess

    def diverging_run(*args, **kwargs):
        result = run(*args, **kwargs)
        result.domain_digests[0] = "0" * 64
        return result

    monkeypatch.setattr(parallel, "run_multiprocess", diverging_run)
    with pytest.raises(RuntimeError, match=r"multicore_scaling\[w=1\].*diverged"):
        main(["bench", "--profile", "short", "--out-dir", str(tmp_path)])
    assert not (tmp_path / "BENCH_multicore_scaling.json").exists()
