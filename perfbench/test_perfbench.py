"""Tests of the benchmark itself: seeded inputs, the oracle, the tracer and
the speed meter."""

import json
import os
import signal
import sys
from collections import Counter
from time import perf_counter

import pytest

import catalogs
import measure
import oracle
import run
import spans
import speed

sys.path.insert(0, str(run.ROOT / "src"))
from seidelkit import cli  # noqa: E402


def test_same_seed_same_inputs():
    for workload in catalogs.WORKLOADS.values():
        assert workload.lines(3) == workload.lines(3)
    mixed = catalogs.WORKLOADS["random_mixed"]
    assert mixed.lines(3) != mixed.lines(4)


def test_random_mixed_has_a_fixed_mix_of_work():
    workload = catalogs.WORKLOADS["random_mixed"]
    for seed in (1, 2):
        verdicts = Counter(
            oracle.classify_line(line, workload.m, workload.theorem,
                                 workload.max_order)[0]
            for line in workload.lines(seed))
        assert verdicts["parse_failed"] == catalogs.MALFORMED
        assert verdicts["skipped"] == 8 * catalogs.PER_ORDER
        assert (verdicts["certified"] + verdicts["refuted"]
                == sum(catalogs.REACH_CERTIFY.values()))


def _scan(tmp_path, lines, workload):
    catalog = tmp_path / "catalog.g6"
    catalog.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert cli.run(["scan", str(catalog), *workload.flags(jobs=1),
                    "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_oracle_flags_a_flipped_scan_verdict(tmp_path):
    workload = catalogs.WORKLOADS["atlas_t1_m2"]
    lines = workload.lines(0)[:40] + ["Bw~", "!w"]
    expected = [oracle.classify_line(line, workload.m, workload.theorem,
                                     workload.max_order)[0] for line in lines]
    assert expected[-2:] == ["parse_failed", "parse_failed"]
    report = _scan(tmp_path, lines, workload)
    assert oracle.scan_report_problems(report, lines, expected, workload.m,
                                       workload.theorem) == {}

    entry = report["certificates"][3]
    entry["kind"] = "refuted" if entry["kind"] == "certified" else "certified"
    problems = oracle.scan_report_problems(report, lines, expected, workload.m,
                                           workload.theorem)
    assert list(problems) == [entry["line"]]


def test_oracle_flags_a_flipped_certificate():
    workload = catalogs.WORKLOADS["certify_exact72"]
    line = "A_"
    code, stdout, _ = measure.call(cli, ["certify", line, *workload.flags()])
    assert code == 0
    cert = json.loads(stdout)
    expected, _ = oracle.classify_line(line, workload.m, workload.theorem,
                                       max_order=10**9)
    assert oracle.certificate_problems(cert, line, workload.m,
                                       workload.theorem, expected, True) == []
    cert["equienergetic"] = not cert["equienergetic"]
    assert oracle.certificate_problems(cert, line, workload.m,
                                       workload.theorem, expected, True)


def test_tracer_leaves_output_unchanged_and_restores_functions(tmp_path):
    workload = catalogs.WORKLOADS["atlas_t1_m2"]
    lines = workload.lines(0)[:60]
    plain = _scan(tmp_path, lines, workload)
    originals = {(mod, name): getattr(sys.modules[mod], name)
                 for mod, name, _, _ in spans.TRACED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _scan(tmp_path, lines, workload)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(getattr(sys.modules[mod], name) is fn
               for (mod, name), fn in originals.items())
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.run.calls"] == 1
    assert metrics["graphs.graph_from_graph6.calls"] == 60
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["cli.run.wall_s"], rel=1e-6)


def test_benchmark_json_names_every_metric_the_run_prints():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(catalogs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]


def test_speed_meter_samples_the_caller_and_forked_workers(tmp_path):
    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass

    meter = speed.SpeedMeter(str(tmp_path / "speed.bin"), interval=0.01)
    with meter:
        busy(0.2)
    assert len(meter.samples) >= 5 and meter.child_samples == []
    assert meter.factor() > 0

    with meter:
        pid = os.fork()
        if pid == 0:
            try:
                busy(0.2)
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
    assert len(meter.child_samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
