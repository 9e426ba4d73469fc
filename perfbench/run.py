"""seidelkit benchmark: scan throughput and certify latency, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run it from the root of a source checkout; it imports seidelkit from
``src/`` and exits 2 when that is missing.  The program sees only inputs
that ``catalogs.py`` makes from the seed, through ``seidelkit.cli.run`` in
a fresh process (``measure.py``).  Every output is checked against the
independent oracle in ``oracle.py``, outside the timed region.

``--trace 0`` times the workload and reports the end-to-end metrics,
with times in reference seconds (``speed.py``);
``--trace 1`` runs it serially with span wrappers and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON record of the run (sample counts, report digests,
verdict counts, closest oracle margin, traced time shares).  ``--workload
all`` runs every workload in both modes and prints one table of every
metric with its unit.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import catalogs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must exit within 180 s; its children are killed before that.
DEADLINE_S = 170
SETUP_SAMPLES = 7
SAMPLE_LINES = 10

END_TO_END = {
    "lines_per_s": "1/s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_per_cert"):
        return "B"
    return "count"


PER_LAYER = [
    "cli.run.calls", "cli.run.self_s", "cli.run.wall_s",
    "search.scan_stream.calls", "search.scan_stream.self_s",
    "search.write_report.calls", "search.write_report.self_s",
    "search.report_bytes_per_cert",
    "theory.certify.calls", "theory.certify.self_s",
    "theory.hypothesis_from_spectrum.calls",
    "theory.hypothesis_from_spectrum.self_s", "theory.bound_met_ratio",
    "theory.closed_form.calls", "theory.closed_form.self_s",
    "spectral.sym_eigenvalues.calls", "spectral.sym_eigenvalues.self_s",
    "spectral.sym_eigenvalues.unique_ratio",
    "spectral.sym_eigenvalues.dim3_sum",
    "spectral.charpoly_exact.calls", "spectral.charpoly_exact.self_s",
    "spectral.charpoly_exact.dim_sum",
    "spectral.integer_root_multiplicity.calls",
    "spectral.integer_root_multiplicity.self_s",
    "graphs.graph_from_graph6.calls", "graphs.graph_from_graph6.self_s",
    "graphs.blowup.calls", "graphs.blowup.self_s",
    "graphs.clique_blowup.calls", "graphs.clique_blowup.self_s",
    "graphs.construct_order_sum",
    "trace.overhead_s",
]


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def run_child(args, deadline):
    """Run a child in its own session; kill the session if it overruns."""
    proc = subprocess.Popen(args, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{args[2]} run exceeded the {DEADLINE_S} s limit")
    if code != 0:
        raise BenchError(f"{args[2]} run exited {code}")


def measure(mode, job_path, tmp, deadline):
    result_path = Path(tmp) / f"result-{mode}.json"
    run_child([sys.executable, str(HERE / "measure.py"), mode, str(job_path),
               str(result_path)], deadline)
    with open(result_path) as fh:
        return json.load(fh)


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------


class Check:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.reasons = []

    def add(self, attempted, failed, reasons=()):
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)
        del self.reasons[SAMPLE_LINES:]

    def problem(self, reason):
        """A whole-run defect (nondeterminism, unequal counts)."""
        self.reasons.append(reason)
        del self.reasons[SAMPLE_LINES:]
        self.broken = True


def check_scan(workload, lines, expected, calls, report_text, check):
    """Every call of a scan is one operation per non-blank catalog line."""
    per_call = sum(1 for line in lines if line.strip())
    problems = {}
    if report_text:
        problems = oracle.scan_report_problems(
            json.loads(report_text), lines, expected, workload.m,
            workload.theorem)
    verified = calls[-1]["sha256"]
    for record in calls:
        if record["code"] != 0:
            check.add(per_call, per_call, [f"scan exited {record['code']}"])
        elif not report_text:
            check.add(per_call, per_call, ["scan wrote no report"])
        elif record["sha256"] != verified:
            check.add(per_call, per_call, ["report differs between calls"])
        elif 0 in problems:
            check.add(per_call, per_call, problems[0])
        else:
            check.add(per_call, len(problems),
                      [f"line {k}: {'; '.join(v)}"
                       for k, v in sorted(problems.items())])


def check_certify(workload, line, record, stdout, check):
    """One certify call is one operation."""
    reasons = []
    if record["code"] != 0:
        reasons.append(f"certify exited {record['code']}")
    else:
        cert = json.loads(stdout)
        expected, _ = oracle.classify_line(line, workload.m,
                                           workload.theorem, max_order=10**9)
        reasons = oracle.certificate_problems(
            cert, line, workload.m, workload.theorem, expected,
            exact_required=True)
        if cert["graph6"] != line:
            reasons.append(f"certificate is for {cert['graph6']}")
    check.add(1, 1 if reasons else 0,
              [f"{line}: {'; '.join(reasons)}"] if reasons else [])


def oracle_summary(workload, lines):
    verdicts = []
    margins = []
    for line in lines:
        verdict, margin = oracle.classify_line(
            line, workload.m, workload.theorem, workload.max_order)
        verdicts.append(verdict)
        if margin is not None:
            margins.append(abs(margin))
    counts = {v: verdicts.count(v) for v in oracle.VERDICTS}
    return verdicts, counts, min(margins, default=None)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def prepare(workload, seed, seconds, tmp):
    lines = workload.lines(seed)
    job = {"src": str(ROOT / "src"), "command": workload.command,
           "flags": workload.flags(), "serial_flags": workload.flags(jobs=1),
           "seconds": seconds, "out": str(Path(tmp) / "report.json"),
           "speed_sink": str(Path(tmp) / "speed.bin")}
    if workload.command == "scan":
        job["catalog"] = str(Path(tmp) / "catalog.g6")
        job["warmup"] = str(Path(tmp) / "warmup.g6")
        Path(job["catalog"]).write_text("\n".join(lines) + "\n")
        Path(job["warmup"]).write_text("A_\nBw\nC~\n")
    else:
        job["inputs"] = lines
    job_path = Path(tmp) / "job.json"
    job_path.write_text(json.dumps(job))
    return lines, job, job_path


def timed_run(workload, lines, job, job_path, tmp, deadline, record, check):
    setups = [measure("setup", job_path, tmp, deadline)
              for _ in range(SETUP_SAMPLES)]
    result = measure("timed", job_path, tmp, deadline)
    calls = result["calls"]
    if workload.command == "scan":
        verdicts, counts, margin = oracle_summary(workload, lines)
        report = Path(job["out"])
        report_text = report.read_text() if report.exists() else ""
        check_scan(workload, lines, verdicts, calls, report_text, check)
        per_call = sum(1 for line in lines if line.strip())
        record.update(oracle_verdicts=counts, closest_margin=margin,
                      report_sha256=sorted({c["sha256"] for c in calls}))
    else:
        for c in calls:
            check_certify(workload, lines[c["index"] % len(lines)], c,
                          c.pop("stdout"), check)
        per_call = 1
    seconds = [c["ref_seconds"] for c in calls]
    record.update(samples=len(calls), call_ref_seconds=seconds,
                  call_wall_seconds=[c["seconds"] for c in calls],
                  call_speed=[c["speed"] for c in calls],
                  lines_per_call=per_call,
                  setup_ref_seconds=[s["setup_s"] for s in setups],
                  setup_wall_seconds=[s["wall_s"] for s in setups],
                  call_spread=quartile_spread(seconds))
    return {
        "lines_per_s": statistics.median(per_call / s for s in seconds),
        "call_p50_s": statistics.median(seconds),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }


def traced_run(workload, lines, job, job_path, tmp, deadline, record, check):
    result = measure("traced", job_path, tmp, deadline)
    untraced, own, runs = result["untraced"], result["own_flags"], result["traced"]
    output = runs[-1].pop("output")

    digests = {"untraced": untraced["sha256"]}
    if own is not None:
        digests["untraced_own_flags"] = own["sha256"]
    for k, traced in enumerate(runs):
        digests[f"traced_{k}"] = traced["sha256"]
    if len(set(digests.values())) != 1:
        check.problem(f"outputs differ between traced and untraced calls: "
                      f"{digests}")

    first, second = (traced["metrics"] for traced in runs)
    for name, value in first.items():
        if not name.endswith("_s") and second[name] != value:
            check.problem(f"count {name} differs between traced calls: "
                          f"{value} != {second[name]}")
    metrics = {name: statistics.median([first[name], second[name]])
               for name in first}

    if workload.command == "scan":
        verdicts, counts, margin = oracle_summary(workload, lines)
        check_scan(workload, lines, verdicts, runs, output, check)
        certs = len(json.loads(output)["certificates"]) if output else 0
        record.update(oracle_verdicts=counts, closest_margin=margin)
    else:
        check_certify(workload, lines[0], runs[-1], output, check)
        certs = 1
    metrics["search.report_bytes_per_cert"] = (
        runs[-1]["bytes"] / certs if certs else 0.0)
    traced_s = [traced["seconds"] for traced in runs]
    metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                   - untraced["seconds"])
    wall = metrics["cli.run.wall_s"]
    record.update(
        samples=len(runs), report_sha256=digests,
        untraced_serial_s=untraced["seconds"], traced_s=traced_s,
        untraced_functions=runs[0]["missing"],
        self_share={name[:-len(".self_s")]: round(value / wall, 4)
                    for name, value in metrics.items()
                    if name.endswith(".self_s") and value > 0})
    return metrics


def run_once(name, seed, seconds, trace):
    """One benchmark run; returns (record, result line)."""
    if not (ROOT / "src" / "seidelkit" / "__init__.py").is_file():
        raise BenchError(f"no seidelkit sources under {ROOT / 'src'}")
    workload = catalogs.WORKLOADS[name]
    deadline = perf_counter() + DEADLINE_S
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace}
    check = Check()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        lines, job, job_path = prepare(workload, seed, seconds, tmp)
        run = traced_run if trace else timed_run
        values = run(workload, lines, job, job_path, tmp, deadline, record,
                     check)
    units = ({n: layer_unit(n) for n in PER_LAYER} if trace else END_TO_END)
    record["problems"] = check.reasons
    result = {
        "correct": check.failed == 0 and not check.broken,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }
    return record, result


def run_all(seed, seconds):
    """Every workload in both modes, as one table of metrics with units."""
    correct = True
    for name in catalogs.WORKLOADS:
        for trace in (0, 1):
            record, result = run_once(name, seed, seconds, trace)
            correct &= result["correct"]
            print(f"# {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"samples={record['samples']}", flush=True)
            for metric, entry in result["metrics"].items():
                print(f"{name:16} {metric:42} {entry['value']:>16.6g} "
                      f"{entry['unit']}", flush=True)
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*catalogs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        record, result = run_once(args.workload, args.seed, args.seconds,
                                  args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
