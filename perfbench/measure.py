"""Time or trace one workload's CLI calls in a fresh process.

    python3 measure.py MODE JOB_JSON RESULT_JSON

``run.py`` writes the job file and starts this script once per mode, so
set-up time and peak RSS belong to one fresh process.  MODE is

* ``setup``  -- import seidelkit and finish one warm-up call, timed;
* ``timed``  -- warm up, then a closed loop of CLI calls for the job's
  seconds: each call starts when the previous one has returned, and the
  loop stops before a call that would run past the window.  Peak RSS is
  read after the first call.  Each call's wall time is also given in
  reference seconds (``speed.py``);
* ``traced`` -- warm up, one untraced serial call, one untraced call with
  the workload's own flags when they are not serial, then two serial calls
  with the span wrappers installed.

The result is written as JSON to RESULT_JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import traceback
from time import perf_counter

import speed

# Set-up takes about 0.2 s, so it is sampled more often than a call.
SETUP_PROBE_INTERVAL_S = 0.01


def call(cli, argv):
    """Run one CLI call in-process; returns (exit code, stdout, seconds).

    An exception escaping ``cli.run`` is a failed call, not a crash of
    the benchmark: its code is recorded as the string ``"exception"``.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # noqa: BLE001 -- recorded and reported
            traceback.print_exc()
            code = "exception"
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def argv_for(job, index, flags):
    if job["command"] == "scan":
        return ["scan", job["catalog"], *flags, "--out", job["out"]]
    inputs = job["inputs"]
    return ["certify", inputs[index % len(inputs)], *flags]


def output_of(job, stdout):
    """The call's output: the report file for a scan, stdout for certify."""
    if job["command"] != "scan":
        return stdout.encode()
    try:
        with open(job["out"], "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def measured_call(cli, job, index, flags, meter=None):
    """One call; with a speed meter, also its reference seconds."""
    if job["command"] == "scan" and os.path.exists(job["out"]):
        os.remove(job["out"])
    argv = argv_for(job, index, flags)
    if meter is None:
        code, stdout, seconds = call(cli, argv)
    else:
        with meter:
            code, stdout, seconds = call(cli, argv)
    output = output_of(job, stdout)
    record = {"index": index, "code": code, "seconds": seconds,
              "sha256": hashlib.sha256(output).hexdigest(),
              "bytes": len(output)}
    if meter is not None:
        record["speed"] = meter.factor()
        record["ref_seconds"] = seconds * record["speed"]
    return record, output


def warm_up(cli, job):
    if job["command"] == "scan":
        argv = ["scan", job["warmup"], *job["flags"], "--out",
                job["out"] + ".warmup"]
    else:
        argv = ["certify", "A_", *job["flags"]]
    code, _, _ = call(cli, argv)
    if code != 0:
        raise SystemExit(f"warm-up call {argv} exited {code}")


def peak_rss_kb() -> int:
    """Peak RSS of this process and of its reaped children (pool workers).

    ``ru_maxrss`` of ``RUSAGE_SELF`` keeps the peak of the process that
    started this one across exec, so this process's own peak is VmHWM.
    """
    with open("/proc/self/status") as fh:
        own = int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def setup(job):
    """Import seidelkit and finish one warm-up call, in reference seconds."""
    with speed.SpeedMeter(job["speed_sink"], SETUP_PROBE_INTERVAL_S) as meter:
        start = perf_counter()
        from seidelkit import cli
        warm_up(cli, job)
        seconds = perf_counter() - start
    factor = meter.factor()
    return {"setup_s": seconds * factor, "wall_s": seconds, "speed": factor}


def timed(cli, job):
    calls = []
    meter = speed.SpeedMeter(job["speed_sink"])
    start = perf_counter()
    index = 0
    while True:
        record, output = measured_call(cli, job, index, job["flags"], meter)
        if job["command"] != "scan":
            record["stdout"] = output.decode()
        calls.append(record)
        if index == 0:
            # taken after one call, so it does not grow with the call count
            rss_kb = peak_rss_kb()
        index += 1
        if perf_counter() - start + record["seconds"] > job["seconds"]:
            break
    return {"calls": calls, "peak_rss_kb": rss_kb}


def traced(cli, job):
    # imported here, not at the top, so that set-up time includes numpy's
    # import when seidelkit triggers it
    import spans

    untraced, _ = measured_call(cli, job, 0, job["serial_flags"])
    own_flags = None
    if job["flags"] != job["serial_flags"]:
        own_flags, _ = measured_call(cli, job, 0, job["flags"])
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            record, output = measured_call(cli, job, 0, job["serial_flags"])
        finally:
            tracer.uninstall()
        record["metrics"] = spans.layer_metrics(tracer)
        record["missing"] = tracer.missing
        runs.append(record)
    record["output"] = output.decode()
    return {"untraced": untraced, "own_flags": own_flags, "traced": runs}


def main():
    mode, job_path, result_path = sys.argv[1:4]
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    if mode == "setup":
        result = setup(job)
    else:
        from seidelkit import cli

        warm_up(cli, job)
        result = timed(cli, job) if mode == "timed" else traced(cli, job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
