"""The codiff benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
checkout's ``src/codiff``.  Each round writes freshly relabelled inputs for
the workload (see ``workloads.py``), validates them, and then times two
passes over the workload's jobs, one job at a time.  Rounds repeat while
the next one is expected to end within ``--seconds``.

``--trace 0`` alternates two kinds of pass and prints the end-to-end
metrics: every job as its own ``python -m codiff.cli`` process
(``wall_s_p50``, ``peak_rss_mb``), and every job through ``codiff.cli.main``
in this warm process (``inproc_s_p50``).  ``setup_s`` is the median time of
a fresh process that only imports codiff.  ``--trace 1`` alternates
untraced and traced in-process passes and prints the per-layer split of the
traced ones (``tracer.py``); the spans are written to ``bench/_run/``.

Times are reported in reference seconds.  The speed of a shared machine
drifts by 20-80% over seconds to minutes, which would swamp any change
worth measuring.  A fixed calibration loop that never touches codiff
(``calibration_seconds``) runs before, between and after the jobs of every
pass, and the pass time is multiplied by CAL_REF_S over the median
calibration time around that pass.  A change to codiff moves reference
seconds as it moves raw seconds, while the machine's drift largely cancels.
Raw seconds are printed above the result.

Every job's report is checked against its known answer.  The last line of
stdout is one JSON object; the exit status is 0 only when every job passed.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / "_run"

MIN_ROUNDS = 3
IMPORT_SAMPLES = 15
HARD_LIMIT_S = 170
CAL_LOOPS = 1500
CAL_READS = 45000
CAL_REF_S = 0.025


# Runs ``python -m codiff.cli ARGS`` and at exit writes the process's peak
# resident set size in kB (VmHWM) to the file named by its first argument.
# A child's ru_maxrss cannot serve: exec records the high-water mark of the
# memory the child shared with this process, so it is never below this
# process's own peak.
JOB_CODE = """\
import atexit, runpy, sys
path = sys.argv.pop(1)
def report():
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line.split()[1] for line in status
                       if line.startswith("VmHWM:")))
atexit.register(report)
runpy.run_module("codiff.cli", run_name="__main__", alter_sys=True)
"""


class Timeout(Exception):
    """The run overstayed its hard limit."""


def _on_alarm(signum, frame):
    raise Timeout("the benchmark ran past %d s" % HARD_LIMIT_S)


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Jobs attempted and failed across the passes of one benchmark run,
    and every reason the run is not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, job, status, stdout, how):
        self.attempted += 1
        reason = workloads.check(job, status, stdout)
        if reason is not None:
            self.failed += 1
            self.failures.append("%s (%s): %s" % (job.label, how, reason))

    def fail(self, reason):
        self.failures.append(reason)


def rounds(seconds):
    """Round indices until the next round would likely end after
    ``seconds``; at least MIN_ROUNDS."""
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if index >= MIN_ROUNDS and elapsed * (index + 1) / index > seconds:
            return
        yield index
        index += 1


def job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _calibration_matrix(n):
    return [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1)
             for j in range(n)] for i in range(n)]


CAL_MATRIX = _calibration_matrix(14)
CAL_TABLE = array.array("q", range(1 << 21))


def calibration_seconds():
    """Time of fixed work that never touches codiff: Gauss-Jordan
    elimination of a 14x14 matrix of fractions, a loop of fraction, dict and
    tuple operations, and reads spread over a 16 MB table.  It tracks the
    machine's speed of the moment.  Code that stays in the processor's
    caches and code that waits on memory slow down by different amounts
    when the machine is shared, so the loop mixes both, as codiff's jobs
    do."""
    t0 = perf_counter()
    rows = [row[:] for row in CAL_MATRIX]
    for c, pivot in enumerate(rows):
        inv = 1 / pivot[c]
        pivot[:] = [x * inv for x in pivot]
        for r, row in enumerate(rows):
            f = row[c]
            if r != c and f:
                row[:] = [x - f * y for x, y in zip(row, pivot)]
    acc, seen = Fraction(0), {}
    for i in range(CAL_LOOPS):
        x = Fraction(i % 7 + 1, i % 5 + 1)
        acc = acc + x * x - x
        key = (i % 11, i % 13, i % 3, i % 2)
        seen[key] = seen.get(key, 0) + 1
        sorted(key)
    mask, j, total = len(CAL_TABLE) - 1, 0, 0
    for _ in range(CAL_READS):
        j = (j + 40503) & mask
        total += CAL_TABLE[j]
    return perf_counter() - t0


def timed(items, run_one, cals):
    """Run ``run_one`` on each item in turn, with the calibration loop
    before, between and after them; its times are appended to ``cals``.

    ``run_one`` returns (seconds, result).  This returns (seconds per item,
    results, scale), where ``scale`` turns these seconds into reference
    seconds: seconds on a machine on which the calibration loop takes
    CAL_REF_S.  The median calibration time around these items sets it, so
    it follows the machine's speed during them, and one burst of load moves
    it little."""
    seconds, results = [], []
    mine = [calibration_seconds()]
    for item in items:
        t, result = run_one(item)
        mine.append(calibration_seconds())
        seconds.append(t)
        results.append(result)
    cals.extend(mine)
    return seconds, results, CAL_REF_S / statistics.median(mine)


def spawn(argv, env):
    """Run one command as a child process; returns (seconds, (exit status,
    stdout)).  ``subprocess.run`` kills and reaps the child if anything,
    the run's time limit included, interrupts the wait."""
    t0 = perf_counter()
    done = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    seconds = perf_counter() - t0
    return seconds, (done.returncode, done.stdout.decode("utf-8", "replace"))


def import_samples(env, samples, cals):
    """Times of fresh processes that only import codiff."""
    argv = [sys.executable, "-c",
            "import codiff, sys; sys.stdout.write(codiff.__file__)"]
    seconds, results, scale = timed(range(samples),
                                    lambda _: spawn(argv, env), cals)
    for status, stdout in results:
        if status != 0 or not Path(stdout).resolve().is_relative_to(SRC):
            raise RuntimeError("a fresh process imports codiff from %r "
                               "(exit %r), not from %s"
                               % (stdout, status, SRC))
    return [(t, t * scale) for t in seconds]


def call_main(argv):
    """codiff.cli.main with stdout captured: (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            status = codiff.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:
            status = "exception: " + traceback.format_exc(limit=-1).strip()
    return status, out.getvalue()


def process_pass(inputs, env, out_dir, cals):
    """One pass, each job its own process running ``python -m codiff.cli``
    through JOB_CODE.  Results are (exit status, stdout, peak RSS in MB)."""
    report = out_dir / "vmhwm"

    def run_one(item):
        job, path = item
        report.unlink(missing_ok=True)
        seconds, (status, stdout) = spawn(
            [sys.executable, "-c", JOB_CODE, str(report)] + job.argv(path),
            env)
        rss = int(report.read_text()) / 1024.0 if status == 0 else 0.0
        return seconds, (status, stdout, rss)
    return timed(inputs, run_one, cals)


def inproc_pass(inputs, cals, trace=None):
    """One pass through codiff.cli.main in this process."""
    def run_one(item):
        job, path = item
        if trace is not None:
            trace.job = job.label
        t0 = perf_counter()
        result = call_main(job.argv(path))
        return perf_counter() - t0, result
    return timed(inputs, run_one, cals)


def prepare_round(jobs, seed, index, in_dir, run):
    """Write and validate one round's inputs; None when one fails."""
    inputs = workloads.write_pass_inputs(jobs, seed, index, in_dir)
    for path in sorted({str(path) for _, path in inputs}):
        status, stdout = call_main(["validate", path])
        if (status, stdout) != (0, "validate: ok\n"):
            run.fail("generated input %s does not validate: %r"
                     % (Path(path).name, stdout))
            return None
    return inputs


def report_passes(kind, passes):
    print("%d %s passes, seconds: %s; reference seconds: %s" % (
        len(passes), kind, " ".join("%.3f" % p[0] for p in passes),
        " ".join("%.3f" % p[1] for p in passes)))


def report_calibration(cals):
    if cals:
        print("calibration: %d samples, median %.2f ms (reference %.0f ms)"
              % (len(cals), 1000 * statistics.median(cals), 1000 * CAL_REF_S))


def reference(passes):
    """Median reference seconds of [(seconds, reference seconds)]."""
    return median([p[1] for p in passes])


def measure_end_to_end(jobs, args, work, run):
    env = job_env()
    cals = []
    setup = import_samples(env, IMPORT_SAMPLES, cals)
    walls, rss, inprocs = [], [], []
    for index in rounds(args.seconds):
        inputs = prepare_round(jobs, args.seed, index, work, run)
        if inputs is None:
            break
        # Alternate the order so drifting machine load hits both kinds alike.
        for kind in (("process", "in-process") if index % 2 == 0
                     else ("in-process", "process")):
            if kind == "process":
                seconds, results, scale = process_pass(inputs, env, work,
                                                       cals)
                walls.append((sum(seconds), sum(seconds) * scale))
                rss.append(max(result[2] for result in results))
            else:
                seconds, results, scale = inproc_pass(inputs, cals)
                inprocs.append((sum(seconds), sum(seconds) * scale))
            for (job, _), result in zip(inputs, results):
                run.record(job, result[0], result[1], kind)
    report_passes("process", walls)
    report_passes("in-process", inprocs)
    report_passes("import", setup)
    report_calibration(cals)
    ok = (run.attempted - run.failed) / max(run.attempted, 1)
    return {
        "wall_s_p50": (reference(walls), "s"),
        "inproc_s_p50": (reference(inprocs), "s"),
        "setup_s": (reference(setup), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "ok_ratio": (ok, "1"),
    }


def measure_per_layer(jobs, args, work, run):
    cals, plain, traced, per_pass, spans = [], [], [], [], []
    for index in rounds(args.seconds):
        inputs = prepare_round(jobs, args.seed, index, work, run)
        if inputs is None:
            break
        outputs = {}
        for kind in (("plain", "traced") if index % 2 == 0
                     else ("traced", "plain")):
            if kind == "plain":
                seconds, outputs[kind], scale = inproc_pass(inputs, cals)
                plain.append((sum(seconds), sum(seconds) * scale))
            else:
                with tracer.Tracer() as t:
                    seconds, outputs[kind], scale = inproc_pass(inputs, cals,
                                                                t)
                traced.append((sum(seconds), sum(seconds) * scale))
                per_pass.append({
                    name: (value * scale if unit == "s" else value, unit)
                    for name, (value, unit) in t.metrics().items()})
                spans.append(t.spans)
        for (job, _), result in zip(inputs, outputs["traced"]):
            run.record(job, *result, "traced")
        if outputs["traced"] != outputs["plain"]:
            run.fail("round %d: traced stdout differs from untraced" % index)
    report_passes("traced", traced)
    report_passes("untraced", plain)
    report_calibration(cals)
    metrics = {}
    for name, (_, unit) in (per_pass[0].items() if per_pass else ()):
        metrics[name] = (median([m[name][0] for m in per_pass]), unit)
    metrics["trace.pass_s"] = (reference(traced), "s")
    metrics["trace.overhead_s"] = (reference(traced) - reference(plain), "s")
    write_spans(args, spans)
    return metrics


def write_spans(args, passes):
    path = RUN_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        for index, spans in enumerate(passes):
            for span in sorted(spans):
                span_id, name, start, end, parent, job, self_s = span
                fh.write(json.dumps({"pass": index, "id": span_id,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "self_s": self_s}) + "\n")


def print_split(metrics):
    total = metrics["trace.pass_s"][0] or 1.0
    for name, (value, unit) in metrics.items():
        share = "  %5.1f%% of the traced pass" % (100 * value / total) \
            if unit == "s" and not name.startswith("trace.") else ""
        print("  %-24s %12.6g %-5s%s" % (name, value, unit, share))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    jobs = workloads.WORKLOADS[args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / ("work-%d" % os.getpid())
    work.mkdir()
    run = Run()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)
    metrics = {}
    try:
        if args.trace:
            metrics = measure_per_layer(jobs, args, work, run)
        else:
            metrics = measure_end_to_end(jobs, args, work, run)
    except Timeout as exc:
        run.fail(str(exc))
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    for reason in run.failures[:10]:
        print("FAIL " + reason)
    if args.trace and metrics:
        print_split(metrics)
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__" and not (SRC / "codiff" / "__init__.py").is_file():
    sys.exit("error: %s has no codiff package to benchmark; run from the "
             "root of a source checkout" % SRC)
sys.path.insert(0, str(SRC))
import codiff.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
