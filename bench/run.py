"""gproximity benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the package from the working tree (``src`` on the path, no install).
With ``--trace 0`` it spawns one ``python -m gproximity`` process at a time
(closed loop, one client) for the workload's CLI operations and takes the
workload's library family through the in-process pipeline in slices between
them; whole rounds repeat while the next one still fits in ``--seconds``, and
``session_s`` is the median of the round totals.  With ``--trace 1`` the same operations run in
process, untraced and under the span tracer, and the per-layer metrics are
reported.  Every output is checked by the oracles.  The last stdout line is
the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import library
import oracles
import probes
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OP_TIMEOUT = 150.0
COMMANDS = ("validate", "classify", "solve", "enumerate", "demo")
MAX_PROBLEMS = 20


def _env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Tally:
    """Attempted and failed operations, and problems of the others."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, failed, problems=()):
        self.attempted += 1
        if failed:
            self.failed += 1
        else:
            self.problems.extend(problems)


def run_cli(argv, work, env):
    """One CLI process; returns (code, stdout, stderr, wall s, peak RSS MB)."""
    out_path, err_path = work / ".op.stdout", work / ".op.stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gproximity"] + list(argv),
                                cwd=work, env=env, stdout=fo, stderr=fe)
        timer = threading.Timer(OP_TIMEOUT, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(), wall,
            usage.ru_maxrss / 1024.0)


def run_inprocess(gp_cli, argv, work):
    """One CLI call through ``gproximity.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gp_cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is what a traceback would show
                traceback.print_exc(file=err)
                code = 1
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def judge(tally, op, code, stdout, stderr):
    """Failed: a malformed file not rejected by the fail-closed contract, or
    a crash.  Otherwise the oracle decides correctness."""
    if op.malformed:
        tally.op(not oracles.check_malformed(code, stdout, stderr))
    elif "Traceback" in stderr or code not in (0, 1):
        tally.op(True)
    else:
        tally.op(False, op.check(code, stdout))


def run_library(gp, items, on_record):
    """Takes library instances through the pipeline, one at a time;
    ``on_record(item, record)`` runs after each, off the clock.  A record is
    None for an instance whose pipeline raised.  Returns the seconds each
    instance spent in the pipeline."""
    gc.collect()
    times = []
    for item in items:
        t0 = time.perf_counter()
        try:
            rec = library.run(gp, item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rec = None
        times.append(time.perf_counter() - t0)
        on_record(item, rec)
    return times


def check_record(tally, ks, item, rec):
    """Tallies one library instance; collects the certified rate of a
    family member."""
    if rec is None:
        tally.op(True)
        return
    problems, k = library.check(rec)
    if item.family and k is None:
        tally.op(True)  # a family member left uncertified
        return
    tally.op(False, problems)
    if item.family:
        ks.append(k)


def setup(gp, name, seed, work):
    """Writes the workload's files afresh; returns the plan and the seconds."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    plan = workloads.WORKLOADS[name](gp, seed, work)
    return plan, time.perf_counter() - t0


def measure(gp, fresh, work, seconds, tally, setup_times):
    """Whole rounds of the workload until the next would end past ``seconds``.

    Each round sets up afresh with ``fresh()`` (appending its time to
    ``setup_times``), runs every CLI operation once and takes the library
    family through the pipeline, a slice of it after each CLI operation so
    that the in-process time, like the CLI time, spans the whole round.
    ``session_s`` is the median over the rounds of each round's total: a
    round sums many operations, and the median of those sums moves far less
    from run to run on a shared host, whose speed changes in phases of
    seconds to minutes, than the time of any one operation.
    """
    env = _env()
    sessions, k_means = [], []
    peak = 0.0
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plan, seconds_taken = fresh()
        setup_times.append(seconds_taken)
        lib, n_ops = plan.library, len(plan.ops)
        outputs, session_s, ks = [], 0.0, []
        for i, op in enumerate(plan.ops):
            code, out, err, wall, rss = run_cli(op.argv, work, env)
            session_s += wall
            peak = max(peak, rss)
            outputs.append((op, code, out, err))
            chunk = lib[i * len(lib) // n_ops:(i + 1) * len(lib) // n_ops]
            session_s += sum(run_library(gp, chunk,
                                         lambda item, rec: check_record(tally, ks, item, rec)))
        for op, code, out, err in outputs:
            judge(tally, op, code, out, err)
        sessions.append(session_s)
        k_means.append(statistics.fmean(ks) if ks else 1.0)
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    print(f"rounds: {len(sessions)}")
    return {"session_s": {"value": statistics.median(sessions), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "crr_k_mean": {"value": statistics.median(k_means), "unit": "1"}}


def trace_run(gp, fresh, work, seconds, tally):
    """Pairs of an untraced and a traced in-process pass, after one untraced
    warm-up pass, while the next pair still fits in ``seconds``; returns
    per-layer metrics."""
    import gproximity.cli as gp_cli

    def session(tr):
        """Setup and the workload's operations in process; returns the
        outputs to check once the clock has stopped."""
        if tr:
            tr.enter("bench.setup")
        plan, _seconds = fresh()
        if tr:
            tr.exit()
            tr.enter("bench.session")
        outputs, timings = [], {f"cli.{c}.s": 0.0 for c in COMMANDS}
        for op in plan.ops:
            t0 = time.perf_counter()
            outputs.append((op,) + run_inprocess(gp_cli, op.argv, work))
            timings[f"cli.{op.command}.s"] += time.perf_counter() - t0
        records = []
        lib_s = sum(run_library(gp, plan.library,
                                lambda item, rec: records.append((item, rec))))
        timings["library.instances_per_s"] = len(plan.library) / lib_s
        if tr:
            tr.exit()
        return outputs, records, timings

    def check(outputs, records, _timings=None):
        for op, code, out, err in outputs:
            judge(tally, op, code, out, err)
        for item, rec in records:
            check_record(tally, [], item, rec)

    rounds, absent, spans = [], [], []
    started = time.perf_counter()
    check(*session(None))  # warm-up, counted in the run time
    while True:
        pair_start = t0 = time.perf_counter()
        outputs, records, timings = session(None)
        untraced = time.perf_counter() - t0
        check(outputs, records)
        tr = tracing.Tracer()
        inst = tracing.install(tr)
        try:
            t0 = time.perf_counter()
            outputs, records, _timings = session(tr)
            traced = time.perf_counter() - t0
        finally:
            tracing.uninstall(inst)
        check(outputs, records)
        absent = inst.absent
        spans = tr.spans
        m = tracing.layer_metrics(tr)
        layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        m.update({"trace.traced_s": traced, "trace.untraced_s": untraced,
                  "trace.overhead_s": traced - untraced,
                  "bench.self_s": tr.self_s["bench"],
                  "trace.layer_share": layers / traced})
        m.update(timings)
        rounds.append(m)
        now = time.perf_counter()
        if now - started + (now - pair_start) > seconds:
            break
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics.update(probes.import_metrics(_env(), work))
    kernel, kernel_absent = probes.kernel_metrics(gp)
    metrics.update(kernel)
    absent += kernel_absent
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"rounds: {len(rounds)}")
    print(f"absent: {' '.join(absent) if absent else 'none'}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("mpairs_per_s"):
        return "Mpair/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_share"):
        return "1"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gproximity" / "__init__.py").is_file():
        print(f"error: no gproximity package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gproximity as gp
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK_ROOT / args.workload

    def fresh():
        return setup(gp, args.workload, args.seed, work)

    plan, setup_s = fresh()
    print("inputs: " + json.dumps(plan.files, sort_keys=True))
    subprocess.run([sys.executable, "-c", "import gproximity"], env=_env(), cwd=work,
                   check=True, timeout=120)  # warm page cache and bytecode

    tally = Tally()
    if args.trace:
        metrics = trace_run(gp, fresh, work, args.seconds, tally)
    else:
        setup_times = [setup_s]
        metrics = measure(gp, fresh, work, args.seconds, tally, setup_times)
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    for problem in tally.problems[:MAX_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
