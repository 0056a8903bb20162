"""End-to-end benchmark of the TraceBack first-fault diagnosis chain.

Runs one workload through compile -> instrument -> guest run -> snap ->
archive -> collector/vault ingest -> query (local and federated) ->
reconstruct -> render -> replay-verify, checks every output, and prints
its metrics with units.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload crash-fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # each in a fresh interpreter

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (spans around every layer's public
functions) and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run leaves behind: vault work dirs, results, spans.
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("long-crash", "crash-fleet", "replay-verify")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 9
ENGINE_ENV_VAR = "TBVM_ENGINE"


def _commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_chain():
    """Import the benchmark against this checkout's sources."""
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from tbbench import chain, metrics, programs, spans
    return chain, metrics, programs, spans


def _setup_probe(args) -> None:
    """What a workload sets up before its timed phase, and nothing else."""
    chain, _metrics, programs, _spans = _import_chain()
    programs.build_corpus(programs.WORKLOADS[args.workload], args.seed)
    workdir = os.path.join(OUT, f"setup-{os.getpid()}")
    try:
        for name in programs.REGIONS:
            chain.SnapVault(os.path.join(workdir, name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> tuple[float, list[float]]:
    """Median wall seconds of fresh interpreters doing the set-up, and
    the calibration kernel timed between them (the host speed then)."""
    _import_chain()
    from tbbench import calibrate

    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times, calibration = [], []
    for _ in range(SETUP_REPEATS):
        calibration += [calibrate.sample_ms() for _ in range(3)]
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times), calibration


def run_passes(chain, corpus, mix, seconds: float, tally, out: str,
               tracer=None):
    """Whole passes until about ``seconds`` of timed phase have elapsed.

    Another pass starts while it would end nearer the target than
    stopping now, so runs end within half a pass of ``seconds``.
    """
    while tally.passes == 0 or (
            tally.seconds + tally.seconds / tally.passes / 2 < seconds):
        workdir = os.path.join(out, f"work-{os.getpid()}-{tally.passes}")
        gc.collect()  # no pass pays for the previous one's garbage
        chain.Pass(corpus, mix, workdir, tally, tracer).run()
    return tally


def run_workload(args, mix=None, corpus=None, out=OUT):
    """Measure one workload in this process.

    Returns ``(correct, result, report)``: ``result`` is the final JSON
    object, ``report`` adds provenance, sample counts and failures.
    ``mix`` and ``corpus`` default to the workload's own, and ``out``
    (vault work dirs, spans) to ``.perfbench-out``; the benchmark's
    tests pass smaller ones.
    """
    chain, metrics, programs, spans = _import_chain()
    from repro.vm import Machine

    mix = mix or programs.WORKLOADS[args.workload]
    if corpus is None:
        corpus = programs.build_corpus(mix, args.seed)
    tally = run_passes(chain, corpus, mix,
                       args.seconds / 2 if args.trace else args.seconds,
                       chain.Tally(), out)
    if args.trace:
        traced = chain.Tally()
        with spans.Tracer() as tracer:
            run_passes(chain, corpus, mix, args.seconds / 2, traced, out,
                       tracer)
        values = metrics.per_layer(traced, tracer, tally)
        units = metrics.PER_LAYER
        tracer.write(os.path.join(
            out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        measured = [tally, traced]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = metrics.end_to_end(tally, args.setup_s, rss_mb)
        values = metrics.calibrated(
            raw, metrics.host_speed(tally.calibration_ms),
            metrics.host_speed(args.setup_calibration))
        units = metrics.END_TO_END
        measured = [tally]
    attempted = sum(t.attempted for t in measured)
    failed = sum(t.failed for t in measured)
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "engine": Machine().engine,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "passes": [t.passes for t in measured],
        "crashes_per_pass": len(corpus),
        "samples": metrics.samples(tally),
        "host_speed": metrics.host_speed(tally.calibration_ms),
        "calibration_ms": statistics.quantiles(tally.calibration_ms, n=20),
        "as_measured": None if args.trace else raw,
        "error_rate": failed / attempted,
        "failures": [f for t in measured for f in t.failures],
    }
    return correct, result, report


def _print_report(result: dict, report: dict) -> None:
    print("# " + json.dumps({k: v for k, v in report.items()
                             if k != "failures"}))
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    samples = report["samples"]
    for name, metric in result["metrics"].items():
        family = name.split(".")[0]
        note = f"  (n={samples[family]})" if family in samples else ""
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}{note}")
    print(f"{'error_rate':32s} {report['error_rate']:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations failed)")


def _run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        status |= subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.environ.get(ENGINE_ENV_VAR):
        print(f"error: {ENGINE_ENV_VAR}={os.environ[ENGINE_ENV_VAR]} is set; "
              "the benchmark measures the production default engine only, "
              "so a parent/change pair never compares two tiers",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 1 if args.setup_probe else _run_all(args)
    # A terminated run still unwinds, so its vault work dirs are removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    os.makedirs(OUT, exist_ok=True)
    # Any temporary file the program makes stays inside the checkout.
    os.environ["TMPDIR"] = OUT
    if args.setup_probe:
        _setup_probe(args)
        return 0
    args.setup_s, args.setup_calibration = (
        (0.0, []) if args.trace else measure_setup(args))
    correct, result, report = run_workload(args)
    with open(os.path.join(
            OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
            ".json"), "w") as fh:
        json.dump({**report, **result}, fh, indent=1)
    _print_report(result, report)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
