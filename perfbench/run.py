"""mixerlab benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload train|s12|infer|rank \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3  # input preparations per run
MIN_TRACED = 2  # a traced run alternates at least two plain and two traced rounds
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mixerlab.cli; print(time.perf_counter() - t)"
)

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_s", "s"))


class ProgramMissing(Exception):
    pass


def import_program() -> float:
    """Import mixerlab from this checkout's src/ and return the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "mixerlab", "cli.py")):
        raise ProgramMissing(f"no mixerlab sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import mixerlab.cli  # noqa: F401  (pulls in every module the commands use)

    elapsed = time.perf_counter() - start
    if not os.path.abspath(mixerlab.cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"mixerlab was imported from {mixerlab.cli.__file__}, not {SRC}")
    return elapsed


def probe_import_s() -> float:
    """Import time of the program in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def round_seconds(ops) -> float:
    return sum(op.seconds for op in ops)


def measure(args, work_dir: str, first_import_s: float) -> tuple[dict, dict]:
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS, means

    workload = WORKLOADS[args.workload](work_dir, args.seed)
    # this process's import and one fresh interpreter's: each further probe
    # costs over a second per run and moves the median over runs little
    import_s = statistics.fmean([first_import_s, probe_import_s()])
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(prepare_s)

    warm = workload.warm_up()
    deadline = time.perf_counter() + args.seconds

    def another(rounds: list, least: int) -> bool:
        """Start rounds until the deadline has passed, and at least ``least``:
        the last round may end after it, so the mean always rests on whole
        rounds that cover all of ``--seconds``."""
        return len(rounds) < least or time.perf_counter() < deadline

    # the high-water mark after set-up, warm-up and one round: later rounds
    # repeat the same allocations, and their number depends on speed
    plain = [workload.run_round()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, samples, layers = [], [], {}
    if not args.trace:
        while another(plain, workload.min_rounds):
            plain.append(workload.run_round())
    else:
        # plain and traced rounds alternate, so drift over the run hits both
        tracer = Tracer()
        while True:
            tracer.install()
            try:
                for model in workload.live_models():
                    tracer.register_model(model)
                ops = workload.run_round()
            finally:
                tracer.uninstall()
            traced.append(ops)
            samples.append(tracer.take(round_seconds(ops)))
            if not another(traced, MIN_TRACED):
                break
            plain.append(workload.run_round())
        # each traced round against the plain round just before it
        overhead = statistics.median(
            round_seconds(t) / round_seconds(p) for p, t in zip(plain, traced))
        for name, unit in PER_LAYER:
            value = overhead if name == "trace.overhead" else statistics.median(s[name] for s in samples)
            layers[name] = {"value": value, "unit": unit}

    ops = warm + [op for r in plain + traced for op in r]
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"perfbench: {args.workload}/{op.name} failed: {op.error}", file=sys.stderr)
    op_mean, parts = means(plain)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "round_s": sum(op_mean.values()),
    }
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    named = {k: {"value": v, "unit": u} for k, (v, u) in workload.named(op_mean, parts).items()}
    named["error_rate"] = {"value": len(failed) / len(ops), "unit": "ratio"}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "end_to_end": end_to_end, "named": named, "op_mean_s": op_mean,
        "plain_round_s": [round_seconds(r) for r in plain],
        "traced_round_s": [round_seconds(r) for r in traced],
    }
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": layers if args.trace else end_to_end,
    }
    return report, result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        first_import_s = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from host import host_record

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        report, result = measure(args, work_dir, first_import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    report["host"] = host_record(ROOT)
    for section in ("end_to_end", "named"):
        for name, m in report[section].items():
            print(f"{name:<22} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
