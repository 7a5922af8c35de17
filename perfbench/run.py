"""Run the repository benchmark.

    python3 perfbench/run.py --workload fig9-cold --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` (or
``--trace both``) runs each requested workload and mode in its own process
and prints one combined JSON line.  ``--record-digests`` recomputes the
known-answer digests instead of benchmarking.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("fig9-cold", "service-mixed")
#: Peak RSS is read after this many rounds.  By then it has levelled off
#: (fig9-cold's second round adds about 30 MB that the first one freed but
#: the process kept), while a reading at the end would grow with the
#: number of rounds (the largest of more workers), and so with the speed
#: of the machine.
RSS_ROUNDS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_ips", "1/s"),
    ("peak_rss_mb", "MB"),
    ("computed_p50_s", "s"),
    ("computed_p90_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    parser.add_argument(
        "--record-digests", metavar="FIRST-LAST",
        help="record known-answer digests for seed slots FIRST..LAST",
    )
    return parser.parse_args(argv)


def require_source():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")


def import_program():
    """Put the checkout's ``src`` first on the path and make sure that is
    where ``repro`` comes from; anything else is an error."""
    require_source()
    sys.path.insert(0, str(SRC))
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: imported repro from {origin}, not from {SRC}")


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def peak_rss_mb():
    """Peak RSS of this process plus the largest reaped worker (Linux
    reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# --------------------------------------------------------------- one run


def run_rounds(workload, seconds, trace):
    """Repeat cold rounds for about ``seconds``: stop once the next round
    would end more than half a round past it.  Traced runs alternate
    untraced and traced rounds so both see the same machine.  Returns the
    rounds and the peak RSS read after the first ``RSS_ROUNDS`` rounds."""
    from tracing import Tracer
    from workloads import Round

    tracer = Tracer()
    rounds = []
    minimum = 2 if trace else 1
    started = time.perf_counter()
    while True:
        out = Round()
        out.traced = trace and len(rounds) % 2 == 1
        round_dir = WORKDIR / f"{workload.name}-{os.getpid()}-{len(rounds)}"
        shutil.rmtree(round_dir, ignore_errors=True)
        round_dir.mkdir(parents=True)
        begin = time.perf_counter()
        state = workload.setup_round(round_dir)
        out.setup_s = time.perf_counter() - begin
        tracer.reset()
        tracer.dump_dir = str(round_dir)
        tracer.install("full" if out.traced else "cells")
        try:
            workload.run_round(state, tracer, out)
        finally:
            tracer.uninstall()
            workload.teardown_round(state, out)
            shutil.rmtree(round_dir, ignore_errors=True)
        out.spans = [span.to_dict() for span in tracer.spans] + out.spans
        rounds.append(out)
        if len(rounds) <= RSS_ROUNDS:
            rss_mb = peak_rss_mb()
        gc.collect()
        elapsed = time.perf_counter() - started
        typical = median([r.wall_s + r.setup_s for r in rounds])
        if len(rounds) >= minimum and elapsed + typical / 2 >= seconds:
            return rounds, rss_mb


def import_seconds(samples=7):
    """Median wall time of a fresh interpreter importing what the
    workloads use: the part of set-up that happens once per process."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import repro.analysis.experiments, repro.api.runner, "
        "repro.service.server, repro.service.client, repro.verify.oracle"
    )
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return median(times)


def end_to_end(rounds, import_s, rss_mb):
    computed = [x for r in rounds for x in r.computed_latency]
    values = {
        "setup_s": import_s + median([r.setup_s for r in rounds]),
        "wall_s": median([r.wall_s for r in rounds]),
        "sim_ips": median([r.instructions / r.wall_s for r in rounds]),
        "peak_rss_mb": rss_mb,
        "computed_p50_s": percentile(computed, 0.5),
        "computed_p90_s": percentile(computed, 0.9),
    }
    counts = {
        "setup_s": len(rounds), "wall_s": len(rounds), "sim_ips": len(rounds),
        "peak_rss_mb": 1, "computed_p50_s": len(computed),
        "computed_p90_s": len(computed),
    }
    return values, counts


def run_one(args, slot):
    from layers import PER_LAYER, per_layer
    from workloads import make_workload

    workload = make_workload(args.workload, slot)
    WORKDIR.mkdir(exist_ok=True)
    trace = args.trace == "1"
    # The peak RSS is read before the import timing, whose fresh
    # interpreters are not workers, and before the final checks, whose
    # in-process recomputation would otherwise set the peak.
    rounds, rss_mb = run_rounds(workload, args.seconds, trace)
    untraced = [r for r in rounds if not r.traced]
    values, counts = end_to_end(untraced, import_seconds(), rss_mb)
    errors = [f"round {i}: {e}" for i, r in enumerate(rounds) for e in r.errors]
    errors += workload.final_checks(rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    print(f"# {args.workload} seed={args.seed} slot={slot} rounds={len(rounds)} "
          f"(traced {len(rounds) - len(untraced)}) attempted={attempted} "
          f"failed={failed} failed_frac={failed / max(1, attempted):.4f}")
    for name, unit in END_TO_END:
        print(f"{name:<32} {values[name]:>14.6g} {unit:<6} (median, n={counts[name]})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    warm = [x for r in untraced for x in r.warm_latency]
    if warm:
        print(f"# service.warm_p50_s {statistics.median(warm):.6g} s (median, n={len(warm)}; "
              "a per-layer metric, reported with --trace 1)")
    if trace:
        layer_values = per_layer(rounds, values["wall_s"])
        for name, unit, _ in PER_LAYER:
            print(f"{name:<32} {layer_values[name]:>14.6g} {unit}")
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        out_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        out_path.write_text(json.dumps(
            [{"round": i, "spans": r.spans} for i, r in enumerate(rounds) if r.traced]
        ))
        print(f"# spans written to {out_path.relative_to(ROOT)}")
    for error in errors:
        print(f"ERROR {error}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ------------------------------------------------------ several processes


def run_many(args):
    """Each workload and mode in a fresh process; one combined result."""
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = ("0", "1") if args.trace == "both" else (args.trace,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        for mode in modes:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", mode]
            proc = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = status or proc.returncode
            combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def record_digests(args):
    """Recompute each slot's results in-process and store their digest."""
    import_program()
    from repro.api.runner import SerialRunner
    from workloads import DIGEST_DIR, digest_of, make_workload

    first, _, last = args.record_digests.partition("-")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    DIGEST_DIR.mkdir(exist_ok=True)
    for name in names:
        path = DIGEST_DIR / f"{name}.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        for slot in range(int(first), int(last or first) + 1):
            specs = make_workload(name, slot).all_specs()
            unique = list(dict.fromkeys(specs))
            results = dict(zip(unique, SerialRunner().run(unique).results))
            table[str(slot)] = digest_of([results[spec] for spec in specs])
            print(f"{name} slot {slot}: {table[str(slot)]}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so a round's teardown still stops
    # the service and its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    require_source()
    if args.record_digests:
        return record_digests(args)
    if args.workload == "all" or args.trace == "both":
        return run_many(args)
    import_program()
    from workloads import SEED_SLOTS

    return run_one(args, args.seed % SEED_SLOTS)


if __name__ == "__main__":
    sys.exit(main())
