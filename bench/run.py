"""Trial benchmark for stratograph.

From the repository root:

    python3 bench/run.py --workload sweep-5v --seed 1 --seconds 28 --trace 0

Load is one client in a closed loop: each trial (sample, certify,
reconstruct, fit, evaluate) starts when the previous one has finished and
been checked.  The harness starts no threads or processes of its own.
Trial seeds are derived from --seed.

--trace 0 measures the end-to-end metrics.  --trace 1 runs each trial
untraced and then again with spans around the calls into each stratograph
module, and reports per-layer medians of self time and counts; the median
ratio of each pair is trace.overhead_frac, and both runs of a trial must
produce the same digest.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (environment,
per-trial seeds, times and digests, and the spans of a traced run) is
written to .bench_run/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
P90_MIN_TRIALS = 100
TRACED_MIN_TRIALS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="stratograph trial benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def trial_seed(seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_one(workload, k: int, seed: int, tracer=None) -> dict:
    """Time trial ``k``, traced when a tracer is given, then check it untimed."""
    if tracer is not None:
        tracer.install()
    try:
        with tracer.trial(k) if tracer is not None else nullcontext():
            t0 = perf_counter()
            out = workload.run(k, seed)
            took = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    checked = workload.check(out, tracer.trial_spans(k) if tracer is not None else None)
    for problem in checked.problems:
        print(f"trial {k} (seed {seed}) failed: {problem}", file=sys.stderr)
    return {"k": k, "seed": seed, "seconds": took, "checked": checked}


def run_trials(workload, seed: int, seconds: float, min_trials: int, tracer=None):
    """Closed loop of trials, in rounds that run each truth graph once.

    A round starts only if it should end within ``seconds`` and at least
    ``min_trials`` have run.  With a tracer, each trial runs untraced and
    then again traced, so that both see the same state of a shared
    machine.  Returns the untraced and the traced records.
    """
    untraced, traced = [], []
    start = perf_counter()
    last_round = 0.0
    k = 0
    while True:
        if k % workload.round_size == 0:
            if k >= min_trials and (perf_counter() - start) + last_round > seconds:
                break
            last_round = 0.0
        s = trial_seed(seed, k)
        untraced.append(run_one(workload, k, s))
        last_round += untraced[-1]["seconds"]
        if tracer is not None:
            traced.append(run_one(workload, k, s, tracer))
            last_round += traced[-1]["seconds"]
        k += 1
    return untraced, traced


def round_medians(durations: list, round_size: int) -> float:
    """Median over rounds of the mean trial time within a round, so that the
    mix of graphs in a workload cannot make the median jump between modes."""
    return statistics.median(statistics.fmean(durations[i:i + round_size])
                             for i in range(0, len(durations), round_size))


def run_digest(records: list) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r["checked"].digest.encode())
    return h.hexdigest()


def end_to_end(records: list, round_size: int, scored: int, setup_s: float) -> dict:
    """Throughput and latency over every trial; the worst vertex error over
    the first ``scored`` trials, which every run completes, so that it does
    not grow with the number of trials a faster program fits in the run."""
    durations = [r["seconds"] for r in records]
    passed = [r for r in records if not r["checked"].problems]
    errors = [r["checked"].error_eps for r in records[:scored]
              if r["checked"].error_eps is not None and not r["checked"].problems]
    return {"trials_per_s": len(passed) / sum(durations),
            "trial_ms_p50": round_medians(durations, round_size) * 1e3,
            "success_frac": len(passed) / len(records),
            "max_vertex_error_eps": max(errors, default=0.0),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(names, untraced: list, traced: list, spans: list) -> dict:
    """Per-trial medians over the traced trials of layer self times and counts."""
    from spans import layer_times

    times = layer_times(spans)
    out = {}
    for name in names:
        if name == "trace.unattributed_frac":
            value = statistics.median(times[r["k"]]["unattributed_ms"]
                                      / times[r["k"]]["trial_ms"] for r in traced)
        elif name == "trace.overhead_frac":
            value = statistics.median(t["seconds"] / u["seconds"]
                                      for u, t in zip(untraced, traced)) - 1.0
        elif name.endswith("_ms"):
            value = statistics.median(times[r["k"]].get(name, 0.0) for r in traced)
        else:
            value = statistics.median(r["checked"].counts.get(name, 0) for r in traced)
        out[name] = value
    return out


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    t0 = perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "stratograph")):
        print(f"error: no stratograph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import stratograph
    import stratograph.cli
    import_s = perf_counter() - t0
    import environment
    import graphs
    import scoring
    import spans
    import workloads
    if os.path.dirname(os.path.abspath(stratograph.__file__)) != os.path.join(SRC, "stratograph"):
        print(f"error: imported stratograph from {stratograph.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    problems = []
    for truth in (graphs.five_vertex(graphs.EMBED_2D), graphs.lattice(8, 4.0)):
        problems += scoring.rejection_problems(truth, graphs.EPS)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(RUN_DIR, "work", f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        # The one set-up this process pays, first-call costs included.
        t = perf_counter()
        workload = spec.make()
        workload.set_up(work_dir)
        workload.warm_up()
        setup_s = import_s + (perf_counter() - t)

        if args.trace:
            tracer = spans.Tracer()
            untraced, traced = run_trials(workload, args.seed, args.seconds,
                                          TRACED_MIN_TRIALS, tracer)
            records = untraced + traced
            metrics = per_layer(units, untraced, traced, tracer.spans)
            if [r["checked"].digest for r in traced] != [r["checked"].digest for r in untraced]:
                problems.append("traced trials produced other digests than untraced ones")
        else:
            records, _ = run_trials(workload, args.seed, args.seconds, spec.scored_trials)
            untraced = records
            metrics = end_to_end(records, workload.round_size, spec.scored_trials, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    failed = sum(1 for r in records if r["checked"].problems)
    correct = failed == 0 and not problems
    durations = [r["seconds"] for r in untraced]
    summary = {
        "workload": args.workload,
        "trials": len(untraced),
        "trial_ms_p90": (statistics.quantiles(durations, n=10)[-1] * 1e3
                         if len(durations) >= P90_MIN_TRIALS else None),
        "digest": run_digest(untraced[:spec.scored_trials]),
        "digest_trials": min(len(untraced), spec.scored_trials),
        "import_s": import_s,
        "problems": problems,
        "environment": environment.record(ROOT, args.seed),
    }
    record = dict(summary, metrics=metrics, trials_detail=[
        {"k": r["k"], "seed": r["seed"], "ms": r["seconds"] * 1e3,
         "traced": i >= len(untraced), "problems": r["checked"].problems,
         "error_eps": r["checked"].error_eps, "digest": r["checked"].digest}
        for i, r in enumerate(records)])
    if args.trace:
        record["spans"] = [list(s) for s in tracer.spans]
    results = os.path.join(RUN_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print("record " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
