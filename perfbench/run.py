"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 40 --trace 0

Runs end-to-end passes of the workload (set-up, measured phase, output
checks) until ``--seconds`` is spent, at least ``EXACT_PASSES`` of them, and
reports medians over the passes; throughputs are total lookups over the total
time of the measured phases.  The end-to-end times and ``pps`` are scaled to
a reference host speed, measured by a fixed probe that a timer runs every
0.1 s (``hostspeed.py``); the report line also carries them as measured.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (as measured,
not scaled), the tracing overhead and the share of the traced pass the
layers account for.

Standard output carries two JSON lines: a report (run manifest, every layer
that applies to the workload, check failures) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any answer was wrong, 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# One process, one thread: keep numpy's BLAS pool from starting workers.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CLOCK = time.perf_counter

#: Every pass builds its tables and workload from its own seed derived from
#: ``--seed``, so one run's medians span several draws, not one.  Exact
#: metrics come from the first passes, which every run makes.
EXACT_PASSES = 3


def pass_seed(seed, index):
    return seed * 1000 + 10 * index


def _exact(name):
    """Counts and byte sizes are functions of the seed, not of the clock."""
    timed = (
        name.endswith("_s")
        or name.startswith(("batch_us", "trace."))
        or name == "peak_rss_mib"
    )
    return not timed


#: Throughputs and the (work, seconds) sample keys they are summed from.
RATES = {"pps": ("lookups", "measured_s"), "full_pps": ("full_lookups", "full_s")}


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply table sizes and request counts (self-test uses < 1)",
    )
    return parser.parse_args(argv)


def _manifest(args, workload, passes, traced_passes):
    import numpy

    config = workload.describe(pass_seed(args.seed, 0))
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "config": config,
        "config_digest": digest,
        "backend": workload.backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "pass_seeds": [pass_seed(args.seed, i) for i in range(max(passes, traced_passes))],
        "traced": bool(args.trace),
        "passes": passes,
        "traced_passes": traced_passes,
    }


def _one_pass(workload, seed, traced):
    """One end-to-end pass; returns (sample, layers, offered, failed, failures)."""
    import workloads
    from tracer import ROOT as ROOT_LABEL, TALLY, NullTracer, Tracer

    gc.collect()
    tally = workloads.KernelTally()
    tracer = Tracer(CLOCK) if traced else NullTracer()
    if traced:
        workload.install(tracer, tally)
    try:
        sample, layers, offered, failed, failures = workload.run_pass(
            seed, tracer, tally
        )
    finally:
        tracer.restore()
    for name in workloads.ZERO_WHEN_UNUSED:
        layers.setdefault(name, 0)
    if traced:
        layers.update(tally.layers())
        for label, seconds in tracer.self_s.items():
            layers.setdefault(label, seconds)
        layers.setdefault("clue_call_s", tracer.durations["fastpath.clue_kernel_s"])
        # The root span is the pass from config to audited report.  Only the
        # self times of the named layers count as accounted; engine loops,
        # partitioning and the harness are the unattributed rest.  The
        # tracer's own tallying is not program time.
        traced_s = tracer.incl_s[ROOT_LABEL] - tracer.self_s.get(TALLY, 0.0)
        named_s = sum(tracer.self_s.get(label, 0.0) for label in workloads.NAMED_LAYERS)
        layers["trace.accounted_share"] = named_s / traced_s
        layers["trace.unattributed_s"] = traced_s - named_s
        layers["trace.run_s"] = sample["run_s"]
    return sample, layers, offered, failed, failures


def percentile_us(durations, q):
    """Nearest-rank percentile of call durations, in microseconds."""
    ordered = sorted(durations)
    rank = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[rank] * 1e6


def _rate(dicts, name):
    """Total work over total wall time of the measured phases.

    Not a median of per-phase rates: a measured phase lasts well under a
    second, the host's speed changes on that scale, and the median of such
    rates follows whichever speed held most phases, while the total ratio is
    the mean speed over all measured time (see README, Noise).
    """
    work, seconds = RATES[name]
    elapsed = sum(d.get(seconds, 0.0) for d in dicts)
    return sum(d.get(work, 0) for d in dicts) / elapsed if elapsed else None


def _median_of(dicts, key):
    """Median over passes; exact metrics take the first passes only."""
    if _exact(key):
        dicts = dicts[:EXACT_PASSES]
    values = [d[key] for d in dicts if d.get(key) is not None]
    return statistics.median(values) if values else None


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no program to measure (expected src/repro next to %s)"
            % os.path.relpath(HERE, ROOT),
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from hostspeed import REFERENCE_S, HostSpeed

    spec = _load_spec()
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.scale)

    start = CLOCK()
    deadline = start + args.seconds
    plain, traced = [], []
    attempted = failed = 0
    failures = []
    # Traced runs alternate untraced and traced passes so the overhead is
    # measured under the same conditions; each kind gets EXACT_PASSES or more.
    schedule = (False, True) if args.trace else (False,)
    with HostSpeed(CLOCK) as host:
        try:
            while True:
                begun = CLOCK()
                for kind in schedule:
                    bucket = traced if kind else plain
                    seed = pass_seed(args.seed, len(bucket))
                    sample, layers, offered, bad, errors = _one_pass(
                        workload, seed, kind
                    )
                    bucket.append((sample, layers))
                    attempted += offered
                    failed += bad
                    failures.extend(errors)
                if failures:
                    break
                # Stop once EXACT_PASSES are in and another round would overrun.
                if len(plain) >= EXACT_PASSES and 2 * CLOCK() - begun > deadline:
                    break
        except workloads.CertificationError as error:
            failures.append("certification failed: %s" % error)
            traceback.print_exc()

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [s for s, _ in plain]
    end_to_end = {
        key: _median_of(samples, key)
        for key in ("setup_s", "run_s", "memrefs_per_packet", "bytes_per_prefix")
    }
    end_to_end["pps"] = _rate(samples, "pps")
    end_to_end["peak_rss_mib"] = peak_rss_mib
    # Times scale down and throughput up on a slow host, by the same factor.
    factor = host.factor()
    measured = dict(end_to_end)
    for key in ("setup_s", "run_s"):
        end_to_end[key] = measured[key] / factor
    end_to_end["pps"] = measured["pps"] * factor
    layer_dicts = [l for _, l in (traced if args.trace else plain)]
    # Kernel call times pool over the passes, so p99 has enough calls
    # beyond it; the count is reported beside the percentiles.
    calls = [t for d in layer_dicts for t in d.pop("clue_call_s", ())]
    summed = set(RATES["full_pps"])
    layers = {}
    for d in layer_dicts:
        for key in d:
            if key not in summed:
                layers.setdefault(key, None)
    for key in layers:
        layers[key] = _median_of(layer_dicts, key)
    # 0 where no full-lookup phase runs (serve-zipf, chaos-crash).
    layers["full_pps"] = _rate(layer_dicts, "full_pps") or 0
    if calls:
        layers["batch_us_p50"] = percentile_us(calls, 50)
        layers["batch_us_p99"] = percentile_us(calls, 99)
        layers["batch_us_calls"] = len(calls)
    if args.trace and traced:
        layers["trace.overhead_s"] = layers["trace.run_s"] - measured["run_s"]

    report = {
        "manifest": _manifest(args, workload, len(plain), len(traced)),
        "end_to_end": end_to_end,
        "end_to_end_measured": measured,
        "host": {
            "factor": factor,
            "reference_s": REFERENCE_S,
            "probes": len(host.times),
            "probe_s_mean": statistics.fmean(host.times),
        },
        "layers": layers,
        "samples": samples,
        "failures": failures[:20],
    }
    print(json.dumps({"report": report}, sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else end_to_end
    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"])
        if value is None:
            failures.append("metric %s was not measured" % metric["name"])
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not failures
    for line in failures[:20]:
        print("perfbench: %s" % line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
