"""Small-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a small scale, untraced and traced, on two seeds,
and checks that:

* each run exits 0 and its last line is a result with every metric of
  ``BENCHMARK.json`` (end-to-end untraced, per-layer traced) and its unit;
* every output check passed (``correct``, no failed operation);
* the report line carries the run manifest;
* exact quantities (memrefs, bytes, certified lanes, clue records, queue
  ticks) are identical when the same seed runs twice;
* without the program next to it the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Runnable by hand but not in ``BENCHMARK.json`` (see README.md).
EXTRA_WORKLOADS = ("lookup-v6",)
SCALE = "0.05"
SECONDS = "1"
MANIFEST_KEYS = (
    "workload",
    "seed",
    "config_digest",
    "backend",
    "python",
    "numpy",
    "nproc",
    "traced",
)
EXACT = (
    "core.clue_records",
    "fastpath.certified_lanes",
    "queue_ticks_p99",
)


def _run(cwd, workload, seed, trace):
    command = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", SECONDS,
        "--trace", str(trace),
        "--scale", SCALE,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True)


def _check(spec, workload, seed, trace):
    done = _run(ROOT, workload, seed, trace)
    where = "%s seed %d trace %d" % (workload, seed, trace)
    assert done.returncode == 0, "%s: exit %d\n%s" % (where, done.returncode, done.stderr)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, (where, report["failures"])
    assert result["attempted"] >= 1, where
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, where
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (where, metric["name"])
        assert isinstance(got["value"], (int, float)), (where, metric["name"])
    for key in MANIFEST_KEYS:
        assert key in report["manifest"], (where, key)
    assert report["manifest"]["traced"] is bool(trace), where
    return result["metrics"]


def _exact_view(untraced, traced):
    view = {
        name: untraced[name]["value"]
        for name in ("memrefs_per_packet", "bytes_per_prefix")
    }
    view.update((name, traced[name]["value"]) for name in EXACT)
    return view


def _bare_directory_fails():
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = _run(bare, "serve-zipf", 1, 0)
    assert done.returncode != 0, "ran without the program"
    assert not done.stdout.strip(), "printed a result without the program"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for name in [entry["name"] for entry in spec["workloads"]] + list(EXTRA_WORKLOADS):
        first = _exact_view(_check(spec, name, 1, 0), _check(spec, name, 1, 1))
        again = _exact_view(_check(spec, name, 1, 0), _check(spec, name, 1, 1))
        assert first == again, "%s: exact metrics moved between runs: %r != %r" % (
            name,
            first,
            again,
        )
        _check(spec, name, 2, 0)
        _check(spec, name, 2, 1)
        print("ok %s" % name)
    _bare_directory_fails()
    print("ok bare checkout exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
