"""The four benchmark workloads: one end-to-end pass each, plus its checks.

A pass runs from a config to the audited answer: set-up (tables, clue
tables, compiled layouts, certification) and then the measured phase (the
serve loop, the chaos baseline + fault runs, or the batched clue and full
lookup phases).  Every pass checks its own answers; a wrong one is
reported, never skipped.

The program is driven through its public API only.  ``time.perf_counter``
is injected into ``ServeEngine.run`` / ``ChaosEngine.bench`` exactly as the
``repro-clue`` CLI does, and traced passes time the layers by rebinding
names from outside (see ``tracer.py``); no program file is touched.
"""

from __future__ import annotations

import random
import time

from repro.addressing import Address
from repro.fastpath.backend import CODE_TO_METHOD, get_numpy, numpy_eligible
from repro.fastpath.certify import (
    CertificationError,
    certification_batch,
    certify_full,
)
from repro.fastpath.kernels import (
    as_destination_array,
    as_length_array,
    full_lookup_batch,
    lookup_batch,
)
from repro.fastpath.layouts import compile_layout
from repro.lookup.counters import MemoryCounter
from repro.resilience import ChaosEngine, ResilienceConfig
from repro.serve import ServeConfig, ServeEngine
from repro.serve.dispatch import route_batch
from repro.serve.loadgen import LoadProfile, ZipfLoadGenerator
from repro.serve.shard import Shard
from repro.tablegen import (
    DEFAULT_IPV6_HISTOGRAM,
    NeighborProfile,
    derive_neighbor,
    generate_table,
)
from repro.trie.binary_trie import BinaryTrie

from tracer import ROOT, TALLY

import repro.resilience.engine as resilience_engine
import repro.serve.batcher as serve_batcher
import repro.serve.engine as serve_engine
import repro.serve.shard as serve_shard

CLOCK = time.perf_counter

#: Seed distance between the fault plans (chaos-crash) or Zipf workloads
#: (lookup-*) one pass replays.
PLAN_STRIDE = 7919

#: Method codes, index-aligned with ``repro.fastpath.backend.CODE_TO_METHOD``.
SHARE_NAMES = (
    "fastpath.full_share",
    "fastpath.clue_miss_share",
    "fastpath.fd_immediate_share",
    "fastpath.resumed_share",
)

#: Layers whose self times count towards ``trace.accounted_share``: the
#: program layers the per-layer metrics name.  Everything else a traced pass
#: spends (engine loop bookkeeping, partitioning, the audit's own decoding,
#: the harness) is ``trace.unattributed_s``, broken down in the report line.
NAMED_LAYERS = (
    "tablegen.generate_s",
    "tablegen.derive_s",
    "trie.sender_build_s",
    "core.receiver_state_s",
    "core.clue_build_s",
    "core.reference_s",
    "fastpath.compile_s",
    "fastpath.layout_s",
    "fastpath.certify_s",
    "fastpath.clue_kernel_s",
    "fastpath.full_kernel_s",
    "serve.loadgen_s",
    "serve.route_s",
    "serve.batcher_s",
    "serve.shard_process_s",
    "resilience.rebuild_s",
    "resilience.degraded_lookup_s",
)


def _require(ok, message, failures):
    if not ok:
        failures.append(message)


def _scaled(value, scale, floor):
    return max(floor, int(round(value * scale)))


class KernelTally:
    """Method codes, lanes and memrefs of the kernel calls a pass made."""

    def __init__(self):
        self.calls = 0
        self.lanes = 0
        self.memrefs = 0
        self.methods = [0, 0, 0, 0]

    def add(self, methods, memrefs):
        self.calls += 1
        self.lanes += len(methods)
        np = get_numpy()
        if np is not None and isinstance(methods, np.ndarray):
            for code, count in enumerate(np.bincount(methods, minlength=4)):
                self.methods[code] += int(count)
            self.memrefs += int(memrefs.sum())
        else:
            for code in methods:
                self.methods[code] += 1
            self.memrefs += sum(memrefs)

    def after_lookup_batch(self, result):
        methods, _codes, _new, memrefs = result
        self.add(methods, memrefs)

    def layers(self):
        lanes = self.lanes or 1
        out = {"fastpath.kernel_calls": self.calls}
        for code, name in enumerate(SHARE_NAMES):
            out[name] = self.methods[code] / lanes
        return out


def _served_bytes(ctables):
    """Compiled bytes of the clue path: layout + clue table + result pool."""
    return sum(
        ct.layout.nbytes() + ct.nbytes() + ct.trie.pool.nbytes() for ct in ctables
    )


def _replay_memrefs(plan, shards, values, lens, width):
    """Exact memrefs of a request stream through the served shard tables.

    Tables are frozen during serving, so one lookup per distinct
    ``(destination, clue)`` pair weighted by its count reproduces the
    per-request total without replaying every request.
    """
    np = get_numpy()
    pairs, counts = np.unique(
        np.stack([np.asarray(values), np.asarray(lens)]), axis=1, return_counts=True
    )
    uvals, ulens = pairs[0].astype(np.int64), pairs[1].astype(np.int64)
    owner = np.asarray(route_batch(plan, uvals))
    total = 0
    for shard_id, shard in enumerate(shards):
        mask = owner == shard_id
        if not mask.any():
            continue
        _m, _c, _n, refs = lookup_batch(
            shard.ctable,
            as_destination_array(uvals[mask], width),
            as_length_array(ulens[mask], width),
        )
        total += int((np.asarray(refs) * counts[mask]).sum())
    return total, int(counts.sum())


# ---------------------------------------------------------------------------
# Layer wiring shared by serve-zipf and chaos-crash.  Shard construction and
# the serving kernel live in repro.serve.shard, so both engines see the same
# patches there; the engine modules get their own.
def _patch_shard_layers(tracer, tally):
    shard = serve_shard
    tracer.patch_class(shard, "ReceiverState", "core.receiver_state_s")
    tracer.patch_class(
        shard, "AdvanceMethod", "core.clue_build_s", ("__init__", "build_table")
    )
    tracer.patch(shard, "compile_layout", "fastpath.layout_s")
    tracer.patch(shard, "compile_clue_table", "fastpath.compile_s")
    tracer.patch_class(shard, "RegularTrieLookup", "fastpath.certify_s")
    for name in ("certification_batch", "certify_full", "certify_clue"):
        tracer.patch(shard, name, "fastpath.certify_s")
    tracer.patch(
        shard,
        "lookup_batch",
        "fastpath.clue_kernel_s",
        after=tally.after_lookup_batch,
        keep=True,
    )
    batcher = serve_batcher.RequestBatcher
    tracer.patch(batcher, "offer", "serve.batcher_s")
    tracer.patch(batcher, "take_batch", "serve.batcher_s")


def _patch_engine_tables(tracer, module):
    """Table generation, sender trie, reference rebuild and load generator
    as seen from one engine module."""
    tracer.patch(module, "generate_table", "tablegen.generate_s")
    tracer.patch(module, "derive_neighbor", "tablegen.derive_s")
    tracer.patch_class(
        module, "BinaryTrie", "trie.sender_build_s", ("__init__", "insert")
    )
    tracer.patch_class(module, "ReceiverState", "core.reference_s")
    tracer.patch_class(
        module, "AdvanceMethod", "core.reference_s", ("__init__", "build_table")
    )
    tracer.patch_class(module, "RegularTrieLookup", "core.reference_s")
    tracer.patch_class(
        module,
        "ZipfLoadGenerator",
        {"__init__": "serve.universe_s", "generate": "serve.loadgen_s"},
    )
    tracer.patch(module, "route_batch", "serve.route_s")


# ---------------------------------------------------------------------------
class ServeZipf:
    """``repro-clue serve`` end to end: construction to the audited report."""

    name = "serve-zipf"
    backend = "numpy"
    #: Audited reruns of the serve loop on each built plane.
    replays = 2

    def __init__(self, scale):
        self.table_size = _scaled(2000, scale, 200)
        self.requests = _scaled(120000, scale, 5000)

    def config(self, seed):
        return ServeConfig(
            table_size=self.table_size, requests=self.requests, seed=seed
        )

    def describe(self, seed):
        return self.config(seed).as_dict()

    def install(self, tracer, tally):
        _patch_shard_layers(tracer, tally)
        module = serve_engine
        _patch_engine_tables(tracer, module)
        engine = module.ServeEngine
        tracer.patch(module, "build_shards", "serve.partition_s")
        tracer.patch(engine, "_dispatch", "serve.route_s")
        tracer.patch(engine, "_process", "serve.shard_process_s")
        tracer.patch(engine, "_audit", "serve.audit_self_s")
        tracer.patch(engine, "run", "serve.loop_other_s")

    def run_pass(self, seed, tracer, tally):
        failures = []
        with tracer.span(ROOT):
            t0 = CLOCK()
            engine = ServeEngine(self.config(seed))
            t1 = CLOCK()
            report = engine.run(clock=CLOCK)
            t2 = CLOCK()
        payload = report.as_dict()
        totals = payload["totals"]
        audit = payload["audit"]
        cfg = engine.config
        _require(
            audit["disagreements"] == 0,
            "serve audit: %d disagreements %r"
            % (audit["disagreements"], audit["details"]),
            failures,
        )
        _require(
            audit["checked"] == min(cfg.audit_samples, cfg.requests),
            "serve audit checked %d requests" % audit["checked"],
            failures,
        )
        _require(
            totals["completed"] + totals["shed"] == totals["offered"],
            "serve: completed %d + shed %d != offered %d"
            % (totals["completed"], totals["shed"], totals["offered"]),
            failures,
        )
        # The workload is a pure function of the seed; regenerate it through
        # the base class so a traced pass does not charge it to the loadgen.
        workload = ZipfLoadGenerator.generate(engine.loadgen, cfg.requests)
        refs, requests = _replay_memrefs(
            engine.plan,
            engine.shards,
            workload.values,
            workload.clue_lens,
            cfg.width,
        )
        if tracer.enabled and totals["shed"] == 0:
            _require(
                tally.memrefs == refs,
                "serve: kernel memrefs %d != replayed %d" % (tally.memrefs, refs),
                failures,
            )
        offered = totals["offered"]
        failed = totals["shed"] + audit["disagreements"]
        failed_share = failed / offered
        lookups, measured_s = totals["completed"], totals["elapsed_s"]
        # More serve-loop time from the same certified plane; each
        # replay is audited again and must complete the same requests.
        for _ in range(0 if tracer.enabled else self.replays):
            again = engine.run(clock=CLOCK).as_dict()
            _require(
                again["audit"]["disagreements"] == 0
                and again["totals"]["completed"] == totals["completed"],
                "serve replay: %d disagreements, %d completed"
                % (again["audit"]["disagreements"], again["totals"]["completed"]),
                failures,
            )
            lookups += again["totals"]["completed"]
            measured_s += again["totals"]["elapsed_s"]
            offered += again["totals"]["offered"]
            failed += again["totals"]["shed"] + again["audit"]["disagreements"]
        sample = {
            "setup_s": t1 - t0,
            "run_s": t2 - t0,
            "lookups": lookups,
            "measured_s": measured_s,
            "memrefs_per_packet": refs / requests,
            "bytes_per_prefix": _served_bytes(s.ctable for s in engine.shards)
            / len(engine.receiver_entries),
        }
        layers = {
            "queue_ticks_p99": payload["latency"]["p99"],
            "failed_share": failed_share,
            "core.clue_records": sum(s.ctable.records for s in engine.shards),
            "fastpath.certified_lanes": engine.certified_lanes,
            "serve.batches": totals["batches"],
            "serve.lanes_per_batch": totals["completed"] / max(1, totals["batches"]),
            "serve.shed": totals["shed"],
        }
        if tracer.enabled:
            layers["serve.audit_s"] = (
                tracer.incl_s["serve.loop_other_s"]
                - tracer.incl_s["serve.loadgen_s"]
                - totals["elapsed_s"]
            )
        return sample, layers, offered, failed, failures


def _lost(run):
    """Requests of one chaos run that were shed, expired or answered wrong."""
    totals = run["totals"]
    return totals["shed"] + totals["deadline_expired"] + run["audit"]["wrong_answers"]


# ---------------------------------------------------------------------------
class ChaosCrash:
    """``repro-clue chaos`` end to end: baseline run, then the fault run."""

    name = "chaos-crash"
    backend = "numpy"

    #: Seeded fault plans run on each built plane after the default one;
    #: one keeps passes short, so a run has more set-up samples.
    replays = 1

    def __init__(self, scale):
        self.table_size = _scaled(1000, scale, 200)
        self.requests = _scaled(100000, scale, 5000)

    def config(self, seed):
        return ResilienceConfig(
            table_size=self.table_size, requests=self.requests, seed=seed
        )

    def describe(self, seed):
        return dict(self.config(seed).as_dict(), crashes=1, slowdowns=1, drops=1)

    def install(self, tracer, tally):
        _patch_shard_layers(tracer, tally)
        module = resilience_engine
        _patch_engine_tables(tracer, module)
        engine = module.ChaosEngine
        tracer.patch(module, "build_replica_shards", "resilience.partition_s")
        tracer.patch(module, "build_replica_shard", "resilience.rebuild_s")
        tracer.patch(module, "replica_rotation", "serve.route_s")
        for name in (
            "_dispatch_arrivals",
            "_offer_group",
            "_redispatch",
            "_hedge",
            "_reoffer_backlog",
            "_requeue",
        ):
            tracer.patch(engine, name, "resilience.dispatch_s")
        tracer.patch(engine, "_degrade", "resilience.degraded_lookup_s")
        tracer.patch(engine, "_release_one", "resilience.release_s")
        tracer.patch(engine, "_commit_completions", "resilience.commit_s")
        tracer.patch(engine, "_expire_deadlines", "resilience.commit_s")
        tracer.patch(engine, "_apply_faults", "resilience.faults_s")
        tracer.patch(engine, "_audit", "resilience.audit_self_s")
        tracer.patch(engine, "run", "resilience.loop_other_s")

    def run_pass(self, seed, tracer, tally):
        failures = []
        with tracer.span(ROOT):
            t0 = CLOCK()
            engine = ChaosEngine(self.config(seed))
            t1 = CLOCK()
            plan = engine.default_plan(crashes=1, slowdowns=1, drops=1)
            report = engine.bench(plan, clock=CLOCK)
            t2 = CLOCK()
        payload = report.as_dict()
        runs = [payload["baseline"], payload["chaos"]]
        fault_runs = [payload["chaos"]]
        for phase in ("baseline", "chaos"):
            self._check_run(phase, payload[phase], failures)
        # More fault-loop time on the same replicas, each under
        # another seeded plan of the same shape, audited like the first.
        for k in range(0 if tracer.enabled else self.replays):
            other = engine.default_plan(
                crashes=1, slowdowns=1, drops=1, seed=seed + PLAN_STRIDE * (k + 1)
            )
            again = engine.run(plan=other, clock=CLOCK)
            self._check_run("chaos replay", again, failures)
            fault_runs.append(again)
            runs.append(again)
        chaos = payload["chaos"]
        totals = chaos["totals"]
        _require(
            totals["crashes"] == 1 and totals["restarts"] == 1,
            "chaos: %d crashes / %d restarts, plan asked for 1"
            % (totals["crashes"], totals["restarts"]),
            failures,
        )
        values, lens = engine.workload().values, engine.workload().clue_lens
        refs, requests = _replay_memrefs(
            engine.rplan.plan,
            [row[0] for row in engine.shards],
            values,
            lens,
            engine.config.width,
        )
        failed_share = _lost(chaos) / totals["offered"]
        offered = sum(run["totals"]["offered"] for run in runs)
        failed = sum(_lost(run) for run in runs)
        sample = {
            "setup_s": t1 - t0,
            "run_s": t2 - t0,
            "lookups": sum(run["totals"]["served"] for run in fault_runs),
            "measured_s": sum(run["totals"]["elapsed_s"] for run in fault_runs),
            "memrefs_per_packet": refs / requests,
            "bytes_per_prefix": _served_bytes(
                shard.ctable for row in engine.shards for shard in row
            )
            / len(engine.receiver_entries),
        }
        layers = {
            "queue_ticks_p99": chaos["latency"]["p99"],
            "failed_share": failed_share,
            "core.clue_records": sum(
                shard.ctable.records for row in engine.shards for shard in row
            ),
            "fastpath.certified_lanes": engine.certified_lanes,
            "serve.batches": totals["batches"],
            "serve.shed": totals["shed"],
            "resilience.rebuilds": totals["restarts"],
            "resilience.rebuilt_lanes": totals["rebuilt_lanes"],
            "resilience.retries": totals["retries"],
            "resilience.failovers": totals["failovers"],
            "resilience.hedges": totals["hedges"],
            "resilience.degraded": totals["degraded"],
        }
        if tracer.enabled:
            elapsed = sum(payload[p]["totals"]["elapsed_s"] for p in ("baseline", "chaos"))
            layers["resilience.audit_s"] = (
                tracer.incl_s["resilience.loop_other_s"]
                - tracer.incl_s["serve.loadgen_s"]
                - elapsed
            )
            layers["resilience.rebuild_s"] = tracer.incl_s["resilience.rebuild_s"]
            layers["serve.lanes_per_batch"] = tally.lanes / max(1, tally.calls)
        return sample, layers, offered, failed, failures

    @staticmethod
    def _check_run(phase, run, failures):
        """Every served answer audited right, every request accounted for."""
        totals = run["totals"]
        audit = run["audit"]
        _require(
            audit["wrong_answers"] == 0,
            "chaos %s: %d wrong answers %r"
            % (phase, audit["wrong_answers"], audit["details"]),
            failures,
        )
        _require(
            audit["checked"] == totals["served"],
            "chaos %s: audited %d of %d served"
            % (phase, audit["checked"], totals["served"]),
            failures,
        )
        _require(
            totals["offered"]
            == totals["served"] + totals["shed"] + totals["deadline_expired"]
            and run["conservation"]["pending_end"] == 0,
            "chaos %s: offered %d != served %d + shed %d + expired %d"
            % (
                phase,
                totals["offered"],
                totals["served"],
                totals["shed"],
                totals["deadline_expired"],
            ),
            failures,
        )


# ---------------------------------------------------------------------------
class Lookup:
    """A certified Advance pair, driven in 256-lane batches by one caller.

    The clue phase pushes Zipf destinations with truthful clues through
    ``lookup_batch`` on the dense table; the full phase pushes the same
    batches through ``full_lookup_batch`` on the multibit8 layout.
    """

    lanes = 256
    check_lanes = 512
    #: Further seeded Zipf workloads run on each built plane.
    replays = 2

    def __init__(self, name, width, scale, table_size, batches):
        self.name = name
        self.width = width
        self.table_size = _scaled(table_size, scale, 200)
        self.batches = _scaled(batches, scale, 8)
        self.backend = "numpy" if numpy_eligible(width) else "python"

    def describe(self, seed):
        return {
            "table_size": self.table_size,
            "width": self.width,
            "method": "advance",
            "clue_layout": "dense",
            "full_layout": "multibit8",
            "lanes": self.lanes,
            "batches": self.batches,
            "check_lanes": self.check_lanes,
            "zipf_alpha": 1.1,
            "universe": 4096,
            "seed": seed,
        }

    def install(self, tracer, tally):
        _patch_shard_layers(tracer, tally)

    def _setup(self, seed, tr):
        """Tables and sender trie, then one shard of the serving plane that
        holds the whole table: it builds, compiles and certifies the dense
        clue path.  The multibit8 layout for the full phase is compiled
        from the shard's dense trie and certified against its oracle.

        The harness's own calls are timed with spans; what happens inside
        the shard is timed by the ``repro.serve.shard`` patches.
        """
        width = self.width
        histogram = DEFAULT_IPV6_HISTOGRAM if width == 128 else None
        with tr.span("tablegen.generate_s"):
            sender = generate_table(
                self.table_size, seed=seed, histogram=histogram, width=width
            )
        with tr.span("tablegen.derive_s"):
            receiver = derive_neighbor(
                sender, NeighborProfile(), seed=seed + 1, width=width
            )
        with tr.span("trie.sender_build_s"):
            sender_trie = BinaryTrie(width)
            for prefix, next_hop in sender:
                sender_trie.insert(prefix, next_hop)
        clues = list(sender_trie.prefixes())
        shard = Shard(0, receiver, clues, sender_trie, width=width, seed=seed)
        with tr.span("fastpath.layout_s"):
            multibit = compile_layout(shard.ctrie, "multibit8")
        with tr.span("fastpath.certify_s"):
            sweep = list(receiver)
            sweep.extend((clue, None) for clue in clues)
            dsts, _lens = certification_batch(
                sender_trie, sweep, width=width, seed=seed
            )
            certified = certify_full(multibit, shard.scalar.base, dsts)
        return {
            "sender": sender,
            "receiver": receiver,
            "sender_trie": sender_trie,
            "ctable": shard.ctable,
            "multibit": multibit,
            "scalar": shard.scalar,
            "oracle": shard.scalar.base,
            "certified": shard.certified_lanes + certified,
        }

    def run_pass(self, seed, tracer, tally):
        failures = []
        lanes = self.lanes
        with tracer.span(ROOT):
            t0 = CLOCK()
            plane = self._setup(seed, tracer)
            t1 = CLOCK()
            batches, clue_out, clue_times, full_out, full_times = self._measure(
                plane, seed + 2, tracer, failures
            )
            t2 = CLOCK()
            with tracer.span(TALLY):
                for methods, _codes, _new, memrefs in clue_out:
                    tally.add(methods, memrefs)
        total = len(batches) * lanes
        # More time in both phases on the same certified plane, each over
        # another seeded Zipf workload and checked like the first.
        for k in range(0 if tracer.enabled else self.replays):
            _b, _c, times, _f, times_full = self._measure(
                plane, seed + 2 + PLAN_STRIDE * (k + 1), tracer, failures
            )
            clue_times.extend(times)
            full_times.extend(times_full)
        wrong = sum(1 for f in failures if f.startswith("lane"))
        attempted = total * (1 + (0 if tracer.enabled else self.replays))
        ctable, multibit = plane["ctable"], plane["multibit"]
        sample = {
            "setup_s": t1 - t0,
            "run_s": t2 - t0,
            "lookups": attempted,
            "measured_s": sum(clue_times),
            "memrefs_per_packet": tally.memrefs / total,
            "bytes_per_prefix": _served_bytes([ctable]) / len(plane["receiver"]),
        }
        layers = {
            "full_lookups": attempted,
            "full_s": sum(full_times),
            "clue_call_s": clue_times,
            "queue_ticks_p99": 0,
            "failed_share": wrong / attempted,
            "core.clue_records": ctable.records,
            "fastpath.certified_lanes": plane["certified"],
            "fastpath.full_bytes_per_prefix": multibit.nbytes()
            / len(plane["receiver"]),
            "serve.batches": len(batches),
            "serve.lanes_per_batch": lanes,
        }
        if tracer.enabled:
            layers["fastpath.full_kernel_s"] = layers["full_s"]
        return sample, layers, attempted, wrong, failures

    def _measure(self, plane, workload_seed, tracer, failures):
        """One Zipf workload through the clue phase and the full phase, checked.

        Returns the batches, each phase's per-batch outputs and per-call
        wall times.
        """
        width, lanes = self.width, self.lanes
        with tracer.span("serve.universe_s"):
            loadgen = ZipfLoadGenerator(
                plane["sender"],
                plane["sender_trie"],
                LoadProfile(zipf_alpha=1.1, universe=4096),
                seed=workload_seed,
                width=width,
            )
        total = self.batches * lanes
        with tracer.span("serve.loadgen_s"):
            workload = loadgen.generate(total)
            dsts = as_destination_array(workload.values, width)
            clue_lens = as_length_array(workload.clue_lens, width)
        batches = [
            (dsts[lo : lo + lanes], clue_lens[lo : lo + lanes])
            for lo in range(0, total, lanes)
        ]
        clue_out, clue_times = [], []
        for batch_dsts, batch_lens in batches:
            with tracer.span("fastpath.clue_kernel_s"):
                start = CLOCK()
                out = lookup_batch(plane["ctable"], batch_dsts, batch_lens)
                clue_times.append(CLOCK() - start)
            clue_out.append(out)
        full_out, full_times = [], []
        for batch_dsts, _lens in batches:
            with tracer.span("fastpath.full_kernel_s"):
                start = CLOCK()
                out = full_lookup_batch(plane["multibit"], batch_dsts)
                full_times.append(CLOCK() - start)
            full_out.append(out)
        with tracer.span("core.check_s"):
            self._check(
                workload_seed, plane, batches, clue_out, full_out, tracer, failures
            )
        return batches, clue_out, clue_times, full_out, full_times

    def _check(self, seed, plane, batches, clue_out, full_out, tracer, failures):
        """Seeded sample of lanes vs the scalar clue lookup and the LPM oracle.

        Every sampled lane must match the scalar ``ClueAssistedLookup`` in
        prefix, next hop, method and new clue, the multibit8 full lookup must
        match the oracle, and the kernels' memref total over the sample must
        equal the scalar total.  The scalar and oracle lookups are the
        workload's ``core.reference_s``.
        """
        width, lanes = self.width, self.lanes
        scalar, oracle = plane["scalar"], plane["oracle"]
        pool = plane["ctable"].trie.pool
        rng = random.Random(seed + 4)
        total = len(batches) * lanes
        kernel_refs = 0
        scalar_refs = 0
        for lane in sorted(rng.sample(range(total), min(self.check_lanes, total))):
            b, i = divmod(lane, lanes)
            value = int(batches[b][0][i])
            clen = int(batches[b][1][i])
            methods, codes, new_clues, memrefs = clue_out[b]
            address = Address(value, width)
            clue = address.prefix(clen) if 0 <= clen <= width else None
            with tracer.span("core.reference_s"):
                want = scalar.lookup(address, clue, MemoryCounter())
                lpm = oracle.lookup(address)
            code = int(codes[i])
            got = (pool.prefixes[code], pool.next_hops[code]) if code >= 0 else (None, None)
            want_clue = want.prefix.length if want.prefix is not None else -1
            if (
                got != (want.prefix, want.next_hop)
                or got[1] != lpm.next_hop
                or CODE_TO_METHOD[int(methods[i])] != want.method
                or int(new_clues[i]) != want_clue
            ):
                failures.append(
                    "lane %d dst=%#x clue_len=%d: kernel %r %s, scalar %r %s, oracle %r"
                    % (
                        lane,
                        value,
                        clen,
                        got,
                        CODE_TO_METHOD[int(methods[i])],
                        (want.prefix, want.next_hop),
                        want.method,
                        lpm.next_hop,
                    )
                )
            full_codes, _full_refs = full_out[b]
            full_code = int(full_codes[i])
            full = (
                (pool.prefixes[full_code], pool.next_hops[full_code])
                if full_code >= 0
                else (None, None)
            )
            if full != (lpm.prefix, lpm.next_hop):
                failures.append(
                    "lane %d dst=%#x: multibit8 %r, oracle %r"
                    % (lane, value, full, (lpm.prefix, lpm.next_hop))
                )
            kernel_refs += int(memrefs[i])
            scalar_refs += want.accesses
        if kernel_refs != scalar_refs:
            failures.append(
                "memrefs over the sample: kernels %d, scalar %d"
                % (kernel_refs, scalar_refs)
            )


def make(name, scale):
    if name == "serve-zipf":
        return ServeZipf(scale)
    if name == "chaos-crash":
        return ChaosCrash(scale)
    if name == "lookup-v4":
        return Lookup(name, 32, scale, table_size=3000, batches=1024)
    if name == "lookup-v6":
        return Lookup(name, 128, scale, table_size=1000, batches=512)
    raise KeyError(name)


WORKLOADS = ("serve-zipf", "lookup-v4", "chaos-crash", "lookup-v6")


#: Count metrics a workload reports as zero when it never exercises them
#: (a closed lookup loop sheds nothing; only chaos-crash fails over).
ZERO_WHEN_UNUSED = (
    "serve.shed",
    "resilience.rebuilds",
    "resilience.retries",
    "resilience.failovers",
    "resilience.hedges",
    "resilience.degraded",
)

__all__ = [
    "CertificationError",
    "KernelTally",
    "NAMED_LAYERS",
    "WORKLOADS",
    "ZERO_WHEN_UNUSED",
    "make",
]
