"""One pass of a workload: every crash carried through the whole chain.

A pass opens two fresh regional vaults and carries the corpus one crash
at a time (a closed loop), each from source to diagnosis before the
next starts:

compile (``repro.lang.minic``) -> instrument -> guest run on the
production default engine, bare and instrumented -> snap -> collector
submit + drain into its region's vault (TBSZ2 archive, signature
mining, incident index) -> a round of the engineer's triage queries,
local and federated -> diagnosis of the crash's incident (load,
reconstruct, render) -> ``verify_bucket`` on its bucket when it was
recorded for replay.

The pass ends with the federation checks and one replay inspection at
a fault.  Every step is an *operation*: it counts as attempted, and as
failed when it raises or when its output fails a correctness check.  A
failed step abandons the rest of its crash; the pass goes on.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import TraceSession
from repro.distributed.network import Network
from repro.distributed.session import DistributedSession
from repro.fleet import (
    Collector,
    FederatedQuery,
    RemoteVaultClient,
    SnapVault,
    VaultQuery,
    VaultService,
)
from repro.fleet.federation import merge_incidents
from repro.instrument import InstrumentConfig, instrument_module
from repro.lang.minic import compile_source
from repro.reconstruct import Reconstructor, render_distributed, select_view
from repro.replay import ReplayEngine
from repro.runtime import RuntimeConfig
from repro.runtime.sync import reset_runtime_ids
from repro.vm import Machine

from tbbench import calibrate
from tbbench.programs import CHAIN_MACHINES, REGIONS, Crash, Mix

#: Guest cycle budget of one run (the longest kernel needs ~4M).
MAX_CYCLES = 50_000_000
#: Network cycles granted to a chain per step, and the step cap.
CHAIN_STEP_CYCLES = 2_000
CHAIN_MAX_STEPS = 500
#: Machine names of the three chain roles.
CHAIN_MACHINE_NAMES = {m for m, _skew, _role in CHAIN_MACHINES}
#: The federated half of one engineer round: (method, positional args).
#: ``top`` twice (the full listing and the first page) makes the slowest
#: query the largest group, so p90 falls inside it, not on its edge.
FEDERATED_MIX = (
    ("select", ()), ("incidents", ()), ("top", ()), ("top", (10,)),
)


class CheckFailed(AssertionError):
    """An output of the program under test is wrong."""


class _Abandon(Exception):
    """A failed operation ends its crash."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _region_of(machine: str) -> str:
    return next(r for r, members in REGIONS.items() if machine in members)


def names_fault(text: str, fault: tuple[str, int]) -> bool:
    """True when the rendered text marks the planted fault line."""
    where = re.compile(re.escape(f"{fault[0]}:{fault[1]}") + r"(?!\d)")
    return any(
        "<=== fault here" in row and where.search(row)
        for row in text.splitlines()
    )


@dataclass
class Tally:
    """What one or more passes measured.  Times in seconds.

    Every pass carries the same corpus, so each timed quantity has one
    sample per crash per pass.  :meth:`robust` sums, over crashes, the
    median of each crash's samples: a burst of host noise that slows one
    pass's copy of a crash is voted out by the other passes.
    """

    passes: int = 0
    crashes: int = 0
    #: Wall seconds of every timed phase, summed (the traced run's
    #: per-layer shares divide this).
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: (quantity, crash) -> seconds, one sample per pass.  Quantities:
    #: ``carry`` (a whole crash), ``rest`` (per pass), ``bare_run`` /
    #: ``pair_run`` (single-process guest runs, bare and instrumented),
    #: ``chain_run`` (Network.run of a chain).
    timings: dict = field(default_factory=dict)
    #: crash -> host seconds per instruction, instrumented / bare, one
    #: sample per pass: the two runs are adjacent in time, so a slow
    #: patch of host time hits both sides of a pair.
    probe_ratios: dict = field(default_factory=dict)
    #: crash -> bare instructions (the weight of its ratio).
    bare_instructions: dict = field(default_factory=dict)
    #: Seconds per snap of every collector submit + drain.
    ingest_s_per_snap: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    #: Calibration kernel samples (see tbbench.calibrate).
    calibration_ms: list[float] = field(default_factory=list)
    diagnose_ms: list[float] = field(default_factory=list)
    verify_ms: list[float] = field(default_factory=list)
    #: Counts, summed over passes.
    counts: Counter = field(default_factory=Counter)
    #: crash name -> simulated cycles of its first pass.
    cycles_seen: dict = field(default_factory=dict)

    def time(self, quantity: str, key: str, seconds: float) -> None:
        self.timings.setdefault((quantity, key), []).append(seconds)

    def robust(self, *quantities: str) -> float:
        """Seconds per pass: sum over crashes of per-crash medians."""
        return sum(
            statistics.median(samples)
            for (quantity, _key), samples in self.timings.items()
            if quantity in quantities
        )

    def probe_wall_ratio(self) -> float:
        """Per-crash median ratios, weighted by bare instructions."""
        weight = sum(self.bare_instructions[c] for c in self.probe_ratios)
        return sum(
            statistics.median(ratios) * self.bare_instructions[crash]
            for crash, ratios in self.probe_ratios.items()
        ) / weight if weight else 0.0

    def per_pass(self, count: str) -> float:
        return self.counts[count] / self.passes if self.passes else 0.0

    @contextmanager
    def op(self, label: str):
        """One attempted operation; failures are counted, then abandon."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            raise _Abandon from exc

    def timed(self, samples: list[float], fn, *args):
        """Call ``fn`` and append its latency in ms to ``samples``."""
        start = time.perf_counter()
        result = fn(*args)
        samples.append(1000.0 * (time.perf_counter() - start))
        return result


class Pass:
    """One pass: fresh regional vaults, the corpus one crash at a time."""

    def __init__(self, corpus: list[Crash], mix: Mix, workdir: str,
                 tally: Tally, tracer=None):
        self.corpus = corpus
        self.mix = mix
        self.workdir = workdir
        self.tally = tally
        self.tracer = tracer
        self.vaults: dict[str, SnapVault] = {}
        self.collectors: dict[str, Collector] = {}
        self.local: dict[str, VaultQuery] = {}
        self.federated: FederatedQuery | None = None
        self.clients: dict[str, RemoteVaultClient] = {}
        #: process name -> crash, for mapping incidents back.
        self.owner: dict[str, Crash] = {}
        #: crash name -> instrumented instructions (replay throughput).
        self.instructions: dict[str, int] = {}
        #: The last query round's answers (the federation checks).
        self.answers: dict = {}
        self.inspect = None
        #: Incidents and replayable entries carried so far, for revisits.
        self.opened: list[tuple] = []
        self.replayable: list[tuple] = []
        self.cursor = 0

    # ------------------------------------------------------------------
    def run(self) -> None:
        reset_runtime_ids()
        os.makedirs(self.workdir)
        t = self.tally
        try:
            start = time.perf_counter()
            self._open()
            carried = 0.0
            for crash in self.corpus:
                self._mark(crash.name)
                t.calibration_ms.append(calibrate.sample_ms())
                crash_start = time.perf_counter()
                try:
                    self._carry(crash)
                except _Abandon:
                    pass
                seconds = time.perf_counter() - crash_start
                t.time("carry", crash.name, seconds)
                carried += seconds
            self._mark("pass")
            try:
                with t.op("federated == union of local"):
                    self._check_federation()
            except _Abandon:
                pass
            self._inspect()
            end = time.perf_counter()
            self._mark(None)
            t.time("rest", "pass", end - start - carried)
            t.seconds += end - start
            t.passes += 1
            t.crashes += len(self.corpus)
            self._count_store()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _mark(self, crash: str | None) -> None:
        if self.tracer is not None:
            self.tracer.crash = crash

    def _open(self) -> None:
        network = Network()
        clients = self.clients
        for name in REGIONS:
            vault = SnapVault(os.path.join(self.workdir, name))
            self.vaults[name] = vault
            self.collectors[name] = Collector(vault)
            self.local[name] = VaultQuery(vault)
            network.register_vault_service(VaultService(vault, name=name))
            clients[name] = RemoteVaultClient(network, service=name)
        self.federated = FederatedQuery(clients)

    def _carry(self, crash: Crash) -> None:
        if crash.kind == "chain":
            incident = self._carry_chain(crash)
        else:
            incident = self._carry_single(crash)
        self.opened.append((crash, incident))
        if crash.recorded:
            self.replayable.append((crash, incident.entries[0]))
        for _ in range(self.mix.query_rounds):
            self._query_round()
        self._diagnose(crash, incident)
        if crash.recorded:
            self._verify(crash, incident.entries[0])
        # The engineer revisits earlier incidents while crashes arrive,
        # so latency samples spread over the whole pass.
        for _ in range(self.mix.rediagnoses):
            self._diagnose(*self._revisit(self.opened))
        every = self.mix.reverify_every
        if every and self.replayable and len(self.opened) % every == 0:
            self._verify(*self._revisit(self.replayable))

    def _engineer_tick(self) -> None:
        """Queries while a long guest run is under way (``query_during_runs``)."""
        if self.mix.query_during_runs:
            for _ in range(self.mix.query_rounds):
                self._query_round()

    def _revisit(self, items: list) -> tuple:
        """The next earlier item, round robin (the same order each pass)."""
        self.cursor += 1
        return items[self.cursor % len(items)]

    # ------------------------------------------------------------------
    # Carrying one crash: compile -> runs -> snap -> ingest
    # ------------------------------------------------------------------
    def _repeat_check(self, crash: Crash, cycles: tuple) -> None:
        seen = self.tally.cycles_seen.setdefault(crash.name, cycles)
        check(seen == cycles,
              f"simulated cycles {cycles} differ from an earlier pass {seen}")

    def _carry_single(self, crash: Crash):
        t = self.tally
        program = crash.program
        with t.op(f"compile {crash.name}"):
            module = compile_source(
                program.source,
                module_name=program.module,
                file_name=program.file,
                bounds_checks=program.il,
            )
        t.counts["minic.modules"] += 1
        with t.op(f"bare run {crash.name}"):
            machine = Machine(name=crash.machine)
            process = machine.create_process(crash.name)
            process.load_module(module)
            process.start()
            start = time.perf_counter()
            machine.run(max_cycles=MAX_CYCLES)
            bare_s = time.perf_counter() - start
            check(process.exit_state == "faulted",
                  f"bare run ended {process.exit_state}, not faulted")
        self._engineer_tick()
        session = TraceSession(
            machine=Machine(name=crash.machine),
            process_name=crash.name,
            runtime_config=RuntimeConfig(record_replay=crash.recorded),
            instrument_config=InstrumentConfig(
                mode="il" if program.il else "native"),
        )
        with t.op(f"instrument {crash.name}"):
            result = instrument_module(module, session.instrument_config)
            session.mapfiles.append(result.mapfile)
            session.add_module(result.module, instrument=False)
        with t.op(f"instrumented run {crash.name}"):
            start = time.perf_counter()
            run = session.run(max_cycles=MAX_CYCLES)
            traced_s = time.perf_counter() - start
            snap = run.snap
            check(snap is not None and snap.reason == "unhandled",
                  f"no unhandled-fault snap (status {run.status})")
            check(run.output == process.output,
                  f"instrumented output {run.output[-3:]} != bare "
                  f"{process.output[-3:]}")
            self._repeat_check(crash, (machine.cycles, session.machine.cycles))
            check(not crash.recorded or snap.replayable == "full",
                  "recorded snap is not replayable")
        self._engineer_tick()
        instructions = sum(
            th.instructions for th in run.process.threads.values())
        self.instructions[crash.name] = instructions
        self.owner[crash.name] = crash
        stats = result.stats
        c = t.counts
        bare_instructions = sum(
            th.instructions for th in process.threads.values())
        t.time("bare_run", crash.name, bare_s)
        t.time("pair_run", crash.name, traced_s)
        t.probe_ratios.setdefault(crash.name, []).append(
            (traced_s / instructions) / (bare_s / bare_instructions))
        t.bare_instructions[crash.name] = bare_instructions
        c["pair.bare_instructions"] += bare_instructions
        c["pair.traced_instructions"] += instructions
        c["pair.bare_cycles"] += machine.cycles
        c["pair.traced_cycles"] += session.machine.cycles
        c["instrument.probes"] += stats.header_probes + stats.light_probes
        c["instrument.original_words"] += stats.original_words
        c["instrument.instrumented_words"] += stats.instrumented_words
        c["vm.threads"] += len(run.process.threads)
        c["vm.sim_cycles"] += session.machine.cycles
        self._count_runtime(session.runtime, [snap])
        if crash.recorded:
            c["record.snaps"] += 1
            c["record.ndlog_bytes"] += len(json.dumps(snap.replay["ndlog"]))
            c["record.slice_events"] += len(session.runtime.recorder.events)
            c["record.run_instructions"] += instructions
            c["record.run_us"] += int(traced_s * 1e6)
            if self.inspect is None:
                self.inspect = (crash, snap)

        vault = self.vaults[crash.region]
        collector = self.collectors[crash.region]
        with t.op(f"ingest {crash.name}"):
            for mapfile in session.mapfiles:
                vault.put_mapfile(mapfile)
            start = time.perf_counter()
            collector.submit(snap)
            collector.drain()
            t.ingest_s_per_snap.append(time.perf_counter() - start)
            stored = collector.results[-1]
            check(not stored.deduped, "distinct crash deduplicated")
            check(stored.entry.sig is not None, "no crash signature mined")
            check(not collector.dead, "snap dead-lettered")
            incident = self.local[crash.region].incident_of(stored.digest)
            check(incident is not None and len(incident.entries) == 1,
                  "a single-process crash is not an incident of its own")
        return incident

    def _carry_chain(self, crash: Crash):
        t = self.tally
        session = DistributedSession(runtime_config=RuntimeConfig())
        machines = [
            session.add_machine(name, clock_skew=skew)
            for name, skew, _role in CHAIN_MACHINES
        ]
        collectors = {
            name: Collector(vault, network=session.network,
                            name=f"tb-collector-{name}")
            for name, vault in self.vaults.items()
        }
        for machine in machines:
            session.services[machine].forward_to(
                collectors[_region_of(machine.name)])
        names = [f"{crash.name}-{role}" for _m, _s, role in CHAIN_MACHINES]
        group = f"group-{crash.name}"
        services = list(session.services.values())
        for service in services:
            service.configure_group(group, names)
        for i, a in enumerate(services):
            for b in services[i + 1:]:
                a.link(b)
        client, frontend, backend = crash.programs
        with t.op(f"compile+instrument {crash.name}"):
            session.add_process(machines[0], names[0], client.source,
                                module_name=client.module, start=True)
            session.add_process(machines[1], names[1], frontend.source,
                                module_name=frontend.module,
                                services={7: "handle"})
            session.add_process(machines[2], names[2], backend.source,
                                module_name=backend.module,
                                services={8: "handle"})
            # Signatures are mined at ingest: every region needs every
            # mapfile before the first snap arrives.
            for mapfile in session.mapfiles:
                for vault in self.vaults.values():
                    vault.put_mapfile(mapfile)
        t.counts["minic.modules"] += 3
        network = session.network
        with t.op(f"network run {crash.name}"):
            for handle in session.nodes.values():
                if handle.entry_module is not None:
                    handle.process.start(handle.entry_module)
            client_store = session.nodes[names[0]].runtime.snap_store
            start = time.perf_counter()
            for _ in range(CHAIN_MAX_STEPS):
                total = sum(m.cycles for m in network.machines)
                network.run(max_total_cycles=total + CHAIN_STEP_CYCLES)
                if client_store.snaps:
                    break
            t.time("chain_run", crash.name, time.perf_counter() - start)
            check(bool(client_store.snaps), "the client never snapped")
            check(client_store.latest().reason == "unhandled",
                  f"client snapped {client_store.latest().reason}")
            self._repeat_check(
                crash, tuple(m.cycles for m in network.machines))
        for name in names:
            self.owner[name] = crash
        snaps = [h.runtime.snap_store.latest() for h in session.nodes.values()]
        c = t.counts
        c["chain.instructions"] += sum(
            th.instructions
            for p in network.processes()
            for th in p.threads.values()
        )
        c["vm.sim_cycles"] += sum(m.cycles for m in network.machines)
        c["vm.threads"] += sum(len(p.threads) for p in network.processes())
        c["distributed.chains"] += 1
        c["distributed.rpcs"] += network.rpc_count
        c["distributed.group_snaps"] += sum(
            1 for s in snaps if s is not None and s.reason == "group")
        for handle in session.nodes.values():
            self._count_runtime(handle.runtime, [])
        c["snap.raw_bytes"] += sum(
            len(b.words) * 4 for s in snaps if s is not None for b in s.buffers)
        c["snap.count"] += sum(1 for s in snaps if s is not None)
        with t.op(f"ingest {crash.name}"):
            start = time.perf_counter()
            for collector in collectors.values():
                collector.drain()
            stored = [r for c in collectors.values() for r in c.results]
            t.ingest_s_per_snap.append(
                (time.perf_counter() - start) / max(len(stored), 1))
            check(len(stored) == 3, f"{len(stored)} chain snaps stored, not 3")
            check(not any(r.deduped for r in stored),
                  "distinct snap deduplicated")
            check(not any(c.dead for c in collectors.values()),
                  "snap dead-lettered")
            check(any(r.entry.sig is not None for r in stored
                      if r.entry.process == names[0]),
                  "no crash signature mined for the client")
            for collector in collectors.values():
                collector.close()
            incidents, report = self.federated.incidents(group=group)
            check(report.coverage == "full",
                  f"federated coverage {report.coverage}")
            check(len(incidents) == 1,
                  f"{crash.name} spans {len(incidents)} incidents, not 1")
            incident = incidents[0]
            check(set(incident.machines) == CHAIN_MACHINE_NAMES
                  and len(incident.entries) == 3,
                  f"{crash.name} incident covers {incident.machines}")
        return incident

    def _count_runtime(self, runtime, snaps) -> None:
        c = self.tally.counts
        c["runtime.records_written"] += runtime.stats.records_written
        c["runtime.wraps"] += runtime.stats.wraps
        for snap in snaps:
            c["snap.raw_bytes"] += sum(len(b.words) * 4 for b in snap.buffers)
            c["snap.count"] += 1

    # ------------------------------------------------------------------
    # The engineer: queries, diagnosis, verification
    # ------------------------------------------------------------------
    def _query_round(self) -> None:
        """Local select/incidents/top per vault, a filtered select, then
        the federated mix; every answer is one latency sample."""
        t = self.tally
        answers = {}
        try:
            for name, query in self.local.items():
                for kind in ("select", "incidents", "top"):
                    with t.op(f"query {kind} {name}"):
                        answers[name, kind] = t.timed(
                            t.query_ms, getattr(query, kind))
            first = next(iter(self.local.values()))
            with t.op("query select reason=unhandled"):
                t.timed(t.query_ms, lambda: first.select(reason="unhandled"))
            t.counts["query.selects"] += len(self.local) + 1
            t.counts["query.entries_scanned"] += (
                sum(len(v) for v in self.vaults.values())
                + len(first.vault))
            for kind, args in FEDERATED_MIX:
                with t.op(f"federated {kind}{args}"):
                    answers[kind, args], report = t.timed(
                        t.query_ms, getattr(self.federated, kind), *args)
                    t.counts["remote.federated"] += 1
                    t.counts["remote.full_coverage"] += (
                        report.coverage == "full")
                    check(report.coverage == "full",
                          f"federated {kind} coverage {report.coverage}")
        except _Abandon:
            return
        finally:
            t.calibration_ms.append(calibrate.sample_ms())
        self.answers = answers

    def _vault_of(self, digest: str) -> SnapVault:
        return next(v for v in self.vaults.values() if v.contains(digest))

    def _diagnose(self, crash: Crash, incident) -> None:
        """Load + reconstruct + render one incident; check the fault."""
        t = self.tally
        with t.op(f"diagnose {crash.name}"):
            start = time.perf_counter()
            if len(incident.entries) == 1:
                entry = incident.entries[0]
                vault = self._vault_of(entry.digest)
                trace, _notes = VaultQuery(vault).reconstruct_entry(entry)
                text = select_view(trace)
                processes = [trace]
                full = not trace.salvage
            else:
                snaps = [self._vault_of(e.digest).load(e.digest)[0]
                         for e in incident.entries]
                mapfiles = self._vault_of(incident.entries[0].digest).mapfiles()
                trace = Reconstructor(mapfiles).reconstruct_distributed(
                    snaps, expected_machines=incident.machines)
                first = next(p for p in trace.processes
                             if p.reason == "unhandled")
                text = render_distributed(trace) + "\n" + select_view(first)
                processes = trace.processes
                full = trace.degradation is None
            t.diagnose_ms.append(1000.0 * (time.perf_counter() - start))
            c = t.counts
            c["reconstruct.diagnoses"] += 1
            c["reconstruct.full_rung"] += full
            c["reconstruct.events"] += sum(
                len(th.steps) for p in processes for th in p.threads)
            c["view.lines"] += text.count("\n") + 1
            check(names_fault(text, crash.fault),
                  f"diagnosis does not mark {crash.fault[0]}:{crash.fault[1]}")

    def _verify(self, crash: Crash, entry) -> None:
        """``verify_bucket`` on the bucket the crash landed in."""
        t = self.tally
        query = self.local[crash.region]
        with t.op(f"verify {crash.name}"):
            bucket = next(b for b in query.top() if b.sig == entry.sig)
            verdict = t.timed(t.verify_ms, query.verify_bucket, bucket)
            t.counts["replay.instructions"] += self.instructions[crash.name]
            check(verdict["verified"], f"verdict: {verdict['reason']}")

    def _check_federation(self) -> None:
        """Federated answers equal the union of the local answers."""
        a = self.answers
        local_entries = [e for name in self.local for e in a[name, "select"]]
        check({e.digest for e in a["select", ()]}
              == {e.digest for e in local_entries},
              "federated select != union of local selects")
        check({frozenset(e.digest for e in i.entries)
               for i in a["incidents", ()]}
              == {frozenset(e.digest for e in i.entries)
                  for i in merge_incidents(local_entries)},
              "federated incidents != merge of local incidents")
        check({b["sig"] for b in a["top", ()]}
              == {b.sig for name in self.local for b in a[name, "top"]},
              "federated top != union of local top buckets")

    def _inspect(self) -> None:
        """Replay one recorded crash to its fault and look around."""
        if self.inspect is None:
            return
        t = self.tally
        crash, snap = self.inspect
        try:
            with t.op(f"inspect {crash.name}"):
                engine = ReplayEngine(snap)
                stop = engine.run_to_fault()
                t.counts["replay.instructions"] += self.instructions[crash.name]
                check(stop["reason"] == "fault", f"replay stopped {stop}")
                frame = engine.backtrace()[0]
                check((frame.get("file"), frame.get("line")) == crash.fault,
                      f"replayed fault at {frame}, planted {crash.fault}")
                check(engine.registers()["pc"] == frame["pc"],
                      "registers disagree with the backtrace")
        except _Abandon:
            pass

    # ------------------------------------------------------------------
    def _count_store(self) -> None:
        c = self.tally.counts
        for vault_name, vault in self.vaults.items():
            c["store.snaps"] += len(vault)
            c["store.blob_bytes"] += sum(e.size for e in vault.index.values())
            c["store.signed"] += sum(
                1 for e in vault.index.values() if e.sig is not None)
            c["store.mapfiles"] += len(vault.mapfiles())
            c["store.batches"] += vault.metrics.batches
            c["remote.requests"] += (
                self.clients[vault_name].metrics.remote_requests)
            for root, _dirs, files in os.walk(vault.root):
                c["store.disk_bytes"] += sum(
                    os.path.getsize(os.path.join(root, f)) for f in files)
