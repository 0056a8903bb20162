"""Per-thread segment-cache entries: stale entries never load.

On the block engine a slice of a thread other than the memory's last
one parks the five segment-cache entries (two read, two write, one
trace) in the outgoing thread and takes back the incoming thread's own,
unless a map or unmap happened in between (``Memory.generation``).  The
entries are pure accelerators, so every test here runs one program on
the block engine (at both compile thresholds) and on the reference
engine, which never swaps entries, and compares the outcome: a host
``unload_module`` between two threads' slices, after which the resumed
thread's load must fault at the same pc; host ``alloc_words`` and
``thread_create`` calls between slices; and the count of segment
lookups per slice on a lock-contended recorded crasher, which the swap
exists to keep below one.
"""

from __future__ import annotations

import pytest

import repro.vm.machine as vm_machine
from repro.api import TraceSession
from repro.instrument import InstrumentConfig, instrument_module
from repro.isa import assemble
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.vm import ExcCode, ExitState, Machine
from repro.vm.machine import QUANTUM
from repro.vm.memory import Memory

THRESHOLDS = (vm_machine.HOT_THRESHOLD, 1)

#: Two threads read a word of another module's data (its address is
#: their argument, in r0) and bump a counter on their own stacks; the
#: writer fills a host-allocated block (its base in r0) and reads it back.
READER = """
.module reader
.entry main
.func main
  push r0
loop:
  ldw r2, r0, 0
  ldw r3, r12, 0
  addi r3, r3, 1
  stw r3, r12, 0
  addi r4, r4, 1
  br loop
.endfunc
.func writer
  li r1, 0
fill:
  andi r5, r1, 63
  add r6, r0, r5
  stw r1, r6, 0
  ldw r7, r6, 0
  add r8, r8, r7
  addi r1, r1, 1
  br fill
.endfunc
"""

LIBRARY = """
.module library
.func lib
  ret
.endfunc
.data
table: .word 41
"""

_READER = assemble(READER)
_LIBRARY = assemble(LIBRARY)


class BetweenSlices:
    """Slice-hook observer: ``actions[n](process)`` runs after slice n."""

    def __init__(self, process, actions):
        self.process = process
        self.actions = actions
        self.count = 0

    def slice_begin(self, thread):
        pass

    def slice_end(self, thread):
        self.count += 1
        action = self.actions.get(self.count)
        if action is not None:
            action(self.process)


def _capture(machine, status, process, runtime=None):
    fault = process.fault
    return {
        "status": status,
        "cycles": machine.cycles,
        "exit": (process.exit_state, process.exit_code),
        "fault": None if fault is None else (fault.code, fault.pc),
        "threads": {
            tid: (thread.state, thread.instructions, thread.pc,
                  list(thread.regs))
            for tid, thread in process.threads.items()
        },
        "segments": [
            (seg.name, list(seg.words)) for seg in process.memory.segments()
            if seg.name.startswith("heap")
        ],
        "trace": (
            [buf.mapped.snapshot() for buf in runtime._all_buffers]
            if runtime is not None
            else None
        ),
    }


def _readers(engine, actions, max_cycles):
    """Two readers of the library's table, then the host ``actions``."""
    machine = Machine(engine=engine)
    process = machine.create_process("readers")
    reader = process.load_module(_READER)
    library = process.load_module(_LIBRARY)
    table = library.symbol_addr("table")
    process.start().regs[0] = table
    process.create_thread(reader.code_base, arg=table)
    bound = {n: (lambda p, act=act: act(p, reader, library))
             for n, act in actions.items()}
    machine.slice_hooks.append(BetweenSlices(process, bound))
    status = machine.run(max_cycles=max_cycles)
    return _capture(machine, status, process), reader


def assert_engines_agree(monkeypatch, run, *args):
    """``run(engine, *args)`` gives the reference engine's first result
    on the block engine at every compile threshold."""
    reference = run("reference", *args)
    for threshold in THRESHOLDS:
        monkeypatch.setattr(vm_machine, "HOT_THRESHOLD", threshold)
        block = run("block", *args)
        assert block[0] == reference[0], (
            f"block (threshold {threshold}) diverged from reference"
        )
    return reference


@pytest.mark.parametrize("after", [2, 3, 9, 40])
def test_unload_between_slices_faults_the_resumed_reader(monkeypatch, after):
    """Slice ``after`` ends, the host unloads the library, and the other
    reader, whose parked entries still point at the table, resumes: its
    load must fault at the ``ldw`` as on the reference engine."""
    actions = {after: lambda p, reader, library: p.unload_module(library)}
    state, reader = assert_engines_agree(
        monkeypatch, _readers, actions, 50_000)
    assert state["exit"][0] == ExitState.FAULTED
    assert state["fault"] == (ExcCode.ACCESS_VIOLATION, reader.code_base + 1)
    # The fault came in the first slice after the unload.
    total = sum(t[1] for t in state["threads"].values())
    assert after * QUANTUM < total <= (after + 1) * QUANTUM


def _spawn_writer(p, reader, library):
    base = p.alloc_words(64, name="heap-block")
    p.create_thread(reader.symbol_addr("writer"), arg=base)


@pytest.mark.parametrize("every", [1, 3, 7])
def test_alloc_and_thread_create_between_slices(monkeypatch, every):
    """Host allocations between slices (each a new map, so every parked
    entry goes stale) and a writer thread created between slices."""
    actions = {
        n: (lambda p, reader, library: p.alloc_words(16))
        for n in range(every, 200, every)
    }
    actions[5] = _spawn_writer
    actions[60] = _spawn_writer
    state, _ = assert_engines_agree(monkeypatch, _readers, actions, 20_000)
    assert state["status"] == "limit"
    assert len(state["threads"]) == 4
    assert any(any(words) for _, words in state["segments"])


#: Instrumented workers: each thread writes its own trace buffer, so the
#: trace entry is per thread too.
WORKERS = """
int shared[4];

int worker(int n) {
    int i;
    int acc;
    acc = n;
    for (i = 0; i < 120; i = i + 1) {
        acc = (acc * 7 + i) % 4093;
        if (i % 5 == 0) {
            lock(1);
            shared[n % 4] = shared[n % 4] + acc;
            unlock(1);
        }
    }
    print_int(acc);
    return 0;
}

int main() {
    int t;
    for (t = 0; t < 3; t = t + 1) {
        thread_create(worker, t);
    }
    sleep(200000);
    return shared[0];
}
"""

_WORKERS = instrument_module(
    compile_source(WORKERS, "workers"), InstrumentConfig(mode="native")
).module


def _workers(engine, every):
    machine = Machine(engine=engine)
    process = machine.create_process("workers")
    runtime = TraceBackRuntime(process, RuntimeConfig())
    loaded = process.load_module(_WORKERS)
    process.start()
    worker = loaded.export_addr("worker")
    actions = {n: (lambda p: p.alloc_words(8)) for n in range(every, 400, every)}
    actions[33] = lambda p: p.create_thread(worker, arg=9)
    machine.slice_hooks.append(BetweenSlices(process, actions))
    status = machine.run()
    return (_capture(machine, status, process, runtime),)


@pytest.mark.parametrize("every", [2, 11])
def test_instrumented_threads_with_host_maps_between_slices(monkeypatch, every):
    (state,) = assert_engines_agree(monkeypatch, _workers, every)
    assert state["exit"][0] == ExitState.EXITED
    assert any(any(words) for words in state["trace"])


#: perfbench's first recorded crasher (seed 501): three workers grind a
#: lock-contended loop, then all divide by zero.
RECORDED = """
int shared[8];

int worker(int wid) {
    int i;
    int acc;
    acc = wid + 19;
    for (i = 0; i < 1500; i = i + 1) {
        acc = acc * i * 7;
        if (i % 4 == 0) {
            lock(1);
            shared[wid % 8] = shared[wid % 8] + acc;
            unlock(1);
        }
    }
    return 1000 / (acc - acc);
}

int main() {
    int t;
    print_int(362);
    for (t = 0; t < 3; t = t + 1) {
        thread_create(worker, t);
    }
    sleep(40000000);
    return 0;
}
"""


class SliceCount:
    def __init__(self):
        self.slices = 0

    def slice_begin(self, thread):
        self.slices += 1

    def slice_end(self, thread):
        pass


def test_segment_lookups_per_slice_on_a_recorded_crasher(monkeypatch):
    """Threads switch every slice; with per-thread entries the stack
    and trace entries survive it, and with the tier-2 probe ops on the
    trace entry trace records no longer evict the stack or the data.
    Shared entries cost 4.4 ``segment_at`` lookups per slice on this
    run (30,803 in 7,007 slices); now it takes 354, under one per
    slice."""
    lookups = [0]
    segment_at = Memory.segment_at

    def counting(self, addr):
        lookups[0] += 1
        return segment_at(self, addr)

    module = compile_source(RECORDED, "rv_0", file_name="rv_0.c")
    session = TraceSession(
        machine=Machine(),
        process_name="rv_0",
        runtime_config=RuntimeConfig(record_replay=True),
        instrument_config=InstrumentConfig(mode="native"),
    )
    result = instrument_module(module, session.instrument_config)
    session.mapfiles.append(result.mapfile)
    session.add_module(result.module, instrument=False)
    counter = SliceCount()
    session.machine.slice_hooks.append(counter)
    monkeypatch.setattr(Memory, "segment_at", counting)
    run = session.run(max_cycles=10**9)
    assert run.snap is not None and run.snap.reason == "unhandled"
    assert counter.slices == 7_007
    assert lookups[0] < counter.slices
