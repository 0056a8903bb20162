"""Lone-thread runs: boundary exactness of multi-quantum slices.

A thread alone on its machine, with no slice hooks, runs on the block
engine as a *lone run*: many scheduler quanta in one slice-loop call,
ending at the first quantum boundary where ``Machine.run``'s
single-thread fast path would stop re-slicing — at once when the thread
blocks or its process ends, at the next boundary once a thread or
process is spawned or a signal is pending, and at the first boundary
with the cycle limit reached.  The reference engine still slices every
quantum, so it is the oracle: each test runs one program on both and
compares the ``run`` status, ``machine.cycles``, every thread's
instructions, pc and registers, the output, and (instrumented) the
trace-buffer words.

The cases aim at what moves a boundary or ends a lone run: syscall
costs charged mid-quantum (``PRINT_INT``, ``CLOCK``) against every
cycle limit from 1 to 300, a ``thread_create`` mid-quantum, a signal
posted from a process hook, unmapped executes caught by a guest handler
(steps that retire nothing), a ``Network.run`` chain of 2,000-cycle
steps, and a slice-hook observer, which keeps seeing every quantum.
"""

from __future__ import annotations

import pytest

import repro.vm.machine as vm_machine
from repro.distributed import Network
from repro.instrument import InstrumentConfig, instrument_module
from repro.isa import assemble
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.vm import Machine, ProcessHooks, Signal
from repro.vm.machine import ENGINE_ENV_VAR, QUANTUM

#: Entry counts at which the block engine compiles a unit: on demand
#: (the production setting) and on first entry, so units run even in the
#: first few hundred cycles and cross quantum boundaries.
THRESHOLDS = (vm_machine.HOT_THRESHOLD, 1)

#: Syscall costs land mid-quantum: ``print_int`` charges 10 cycles,
#: ``clock`` 5, both from the first iterations on.
SYSCALL_LOOP = """
int main() {
    int i;
    int t;
    t = 7;
    for (i = 0; i < 400; i = i + 1) {
        t = (t * 5 + i) % 1009;
        if (i % 3 == 0) {
            print_int(t);
        }
        if (i % 5 == 0) {
            t = t + clock() % 7;
        }
    }
    print_int(t);
    return 0;
}
"""

SPAWN = """
int worker(int n) {
    int k;
    int s;
    s = 0;
    for (k = 0; k < 300; k = k + 1) {
        s = (s * 3 + k + n) % 4093;
    }
    print_int(s);
    return 0;
}

int main() {
    int i;
    int t;
    t = 1;
    for (i = 0; i < 150; i = i + 1) {
        t = (t * 7 + i) % 2003;
    }
    thread_create(worker, t);
    for (i = 0; i < 900; i = i + 1) {
        t = (t * 11 + i) % 2003;
    }
    print_int(t);
    return 0;
}
"""

#: A loop of ``%LENGTH%`` instructions per pass whose ``sys 1`` is the
#: pass's second-to-last; ``%PAD%`` puts the first one on a quantum
#: boundary.  It registers a SIGTERM handler (``%REGISTER%``) or leaves
#: the signal's default action to end the process.  The handler counts
#: deliveries and preserves what it touches; delivery itself sets r0.
PACED = """
.module paced
.entry main
.func main
  li r0, 15
  la r1, handler
  %REGISTER%
  li r6, 0
  li r7, 1
%PAD%
loop:
  addi r6, r6, 1
%FILL%
  slti r9, r6, 100
  mov r0, r7
  sys 1
  bnz r9, loop
  la r2, hits
  ldw r0, r2, 0
  sys 1
  halt
.endfunc
.export handler
.func handler
  push r2
  push r3
  la r2, hits
  ldw r3, r2, 0
  addi r3, r3, 1
  stw r3, r2, 0
  pop r3
  pop r2
  ret
.endfunc
.data
hits: .word 0
"""


def _paced(length, handled=True):
    """``PACED`` with ``length``-instruction passes: at 40 every
    ``sys 1`` retires on a quantum boundary, at 41 they drift across
    every phase of the quantum."""
    prologue = 6  # li, la (two words), sys/nop, li, li
    fill = ["  add r7, r7, r6", "  andi r7, r7, 4095"] * length
    source = (
        PACED.replace("%REGISTER%", "sys 18" if handled else "nop")
        .replace("%PAD%", "  nop\n" * (-(prologue + length - 1) % QUANTUM))
        .replace("%FILL%", "\n".join(fill[: length - 5]))
    )
    return assemble(source)


#: Each pass calls into unmapped memory; the fault (a step that
#: retires nothing) unwinds to main's handler, which loops back.  Only
#: every 16th pass prints, so most faults are followed by more than a
#: quantum of steps that charge one cycle each.
UNMAPPED_CALLS = """
.module wild
.entry main
.func main
  li r5, 0
  li r6, 0
loop:
  addi r6, r6, 1
  muli r7, r6, 3
  add r8, r8, r7
  andi r8, r8, 1023
  li r1, 0x7F000000
try0:
  callr r1
try1:
  halt
catch:
  addi r5, r5, 1
  andi r9, r5, 15
  bnz r9, quiet
  mov r0, r8
  sys 1
quiet:
  slti r9, r5, 40
  bnz r9, loop
  mov r0, r5
  sys 1
  halt
.handler try0 try1 catch
.endfunc
.export side
.func side
  li r5, 0
side_loop:
  addi r5, r5, 1
  slti r9, r5, 50
  bnz r9, side_loop
  ret
.endfunc
"""

#: A client that computes, calls service 7 on another machine, and
#: computes again; the server's handler computes before it replies.
CLIENT = """
.module client
.entry main
.func main
  li r10, 0
round:
  li r6, 0
  li r7, 3
spin:
  addi r6, r6, 1
  muli r7, r7, 7
  add r7, r7, r6
  andi r7, r7, 65535
  slti r9, r6, 700
  bnz r9, spin
  la r1, argbuf
  stw r7, r1, 0
  li r0, 7
  li r2, 1
  la r3, retbuf
  li r4, 1
  sys 14
  sys 1
  la r3, retbuf
  ldw r0, r3, 0
  sys 1
  addi r10, r10, 1
  slti r9, r10, 3
  bnz r9, round
  sys 7
  sys 1
  halt
.endfunc
.data
argbuf: .word 0
retbuf: .word 0
"""

SERVER = """
.module server
.export handle
.func handle
  ldw r4, r0, 0
  li r5, 0
work:
  addi r5, r5, 1
  muli r4, r4, 3
  addi r4, r4, 1
  andi r4, r4, 32767
  slti r6, r5, 500
  bnz r6, work
  stw r4, r2, 0
  li r0, 0
  ret
.endfunc
"""


def _capture(machine, status, runtime=None):
    """What must not depend on the engine after one ``run`` call."""
    return {
        "status": status,
        "cycles": machine.cycles,
        "processes": [
            {
                "name": process.name,
                "exit": (process.exit_state, process.exit_code),
                "output": list(process.output),
                "pending": list(process.pending_signals),
                "threads": {
                    tid: (thread.state, thread.instructions, thread.pc,
                          list(thread.regs))
                    for tid, thread in process.threads.items()
                },
            }
            for process in machine.processes
        ],
        "trace": (
            [buf.mapped.snapshot() for buf in runtime._all_buffers]
            if runtime is not None
            else None
        ),
    }


def _start(engine, module, *, instrument=False, hook=None):
    """A machine with one process running ``module``'s main thread."""
    machine = Machine(engine=engine)
    process = machine.create_process("lone")
    runtime = TraceBackRuntime(process, RuntimeConfig()) if instrument else None
    if hook is not None:
        process.hooks.add(hook(process))
    process.load_module(module)
    process.start()
    return machine, runtime


def _run_fresh(engine, module, max_cycles, **kwargs):
    machine, runtime = _start(engine, module, **kwargs)
    return _capture(machine, machine.run(max_cycles=max_cycles), runtime)


def _run_chain(engine, module, limits, **kwargs):
    """One machine advanced by successive ``run`` calls."""
    machine, runtime = _start(engine, module, **kwargs)
    return [
        _capture(machine, machine.run(max_cycles=limit), runtime)
        for limit in limits
    ]


def assert_lone_runs_agree(monkeypatch, run, *args, **kwargs):
    """``run(engine, *args, **kwargs)`` gives the reference engine's
    result on the block engine at every compile threshold."""
    reference = run("reference", *args, **kwargs)
    for threshold in THRESHOLDS:
        monkeypatch.setattr(vm_machine, "HOT_THRESHOLD", threshold)
        assert run("block", *args, **kwargs) == reference, (
            f"block (threshold {threshold}) diverged from reference"
        )
    return reference


_LOOP = compile_source(SYSCALL_LOOP, "loop")
_MODULES = {
    "bare": _LOOP,
    "native": instrument_module(_LOOP, InstrumentConfig(mode="native")).module,
}


def _phased(limits, stride):
    """``limits`` dealt into ``stride`` parts: the first runs in the
    default lane, the rest in the slow one (``scripts/check.sh tier3``
    runs them all)."""
    limits = list(limits)
    return [
        pytest.param(
            limits[part::stride], id=f"part{part}",
            marks=() if part == 0 else pytest.mark.slow,
        )
        for part in range(stride)
    ]


def assert_limits_agree(monkeypatch, module, limits, **kwargs):
    """Fresh runs to each of ``limits`` agree; their states by limit."""
    return {
        limit: assert_lone_runs_agree(
            monkeypatch, _run_fresh, module, limit, **kwargs
        )
        for limit in limits
    }


#: A run to completion, in the default lane with each sweep's first part.
DONE = 10_000_000


@pytest.mark.parametrize(
    "mode, limits",
    [
        pytest.param(mode, *part.values, id=f"{mode}-{part.id}",
                     marks=part.marks)
        for mode, stride in (("bare", 4), ("native", 8))
        for part in _phased(range(1, 301), stride)
    ],
)
def test_every_cycle_limit_to_300(monkeypatch, mode, limits):
    """A fresh run to each limit from 1 to 300 — multiples of the
    quantum and everything between — stops on the boundary the
    per-quantum scheduler stops on, with syscall costs charged
    mid-quantum along the way."""
    states = assert_limits_agree(
        monkeypatch, _MODULES[mode], limits, instrument=mode != "bare"
    )
    for limit, state in states.items():
        assert state["status"] == "limit"
        assert state["cycles"] >= limit


@pytest.mark.parametrize("mode", sorted(_MODULES))
@pytest.mark.parametrize("limits", _phased([DONE, *range(300, 20_000, 397)], 20))
def test_long_cycle_limits(monkeypatch, mode, limits):
    """Limits deep into the run, where units are hot and a lone run
    spans hundreds of quanta, and the run to completion."""
    states = assert_limits_agree(
        monkeypatch, _MODULES[mode], limits, instrument=mode != "bare"
    )
    if DONE in states:
        assert states[DONE]["status"] == "done"
        assert len(states[DONE]["processes"][0]["output"]) == 135


@pytest.mark.parametrize("step", [1, 7, 40, 41, 113, 2_000])
def test_chained_run_calls(monkeypatch, step):
    """Each ``run`` call starts a new lone run where the last one
    stopped, as a stepping host (or a network) drives it."""
    limits = range(step, 40_000, step)[:400]
    assert_lone_runs_agree(monkeypatch, _run_chain, _LOOP, limits)


@pytest.mark.parametrize("limits", _phased([DONE, *range(1_000, 8_000, 61)], 20))
def test_thread_create_mid_quantum(monkeypatch, limits):
    """The spawn ends the lone run at the next boundary; from there the
    full scheduler alternates the two threads."""
    states = assert_limits_agree(
        monkeypatch, compile_source(SPAWN, "spawn"), limits
    )
    if DONE in states:
        assert states[DONE]["status"] == "done"
        assert len(states[DONE]["processes"][0]["output"]) == 2


class _SignalEverySecondSyscall(ProcessHooks):
    """Posts SIGTERM from every second syscall hook, and charges cycles
    at each delivery, as the runtime's host-written records do."""

    def __init__(self, process):
        self.process = process
        self.seen = 0
        self.phases = set()

    def syscall(self, thread, number):
        self.seen += 1
        self.phases.add(thread.instructions % QUANTUM)
        if self.seen % 2 == 0:
            self.process.post_signal(Signal.TERM)

    def signal(self, thread, signum):
        self.process.machine.cycles += 25
        self.process.cycles_used += 25


def _run_signalled(engine, module, limits):
    """Fresh runs to each limit; the phases syscalls retired at."""
    states, phases = [], set()
    for limit in limits:
        hooks = []

        def install(process):
            hooks.append(_SignalEverySecondSyscall(process))
            return hooks[0]

        states.append(_run_fresh(engine, module, limit, hook=install))
        phases |= hooks[0].phases
    return states, phases


@pytest.mark.parametrize("handled", [True, False])
@pytest.mark.parametrize("length", [40, 41])
@pytest.mark.parametrize("limits", _phased([DONE, *range(1, 400)], 12))
def test_signal_posted_from_hook(monkeypatch, length, handled, limits):
    """A signal pending after a syscall ends the lone run at the next
    boundary — or at once, on a boundary — where the slice start
    delivers it, to the guest handler or as the default action that
    ends the process.  Delivery charges cycles, so the next lone run
    may start at or past the limit: it still runs one quantum."""
    states, phases = assert_lone_runs_agree(
        monkeypatch, _run_signalled, _paced(length, handled), limits
    )
    assert 0 in phases  # syscalls retired on quantum boundaries
    if DONE in limits:
        final = states[limits.index(DONE)]
        process = final["processes"][0]
        if handled:
            assert final["status"] == "done"
            assert int(process["output"][-1]) > 5  # the handler ran often
        else:
            assert process["exit"][0] == "signaled"


@pytest.mark.parametrize("length", [40, 41])
@pytest.mark.parametrize("limits", _phased(range(1, 500), 8))
def test_syscall_cost_on_a_boundary(monkeypatch, length, limits):
    """A syscall that retires on a boundary and takes the cycle count
    past the limit stops the lone run right there."""
    assert_limits_agree(monkeypatch, _paced(length), limits)


class _OnSeventhFault(ProcessHooks):
    """From the first-chance hook of the seventh fault — a step that
    charges no cycles — posts SIGTERM or spawns a thread at ``side``."""

    def __init__(self, process, action):
        self.process = process
        self.action = action
        self.seen = 0

    def first_chance(self, thread, fault):
        self.seen += 1
        if self.seen != 7:
            return
        if self.action == "signal":
            self.process.post_signal(Signal.TERM)
        else:
            self.process.create_thread(self.process.loader.find_export("side"))


@pytest.mark.parametrize("action", [None, "signal", "spawn"])
@pytest.mark.parametrize("limits", _phased([DONE, 2_000, *range(1, 400, 3)], 4))
def test_unmapped_execute_caught_by_guest_handler(monkeypatch, limits, action):
    """An unmapped execute retires nothing, so it shifts every later
    boundary by one step; the guest handler keeps the thread going.  A
    signal or spawn from its fault hook ends the lone run at the next
    boundary with no cycles charged to notice it by."""
    hook = None if action is None else (
        lambda process: _OnSeventhFault(process, action)
    )
    states = assert_limits_agree(
        monkeypatch, assemble(UNMAPPED_CALLS), limits, hook=hook
    )
    if DONE in states:
        process = states[DONE]["processes"][0]
        if action == "signal":
            assert process["exit"][0] == "signaled"
        else:
            assert process["output"][-1] == "40"
            assert len(process["threads"]) == (2 if action == "spawn" else 1)


class _AtThreadStart(ProcessHooks):
    """From the main thread's start hook, before its first slice:
    spawns a thread at ``side``, or installs ``handler`` for SIGTERM and
    posts it twice (the slice start delivers one, the other stays
    pending)."""

    def __init__(self, process, action):
        self.process = process
        self.action = action

    def thread_started(self, thread):
        if thread.tid != 0:
            return
        loader = self.process.loader
        if self.action == "spawn":
            self.process.create_thread(loader.find_export("side"))
        else:
            handler = loader.find_export("handler")
            self.process.signal_handlers[Signal.TERM] = handler
            self.process.post_signal(Signal.TERM)
            self.process.post_signal(Signal.TERM)


@pytest.mark.parametrize("action", ["spawn", "signals"])
def test_first_slice_after_a_start_hook(monkeypatch, action):
    """What the start hook leaves for run() to act on stops the first
    slice after one quantum, as run() checks no sooner."""
    module = (
        assemble(UNMAPPED_CALLS) if action == "spawn" else _paced(41)
    )
    assert_limits_agree(
        monkeypatch, module, [1, 39, 40, 41, 80, 121, 1_000, DONE],
        hook=lambda process: _AtThreadStart(process, action),
    )


def test_lone_thread_runs_in_one_slice_loop_call(monkeypatch):
    """With nothing to stop for, a lone thread runs to the end in one
    call of the slice loop, its syscall costs re-deriving the budget in
    place."""
    calls = []
    run_slice_block = Machine._run_slice_block

    def spy(self, *args):
        calls.append(args[2:])
        return run_slice_block(self, *args)

    monkeypatch.setattr(Machine, "_run_slice_block", spy)
    machine, _ = _start("block", _LOOP)
    assert machine.run(max_cycles=DONE) == "done"
    assert len(calls) == 1
    assert calls[0] == (QUANTUM, (DONE, machine.spawn_epoch))


def _network_chain(engine, monkeypatch):
    """Run client and server machines through ``Network.run`` in
    2,000-cycle steps, capturing every machine after every step."""
    monkeypatch.setenv(ENGINE_ENV_VAR, engine)
    network = Network()
    states = []
    for name in ("server", "client"):
        machine = network.add_machine(name)

        def run(max_cycles=None, quantum=QUANTUM, machine=machine):
            status = Machine.run(machine, max_cycles, quantum)
            states.append((machine.name, _capture(machine, status)))
            return status

        machine.run = run
    server = network.machines[0].create_process("server")
    server.load_module(assemble(SERVER))
    server.rpc_services[7] = "handle"
    client = network.machines[1].create_process("client")
    client.load_module(assemble(CLIENT))
    client.start()
    status = network.run(max_total_cycles=2_000_000, slice_cycles=2_000)
    return status, states


def test_network_run_chain(monkeypatch):
    reference = _network_chain("reference", monkeypatch)
    for threshold in THRESHOLDS:
        monkeypatch.setattr(vm_machine, "HOT_THRESHOLD", threshold)
        assert _network_chain("block", monkeypatch) == reference
    status, states = reference
    assert status == "done"
    assert len(states) > 20
    output = states[-1][1]["processes"][0]["output"]
    assert len(output) == 7 and output[0] == "0"


class _SliceRecorder:
    def __init__(self, machine):
        self.machine = machine
        self.events = []

    def slice_begin(self, thread):
        self.events.append(("begin", thread.tid, thread.instructions,
                            self.machine.cycles))

    def slice_end(self, thread):
        self.events.append(("end", thread.tid, thread.instructions,
                            self.machine.cycles))


def _observed(engine, limit):
    machine, _ = _start(engine, _LOOP)
    recorder = _SliceRecorder(machine)
    machine.slice_hooks.append(recorder)
    return _capture(machine, machine.run(max_cycles=limit)), recorder.events


@pytest.mark.parametrize("limit", [333, 20_000, 10_000_000])
def test_slice_hooks_see_every_quantum(monkeypatch, limit):
    """An observer turns lone runs off: it sees one slice_begin and
    one slice_end per quantum, as on the reference engine."""
    state, events = assert_lone_runs_agree(monkeypatch, _observed, limit)
    begins, ends = events[0::2], events[1::2]
    assert len(begins) == len(ends) > 1
    assert all(event[0] == "begin" for event in begins)
    assert all(event[0] == "end" for event in ends)
    for begin, end in zip(begins, ends):
        assert end[2] - begin[2] == QUANTUM or end is ends[-1]
    total = state["processes"][0]["threads"][0][1]
    assert len(begins) == -(-total // QUANTUM)
