"""The one-pass scheduler against the list-rebuilding loop it replaced.

``Machine.run`` makes one pass over a cached thread list per slice
(``Machine._schedule``).  The loop it replaced rebuilt the live-thread
list twice per slice and the runnable list on top; ``oracle_run`` below
keeps a copy of that loop as the oracle.  Both must pick the same
thread for every slice, so each test runs one program under both and
compares, slice by slice, ``(tid, start cycle, instructions)`` through a
slice-hook observer, and, with no hooks (lone runs on), the final
state: run status, cycles, every thread's state, instructions, pc and
registers, the output, and (instrumented) the trace-buffer words.

The programs are seeded :func:`~repro.workloads.random_crasher`
multithreaded crashers and one program with timed sleeps, lock waits
under a sleeping owner, thread exits, a ``thread_create`` mid-run and a
second process that is killed mid-run.  A few seeds run in the default
lane; ``scripts/check.sh tier3`` runs them all.
"""

from __future__ import annotations

import pytest

import repro.vm.machine as vm_machine
from repro.instrument import InstrumentConfig, instrument_module
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.vm import ExitState, Machine, ThreadState
from repro.vm.machine import NO_LIMIT, QUANTUM
from repro.workloads import random_crasher


def oracle_run(machine, max_cycles=None, quantum=QUANTUM):
    """``Machine.run`` with the scheduler it had before the one-pass
    scan: the live list built by a comprehension, built again after
    waking the due sleepers, and the runnable and timed-wake lists on
    top.  The slices themselves run through the machine."""

    def live_threads():
        return [
            thread
            for process in machine.processes
            if process.alive
            for thread in process.threads.values()
            if thread.alive()
        ]

    def wake_sleepers():
        for thread in live_threads():
            if (
                thread.state is ThreadState.BLOCKED
                and thread.wake_cycle is not None
                and thread.wake_cycle <= machine.cycles
            ):
                thread.unblock()

    while True:
        if max_cycles is not None and machine.cycles >= max_cycles:
            return "limit"
        wake_sleepers()
        live = live_threads()
        if not live:
            return "done"
        runnable = [t for t in live if t.runnable()]
        if not runnable:
            timed = [
                t.wake_cycle
                for t in live
                if t.state is ThreadState.BLOCKED and t.wake_cycle is not None
            ]
            if timed:
                machine.cycles = max(machine.cycles, min(timed))
                continue
            return "stalled"
        machine._rr_index %= len(runnable)
        thread = runnable[machine._rr_index]
        machine._rr_index += 1
        if len(live) > 1:
            machine._scheduled_slice(thread, quantum)
            continue
        process = thread.process
        epoch = machine.spawn_epoch
        lone = (NO_LIMIT if max_cycles is None else max_cycles, epoch)
        while (
            process.exit_state == ExitState.RUNNING
            and thread.runnable()
            and machine.spawn_epoch == epoch
            and not (max_cycles is not None and machine.cycles >= max_cycles)
        ):
            machine._rr_index = 1
            machine._scheduled_slice(thread, quantum, lone)


def new_run(machine, max_cycles=None, quantum=QUANTUM):
    return machine.run(max_cycles=max_cycles, quantum=quantum)


#: Timed sleeps (with lock waits behind a sleeping owner), thread exits
#: (workers returning), a thread_create in the middle of a grinder's
#: loop, and main sleeping past everyone.
MIXED = """
int shared[4];

int sleeper(int n) {
    int i;
    for (i = 0; i < 5; i = i + 1) {
        lock(1);
        sleep(60 + n * 37);
        shared[n % 4] = shared[n % 4] + i;
        unlock(1);
        sleep(25 * n);
    }
    return n;
}

int grinder(int n) {
    int i;
    int acc;
    acc = n;
    for (i = 0; i < 260; i = i + 1) {
        acc = (acc * 3 + i) % 1009;
        if (i % 9 == 0) {
            lock(1);
            shared[0] = shared[0] + acc;
            unlock(1);
        }
        if (i == 130) {
            thread_create(sleeper, n + 10);
        }
    }
    print_int(acc);
    return 0;
}

int main() {
    thread_create(sleeper, 1);
    thread_create(grinder, 2);
    thread_create(grinder, 3);
    sleep(30000);
    print_int(shared[0] + shared[1] + shared[2] + shared[3]);
    return 0;
}
"""

#: The second process: two threads that would spin far past the test,
#: so only the kill ends them.
VICTIM = """
int spin(int n) {
    int i;
    int acc;
    acc = n;
    for (i = 0; i < 100000; i = i + 1) {
        acc = (acc * 5 + i) % 2039;
    }
    print_int(acc);
    return 0;
}

int main() {
    thread_create(spin, 1);
    spin(2);
    return 0;
}
"""

_MIXED = compile_source(MIXED, "mixed")
_VICTIM = compile_source(VICTIM, "victim")
_NATIVE = InstrumentConfig(mode="native")


def _instrumented(module):
    return instrument_module(module, _NATIVE).module


def _machine(modules, instrument):
    """One process per module, started in order; the runtime of the
    first when ``instrument``."""
    machine = Machine()
    runtime = None
    for index, module in enumerate(modules):
        process = machine.create_process(module.name)
        if instrument and index == 0:
            runtime = TraceBackRuntime(process, RuntimeConfig())
            module = _instrumented(module)
        process.load_module(module)
        process.start()
    return machine, runtime


def _capture(machine, status, runtime=None):
    """Everything a scheduling difference would move."""
    return {
        "status": status,
        "cycles": machine.cycles,
        "rr": machine._rr_index,
        "processes": [
            {
                "exit": (process.exit_state, process.exit_code),
                "output": list(process.output),
                "threads": {
                    tid: (thread.state, thread.instructions, thread.pc,
                          list(thread.regs), thread.wake_cycle)
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


class SliceLog:
    """Slice-hook observer: ``(pid, tid, start cycle, instructions)``
    per slice; optionally kills ``victim`` at the end of slice
    ``kill_at``."""

    def __init__(self, machine, victim=None, kill_at=None):
        self.machine = machine
        self.victim = victim
        self.kill_at = kill_at
        self.slices = []
        self._start = None

    def slice_begin(self, thread):
        self._start = (thread.tid, self.machine.cycles, thread.instructions)

    def slice_end(self, thread):
        tid, cycle, before = self._start
        self.slices.append((thread.process.pid, tid, cycle,
                            thread.instructions - before))
        if len(self.slices) == self.kill_at:
            self.victim.kill()


def _observed(run, modules, kill_at=None, max_cycles=None):
    machine, _ = _machine(modules, instrument=False)
    victim = machine.processes[-1] if kill_at is not None else None
    log = SliceLog(machine, victim, kill_at)
    machine.slice_hooks.append(log)
    status = run(machine, max_cycles=max_cycles)
    return _capture(machine, status), log.slices


def _chained(run, modules, limits, kill_after=None, instrument=False):
    """Successive ``run`` calls on one machine, with no hooks; the last
    process is killed by the host after run ``kill_after``."""
    machine, runtime = _machine(modules, instrument)
    states = []
    for index, limit in enumerate(limits):
        states.append(_capture(machine, run(machine, max_cycles=limit),
                               runtime))
        if index == kill_after:
            machine.processes[-1].kill()
    return states


def assert_schedules_agree(result):
    """``result(run)`` is identical under both scheduler loops."""
    expected = result(oracle_run)
    assert result(new_run) == expected
    return expected


# ----------------------------------------------------------------------
# Seeded random multithreaded crashers
# ----------------------------------------------------------------------
def _crasher(seed):
    return compile_source(random_crasher(seed), f"rc{seed}")


def _seeds(count, stride):
    """Seeds ``0 .. count-1``: every ``stride``-th in the default lane,
    the rest slow."""
    return [
        seed if seed % stride == 0
        else pytest.param(seed, marks=pytest.mark.slow)
        for seed in range(count)
    ]


@pytest.mark.parametrize("seed", _seeds(40, 10))
def test_crasher_slices_match_the_oracle(seed):
    module = _crasher(seed)
    state, slices = assert_schedules_agree(
        lambda run: _observed(run, [module]))
    assert state["processes"][0]["exit"][0] == ExitState.FAULTED
    assert len({tid for _, tid, _, _ in slices}) > 1


@pytest.mark.parametrize("seed", _seeds(40, 10))
@pytest.mark.parametrize("instrument", [False, True])
def test_crasher_final_state_matches_the_oracle(seed, instrument):
    module = _crasher(seed)
    (state,) = assert_schedules_agree(
        lambda run: _chained(run, [module], [None], instrument=instrument))
    assert state["status"] == "done"
    if instrument:
        assert any(any(words) for words in state["trace"])


# ----------------------------------------------------------------------
# Sleeps, lock waits, exits, a mid-run spawn and a killed process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kill_at", [7, 150, 600])
def test_mixed_slices_match_the_oracle(kill_at):
    state, slices = assert_schedules_agree(
        lambda run: _observed(run, [_MIXED, _VICTIM], kill_at=kill_at))
    mixed, victim = state["processes"]
    assert state["status"] == "done"
    assert mixed["exit"] == (ExitState.EXITED, 0)
    assert victim["exit"][0] == ExitState.KILLED
    assert len(mixed["threads"]) == 6  # main, 3 workers, 2 mid-run
    assert len(slices) > kill_at
    # Timed wakes fast-forwarded the clock past the slices' own cycles.
    assert state["cycles"] > sum(n for _, _, _, n in slices)


@pytest.mark.parametrize("instrument", [False, True])
@pytest.mark.parametrize("limits,kill_after", [
    ([2_000, 9_000, None], 0),
    ([500, 1_500, 4_000, 31_000, None], 2),
    ([None], None),
])
def test_mixed_final_state_matches_the_oracle(limits, kill_after, instrument):
    modules = [_MIXED, _VICTIM] if kill_after is not None else [_MIXED]
    states = assert_schedules_agree(
        lambda run: _chained(run, modules, limits, kill_after, instrument))
    assert [s["status"] for s in states][-1] == "done"
    assert states[-1]["processes"][0]["exit"] == (ExitState.EXITED, 0)


def test_stalled_and_limit_endings_match_the_oracle():
    deadlock = compile_source(
        """
        int hold(int n) {
            lock(n);
            sleep(200);
            lock(3 - n);
            return 0;
        }
        int main() {
            thread_create(hold, 1);
            thread_create(hold, 2);
            sleep(1000);
            lock(1);
            return 0;
        }
        """,
        "deadlock",
    )
    states = assert_schedules_agree(
        lambda run: _chained(run, [deadlock], [150, None]))
    assert [s["status"] for s in states] == ["limit", "stalled"]


def test_reference_engine_matches_the_oracle(monkeypatch):
    monkeypatch.setenv(vm_machine.ENGINE_ENV_VAR, "reference")
    state, _ = assert_schedules_agree(
        lambda run: _observed(run, [_MIXED, _VICTIM], kill_at=40))
    assert state["processes"][1]["exit"][0] == ExitState.KILLED
