"""Header-probe differential: the tier-3 probe superinstruction against
the reference interpreter, on the probe's hard paths.

The block engine runs the heavyweight probe ``CALL helper; STDAG r``
as one superinstruction inside the caller's compiled unit
(:mod:`repro.vm.blocks`).  Its fast path is covered everywhere; these
tests aim at its exits and faults:

* tiny trace buffers, so the helper's sentinel check fires every few
  records and the unit leaves through the real helper's wrap path;
* a stack at its limit, so the probe's ``CALL`` faults on the
  return-address push (and, at other offsets, the callee's ``PUSH`` or
  an ordinary ``CALL`` does);
* a trace pointer into unmapped memory, so ``BSENT`` faults — and into
  read-only memory, so ``BSENT`` reads fine and ``STDAG`` faults.

Registers, every memory word (the stack word ``CALL`` writes
included), ``machine.cycles``, ``thread.instructions`` and the
trace-buffer words must be bit-identical, with units compiled on
demand and with every offset compiled on its first entry.
"""

from __future__ import annotations

import pytest

import repro.vm.machine as vm_machine
from repro.instrument import InstrumentConfig, instrument_module
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.vm import TLS_TRACE_PTR, Machine

SOURCE = """
int depth(int n) {
    if (n == 0) {
        return 0;
    }
    return depth(n - 1) + 1;
}

int mix(int a, int b) {
    int k;
    k = a * 7 + b;
    if (k % 3 == 0) {
        k = k + 1;
    }
    return k;
}

int main() {
    int i;
    int acc;
    acc = 1;
    for (i = 0; i < 400; i = i + 1) {
        acc = mix(acc, i) % 10007;
    }
    print_int(acc);
    print_int(depth(%DEPTH%));
    return 0;
}
"""

#: Thresholds the block engine runs at: on demand, and compiling every
#: offset on its first entry (so even one-shot code runs in units).
THRESHOLDS = (vm_machine.HOT_THRESHOLD, 1)

#: An address no segment maps (segments start at 0x1000 and grow up).
UNMAPPED = 0x7F00_0000


def _capture(machine, process, runtime):
    return {
        "cycles": machine.cycles,
        "exit": (process.exit_state, process.exit_code),
        "fault": (
            (process.fault.code, process.fault.pc) if process.fault else None
        ),
        "output": list(process.output),
        "threads": {
            tid: (
                thread.state, thread.pc, list(thread.regs), list(thread.tls),
                thread.instructions,
                [(f.entry_pc, f.return_pc, f.entry_sp) for f in thread.frames],
            )
            for tid, thread in process.threads.items()
        },
        "memory": {
            seg.name: list(seg.words) for seg in process.memory.segments()
        },
        "buffers": [buf.mapped.snapshot() for buf in runtime._all_buffers],
        "wraps": runtime.stats.wraps,
    }


def _run(engine, *, depth=50, config=None, stack_room=None, retarget=None):
    """Run the instrumented program; optionally start the main thread
    with only ``stack_room`` words of stack, or, once ``retarget[0]``
    cycles have run, point its trace pointer at ``retarget[1]``."""
    machine = Machine(engine=engine)
    process = machine.create_process("probe")
    runtime = TraceBackRuntime(process, config or RuntimeConfig())
    module = compile_source(SOURCE.replace("%DEPTH%", str(depth)), "probe")
    process.load_module(
        instrument_module(module, InstrumentConfig(mode="native")).module
    )
    thread = process.start()
    if stack_room is not None:
        thread.regs[12] = thread.stack.base + stack_room
    if retarget is not None:
        cycles, address = retarget
        machine.run(max_cycles=cycles)
        thread.tls[TLS_TRACE_PTR] = address
    machine.run(max_cycles=3_000_000)
    return _capture(machine, process, runtime)


def assert_probe_paths_agree(monkeypatch, **kwargs):
    reference = _run("reference", **kwargs)
    for threshold in THRESHOLDS:
        monkeypatch.setattr(vm_machine, "HOT_THRESHOLD", threshold)
        assert _run("block", **kwargs) == reference, (
            f"block (threshold {threshold}) diverged from reference"
        )
    return reference


def _every_third_fast(values):
    """Every third value in the default lane, the rest in the slow one
    (``scripts/check.sh tier3`` runs them all)."""
    return [
        pytest.param(v, marks=() if i % 3 == 0 else pytest.mark.slow)
        for i, v in enumerate(values)
    ]


def test_tiny_buffers_wrap_every_few_records(monkeypatch):
    state = assert_probe_paths_agree(
        monkeypatch,
        config=RuntimeConfig(sub_buffer_words=8, sub_buffers=2),
    )
    assert state["wraps"] > 100


def test_relocated_trace_slot(monkeypatch):
    """TLS fixups rewrite the helper's slot; the inline probe follows."""
    assert_probe_paths_agree(
        monkeypatch,
        config=RuntimeConfig(sub_buffer_words=8, trace_slot=40, spill_slot=41),
    )


@pytest.mark.parametrize("room", _every_third_fast(range(0, 12)))
def test_stack_limit_faults_in_probe_prologue(monkeypatch, room):
    """A few words of stack: the very first pushes fault, the probe's
    ``CALL`` among them."""
    state = assert_probe_paths_agree(monkeypatch, stack_room=room)
    assert state["fault"] is not None


@pytest.mark.parametrize("room", _every_third_fast(range(3000, 3012)))
def test_stack_overflow_in_deep_recursion(monkeypatch, room):
    """Deep recursion runs the stack out while the recursive unit is
    hot; the offset moves the overflow across the frame's pushes."""
    state = assert_probe_paths_agree(monkeypatch, depth=5000, stack_room=room)
    assert state["fault"] is not None


@pytest.mark.parametrize("cycles", [2_000, 10_000, 30_000])
def test_trace_pointer_into_unmapped_memory(monkeypatch, cycles):
    state = assert_probe_paths_agree(
        monkeypatch, retarget=(cycles, UNMAPPED)
    )
    assert state["fault"] is not None


@pytest.mark.parametrize("cycles", [2_000, 20_000])
def test_trace_pointer_into_read_only_code(monkeypatch, cycles):
    """``BSENT`` reads a code word fine; the record store faults."""
    state = assert_probe_paths_agree(monkeypatch, retarget=(cycles, 0x1000))
    assert state["fault"] is not None
