"""Predecoded per-instruction handlers for TBVM (tier 2).

The reference interpreter (:meth:`repro.vm.machine.Machine.step`) walks a
~30-arm ``if/elif`` chain on every instruction.  That cost dominates
instrumented execution — the classic dynamic-binary-instrumentation
dispatch problem — and it is pure overhead: for a given loaded module
the opcode, operand fields, branch targets, and import bindings of each
instruction never change.

This module lowers each decoded :class:`~repro.isa.instructions.Instr`
to a *closure-bound handler* at load time.  A handler is a plain
function ``handler(machine, thread)`` with everything that is constant
for its code address pre-bound as closure cells:

* operand register indexes and immediates,
* the instruction's absolute ``pc``, its fall-through ``pc + 1``, and
  (for branches/calls) the absolute taken target,
* the process :class:`~repro.vm.memory.Memory` and its bound
  ``load``/``store`` methods,
* the folded ALU lambda for table-dispatched ALU ops, and
* the module's import-binding list for ``CALLX``.

The production hot loop (:meth:`Machine._run_slice_block`) runs cold
code as fetch-handler / call with no per-step ``Op`` comparison cascade,
and the compiled units of :mod:`repro.vm.blocks` end in these handlers
for calls, returns, ``SYS`` and ``HALT``.

Handlers and the reference interpreter must be *bit-identical*: same
architectural state, same cycle counts, same fault PCs, same
trace-buffer contents.  Every handler below mirrors the corresponding
``_exec`` arm exactly — including
side-effect ordering on the faulting paths (e.g. ``PUSH`` decrements
``sp`` before the store that may fault) — and the differential suite in
``tests/vm/test_differential.py`` enforces the equivalence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.isa.instructions import Instr, Op
from repro.vm.errors import ExcCode, VMFault
from repro.vm.thread import SIGRET_RA, TRAMPOLINE_RA, Frame, Thread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.machine import Machine
    from repro.vm.memory import Memory

WORD_MASK = 0xFFFFFFFF

#: Cycles charged for a host-function CALLX when the host fn returns None.
HOST_CALL_COST = 25

#: A predecoded instruction handler: executes one instruction, updating
#: ``thread.pc`` itself (the interpreter loop never advances the pc).
Handler = Callable[["Machine", Thread], None]


def _s32(value: int) -> int:
    """Interpret a 32-bit word as signed."""
    value &= WORD_MASK
    return value - (1 << 32) if value >= (1 << 31) else value


# ----------------------------------------------------------------------
# ALU / branch dispatch tables (shared with the reference interpreter)
# ----------------------------------------------------------------------
def _div(a: int, b: int, pc: int) -> int:
    if b == 0:
        raise VMFault(ExcCode.DIVIDE_BY_ZERO, pc, "DIV")
    q = abs(_s32(a)) // abs(_s32(b))
    if (_s32(a) < 0) != (_s32(b) < 0):
        q = -q
    return q & WORD_MASK


def _mod(a: int, b: int, pc: int) -> int:
    if b == 0:
        raise VMFault(ExcCode.DIVIDE_BY_ZERO, pc, "MOD")
    sa = _s32(a)
    r = abs(sa) % abs(_s32(b))
    return (-r if sa < 0 else r) & WORD_MASK


ALU_R = {
    Op.ADD: lambda a, b, pc: (a + b) & WORD_MASK,
    Op.SUB: lambda a, b, pc: (a - b) & WORD_MASK,
    Op.MUL: lambda a, b, pc: (a * b) & WORD_MASK,
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.AND: lambda a, b, pc: a & b,
    Op.OR: lambda a, b, pc: a | b,
    Op.XOR: lambda a, b, pc: a ^ b,
    Op.SHL: lambda a, b, pc: (a << (b & 31)) & WORD_MASK,
    Op.SHR: lambda a, b, pc: (a & WORD_MASK) >> (b & 31),
    Op.SLT: lambda a, b, pc: 1 if _s32(a) < _s32(b) else 0,
    Op.SLE: lambda a, b, pc: 1 if _s32(a) <= _s32(b) else 0,
    Op.SEQ: lambda a, b, pc: 1 if a == b else 0,
    Op.SNE: lambda a, b, pc: 1 if a != b else 0,
}

ALU_I = {
    Op.ANDI: lambda a, imm: a & (imm & 0xFFFF),
    Op.ORI: lambda a, imm: a | (imm & 0xFFFF),
    Op.XORI: lambda a, imm: a ^ (imm & 0xFFFF),
    Op.SHLI: lambda a, imm: (a << (imm & 31)) & WORD_MASK,
    Op.SHRI: lambda a, imm: (a & WORD_MASK) >> (imm & 31),
    Op.SLTI: lambda a, imm: 1 if _s32(a) < imm else 0,
    Op.MULI: lambda a, imm: (a * imm) & WORD_MASK,
}

BRANCH = {
    Op.BZ: lambda a, b: a == 0,
    Op.BNZ: lambda a, b: a != 0,
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: _s32(a) < _s32(b),
    Op.BGE: lambda a, b: _s32(a) >= _s32(b),
}


def build_handlers(loaded, memory: "Memory") -> list[Handler]:
    """Lower a loaded module's decode cache to one handler per word.

    Called from :meth:`LoadedModule.refresh_decode_cache` — after import
    binding and after the load hooks have rewritten code (DAG rebasing,
    TLS fixups), so the closures capture the final form.
    """
    base = loaded.code_base
    bindings = loaded.import_bindings
    return [
        _build_one(instr, base + i, memory, bindings)
        for i, instr in enumerate(loaded.decoded)
    ]


def _build_one(
    instr: Instr, pc: int, mem: "Memory", bindings: list
) -> Handler:
    op = instr.op
    rd = instr.rd
    rs = instr.rs
    rt = instr.rt
    imm = instr.imm
    nxt = pc + 1
    load = mem.load
    store = mem.store

    if op is Op.ADDI:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = (regs[rs] + imm) & WORD_MASK
            thread.pc = nxt

    elif op is Op.LDW:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = load((regs[rs] + imm) & WORD_MASK, pc)
            thread.pc = nxt

    elif op is Op.STW:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            store((regs[rs] + imm) & WORD_MASK, regs[rd], pc)
            thread.pc = nxt

    elif op is Op.MOVI:
        value = imm & WORD_MASK

        def h(machine: "Machine", thread: Thread) -> None:
            thread.regs[rd] = value
            thread.pc = nxt

    elif op is Op.MOV:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = regs[rs]
            thread.pc = nxt

    elif op is Op.MOVHI:
        value = (imm & 0xFFFF) << 16

        def h(machine: "Machine", thread: Thread) -> None:
            thread.regs[rd] = value
            thread.pc = nxt

    elif op is Op.ADD:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = (regs[rs] + regs[rt]) & WORD_MASK
            thread.pc = nxt

    elif op is Op.SUB:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = (regs[rs] - regs[rt]) & WORD_MASK
            thread.pc = nxt

    elif op in ALU_R:
        fn = ALU_R[op]

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = fn(regs[rs], regs[rt], pc)
            thread.pc = nxt

    elif op in ALU_I:
        fn_i = ALU_I[op]

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = fn_i(regs[rs], imm)
            thread.pc = nxt

    elif op is Op.PUSH:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            sp = (regs[12] - 1) & WORD_MASK
            regs[12] = sp
            store(sp, regs[rd], pc)
            thread.pc = nxt

    elif op is Op.POP:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            regs[rd] = load(regs[12], pc)
            regs[12] = (regs[12] + 1) & WORD_MASK
            thread.pc = nxt

    elif op is Op.BR:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            thread.pc = target

    elif op is Op.BZ:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            thread.pc = target if thread.regs[rd] == 0 else nxt

    elif op is Op.BNZ:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            thread.pc = target if thread.regs[rd] != 0 else nxt

    elif op is Op.BEQ:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            thread.pc = target if regs[rd] == regs[rs] else nxt

    elif op is Op.BNE:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            thread.pc = target if regs[rd] != regs[rs] else nxt

    elif op is Op.BLT:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            thread.pc = target if _s32(regs[rd]) < _s32(regs[rs]) else nxt

    elif op is Op.BGE:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            thread.pc = target if _s32(regs[rd]) >= _s32(regs[rs]) else nxt

    elif op is Op.JMP:

        def h(machine: "Machine", thread: Thread) -> None:
            thread.pc = thread.regs[rd]

    elif op is Op.JTAB:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            thread.pc = load((regs[rs] + regs[rd]) & WORD_MASK, pc)

    elif op is Op.CALL:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            sp = (regs[12] - 1) & WORD_MASK
            regs[12] = sp
            store(sp, nxt, pc)
            thread.frames.append(
                Frame(entry_pc=target, return_pc=nxt, entry_sp=sp)
            )
            thread.pc = target

    elif op is Op.CALLR:

        def h(machine: "Machine", thread: Thread) -> None:
            machine._do_call(thread, mem, thread.regs[rd], pc)

    elif op is Op.CALLX:

        def h(machine: "Machine", thread: Thread) -> None:
            binding = bindings[imm]
            if callable(binding):
                cost = binding(thread)
                machine.cycles += cost if cost is not None else HOST_CALL_COST
                thread.pc = nxt
            else:
                machine._do_call(thread, mem, binding, pc)

    elif op is Op.RET:

        def h(machine: "Machine", thread: Thread) -> None:
            regs = thread.regs
            ra = load(regs[12], pc)
            regs[12] = (regs[12] + 1) & WORD_MASK
            if thread.frames:
                thread.frames.pop()
            if ra == TRAMPOLINE_RA:
                thread.process.thread_finished(thread, regs[0])
                return
            if ra == SIGRET_RA:
                signum = getattr(thread, "current_signum", 0)
                thread.process.hooks.signal_return(thread, signum)
                assert thread.interrupted_pc is not None
                thread.pc = thread.interrupted_pc
                thread.interrupted_pc = None
                return
            thread.pc = ra

    elif op is Op.SYS:

        def h(machine: "Machine", thread: Thread) -> None:
            machine._syscall(thread, thread.process, imm)
            if thread.pc == pc and thread.runnable():
                thread.pc = nxt  # pragma: no cover - no syscall leaves pc

    elif op is Op.THROW:

        def h(machine: "Machine", thread: Thread) -> None:
            raise VMFault(thread.regs[rd], pc, "THROW")

    elif op is Op.HALT:

        def h(machine: "Machine", thread: Thread) -> None:
            thread.process.exit_normally(thread.regs[0])

    elif op is Op.NOP:

        def h(machine: "Machine", thread: Thread) -> None:
            thread.pc = nxt

    elif op is Op.TLSLD:

        def h(machine: "Machine", thread: Thread) -> None:
            thread.regs[rd] = thread.tls[imm]
            thread.pc = nxt

    elif op is Op.TLSST:

        def h(machine: "Machine", thread: Thread) -> None:
            thread.tls[imm] = thread.regs[rd]
            thread.pc = nxt

    # The probe ops go through the trace-buffer entry first, as in
    # compiled units (repro.vm.blocks), so trace records never evict
    # the stack or data from the read/write entries; anything outside
    # a readable, writable segment takes the Memory path and faults
    # there.
    elif op is Op.ORM:
        # Trace words are masked and bits < 2**16, so no re-mask.
        bits = imm & 0xFFFF

        def h(machine: "Machine", thread: Thread) -> None:
            addr = thread.regs[rd]
            base, end, words = mem._trace_hit
            if not base <= addr < end:
                base, end, words = mem.trace_hit(addr)
            if base <= addr < end:
                words[addr - base] |= bits
            else:
                mem.or_word(addr, bits, pc)
            thread.pc = nxt

    elif op is Op.STDAG:
        header = 0x80000000 | ((imm & 0xFFFFF) << 11)

        def h(machine: "Machine", thread: Thread) -> None:
            addr = thread.regs[rd]
            base, end, words = mem._trace_hit
            if not base <= addr < end:
                base, end, words = mem.trace_hit(addr)
            if base <= addr < end:
                words[addr - base] = header
            else:
                mem.store(addr, header, pc)
            thread.pc = nxt

    elif op is Op.BSENT:
        target = nxt + imm

        def h(machine: "Machine", thread: Thread) -> None:
            addr = thread.regs[rd]
            base, end, words = mem._trace_hit
            if not base <= addr < end:
                base, end, words = mem.trace_hit(addr)
            if base <= addr < end:
                word = words[addr - base]
            else:
                word = mem.load(addr, pc)
            thread.pc = target if word == 0xFFFFFFFF else nxt

    else:  # pragma: no cover - every opcode is handled above

        def h(machine: "Machine", thread: Thread) -> None:
            raise VMFault(ExcCode.ILLEGAL_INSTRUCTION, pc, f"{op.name}")

    return h
