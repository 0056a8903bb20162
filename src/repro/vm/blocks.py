"""Tier-3 block-compiled execution engine for TBVM.

Per-instruction dispatch (:mod:`repro.vm.dispatch`) pays a Python call
and three counter increments per instruction.  This module removes
those costs the way block-translating DBI engines do: each hot
straight-line run becomes one ``exec``-compiled closure, a *unit*, with
registers in locals (loaded once, written back at the exit), the clock
and instruction counters pre-charged once, branch and jump terminators
folded in, and call, return, ``SYS`` and ``HALT`` terminators handed to
their tier-2 handler after write-back.  The heavyweight probe
``CALL helper; STDAG r`` (paper §2.1) is one superinstruction inside
the caller's unit: it runs the helper's fast path inline through a
dedicated trace-buffer cache entry and charges all :data:`PROBE_COUNT`
instructions; it leaves the unit through the real helper's wrap path
when ``BSENT`` finds the sentinel, and at the ``BSENT`` itself (which
the tier-2 handler then runs, faults included) when the record slot is
not in a readable, writable segment.

Compilation is on demand: the slice loop counts entries per code
offset and compiles the run starting at one, alone, once it has been
entered :data:`HOT_THRESHOLD` times.  Cold code runs on the tier-2
handlers and never pays ``compile()``.

Units are bit-identical to the reference interpreter
(``tests/vm/test_differential.py``, ``test_probe_differential.py``):

* a fault inside a unit writes the register locals back, sets the pc
  to ``VMFault.pc`` and un-charges the instructions that never retired
  (a per-unit table keyed by faulting pc); partial effects such as the
  sp decrement of ``PUSH`` or ``CALL`` persist, as in the reference;
* a unit runs only when the rest of the slice's budget covers it, and a
  probe exit un-charges what it did not retire, so replay's forced
  slices and breakpoint stepping land on exact instruction boundaries.
  The budget is one quantum, except for a thread alone on its machine
  and unobserved: its *lone run* spans quanta up to the first boundary
  the scheduler must stop at, so units run straight through the
  boundaries in between;
* units compile from the live decode cache, and
  ``LoadedModule.refresh_decode_cache`` drops them with their entry
  counts, so load-time code rewriting recompiles.

DESIGN.md ("Tier-3 block compilation") gives the reasoning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.isa.instructions import Instr, Op
from repro.vm.dispatch import _div, _mod
from repro.vm.errors import VMFault
from repro.vm.thread import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.loader import LoadedModule

#: A compiled unit: (instruction count, fused closure).  The closure has
#: the tier-2 handler signature ``fn(machine, thread)`` and executes the
#: whole unit, charging the instructions it retires.
BlockUnit = tuple[int, Callable]

#: Longest unit emitted, in retired instructions.  A lone run's budget
#: spans quanta, so there a unit runs wherever it starts, except within
#: this many instructions of the budget's end; a one-quantum slice
#: (threads sharing a machine, replay, a slice observer) fits at most
#: two of these (the default QUANTUM=40) and steps the tail of the
#: quantum on the tier-2 handlers.
MAX_UNIT = 20

#: Smallest unit worth compiling; a lone terminator gains nothing over
#: the tier-2 handler it would wrap.
MIN_UNIT = 2

#: Entries into a code offset before the run starting there is compiled.
#: The ski-rental rule: one ``compile()`` costs about what 250 executions
#: of a typical unit save (≈0.5 ms against ≈2 µs, 2-core x86-64 VM,
#: CPython 3.11), so compiling after this many entries never costs more
#: than twice the clairvoyant choice.  Costing the compile and
#: fallback counts of a 32..1024 sweep on the perfbench workloads with
#: these figures was flattest here.
HOT_THRESHOLD = 256

#: Unit-table entry where no unit starts: a non-fusible instruction
#: (other than ``BSENT`` and a header probe's ``CALL``) or a hot run too
#: short to be worth a unit.  Its count exceeds every slice budget
#: (``machine.NO_LIMIT`` keeps lone runs far below it), so the slice
#: loop always steps the tier-2 handler there — and, since such an
#: instruction may transfer control or change thread state, treats
#: whatever runs next as an entry.
NO_UNIT: BlockUnit = (1 << 62, None)

#: Instructions one heavyweight probe retires on the helper's fast path:
#: ``CALL``, ``TLSLD``, ``ADDI``, ``BSENT``, ``TLSST``, ``RET``, ``STDAG``.
PROBE_COUNT = 7

#: Straight-line opcodes a unit may fuse: they always fall through, read
#: no clock, and run no hooks (memory access has none).  Everything else
#: — including ``BSENT``, which can branch out mid-block — terminates
#: the unit, except the ``CALL`` of a recognised header probe.
FUSIBLE = frozenset(
    {
        Op.ADDI, Op.LDW, Op.STW, Op.MOVI, Op.MOV, Op.MOVHI,
        Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
        Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
        Op.SLT, Op.SLE, Op.SEQ, Op.SNE,
        Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI, Op.SLTI, Op.MULI,
        Op.PUSH, Op.POP, Op.NOP, Op.TLSLD, Op.TLSST,
        Op.ORM, Op.STDAG,
    }
)

#: Opcodes after which the slice loop need not re-check thread state.
_QUIET = FUSIBLE | {Op.BSENT}

#: Fused opcodes that can raise VMFault (everything touching memory or
#: dividing).  Units without any of these (or a probe) skip the
#: try/except entirely.
_FAULTABLE = frozenset(
    {Op.LDW, Op.STW, Op.PUSH, Op.POP, Op.ORM, Op.STDAG, Op.DIV, Op.MOD}
)


def _signed(expr: str) -> str:
    """An order-preserving unsigned image of the signed value: for
    32-bit ``x``, ``s32(a) < s32(b)`` iff ``(a^H) < (b^H)``."""
    return f"(({expr} & 4294967295) ^ 2147483648)"


#: Fused ops that are one assignment ``r{rd} = <expr>``, mirroring
#: :func:`repro.vm.dispatch._build_one`: ``{s}``/``{t}`` are the rs/rt
#: registers, the other fields forms of the immediate.
_EXPR = {
    Op.ADDI: "({s} + {imm}) & 4294967295",
    Op.MOVI: "{u32}",
    Op.MOV: "{s}",
    Op.MOVHI: "{hi}",
    Op.ADD: "({s} + {t}) & 4294967295",
    Op.SUB: "({s} - {t}) & 4294967295",
    Op.MUL: "({s} * {t}) & 4294967295",
    Op.DIV: "_div({s}, {t}, {pc})",
    Op.MOD: "_mod({s}, {t}, {pc})",
    Op.AND: "{s} & {t}",
    Op.OR: "{s} | {t}",
    Op.XOR: "{s} ^ {t}",
    Op.SHL: "({s} << ({t} & 31)) & 4294967295",
    Op.SHR: "({s} & 4294967295) >> ({t} & 31)",
    Op.SLT: f"1 if {_signed('{s}')} < {_signed('{t}')} else 0",
    Op.SLE: f"1 if {_signed('{s}')} <= {_signed('{t}')} else 0",
    Op.SEQ: "1 if {s} == {t} else 0",
    Op.SNE: "1 if {s} != {t} else 0",
    Op.ANDI: "{s} & {u16}",
    Op.ORI: "{s} | {u16}",
    Op.XORI: "{s} ^ {u16}",
    Op.SHLI: "({s} << {sh}) & 4294967295",
    Op.SHRI: "({s} & 4294967295) >> {sh}",
    Op.SLTI: f"1 if {_signed('{s}')} < {{slti}} else 0",
    Op.MULI: "({s} * {imm}) & 4294967295",
    Op.TLSLD: "tls[{imm}]",
}

#: Conditional branches: the taken condition over ``{d}``/``{s}``.
_COND = {
    Op.BZ: "{d} == 0",
    Op.BNZ: "{d} != 0",
    Op.BEQ: "{d} == {s}",
    Op.BNE: "{d} != {s}",
    Op.BLT: f"{_signed('{d}')} < {_signed('{s}')}",
    Op.BGE: f"{_signed('{d}')} >= {_signed('{s}')}",
}


def _trace_slot(reg: int) -> list[str]:
    """Point the trace-buffer cache entry at ``r{reg}``'s segment."""
    return [
        f"if not _tb0 <= r{reg} < _tb1:",
        f"    _tb0, _tb1, _tb2 = _mem.trace_hit(r{reg})",
    ]


def _emit_fused(instr: Instr, pc: int) -> tuple[list[str], set[int], set[int]]:
    """Source lines for one fused instruction, plus its register
    read/write sets.  Mirrors :func:`repro.vm.dispatch._build_one`
    exactly, including fault ordering (``PUSH`` moves sp before the
    store that may fault) and masking discipline.  Cache misses go
    through ``_lm``/``_sm``/``trace_hit``, which fault exactly as
    ``Memory`` does and refresh the unit's cache locals."""
    op, rd, rs, rt, imm = instr.op, instr.rd, instr.rs, instr.rt, instr.imm
    if op in _EXPR:
        template = _EXPR[op]
        expr = template.format(
            s=f"r{rs}", t=f"r{rt}", imm=imm, u32=imm & 0xFFFFFFFF,
            hi=(imm & 0xFFFF) << 16, u16=imm & 0xFFFF, sh=imm & 31,
            slti=imm + 0x80000000, pc=pc,
        )
        reads = {r for key, r in (("{s}", rs), ("{t}", rt)) if key in template}
        return [f"r{rd} = {expr}"], reads, {rd}
    if op is Op.LDW or op is Op.STW:
        lines = [f"_a = (r{rs} + {imm}) & 4294967295"]
        if op is Op.LDW:
            return lines + [
                "if _hr0 <= _a < _hr1:",
                f"    r{rd} = _hr2[_a - _hr0]",
                "else:",
                f"    r{rd}, (_hr0, _hr1, _hr2) = _lm(_mem, _a, {pc})",
            ], {rs}, {rd}
        return lines + [
            "if _hw0 <= _a < _hw1:",
            f"    _hw2[_a - _hw0] = r{rd} & 4294967295",
            "else:",
            f"    _hw0, _hw1, _hw2 = _sm(_mem, _a, r{rd}, {pc})",
        ], {rs, rd}, set()
    if op is Op.PUSH:
        return [
            "r12 = (r12 - 1) & 4294967295",
            "if _hw0 <= r12 < _hw1:",
            f"    _hw2[r12 - _hw0] = r{rd} & 4294967295",
            "else:",
            f"    _hw0, _hw1, _hw2 = _sm(_mem, r12, r{rd}, {pc})",
        ], {rd, 12}, {12}
    if op is Op.POP:
        # rd == 12 composes correctly: load into r12, then increment.
        return [
            "if _hr0 <= r12 < _hr1:",
            f"    r{rd} = _hr2[r12 - _hr0]",
            "else:",
            f"    r{rd}, (_hr0, _hr1, _hr2) = _lm(_mem, r12, {pc})",
            "r12 = (r12 + 1) & 4294967295",
        ], {12}, {rd, 12}
    if op is Op.NOP:
        return [], set(), set()
    if op is Op.TLSST:
        return [f"tls[{imm}] = r{rd}"], {rd}, set()
    if op is Op.ORM:
        # Trace words are masked and bits < 2**16, so no re-mask.
        bits = imm & 0xFFFF
        return _trace_slot(rd) + [
            f"if _tb0 <= r{rd} < _tb1:",
            f"    _tb2[r{rd} - _tb0] |= {bits}",
            "else:",
            f"    _mem.or_word(r{rd}, {bits}, {pc})",
        ], {rd}, set()
    if op is Op.STDAG:
        header = 0x80000000 | ((imm & 0xFFFFF) << 11)
        return _trace_slot(rd) + [
            f"if _tb0 <= r{rd} < _tb1:",
            f"    _tb2[r{rd} - _tb0] = {header}",
            "else:",
            f"    _mem.store(r{rd}, {header}, {pc})",
        ], {rd}, set()
    raise AssertionError(f"non-fusible op {op!r} in fused run")


def match_header_probe(
    decoded: list[Instr], offset: int
) -> tuple[int, int, int] | None:
    """``(helper offset, probe register, TLS slot)`` when the code at
    ``offset`` is a heavyweight probe: ``CALL helper; STDAG r`` whose
    callee has the helper's shape (``TLSLD r, s; ADDI r, r, 1;
    BSENT r; TLSST r, s; RET``, see
    :func:`repro.instrument.probes.helper_body`).  Matching the shape
    rather than a symbol keeps the rule purely semantic: any code of
    this form behaves as the inline superinstruction does."""
    limit = len(decoded)
    call = decoded[offset]
    if call.op is not Op.CALL or offset + 1 >= limit:
        return None
    store = decoded[offset + 1]
    helper = offset + 1 + call.imm
    if store.op is not Op.STDAG or not 0 <= helper <= limit - 5:
        return None
    load, bump, check, commit, ret = decoded[helper:helper + 5]
    reg, slot = load.rd, load.imm
    if (
        reg == 12
        or store.rd != reg
        or load.op is not Op.TLSLD
        or bump.op is not Op.ADDI
        or (bump.rd, bump.rs, bump.imm) != (reg, reg, 1)
        or check.op is not Op.BSENT
        or check.rd != reg
        or commit.op is not Op.TLSST
        or (commit.rd, commit.imm) != (reg, slot)
        or ret.op is not Op.RET
    ):
        return None
    return helper, reg, slot


def _emit_probe(
    pc: int, header: int, helper_pc: int, wrap_pc: int, reg: int,
    slot: int, writeback: str, charged: int,
) -> list[str]:
    """Source lines for the header-probe superinstruction at ``pc``.

    The fast path is exactly the 7-instruction sequence: the ``CALL``
    pushes the return address (sp moves first, so a faulting store
    leaves it moved, as in the reference), the helper bumps and commits
    the trace pointer, ``RET`` pops the pushed word back (no segment is
    writable but unreadable, so that load cannot fault) and ``STDAG``
    writes the record.  The shadow frame the ``CALL`` pushes and ``RET``
    pops nets out.  The two exits leave the unit inside the helper:
    ``writeback`` stores every register local (sp as pushed), and
    ``charged`` is what the unit charged from this probe on."""

    def leave(to_pc: int, retired: int) -> list[str]:
        return [
            writeback,
            f"return _leave(machine, thread, _sp, {helper_pc}, {pc + 1}, "
            f"{to_pc}, {charged - retired})",
        ]

    return [
        "_sp = (r12 - 1) & 4294967295",
        "if _hw0 <= _sp < _hw1:",
        f"    _hw2[_sp - _hw0] = {pc + 1}",
        "else:",
        "    _t, r12 = r12, _sp",
        f"    _hw0, _hw1, _hw2 = _sm(_mem, _sp, {pc + 1}, {pc})",
        "    r12 = _t",
        f"r{reg} = (tls[{slot}] + 1) & 4294967295",
        *_trace_slot(reg),
        f"    if not _tb0 <= r{reg} < _tb1:",
        *(f"        {line}" for line in leave(helper_pc + 2, 3)),
        f"_a = r{reg} - _tb0",
        "if _tb2[_a] == 4294967295:",
        *(f"    {line}" for line in leave(wrap_pc, 4)),
        f"tls[{slot}] = r{reg}",
        f"_tb2[_a] = {header}",
    ]


def _emit_terminator(instr: Instr, pc: int) -> tuple[list[str], set[int]] | None:
    """Source lines for an inline terminator and its register reads;
    ``None`` when the terminator runs through its tier-2 handler."""
    op, rd, rs, imm = instr.op, instr.rd, instr.rs, instr.imm
    nxt = pc + 1
    if op in _COND:
        cond = _COND[op].format(d=f"r{rd}", s=f"r{rs}")
        reads = {rd, rs} if "{s}" in _COND[op] else {rd}
        return [f"thread.pc = {nxt + imm} if {cond} else {nxt}"], reads
    if op is Op.BR:
        return [f"thread.pc = {nxt + imm}"], set()
    if op is Op.JMP:
        return [f"thread.pc = r{rd}"], {rd}
    # The rest may fault: thread.pc points at the terminator first, and
    # the unit is fully charged (it is the last instruction), so the
    # raise propagates with no rollback.
    if op is Op.JTAB:
        return [
            f"thread.pc = {pc}",
            f"thread.pc = _mem.load((r{rs} + r{rd}) & 4294967295, {pc})",
        ], {rd, rs}
    if op is Op.BSENT:
        return [
            f"thread.pc = {pc}",
            f"thread.pc = {nxt + imm} "
            f"if _mem.load(r{rd}, {pc}) == 4294967295 else {nxt}",
        ], {rd}
    if op is Op.THROW:
        return [f"thread.pc = {pc}", f"raise _F(r{rd}, {pc}, 'THROW')"], {rd}
    return None


def _rollback(machine, thread, pc: int, undo: int) -> None:
    """Stop a unit at ``pc``, un-charging the ``undo`` instructions it
    charged up front but did not retire."""
    thread.pc = pc
    machine.cycles -= undo
    thread.process.cycles_used -= undo
    thread.instructions -= undo


def _leave(machine, thread, sp: int, entry_pc: int, return_pc: int,
           pc: int, undo: int) -> None:
    """A probe exit: the unit stops inside the helper at ``pc``, so the
    helper's shadow frame is pushed, as its ``CALL`` would have."""
    thread.frames.append(Frame(entry_pc=entry_pc, return_pc=return_pc,
                               entry_sp=sp))
    _rollback(machine, thread, pc, undo)


def _load_miss(memory, addr: int, pc: int) -> tuple[int, tuple]:
    """``Memory.load`` for a read-cache miss, plus the refreshed entry."""
    return memory.load(addr, pc), memory._read_hit


def _store_miss(memory, addr: int, value: int, pc: int) -> tuple:
    """``Memory.store`` for a write-cache miss; the refreshed entry."""
    memory.store(addr, value, pc)
    return memory._write_hit


#: The one globals namespace of every compiled unit.  Everything
#: specific to a unit is a constant in its code or a default argument,
#: so units cost no per-unit dict.
_UNIT_GLOBALS: dict = {
    "_div": _div,
    "_mod": _mod,
    "_F": VMFault,
    "_lm": _load_miss,
    "_sm": _store_miss,
    "_leave": _leave,
    "_rollback": _rollback,
}


def _assign(targets: list[str], values: list[str]) -> str:
    """One (tuple) assignment statement."""
    return f"{', '.join(targets)} = {', '.join(values)}"


def unit_table(decoded: list[Instr]) -> list[BlockUnit | None]:
    """A fresh unit table for a decode cache: ``NO_UNIT`` at every
    offset where no unit can start, ``None`` (not compiled yet)
    elsewhere.  The helper's ``BSENT`` stays ``None``: it changes no
    thread state, and what follows it is no entry worth counting."""
    return [
        None
        if instr.op in _QUIET or match_header_probe(decoded, offset)
        else NO_UNIT
        for offset, instr in enumerate(decoded)
    ]


def compile_unit(loaded: "LoadedModule", offset: int) -> BlockUnit:
    """Compile the straight-line run starting at module-relative code
    ``offset`` to one fused closure.

    The run extends over fusible instructions and header probes until a
    terminator (included) or :data:`MAX_UNIT` retired instructions.
    Instruction semantics come from the *live* decode cache, so
    load-time code rewriting is honoured.  Returns :data:`NO_UNIT` when
    the run is too short to be worth a unit.
    """
    decoded = loaded.decoded
    code_base = loaded.code_base
    # Scan: (pc, fused lines or probe match, instructions before it).
    items: list[tuple[int, list[str] | tuple[int, int, int], int]] = []
    faults: list[tuple[int, int]] = []  # (pc, instructions through it)
    reads: set[int] = set()
    writes: set[int] = set()
    count = 0
    scan = offset
    term: Instr | None = None
    while scan < len(decoded) and count < MAX_UNIT:
        instr = decoded[scan]
        pc = code_base + scan
        probe = match_header_probe(decoded, scan)
        if probe is not None:
            if count + PROBE_COUNT > MAX_UNIT:
                break
            item, r, w, step = probe, {12}, {12, probe[1]}, PROBE_COUNT
        elif instr.op in FUSIBLE:
            (item, r, w), step = _emit_fused(instr, pc), 1
        else:
            term = instr
            break
        if probe is not None or instr.op in _FAULTABLE:
            faults.append((pc, count + 1))
        items.append((pc, item, count))
        # Registers first read after being written stay pure locals.
        reads |= r - writes
        writes |= w
        count += step
        scan += 2 if probe is not None else 1
    count += term is not None
    if loaded.memory is None or count < MIN_UNIT:
        return NO_UNIT

    order = sorted(writes)
    targets = [f"regs[{r}]" for r in order]
    writeback = _assign(targets, [f"r{r}" for r in order])
    probe_writeback = _assign(
        targets, ["_sp" if r == 12 else f"r{r}" for r in order]
    )
    body: list[str] = []
    for pc, item, before in items:
        if isinstance(item, list):
            body.extend(item)
            continue
        helper, reg, slot = item
        off = pc - code_base
        body.extend(_emit_probe(
            pc,
            0x80000000 | ((decoded[off + 1].imm & 0xFFFFF) << 11),
            code_base + helper,
            code_base + helper + 3 + decoded[helper + 2].imm,
            reg, slot, probe_writeback, count - before,
        ))
    #: Faulting pc -> instructions charged but never retired.
    rollback = {pc: count - done for pc, done in faults}

    # No terminator: fall through to the next pc.  A handler one: set
    # the pc to it and call its tier-2 handler.
    term_lines = [f"thread.pc = {code_base + scan}"]
    handler = None
    if term is not None:
        inline = _emit_terminator(term, code_base + scan)
        if inline is not None:
            term_lines, term_reads = inline
            reads |= term_reads - writes
        else:
            handler = loaded.handlers[scan]
            term_lines.append("_h(machine, thread)")

    touched = sorted(reads | writes)
    # Unit-specific objects ride as default arguments (fast locals).
    src = [
        "def _unit(machine, thread, _h=None, _undo=None):",
        "    process = thread.process",
    ]
    if any("_mem" in line for line in body + term_lines):
        src.append("    _mem = process.memory")
    if touched:
        src.append("    regs = thread.regs")
        src.append("    " + _assign([f"r{r}" for r in touched],
                                    [f"regs[{r}]" for r in touched]))
    if any("tls[" in line for line in body):
        src.append("    tls = thread.tls")
    # The segment caches stay valid for the whole unit: no host call
    # (hence no map/unmap) can happen mid-unit, so fetch them once.
    for local, attr in (("_hr", "_read_hit"), ("_hw", "_write_hit"),
                        ("_tb", "_trace_hit")):
        if any(local in line for line in body):
            src.append(f"    {local}0, {local}1, {local}2 = _mem.{attr}")
    src += [
        f"    machine.cycles += {count}",
        f"    process.cycles_used += {count}",
        f"    thread.instructions += {count}",
    ]
    if rollback:
        src.append("    try:")
        src.extend(f"        {line}" for line in body)
        src.append("    except _F as e:")
        if writes:
            src.append(f"        {writeback}")
        src.append("        _rollback(machine, thread, e.pc, _undo[e.pc])")
        src.append("        raise")
    else:
        src.extend(f"    {line}" for line in body)
    if writes:
        src.append(f"    {writeback}")
    src.extend(f"    {line}" for line in term_lines)
    namespace: dict = {}
    exec(
        compile("\n".join(src), f"<unit:{loaded.module.name}+{offset}>", "exec"),
        _UNIT_GLOBALS,
        namespace,
    )
    unit = namespace["_unit"]
    unit.__defaults__ = (handler, rollback or None)
    return count, unit
