"""Two-pass textual assembler for TBVM.

The assembler turns ``.tbs`` assembly text into a :class:`~repro.isa.module.Module`.
It exists for three reasons: the MiniC compiler targets it, hand-written
test programs use it, and it keeps the binary format honest — everything
the instrumenter consumes went through a real encode step.

Syntax
------
One statement per line; ``;`` or ``#`` starts a comment.  Directives::

    .module NAME              module name
    .entry SYMBOL             entry-point symbol
    .import NAME              append NAME to the import table
    .export NAME              mark NAME as externally visible
    .func NAME / .endfunc     function extent (debug + handler scoping)
    .handler Lstart Lend Lcatch [code]
                              exception handler range for current .func
    .line FILE LINENO         attribute following code to a source line
    .code / .data / .rodata   switch sections
    .word V ...               emit literal words (data sections)
    .addr SYM ...             emit words relocated to symbol addresses
    .space N                  emit N zero words
    .str "TEXT"               emit one char code per word, NUL-terminated

Instructions use the mnemonics from :class:`repro.isa.instructions.Op`
(case-insensitive) with comma-separated operands.  Branch/call targets
are labels or literal offsets.  ``callx NAME`` takes an import name.
Pseudo-instructions::

    la  rd, SYMBOL            movhi+ori with HI16/LO16 relocations
    li  rd, VALUE             movi, or movhi+ori for wide values

Label definitions are ``NAME:`` at the start of a line and may share the
line with an instruction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.isa.encoding import encode
from repro.isa.instructions import (
    FORMATS,
    IMM16_MAX,
    IMM16_MIN,
    Fmt,
    Instr,
    Op,
    parse_reg,
)
from repro.isa.module import FuncInfo, HandlerRange, LineEntry, Module, Reloc

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_MNEMONICS = {op.name.lower(): op for op in Op}


class AsmError(ValueError):
    """Assembly failure, annotated with the source line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class _Item:
    """One assembled item: an instruction (possibly pending label fixup)
    or a raw word."""

    offset: int
    lineno: int
    instr: Instr | None = None
    word: int | None = None
    target: str | None = None  # label for pc-relative fixup
    import_name: str | None = None  # for CALLX


@dataclass
class _Section:
    words: list[int] = field(default_factory=list)


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AsmError(f"bad integer {text!r}", lineno) from None


def _split_operands(rest: str) -> list[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


class Assembler:
    """Assembles one module.  Use :func:`assemble` for the one-shot API."""

    def __init__(self) -> None:
        self.module = Module(name="anonymous")
        self._section = "code"
        self._items: list[_Item] = []
        self._data: dict[str, _Section] = {"data": _Section(), "rodata": _Section()}
        self._data_relocs: list[Reloc] = []
        self._symbols: dict[str, tuple[str, int]] = {}
        #: ``.export`` names in declaration order (a dict, not a set, so
        #: ``Module.exports`` does not follow the string-hash seed).
        self._exports: dict[str, None] = {}
        self._current_func: tuple[str, int] | None = None
        self._pending_handlers: list[tuple[str, str, str, int | None, int]] = []
        self._func_handler_counts: dict[str, int] = {}
        self._func_frames: dict[str, int] = {}
        self._lines: list[LineEntry] = []
        self._code_len = 0

    # ------------------------------------------------------------------
    def assemble(self, text: str) -> Module:
        """Assemble ``text`` and return the finished module."""
        for lineno, raw in enumerate(text.splitlines(), start=1):
            self._line(raw, lineno)
        if self._current_func is not None:
            self._end_func()
        return self._finish()

    # ------------------------------------------------------------------
    def _line(self, raw: str, lineno: int) -> None:
        line = raw.split(";", 1)[0].split("#", 1)[0].strip()
        if not line:
            return
        match = _LABEL_RE.match(line)
        if match and not line.startswith("."):
            self._define_label(match.group(1), lineno)
            line = match.group(2).strip()
            if not line:
                return
        if line.startswith("."):
            self._directive(line, lineno)
        else:
            self._instruction(line, lineno)

    def _define_label(self, name: str, lineno: int) -> None:
        if name in self._symbols:
            raise AsmError(f"duplicate label {name!r}", lineno)
        if self._section == "code":
            self._symbols[name] = ("code", self._code_len)
        else:
            self._symbols[name] = (self._section, len(self._data[self._section].words))

    # ------------------------------------------------------------------
    def _directive(self, line: str, lineno: int) -> None:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".module":
            self.module.name = rest.strip()
        elif name == ".entry":
            self.module.entry = rest.strip()
        elif name == ".import":
            symbol = rest.strip()
            if symbol not in self.module.imports:
                self.module.imports.append(symbol)
        elif name == ".export":
            self._exports[rest.strip()] = None
        elif name in (".code", ".text"):
            self._section = "code"
        elif name == ".data":
            self._section = "data"
        elif name == ".rodata":
            self._section = "rodata"
        elif name == ".func":
            if self._current_func is not None:
                self._end_func()
            func_name = rest.strip()
            self._current_func = (func_name, self._code_len)
            self._define_label(func_name, lineno)
        elif name == ".endfunc":
            if self._current_func is None:
                raise AsmError(".endfunc without .func", lineno)
            self._end_func()
        elif name == ".frame":
            if self._current_func is None:
                raise AsmError(".frame outside .func", lineno)
            self._func_frames[self._current_func[0]] = _parse_int(rest, lineno)
        elif name == ".handler":
            if self._current_func is None:
                raise AsmError(".handler outside .func", lineno)
            fields = rest.split()
            if len(fields) not in (3, 4):
                raise AsmError(".handler wants: start end catch [code]", lineno)
            code = _parse_int(fields[3], lineno) if len(fields) == 4 else None
            self._pending_handlers.append(
                (fields[0], fields[1], fields[2], code, lineno)
            )
            self._func_handler_counts[self._current_func[0]] = (
                self._func_handler_counts.get(self._current_func[0], 0) + 1
            )
        elif name == ".line":
            fields = rest.split()
            if len(fields) != 2:
                raise AsmError(".line wants: FILE LINENO", lineno)
            entry = LineEntry(self._code_len, fields[0], _parse_int(fields[1], lineno))
            if self._lines and self._lines[-1].start == self._code_len:
                self._lines[-1] = entry
            else:
                self._lines.append(entry)
        elif name == ".word":
            self._need_data(lineno)
            for tok in rest.split():
                self._data[self._section].words.append(
                    _parse_int(tok, lineno) & 0xFFFFFFFF
                )
        elif name == ".addr":
            self._need_data(lineno)
            for tok in rest.split():
                section = self._data[self._section]
                self._data_relocs.append(
                    Reloc(self._section, len(section.words), "word", tok)
                )
                section.words.append(0)
        elif name == ".space":
            self._need_data(lineno)
            self._data[self._section].words.extend([0] * _parse_int(rest, lineno))
        elif name == ".str":
            self._need_data(lineno)
            text = rest.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AsmError('.str wants a double-quoted string', lineno)
            body = text[1:-1].encode().decode("unicode_escape")
            words = [ord(ch) for ch in body] + [0]
            self._data[self._section].words.extend(words)
        else:
            raise AsmError(f"unknown directive {name}", lineno)

    def _need_data(self, lineno: int) -> None:
        if self._section == "code":
            raise AsmError("data directive in .code section", lineno)

    def _end_func(self) -> None:
        name, start = self._current_func  # type: ignore[misc]
        self.module.funcs.append(
            FuncInfo(
                name=name,
                start=start,
                end=self._code_len,
                frame_size=self._func_frames.get(name, 0),
            )
        )
        self._current_func = None

    # ------------------------------------------------------------------
    def _instruction(self, line: str, lineno: int) -> None:
        if self._section != "code":
            raise AsmError("instruction outside .code section", lineno)
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        operands = _split_operands(rest)

        if mnem == "la":
            self._pseudo_la(operands, lineno)
            return
        if mnem == "li":
            self._pseudo_li(operands, lineno)
            return
        op = _MNEMONICS.get(mnem)
        if op is None:
            raise AsmError(f"unknown mnemonic {mnem!r}", lineno)
        self._emit_op(op, operands, lineno)

    def _pseudo_la(self, operands: list[str], lineno: int) -> None:
        if len(operands) != 2:
            raise AsmError("la wants: rd, symbol", lineno)
        rd = parse_reg(operands[0])
        symbol = operands[1]
        self.module.relocs.append(Reloc("code", self._code_len, "hi16", symbol))
        self._emit(Instr(Op.MOVHI, rd=rd, imm=0), lineno)
        self.module.relocs.append(Reloc("code", self._code_len, "lo16", symbol))
        self._emit(Instr(Op.ORI, rd=rd, rs=rd, imm=0), lineno)

    def _pseudo_li(self, operands: list[str], lineno: int) -> None:
        if len(operands) != 2:
            raise AsmError("li wants: rd, value", lineno)
        rd = parse_reg(operands[0])
        value = _parse_int(operands[1], lineno)
        if IMM16_MIN <= value <= IMM16_MAX:
            self._emit(Instr(Op.MOVI, rd=rd, imm=value), lineno)
        else:
            value &= 0xFFFFFFFF
            self._emit(Instr(Op.MOVHI, rd=rd, imm=(value >> 16) & 0xFFFF), lineno)
            low = value & 0xFFFF
            if low:
                self._emit(Instr(Op.ORI, rd=rd, rs=rd, imm=low), lineno)

    def _emit_op(self, op: Op, operands: list[str], lineno: int) -> None:
        fmt = FORMATS[op]
        want = {
            Fmt.R3: 3, Fmt.R2: 2, Fmt.R1: 1, Fmt.RI: 2, Fmt.RRI: 3,
            Fmt.I16: 1, Fmt.RI20: 2, Fmt.RB: 2, Fmt.RRB: 3, Fmt.NONE: 0,
        }[fmt]
        if len(operands) != want:
            raise AsmError(f"{op.name} wants {want} operands", lineno)

        target: str | None = None
        import_name: str | None = None
        instr: Instr
        if fmt is Fmt.R3:
            instr = Instr(op, rd=parse_reg(operands[0]), rs=parse_reg(operands[1]),
                          rt=parse_reg(operands[2]))
        elif fmt is Fmt.R2:
            instr = Instr(op, rd=parse_reg(operands[0]), rs=parse_reg(operands[1]))
        elif fmt is Fmt.R1:
            instr = Instr(op, rd=parse_reg(operands[0]))
        elif fmt is Fmt.NONE:
            instr = Instr(op)
        elif fmt in (Fmt.RI, Fmt.RI20):
            rd = parse_reg(operands[0])
            instr = Instr(op, rd=rd, imm=_parse_int(operands[1], lineno))
        elif fmt is Fmt.RRI:
            instr = Instr(op, rd=parse_reg(operands[0]), rs=parse_reg(operands[1]),
                          imm=_parse_int(operands[2], lineno))
        elif fmt is Fmt.I16:
            if op is Op.CALLX:
                try:
                    # Raw import index (disassembler output round trip).
                    instr = Instr(op, imm=int(operands[0], 0))
                except ValueError:
                    import_name = operands[0]
                    instr = Instr(op, imm=0)
            else:
                instr, target = self._branch_imm(op, operands[0], lineno)
        elif fmt is Fmt.RB:
            rd = parse_reg(operands[0])
            base, target = self._branch_imm(op, operands[1], lineno)
            instr = Instr(op, rd=rd, imm=base.imm)
        else:  # Fmt.RRB
            rd = parse_reg(operands[0])
            rs = parse_reg(operands[1])
            base, target = self._branch_imm(op, operands[2], lineno)
            instr = Instr(op, rd=rd, rs=rs, imm=base.imm)
        self._emit(instr, lineno, target=target, import_name=import_name)

    def _branch_imm(self, op: Op, text: str, lineno: int) -> tuple[Instr, str | None]:
        """Parse a branch/call target: numeric offset or label reference."""
        try:
            return Instr(op, imm=int(text, 0)), None
        except ValueError:
            return Instr(op, imm=0), text

    def _emit(
        self,
        instr: Instr,
        lineno: int,
        target: str | None = None,
        import_name: str | None = None,
    ) -> None:
        self._items.append(
            _Item(
                offset=self._code_len,
                lineno=lineno,
                instr=instr,
                target=target,
                import_name=import_name,
            )
        )
        self._code_len += 1

    # ------------------------------------------------------------------
    def _finish(self) -> Module:
        module = self.module
        module.symbols = dict(self._symbols)
        module.lines = list(self._lines)
        module.relocs.extend(self._data_relocs)
        module.data = self._data["data"].words
        module.rodata = self._data["rodata"].words

        for item in self._items:
            instr = item.instr
            assert instr is not None
            if item.import_name is not None:
                if item.import_name not in module.imports:
                    raise AsmError(
                        f"callx of undeclared import {item.import_name!r}; "
                        "add a .import line",
                        item.lineno,
                    )
                instr = instr.with_imm(module.imports.index(item.import_name))
            elif item.target is not None:
                if item.target not in self._symbols:
                    raise AsmError(f"undefined label {item.target!r}", item.lineno)
                section, offset = self._symbols[item.target]
                if section != "code":
                    raise AsmError(
                        f"branch target {item.target!r} is in .{section}", item.lineno
                    )
                instr = instr.with_imm(offset - (item.offset + 1))
            module.code.append(encode(instr))

        for name in self._exports:
            if name not in self._symbols:
                raise AsmError(f".export of undefined symbol {name!r}", 0)
            section, offset = self._symbols[name]
            if section == "code":
                module.exports[name] = offset
        if module.entry and module.entry not in module.exports:
            if module.entry in self._symbols:
                module.exports[module.entry] = self._symbols[module.entry][1]

        for start_label, end_label, catch_label, code, lineno in self._pending_handlers:
            ranges = []
            for label in (start_label, end_label, catch_label):
                if label not in self._symbols or self._symbols[label][0] != "code":
                    raise AsmError(f"bad handler label {label!r}", lineno)
                ranges.append(self._symbols[label][1])
            handler = HandlerRange(ranges[0], ranges[1], ranges[2], code)
            func = module.func_at(handler.handler) or module.func_at(handler.start)
            if func is None:
                raise AsmError("handler outside any function", lineno)
            func.handlers.append(handler)

        return module


def assemble(text: str, name: str | None = None) -> Module:
    """Assemble ``text`` into a module; ``name`` overrides ``.module``."""
    module = Assembler().assemble(text)
    if name is not None:
        module.name = name
    return module
