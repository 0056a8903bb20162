"""Memory segments, permissions, and the module loader."""

import pytest

from repro.isa import assemble
from repro.vm import Machine, MappedFile, Memory, Segment, VMError, VMFault
from repro.vm.memory import WORD_MASK


def test_segment_mapping_and_lookup():
    memory = Memory()
    seg = memory.map_segment(Segment(base=100, size=10, name="a"))
    assert memory.segment_at(100) is seg
    assert memory.segment_at(109) is seg
    assert memory.segment_at(110) is None
    assert memory.segment_at(99) is None


def test_overlapping_segments_rejected():
    memory = Memory()
    memory.map_segment(Segment(base=100, size=10, name="a"))
    with pytest.raises(VMError, match="overlaps"):
        memory.map_segment(Segment(base=105, size=10, name="b"))


def test_load_store_and_masking():
    memory = Memory()
    memory.map_segment(Segment(base=0, size=4, name="a"))
    memory.store(2, -1)
    assert memory.load(2) == WORD_MASK


def test_permissions_enforced():
    memory = Memory()
    memory.map_segment(Segment(base=0, size=4, name="ro", writable=False))
    with pytest.raises(VMFault):
        memory.store(1, 5)
    memory.map_segment(Segment(base=10, size=4, name="noexec"))
    with pytest.raises(VMFault):
        memory.fetch(10)


def test_or_word():
    memory = Memory()
    memory.map_segment(Segment(base=0, size=1, name="a"))
    memory.store(0, 0b100)
    memory.or_word(0, 0b011)
    assert memory.load(0) == 0b111


def test_or_word_uses_the_victim_write_entry(monkeypatch):
    """Probe ORs alternating with stack writes hit the two write-cache
    entries: each segment is looked up once, not once per access."""
    memory = Memory()
    memory.map_segment(Segment(base=0x100, size=16, name="stack"))
    memory.map_segment(Segment(base=0x200, size=16, name="trace"))
    lookups: list[int] = []
    segment_at = memory.segment_at

    def counting(addr):
        lookups.append(addr)
        return segment_at(addr)

    monkeypatch.setattr(memory, "segment_at", counting)
    for i in range(8):
        memory.store(0x100 + i, i)
        memory.or_word(0x200 + i, 1 << i)
    assert len(lookups) == 2  # one per segment
    assert [memory.load(0x200 + i) for i in range(8)] == [
        1 << i for i in range(8)
    ]


def test_trace_hit_needs_a_readable_writable_segment():
    memory = Memory()
    memory.map_segment(Segment(base=0x100, size=4, name="trace"))
    memory.map_segment(Segment(base=0x200, size=4, name="ro", writable=False))
    assert memory.trace_hit(0x101)[:2] == (0x100, 0x104)
    # Neither read-only nor unmapped memory replaces the entry.
    assert memory.trace_hit(0x201)[:2] == (0x100, 0x104)
    assert memory.trace_hit(0x900)[:2] == (0x100, 0x104)


def test_read_cstr():
    memory = Memory()
    memory.map_segment(Segment(base=0, size=8, name="a"))
    for i, ch in enumerate("hey"):
        memory.store(i, ord(ch))
    assert memory.read_cstr(0) == "hey"


def test_mapped_file_snapshot_is_independent():
    mapped = MappedFile.zeroed("m", 4)
    snap = mapped.snapshot()
    mapped.words[0] = 9
    assert snap[0] == 0


def test_unmap_frees_address_range():
    memory = Memory()
    seg = memory.map_segment(Segment(base=0, size=4, name="a"))
    memory.unmap(seg)
    assert memory.segment_at(0) is None
    memory.map_segment(Segment(base=0, size=4, name="b"))  # no overlap error


# ----------------------------------------------------------------------
# Loader
# ----------------------------------------------------------------------
LIB = """
.module lib
.export fn
.func fn
  li r0, 9
  ret
.endfunc
.data
cell: .word 42
"""


def test_loader_places_sections_and_resolves_symbols():
    machine = Machine()
    process = machine.create_process("t")
    loaded = process.load_module(assemble(LIB))
    assert loaded.contains_code(loaded.code_base)
    assert loaded.symbol_addr("cell") == loaded.data_base
    assert loaded.export_addr("fn") == loaded.code_base


def test_loader_relocations_patched():
    machine = Machine()
    process = machine.create_process("t")
    src = """
.module t
.entry main
.func main
  la r0, cell
  ldw r0, r0, 0
  sys 1
  halt
.endfunc
.data
cell: .word 123
"""
    process.load_module(assemble(src))
    process.start()
    machine.run()
    assert process.output == ["123"]


def test_unresolved_import_raises():
    machine = Machine()
    process = machine.create_process("t")
    src = ".module t\n.import ghost\n.func main\n callx ghost\n.endfunc"
    with pytest.raises(VMError, match="unresolved import"):
        process.load_module(assemble(src))


def test_unload_then_reload():
    machine = Machine()
    process = machine.create_process("t")
    module = assemble(LIB)
    loaded = process.load_module(module)
    base1 = loaded.code_base
    process.unload_module(loaded)
    assert process.loader.find_export("fn") is None
    loaded2 = process.load_module(module)
    assert loaded2.code_base != base1  # fresh placement
    assert process.loader.find_export("fn") == loaded2.export_addr("fn")


def test_module_object_not_mutated_by_load():
    machine = Machine()
    process = machine.create_process("t")
    src = """
.module t
.func main
  la r0, cell
  halt
.endfunc
.data
cell: .word 7
"""
    module = assemble(src)
    code_before = list(module.code)
    process.load_module(module)
    assert module.code == code_before  # relocation patched a copy


def test_find_code_across_modules():
    machine = Machine()
    process = machine.create_process("t")
    la = process.load_module(assemble(LIB))
    lb = process.load_module(assemble(LIB.replace("lib", "lib2").replace("fn", "gn")))
    assert process.loader.find_code(la.code_base) is la
    assert process.loader.find_code(lb.code_base) is lb
    assert process.loader.module_named("lib2") is lb
