"""Tier-3 block engine specifics: engine selection, on-demand
compilation, slice-boundary exactness, and recompilation after code
rewriting.

Full bit-identity with the reference interpreter is covered by the
differential suites (``test_differential.py`` runs every engine in
``ENGINES``, ``test_probe_differential.py`` the header-probe
superinstruction); these tests pin the machinery around the compiled
units.
"""

from __future__ import annotations

import pytest

import repro.vm.machine as vm_machine
from repro.lang.minic import compile_source
from repro.vm import ENGINES, EngineSelectionError, Machine
from repro.vm.blocks import unit_table
from repro.vm.machine import ENGINE_ENV_VAR

SOURCE = """
int main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 1000; i = i + 1) {
        total = total + i * 3;
    }
    print_int(total);
    return 0;
}
"""


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------


def test_engines_tuple_lists_all_tiers():
    assert ENGINES == ("block", "reference")


def test_block_is_the_default_engine(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert Machine().engine == "block"


def test_unknown_engine_argument_raises_typed_error():
    with pytest.raises(EngineSelectionError) as excinfo:
        Machine(engine="turbo")
    err = excinfo.value
    assert err.engine == "turbo"
    assert err.valid == ENGINES
    # The message names the bad value, its source, and every valid tier.
    message = str(err)
    assert "turbo" in message
    assert "Machine(engine=...)" in message
    for tier in ENGINES:
        assert tier in message


def test_unknown_engine_env_var_raises_typed_error(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
    with pytest.raises(EngineSelectionError) as excinfo:
        Machine()
    message = str(excinfo.value)
    assert "warp" in message
    assert ENGINE_ENV_VAR in message
    for tier in ENGINES:
        assert tier in message


def test_engine_env_var_selects_block(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "block")
    assert Machine().engine == "block"


def test_explicit_engine_wins_over_env(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
    assert Machine(engine="block").engine == "block"


# ----------------------------------------------------------------------
# Compiled-unit machinery
# ----------------------------------------------------------------------


def _run(engine, max_cycles=200_000):
    machine = Machine(engine=engine)
    process = machine.create_process("blk")
    loaded = process.load_module(compile_source(SOURCE, "blk"))
    process.start()
    machine.run(max_cycles=max_cycles)
    return machine, process, loaded


def _compiled(loaded):
    return [
        off for off, unit in enumerate(loaded.units)
        if unit is not None and unit[1] is not None
    ]


def test_nothing_compiles_before_the_threshold(monkeypatch):
    """A unit is compiled exactly when its entry count reaches the
    threshold — never earlier, never for code entered fewer times."""
    seen = []
    compile_unit = vm_machine.compile_unit

    def spy(loaded, offset):
        seen.append(loaded.heat[offset])
        return compile_unit(loaded, offset)

    monkeypatch.setattr(vm_machine, "compile_unit", spy)
    machine = Machine(engine="block")
    process = machine.create_process("lazy")
    loaded = process.load_module(compile_source(SOURCE, "lazy"))
    assert not _compiled(loaded) and not any(loaded.heat)
    process.start()
    machine.run(max_cycles=200_000)
    # The 1000-iteration loop gets hot; main's one-shot prologue stays
    # on the tier-2 handlers.
    assert _compiled(loaded), "the loop should compile at least one unit"
    assert seen and set(seen) == {vm_machine.HOT_THRESHOLD}
    for off in _compiled(loaded):
        count, fn = loaded.units[off]
        assert count >= 2
        assert callable(fn)
    assert loaded.units[0] is None and 0 < loaded.heat[0] < (
        vm_machine.HOT_THRESHOLD
    )


def test_block_engine_matches_reference_output():
    _, ref, _ = _run("reference")
    _, blk, _ = _run("block")
    assert blk.output == ref.output
    assert blk.exit_code == ref.exit_code


def test_refresh_decode_cache_drops_units_and_counters():
    _, _, loaded = _run("block")
    units, heat = loaded.units, loaded.heat
    assert _compiled(loaded) and any(loaded.heat)
    loaded.refresh_decode_cache()
    # Reset in place: a running slice loop holds these very lists.
    assert loaded.units is units and loaded.heat is heat
    assert loaded.units == unit_table(loaded.decoded)
    assert not _compiled(loaded)
    assert not any(loaded.heat)


def _slice_trace(engine, chunks):
    machine = Machine(engine=engine)
    process = machine.create_process("slice")
    process.load_module(compile_source(SOURCE, "slice"))
    process.start()
    thread = next(iter(process.threads.values()))
    seen = []
    for chunk in chunks:
        before = thread.instructions
        machine.run_thread_slice(thread, chunk)
        seen.append(
            (thread.instructions - before, thread.pc, list(thread.regs),
             machine.cycles)
        )
        if not thread.runnable():
            break
    return seen


def test_slice_boundaries_identical_across_engines():
    """run_thread_slice consumes exactly the same instruction counts on
    every tier — the invariant replay's forced scheduler depends on."""
    # Deliberately awkward slice sizes: units (<= 20 instructions)
    # must never straddle a boundary.
    chunks = [1, 3, 7, 40, 13, 1, 1, 40, 5] + [40, 17, 3] * 200
    traces = {engine: _slice_trace(engine, chunks) for engine in ENGINES}
    assert traces["block"] == traces["reference"]


@pytest.mark.parametrize("threshold", [1, 2, 3, 5])
def test_unit_turning_hot_mid_slice_stays_exact(monkeypatch, threshold):
    """With a tiny threshold, units compile in the middle of slices of
    every size; each slice still retires exactly what the reference
    engine retires, with identical state after it."""
    chunks = [1, 2, 3, 5, 8, 13, 21, 34, 40] * 40
    reference = _slice_trace("reference", chunks)
    monkeypatch.setattr(vm_machine, "HOT_THRESHOLD", threshold)
    assert _slice_trace("block", chunks) == reference
