"""Snaps recorded on the retired tier-2 ``fast`` engine stay usable.

Before the block engine became the one production engine, the default
tier was ``fast``, and every runtime-taken snap names its recording
tier in ``replay.seed.engine`` and in the ndlog header.  The tiers are
bit-identical, so such a snap differs from one recorded today only in
that name: it must still load, show in ``tbtrace info``, and replay to
the same fault on the default engine — while ``fast`` itself is no
longer selectable.
"""

import copy

import pytest

from repro.fleet import SnapVault
from repro.replay import ReplayEngine
from repro.runtime.archive import save_compressed
from repro.runtime.snap import SnapFile
from repro.tools.tb import main
from repro.vm import ENGINES, EngineSelectionError, Machine
from repro.vm.machine import ENGINE_ENV_VAR


def recorded_on_fast(snap: SnapFile) -> SnapFile:
    """``snap`` as the ``fast`` tier would have recorded it."""
    data = copy.deepcopy(snap.to_dict())
    data["replay"]["seed"]["engine"] = "fast"
    data["replay"]["ndlog"]["header"]["engine"] = "fast"
    return SnapFile.from_dict(data)


def test_fast_recorded_snap_loads_and_replays(tmp_path, workqueue_run, capsys):
    legacy = recorded_on_fast(workqueue_run.snap)
    vault = SnapVault(str(tmp_path / "vault"))
    for mapfile in workqueue_run.mapfiles:
        vault.put_mapfile(mapfile)
    digest = vault.put(legacy).digest
    stored = vault.load(digest)[0]
    assert stored.replay["seed"]["engine"] == "fast"
    assert stored.replayable == "full"

    archive = str(tmp_path / "legacy.tbsz")
    save_compressed(stored, archive)
    assert main(["info", archive]) == 0
    out = capsys.readouterr().out
    assert "snap: unhandled in workqueue" in out
    assert "replayable: full (tb-ndlog/2)" in out

    engine = ReplayEngine(stored)
    assert engine.machine.engine == "block"
    stop = engine.run_to_fault()
    assert stop["reason"] == "fault"
    fault = workqueue_run.process.fault
    assert stop["fault"]["pc"] == fault.pc
    assert stop["fault"]["code"] == int(fault.code)

    assert main(["replay", digest[:8], "--vault", vault.root]) == 0
    assert "stopped: fault" in capsys.readouterr().out


def test_fast_is_no_longer_selectable(monkeypatch):
    with pytest.raises(EngineSelectionError) as excinfo:
        Machine(engine="fast")
    assert excinfo.value.valid == ENGINES
    for tier in ENGINES:
        assert tier in str(excinfo.value)

    monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
    with pytest.raises(EngineSelectionError) as excinfo:
        Machine()
    message = str(excinfo.value)
    assert ENGINE_ENV_VAR in message
    for tier in ENGINES:
        assert tier in message
