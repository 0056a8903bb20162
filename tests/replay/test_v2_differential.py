"""v1-vs-v2 differential sweep: both wire formats replay one recording
to the identical fault on every engine tier.

Each seeded crasher is recorded once: its snap carries the packed
``tb-ndlog/2`` log, and the recorder re-serializes the same events as
a plain-JSON ``tb-ndlog/1`` log for a twin snap.  (Read after the run,
the v1 log's last slice is closed rather than partial; the replay
must still stop at the same fault.)  The oracle replays each log on
each interpreter tier and asserts the replays are event-identical:
same fault pc/code, same per-thread control flow, same crash
signature.  Coalescing makes the v2 *log* shorter than the v1 log; it
must never make the *replay* different.

Seeds 0..5 run in the default lane; the full 62-seed sweep is ``slow``
(run via ``scripts/check.sh replay``).
"""

import pytest

from repro import TraceSession
from repro.chaos import copy_snap
from repro.reconstruct import (
    Reconstructor,
    control_flow_signature,
    diff_control_flow,
    snap_signature,
)
from repro.replay import NDLOG_FORMAT, NDLOG_FORMAT_V2, ReplayEngine
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.sync import reset_runtime_ids
from repro.vm.machine import ENGINES
from repro.workloads import random_crasher

FAST_SEEDS = range(6)
SLOW_SEEDS = range(6, 62)


def _record(seed: int):
    reset_runtime_ids()
    session = TraceSession(
        process_name=f"rnd{seed}",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(random_crasher(seed), name="rnd", file_name="rnd.c")
    return session.run(max_cycles=30_000_000)


def assert_v1_v2_equivalent(seed: int, engines) -> None:
    run = _record(seed)
    snap_v2 = run.snap
    assert snap_v2 is not None
    snap_v1 = copy_snap(snap_v2)
    snap_v1.replay["ndlog"] = run.runtime.recorder.to_dict(version=1)
    assert snap_v1.replay["ndlog"]["format"] == NDLOG_FORMAT
    assert snap_v2.replay["ndlog"]["format"] == NDLOG_FORMAT_V2
    # Same run, so the recorded evidence mines to the same signature.
    mapfiles = run.mapfiles
    assert snap_signature(snap_v1, mapfiles) == snap_signature(
        snap_v2, mapfiles
    )
    recon = Reconstructor(mapfiles)
    for engine in engines:
        stops = []
        traces = []
        for snap in (snap_v1, snap_v2):
            eng = ReplayEngine(snap, engine=engine)
            stops.append(eng.run_to_fault())
            traces.append(recon.reconstruct(eng.replayed_snap()))
        s1, s2 = stops
        assert s1["reason"] == s2["reason"] == "fault", (engine, s1, s2)
        assert s1["fault"] == s2["fault"], engine
        assert s1["pc"] == s2["pc"], engine
        diffs = diff_control_flow(traces[0], traces[1])
        assert not diffs, f"{engine}: " + "\n".join(diffs)
        assert control_flow_signature(traces[0]) == control_flow_signature(
            traces[1]
        ), engine


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_v1_v2_replay_identically_fast(seed):
    assert_v1_v2_equivalent(seed, ENGINES)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_v1_v2_replay_identically(seed):
    assert_v1_v2_equivalent(seed, ENGINES)
