"""Differential harness: replayed control flow == reconstructed trace.

The replay contract (tentpole part 2): re-executing a snap's
nondeterminism log on the production engine must reproduce the recorded run
*exactly* — per thread, the same ordered source lines, the same
exception events, the same fault signature.  This suite proves it
three ways:

* the shipped example catalogue (workqueue crash, cross-machine RPC
  with a server-side fault and a client-side fault after a completed
  round trip);
* seeded random multithreaded programs
  (:func:`repro.workloads.random_crasher`) — locks, sleeps, helper
  calls, a planted DIVIDE_BY_ZERO — each run both instrumented and
  bare;
* a fast subset runs by default, the bulk sweep is ``slow`` (run via
  ``scripts/check.sh replay``).
"""

import pytest

from repro import TraceSession
from repro.reconstruct import (
    Reconstructor,
    control_flow_events,
    control_flow_signature,
    diff_control_flow,
    snap_signature,
)
from repro.replay import ReplayEngine
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.sync import reset_runtime_ids
from repro.workloads import random_crasher

# Seeds 0..11 run in the default lane; the full sweep adds 12..61 for
# the >= 50 random programs the replay acceptance bar asks for.
FAST_SEEDS = range(12)
SLOW_SEEDS = range(12, 62)


def assert_replay_matches(run) -> None:
    """The differential oracle: record, replay, reconstruct, compare."""
    snap = run.snap
    assert snap is not None and snap.replayable == "full"
    engine = ReplayEngine(snap)
    stop = engine.run_to_fault()
    assert stop["reason"] == "fault"
    assert stop["fault"]["pc"] == run.process.fault.pc
    assert stop["fault"]["code"] == int(run.process.fault.code)

    recon = Reconstructor(run.mapfiles)
    recorded = recon.reconstruct(snap)
    replayed = recon.reconstruct(engine.replayed_snap())
    diffs = diff_control_flow(recorded, replayed)
    assert not diffs, "\n".join(diffs)
    assert control_flow_signature(recorded) == control_flow_signature(
        replayed
    )
    assert snap_signature(snap, run.mapfiles) == snap_signature(
        engine.replayed_snap(), run.mapfiles
    )


def run_random(seed: int, instrument: bool):
    reset_runtime_ids()
    session = TraceSession(
        process_name=f"rnd{seed}",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(
        random_crasher(seed), name="rnd", file_name="rnd.c",
        instrument=instrument,
    )
    return session.run(max_cycles=30_000_000)


# ----------------------------------------------------------------------
# The example catalogue
# ----------------------------------------------------------------------
def test_workqueue_example_replays_event_identically(workqueue_run):
    assert_replay_matches(workqueue_run)
    # The canonical example really exercises the multithreaded path:
    # all four threads contribute control flow.
    trace = Reconstructor(workqueue_run.mapfiles).reconstruct(
        workqueue_run.snap
    )
    flows = control_flow_events(trace)
    assert len(flows) == 4
    assert all(flows.values())


CLIENT_CRASH = """
int argbuf[1];
int retbuf[1];
int main() {
    argbuf[0] = 21;
    int status;
    status = rpc_call(7, argbuf, 1, retbuf, 1);
    return 100 / (retbuf[0] - 42);
}
"""

SERVER_OK = """
int handle(int argaddr, int arglen, int retaddr, int retcap) {
    poke(retaddr, peek(argaddr) * 2);
    return 0;
}
"""

CLIENT_OK = """
int argbuf[1];
int retbuf[1];
int main() {
    argbuf[0] = 21;
    rpc_call(7, argbuf, 1, retbuf, 1);
    return 0;
}
"""

SERVER_CRASH = """
int handle(int argaddr, int arglen, int retaddr, int retcap) {
    int value;
    value = peek(argaddr);
    poke(retaddr, 100 / (value - 21));
    return 0;
}
"""


def _run_pair(client_src: str, server_src: str, snapping: str):
    from repro.distributed import DistributedSession

    reset_runtime_ids()
    session = DistributedSession(
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled\nsnap on exception"),
            record_replay=True,
        )
    )
    m1 = session.add_machine("client-box")
    m2 = session.add_machine("server-box", clock_skew=5_000_000)
    session.add_process(m1, "client", client_src, start=True)
    session.add_process(m2, "server", server_src, services={7: "handle"})
    result = session.run()
    snaps = [s for s in result.snaps if s.process_name == snapping]
    assert snaps, [s.process_name for s in result.snaps]
    return snaps[0], result.mapfiles


def _assert_distributed_replay(snap, mapfiles):
    """Replay one side of the pair and return (stop, recorded trace)."""
    assert snap.replayable == "full"
    engine = ReplayEngine(snap)
    stop = engine.run_to_fault()
    recon = Reconstructor(mapfiles)
    recorded = recon.reconstruct(snap)
    replayed = recon.reconstruct(engine.replayed_snap())
    diffs = diff_control_flow(recorded, replayed)
    assert not diffs, "\n".join(diffs)
    assert snap_signature(snap, mapfiles) == snap_signature(
        engine.replayed_snap(), mapfiles
    )
    return stop, recorded


def test_rpc_server_fault_replays():
    """Server side: the recorded ``rs`` event re-spawns the service
    thread at the recorded cycle on the skewed machine.  The handler's
    trap becomes an RPC error reply, so the snap fires on *exception*
    and replay runs the log out rather than stopping on a process
    fault — the exception must still reappear in the replayed trace."""
    snap, mapfiles = _run_pair(CLIENT_OK, SERVER_CRASH, "server")
    stop, recorded = _assert_distributed_replay(snap, mapfiles)
    assert stop["reason"] == "end"
    assert any(t.events("exception") for t in recorded.threads)


def test_rpc_client_fault_replays():
    """Client side: the recorded ``rr`` event supplies the reply words
    without any server present at replay time."""
    snap, mapfiles = _run_pair(CLIENT_CRASH, SERVER_OK, "client")
    stop, _recorded = _assert_distributed_replay(snap, mapfiles)
    assert stop["reason"] == "fault"
    assert stop["fault"]["detail"] == "DIV"


# ----------------------------------------------------------------------
# Seeded random multithreaded programs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("instrument", [True, False],
                         ids=["instrumented", "bare"])
@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_program_replays_fast(seed, instrument):
    run = run_random(seed, instrument)
    assert_replay_matches(run)
    if instrument:
        sig = snap_signature(run.snap, run.mapfiles)
        assert sig and "DIVIDE_BY_ZERO" in sig


@pytest.mark.slow
@pytest.mark.parametrize("instrument", [True, False],
                         ids=["instrumented", "bare"])
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_program_replays(seed, instrument):
    run = run_random(seed, instrument)
    assert_replay_matches(run)
