"""Seeded fuzz sweep: salvage never raises, strict fails usefully.

The sweep damages *copies* of one healthy three-machine run, so each
case costs only an injector pass plus a reconstruction, not a fresh
simulated network run.  The default lane runs a fast subset; the full
N >= 200 sweep is marked ``slow`` (run via ``scripts/check.sh chaos``
or ``test-all``).

Two contracts under fuzz:

* **Salvage never raises.**  Whatever the injectors did, salvage-mode
  reconstruction returns a ``DistributedTrace`` with a degradation
  summary, and the renderer handles it.
* **Strict raises on structural damage, with a useful message.**
  "Structural" means damage strict verification actually checks:
  clobbered header words, truncated buffers, torn/corrupt archives,
  missing machines.  (A mid-data bit flip is *not* structural — the
  forward scan simply stops at the first non-record word, by design.)
"""

import random

import pytest

from repro.chaos import SCENARIOS, build_base, copy_snap, run_scenario
from repro.chaos.inject import (
    clobber_header,
    corrupt_archive,
    drop_sync_records,
    duplicate_sync_records,
    flip_bits,
    skew_clock,
    tear_archive,
    truncate_buffer,
    zero_words,
)
from repro.reconstruct import Reconstructor, RecoveryError, render_distributed
from repro.runtime.archive import (
    ArchiveError,
    compress_snap,
    decompress_snap,
    salvage_decompress,
)


@pytest.fixture(scope="module")
def base():
    snaps, mapfiles, _ = build_base()
    return snaps, mapfiles


# ----------------------------------------------------------------------
# Damage classes
# ----------------------------------------------------------------------
def _damage_snaps(snaps, rng):
    """Randomly compose word-level injectors over copies of ``snaps``.

    Returns (damaged snaps, ground-truth notes).
    """
    damaged = [copy_snap(s) for s in snaps]
    notes = []
    injectors = [
        lambda s: flip_bits(s, rng, flips=rng.randrange(1, 12)),
        lambda s: zero_words(s, rng, runs=rng.randrange(1, 3)),
        lambda s: clobber_header(s, rng, words=rng.randrange(1, 3)),
        lambda s: truncate_buffer(s, rng),
        lambda s: drop_sync_records(s, rng, count=rng.randrange(1, 3)),
        lambda s: duplicate_sync_records(s, rng),
        lambda s: skew_clock(s, rng.randrange(-(1 << 34), 1 << 34)),
    ]
    for _ in range(rng.randrange(1, 4)):
        victim = rng.choice(damaged)
        notes += rng.choice(injectors)(victim)
    if rng.random() < 0.3:  # sometimes a machine vanishes too
        idx = rng.randrange(len(damaged))
        notes.append(f"machine {damaged[idx].machine_name} dropped")
        damaged[idx] = None
    return damaged, notes


def _fuzz_one(snaps, mapfiles, seed):
    rng = random.Random(seed)
    damaged, notes = _damage_snaps(snaps, rng)
    trace = Reconstructor(mapfiles).reconstruct_distributed(
        damaged, strict=False, expected_machines=None
    )
    assert trace.degradation is not None
    assert isinstance(render_distributed(trace), str)
    # Ground truth was produced, even if this particular damage landed
    # somewhere reconstruction tolerates silently.
    assert notes


def _fuzz_archive_one(snaps, seed):
    rng = random.Random(seed)
    data = compress_snap(rng.choice(snaps))
    if rng.random() < 0.5:
        bad, _ = tear_archive(data, rng)
    else:
        bad, _ = corrupt_archive(data, rng, flips=rng.randrange(1, 6))
    if bad == data:  # corrupt_archive can (rarely) cancel itself out
        return
    # Salvage never raises; strict always does on a damaged container.
    snap, notes = salvage_decompress(bad)
    assert snap is not None or notes
    with pytest.raises(ArchiveError) as excinfo:
        decompress_snap(bad)
    assert str(excinfo.value)  # a message, not a bare raise


# ----------------------------------------------------------------------
# Fast subset (default lane)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_fuzz_salvage_never_raises_fast(base, seed):
    snaps, mapfiles = base
    _fuzz_one(snaps, mapfiles, seed)


@pytest.mark.parametrize("seed", range(15))
def test_fuzz_archive_fast(base, seed):
    snaps, _ = base
    _fuzz_archive_one(snaps, seed)


# ----------------------------------------------------------------------
# Full sweep (slow lane): N >= 200 distinct damage cases
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25, 185))
def test_fuzz_salvage_never_raises(base, seed):
    snaps, mapfiles = base
    _fuzz_one(snaps, mapfiles, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(15, 95))
def test_fuzz_archive(base, seed):
    snaps, _ = base
    _fuzz_archive_one(snaps, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fuzz_every_scenario_every_seed(name, seed):
    trace = run_scenario(name, seed=seed).reconstruct(strict=False)
    assert trace.degradation is not None
    assert isinstance(render_distributed(trace), str)


# ----------------------------------------------------------------------
# Nondeterminism-log damage: replay refuses with a typed error
# ----------------------------------------------------------------------
CRASHER = """
int main() {
    int i;
    int n;
    n = 7;
    for (i = 0; i < 5; i = i + 1) {
        n = n - 1;
    }
    return 100 / (n - 2);
}
"""


@pytest.fixture(scope="module", params=[1, 2], ids=["ndlog-v1", "ndlog-v2"])
def recorded_snap(request):
    """One recorded crash snap per ndlog wire format (v1 and v2).

    Snaps carry packed ``tb-ndlog/2``; the v1 snap swaps in the same
    recording re-serialized as plain-JSON ``tb-ndlog/1``.
    """
    from repro.api import TraceSession
    from repro.runtime import RuntimeConfig, SnapPolicy
    from repro.runtime.sync import reset_runtime_ids

    reset_runtime_ids()
    session = TraceSession(
        process_name="crasher",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(CRASHER, name="crasher", file_name="crasher.c")
    run = session.run(max_cycles=2_000_000)
    assert run.snap is not None and run.snap.replayable == "full"
    if request.param == 2:
        return run.snap
    snap = copy_snap(run.snap)
    snap.replay["ndlog"] = run.runtime.recorder.to_dict(version=1)
    return snap


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_ndlog_damage_is_typed(recorded_snap, seed):
    """Whatever damage_ndlog did, replay fails with ReplayUnavailable
    naming the hurt segment — never a crash or a silent divergence.
    Runs against both wire formats: v1 damage tears the JSON event
    list, v2 damage corrupts the packed byte columns."""
    from repro.chaos.inject import damage_ndlog
    from repro.replay import ReplayEngine, ReplayUnavailable

    rng = random.Random(seed)
    bad = copy_snap(recorded_snap)
    notes = damage_ndlog(bad, rng)
    assert notes and "ReplayUnavailable" in notes[0]
    with pytest.raises(ReplayUnavailable) as excinfo:
        ReplayEngine(bad).run_to_fault()
    assert excinfo.value.segment
    assert f"'{excinfo.value.segment}'" in notes[0]
    # Damage stayed on the copy: the pristine snap still replays.
    stop = ReplayEngine(recorded_snap).run_to_fault()
    assert stop["reason"] == "fault"


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12, 40))
def test_fuzz_ndlog_damage_is_typed_slow(recorded_snap, seed):
    """Wider seed sweep over the same contract (slow lane)."""
    test_fuzz_ndlog_damage_is_typed(recorded_snap, seed)


# ----------------------------------------------------------------------
# Strict mode raises usefully on structural damage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_fuzz_strict_raises_on_structural_damage(base, seed):
    rng = random.Random(seed)
    snaps, mapfiles = base
    bad = copy_snap(rng.choice(snaps))
    structural = rng.choice((clobber_header, truncate_buffer))
    assert structural(bad, rng)
    with pytest.raises(RecoveryError) as excinfo:
        Reconstructor(mapfiles).reconstruct(bad, strict=True)
    assert "buffer" in str(excinfo.value)
