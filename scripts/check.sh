#!/usr/bin/env bash
# Repo check entry points.
#
#   scripts/check.sh test-fast   default lane: everything not marked slow
#                                (the tier-1 gate; finishes in well under
#                                a minute)
#   scripts/check.sh test-all    full lane: fast tests + slow tests +
#                                every paper-table benchmark
#   scripts/check.sh chaos       fault-injection suite: every chaos
#                                scenario plus the full seeded fuzz
#                                sweep (includes the slow lane)
#   scripts/check.sh fleet       snap-vault subsystem: store/collector/
#                                incident/index/parallel tests plus the
#                                vault ingest benchmark; writes
#                                BENCH_fleet.json
#   scripts/check.sh gc          retention/compaction subsystem: the
#                                policy + pin tests, the crash-injection
#                                fuzz sweep (200+ seeded kills), and the
#                                GC benchmark (reclaim rate + ingest
#                                throughput under compaction) merged
#                                into BENCH_fleet.json
#   scripts/check.sh triage      crash-signature triage subsystem: the
#                                signature/bucket/report unit tests, the
#                                cross-seed differential against chaos
#                                ground truth (precision == 1.0), the
#                                signature-stability fuzz sweep, and the
#                                golden report regression (all slow
#                                lanes included)
#   scripts/check.sh remote      remote-query + federation subsystem:
#                                the wire-protocol/client tests, the
#                                federated scatter-gather tests, the
#                                --remote/--federate CLI tests, the
#                                seeded query-chaos fuzz sweep (120+
#                                seeds), and the federation benchmark
#                                (fan-out latency + one-slow-vault
#                                overhead) merged into BENCH_fleet.json
#   scripts/check.sh replay      time-travel replay subsystem: the
#                                ndlog/engine/CLI/vault-verify unit
#                                tests, the full differential sweep
#                                (examples + 60+ seeded random
#                                multithreaded crashers, instrumented
#                                and bare), and the replay benchmark
#                                (ndlog overhead + record and replay
#                                throughput, each with a >25%
#                                regression guard) merged into
#                                BENCH_interpreter.json
#   scripts/check.sh tier3       block-compiled engine subsystem: the
#                                two-tier differential suite, the
#                                header-probe differential, the tier-3
#                                unit tests, the lone-thread boundary
#                                sweeps, the full cross-engine
#                                replay sweep (62 seeded crashers
#                                recorded on one tier and replayed on
#                                the other, both directions), and the
#                                interpreter benchmark (engine speedups,
#                                instrumented gzip + decode throughput)
#                                with its >25% regression guard
#   scripts/check.sh bench       interpreter + fleet-ingest + fleet-GC +
#                                federation + replay benchmarks; writes
#                                BENCH_interpreter.json and
#                                BENCH_fleet.json, then fails if fleet
#                                ingest, GC reclaim, federated query, or
#                                record/replay throughput regressed >25%
#                                vs the previous history entry
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

case "${1:-test-fast}" in
  test-fast)
    exec python -m pytest -x -q
    ;;
  test-all)
    # A trailing -m overrides the default "not slow" from pyproject.
    exec python -m pytest -q -m "slow or not slow"
    ;;
  chaos)
    exec python -m pytest -q tests/chaos -m "slow or not slow"
    ;;
  fleet)
    python -m pytest -q tests/fleet -m "slow or not slow"
    exec python benchmarks/bench_fleet_ingest.py
    ;;
  gc)
    python -m pytest -q tests/fleet/test_retention.py \
      tests/fleet/test_gc_fuzz.py -m "slow or not slow"
    python benchmarks/bench_fleet_gc.py
    exec python benchmarks/bench_fleet_gc.py --check
    ;;
  triage)
    exec python -m pytest -q tests/fleet/test_triage.py \
      tests/fleet/test_triage_differential.py \
      tests/fleet/test_signature_stability.py \
      tests/fleet/test_triage_golden.py -m "slow or not slow"
    ;;
  remote)
    python -m pytest -q tests/fleet/test_remote.py \
      tests/fleet/test_federation.py tests/fleet/test_cli_wire.py \
      tests/fleet/test_federation_fuzz.py -m "slow or not slow"
    python benchmarks/bench_fleet_federation.py
    exec python benchmarks/bench_fleet_federation.py --check
    ;;
  replay)
    # Full replay suite: engine + both ndlog wire formats (the v2
    # codec/golden tests and the 62-seed v1-vs-v2 differential sweep),
    # plus the version-aware ndlog chaos fuzz.
    python -m pytest -q tests/replay -m "slow or not slow"
    python -m pytest -q tests/chaos/test_fuzz.py -k ndlog -m "slow or not slow"
    python benchmarks/bench_replay.py
    exec python benchmarks/bench_replay.py --check
    ;;
  tier3)
    python -m pytest -q tests/vm/test_differential.py tests/vm/test_blocks.py \
      tests/vm/test_probe_differential.py tests/vm/test_lone_thread.py \
      tests/replay/test_cross_engine.py -m "slow or not slow"
    python benchmarks/bench_interpreter.py
    exec python benchmarks/bench_interpreter.py --check
    ;;
  bench)
    python benchmarks/bench_interpreter.py
    python benchmarks/bench_fleet_ingest.py
    python benchmarks/bench_fleet_gc.py
    python benchmarks/bench_fleet_federation.py
    python benchmarks/bench_replay.py
    python benchmarks/bench_fleet_ingest.py --check
    python benchmarks/bench_fleet_gc.py --check
    python benchmarks/bench_fleet_federation.py --check
    exec python benchmarks/bench_replay.py --check
    ;;
  *)
    echo "usage: $0 {test-fast|test-all|chaos|fleet|gc|triage|remote|replay|tier3|bench}" >&2
    exit 2
    ;;
esac
