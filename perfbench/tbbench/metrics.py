"""Turning tallies and spans into the named metrics of BENCHMARK.json."""

from __future__ import annotations

import statistics

from tbbench.calibrate import NOMINAL_MS
from tbbench.chain import Tally
from tbbench.spans import LATENCY_METRICS, SELF_METRICS, Tracer

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "crashes_per_s": "1/s",
    "traced_mips": "Minstr/s",
    "probe_wall_ratio": "x",
    "sim_overhead_ratio": "x",
    "ingest_snaps_per_s": "1/s",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "diagnose_ms.p50": "ms",
    "verify_ms.p50": "ms",
    "archive_bytes_per_snap": "B",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Seconds are per crash carried, so
#: the self times plus ``unattributed_s`` add up to ``trace.wall_s``.
PER_LAYER = {
    **{name: "s" for name in SELF_METRICS},
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "1/s",
    **{name: "ms" for name in LATENCY_METRICS},
    "minic.modules": "count",
    "instrument.probes": "count",
    "instrument.text_growth": "x",
    "vm.instructions": "count",
    "vm.sim_cycles": "count",
    "vm.bare_mips": "Minstr/s",
    "vm.traced_mips": "Minstr/s",
    "vm.threads": "count",
    "runtime.records_written": "count",
    "runtime.wraps": "count",
    "runtime.snap_buffer_bytes": "B",
    "archive.bytes": "B",
    "archive.ratio": "x",
    "distributed.rpcs": "count",
    "distributed.group_snaps": "count",
    "collector.batches": "count",
    "store.mapfiles": "count",
    "store.bytes": "B",
    "query.entries_scanned": "count",
    "remote.wire_bytes": "B",
    "remote.full_coverage_share": "ratio",
    "reconstruct.events": "count",
    "reconstruct.full_rung_share": "ratio",
    "signature.minted_share": "ratio",
    "view.lines": "count",
    "record.ndlog_bytes": "B",
    "record.slice_events": "count",
    "record.traced_mips": "Minstr/s",
    "replay.mips": "Minstr/s",
}


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), as statistics gives it."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


#: End-to-end metrics read off the host's clock: reported at nominal
#: host speed (``time`` metrics scale with it, ``rate`` metrics
#: inversely; ``setup`` with the speed measured between the set-ups).
CALIBRATED = {
    "setup_s": "setup",
    "crashes_per_s": "rate",
    "traced_mips": "rate",
    "ingest_snaps_per_s": "rate",
    "query_ms.p50": "time",
    "query_ms.p90": "time",
    "diagnose_ms.p50": "time",
    "verify_ms.p50": "time",
}


def host_speed(calibration_ms: list[float]) -> float:
    """Nominal over mean calibration time (< 1 on a slow stretch).

    The host flips between a fast and a slow state every few tens to
    hundreds of milliseconds, so the mean (of the middle 90%: a
    preempted sample is not host speed) measures the share of time
    spent slow, where a median would jump between the two states.
    """
    samples = sorted(calibration_ms)
    cut = len(samples) // 20
    return NOMINAL_MS / statistics.fmean(samples[cut:len(samples) - cut])


def calibrated(raw: dict, speed: float, setup_speed: float) -> dict:
    """Wall-time metrics at nominal host speed; the rest unchanged."""
    scale = {"time": speed, "rate": 1.0 / speed, "setup": setup_speed}
    return {
        name: value * scale[CALIBRATED[name]] if name in CALIBRATED else value
        for name, value in raw.items()
    }


def end_to_end(t: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of the untraced runs, as measured."""
    c = t.counts
    traced_instructions = t.per_pass("pair.traced_instructions") \
        + t.per_pass("chain.instructions")
    values = {
        "setup_s": setup_s,
        "crashes_per_s": _div(t.crashes / t.passes,
                              t.robust("carry", "rest")),
        "traced_mips": _div(traced_instructions,
                            t.robust("pair_run", "chain_run")) / 1e6,
        "probe_wall_ratio": t.probe_wall_ratio(),
        "sim_overhead_ratio": _div(c["pair.traced_cycles"],
                                   c["pair.bare_cycles"]),
        "ingest_snaps_per_s": _div(1.0, statistics.median(
            t.ingest_s_per_snap)),
        "query_ms.p50": percentile(t.query_ms, 50),
        "query_ms.p90": percentile(t.query_ms, 90),
        "diagnose_ms.p50": percentile(t.diagnose_ms, 50),
        "verify_ms.p50": percentile(t.verify_ms, 50),
        "archive_bytes_per_snap": _div(c["store.blob_bytes"], c["store.snaps"]),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: values[name] for name in END_TO_END}


def samples(t: Tally) -> dict:
    """Sample counts behind every percentile."""
    return {
        "query_ms": len(t.query_ms),
        "diagnose_ms": len(t.diagnose_ms),
        "verify_ms": len(t.verify_ms),
    }


def per_layer(t: Tally, tracer: Tracer, untraced: Tally) -> dict:
    """Per-layer metrics of a traced run (``untraced`` gives overhead)."""
    c = t.counts
    crashes = t.crashes
    self_s = tracer.self_times()
    attributed = sum(self_s.values())
    values = {name: seconds / crashes for name, seconds in self_s.items()}
    values.update(tracer.latencies_ms())
    values.update({
        "unattributed_s": (t.seconds - attributed) / crashes,
        "trace.wall_s": t.seconds / crashes,
        "trace.overhead": _div(t.crashes, t.seconds)
        - _div(untraced.crashes, untraced.seconds),
        "minic.modules": c["minic.modules"] / crashes,
        "instrument.probes": c["instrument.probes"] / crashes,
        "instrument.text_growth": _div(c["instrument.instrumented_words"],
                                       c["instrument.original_words"]),
        "vm.instructions": (c["pair.traced_instructions"]
                            + c["chain.instructions"]) / crashes,
        "vm.sim_cycles": c["vm.sim_cycles"] / crashes,
        "vm.bare_mips": _div(t.per_pass("pair.bare_instructions"),
                             t.robust("bare_run")) / 1e6,
        "vm.traced_mips": _div(
            t.per_pass("pair.traced_instructions")
            + t.per_pass("chain.instructions"),
            t.robust("pair_run", "chain_run")) / 1e6,
        "vm.threads": c["vm.threads"] / crashes,
        "runtime.records_written": c["runtime.records_written"] / crashes,
        "runtime.wraps": c["runtime.wraps"] / crashes,
        "runtime.snap_buffer_bytes": _div(c["snap.raw_bytes"], c["snap.count"]),
        "archive.bytes": _div(c["store.blob_bytes"], c["store.snaps"]),
        "archive.ratio": _div(c["snap.raw_bytes"], c["store.blob_bytes"]),
        "distributed.rpcs": _div(c["distributed.rpcs"],
                                 c["distributed.chains"]),
        "distributed.group_snaps": _div(c["distributed.group_snaps"],
                                        c["distributed.chains"]),
        "collector.batches": c["store.batches"] / crashes,
        "store.mapfiles": c["store.mapfiles"] / t.passes,
        "store.bytes": _div(c["store.disk_bytes"], c["store.snaps"]),
        "query.entries_scanned": _div(c["query.entries_scanned"],
                                      c["query.selects"]),
        "remote.wire_bytes": _div(tracer.wire_bytes, c["remote.requests"]),
        "remote.full_coverage_share": _div(c["remote.full_coverage"],
                                           c["remote.federated"]),
        "reconstruct.events": _div(c["reconstruct.events"],
                                   c["reconstruct.diagnoses"]),
        "reconstruct.full_rung_share": _div(c["reconstruct.full_rung"],
                                            c["reconstruct.diagnoses"]),
        "signature.minted_share": _div(c["store.signed"], c["store.snaps"]),
        "view.lines": _div(c["view.lines"], c["reconstruct.diagnoses"]),
        "record.ndlog_bytes": _div(c["record.ndlog_bytes"], c["record.snaps"]),
        "record.slice_events": _div(c["record.slice_events"],
                                    c["record.snaps"]),
        "record.traced_mips": _div(c["record.run_instructions"],
                                   c["record.run_us"]),
        "replay.mips": _div(c["replay.instructions"] / 1e6,
                            tracer.inclusive_seconds("replay.run_ms")),
    })
    return {name: values[name] for name in PER_LAYER}
