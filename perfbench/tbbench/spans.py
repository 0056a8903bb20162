"""Spans around each layer's public functions, installed from outside.

The traced run wraps the functions listed in :data:`LAYER_CALLS` --
every binding of a module-level function in the loaded ``repro`` and
``tbbench`` modules, or the method on its class -- so each call records a span
``(name, start, end, parent, crash)``.  Spans stay in memory and are
written out when the run ends; nothing under ``src/`` changes, and the
untraced runs that produce the end-to-end numbers never install them.

A span's self time is its duration minus the time its child spans
cover.  Summed per group, self times plus the time no span covers
(``unattributed_s``) add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

#: ``(self-time metric, latency metric or None, owner, attribute)``.
#: ``owner`` is ``module`` or ``module:Class``.  Each wrapped call adds
#: its self time to the first metric (seconds per crash in the report)
#: and, when named, its inclusive duration to the latency metric (mean
#: milliseconds per call).
LAYER_CALLS = [
    ("minic.compile_s", None, "repro.lang.minic.codegen", "compile_source"),
    ("instrument.instrument_s", None, "repro.instrument.rewriter",
     "instrument_module"),
    ("vm.run_s", None, "repro.vm.machine:Machine", "run"),
    ("distributed.network_run_s", None, "repro.distributed.network:Network",
     "run"),
    ("runtime.snap_s", None, "repro.runtime.runtime:TraceBackRuntime",
     "build_snap"),
    ("record.encode_s", None, "repro.replay.record:ReplayRecorder", "to_dict"),
    ("archive.compress_s", None, "repro.runtime.archive", "compress_snap"),
    ("archive.decompress_s", None, "repro.runtime.archive", "decompress_snap"),
    ("archive.decompress_s", None, "repro.runtime.archive",
     "salvage_decompress"),
    ("collector.submit_s", None, "repro.fleet.collector:Collector", "submit"),
    ("collector.drain_s", None, "repro.fleet.collector:Collector", "drain"),
    ("store.prepare_s", None, "repro.fleet.store", "prepare_snap"),
    ("store.commit_s", None, "repro.fleet.store:SnapVault", "put_batch"),
    ("store.load_s", None, "repro.fleet.store:SnapVault", "load"),
    ("store.mapfile_s", None, "repro.fleet.store:SnapVault", "put_mapfile"),
    ("store.mapfile_s", None, "repro.fleet.store:SnapVault", "mapfiles"),
    ("query.self_s", "query.select_ms", "repro.fleet.query:VaultQuery",
     "select"),
    ("query.self_s", "query.incidents_ms", "repro.fleet.query:VaultQuery",
     "incidents"),
    ("query.self_s", "query.top_ms", "repro.fleet.query:VaultQuery", "top"),
    ("query.self_s", None, "repro.fleet.query:VaultQuery", "reconstruct_entry"),
    ("query.self_s", None, "repro.fleet.query:VaultQuery", "verify_bucket"),
    ("remote.self_s", "remote.request_ms", "repro.fleet.remote:RemoteVaultClient",
     "_request"),
    ("remote.self_s", None, "repro.fleet.remote:VaultService", "handle_wire"),
    ("remote.self_s", "remote.federated_ms",
     "repro.fleet.federation:FederatedQuery", "select"),
    ("remote.self_s", "remote.federated_ms",
     "repro.fleet.federation:FederatedQuery", "incidents"),
    ("remote.self_s", "remote.federated_ms",
     "repro.fleet.federation:FederatedQuery", "top"),
    ("reconstruct.self_s", "reconstruct.snap_ms",
     "repro.reconstruct.session:Reconstructor", "reconstruct"),
    ("reconstruct.self_s", "reconstruct.incident_ms",
     "repro.reconstruct.session:Reconstructor", "reconstruct_distributed"),
    ("signature.self_s", "signature.mine_ms", "repro.reconstruct.signature",
     "snap_signature"),
    ("view.self_s", "view.render_ms", "repro.reconstruct.view", "select_view"),
    ("view.self_s", "view.render_ms", "repro.reconstruct.view",
     "render_distributed"),
    ("replay.self_s", "replay.decode_ms", "repro.replay.ndlog", "decode_events"),
    ("replay.self_s", "replay.init_ms", "repro.replay.engine:ReplayEngine",
     "__init__"),
    ("replay.self_s", "replay.run_ms", "repro.replay.engine:ReplayEngine",
     "run_to_fault"),
    ("replay.self_s", None, "repro.replay.engine:ReplayEngine", "replayed_snap"),
    ("replay.self_s", None, "repro.replay.engine:ReplayEngine", "backtrace"),
    ("replay.self_s", None, "repro.replay.engine:ReplayEngine", "registers"),
]

#: Every self-time metric, in table order (the per-layer breakdown).
SELF_METRICS = list(dict.fromkeys(row[0] for row in LAYER_CALLS))
#: Every latency metric, in table order.
LATENCY_METRICS = list(dict.fromkeys(row[1] for row in LAYER_CALLS if row[1]))

#: Wire bytes in + out are counted at the vault server.
WIRE_CALL = ("repro.fleet.remote:VaultService", "handle_wire")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans while installed; restores every binding on exit."""

    def __init__(self):
        #: ``[LAYER_CALLS row, start, end, parent index, crash id]``
        self.spans: list[list] = []
        self.crash: str | None = None
        self.wire_bytes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, row: int, fn, count_wire: bool):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([row, clock(), 0.0, stack[-1] if stack else -1,
                          tracer.crash])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count_wire:
                tracer.wire_bytes += len(args[1]) + len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def __enter__(self) -> "Tracer":
        for row, (_self, _latency, owner, attr) in enumerate(LAYER_CALLS):
            target = _resolve(owner)
            original = target.__dict__[attr] if isinstance(target, type) \
                else getattr(target, attr)
            wrapper = self._wrap(row, original, (owner, attr) == WIRE_CALL)
            if isinstance(target, type):
                self._restore.append((target, attr, original))
                setattr(target, attr, wrapper)
                continue
            # A module function may be bound under its name in any module
            # that imported it; wrap every binding.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith(
                        ("repro", "tbbench")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds per self-time metric."""
        child = [0.0] * len(self.spans)
        for _row, start, end, parent, _crash in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (row, start, end, _parent, _crash) in enumerate(self.spans):
            totals[LAYER_CALLS[row][0]] += end - start - child[i]
        return {m: totals.get(m, 0.0) for m in SELF_METRICS}

    def latencies_ms(self) -> dict[str, float]:
        """Mean inclusive milliseconds per call, per latency metric."""
        sums: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for row, start, end, _parent, _crash in self.spans:
            metric = LAYER_CALLS[row][1]
            if metric:
                sums[metric] += end - start
                calls[metric] += 1
        return {
            m: 1000.0 * sums[m] / calls[m] if calls[m] else 0.0
            for m in LATENCY_METRICS
        }

    def inclusive_seconds(self, latency_metric: str) -> float:
        """Total inclusive seconds of the calls behind a latency metric."""
        return sum(
            end - start
            for row, start, end, _parent, _crash in self.spans
            if LAYER_CALLS[row][1] == latency_metric
        )

    def write(self, path: str) -> None:
        """Dump every span as JSON lines (name, start, end, parent, crash)."""
        with open(path, "w") as fh:
            for row, start, end, parent, crash in self.spans:
                _self, _latency, owner, attr = LAYER_CALLS[row]
                fh.write(json.dumps({
                    "name": f"{owner}.{attr}",
                    "layer": LAYER_CALLS[row][0].split(".")[0],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "crash": crash,
                }) + "\n")
