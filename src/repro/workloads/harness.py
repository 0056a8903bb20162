"""Measurement harness: instrumented-vs-baseline overhead.

The paper's evaluation metric is the ratio of instrumented to normal
performance.  In the simulation the honest equivalent is the ratio of
*machine cycles to completion*: probe instructions, helper calls, and
runtime buffer work all consume cycles; blocking time and syscall
(kernel) time dilute them exactly as real kernel time dilutes probe
overhead in the paper's server workloads.

Every measurement cross-checks that the instrumented run produced the
same program output as the baseline — tracing must never change the
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import geometric_mean

from repro.instrument import InstrumentConfig, instrument_module
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.vm import Machine, Process


class MeasurementError(RuntimeError):
    """A workload misbehaved (timeout, crash, output divergence)."""


@dataclass
class RunOutcome:
    """One execution's cost and result."""

    cycles: int
    instructions: int
    output: list[str]
    exit_state: str


@dataclass
class OverheadResult:
    """Baseline vs instrumented comparison for one workload."""

    name: str
    base: RunOutcome
    traced: RunOutcome
    text_growth: float

    @property
    def ratio(self) -> float:
        """Cycles ratio: the Table 1 'Ratio' column analog."""
        return self.traced.cycles / self.base.cycles


def run_once(
    module,
    max_cycles: int = 100_000_000,
    runtime_config: RuntimeConfig | None = None,
    with_runtime: bool = False,
    setup=None,
    engine: str | None = None,
) -> RunOutcome:
    """Execute one module to completion on a fresh machine.

    ``engine`` selects the interpreter (``"block"``/``"reference"``);
    None uses the Machine default.
    """
    machine = Machine(engine=engine)
    process = machine.create_process("bench")
    if with_runtime:
        TraceBackRuntime(process, runtime_config or RuntimeConfig())
    process.load_module(module)
    if setup is not None:
        setup(machine, process)
    process.start()
    status = machine.run(max_cycles=max_cycles)
    if status != "done":
        raise MeasurementError(f"workload did not finish: {status}")
    instructions = sum(t.instructions for t in process.threads.values())
    return RunOutcome(
        cycles=machine.cycles,
        instructions=instructions,
        output=list(process.output),
        exit_state=process.exit_state,
    )


def measure_overhead(
    source: str,
    name: str,
    mode: str = "native",
    runtime_config: RuntimeConfig | None = None,
    max_cycles: int = 100_000_000,
) -> OverheadResult:
    """Compile, run baseline and instrumented, compare."""
    base_module = compile_source(source, name, bounds_checks=(mode == "il"))
    base = run_once(base_module, max_cycles=max_cycles)

    fresh = compile_source(source, name, bounds_checks=(mode == "il"))
    result = instrument_module(fresh, InstrumentConfig(mode=mode))
    traced = run_once(
        result.module,
        max_cycles=max_cycles,
        runtime_config=runtime_config,
        with_runtime=True,
    )
    if traced.output != base.output:
        raise MeasurementError(
            f"{name}: instrumented output {traced.output} != baseline "
            f"{base.output}"
        )
    return OverheadResult(
        name=name, base=base, traced=traced,
        text_growth=result.stats.size_growth,
    )


def geo_mean(ratios: list[float]) -> float:
    """Geometric mean, the paper's summary statistic for Table 1."""
    return geometric_mean(ratios)


def format_table(
    rows: list[tuple], headers: list[str], title: str = ""
) -> str:
    """Fixed-width table rendering for the benchmark reports."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)
