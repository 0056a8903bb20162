"""The benchmark's inputs: seeded crash corpora, one per workload.

Every crash is a MiniC program (or, for a chain, three of them) with a
planted first fault whose source line the benchmark knows, because it
generated the source.  The program under test only ever receives the
generated sources; the seed stays on this side.

Four kinds of crash feed the workloads in different proportions:

* ``kernel`` -- a SPECint-analog kernel (or the IL-mode jbb warehouse
  program) run to completion, then a planted divide-by-zero at the end
  of ``main``: millions of instructions, rings that wrap many times;
* ``crasher`` -- a :func:`repro.workloads.randomgen.random_crasher`
  program: short, multithreaded, a new module every time;
* ``chain`` -- the three-machine RPC chain of
  :func:`repro.chaos.scenarios.build_federated_fleet` (client ->
  frontend -> backend, group-snap fan-out, machines split over two
  regional vaults) with seeded constants and per-crash names, so every
  chain is a distinct incident;
* ``recorded`` -- a multithreaded crasher with long lock-contended
  loops, run with the nondeterminism recorder on so its bucket can be
  verified by replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.jbb import JBB_TEMPLATE
from repro.workloads.randomgen import random_crasher
from repro.workloads.specint import benchmark_named

#: Regional vaults, and which machines drain into which (the
#: build_federated_fleet layout: a chain incident spans both).
REGIONS = {
    "vault-east": ("machine-a", "machine-b", "host-0"),
    "vault-west": ("machine-c", "host-1"),
}

#: Chain topology: (machine, clock skew, role), caller -> callee order.
CHAIN_MACHINES = (
    ("machine-a", 0, "client"),
    ("machine-b", 1_000_000, "frontend"),
    ("machine-c", -500_000, "backend"),
)

#: Marker comment on every planted fault; its line is the expected
#: first-fault line of the diagnosis.
FAULT_MARK = "// planted fault"


@dataclass
class Program:
    """One MiniC module of a crash."""

    module: str
    source: str
    #: IL mode: compiled with bounds checks, instrumented with line
    #: probes (the managed-language path); native otherwise.
    il: bool = False

    @property
    def file(self) -> str:
        return f"{self.module}.c"

    def fault_line(self) -> int | None:
        """1-based line of the planted fault, None when it has none."""
        for number, line in enumerate(self.source.splitlines(), start=1):
            if FAULT_MARK in line:
                return number
        return None


@dataclass
class Crash:
    """One crash the chain carries from source to diagnosis."""

    name: str
    kind: str
    programs: list[Program]
    #: Region whose vault receives the snap (single-process kinds).
    region: str = "vault-east"
    machine: str = "host-0"
    #: File and line the rendered diagnosis must point at.
    fault: tuple[str, int] = ("", 0)
    recorded: bool = False

    @property
    def program(self) -> Program:
        return self.programs[0]


def _with_fault(program: Program) -> tuple[str, int]:
    line = program.fault_line()
    if line is None:
        raise ValueError(f"{program.module}: no planted fault")
    return (program.file, line)


# ----------------------------------------------------------------------
# kernel: SPECint analogs and jbb, each with a fault at the end of main
# ----------------------------------------------------------------------
#: The interpreter benchmark's spread of loop, pointer, branch and call
#: shapes: gzip (tight loop), mcf (pointer chasing), crafty (branches),
#: gap (calls).
KERNELS = ("gzip", "mcf", "crafty", "gap")

#: jbb scale: warehouses (threads) and transactions per warehouse.
JBB_WAREHOUSES = 2
JBB_TXNS = 400


def _planted_main(rng: random.Random) -> str:
    """A ``main`` that runs the kernel once, then faults.

    The seed picks the guard value and how many bookkeeping lines sit
    before the fault, so the fault line moves from seed to seed.
    """
    guard = rng.randrange(3, 997)
    padding = [
        f"    guard = guard + {rng.randrange(1, 9)};"
        for _ in range(rng.randrange(1, 4))
    ]
    total = guard + sum(int(p.split("+ ")[1].rstrip(";")) for p in padding)
    return "\n".join(
        [
            "int main() {",
            "    int guard;",
            "    kernel_main();",
            f"    guard = {guard};",
            *padding,
            "    print_int(guard);",
            f"    print_int(100 / (guard - {total}));  {FAULT_MARK}",
            "    return 0;",
            "}",
            "",
        ]
    )


def kernel_crash(name: str, rng: random.Random, index: int,
                 jbb_txns: int = JBB_TXNS) -> Crash:
    """One SPECint-analog kernel (or jbb) with a planted fault."""
    if name == "jbb":
        body = JBB_TEMPLATE.format(warehouses=JBB_WAREHOUSES, txns=jbb_txns)
        il = True
    else:
        body = benchmark_named(name).source
        il = False
    body = body.replace("int main()", "int kernel_main()", 1)
    program = Program(
        module=f"{name}_{index}", source=body + _planted_main(rng), il=il
    )
    region = list(REGIONS)[index % 2]
    return Crash(
        name=program.module,
        kind="kernel",
        programs=[program],
        region=region,
        machine=REGIONS[region][-1],
        fault=_with_fault(program),
    )


# ----------------------------------------------------------------------
# crasher: random_crasher programs
# ----------------------------------------------------------------------
def crasher_crash(seed: int, index: int) -> Crash:
    """A seeded random multithreaded crasher (its division is the fault)."""
    source = random_crasher(seed)
    lines = source.splitlines()
    marked = [
        line + f"  {FAULT_MARK}" if "100 / (i - " in line else line
        for line in lines
    ]
    program = Program(module=f"rc_{index}", source="\n".join(marked) + "\n")
    region = list(REGIONS)[index % 2]
    return Crash(
        name=program.module,
        kind="crasher",
        programs=[program],
        region=region,
        machine=REGIONS[region][-1],
        fault=_with_fault(program),
    )


# ----------------------------------------------------------------------
# recorded: long lock-contended multithreaded crashers
# ----------------------------------------------------------------------
#: Worker threads and loop length of a recorded crasher.
RECORDED_WORKERS = 3
RECORDED_ITERS = 1500


#: Lock periods of recorded crashers, cycled by index: the shape mix of
#: a corpus depends on its size, never on the seed.
RECORDED_PERIODS = (4, 8, 16)


def recorded_crash(rng: random.Random, index: int, iters: int) -> Crash:
    """Workers grind a lock-contended loop, then all divide by zero."""
    op = rng.choice(("+", "-", "*"))
    period = RECORDED_PERIODS[index % len(RECORDED_PERIODS)]
    program = Program(
        module=f"rv_{index}",
        source="\n".join(
            [
                "int shared[8];",
                "",
                "int worker(int wid) {",
                "    int i;",
                "    int acc;",
                f"    acc = wid + {rng.randrange(1, 50)};",
                f"    for (i = 0; i < {iters}; i = i + 1) {{",
                f"        acc = acc {op} i * {rng.randrange(2, 9)};",
                f"        if (i % {period} == 0) {{",
                "            lock(1);",
                "            shared[wid % 8] = shared[wid % 8] + acc;",
                "            unlock(1);",
                "        }",
                "    }",
                f"    return 1000 / (acc - acc);  {FAULT_MARK}",
                "}",
                "",
                "int main() {",
                "    int t;",
                f"    print_int({rng.randrange(1000)});",
                f"    for (t = 0; t < {RECORDED_WORKERS}; t = t + 1) {{",
                "        thread_create(worker, t);",
                "    }",
                "    sleep(40000000);",
                "    return 0;",
                "}",
                "",
            ]
        ),
    )
    region = list(REGIONS)[index % 2]
    return Crash(
        name=program.module,
        kind="recorded",
        programs=[program],
        region=region,
        machine=REGIONS[region][-1],
        fault=_with_fault(program),
        recorded=True,
    )


# ----------------------------------------------------------------------
# chain: the three-machine RPC chain
# ----------------------------------------------------------------------
def chain_crash(rng: random.Random, index: int) -> Crash:
    """client -> frontend -> backend; the client divides by zero."""
    arg = rng.randrange(5, 90)
    client = Program(
        module=f"client_{index}",
        source="\n".join(
            [
                "int argbuf[1];",
                "int retbuf[1];",
                "int main() {",
                f"    argbuf[0] = {arg};",
                "    int status;",
                "    int z;",
                "    status = rpc_call(7, argbuf, 1, retbuf, 1);",
                "    print_int(status);",
                f"    z = 1 / (retbuf[0] - {(arg + 1) * 2});  {FAULT_MARK}",
                "    return 0;",
                "}",
                "",
            ]
        ),
    )
    frontend = Program(
        module=f"frontend_{index}",
        source="\n".join(
            [
                "int argbuf[1];",
                "int retbuf[1];",
                "int handle(int argaddr, int arglen, int retaddr, int retcap) {",
                "    int value;",
                "    int status;",
                "    value = peek(argaddr);",
                "    argbuf[0] = value + 1;",
                "    status = rpc_call(8, argbuf, 1, retbuf, 1);",
                "    poke(retaddr, retbuf[0]);",
                "    return status;",
                "}",
                "",
            ]
        ),
    )
    backend = Program(
        module=f"backend_{index}",
        source="\n".join(
            [
                "int handle(int argaddr, int arglen, int retaddr, int retcap) {",
                "    poke(retaddr, peek(argaddr) * 2);",
                "    return 0;",
                "}",
                "",
            ]
        ),
    )
    return Crash(
        name=f"chain_{index}",
        kind="chain",
        programs=[client, frontend, backend],
        fault=_with_fault(client),
    )


# ----------------------------------------------------------------------
# Workload mixes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mix:
    """How many crashes of each kind one pass of a workload carries."""

    kernels: tuple[str, ...] = ()
    crashers: int = 0
    chains: int = 0
    recorded: int = 0
    recorded_iters: int = RECORDED_ITERS
    jbb_txns: int = JBB_TXNS
    #: Rounds of the engineer's query mix (11 queries) after each crash,
    #: and how often the engineer opens each diagnosis and verification:
    #: more samples where a workload has few crashes per pass.
    query_rounds: int = 1
    #: Also run the query rounds after each single-process guest run
    #: (bare and instrumented), for workloads whose crashes are long.
    query_during_runs: bool = False
    #: Earlier incidents re-diagnosed after each crash, and every how
    #: many crashes an earlier replayable bucket is verified again (0:
    #: never): more latency samples, spread over more of the pass.
    rediagnoses: int = 0
    reverify_every: int = 0


#: The three workloads.  Every workload carries every kind of crash, so
#: each reports every metric; the proportions decide which layer
#: carries the work (see README.md).
WORKLOADS = {
    "long-crash": Mix(kernels=KERNELS + ("jbb",), chains=1, recorded=3,
                      recorded_iters=300, query_rounds=2,
                      query_during_runs=True, rediagnoses=4, reverify_every=1),
    "crash-fleet": Mix(crashers=60, chains=6, recorded=3, recorded_iters=300,
                       reverify_every=8),
    "replay-verify": Mix(crashers=2, chains=1, recorded=9, query_rounds=3,
                         rediagnoses=2),
}

#: Tiny mixes of the same shapes, for the benchmark's own tests.
TINY = {
    "long-crash": Mix(kernels=("jbb",), chains=1, recorded=1,
                      recorded_iters=60, jbb_txns=5),
    "crash-fleet": Mix(crashers=3, chains=1, recorded=1, recorded_iters=60),
    "replay-verify": Mix(crashers=1, chains=1, recorded=2, recorded_iters=60),
}


def build_corpus(mix: Mix, seed: int) -> list[Crash]:
    """The crashes of one pass, in the order they are carried.

    Recorded crashes come first (later steps re-verify their buckets);
    chains are spread evenly through the rest.
    """
    rng = random.Random(seed)
    recorded = [
        recorded_crash(rng, i, mix.recorded_iters)
        for i in range(mix.recorded)
    ]
    singles = [
        kernel_crash(name, rng, i, mix.jbb_txns)
        for i, name in enumerate(mix.kernels)
    ]
    singles += [
        crasher_crash(rng.randrange(1 << 30), i) for i in range(mix.crashers)
    ]
    chains = [chain_crash(rng, i) for i in range(mix.chains)]
    crashes = list(recorded)
    placed = 0
    for i, crash in enumerate(singles, start=1):
        crashes.append(crash)
        while placed < i * len(chains) // len(singles):
            crashes.append(chains[placed])
            placed += 1
    return crashes + chains[placed:]
