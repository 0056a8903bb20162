"""Host-speed calibration: a fixed piece of interpreter work, timed often.

The benchmark shares its host, whose speed drifts by tens of percent
over minutes as neighbours come and go.  A run therefore times this
kernel -- a tiny stack machine in plain Python (dict dispatch, closure
calls, list and attribute traffic, the mix the TBVM interpreter itself
runs on), which imports nothing from the program under test -- before
every crash and after every query round.  Their mean against
:data:`NOMINAL_MS` is the run's host speed; the end-to-end
wall-time metrics are reported at nominal speed, so a slow stretch of
host time does not read as a regression, while a slower program still
does (the kernel does not get slower with it).
"""

from __future__ import annotations

import gc
import time

#: The kernel's time on the reference host when idle (a 2-core x86-64
#: VM, CPython 3.11); calibrated seconds are seconds on that host.
NOMINAL_MS = 1.0

_OPS = {
    0: lambda stack, arg: stack.append(arg),
    1: lambda stack, arg: stack.append(stack.pop() + stack.pop()),
    2: lambda stack, arg: stack.append(stack.pop() * arg & 0xFFFF),
    3: lambda stack, arg: stack.pop(),
}
_PROGRAM = [(0, 3), (0, 5), (1, 0), (2, 7), (0, 1), (1, 0), (3, 0)] * 900


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next: "_Cell | None"):
        self.value = value
        self.next = next


def kernel() -> int:
    """The fixed work: 6300 dispatched stack-machine instructions."""
    ops = _OPS
    stack = [0]
    head = None
    regs: dict[int, int] = {}
    for i, (op, arg) in enumerate(_PROGRAM):
        ops[op](stack, arg)
        if i & 7 == 0:
            head = _Cell(i, head)
            regs[i & 31] = regs.get(i & 31, 0) + arg
    return len(stack) + head.value + len(regs)


def sample_ms() -> float:
    """Milliseconds one run of the kernel takes now.

    The collector is off meanwhile: a collection of the program's heap
    landing inside the kernel would make the program's garbage part of
    the host speed, and so excuse it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return 1000.0 * (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
