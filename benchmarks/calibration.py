"""Calibration kernels: fixed work timed next to every end-to-end measurement.

The machine this benchmark was tuned on (2 vCPUs shared with other tenants)
runs the same code up to 2x slower for minutes at a time, with process CPU
time inflated just as much as wall time, so neither clock alone tells a slower
program from a busier machine.  Each end-to-end timing is therefore taken
together with a kernel of the same kind of work, timed next to it, and reported
at the kernel's reference speed:

    reported = measured * kernel.reference_ms / kernel_ms

A change to the package leaves the kernels untouched, so a speed-up shows in
full; a busy machine slows measurement and kernel alike and cancels.  The
reference times are roughly the kernels' uncontended times on that machine,
so the reported figures read as about uncontended milliseconds there.  The raw
figures are printed next to them.
"""

from __future__ import annotations

import time


class InterpreterKernel:
    """Small numpy calls inside Python loops: the per-step work of a small
    trial and its estimation.  Its slowdown on a busy machine tracked that of
    cell_n50_T50 and the pipeline; a pure-Python loop's did not."""

    reference_ms = 0.15  # one call, uncontended
    calls = 20  # per sample next to an operation: about 3 ms

    def __init__(self):
        import numpy as np

        self.x = np.random.default_rng(0).standard_normal((200, 50))

    def work(self) -> float:
        total = 0.0
        for t in range(self.x.shape[1]):
            column = self.x[:, t]
            total += float(column @ column) + sum(range(200))
        return total

    def time_ms(self, calls: int | None = None) -> float:
        """Mean milliseconds per call over ``calls`` back-to-back calls."""
        calls = calls or self.calls
        started = time.perf_counter()
        for _ in range(calls):
            self.work()
        return (time.perf_counter() - started) * 1e3 / calls


class ArrayKernel(InterpreterKernel):
    """Streaming arithmetic over (100000, 8) float arrays: the memory-bound
    work of one step of an n = 100,000 trial."""

    reference_ms = 2.0  # one call, uncontended
    calls = 20  # about 40 ms; shorter samples were too noisy next to 2 s operations

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((100_000, 8))
        self.buf = np.empty_like(self.x)
        self.w = rng.standard_normal(8)
        self.np = np

    def work(self) -> float:
        np = self.np
        np.multiply(self.x, 0.7, out=self.buf)
        np.add(self.buf, self.x, out=self.buf)
        return float(np.einsum("nk,nk->", self.buf, self.buf) + (self.buf @ self.w).sum())


class DenseKernel(InterpreterKernel):
    """Dense solves and products on a (300, 300) matrix: the stacked-bread
    linear algebra that dominates a T = 200 replication (D = 799).  Its
    slowdown on a busy machine tracked cell_n50_T200's; the interpreter
    kernel's did not (quartile spreads over six seeds 0.042 against 0.092)."""

    reference_ms = 2.0  # one call, uncontended
    calls = 3  # about 6 ms

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((300, 300)) + 300 * np.eye(300)
        self.b = rng.standard_normal((300, 20))
        self.np = np

    def work(self) -> float:
        np = self.np
        return float(np.linalg.solve(self.a, self.b).sum() + (self.a @ self.a[:, :60]).sum())
