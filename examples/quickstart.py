#!/usr/bin/env python3
"""Quickstart: the Fig. 4(c) programming model.

Builds a Cohet system (one CPU pool + one type-2 XPU over CXL), then
runs AXPY (Y = a*X + Y) exactly the way the paper's listing does:
plain ``malloc`` for both buffers, a kernel launch on the XPU, and the
CPU consuming the result directly — no cudaMemcpy, no pinned buffers,
no unified-memory page faults.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CohetSystem, Kernel, asic_system

N = 4096
ALPHA = 2.5


def axpy_kernel(ctx, _work_item, n, alpha, x_ptr, y_ptr):
    """The XPU kernel: operates on ordinary malloc'd pointers."""
    x = np.asarray(ctx.load_array(x_ptr, "f", n))   # "f": C float, as in the listing
    y = np.asarray(ctx.load_array(y_ptr, "f", n))
    ctx.store_array(y_ptr, alpha * x + y)


def main():
    system = CohetSystem.build_default(asic_system())
    process = system.process

    # 1. Allocate coherent memory for X and Y (plain malloc).
    x_ptr = process.malloc(N * 4)
    y_ptr = process.malloc(N * 4)
    rng = np.random.default_rng(42)
    x = rng.random(N, dtype=np.float32)
    y = rng.random(N, dtype=np.float32)
    process.store_array(x_ptr, x)   # CPU first-touch: pages land on the CPU node
    process.store_array(y_ptr, y)

    # 2. Launch the AXPY kernel to a designated XPU.
    queue = system.queue("xpu0")
    queue.enqueue_task(Kernel("axpy", axpy_kernel), N, ALPHA, x_ptr, y_ptr)
    events = queue.finish()

    # 3. CPU consumes Y — same pointer, hardware-coherent.
    result = np.asarray(process.load_array(y_ptr, "f", N))
    expected = ALPHA * x + y
    assert np.allclose(result, expected, rtol=1e-6)

    print("AXPY on Cohet: OK")
    print(f"  elements            : {N}")
    print(f"  kernel device       : {events[0].device}")
    print(f"  kernel time (model) : {events[0].duration_ps / 1e6:.3f} us")
    print(f"  X placement (bytes per NUMA node): {process.placement(x_ptr, N * 4)}")
    print(f"  resident / mapped   : {process.resident_bytes()} / {process.mapped_bytes()} bytes")
    print(f"  max |err|           : {np.abs(result - expected).max():.2e}")

    process.free(x_ptr)
    process.free(y_ptr)


if __name__ == "__main__":
    main()
