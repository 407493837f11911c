"""Tests for the OpenCL-flavoured runtime (the Fig. 4(c) model)."""

import numpy as np
import pytest

from repro.config import fpga_system
from repro.core.cohet import CohetSystem, DeviceSpec
from repro.core.runtime import Kernel
from repro.cxl.device import DeviceType


def small_system():
    return CohetSystem(
        fpga_system(),
        host_nodes=1,
        devices=[DeviceSpec("xpu0", DeviceType.TYPE2, hdm_bytes=1 << 24)],
        host_bytes=1 << 26,
    )


def test_axpy_on_xpu_matches_numpy():
    """The paper's running example: Y = a*X + Y with plain malloc."""
    system = small_system()
    p = system.process
    n = 256
    X = p.malloc(n * 4)
    Y = p.malloc(n * 4)
    x = np.random.default_rng(1).random(n, dtype=np.float32)
    y = np.random.default_rng(2).random(n, dtype=np.float32)
    p.store_array(X, x)
    p.store_array(Y, y)

    def axpy(ctx, _i, count, a, x_ptr, y_ptr):
        xs = np.asarray(ctx.load_array(x_ptr, "f", count))
        ys = np.asarray(ctx.load_array(y_ptr, "f", count))
        ctx.store_array(y_ptr, a * xs + ys)

    queue = system.queue("xpu0")
    queue.enqueue_task(Kernel("axpy", axpy), n, 2.0, X, Y)
    events = queue.finish()
    result = np.asarray(p.load_array(Y, "f", n))
    assert result.dtype == np.float32
    np.testing.assert_allclose(result, 2.0 * x + y, rtol=1e-6)
    assert events[0].kernel == "axpy"


def test_nd_range_runs_per_work_item():
    system = small_system()
    counter = []

    def count(ctx, index):
        counter.append(index)

    queue = system.queue("cpu")
    queue.enqueue_nd_range_kernel(Kernel("count", count), 16)
    queue.finish()
    assert counter == list(range(16))


def test_in_order_execution():
    system = small_system()
    order = []
    queue = system.queue("cpu")
    queue.enqueue_task(Kernel("a", lambda ctx, i: order.append("a")))
    queue.enqueue_task(Kernel("b", lambda ctx, i: order.append("b")))
    assert not queue.idle
    queue.finish()
    assert order == ["a", "b"]
    assert queue.idle


def test_event_timing_scales_with_global_size():
    system = small_system()
    queue = system.queue("xpu0")
    noop = Kernel("noop", lambda ctx, i: None)
    queue.enqueue_nd_range_kernel(noop, 10)
    queue.enqueue_nd_range_kernel(noop, 20)
    e1, e2 = queue.finish()
    assert e2.duration_ps == 2 * e1.duration_ps
    assert e2.start_ps == e1.end_ps


def test_invalid_global_size():
    system = small_system()
    queue = system.queue("cpu")
    with pytest.raises(ValueError):
        queue.enqueue_nd_range_kernel(Kernel("x", lambda ctx, i: None), 0)


def test_xpu_touch_places_pages_on_device_node():
    system = small_system()
    p = system.process
    xpu_node = system.driver("xpu0").memory_node
    buf = p.malloc(4096)

    def producer(ctx, _i, ptr):
        ctx.write_bytes(ptr, b"produced-by-xpu")

    queue = system.queue("xpu0")
    queue.enqueue_task(Kernel("produce", producer), buf)
    queue.finish()
    assert p.placement(buf, 4096) == {xpu_node: 4096}
    # The CPU can read it directly: one coherent pool, no copies.
    assert p.read_bytes(buf, 15, accessor_node=0) == b"produced-by-xpu"
