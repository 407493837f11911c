"""Full-system integration scenarios crossing module boundaries."""

import numpy as np
import pytest

from repro.config import asic_system, fpga_system
from repro.core.cohet import CohetSystem, DeviceSpec
from repro.core.runtime import Kernel
from repro.cxl.device import DeviceType
from repro.kernel.page_table import PAGE_SIZE


def system_with_expander():
    return CohetSystem(
        asic_system(),
        host_nodes=2,
        devices=[
            DeviceSpec("xpu0", DeviceType.TYPE2, hdm_bytes=1 << 24),
            DeviceSpec("nic0", DeviceType.TYPE1),
            DeviceSpec("cmm0", DeviceType.TYPE3, hdm_bytes=1 << 24),
        ],
        host_bytes=1 << 26,
    )


def test_boot_enumerates_all_devices():
    system = system_with_expander()
    assert set(system.devices) == {"xpu0", "nic0", "cmm0"}
    windows = [e.bar_windows[0] for e in system.enumerated.values()]
    for a in windows:
        for b in windows:
            if a is not b:
                assert not a.overlaps(b)


def test_numa_layout_covers_all_memory():
    system = system_with_expander()
    kinds = [n.kind.value for n in system.numa.nodes]
    # 2 CPU nodes, 1 XPU node (type-2), 1 CPU-less expander node.
    assert kinds == ["cpu", "cpu", "xpu", "memory"]


def test_memif_routes_host_and_both_hdm_windows():
    system = system_with_expander()
    targets = set(system.memif.targets)
    assert targets == {"host", "xpu0", "cmm0"}


def test_producer_consumer_pipeline_cpu_to_xpu_and_back():
    """CPU produces, XPU transforms, CPU consumes — zero copies."""
    system = system_with_expander()
    p = system.process
    n = 128
    buf = p.malloc(n * 8)
    data = np.arange(n, dtype=np.float64)
    p.store_array(buf, data)

    def negate(ctx, _i, ptr, count):
        ctx.store_array(ptr, -np.asarray(ctx.load_array(ptr, "d", count)))

    queue = system.queue("xpu0")
    queue.enqueue_task(Kernel("negate", negate), buf, n)
    queue.finish()
    np.testing.assert_array_equal(np.asarray(p.load_array(buf, "d", n)), -data)


def test_migration_then_kernel_still_correct():
    """Pages migrated mid-workload stay consistent for both sides."""
    system = system_with_expander()
    p = system.process
    xpu_node = system.driver("xpu0").memory_node
    buf = p.malloc(2 * PAGE_SIZE)
    p.write_bytes(buf, b"stable-data", accessor_node=0)
    system.hmm.migrate_page(buf, target_node=xpu_node)
    assert system.page_table.entry(buf).node == xpu_node
    # Data survived the migration; both sides read it coherently.
    assert p.read_bytes(buf, 11, accessor_node=0) == b"stable-data"
    assert p.read_bytes(buf, 11, accessor_node=xpu_node) == b"stable-data"


def test_expander_node_usable_for_allocation():
    system = system_with_expander()
    p = system.process
    expander_node = system.numa.node(3)
    assert expander_node.kind.value == "memory"
    buf = p.malloc(PAGE_SIZE)
    # Explicit placement on the expander via accessor-node spoofing is
    # not the API; instead exhaust... simply allocate a frame directly.
    frame = system.numa.alloc_on(3)
    assert expander_node.owns_frame(frame)


def test_two_kernels_two_devices_in_parallel_queues():
    system = system_with_expander()
    p = system.process
    a = p.malloc(PAGE_SIZE)
    b = p.malloc(PAGE_SIZE)

    def tag(ctx, _i, ptr, token):
        ctx.write_bytes(ptr, token)

    q_xpu = system.queue("xpu0")
    q_cpu = system.queue("cpu")
    q_xpu.enqueue_task(Kernel("tag-xpu", tag), a, b"from-xpu")
    q_cpu.enqueue_task(Kernel("tag-cpu", tag), b, b"from-cpu")
    q_xpu.finish()
    q_cpu.finish()
    assert p.read_bytes(a, 8) == b"from-xpu"
    assert p.read_bytes(b, 8) == b"from-cpu"


def test_experiment_results_are_deterministic():
    """Same seeds -> identical experiment output (reproducibility)."""
    from repro.harness.experiments import fig13_load_latency

    first = fig13_load_latency(trials=2).series
    second = fig13_load_latency(trials=2).series
    assert first == second


def test_fabric_manager_tracks_system_devices():
    system = system_with_expander()
    assert system.fabric.free_xpus == 0  # all bound to host0
    assert sorted(system.fabric.holdings("host0")) == ["cmm0", "nic0", "xpu0"]
