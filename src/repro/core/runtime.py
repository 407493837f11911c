"""OpenCL-flavoured runtime for Cohet (§III-C.3).

Cohet keeps OpenCL's execution surface (command queues, ND-range kernel
launches, ``finish``) but drops the special memory-allocation APIs:
kernels dereference ordinary ``malloc`` pointers because the hardware
keeps CPU and XPU coherent.  Kernels here are Python callables invoked
per work-item with a :class:`KernelContext` exposing the process memory
through the accessor's NUMA node, so first-touch placement behaves as
it would on real Cohet hardware.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.unified_memory import CohetProcess


@dataclass
class ComputeDevice:
    """A compute pool member: the CPU pool or one XPU."""

    name: str
    numa_node: int
    is_xpu: bool
    work_item_ps: int = 2_000   # modeled cost per work-item


@dataclass
class Kernel:
    """A kernel: ``func(ctx, index, *args)`` invoked per work-item."""

    name: str
    func: Callable[..., None]


class KernelContext:
    """What a running kernel sees: memory routed via its device's node."""

    def __init__(self, process: CohetProcess, device: ComputeDevice) -> None:
        self.process = process
        self.device = device

    def load_array(self, vaddr: int, typecode: str, count: int):
        return self.process.load_array(vaddr, typecode, count, accessor_node=self.device.numa_node)

    def store_array(self, vaddr: int, values) -> None:
        self.process.store_array(vaddr, values, accessor_node=self.device.numa_node)

    def read_bytes(self, vaddr: int, size: int) -> bytes:
        return self.process.read_bytes(vaddr, size, accessor_node=self.device.numa_node)

    def write_bytes(self, vaddr: int, data: bytes) -> None:
        self.process.write_bytes(vaddr, data, accessor_node=self.device.numa_node)


@dataclass
class KernelEvent:
    """Completion record, OpenCL-event style."""

    kernel: str
    device: str
    global_size: int
    queued_ps: int
    start_ps: int
    end_ps: int

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


class CommandQueue:
    """An in-order command queue bound to one compute device."""

    def __init__(self, process: CohetProcess, device: ComputeDevice) -> None:
        self.process = process
        self.device = device
        self._pending: List[Tuple[Kernel, int, tuple]] = []
        self.events: List[KernelEvent] = []
        self._clock_ps = 0

    def enqueue_nd_range_kernel(self, kernel: Kernel, global_size: int, *args: Any) -> None:
        """clEnqueueNDRangeKernel: queue ``global_size`` work-items."""
        if global_size <= 0:
            raise ValueError("global_size must be positive")
        self._pending.append((kernel, global_size, args))

    def enqueue_task(self, kernel: Kernel, *args: Any) -> None:
        """Single work-item convenience (clEnqueueTask)."""
        self.enqueue_nd_range_kernel(kernel, 1, *args)

    def finish(self) -> List[KernelEvent]:
        """clFinish: run every queued kernel to completion, in order."""
        completed = []
        while self._pending:
            kernel, global_size, args = self._pending.pop(0)
            ctx = KernelContext(self.process, self.device)
            queued = self._clock_ps
            start = queued
            for index in range(global_size):
                kernel.func(ctx, index, *args)
            end = start + global_size * self.device.work_item_ps
            self._clock_ps = end
            event = KernelEvent(
                kernel=kernel.name,
                device=self.device.name,
                global_size=global_size,
                queued_ps=queued,
                start_ps=start,
                end_ps=end,
            )
            self.events.append(event)
            completed.append(event)
        return completed

    @property
    def idle(self) -> bool:
        return not self._pending
