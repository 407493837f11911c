"""Discrete-event simulation kernel used by every SimCXL subsystem.

Time is an integer number of picoseconds, which lets multiple clock
domains (e.g. a 400 MHz FPGA device and a 2.4 GHz host) coexist without
floating-point drift.
"""

from repro.sim.engine import Simulator
from repro.sim.component import Component
from repro.sim.queueing import BoundedQueue, QueueFullError
from repro.sim.stats import Histogram

__all__ = [
    "Simulator",
    "Component",
    "BoundedQueue",
    "QueueFullError",
    "Histogram",
]
