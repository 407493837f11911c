"""Component base class: a named block bound to one simulator."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator


class Component:
    """Base class for every simulated hardware block."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    def schedule(self, delay_ps: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay_ps`` from now.

        Keeps the negative-delay guard: this is the generic entry point
        for arbitrary components, and silently rewinding simulated time
        would corrupt event ordering with no error.  Audited hot loops
        that guarantee non-negative delays call ``sim.schedule_after``
        directly.
        """
        if delay_ps < 0:
            raise ValueError(
                f"{self.name}: cannot schedule into the past (delay={delay_ps})"
            )
        self.sim.schedule_after(delay_ps, callback, args)

    def clock_mark(self) -> None:
        """Event callback that only moves the clock to its own time."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
