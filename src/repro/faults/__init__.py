"""Fault injection: declarative failure plans and degraded-mode runs.

The third declarative axis of a simulated scenario, alongside shape
(:mod:`repro.system`) and traffic (:mod:`repro.workloads`):

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`
  schemas and the named registry, which loads and dumps JSON plans and
  resolves sweep-grid references;
* :mod:`repro.faults.plans` — built-in plans (``none``,
  ``link-degrade``, ``link-flap``, ``host-outage``, ``dev-drop``,
  ``msg-corrupt``, ``storm``), then the shipped JSON plans;
* :mod:`repro.faults.controller` — :class:`FaultController` binding a
  plan to a built system, strict/degraded modes, :class:`RetryPolicy`,
  and availability/recovery metrics.

Importing this package registers every built-in plan plus any shipped
JSON plans under ``examples/faults/``.
"""

from repro.faults.controller import (
    MODES,
    FaultActiveError,
    FaultController,
    FaultStats,
    RetryPolicy,
)
from repro.faults.plan import (
    FAULT_PLANS,
    FaultEvent,
    FaultPlan,
    FaultSchemaError,
    UnknownFaultPlanError,
    corrupt_draw,
    fault_plan_by_name,
    load_fault_plan,
    register_fault_plan,
    resolve_fault_plan,
)
from repro.faults import plans as _plans  # noqa: F401  (registers every plan)

__all__ = [
    "MODES",
    "FAULT_PLANS",
    "FaultActiveError",
    "FaultController",
    "FaultEvent",
    "FaultPlan",
    "FaultSchemaError",
    "FaultStats",
    "RetryPolicy",
    "UnknownFaultPlanError",
    "corrupt_draw",
    "fault_plan_by_name",
    "load_fault_plan",
    "register_fault_plan",
    "resolve_fault_plan",
]
