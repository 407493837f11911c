"""Built-in fault plans.

Each factory returns a fresh :class:`~repro.faults.plan.FaultPlan`.
Plans are written to be *portable across topology families*: events
name both the fan-out elements (``dev0``, ``dev0--host``) and the
supernode elements (``host0``, ``host0--fabric``), and whichever
targets the installed topology lacks are inert — so one plan rides a
sweep grid that mixes both families.

Time windows are sized for the quick CI workloads (tens of
microseconds of simulated time): onsets a few microseconds in, paired
recoveries well before a typical run ends, so availability *and*
post-recovery settling are both exercised.
"""

from __future__ import annotations

from repro.faults.plan import (
    FAULT_PLANS,
    SHIPPED_FAULT_DIR,
    FaultEvent,
    FaultPlan,
    register_fault_plan,
)


@register_fault_plan("none")
def none_plan() -> FaultPlan:
    """No faults — the degraded-path baseline (must equal a plain run)."""
    return FaultPlan(
        name="none",
        description="fault-free baseline: the degraded machinery engaged, "
        "zero events — measurements must be bit-identical to a plain run",
    )


@register_fault_plan("link-degrade")
def link_degrade_plan(factor: float = 4.0) -> FaultPlan:
    """Primary link degrades by a latency factor, then recovers."""
    return FaultPlan(
        name=f"link-degrade-{factor:g}x",
        description=f"device/fabric link at {factor:g}x latency for 30us",
        events=(
            FaultEvent(
                "link_degrade", "dev0--host",
                at_ps=2_000_000, for_ps=30_000_000, factor=float(factor),
            ),
            FaultEvent(
                "link_degrade", "host0--fabric",
                at_ps=2_000_000, for_ps=30_000_000, factor=float(factor),
            ),
        ),
    )


@register_fault_plan("link-flap")
def link_flap_plan() -> FaultPlan:
    """Primary link flaps (50% duty, 2us period) for 24us, then recovers."""
    return FaultPlan(
        name="link-flap",
        description="device/fabric link flapping at 2us period, 50% duty",
        events=(
            FaultEvent(
                "link_flap", "dev0--host",
                at_ps=1_000_000, for_ps=24_000_000,
                period_ps=2_000_000, duty=0.5,
            ),
            FaultEvent(
                "link_flap", "host0--fabric",
                at_ps=1_000_000, for_ps=24_000_000,
                period_ps=2_000_000, duty=0.5,
            ),
        ),
    )


@register_fault_plan("host-outage")
def host_outage_plan() -> FaultPlan:
    """One supernode host goes down for 10us, NAKing accesses, then recovers."""
    return FaultPlan(
        name="host-outage",
        description="host0 down from 2us to 12us (coherent accesses NAK)",
        events=(
            FaultEvent("host_down", "host0", at_ps=2_000_000, for_ps=10_000_000),
        ),
    )


@register_fault_plan("dev-drop")
def dev_drop_plan() -> FaultPlan:
    """One fan-out device drops off the bus for 12us, then recovers."""
    return FaultPlan(
        name="dev-drop",
        description="dev0 unreachable from 3us to 15us",
        events=(
            FaultEvent("device_drop", "dev0", at_ps=3_000_000, for_ps=12_000_000),
        ),
    )


@register_fault_plan("msg-corrupt")
def msg_corrupt_plan(rate: float = 0.05) -> FaultPlan:
    """Lossy primary link: messages corrupt at a fixed rate, all run long."""
    return FaultPlan(
        name=f"msg-corrupt-{rate:g}",
        description=f"device/fabric link corrupting {rate:.0%} of messages",
        events=(
            FaultEvent("msg_corrupt", "dev0--host", rate=float(rate)),
            FaultEvent("msg_corrupt", "host0--fabric", rate=float(rate)),
        ),
    )


@register_fault_plan("storm")
def storm_plan() -> FaultPlan:
    """Everything at once: outage + degrade + flap + loss (the drill)."""
    return FaultPlan(
        name="storm",
        description="host0 outage, degraded fabric links, a flapping device "
        "link, and 2% message loss — the combined failure drill",
        events=(
            FaultEvent("host_down", "host0", at_ps=2_000_000, for_ps=8_000_000),
            FaultEvent(
                "link_degrade", "host1--fabric",
                at_ps=4_000_000, for_ps=20_000_000, factor=6.0,
            ),
            FaultEvent(
                "link_degrade", "dev0--host",
                at_ps=4_000_000, for_ps=20_000_000, factor=6.0,
            ),
            FaultEvent(
                "link_flap", "dev1--host",
                at_ps=1_000_000, for_ps=16_000_000,
                period_ps=2_000_000, duty=0.4,
            ),
            FaultEvent("msg_corrupt", "host0--fabric", rate=0.02),
            FaultEvent("msg_corrupt", "dev0--host", rate=0.02),
        ),
    )


# Shipped JSON plans join the registry after the built-ins, so a
# built-in name wins.
FAULT_PLANS.register_dir(SHIPPED_FAULT_DIR)
