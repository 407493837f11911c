"""The registry contract, tested once for every name-addressable axis.

Topologies, workloads, fault plans and component kinds are each a
:class:`~repro.system.registry.Registry`; an axis differs only in its
error types, its instance type and whether it has a JSON form.  What a
factory does with its arguments, the schemas and the shipped files'
contents are tested with their own axis.
"""

import json

import pytest

import repro.system.components  # noqa: F401  (registers every component kind)
from repro.faults import (
    FAULT_PLANS,
    FaultSchemaError,
    UnknownFaultPlanError,
    fault_plan_by_name,
)
from repro.system import (
    COMPONENT_KINDS,
    TOPOLOGIES,
    TopologySchemaError,
    UnknownTopologyError,
    microbench_topology,
    topology_by_name,
)
from repro.system.registry import Registry
from repro.workloads import (
    WORKLOADS,
    UnknownWorkloadError,
    WorkloadSchemaError,
    resolve_workload,
)

#: axis -> (registry, unknown-name error, schema error)
AXES = {
    "topology": (TOPOLOGIES, UnknownTopologyError, TopologySchemaError),
    "workload": (WORKLOADS, UnknownWorkloadError, WorkloadSchemaError),
    "fault plan": (FAULT_PLANS, UnknownFaultPlanError, FaultSchemaError),
    "component kind": (COMPONENT_KINDS, ValueError, ValueError),
}
REF_AXES = ("topology", "workload", "fault plan")
JSON_AXES = ("topology", "fault plan")

#: A reference per axis whose entry exists but whose argument is out of range.
OUT_OF_RANGE = {"topology": "fanout(0)", "workload": "zipf(-1)", "fault plan": "link-degrade(0)"}


def _instance(axis):
    return {
        "topology": lambda: topology_by_name("fanout-2"),
        "workload": lambda: resolve_workload("zipf(64,1.2)"),
        "fault plan": lambda: fault_plan_by_name("storm"),
    }[axis]()


# ----------------------------- lookups --------------------------------
@pytest.mark.parametrize("axis", AXES)
def test_unknown_name_raises_the_axis_error_listing_every_name(axis):
    registry, unknown, _schema = AXES[axis]
    with pytest.raises(unknown) as err:
        registry.lookup("no-such-entry")
    assert type(err.value) is unknown
    message = str(err.value)
    assert message.startswith(f"unknown {registry.noun} 'no-such-entry'; registered: ")
    for name in registry.names():
        assert name in message


@pytest.mark.parametrize("axis", REF_AXES)
def test_an_unknown_reference_fails_to_validate_and_resolve(axis):
    registry, unknown, _schema = AXES[axis]
    with pytest.raises(unknown, match="'no-such-entry'"):
        registry.validate("no-such-entry(3)")
    with pytest.raises(unknown, match="'no-such-entry'"):
        registry.resolve("no-such-entry(3)")


@pytest.mark.parametrize("axis", AXES)
def test_a_taken_name_cannot_register_again(axis):
    registry = AXES[axis][0]
    with pytest.raises(ValueError, match="already registered"):
        registry.register(registry.names()[0])(lambda: None)


def test_description_is_the_first_docstring_line():
    registry = Registry("thing")

    @registry.register("documented")
    def documented():
        """First line.

        More detail.
        """

    registry.register("bare")(lambda: None)
    assert registry.names() == ("bare", "documented")
    assert registry.description("documented") == "First line."
    assert registry.description("bare") == ""


# ----------------------------- references -----------------------------
@pytest.mark.parametrize("axis", REF_AXES)
def test_reference_forms(axis):
    registry = AXES[axis][0]
    assert registry.parse_ref("zipf") == ("zipf", ())
    assert registry.parse_ref("fanout(4)") == ("fanout", (4,))
    assert registry.parse_ref("zipf(512,1.2)") == ("zipf", (512, 1.2))
    assert registry.parse_ref("supernode(2, 536870912)") == ("supernode", (2, 536870912))
    assert registry.parse_ref(" rw-mix( 64 , 0.5 ) ") == ("rw-mix", (64, 0.5))
    assert registry.parse_ref("a.b_c(-1, 2.25)") == ("a.b_c", (-1, 2.25))
    _name, args = registry.parse_ref("x(4, 4.0)")
    assert [type(arg) for arg in args] == [int, float]


@pytest.mark.parametrize(
    "bad", ["", "   ", 7, None, "x(", "x)", "x()", "x( )", "x(a)", "x(1,)", "x()()", "x(1)y"]
)
@pytest.mark.parametrize("axis", REF_AXES)
def test_malformed_references_raise_the_axis_schema_error(axis, bad):
    registry, _unknown, schema = AXES[axis]
    with pytest.raises(schema) as err:
        registry.parse_ref(bad)
    assert type(err.value) is schema
    with pytest.raises(schema):
        registry.validate(bad)


@pytest.mark.parametrize("axis", REF_AXES)
def test_validate_skips_argument_range_checks(axis):
    registry = AXES[axis][0]
    registry.validate(OUT_OF_RANGE[axis])  # the entry exists
    with pytest.raises(ValueError):  # its argument fails at resolve time
        registry.resolve(OUT_OF_RANGE[axis])


def test_every_entry_takes_positional_reference_arguments():
    assert TOPOLOGIES.resolve("microbench(7)") == microbench_topology(seed=7)


# ------------------------ instances and inline specs ------------------
@pytest.mark.parametrize("axis", REF_AXES)
def test_resolve_passes_instances_through(axis):
    registry = AXES[axis][0]
    instance = _instance(axis)
    registry.validate(instance)
    assert registry.resolve(instance) is instance
    with pytest.raises(TypeError, match="require a registered name"):
        registry.resolve(instance, seed=7)


@pytest.mark.parametrize("axis", JSON_AXES)
def test_resolve_parses_inline_specs(axis):
    registry, _unknown, schema = AXES[axis]
    instance = _instance(axis)
    inline = instance.to_dict()
    registry.validate(inline)
    assert registry.resolve(inline) == instance
    with pytest.raises(TypeError, match="require a registered name"):
        registry.resolve(inline, seed=7)
    with pytest.raises(schema, match="bogus"):
        registry.validate(dict(inline, bogus=1))


def test_an_axis_without_a_json_form_rejects_inline_specs():
    with pytest.raises(WorkloadSchemaError, match="non-empty string"):
        WORKLOADS.validate({"name": "inline"})


# ------------------------------ JSON files ----------------------------
@pytest.mark.parametrize("axis", JSON_AXES)
def test_load_reports_unreadable_files_and_invalid_json(axis, tmp_path):
    registry, _unknown, schema = AXES[axis]
    with pytest.raises(schema, match="cannot read"):
        registry.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(schema, match="invalid JSON"):
        registry.load(bad)


@pytest.mark.parametrize("axis", JSON_AXES)
def test_register_file_is_lazy_and_skips_broken_files_and_taken_names(
    axis, tmp_path, monkeypatch
):
    registry, _unknown, schema = AXES[axis]
    monkeypatch.setattr(registry, "factories", dict(registry.factories))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert registry.register_file(broken) is None
    listed = tmp_path / "listed.json"
    listed.write_text("[]")
    assert registry.register_file(listed) is None
    taken = tmp_path / "taken.json"
    taken.write_text(json.dumps({"name": registry.names()[0]}))
    assert registry.register_file(taken) is None

    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text(json.dumps({"description": "named by its file"}))
    assert registry.register_file(unnamed) == "unnamed"
    assert registry.description("unnamed") == "named by its file"
    assert registry.resolve("unnamed").name == "unnamed"

    # Schema problems surface at first use, not at registration.
    lazy = tmp_path / "lazy.json"
    lazy.write_text(json.dumps({"name": "lazy-bad", "bogus": 1}))
    assert registry.register_file(lazy) == "lazy-bad"
    with pytest.raises(schema, match="bogus"):
        registry.resolve("lazy-bad")
    with pytest.raises(TypeError, match="accepts no arguments"):
        registry.resolve("unnamed(2)")
    with pytest.raises(TypeError, match="accepts no arguments"):
        registry.resolve("unnamed", seed=7)


def test_register_dir_skips_a_missing_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(TOPOLOGIES, "factories", dict(TOPOLOGIES.factories))
    before = TOPOLOGIES.names()
    TOPOLOGIES.register_dir(tmp_path / "absent")
    assert TOPOLOGIES.names() == before


# --------------------------- family entries ---------------------------
def test_topology_families_are_registry_entries():
    assert {"fanout", "supernode"} <= set(TOPOLOGIES.names())
    assert TOPOLOGIES.description("fanout").startswith("``fanout(n)``")
    assert TOPOLOGIES.resolve("fanout") == TOPOLOGIES.resolve("fanout-2")
    assert len(TOPOLOGIES.resolve("fanout(3)").by_kind("cxl.type1")) == 3
    supernode = TOPOLOGIES.resolve("supernode(2, 536870912)")
    assert len(supernode.by_kind("supernode.host")) == 2
    assert supernode.node("fabric").params["memory_granule"] == 536870912
