"""One registry class for every name-addressable axis of a scenario.

Topologies (:data:`repro.system.topology.TOPOLOGIES`), workloads
(:data:`repro.workloads.base.WORKLOADS`), fault plans
(:data:`repro.faults.plan.FAULT_PLANS`) and component kinds
(:data:`COMPONENT_KINDS`, below) are each a :class:`Registry`: factories
keyed by a short name.  The class decides how a value becomes an
instance, so harnesses, sweep grids and the CLI address every axis the
same way:

* a registered name (``"fanout-2"``) or a reference with positional
  numeric arguments (``"fanout(6)"``, ``"zipf(512, 1.2)"``) calls the
  factory with those arguments;
* an instance of the axis's type passes through;
* on an axis whose type has a JSON form (``from_dict``/``to_dict``), an
  inline mapping parses with full schema validation, and JSON files
  load, dump and register lazily under the name they declare.

Each axis keeps its own error types: an unknown name raises its
listing-style ``Unknown*Error``, a malformed reference or file its
``*SchemaError``.

Every buildable hardware block registers a factory in
:data:`COMPONENT_KINDS` under a kind string (``"cxl.type1"``,
``"nic.cxl_rao"``, ...).  A topology's
:class:`~repro.system.topology.NodeSpec` names one of these kinds, and
the :class:`~repro.system.builder.SystemBuilder` dispatches construction
through this table, so a new device type becomes buildable everywhere by
registering here.

This module is deliberately import-light (stdlib only): component
modules register themselves without import cycles, and the paper path
runs with nothing installed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple, Type, Union

_REF = re.compile(r"^(?P<name>[\w.-]+)\((?P<args>[^()]*)\)$")
_NUMBER = re.compile(r"^-?\d+(?:\.\d+)?$")


class Registry:
    """Factories by name, and the rules that turn a value into an instance.

    ``noun`` names the axis in messages; ``instance_type`` is the type
    whose instances pass through (``None``: none do).
    """

    def __init__(
        self,
        noun: str,
        instance_type: Optional[type] = None,
        unknown_error: Type[ValueError] = ValueError,
        schema_error: Type[ValueError] = ValueError,
    ) -> None:
        self.noun = noun
        self.instance_type = instance_type
        self.unknown_error = unknown_error
        self.schema_error = schema_error
        self.factories: Dict[str, Callable] = {}

    def register(self, name: str) -> Callable[[Callable], Callable]:
        """Decorator: register a factory under ``name``.

        Re-registering a name raises: a silent overwrite would make the
        registry depend on import order.
        """

        def decorate(factory: Callable) -> Callable:
            if name in self.factories:
                raise ValueError(f"{self.noun} {name!r} already registered")
            self.factories[name] = factory
            return factory

        return decorate

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.factories))

    def description(self, name: str) -> str:
        """First docstring line of a registered factory (for listings)."""
        doc = (self.lookup(name).__doc__ or "").strip().splitlines()
        return doc[0] if doc else ""

    def lookup(self, name: str) -> Callable:
        """The factory registered under ``name``; unknown names list the options."""
        try:
            return self.factories[name]
        except KeyError:
            raise self.unknown_error(
                f"unknown {self.noun} {name!r}; "
                f"registered: {', '.join(self.names())}"
            ) from None

    def parse_ref(self, ref: str) -> Tuple[str, Tuple[Union[int, float], ...]]:
        """``"zipf(512, 1.2)"`` → ``("zipf", (512, 1.2))``; a bare name gets ``()``.

        Ints stay ints and decimal tokens become floats.  A non-string,
        an empty argument list, a non-numeric token or anything else that
        fails the grammar raises the axis's schema error naming it.
        """
        if not isinstance(ref, str) or not ref.strip():
            raise self.schema_error(
                f"{self.noun} reference must be a non-empty string, got {ref!r}"
            )
        ref = ref.strip()
        if "(" not in ref and ")" not in ref:
            return ref, ()
        match = _REF.match(ref)
        if not match:
            raise self.schema_error(
                f"malformed {self.noun} reference {ref!r}; expected 'name' "
                "or 'name(arg, ...)' with numeric args"
            )
        tokens = [token.strip() for token in match.group("args").split(",")]
        if tokens == [""]:
            raise self.schema_error(
                f"{self.noun} reference {ref!r} has an empty argument list"
            )
        for token in tokens:
            if not _NUMBER.match(token):
                raise self.schema_error(
                    f"{self.noun} reference {ref!r}: argument {token!r} "
                    "is not a number"
                )
        args = tuple(float(token) if "." in token else int(token) for token in tokens)
        return match.group("name"), args

    def _direct(self, ref: object) -> Optional[object]:
        """The instance ``ref`` stands for without a factory call: ``ref``
        itself if it is one, parsed if it is an inline JSON spec on a JSON
        axis; ``None`` for a name or reference."""
        if self.instance_type is not None and isinstance(ref, self.instance_type):
            return ref
        if hasattr(self.instance_type, "from_dict") and isinstance(ref, Mapping):
            return self.instance_type.from_dict(ref)
        return None

    def validate(self, ref: object) -> None:
        """Check that ``ref`` is an instance, an inline spec, or names an entry.

        Reference *arguments* are not range-checked: a sweep spec with
        ``fanout(0)`` validates (the entry exists) and fails at run time
        inside that one spec, which per-spec failure isolation covers.
        """
        if self._direct(ref) is None:
            self.lookup(self.parse_ref(ref)[0])

    def resolve(self, ref: object, **overrides) -> object:
        """Turn an instance, inline spec, name or reference into an instance.

        A name or reference calls its factory with the reference's
        arguments plus ``overrides``; an instance or inline spec takes no
        overrides.
        """
        direct = self._direct(ref)
        if direct is not None:
            if overrides:
                raise TypeError(
                    f"{self.noun} overrides require a registered name, "
                    f"not a {type(ref).__name__}"
                )
            return direct
        name, args = self.parse_ref(ref)
        return self.lookup(name)(*args, **overrides)

    # -- JSON axes ------------------------------------------------------
    def load(self, path: Union[str, Path]) -> object:
        """Load and schema-validate one JSON spec file.

        Unreadable files, invalid JSON and schema violations all raise
        the axis's schema error naming the file.  The file's stem names
        a spec that declares no ``"name"``.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise self.schema_error(f"cannot read {self.noun} {path}: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise self.schema_error(f"invalid JSON in {path}: {exc}") from None
        return self.instance_type.from_dict(data, default_name=path.stem)

    def dump(self, instance: object, path: Optional[Union[str, Path]] = None) -> str:
        """``instance`` as JSON text that :meth:`load` round-trips
        bit-identically, written to ``path`` if given."""
        text = json.dumps(instance.to_dict(), indent=2, sort_keys=True) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    def register_file(self, path: Union[str, Path]) -> Optional[str]:
        """Register a JSON spec file under the name it declares.

        Only the name and description are read now; the spec is parsed
        and schema-checked at first use, so a broken file never breaks
        import: it surfaces at first use or through ``repro topology|fault
        validate``.  The entry takes no arguments.  Returns the name, or
        ``None`` when the file is skipped: unparseable, or its name is
        taken.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, Mapping):
            return None
        name = data.get("name") or path.stem
        if not isinstance(name, str) or name in self.factories:
            return None

        def factory(*args, **overrides) -> object:
            if args or overrides:
                raise TypeError(
                    f"{self.noun} {name!r} is loaded from {path.name} "
                    "and accepts no arguments"
                )
            return self.load(path)

        description = data.get("description")
        factory.__doc__ = (
            description if isinstance(description, str) and description
            else f"JSON {self.noun} from {path.name}"
        )
        self.factories[name] = factory
        return name

    def register_dir(self, directory: Path) -> None:
        """Register every ``*.json`` file in ``directory``, if it exists."""
        if directory.is_dir():
            for path in sorted(directory.glob("*.json")):
                self.register_file(path)


#: ``factory(builder, system, spec) -> component`` by kind; the returned
#: object becomes ``system.nodes[spec.name]``.
COMPONENT_KINDS = Registry("component kind")
register_component = COMPONENT_KINDS.register
component_factory = COMPONENT_KINDS.lookup
