"""Declarative experiment and sweep specifications.

An :class:`ExperimentSpec` names one experiment invocation: the
registry id, a JSON-representable ``params`` dict of config overrides
(profile, trials, sizes, messages, ...), a repeat index, and a derived
seed.  A :class:`SweepSpec` bundles groups of experiments with
per-group fixed params plus a grid of swept params, and expands them
(grid product x repeats) into the flat spec list the runner executes.

Specs are content-addressed: :attr:`ExperimentSpec.spec_hash` digests
the canonical JSON form, which is what the result store keys cached
results on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Union


class SpecError(ValueError):
    """A sweep spec is malformed or names unknown experiments/params."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One concrete experiment invocation produced by sweep expansion."""

    experiment: str
    params: Mapping[str, object] = field(default_factory=dict)
    repeat: int = 0
    seed: int = 0

    def canonical(self) -> Dict[str, object]:
        """JSON-stable dict form (params key-sorted) used for hashing."""
        return {
            "experiment": self.experiment,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "repeat": self.repeat,
            "seed": self.seed,
        }

    @property
    def spec_hash(self) -> str:
        """Content hash identifying this spec in the result store."""
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @property
    def label(self) -> str:
        """Short human-readable id, e.g. ``fig13[trials=2]#1``."""
        params = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        suffix = f"#{self.repeat}" if self.repeat else ""
        return f"{self.experiment}[{params}]{suffix}" if params else (
            f"{self.experiment}{suffix}"
        )


@dataclass
class SweepGroup:
    """One experiment plus its fixed params and swept param grid."""

    experiment: str
    params: Dict[str, object] = field(default_factory=dict)
    grid: Dict[str, List[object]] = field(default_factory=dict)

    def combos(self) -> Iterable[Dict[str, object]]:
        """Fixed params merged with every grid-product combination."""
        if not self.grid:
            yield dict(self.params)
            return
        keys = sorted(self.grid)
        for values in itertools.product(*(self.grid[k] for k in keys)):
            combo = dict(self.params)
            combo.update(zip(keys, values))
            yield combo


@dataclass
class SweepSpec:
    """A named collection of experiment groups to expand and run."""

    name: str
    groups: List[SweepGroup]
    repeats: int = 1
    base_seed: int = 1234

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Parse the JSON spec format (see ``presets.py`` for examples)."""
        if not isinstance(data, Mapping):
            raise SpecError("sweep spec must be a JSON object")
        try:
            raw_groups = data["experiments"]
        except KeyError:
            raise SpecError("sweep spec missing 'experiments' list") from None
        if not isinstance(raw_groups, Sequence) or isinstance(raw_groups, str):
            raise SpecError("'experiments' must be a list of groups")
        groups = []
        for entry in raw_groups:
            if isinstance(entry, str):
                entry = {"experiment": entry}
            if not isinstance(entry, Mapping):
                raise SpecError(
                    f"experiment group must be an id or object: {entry!r}"
                )
            if "experiment" not in entry:
                raise SpecError(f"group missing 'experiment' id: {entry!r}")
            raw_params = entry.get("params", {})
            if not isinstance(raw_params, Mapping):
                raise SpecError(f"'params' must be an object: {raw_params!r}")
            raw_grid = entry.get("grid", {})
            if not isinstance(raw_grid, Mapping):
                raise SpecError(
                    f"'grid' must be an object of value lists: {raw_grid!r}"
                )
            grid = {}
            for key, values in raw_grid.items():
                if isinstance(values, (str, bytes)) or not isinstance(
                    values, Sequence
                ):
                    raise SpecError(
                        f"grid values must be lists; got {key}={values!r}"
                    )
                grid[key] = list(values)
            groups.append(
                SweepGroup(
                    experiment=entry["experiment"],
                    params=dict(raw_params),
                    grid=grid,
                )
            )
        try:
            repeats = int(data.get("repeats", 1))
            base_seed = int(data.get("base_seed", 1234))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"repeats/base_seed must be integers: {exc}") from None
        return cls(
            name=str(data.get("name", "sweep")),
            groups=groups,
            repeats=repeats,
            base_seed=base_seed,
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON in {path}: {exc}") from exc
        spec = cls.from_dict(data)
        if spec.name == "sweep":
            spec.name = path.stem
        return spec

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "base_seed": self.base_seed,
            "experiments": [
                {
                    "experiment": g.experiment,
                    "params": dict(g.params),
                    "grid": {k: list(v) for k, v in g.grid.items()},
                }
                for g in self.groups
            ],
        }

    #: Param key whose values are topology references, validated against
    #: the topology registry/families so a typo'd layout name fails the
    #: sweep up-front like a typo'd experiment parameter does.
    TOPOLOGY_PARAM = "topology"

    #: Param key whose values are workload references, validated against
    #: the workload registry with the same fail-up-front contract.
    WORKLOAD_PARAM = "workload"

    #: Param key whose values are fault-plan references, validated
    #: against the fault-plan registry with the same fail-up-front
    #: contract (inline plan dicts schema-validate in full).
    FAULT_PARAM = "fault"

    #: Param key carrying the experiment's RNG seed.  Pinning or
    #: sweeping it is allowed (ints only), and doing so disables the
    #: automatic per-repeat seed injection for that group — explicit
    #: seeds win over derived ones.
    SEED_PARAM = "seed"

    def validate(self) -> None:
        """Check every group against the experiment registry up-front."""
        from repro.harness.experiments import spec_parameters

        if not self.groups:
            raise SpecError(f"sweep {self.name!r} has no experiment groups")
        if self.repeats < 1:
            raise SpecError("repeats must be >= 1")
        for group in self.groups:
            try:
                accepted = spec_parameters(group.experiment)
            except KeyError as exc:
                raise SpecError(str(exc)) from None
            unknown = sorted(
                (set(group.params) | set(group.grid)) - set(accepted)
            )
            if unknown:
                raise SpecError(
                    f"experiment {group.experiment!r} does not accept "
                    f"parameter(s) {', '.join(unknown)}; "
                    f"accepted: {sorted(accepted)}"
                )
            self._validate_topology_refs(group)
            self._validate_workload_refs(group)
            self._validate_fault_refs(group)
            self._validate_seed_axis(group)

    @classmethod
    def _axis_values(cls, group: SweepGroup, param: str) -> List[object]:
        refs = []
        if param in group.params:
            refs.append(group.params[param])
        refs.extend(group.grid.get(param, ()))
        return refs

    def _validate_topology_refs(self, group: SweepGroup) -> None:
        """Fail up-front on topology axes that name no registered layout.

        A topology value may also be an *inline* JSON spec (a node/link
        object straight in the grid) — those schema-validate in full.
        Family *arguments* stay unchecked (a bad ``fanout(0)`` fails at
        run time inside its own spec, covered by failure isolation).
        """
        refs = self._axis_values(group, self.TOPOLOGY_PARAM)
        if not refs:
            return
        from repro.system.topology import validate_topology_ref

        for ref in refs:
            try:
                validate_topology_ref(ref)
            except ValueError as exc:
                raise SpecError(
                    f"experiment {group.experiment!r}: {exc}"
                ) from None

    def _validate_workload_refs(self, group: SweepGroup) -> None:
        """Fail up-front on workload axes that name no registered generator."""
        refs = self._axis_values(group, self.WORKLOAD_PARAM)
        if not refs:
            return
        from repro.workloads import validate_workload_ref

        for ref in refs:
            try:
                validate_workload_ref(ref)
            except ValueError as exc:
                raise SpecError(
                    f"experiment {group.experiment!r}: {exc}"
                ) from None

    def _validate_fault_refs(self, group: SweepGroup) -> None:
        """Fail up-front on fault axes that name no registered plan.

        A fault value may also be an *inline* JSON plan (an event
        timeline straight in the grid) — those schema-validate in
        full.  Factory *arguments* stay unchecked (a bad
        ``link-degrade(0)`` fails at run time inside its own spec,
        covered by failure isolation).
        """
        refs = self._axis_values(group, self.FAULT_PARAM)
        if not refs:
            return
        from repro.faults import validate_fault_ref

        for ref in refs:
            try:
                validate_fault_ref(ref)
            except ValueError as exc:
                raise SpecError(
                    f"experiment {group.experiment!r}: {exc}"
                ) from None

    def _validate_seed_axis(self, group: SweepGroup) -> None:
        """Fail up-front on non-integer ``seed`` axis values."""
        for value in self._axis_values(group, self.SEED_PARAM):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError(
                    f"experiment {group.experiment!r}: seed must be an "
                    f"integer, got {value!r}"
                )

    def _seed_param_experiments(self) -> set:
        """Experiments in this sweep whose signature accepts ``seed``."""
        from repro.harness.experiments import spec_parameters

        accepting = set()
        for group in self.groups:
            try:
                accepted = spec_parameters(group.experiment)
            except KeyError:
                continue  # unknown experiment: validate() reports it
            if self.SEED_PARAM in accepted:
                accepting.add(group.experiment)
        return accepting

    def expand(self) -> List[ExperimentSpec]:
        """Grid product x repeats -> flat, deterministically-seeded specs.

        Seeds derive from the spec content (not its position in the
        expansion), so reordering groups in a sweep file does not
        invalidate the cache.

        With ``repeats > 1``, the derived per-repeat seed is also
        *injected* as a ``seed`` param for experiments that accept one
        (and don't pin or sweep it themselves), so each repeat draws a
        distinct deterministic sample instead of re-measuring the same
        point.  Single-repeat expansion never injects, keeping existing
        sweeps' spec hashes — and their cached results — untouched.
        """
        inject = (
            self._seed_param_experiments() if self.repeats > 1 else set()
        )
        specs: List[ExperimentSpec] = []
        for group in self.groups:
            for combo in group.combos():
                for repeat in range(self.repeats):
                    content = json.dumps(
                        [group.experiment, sorted(combo.items()), repeat],
                        sort_keys=True,
                        default=str,
                    )
                    seed = (
                        self.base_seed * 1_000_003 + zlib.crc32(content.encode())
                    ) % 2**31
                    params = combo
                    if (
                        group.experiment in inject
                        and self.SEED_PARAM not in combo
                    ):
                        params = dict(combo)
                        params[self.SEED_PARAM] = seed
                    specs.append(
                        ExperimentSpec(
                            experiment=group.experiment,
                            params=params,
                            repeat=repeat,
                            seed=seed,
                        )
                    )
        return specs
