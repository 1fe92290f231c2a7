"""Schema-level applicability analysis.

Given a procedure whose preconditions are structure constraints, computes
the minimal schema every outcome must extend, or reports that no outcome
exists. Works purely on schemas, so a whole sequence can be vetted before
touching any data. Total safety queries pin the arity of their relation:
growing such a relation would change the preserved answers, so a schema
that forces extra attributes onto a pinned relation is unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import UnsupportedPrecondition
from .model import Schema
from .constraints import (
    ConjunctiveQuery,
    Egd,
    FilteredTotalQuery,
    NamedAtom,
    StructureConstraint,
    Tgd,
    TotalConjQuery,
    TotalQuery,
    is_compatible,
    structure_holds,
)
from .procedures import Procedure


@dataclass(frozen=True)
class SchemaRequirement:
    """Minimal outcome schema plus arity labels from total safety queries."""

    schema: Schema
    labels: tuple[tuple[str, int], ...]

    @property
    def labels_dict(self) -> dict[str, int]:
        return dict(self.labels)


@dataclass(frozen=True)
class Failure:
    reason: str


@dataclass(frozen=True)
class RequirementPair:
    relation: str
    attributes: frozenset[str]


def _arity_pinned_relations(p: Procedure) -> list[str]:
    rels: list[str] = []
    for q in p.safe:
        if isinstance(q, TotalQuery):
            rels.append(q.relation)
        elif isinstance(q, FilteredTotalQuery):
            rels.append(q.relation)
        elif isinstance(q, TotalConjQuery):
            rels.extend(q.relations)
    return rels


def requirement_pairs(p: Procedure, s: Schema) -> list[RequirementPair]:
    """Attribute demands every outcome schema must honor."""
    pairs: list[RequirementPair] = []
    mentioned = {c.relation for c in p.scope}
    for rel in s.names:
        if rel not in mentioned:
            pairs.append(RequirementPair(rel, s.attrs(rel)))
    for c in p.scope:
        if not c.is_wildcard and s.defines(c.relation):
            pairs.append(
                RequirementPair(c.relation, s.attrs(c.relation) - set(c.attributes))
            )
    for q in p.safe:
        if isinstance(q, ConjunctiveQuery):
            for atom in q.atoms:
                if isinstance(atom, NamedAtom):
                    pairs.append(RequirementPair(atom.relation, atom.attrs))
    for c in p.post:
        if isinstance(c, (Tgd, Egd)):
            queries = [c.body, c.head] if isinstance(c, Tgd) else [c.body]
            for q in queries:
                for atom in q.atoms:
                    if isinstance(atom, NamedAtom):
                        pairs.append(RequirementPair(atom.relation, atom.attrs))
        elif isinstance(c, StructureConstraint) and not c.is_wildcard:
            pairs.append(RequirementPair(c.relation, frozenset(c.attributes)))
    return pairs


def min_schema(
    p: Procedure, s: Schema, *, allow_data_preconditions: bool = False
) -> Union[SchemaRequirement, Failure]:
    """Smallest schema every outcome extends, or Failure when none can exist.

    Data-level preconditions (dependencies) cannot be decided at the schema
    level. By default they are rejected; with allow_data_preconditions they
    are skipped, which keeps the minimal-schema bound sound but weakens the
    applicability claim to structural preconditions only.
    """
    structural = [c for c in p.pre if isinstance(c, StructureConstraint)]
    if len(structural) != len(p.pre) and not allow_data_preconditions:
        raise UnsupportedPrecondition(
            "schema-level analysis handles structure preconditions only"
        )
    for c in structural:
        if not structure_holds(c, s):
            return Failure(f"precondition on {c.relation} is not met by the schema")
    for q in p.safe:
        if not is_compatible(q, s):
            return Failure("a safety query does not fit the schema")

    required: dict[str, set[str]] = {}
    labels: dict[str, int] = {}
    for rel in _arity_pinned_relations(p):
        required[rel] = set(s.attrs(rel))
        labels[rel] = len(s.attrs(rel))
    for c in p.post:
        if isinstance(c, StructureConstraint) and c.is_wildcard:
            required.setdefault(c.relation, set())
    for pair in requirement_pairs(p, s):
        required.setdefault(pair.relation, set()).update(pair.attributes)
    for rel, limit in labels.items():
        if len(required[rel]) > limit:
            return Failure(
                f"{rel} is pinned to {limit} attributes but needs "
                f"{len(required[rel])}"
            )
    return SchemaRequirement(
        Schema.of(required), tuple(sorted(labels.items()))
    )


@dataclass(frozen=True)
class SequenceReport:
    applicable: bool
    chain: tuple[SchemaRequirement, ...]
    failure_index: int | None
    failure: Failure | None = None


def sequence_applicability(
    ps: Sequence[Procedure], s: Schema, *, allow_data_preconditions: bool = False
) -> SequenceReport:
    """Threads the minimal schema through the sequence, stopping at the first failure."""
    chain: list[SchemaRequirement] = [SchemaRequirement(s, ())]
    current = s
    for idx, p in enumerate(ps):
        step = min_schema(p, current, allow_data_preconditions=allow_data_preconditions)
        if isinstance(step, Failure):
            return SequenceReport(False, tuple(chain), idx, step)
        chain.append(step)
        current = step.schema
    return SequenceReport(True, tuple(chain), None)
