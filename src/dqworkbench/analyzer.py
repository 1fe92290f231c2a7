"""Schema-level applicability analysis.

Given a procedure whose preconditions are structure constraints, computes
the minimal schema every outcome must extend, or reports that no outcome
exists. Works purely on schemas, so a whole sequence can be vetted before
touching any data. Total safety queries pin the arity of their relation:
growing such a relation would change the preserved answers, so a schema
that forces extra attributes onto a pinned relation is unsatisfiable.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .errors import UnsupportedPrecondition
from .model import Schema
from .constraints import (
    ConjunctiveQuery,
    StructureConstraint,
    demanded_attrs,
    is_compatible,
    structure_holds,
)
from .procedures import Procedure, preserved


class SchemaRequirement(NamedTuple):
    """Minimal outcome schema plus arity labels from total safety queries."""

    schema: Schema
    labels: tuple[tuple[str, int], ...]


class Failure(NamedTuple):
    reason: str


def min_schema(
    p: Procedure, s: Schema, *, allow_data_preconditions: bool = False
) -> Union[SchemaRequirement, Failure]:
    """Smallest schema every outcome extends, or Failure when none can exist.

    Scope rule: an outcome keeps every attribute the scope does not let
    change (`procedures.preserved`). A relation the scope does not name
    keeps all its attributes, one with a wildcard entry may lose them all,
    and one whose entries list attributes keeps the others; entries on one
    relation unite, and a wildcard entry wins. The safety queries and the
    postcondition add the attributes they name.

    Arity pin: a total safety query, filtered or not, keeps whole tuples
    of each relation it reads, so those relations keep exactly their
    input attributes, and demands beyond them are a Failure. The pin holds
    on empty relations too: the outcome checker types a total query's
    answers by the attributes of its relations.

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
    for q in p.safe:
        if not isinstance(q, ConjunctiveQuery):
            for rel in q.relations:
                required[rel] = set(s.attrs(rel))
                labels[rel] = len(s.attrs(rel))
    for rel, attrs in preserved(s, p.scope):
        required.setdefault(rel, set()).update(attrs)
    demanded_attrs(p.safe, required)
    demanded_attrs(p.post, required)
    for rel, limit in labels.items():
        if len(required[rel]) > limit:
            return Failure(
                f"{rel} is pinned to {limit} attributes but needs "
                f"{len(required[rel])}"
            )
    return SchemaRequirement(
        Schema.of(required), tuple(sorted(labels.items()))
    )


class SequenceReport(NamedTuple):
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
