"""Shared fixtures: the hospital-visit running example used across the suite,
and the conjunctive-query constructors the tests build queries with."""

from __future__ import annotations

from typing import Iterable

import pytest

from dqworkbench.constraints import (
    Atom,
    ConjunctiveQuery,
    NamedAtom,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
)
from dqworkbench.model import Instance, Row, Schema, const
from dqworkbench.procedures import Procedure

VISIT_ATTRS = ("facility", "patInsur", "timestp")


def boolean_cq(atoms: Iterable[Atom]) -> ConjunctiveQuery:
    """All occurring variables existential."""
    atoms = tuple(atoms)
    return ConjunctiveQuery(atoms, (), frozenset(v for a in atoms for v in a.vars))


def open_cq(atoms: Iterable[Atom]) -> ConjunctiveQuery:
    """All occurring variables free, in name order."""
    atoms = tuple(atoms)
    seen = sorted({v for a in atoms for v in a.vars})
    return ConjunctiveQuery(atoms, tuple(seen), frozenset())


def visit(facility, pat_insur, timestp) -> Row:
    return Row.of(
        {
            "facility": const(facility),
            "patInsur": const(pat_insur),
            "timestp": const(timestp),
        }
    )


def aged_visit(facility, pat_insur, timestp, age) -> Row:
    return Row.of(
        {
            "facility": const(facility),
            "patInsur": const(pat_insur),
            "timestp": const(timestp),
            "age": const(age),
        }
    )


EVISITS_ROWS = frozenset(
    {
        visit(1234, 33, "070916 12:00"),
        visit(2087, 91, "090916 03:10"),
    }
)

LOCVISITS_I_ROWS = frozenset(
    {
        visit(1234, 33, "070916 12:00"),
        visit(1222, 33, "020715 07:50"),
    }
)

LOCVISITS_J1_ROWS = LOCVISITS_I_ROWS | {visit(2087, 91, "090916 03:10")}
LOCVISITS_J2_ROWS = LOCVISITS_J1_ROWS | {visit(4561, 54, "080916 23:45")}

LOCVISITS_J3_ROWS = frozenset(
    {
        aged_visit(1234, 33, "070916 12:00", 21),
        aged_visit(1222, 33, "020715 07:50", 45),
        aged_visit(2087, 91, "090916 03:10", 82),
    }
)


def migration_tgd() -> Tgd:
    x, y, z = Var("x"), Var("y"), Var("z")
    return Tgd(
        open_cq([NamedAtom.of("EVisits", {"facility": x, "patInsur": y, "timestp": z})]),
        open_cq([NamedAtom.of("LocVisits", {"facility": x, "patInsur": y, "timestp": z})]),
    )


def migrate_cq_proc() -> Procedure:
    """Migration procedure guarded by a projection-tolerant conjunctive safety query."""
    x, y, z = Var("x"), Var("y"), Var("z")
    return Procedure.of(
        scope=[StructureConstraint.of("LocVisits")],
        pre=[
            StructureConstraint.of("EVisits", ("facility", "patInsur", "timestp")),
            StructureConstraint.of("LocVisits", ("facility", "patInsur", "timestp")),
        ],
        post=[migration_tgd()],
        safe=[
            open_cq(
                [NamedAtom.of("LocVisits", {"facility": x, "patInsur": y, "timestp": z})]
            )
        ],
        name="migrate_cq",
    )


def migrate_total_proc() -> Procedure:
    """Migration procedure in safe-scope form: the whole target relation is preserved."""
    return Procedure.of(
        scope=[StructureConstraint.of("LocVisits")],
        pre=[
            StructureConstraint.of("EVisits", ("facility", "patInsur", "timestp")),
            StructureConstraint.of("LocVisits", ("facility", "patInsur", "timestp")),
        ],
        post=[migration_tgd()],
        safe=[TotalQuery(("LocVisits",))],
        name="migrate",
    )


@pytest.fixture
def visit_schema() -> Schema:
    return Schema.of({"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS})


@pytest.fixture
def aged_schema() -> Schema:
    return Schema.of(
        {"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS + ("age",)}
    )


@pytest.fixture
def instance_i(visit_schema) -> Instance:
    return Instance.of(
        visit_schema, {"EVisits": EVISITS_ROWS, "LocVisits": LOCVISITS_I_ROWS}
    )


@pytest.fixture
def instance_j1(visit_schema) -> Instance:
    return Instance.of(
        visit_schema, {"EVisits": EVISITS_ROWS, "LocVisits": LOCVISITS_J1_ROWS}
    )


@pytest.fixture
def instance_j2(visit_schema) -> Instance:
    return Instance.of(
        visit_schema, {"EVisits": EVISITS_ROWS, "LocVisits": LOCVISITS_J2_ROWS}
    )


@pytest.fixture
def instance_j3(aged_schema) -> Instance:
    return Instance.of(
        aged_schema, {"EVisits": EVISITS_ROWS, "LocVisits": LOCVISITS_J3_ROWS}
    )


@pytest.fixture
def instance_j1_missing(visit_schema) -> Instance:
    """Like the first outcome but without the migrated emergency row."""
    return Instance.of(
        visit_schema,
        {
            "EVisits": EVISITS_ROWS,
            "LocVisits": LOCVISITS_I_ROWS | {visit(4561, 54, "080916 23:45")},
        },
    )
