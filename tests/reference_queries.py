"""Reference definitions of the residual query and of CQ equality up to renaming.

`residual_query` is the paper's residual query: the conjunction that
retrieves everything a procedure's scope does not let change. A result
must give it the answers the input gives it. Its atoms share no
variables, so its answer set is the product of the per-atom answer sets,
and two such products are equal exactly when every factor is equal, or
when each side has an empty factor (both products are then empty).
`dqworkbench.procedures` decides the residual clause by that rule,
without building the product; tests check that rule against this query.

`canonicalize_cq` puts a conjunctive query in a structural normal form,
so that tests can compare queries up to atom order and variable names.

`body_triggers` matches a chase rule body against a conditional table by
brute force, one table pair per atom, where a labeled null matches any
cell under the equality of the two.

`satisfies_by_product` decides a tgd or an egd on an instance by the
literal product of one row per relation atom, with its own compatibility
test, for comparison with `constraints.satisfies`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable

from dqworkbench.constraints import (
    Atom,
    ConjunctiveQuery,
    ConstantAtom,
    Egd,
    NamedAtom,
    StructureConstraint,
    Term,
    Tgd,
    Var,
)
from dqworkbench.ctables import CondEq, ConditionalInstance, cond_and
from dqworkbench.errors import Incompatible
from dqworkbench.model import Instance, LabeledNull, Schema, Value
from dqworkbench.procedures import residual_atoms


def residual_query(s: Schema, scope: Iterable[StructureConstraint]) -> ConjunctiveQuery:
    """Conjunction retrieving everything the scope does not permit to change."""
    atoms = residual_atoms(s, scope)
    free = tuple(t for a in atoms for _, t in a.bindings if isinstance(t, Var))
    return ConjunctiveQuery(tuple(atoms), free, frozenset())


def _term_shape(t: Term) -> tuple:
    return ("var",) if isinstance(t, Var) else ("val", t.kind, t.token)


def _atom_sort_key(a: Atom) -> tuple:
    if isinstance(a, ConstantAtom):
        return ("nonnull", "", ())
    return (
        "named",
        a.relation,
        tuple((attr, _term_shape(t)) for attr, t in a.bindings),
    )


def canonicalize_cq(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Structural normal form: atoms sorted, variables renamed by first occurrence."""
    atoms = sorted(q.atoms, key=_atom_sort_key)
    terms = (
        term
        for a in atoms
        for term in ((a.variable,) if isinstance(a, ConstantAtom) else (t for _, t in a.bindings))
    )
    rename: dict[Var, Var] = {}
    for t in terms:
        if isinstance(t, Var) and t not in rename:
            rename[t] = Var(f"v{len(rename):03d}")
    new_atoms = [
        ConstantAtom(rename[a.variable])
        if isinstance(a, ConstantAtom)
        else NamedAtom(a.relation, tuple((attr, rename.get(t, t)) for attr, t in a.bindings))
        for a in atoms
    ]
    free = tuple(sorted((rename[v] for v in q.free), key=lambda v: v.name))
    existential = frozenset(rename[v] for v in q.existential)
    return ConjunctiveQuery(tuple(new_atoms), free, existential)


def _extend(h: dict, literals: list, atom: NamedAtom, row) -> bool:
    """Extend assignment h by one atom matched to one row, adding to literals
    the equalities the match needs; False when two constants differ."""
    for attr, term in atom.bindings:
        cell = row.cell(attr)
        bound = term if isinstance(term, Value) else h.setdefault(term, cell)
        if bound == cell:
            continue
        if isinstance(bound, LabeledNull):
            literals.append(CondEq(bound, cell))
        elif isinstance(cell, LabeledNull):
            literals.append(CondEq(cell, bound))
        else:
            return False
    return True


def body_triggers(t: ConditionalInstance, body: ConjunctiveQuery) -> Counter:
    """The chase's body triggers, counted as (condition, frontier) pairs: every
    product of one table pair per relation atom whose rows extend the
    assignment atom by atom. The condition lists the used pairs' conditions,
    then the equalities the matches need, each once."""
    atoms = [a for a in body.atoms if isinstance(a, NamedAtom)]
    found: Counter = Counter()
    for pairs in itertools.product(*(t.rows(a.relation) for a in atoms)):
        h: dict = {}
        literals: list = []
        if all(_extend(h, literals, atom, row) for atom, (row, _) in zip(atoms, pairs)):
            condition = cond_and([cond for _, cond in pairs] + [tuple(literals)])
            found[(condition, frozenset(h.items()))] += 1
    return found


def product_assignments(q: ConjunctiveQuery, i: Instance, init: dict) -> Iterable[dict]:
    """Every extension of init that sends each relation atom of q onto one row
    of i, by projection, and each variable of a constant atom to a constant:
    one per row combination of the literal product."""
    named = [a for a in q.atoms if isinstance(a, NamedAtom)]
    for rows in itertools.product(*(sorted(i.rows(a.relation)) for a in named)):
        h = dict(init)
        ok = True
        for atom, row in zip(named, rows):
            for attr, term in atom.bindings:
                expected = h.setdefault(term, row.cell(attr)) if isinstance(term, Var) else term
                ok = ok and row.cell(attr) == expected
        if ok and all(h[a.variable].is_constant for a in q.atoms if isinstance(a, ConstantAtom)):
            yield h


def satisfies_by_product(c: Tgd | Egd, i: Instance) -> bool:
    """Whether i satisfies the dependency, every body match found by the
    product; raises Incompatible when an atom names a relation or an
    attribute outside i's schema."""
    queries = (c.body, c.head) if isinstance(c, Tgd) else (c.body,)
    for q in queries:
        for a in q.atoms:
            if isinstance(a, NamedAtom) and not (
                i.schema.defines(a.relation) and a.attrs <= i.schema.attrs(a.relation)
            ):
                raise Incompatible(f"{a.relation} does not fit the schema")
    for tau in product_assignments(c.body, i, {}):
        if isinstance(c, Egd):
            x, y = c.equated
            if tau[x] != tau[y]:
                return False
        elif not any(True for _ in product_assignments(c.head, i, {v: tau[v] for v in c.head.vars if v in tau})):
            return False
    return True
