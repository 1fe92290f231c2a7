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
"""

from __future__ import annotations

from typing import Iterable

from dqworkbench.constraints import (
    Atom,
    ConjunctiveQuery,
    ConstantAtom,
    NamedAtom,
    StructureConstraint,
    Term,
    Var,
)
from dqworkbench.model import Schema, first_appearance
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
    rename = first_appearance(terms, lambda t: isinstance(t, Var), lambda k: Var(f"v{k:03d}"))
    new_atoms = [
        ConstantAtom(rename[a.variable])
        if isinstance(a, ConstantAtom)
        else NamedAtom(a.relation, tuple((attr, rename.get(t, t)) for attr, t in a.bindings))
        for a in atoms
    ]
    free = tuple(sorted((rename[v] for v in q.free), key=lambda v: v.name))
    existential = frozenset(rename[v] for v in q.existential)
    return ConjunctiveQuery(tuple(new_atoms), free, existential)
