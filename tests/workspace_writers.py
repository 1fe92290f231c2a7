"""The workspace writers: `serialize_workspace` (text) and `workspace_to_json`.

No command writes a workspace, so the writers serve the tests: the text and
JSON round-trip properties and the mutation tests read a workspace back from
what these write. `dsl.cell_to_json`, `schema_to_json` and `instance_to_json`,
which the `--format json` reports use, stay in `dqworkbench.dsl`.
"""

from __future__ import annotations

from typing import Sequence

from dqworkbench.constraints import (
    And,
    Atom,
    BooleanCondition,
    Comparison,
    ConjunctiveQuery,
    Constraint,
    ConstantAtom,
    Egd,
    Not,
    Query,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
)
from dqworkbench.dsl import Workspace, cell_to_json, instance_to_json, schema_to_json
from dqworkbench.model import Value, is_plain_name


# --- text ----------------------------------------------------------------------


def _guarded_value(v: Value) -> str:
    # Bare identifier-shaped constants would reparse as variables (in
    # atoms) or attribute names (in conditions), so force quotes there.
    if v.is_constant and is_plain_name(v.token):
        return f'"{v.token}"'
    return v.render()


def _render_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    return _guarded_value(t)


def _render_atom(a: Atom) -> str:
    if isinstance(a, ConstantAtom):
        return f"nonnull({a.variable.name})"
    inner = ", ".join(f"{attr}: {_render_term(t)}" for attr, t in a.bindings)
    return f"{a.relation}({inner})"


def _render_atoms(atoms: Sequence[Atom]) -> str:
    if not atoms:
        return "true"
    return " and ".join(_render_atom(a) for a in atoms)


def _render_cq(q: ConjunctiveQuery) -> str:
    prefix = ""
    if q.existential:
        names = ", ".join(v.name for v in sorted(q.existential))
        prefix = f"exists {names} . "
    return prefix + _render_atoms(q.atoms)


def _render_struct(c: StructureConstraint) -> str:
    if c.attributes is None:
        return f"{c.relation}[*]"
    if not c.attributes:
        return f"{c.relation}[]"
    return f"{c.relation}[{', '.join(c.attributes)}]"


def _render_constraint(c: Constraint) -> str:
    if isinstance(c, Tgd):
        return f"tgd {_render_atoms(c.body.atoms)} -> {_render_atoms(c.head.atoms)}"
    if isinstance(c, Egd):
        x, y = c.equated
        return f"egd {_render_atoms(c.body.atoms)} -> {x.name} = {y.name}"
    return f"struct {_render_struct(c)}"


def _render_condition(c: BooleanCondition, *, parenthesize: bool = False) -> str:
    if isinstance(c, Comparison):
        rhs = c.rhs if isinstance(c.rhs, str) else _guarded_value(c.rhs)
        return f"{c.lhs} {c.op} {rhs}"
    if isinstance(c, Not):
        return f"not ({_render_condition(c.item)})"
    joiner = " and " if isinstance(c, And) else " or "
    body = joiner.join(_render_condition(item, parenthesize=True) for item in c.items)
    return f"({body})" if parenthesize else body


def _render_query(q: Query) -> str:
    if isinstance(q, TotalQuery) and q.condition is not None:
        return f"filtered {q.relations[0]} where {_render_condition(q.condition)}"
    if isinstance(q, TotalQuery):
        return f"total {', '.join(q.relations)}"
    free = f"({', '.join(v.name for v in q.free)}) " if q.free else ""
    return f"cq {free}{_render_cq(q)}"


def serialize_workspace(ws: Workspace) -> str:
    """Workspace back to text; parse(serialize(ws)) reproduces ws.

    Attribute lists and dependency variables come out in canonical sorted
    order, so the text is normalized rather than byte-identical to any
    original source file.

    A constant prints bare when it is a plain name (`model.name_rule`) or it matches
    the number rule with decimal digits (`model.number_rule`); any other
    constant is quoted, so `1.`, `.5`, `-.5` and `²` come out as strings
    while `007` stays bare.  Inside atoms and conditions identifier-shaped
    constants are quoted as well, since bare they would read as variables
    or attribute names.
    """
    lines: list[str] = []
    for name, schema in ws.schemas.items():
        lines.append(f"schema {name} {{")
        for rel, attrs in schema.rels:
            lines.append(f"  rel {rel}({', '.join(sorted(attrs))});")
        lines.append("}")
        lines.append("")
    for name, instance in ws.instances.items():
        lines.append(f"instance {name} : {ws.instance_schema[name]} {{")
        for rel in instance.schema.names:
            rows = sorted(instance.rows(rel))
            rendered = ", ".join(
                "(" + ", ".join([v.render() for v in row.values]) + ")"
                for row in rows
            )
            lines.append(f"  {rel}: {rendered};")
        lines.append("}")
        lines.append("")
    for name, c in ws.constraints.items():
        kind, _, body = _render_constraint(c).partition(" ")
        lines.append(f"{kind} {name} : {body}")
    if ws.constraints:
        lines.append("")
    for name, q in ws.queries.items():
        if isinstance(q, ConjunctiveQuery):
            free = f"({', '.join(v.name for v in q.free)})" if q.free else ""
            lines.append(f"query {name}{free} : {_render_cq(q)}")
        else:
            lines.append(f"query {name} : {_render_query(q)}")
    if ws.queries:
        lines.append("")
    for name, p in ws.procedures.items():
        lines.append(f"proc {name} {{")
        if p.scope:
            lines.append("  scope { " + " ".join(f"{_render_struct(c)};" for c in p.scope) + " }")
        for kind, items in (("pre", p.pre), ("post", p.post)):
            if items:
                lines.append(
                    f"  {kind} {{ " + " ".join(f"{_render_constraint(c)};" for c in items) + " }"
                )
        if p.safe:
            lines.append("  safe { " + " ".join(f"{_render_query(q)};" for q in p.safe) + " }")
        lines.append("}")
        lines.append("")
    for name, steps in ws.sequences.items():
        lines.append(f"seq {name} = {', '.join(steps)}")
    return "\n".join(lines).strip() + "\n"


# --- JSON --------------------------------------------------------------------------


def _term_to_json(t) -> dict:
    if isinstance(t, Var):
        return {"var": t.name}
    return cell_to_json(t)


def _atom_to_json(a: Atom) -> dict:
    if isinstance(a, ConstantAtom):
        return {"nonnull": a.variable.name}
    return {
        "relation": a.relation,
        "bindings": {attr: _term_to_json(t) for attr, t in a.bindings},
    }


def _cq_to_json(q: ConjunctiveQuery) -> dict:
    return {
        "atoms": [_atom_to_json(a) for a in q.atoms],
        "free": [v.name for v in q.free],
        "existential": sorted(v.name for v in q.existential),
    }


def _condition_to_json(c: BooleanCondition) -> dict:
    if isinstance(c, Comparison):
        rhs = {"attr": c.rhs} if isinstance(c.rhs, str) else cell_to_json(c.rhs)
        return {"kind": "cmp", "lhs": c.lhs, "op": c.op, "rhs": rhs}
    if isinstance(c, Not):
        return {"kind": "not", "item": _condition_to_json(c.item)}
    kind = "and" if isinstance(c, And) else "or"
    return {"kind": kind, "items": [_condition_to_json(item) for item in c.items]}


def _constraint_to_json(c: Constraint) -> dict:
    if isinstance(c, Tgd):
        return {"kind": "tgd", "body": _cq_to_json(c.body), "head": _cq_to_json(c.head)}
    if isinstance(c, Egd):
        return {
            "kind": "egd",
            "body": _cq_to_json(c.body),
            "equated": [c.equated[0].name, c.equated[1].name],
        }
    return {
        "kind": "struct",
        "relation": c.relation,
        "attributes": None if c.attributes is None else list(c.attributes),
    }


def _query_to_json(q: Query) -> dict:
    if isinstance(q, ConjunctiveQuery):
        return {"kind": "cq", **_cq_to_json(q)}
    if q.condition is not None:
        return {
            "kind": "filtered",
            "relation": q.relations[0],
            "condition": _condition_to_json(q.condition),
        }
    if len(q.relations) == 1:
        return {"kind": "total", "relation": q.relations[0]}
    return {"kind": "total_conj", "relations": list(q.relations)}


def workspace_to_json(ws: Workspace) -> dict:
    """One-to-one JSON image of the workspace."""
    return {
        "schemas": {name: schema_to_json(schema) for name, schema in ws.schemas.items()},
        "instances": {
            name: instance_to_json(instance, ws.instance_schema[name])
            for name, instance in ws.instances.items()
        },
        "constraints": {name: _constraint_to_json(c) for name, c in ws.constraints.items()},
        "queries": {name: _query_to_json(q) for name, q in ws.queries.items()},
        "procedures": {
            name: {
                "scope": [_constraint_to_json(c) for c in p.scope],
                "pre": [_constraint_to_json(c) for c in p.pre],
                "post": [_constraint_to_json(c) for c in p.post],
                "safe": [_query_to_json(q) for q in p.safe],
            }
            for name, p in ws.procedures.items()
        },
        "sequences": {name: list(steps) for name, steps in ws.sequences.items()},
    }
