"""Bulk generated-case suites: representation closure, upward closure under
schema growth, compare's derived missing section against the literal
membership check, enumerator/checker agreement, fold reproducibility,
certainty against the minimal-member enumeration, workspace format
round-trips, the matcher, dependency satisfaction and the chase's body
triggers against brute-force references, the residual clause against the joint residual query, the
workspace lexer against the reference tokenizer, size-ordered minimality
and the oracle's up-front meter against the all-pairs test and the
candidate totals they replace, the oracle's staged clause checks against
the literal enumerator, its clauses evaluated once per step against the
literal clauses, the reach of the staged-case generator, the minimal
schema as a lower bound on the oracle's outcome schemas, c-table conditions against brute-force
valuations, canonical naming against brute-force minima over renamings,
template calls against their instantiation, mutated JSON workspaces
against the CLI's exit codes, mutated text workspaces against the parser,
and the tuple-list reading of instance sections against the token-by-token
one.

The module-level *_EXAMPLES constants are the configured case counts; the
acceptance suite checks the sum of the first four.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import importlib.util
import io
import itertools
import json
import operator
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, assume, example, find, given, settings, strategies as st

from dqworkbench.chase import (
    EMPTY,
    EmptyResult,
    _body_triggers,
    approximate_outcomes,
    canonical_table,
    certain_boolean_cq,
    exact_scoped_representation,
    outcomes_nonempty,
)
from dqworkbench import chase as chase_mod
from dqworkbench import constraints
from dqworkbench.analyzer import Failure, min_schema
from dqworkbench.cli import run_command
from dqworkbench.constraints import (
    And,
    Comparison,
    ConjunctiveQuery,
    ConstantAtom,
    Egd,
    NamedAtom,
    Not,
    Or,
    RowIndex,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    cq,
    cq_constants,
    evaluate_query,
    homomorphisms,
    is_compatible,
    satisfies,
)
from dqworkbench.ctables import (
    TRUE,
    CondEq,
    ConditionalInstance,
    LabeledNull,
    apply_valuation,
    cond_and,
    cond_eval,
    condition_entails,
    condition_satisfiable,
    enumerate_minimal,
    fresh_null_valuation,
    render_ctable,
    rep_contains,
)
from dqworkbench import dsl
from dqworkbench import oracle as oracle_mod
from dqworkbench.dsl import (
    Workspace,
    instance_to_json,
    load_workspace,
    parse_workspace,
    workspace_from_json,
)
from dqworkbench.errors import (
    BudgetExceeded,
    Incompatible,
    MalformedParams,
    Meter,
    UnsupportedClass,
    UnsupportedPrecondition,
    WorkbenchError,
    WorkspaceSyntaxError,
)
from dqworkbench.model import (
    Instance,
    Row,
    Schema,
    Value,
    active_domain,
    const,
    instance_extends,
    null_marker,
    render_instance,
    render_instances,
    schema_extends,
    with_cells,
)
from dqworkbench.oracle import Budget, enumerate_outcomes, minimal_outcomes
from dqworkbench.procedures import (
    TEMPLATE_KINDS,
    Contained,
    Procedure,
    _post_failures,
    _safety_failures,
    instantiate_template,
    is_safe_sequence,
    outcome_clauses,
    outcome_inputs,
    possible_outcome_report,
    preserved,
    scope_map,
)

from . import reference_oracle, reference_queries, reference_tokenizer
from .conftest import boolean_cq, open_cq
from .reference_queries import body_triggers, residual_atoms, residual_query, satisfies_by_product
from .test_dsl import FIG1, workspace_st
from .test_oracle import inclusion_tgd, rt_instance
from .test_procedures import schema_and_scope
from .workspace_writers import serialize_workspace, workspace_to_json

REP_CLOSURE_EXAMPLES = 150
AGREEMENT_EXAMPLES = 100
DETERMINISM_EXAMPLES = 120
ROUND_TRIP_EXAMPLES = 150
MATCHER_EXAMPLES = 150
CERTAINTY_EXAMPLES = 150
RESIDUAL_EXAMPLES = 200
LEXER_EXAMPLES = 500
MINIMALITY_EXAMPLES = 300
MIN_SCHEMA_SOUNDNESS_EXAMPLES = 300
STAGED_ORACLE_EXAMPLES = 200
CONDITION_EXAMPLES = 300
TEMPLATE_EXAMPLES = 200
JSON_MUTATION_EXAMPLES = 150
SECTION_EXAMPLES = 400
UPWARD_CLOSURE_EXAMPLES = 150
DERIVED_MISSING_EXAMPLES = 150
SATISFIES_EXAMPLES = 240
RENDER_EXAMPLES = 200
EXTENSION_EXAMPLES = 200
REPORT_ORDER_EXAMPLES = 60
RESERVED_RENAMING_EXAMPLES = 200
CANONICITY_EXAMPLES = 150
SCOPED_REPRESENTATION_EXAMPLES = 150

# The candidates the literal enumerator charges for Figure 1's `migrate,
# migrate` with budget extra=1,tuples=1: the total the per-candidate meter
# reached.
FIG1_MIGRATE_TWICE_CHARGE = 18_948

# The same for the pruned oracle. Step 0: `total LocVisits` keeps both old
# rows and the tgd forces the migrated row into the one set of additions, so
# LocVisits charges 1 set plus 1 row set, and the cross product 1 candidate.
# Step 1, from J1, which holds every forced row: 730 sets of additions (none,
# or one of the 9^3 rows) plus 730 row sets, and 727 distinct candidates, since
# 3 additions repeat a kept row. 3 + 1460 + 727 = 2190.
FIG1_MIGRATE_TWICE_PRUNED_CHARGE = 2_190

X = Var("x")

REP_SCHEMA = Schema.of({"R": ("a",), "T": ("a", "b")})
NULLS = (LabeledNull("n0"), LabeledNull("n1"))
CONSTS = tuple(const(k) for k in range(3))

cell_st = st.one_of(st.sampled_from(CONSTS), st.sampled_from(NULLS))

eq_st = st.builds(CondEq, st.sampled_from(NULLS), cell_st)

_leaf_cond_st = st.one_of(st.just(TRUE), eq_st.map(lambda eq: (eq,)))

cond_st = st.one_of(
    _leaf_cond_st,
    st.builds(lambda a, b: cond_and([a, b]), _leaf_cond_st, _leaf_cond_st),
)


@st.composite
def ctable_st(draw) -> ConditionalInstance:
    data = {}
    for rel in REP_SCHEMA.names:
        attrs = sorted(REP_SCHEMA.attrs(rel))
        pairs = []
        for _ in range(draw(st.integers(0, 2))):
            row = Row.of({a: draw(cell_st) for a in attrs})
            pairs.append((row, draw(cond_st)))
        data[rel] = pairs
    return ConditionalInstance.of(REP_SCHEMA, data)


@settings(max_examples=REP_CLOSURE_EXAMPLES, deadline=None)
@given(t=ctable_st(), data=st.data())
def test_valuation_images_plus_extra_rows_stay_represented(t, data):
    # Every valuation image, padded with arbitrary extra rows, must sit
    # inside the represented set: membership is closed under extension.
    nulls = sorted(t.nulls(), key=lambda n: n.id)
    v = {n: data.draw(st.sampled_from(CONSTS), label=f"v[{n.id}]") for n in nulls}
    image = apply_valuation(t, v)
    grown = {rel: set(image.rows(rel)) for rel in REP_SCHEMA.names}
    for rel in REP_SCHEMA.names:
        attrs = sorted(REP_SCHEMA.attrs(rel))
        for k in range(data.draw(st.integers(0, 2), label=f"extras[{rel}]")):
            grown[rel].add(
                Row.of({a: data.draw(st.sampled_from(CONSTS), label=f"{rel}+{k}.{a}") for a in attrs})
            )
    j = Instance.of(REP_SCHEMA, grown)
    assert rep_contains(t, j)


# attributes and relations growth may add to an instance over REP_SCHEMA
GROWN_ATTRS = ("c", "d")
GROWN_RELS = {"U": ("a",), "V": ("b", "c")}


@settings(max_examples=UPWARD_CLOSURE_EXAMPLES, deadline=None)
@given(t=ctable_st(), data=st.data())
def test_instances_above_a_member_stay_represented(t, data):
    # The represented set is upward closed under `instance_extends`, which
    # lets `compare_with_chase` check membership on minimal outcomes only:
    # a member k grown into j by new attributes (each row extended once or
    # split), new relations and extra rows leaves j a member.
    nulls = sorted(t.nulls(), key=lambda n: n.id)
    v = {n: data.draw(st.sampled_from(CONSTS), label=f"v[{n.id}]") for n in nulls}
    k = apply_valuation(t, v)
    assert rep_contains(t, k)
    value = st.sampled_from(CONSTS)
    attrs = {
        rel: sorted(REP_SCHEMA.attrs(rel) | data.draw(st.sets(st.sampled_from(GROWN_ATTRS)), label=f"+{rel}"))
        for rel in REP_SCHEMA.names
    }
    for rel in data.draw(st.sets(st.sampled_from(sorted(GROWN_RELS))), label="new relations"):
        attrs[rel] = sorted(GROWN_RELS[rel])
    grown: dict[str, set[Row]] = {rel: set() for rel in attrs}
    for rel in REP_SCHEMA.names:
        new = [a for a in attrs[rel] if a not in REP_SCHEMA.attrs(rel)]
        for row in k.rows(rel):
            cells = dict(zip(row.attrs, row.values))
            for ext in data.draw(st.lists(st.tuples(*[value] * len(new)), min_size=1, max_size=2)):
                grown[rel].add(Row.of(cells | dict(zip(new, ext))))
    for rel in attrs:
        extra = data.draw(st.lists(st.tuples(*[value] * len(attrs[rel])), max_size=2), label=f"extras[{rel}]")
        grown[rel].update(Row.of(dict(zip(attrs[rel], cells))) for cells in extra)
    j = Instance.of(Schema.of(attrs), grown)
    assert instance_extends(j, k)
    assert rep_contains(t, j)


# every value a null can take that makes a difference to the conditions
# cond_st draws: their constants, plus one fresh value per null
_CONDITION_POOL = CONSTS + tuple(const(f"fresh{k}") for k in range(len(NULLS)))
_FULL_VALUATIONS = [
    dict(zip(NULLS, combo)) for combo in itertools.product(_CONDITION_POOL, repeat=len(NULLS))
]
conjunction_st = st.lists(eq_st, max_size=3).map(lambda eqs: cond_and([tuple(eqs)]))


@settings(max_examples=CONDITION_EXAMPLES, deadline=None)
@given(
    a=conjunction_st,
    b=conjunction_st,
    partial=st.dictionaries(st.sampled_from(NULLS), st.sampled_from(_CONDITION_POOL)),
)
def test_conditions_agree_with_brute_force_valuations(a, b, partial):
    satisfying = [v for v in _FULL_VALUATIONS if cond_eval(a, v) is True]
    assert condition_satisfiable(a) == bool(satisfying)
    if condition_entails(a, b):
        assert all(cond_eval(b, v) is True for v in satisfying)
    verdict = cond_eval(a, partial)
    if verdict is None:
        assert {n for eq in a for n in eq if isinstance(n, LabeledNull)} - partial.keys()
    else:
        completions = [v for v in _FULL_VALUATIONS if partial.items() <= v.items()]
        assert all(cond_eval(a, v) is verdict for v in completions)


def _stamp_tgd(src: str, dst: str, k: int) -> Tgd:
    return Tgd(
        cq([NamedAtom.of(src, {"A": X})], free=[X]),
        cq([NamedAtom.of(dst, {"A": const(k)})], free=[]),
    )


def _copy_proc(src: str, dst: str, tgd: Tgd) -> Procedure:
    return Procedure.of(
        scope=[StructureConstraint.of(dst)],
        post=[tgd],
        safe=[TotalQuery((dst,))],
        name=f"copy_{src}_{dst}",
    )


_SUBSETS = tuple(frozenset(s) for s in ((), (0,), (1,), (0, 1)))


@settings(max_examples=AGREEMENT_EXAMPLES, deadline=None)
@given(
    rs=st.sampled_from(_SUBSETS),
    ts=st.sampled_from(_SUBSETS),
    flip=st.booleans(),
    stamp=st.one_of(st.none(), st.integers(0, 1)),
)
def test_enumerated_outcomes_match_the_checker_across_the_universe(rs, ts, flip, stamp):
    # Candidate-by-candidate agreement, both directions, over every
    # instance the enumerator's budget can reach.
    src, dst = ("T", "R") if flip else ("R", "T")
    tgd = inclusion_tgd(src, dst) if stamp is None else _stamp_tgd(src, dst, stamp)
    p = _copy_proc(src, dst, tgd)
    i = rt_instance(sorted(rs), sorted(ts))
    b = Budget(extra_constants=0, max_new_tuples=2)
    pool = active_domain(i) | ({const(stamp)} if stamp is not None else frozenset())
    outs = enumerate_outcomes(p, i, b)
    for cand_r in _SUBSETS:
        for cand_t in _SUBSETS:
            j = rt_instance(sorted(cand_r), sorted(cand_t))
            within = all(
                len(j.rows(rel) - i.rows(rel)) <= b.max_new_tuples
                and {row.cell("A") for row in j.rows(rel)} <= pool
                for rel in ("R", "T")
            )
            if not within:
                continue
            assert (j in outs) == possible_outcome_report(p, i, j).ok


_STEPS = {
    "cp_rt": _copy_proc("R", "T", inclusion_tgd("R", "T")),
    "cp_tr": _copy_proc("T", "R", inclusion_tgd("T", "R")),
    "alter_r": instantiate_template("alter_table", {"relation": "R", "attributes": ["B"]}),
    "alter_t": instantiate_template("alter_table", {"relation": "T", "attributes": ["B"]}),
}


@settings(max_examples=DETERMINISM_EXAMPLES, deadline=None)
@given(
    rs=st.sampled_from(_SUBSETS),
    ts=st.sampled_from(_SUBSETS),
    names=st.lists(st.sampled_from(sorted(_STEPS)), min_size=1, max_size=2),
)
def test_folding_is_reproducible(rs, ts, names):
    # one schema change per run keeps the shapes inside the supported classes
    if sum(n.startswith("alter") for n in names) > 1:
        names = names[:1]
    seq = [_STEPS[n] for n in names]
    i = rt_instance(sorted(rs), sorted(ts))
    first = approximate_outcomes(i, seq)
    second = approximate_outcomes(i, seq)
    assert first == second
    assert outcomes_nonempty(i, seq) == (not isinstance(first, EmptyResult))
    if isinstance(first, ConditionalInstance):
        assert canonical_table(first) == canonical_table(second)
        assert render_ctable(first) == render_ctable(second)


def _splits(j: Instance, i: Instance, scope: frozenset[str]) -> bool:
    """Some relation outside `scope` holds two rows of j that agree on i's attributes."""
    return any(len(j.projected(rel, i.schema.attrs(rel))) < len(j.rows(rel)) for rel in i.schema.names if rel not in scope)


@settings(max_examples=SCOPED_REPRESENTATION_EXAMPLES, deadline=None)
@given(
    rs=st.sampled_from(_SUBSETS),
    ts=st.sampled_from(_SUBSETS),
    names=st.lists(st.sampled_from(sorted(_STEPS)), min_size=1, max_size=2),
    data=st.data(),
)
def test_scoped_representation_holds_the_outcomes_and_no_row_added_outside_its_scope(rs, ts, names, data):
    seq = [_STEPS[n] for n in names]
    assume(is_safe_sequence(seq))
    i = rt_instance(sorted(rs), sorted(ts))
    outcomes = sorted(
        enumerate_outcomes(seq, i, Budget(max_new_tuples=1, allow_schema_growth=True)), key=oracle_mod._instance_sort_key
    )
    scoped = exact_scoped_representation(i, seq)
    if isinstance(scoped, EmptyResult):
        assert not outcomes
        return
    # An alter step that widens a relation outside the scope lets an outcome
    # split a row there, two rows agreeing on the input's attributes, which
    # the scoped table misses (see CHANGES.md); every other outcome is in.
    assert all(rep_contains(scoped, j) or _splits(j, i, scoped.rel) for j in outcomes)
    outside = [rel for rel in i.schema.names if rel not in scoped.rel]
    if not outcomes or not outside:
        return
    j = data.draw(st.sampled_from(outcomes), label="outcome")
    rel = data.draw(st.sampled_from(outside), label="relation")
    attrs = j.schema.layout(rel)
    row = Row(attrs, tuple(data.draw(st.sampled_from(CONSTS), label=a) for a in attrs))
    assume(row not in j.rows(rel))
    added = Instance.of(j.schema, {r: j.rows(r) | {row} if r == rel else j.rows(r) for r in j.schema.names})
    assert not rep_contains(scoped, added)



# Figure 1 with steps that fail each check a step makes: `migrate_cq` is of
# neither class, `copy_age` writes `age` before `alter_age` adds it,
# `nonnull_copy` tests constancy once `age` exists, `egd_pre` has a data
# precondition, and `needs_age` needs `age` before it exists.
NONEMPTY_STEPS = """
proc copy_age {
  scope { LocVisits[*]; }
  post { tgd EVisits(facility: x, patInsur: y, timestp: z)
           -> LocVisits(facility: x, patInsur: y, timestp: z, age: a); }
  safe { total LocVisits; }
}
proc nonnull_copy {
  scope { LocVisits[*]; }
  pre { struct LocVisits[age]; }
  post { tgd EVisits(facility: x, patInsur: y, timestp: z) and nonnull(x)
           -> LocVisits(facility: x, patInsur: y, timestp: z); }
  safe { total LocVisits; }
}
proc egd_pre {
  scope { LocVisits[*]; }
  pre { egd EVisits(facility: x, patInsur: y) and EVisits(facility: x, patInsur: z) -> y = z; }
  post { tgd EVisits(facility: x, patInsur: y, timestp: z)
           -> LocVisits(facility: x, patInsur: y, timestp: z); }
  safe { total LocVisits; }
}
proc needs_age {
  scope { LocVisits[*]; }
  pre { struct LocVisits[age]; }
  post { tgd EVisits(facility: x, patInsur: y, timestp: z)
           -> LocVisits(facility: x, patInsur: y, timestp: z); }
  safe { total LocVisits; }
}
proc alter_ev = template alter_table(EVisits; age)
"""


def test_nonempty_decides_on_schemas_as_the_chase_does():
    """On every sequence of up to three steps, from a narrow and a wide
    instance, `outcomes_nonempty` answers or raises as `approximate_outcomes`
    does, and never chases. A step checks its preconditions and safety
    queries before it raises on its rules."""
    ws = parse_workspace(FIG1.read_text() + NONEMPTY_STEPS)
    i = ws.instances["I"]
    single = {"migrate": True, "alter_age": True, "needs_age": False, "nonnull_copy": False}
    single.update(migrate_cq=UnsupportedClass, copy_age=Incompatible, egd_pre=UnsupportedPrecondition)
    for name, expected in single.items():
        if isinstance(expected, bool):
            assert outcomes_nonempty(i, [ws.procedures[name]]) is expected
        else:
            with pytest.raises(expected):
                outcomes_nonempty(i, [ws.procedures[name]])
    seen = Counter()
    for start in ("I", "J3"):
        i = ws.instances[start]
        for k in range(4):
            for names in itertools.product(sorted(ws.procedures), repeat=k):
                ps = [ws.procedures[n] for n in names]
                try:
                    expected = not isinstance(approximate_outcomes(i, ps), EmptyResult)
                except WorkbenchError as e:
                    expected = (type(e), str(e))
                chased = []
                with mock.patch.object(chase_mod, "chase_safe_scope", lambda *a, **kw: chased.append(a)):
                    try:
                        got = outcomes_nonempty(i, ps)
                    except WorkbenchError as e:
                        got = (type(e), str(e))
                assert got == expected and not chased, (start, names)
                seen[expected if isinstance(expected, bool) else expected[0]] += 1
    assert set(seen) == {True, False, UnsupportedClass, Incompatible, UnsupportedPrecondition}

# --- certainty against the minimal-member enumeration ------------------------

def _pin_proc(src: str, dst: str, k: int) -> Procedure:
    """Copy src's A into dst where src's B is k. Chased over the nulls an
    alter step puts in B, this gives tuples conditioned on equalities."""
    tgd = Tgd(
        cq([NamedAtom.of(src, {"A": X, "B": const(k)})], free=[X]),
        cq([NamedAtom.of(dst, {"A": X})], free=[X]),
    )
    return _copy_proc(src, dst, tgd)


_PINNED = {"pin_r": _pin_proc("R", "T", 0), "pin_t": _pin_proc("T", "R", 1)}


@st.composite
def chase_table_st(draw) -> ConditionalInstance:
    i = rt_instance(draw(st.sampled_from(_SUBSETS)), draw(st.sampled_from(_SUBSETS)))
    alters = draw(st.lists(st.sampled_from(("alter_r", "alter_t")), min_size=1, unique=True))
    # a pinned body needs the column its relation's alter step adds
    copies = ["cp_rt", "cp_tr"] + [n for n in sorted(_PINNED) if f"alter_{n[-1]}" in alters]
    names = alters + draw(st.lists(st.sampled_from(copies), min_size=1, max_size=2))
    res = approximate_outcomes(i, [{**_STEPS, **_PINNED}[n] for n in names])
    assert isinstance(res, ConditionalInstance)
    return res


@st.composite
def goal_st(draw, t: ConditionalInstance):
    """A boolean goal over the table's schema, sometimes read off its rows
    with each null a variable, so that goals hinge on which nulls are equal."""
    rows = [(rel, row) for rel, pairs in t.data for row, _ in pairs]
    atoms, bound = [], set()
    for _ in range(draw(st.integers(1, 3))):
        if rows and draw(st.booleans()):
            rel, row = draw(st.sampled_from(rows))
            cells = dict(zip(row.attrs, row.values))
        else:
            rel = draw(st.sampled_from(t.schema.names))
            cells = dict.fromkeys(t.schema.attrs(rel))
        named = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, unique=True))
        bindings = {}
        for a in named:
            if isinstance(cells[a], LabeledNull):
                bindings[a] = draw(st.sampled_from(VARS[:2]))
            elif cells[a] is not None and draw(st.booleans()):
                bindings[a] = cells[a]
            else:
                bindings[a] = draw(st.sampled_from(VARS[:2] + CONSTS))
        bound |= {v for v in bindings.values() if isinstance(v, Var)}
        atoms.append(NamedAtom.of(rel, bindings))
    if bound and draw(st.booleans()):
        atoms.append(ConstantAtom(draw(st.sampled_from(sorted(bound)))))
    return boolean_cq(atoms)


@settings(max_examples=CERTAINTY_EXAMPLES, deadline=None)
@given(t=chase_table_st(), data=st.data())
def test_certainty_agrees_with_the_minimal_members(t, data):
    q = data.draw(goal_st(t), label="goal")
    verdict = certain_boolean_cq(t, q)
    reference = all(evaluate_query(q, m) for m in enumerate_minimal(t))
    if not any(isinstance(a, ConstantAtom) for a in q.atoms):
        assert verdict == reference
    else:
        # the enumeration reads nulls as constants only, so a nonnull goal
        # may hold on all its members and still fail on a null marker
        assert reference or not verdict
    if not verdict:
        # the one image is a member on which the goal fails
        image = apply_valuation(t, fresh_null_valuation(t, cq_constants(q)))
        assert rep_contains(t, image)
        assert not evaluate_query(q, image)


@settings(max_examples=ROUND_TRIP_EXAMPLES, deadline=None)
@given(ws=workspace_st())
def test_workspace_serialization_is_a_fixed_point(ws):
    text = serialize_workspace(ws)
    reparsed = parse_workspace(text)
    assert reparsed == ws
    assert serialize_workspace(reparsed) == text
    mirrored = workspace_from_json(json.loads(json.dumps(workspace_to_json(ws))))
    assert mirrored == ws
    assert workspace_to_json(mirrored) == workspace_to_json(ws)


# --- the matcher against brute force -----------------------------------------

VARS = (Var("x"), Var("y"), Var("z"))
# a null marker is an ordinary value to the matcher
VALUES = CONSTS + (const(3), null_marker(0))


@st.composite
def instance_st(draw) -> Instance:
    data = {}
    for rel in REP_SCHEMA.names:
        attrs = sorted(REP_SCHEMA.attrs(rel))
        cells = st.tuples(*(st.sampled_from(VALUES) for _ in attrs))
        data[rel] = {Row.of(dict(zip(attrs, c))) for c in draw(st.lists(cells, max_size=12))}
    return Instance.of(REP_SCHEMA, data)


@st.composite
def atoms_st(draw) -> list[NamedAtom]:
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(REP_SCHEMA.names))
        named = draw(st.lists(st.sampled_from(sorted(REP_SCHEMA.attrs(rel))), min_size=1, unique=True))
        term = st.one_of(st.sampled_from(VARS), st.sampled_from(VALUES))
        atoms.append(NamedAtom.of(rel, {a: draw(term) for a in named}))
    return atoms


# 0 indexes every probe; the default scans small relations
scan_below_st = st.sampled_from((0, constraints.SCAN_BELOW))


def _with_scan_below(n: int, run):
    saved = constraints.SCAN_BELOW
    constraints.SCAN_BELOW = n
    try:
        return run()
    finally:
        constraints.SCAN_BELOW = saved


def _brute_homomorphisms(atoms, i, init) -> Counter:
    """One assignment per row combination that agrees with every atom."""
    found = Counter()
    for rows in itertools.product(*(sorted(i.rows(a.relation)) for a in atoms)):
        h = dict(init)
        ok = True
        for atom, row in zip(atoms, rows):
            for attr, term in atom.bindings:
                expected = h.setdefault(term, row.cell(attr)) if isinstance(term, Var) else term
                ok = ok and row.cell(attr) == expected
        if ok:
            found[frozenset(h.items())] += 1
    return found


@settings(max_examples=MATCHER_EXAMPLES, deadline=None)
@given(
    atoms=atoms_st(),
    i=instance_st(),
    init=st.dictionaries(st.sampled_from(VARS), st.sampled_from(VALUES), max_size=1),
    scan_below=scan_below_st,
)
def test_homomorphisms_match_brute_force(atoms, i, init, scan_below):
    found = _with_scan_below(
        scan_below, lambda: Counter(frozenset(h.items()) for h in homomorphisms(atoms, i, init))
    )
    assert found == _brute_homomorphisms(atoms, i, init)


def _brute_rep_contains(t: ConditionalInstance, j: Instance) -> bool:
    """Some valuation over j's values, the table's constants and one fresh
    value per null has an image inside j."""
    nulls = sorted(t.nulls(), key=lambda n: n.id)
    fresh = [const(f"@ref{k}") for k in range(len(nulls))]
    pool = sorted(active_domain(j) | t.constants()) + fresh
    for combo in itertools.product(pool, repeat=len(nulls)):
        image = apply_valuation(t, dict(zip(nulls, combo)))
        if all(image.rows(rel) <= j.rows(rel) for rel in REP_SCHEMA.names):
            return True
    return False


@settings(max_examples=MATCHER_EXAMPLES, deadline=None)
@given(t=ctable_st(), j=instance_st(), data=st.data(), scan_below=scan_below_st)
def test_rep_contains_matches_brute_force(t, j, data, scan_below):
    if data.draw(st.booleans(), label="grow an image"):
        # a valuation image plus j's rows, so that members turn up often
        nulls = sorted(t.nulls(), key=lambda n: n.id)
        v = {n: data.draw(st.sampled_from(VALUES), label=f"v[{n.id}]") for n in nulls}
        image = apply_valuation(t, v)
        j = Instance.of(REP_SCHEMA, {rel: j.rows(rel) | image.rows(rel) for rel in REP_SCHEMA.names})
    found = _with_scan_below(scan_below, lambda: rep_contains(t, j))
    assert found == _brute_rep_contains(t, j)


@st.composite
def trigger_table_st(draw) -> ConditionalInstance:
    """Up to 10 pairs per relation, each condition at most one equality; a
    column may hold no labeled null, so that probes pin it."""
    data = {}
    for rel in REP_SCHEMA.names:
        attrs = sorted(REP_SCHEMA.attrs(rel))
        cells = {a: cell_st if draw(st.booleans()) else st.sampled_from(CONSTS) for a in attrs}
        pair = st.tuples(st.fixed_dictionaries(cells).map(Row.of), _leaf_cond_st)
        data[rel] = draw(st.lists(pair, max_size=10))
    return ConditionalInstance.of(REP_SCHEMA, data)


@settings(max_examples=MATCHER_EXAMPLES, deadline=None)
@given(t=trigger_table_st(), atoms=atoms_st(), scan_below=scan_below_st)
def test_body_triggers_match_brute_force(t, atoms, scan_below):
    body = cq(atoms, free=sorted({v for a in atoms for v in a.vars}))
    rows = RowIndex({rel: list(t.rows(rel)) for rel in t.schema.names}, paired=True)
    found = _with_scan_below(
        scan_below,
        lambda: Counter((c, frozenset(f.items())) for c, f in _body_triggers(rows, body)),
    )
    assert found == body_triggers(t, body)


# --- dependency satisfaction against the product of rows ---------------------

# a head may add this existential variable to the body's
HEAD_VARS = VARS + (Var("w"),)
# atoms over these relations and attributes leave REP_SCHEMA: incompatible
STRAY_ATOMS = (("R", "b"), ("U", "a"))


@st.composite
def small_instance_st(draw) -> Instance:
    data = {}
    for rel in REP_SCHEMA.names:
        attrs = sorted(REP_SCHEMA.attrs(rel))
        cells = st.tuples(*(st.sampled_from(VALUES) for _ in attrs))
        data[rel] = {Row.of(dict(zip(attrs, c))) for c in draw(st.lists(cells, min_size=1, max_size=6))}
    return Instance.of(REP_SCHEMA, data)


@st.composite
def conjunction_st(draw, terms, size: tuple[int, int], stray: bool) -> list:
    """Relation atoms over REP_SCHEMA with terms drawn from `terms` and VALUES,
    plus, with `stray`, one atom that leaves it; then constancy tests on
    some of their variables."""
    atoms = []
    for _ in range(draw(st.integers(*size))):
        rel = draw(st.sampled_from(REP_SCHEMA.names))
        named = draw(st.lists(st.sampled_from(sorted(REP_SCHEMA.attrs(rel))), min_size=1, unique=True))
        # variables twice as often as values, so that bodies match now and then
        term = st.sampled_from(terms + terms + VALUES)
        atoms.append(NamedAtom.of(rel, {a: draw(term) for a in named}))
    if stray:
        rel, attr = draw(st.sampled_from(STRAY_ATOMS))
        atoms.append(NamedAtom.of(rel, {attr: draw(st.sampled_from(terms))}))
    bound = sorted({v for a in atoms for v in a.vars})
    tested = draw(st.lists(st.sampled_from(bound), unique=True, max_size=2)) if bound else []
    return atoms + [ConstantAtom(v) for v in tested]


@st.composite
def dependency_st(draw):
    """A tgd or an egd over REP_SCHEMA: bodies of one to three atoms with
    constants, repeated variables and constancy tests, tgd heads with an
    existential variable now and then, and one in five out of the schema.
    Now and then a tgd inside the schema is a full tgd from `T(a: x, b: y)`
    and the drawn body atoms into T's two attributes, bound to x and y in
    either order: on rows where (x, y) differs from (y, x), only the head's own
    layout of the demanded rows is right."""
    stray = draw(st.integers(0, 4)) == 0
    in_head = stray and draw(st.booleans())
    atoms = draw(conjunction_st(VARS, (1, 3), stray and not in_head))
    body_vars = sorted({v for a in atoms for v in a.vars})
    body = cq(atoms, free=body_vars)
    if len(body_vars) > 1 and draw(st.booleans()):
        return Egd(body, tuple(draw(st.permutations(body_vars))[:2]))
    if not stray and draw(st.integers(0, 3)) == 3:
        x, y = VARS[:2]
        atoms = [NamedAtom.of("T", {"a": x, "b": y}), *atoms]
        head = NamedAtom.of("T", dict(zip("ab", draw(st.permutations([x, y])))))
        return Tgd(cq(atoms, free=sorted({v for a in atoms for v in a.vars})), cq([head], free=[x, y]))
    head_atoms = draw(conjunction_st(HEAD_VARS, (1, 2), in_head))
    head_vars = {v for a in head_atoms for v in a.vars}
    free = sorted(head_vars & set(body_vars))
    return Tgd(body, cq(head_atoms, free=free, existential=head_vars - set(free)))


@settings(max_examples=SATISFIES_EXAMPLES, deadline=None)
@given(c=dependency_st(), i=small_instance_st(), scan_below=scan_below_st)
def test_satisfies_matches_brute_force(c, i, scan_below):
    try:
        expected = satisfies_by_product(c, i)
    except Incompatible:
        with pytest.raises(Incompatible):
            _with_scan_below(scan_below, lambda: satisfies(c, i))
        return
    assert _with_scan_below(scan_below, lambda: satisfies(c, i)) == expected


def _full_tgd(c) -> bool:
    """A tgd that `satisfies` checks by the rows it demands, on REP_SCHEMA."""
    return isinstance(c, Tgd) and is_compatible(c, REP_SCHEMA) and not c.head.existential and all(
        isinstance(a, NamedAtom) for a in c.head.atoms
    )


# the full-tgd shapes `dependency_st` must reach
FULL_TGD_SHAPES = {
    "head constant": lambda c: any(isinstance(t, Value) for a in c.head.atoms for _, t in a.bindings),
    "two head atoms": lambda c: len(c.head.atoms) == 2,
    "repeated head variable": lambda c: sum(isinstance(t, Var) for a in c.head.atoms for _, t in a.bindings)
    > len(c.head.vars),
    "head atom on part of its relation": lambda c: any(a.attrs < REP_SCHEMA.attrs(a.relation) for a in c.head.atoms),
    "head swapping a body atom's two variables": lambda c: any(
        _swaps(h, b) for h in c.head.atoms for b in c.body.atoms if isinstance(b, NamedAtom)
    ),
}


def _swaps(head: NamedAtom, body: NamedAtom) -> bool:
    """The head atom binds the body atom's two attributes to its two variables the other way round."""
    if len(body.bindings) != 2:
        return False
    (a, s), (b, t) = body.bindings
    swapped = (head.relation, head.bindings) == (body.relation, ((a, t), (b, s)))
    return swapped and isinstance(s, Var) and isinstance(t, Var) and s != t


@pytest.mark.parametrize("shape", sorted(FULL_TGD_SHAPES))
def test_dependencies_reach_each_full_tgd_shape(shape):
    holds = FULL_TGD_SHAPES[shape]
    found = find(
        dependency_st(),
        lambda c: _full_tgd(c) and holds(c),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )
    assert _full_tgd(found) and holds(found)


# --- reserved values renamed alike up to renaming ----------------------------

RIGID = CONSTS[:2]
RESERVED = tuple(const(f"@c{k}") for k in range(3))


@settings(max_examples=RESERVED_RENAMING_EXAMPLES, deadline=None)
@given(data=st.data(), swap=st.permutations(RESERVED))
def test_reserved_renaming_is_invariant_under_permuting_the_reserved_values(data, swap):
    cells = st.sampled_from(RIGID + RESERVED)
    rows = {}
    for rel in REP_SCHEMA.names:
        attrs = sorted(REP_SCHEMA.attrs(rel))
        drawn = data.draw(st.lists(st.tuples(*(cells for _ in attrs)), max_size=5), label=rel)
        rows[rel] = {Row(tuple(attrs), values) for values in drawn}
    j = Instance.of(REP_SCHEMA, rows)
    renaming = dict(zip(RESERVED, swap))
    swapped = Instance.of(
        REP_SCHEMA,
        {rel: {Row(r.attrs, tuple(renaming.get(v, v) for v in r.values)) for r in rs} for rel, rs in rows.items()},
    )
    rigid = frozenset(RIGID)
    assert oracle_mod._rename_reserved(j, rigid) == oracle_mod._rename_reserved(swapped, rigid)


# --- canonical naming against a brute-force minimum over renamings ----------

CANON_SCHEMA = Schema.of({"R": ("a", "b"), "S": ("a",)})
CANON_NULLS = tuple(LabeledNull(f"n{k}") for k in range(5))
RENAMED_NULLS = tuple(LabeledNull(f"m{k}") for k in range(5))
RESERVED4 = tuple(const(f"@c{k}") for k in range(4))


@st.composite
def shared_null_table_st(draw) -> ConditionalInstance:
    """A table over up to 5 nulls, which rows and conditions share."""
    nulls = CANON_NULLS[: draw(st.integers(1, 5))]
    cell = st.sampled_from(nulls + CONSTS[:1])
    conds = st.lists(st.builds(CondEq, st.sampled_from(nulls), cell), max_size=2)
    data = {}
    for rel in CANON_SCHEMA.names:
        attrs = CANON_SCHEMA.layout(rel)
        drawn = draw(st.lists(st.tuples(st.tuples(*(cell for _ in attrs)), conds), max_size=4), label=rel)
        data[rel] = [(Row(attrs, values), cond_and([tuple(eqs)])) for values, eqs in drawn]
    return ConditionalInstance.of(CANON_SCHEMA, data)


@st.composite
def reserved_instance_st(draw) -> Instance:
    """An instance over the rigid values and up to 4 reserved ones."""
    cells = st.sampled_from(RIGID + RESERVED4[: draw(st.integers(0, 4))])
    rows = {}
    for rel in REP_SCHEMA.names:
        attrs = REP_SCHEMA.layout(rel)
        drawn = draw(st.lists(st.tuples(*(cells for _ in attrs)), max_size=4), label=rel)
        rows[rel] = {Row(attrs, values) for values in drawn}
    return Instance.of(REP_SCHEMA, rows)


def _renamed_table(t: ConditionalInstance, names: dict) -> ConditionalInstance:
    return ConditionalInstance.of(t.schema, {
        rel: [
            (
                Row(row.attrs, tuple(names.get(c, c) for c in row.values)),
                tuple(CondEq(names[eq.left], names.get(eq.right, eq.right)) for eq in cond),
            )
            for row, cond in pairs
        ]
        for rel, pairs in t.data
    })


def _renamed_instance(j: Instance, names: dict) -> Instance:
    return Instance.of(j.schema, {
        rel: {Row(row.attrs, tuple(names.get(v, v) for v in row.values)) for row in rows} for rel, rows in j.data
    })


def _brute_table_form(t: ConditionalInstance) -> str:
    """The least rendering over every renaming of the nulls to c0, c1, ..."""
    nulls = sorted(t.nulls())
    return min(
        render_ctable(_renamed_table(t, {n: LabeledNull(f"c{k}") for n, k in zip(nulls, order)}))
        for order in itertools.permutations(range(len(nulls)))
    )


def _brute_instance_form(j: Instance) -> str:
    """The least rendering over every renaming of the reserved values to @y0, @y1, ..."""
    reserved = sorted(active_domain(j) - frozenset(RIGID))
    return min(
        render_instance(_renamed_instance(j, {v: const(f"@y{k}") for v, k in zip(reserved, order)}))
        for order in itertools.permutations(range(len(reserved)))
    )


@settings(max_examples=CANONICITY_EXAMPLES, deadline=None)
@given(a=shared_null_table_st(), b=shared_null_table_st(), names=st.permutations(RENAMED_NULLS))
def test_canonical_table_is_a_canonical_form(a, b, names):
    assert canonical_table(_renamed_table(a, dict(zip(CANON_NULLS, names)))) == canonical_table(a)
    assert (canonical_table(a) == canonical_table(b)) == (_brute_table_form(a) == _brute_table_form(b))


@settings(max_examples=CANONICITY_EXAMPLES, deadline=None)
@given(a=reserved_instance_st(), b=reserved_instance_st(), swap=st.permutations(RESERVED4))
def test_reserved_renaming_is_a_canonical_form(a, b, swap):
    def form(j: Instance) -> Instance:
        return oracle_mod._rename_reserved(j, frozenset(RIGID))

    assert form(_renamed_instance(a, dict(zip(RESERVED4, swap)))) == form(a)
    assert (form(a) == form(b)) == (_brute_instance_form(a) == _brute_instance_form(b))


# --- the residual clause against the joint residual query --------------------

BITS = (const(0), const(1))


@st.composite
def residual_case_st(draw) -> tuple[Procedure, Instance, Instance]:
    """A procedure with a drawn scope and a before/after pair over its schema.

    Relations are often empty on either side; the after side often repeats
    the before side's rows, and now and then drops an attribute, so that
    the residual query may no longer fit it, gains attribute d, or lacks a
    relation. The postcondition may be a tgd copying some attributes of one
    relation into another, which may not fit either side.
    """
    s, scope = draw(schema_and_scope())

    def rows(rel: str, attrs) -> set[Row]:
        cells = st.tuples(*(st.sampled_from(BITS) for _ in attrs))
        return {Row.of(dict(zip(attrs, c))) for c in draw(st.lists(cells, max_size=3))}

    before = {rel: rows(rel, sorted(s.attrs(rel))) for rel in s.names}
    after = {
        rel: before[rel] if draw(st.booleans()) else rows(rel, sorted(s.attrs(rel)))
        for rel in s.names
    }
    after_attrs = {rel: sorted(s.attrs(rel)) for rel in s.names}
    rel = draw(st.sampled_from(s.names))
    change = draw(st.sampled_from(["none"] * 5 + ["narrow", "widen", "lack"]))
    if change == "narrow":
        after_attrs[rel].remove(draw(st.sampled_from(after_attrs[rel])))
        after[rel] = {row.project(after_attrs[rel]) for row in after[rel]}
    elif change == "widen":
        after_attrs[rel].append("d")
        after[rel] = {with_cells(row, {"d": draw(st.sampled_from(BITS))}) for row in after[rel]}
    elif change == "lack":
        del after_attrs[rel], after[rel]
    post = []
    if draw(st.booleans()):
        src, dst = draw(st.sampled_from(s.names)), draw(st.sampled_from(s.names))
        copied = {a: Var(a) for a in draw(st.sets(st.sampled_from(sorted(s.attrs(src))), min_size=1))}
        body = {a: Var(a) for a in s.attrs(src)}
        post.append(Tgd(cq([NamedAtom.of(src, body)], free=sorted(body.values())),
                        cq([NamedAtom.of(dst, copied)], free=sorted(copied.values()))))
    # "V" is in no schema: its safety query is incompatible with both sides
    safe = draw(
        st.lists(st.sampled_from([TotalQuery((r,)) for r in s.names + ("V",)]), max_size=2)
    )
    p = Procedure.of(scope=scope, post=post, safe=safe)
    return p, Instance.of(s, before), Instance.of(Schema.of(after_attrs), after)


def _atom_query(atom: NamedAtom) -> ConjunctiveQuery:
    return ConjunctiveQuery((atom,), tuple(sorted(atom.vars)), frozenset())


def _atom_unchanged(atom: NamedAtom, before: Instance, after: Instance) -> bool:
    q = _atom_query(atom)
    return is_compatible(q, after.schema) and evaluate_query(q, before) == evaluate_query(
        q, after
    )


@settings(max_examples=RESIDUAL_EXAMPLES, deadline=None)
@given(case=residual_case_st())
def test_residual_clause_matches_the_joint_residual_query(case):
    p, before, after = case
    q = residual_query(before.schema, p.scope)
    try:
        unchanged = evaluate_query(q, before) == evaluate_query(q, after)
    except Incompatible:
        unchanged = False
    report = possible_outcome_report(p, before, after)
    assert report.residual_ok == unchanged

    # the premise of splitting the residual clause per atom: with no empty
    # factor on the input, the joint query is unchanged exactly when every
    # atom's answers are
    atoms = residual_atoms(before.schema, p.scope)
    if all(evaluate_query(_atom_query(a), before) for a in atoms):
        assert unchanged == all(_atom_unchanged(a, before, after) for a in atoms)

    inputs = outcome_inputs(p, before)
    clauses_hold = not any(check(after) for _, check in outcome_clauses(p, inputs))
    assert clauses_hold == (report.post_ok and report.residual_ok and report.safety_ok)
    assert possible_outcome_report(p, before, after, inputs=inputs) == report


def _clause_failures(p: Procedure, clauses, after: Instance) -> tuple[list, list]:
    """Per postcondition and per safety query, what its clause lists on `after`."""
    post, safety = clauses[: len(p.post)], clauses[len(clauses) - len(p.safe) :]
    return [check(after) for _, check in post], [check(after) for _, check in safety]


@settings(max_examples=RESIDUAL_EXAMPLES, deadline=None)
@given(case=residual_case_st())
def test_post_and_safety_clauses_list_what_the_report_lists(case):
    # with no relation kept, and with every relation kept that `after` holds
    # verbatim, where it keeps every attribute the scope leaves alone
    p, before, after = case
    inputs = outcome_inputs(p, before)
    listed = possible_outcome_report(p, before, after, inputs=inputs).failures
    expected = (
        [[f for f in listed if re.match(rf"postcondition {idx}\b", f)] for idx in range(len(p.post))],
        [[f for f in listed if re.match(rf"safety query {idx}\b", f)] for idx in range(len(p.safe))],
    )
    scope = scope_map(p.scope)
    verbatim = frozenset(
        rel for rel, attrs in before.schema.rels if rel not in scope and after.projected(rel, attrs) == before.rows(rel)
    )
    fits = all(after.projected(rel, attrs) is not None for rel, attrs in preserved(before.schema, p.scope))
    for kept in [frozenset(), verbatim] if fits else [frozenset()]:
        assert _clause_failures(p, outcome_clauses(p, inputs, kept), after) == expected


# --- the lexer against the reference tokenizer --------------------------------

LEXER_ALPHABET = (
    "abcxyzABCXYZ0123456789"
    '_-."\\?@#(){}[],;:*=!> \t\r\n\f\xa0'
    "\u00e9\u00df\u0663\u00b2\u00bd"  # é ß ٣ ² ½
)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    lines = text[:pos].split("\n")
    return len(lines), len(lines[-1]) + 1


def _lexed(tokenize, text: str):
    try:
        return tokenize(text)
    except WorkspaceSyntaxError as e:
        return ("error", e.line, e.col, e.reason)


def _reference_tokens(text: str) -> list:
    return [(t.kind, t.text, t.line, t.col) for t in reference_tokenizer._tokenize(text)]


def _tokens(text: str) -> list:
    # with tuple lists off: the reference knows single tokens only
    raw = dsl._lex(text, tuples=False)
    return [
        (t.kind, t.text, *_line_col(text, dsl._offset(text, raw, i, tuples=False)))
        for i in range(len(raw) - 1)
        for t in [dsl._token(raw[i], i)]
    ]


@settings(max_examples=LEXER_EXAMPLES, deadline=None)
@given(text=st.text(st.sampled_from(LEXER_ALPHABET), max_size=16))
def test_lexer_matches_the_reference_tokenizer(text):
    assert _lexed(_tokens, text) == _lexed(_reference_tokens, text)


# --- size-ordered minimality and the up-front meter ----------------------------

# Schemas where some extend others, with relations that have no attributes.
MINIMALITY_SCHEMAS = tuple(
    Schema.of(rels)
    for rels in (
        {},
        {"U": ()},
        {"R": ("a",)},
        {"R": ("a", "b")},
        {"R": ("a",), "U": ()},
        {"R": ("a", "b"), "U": ()},
        {"R": ("a",), "T": ("a",)},
        {"R": ("a", "b"), "T": ("a",), "U": ()},
    )
)


@st.composite
def outcome_st(draw) -> Instance:
    s = draw(st.sampled_from(MINIMALITY_SCHEMAS))
    data = {}
    for rel in s.names:
        attrs = sorted(s.attrs(rel))
        rows = [Row.of(dict(zip(attrs, vs))) for vs in itertools.product(BITS, repeat=len(attrs))]
        data[rel] = draw(st.sets(st.sampled_from(rows), max_size=3))
    return Instance.of(s, data)


@settings(max_examples=MINIMALITY_EXAMPLES, deadline=None)
@given(outs=st.lists(outcome_st(), max_size=10), data=st.data())
def test_size_ordered_minimality_matches_the_all_pairs_test(outs, data):
    if outs:
        outs += data.draw(st.lists(st.sampled_from(outs), max_size=3), label="duplicates")
    assert minimal_outcomes(outs) == reference_oracle.minimal_outcomes(outs)


def _fig1_migrate_twice():
    ws = load_workspace(str(FIG1))
    migrate = ws.procedures["migrate"]
    return [migrate, migrate], ws.instances["I"], Budget(extra_constants=1, max_new_tuples=1)


def test_meter_charges_exactly_the_per_candidate_total(monkeypatch):
    seq, i, b = _fig1_migrate_twice()
    monkeypatch.setattr(reference_oracle, "BUDGET_CAP", FIG1_MIGRATE_TWICE_CHARGE)
    assert len(reference_oracle.enumerate_outcomes(seq, i, b)) == 727
    monkeypatch.setattr(reference_oracle, "BUDGET_CAP", FIG1_MIGRATE_TWICE_CHARGE - 1)
    with pytest.raises(BudgetExceeded):
        reference_oracle.enumerate_outcomes(seq, i, b)


def test_meter_charges_exactly_the_pruned_total(monkeypatch):
    seq, i, b = _fig1_migrate_twice()
    monkeypatch.setattr(oracle_mod, "BUDGET_CAP", FIG1_MIGRATE_TWICE_PRUNED_CHARGE)
    assert len(enumerate_outcomes(seq, i, b)) == 727
    monkeypatch.setattr(oracle_mod, "BUDGET_CAP", FIG1_MIGRATE_TWICE_PRUNED_CHARGE - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_outcomes(seq, i, b)


def _unreachable(*args, **kwargs):
    raise AssertionError("a candidate was checked")


def test_meter_stops_before_any_candidate_is_checked(monkeypatch):
    seq, i, _ = _fig1_migrate_twice()
    monkeypatch.setattr(reference_oracle, "possible_outcome_report", _unreachable)
    # One more than the first schema's per-relation charge (2565): a
    # per-candidate meter would check one cross-relation candidate first.
    monkeypatch.setattr(reference_oracle, "BUDGET_CAP", 2566)
    with pytest.raises(BudgetExceeded, match="2565 candidates charged so far"):
        reference_oracle.enumerate_outcomes(seq[0], i, Budget(max_new_tuples=1))


def test_pruned_meter_stops_before_any_candidate_is_checked(monkeypatch):
    seq, i, _ = _fig1_migrate_twice()
    # every clause is checked inside `_accepted`; the clauses themselves stay,
    # since the forced rows are read off the postcondition's containment clause
    monkeypatch.setattr(oracle_mod, "_accepted", _unreachable)
    # At extra=1,tuples=2 LocVisits keeps both old rows and charges 729 sets of
    # additions (the forced row, alone or with one of the other 9^3 - 1 rows)
    # plus 729 row sets, 1458; then the cross product charges its 727 distinct
    # candidates. One more than 1458: a per-candidate meter would check one
    # candidate first.
    monkeypatch.setattr(oracle_mod, "BUDGET_CAP", 1459)
    with pytest.raises(
        BudgetExceeded, match="1458 candidates charged so far, and the next charge of 727"
    ):
        enumerate_outcomes(seq[0], i, Budget(extra_constants=1, max_new_tuples=2))


# --- the staged oracle against the literal enumerator -------------------------


WITNESS = Var("e")


@st.composite
def staged_case_st(draw) -> tuple[Procedure, Instance, Budget]:
    """R and T over a and b with up to two rows of bits each, so either may
    be empty; one or two scope entries, whole or on attributes; a tgd or an
    egd across R and T, whose head may name an attribute only growth adds,
    or a full tgd from an out-of-scope relation into a whole-scope one,
    whose head binds every attribute of its relation, maybe with `total`
    on the latter, or the same tgd with one head attribute bound to an
    existential variable; or an alter step, with no scope or safety query,
    that adds attribute c to one relation; a CQ, total (on either
    relation), filtered or total-conjunction safety query; up to two new
    tuples; and a budget with or without schema growth. The full tgd forces
    rows, and `total` on a whole-scope relation keeps its rows: the
    oracle's two pruning rules. `STAGED_BRANCHES` lists what it reaches."""
    attrs = {rel: sorted(draw(st.sets(st.sampled_from("ab"), min_size=1))) for rel in "RT"}
    src, dst = draw(st.permutations("RT"))
    dependency = draw(st.sampled_from(["none", "tgd", "full", "existential", "egd", "alter"]))
    data = {}
    for rel in attrs:
        cells = st.tuples(*(st.sampled_from(BITS) for _ in attrs[rel]))
        least = int(dependency in ("full", "existential") and rel == src)  # the tgd's body matches
        rows = draw(st.lists(cells, min_size=least, max_size=2))
        data[rel] = {Row.of(dict(zip(attrs[rel], c))) for c in rows}
    scope = []
    for rel in draw(st.lists(st.sampled_from("RT"), min_size=1, max_size=2, unique=True)):
        if draw(st.booleans()):
            scope.append(StructureConstraint.of(rel))
        else:
            scope.append(StructureConstraint.of(rel, draw(st.sets(st.sampled_from(attrs[rel]), min_size=1))))
    post, safe = [], []
    if dependency in ("full", "existential"):
        scope = [StructureConstraint.of(dst)]
        if draw(st.booleans()):
            safe.append(TotalQuery((dst,)))
        body = {a: Var(a) for a in attrs[src]}
        head = {a: draw(st.sampled_from([*body.values(), *BITS])) for a in attrs[dst]}
        witness = {WITNESS} if dependency == "existential" else set()
        if witness:
            head[draw(st.sampled_from(attrs[dst]))] = WITNESS
        free = sorted({t for t in head.values() if isinstance(t, Var)} - witness)
        post.append(
            Tgd(
                cq([NamedAtom.of(src, body)], free=sorted(body.values())),
                cq([NamedAtom.of(dst, head)], free=free, existential=witness),
            )
        )
    elif dependency == "alter":
        scope = []
        post.append(StructureConstraint.of(dst, ["c"]))
    elif dependency == "tgd":
        post.append(
            Tgd(
                cq([NamedAtom.of(src, {draw(st.sampled_from(attrs[src])): X})], free=[X]),
                cq([NamedAtom.of(dst, {draw(st.sampled_from("ab")): X})], free=[X]),
            )
        )
    elif dependency == "egd":
        y = Var("y")
        body = [
            NamedAtom.of(src, {draw(st.sampled_from(attrs[src])): X}),
            NamedAtom.of(dst, {draw(st.sampled_from(attrs[dst])): y}),
        ]
        post.append(Egd(cq(body, free=[X, y]), (X, y)))
    kinds = ["none", "cq", "total", "filtered", "conjunction"]
    safe_kind = "none" if dependency == "alter" else draw(st.sampled_from(kinds))
    if safe_kind == "cq":
        bound = draw(st.sets(st.sampled_from(attrs[src]), min_size=1))
        safe.append(open_cq([NamedAtom.of(src, {a: Var(a) for a in bound})]))
    elif safe_kind == "total":
        safe.append(TotalQuery((draw(st.sampled_from([src, dst])),)))
    elif safe_kind == "filtered":
        cond = Comparison(draw(st.sampled_from(attrs[src])), "=", draw(st.sampled_from(BITS)))
        safe.append(TotalQuery((src,), cond))
    elif safe_kind == "conjunction":
        safe.append(TotalQuery((src, dst)))
    growth = draw(st.booleans())
    b = Budget(
        extra_constants=draw(st.integers(0, 1)),
        max_new_tuples=draw(st.integers(1, 2)),
        max_new_attributes=draw(st.integers(0, 1)) if growth else 0,
        allow_schema_growth=growth,
    )
    return Procedure.of(scope=scope, post=post, safe=safe), Instance.of(Schema.of(attrs), data), b


def _outcomes_and_charge(module, p, i, b, cap):
    """`module.enumerate_outcomes(p, i, b)` under `cap`, or None where it
    raises `BudgetExceeded`, and the candidates its meter charged."""
    meters = []

    class Recording(Meter):
        def __init__(self, *args):
            super().__init__(*args)
            meters.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "BUDGET_CAP", cap)
        patch.setattr(module, "Meter", Recording)
        try:
            outcomes = module.enumerate_outcomes(p, i, b)
        except BudgetExceeded:
            outcomes = None
    return outcomes, meters[0].used


@settings(max_examples=STAGED_ORACLE_EXAMPLES, deadline=None)
@given(
    case=staged_case_st(),
    cap=st.one_of(st.just(3000), st.integers(1, 3000)),
)
def test_staged_oracle_matches_the_literal_enumerator(case, cap):
    # Most cases fit a cap of 3,000 and compare outcome sets. The oracle
    # prunes candidates the literal enumerator charges, so under any cap it
    # raises only where the literal one does, and charges at most as much.
    p, i, b = case
    expected, literal_charge = _outcomes_and_charge(reference_oracle, p, i, b, cap)
    outcomes, charge = _outcomes_and_charge(oracle_mod, p, i, b, cap)
    if expected is not None:
        assert outcomes == expected
        assert charge <= literal_charge


def _verbatim(p: Procedure, i: Instance) -> frozenset[str]:
    scope = scope_map(p.scope)
    return frozenset(r for r in i.schema.names if scope.get(r, frozenset()) == frozenset())


def _demanding(p: Procedure, i: Instance) -> list[tuple[Tgd, dict]]:
    """The postconditions the oracle checks by containment, with their demanded rows."""
    clauses = outcome_clauses(p, outcome_inputs(p, i), _verbatim(p, i))
    return [(p.post[check.idx], check.demands) for _, check in clauses if isinstance(check, Contained)]


def _totals(p: Procedure) -> list[str]:
    """The relations of the unfiltered one-relation `total` safety queries."""
    return [
        q.relations[0] for q in p.safe if isinstance(q, TotalQuery) and q.condition is None and len(q.relations) == 1
    ]


def _schemas(p: Procedure, i: Instance, b: Budget) -> list[Schema]:
    return list(oracle_mod._candidate_schemas(i, p, b)) if outcome_inputs(p, i).applicable else []


def _widened_head(p, i, b) -> bool:
    """Some candidate schema gives a demanding head relation an attribute
    that neither the input nor the head atom has."""
    return any(
        s.defines(rel) and s.attrs(rel) > attrs | (i.schema.attrs(rel) if i.schema.defines(rel) else attrs)
        for _, rows in _demanding(p, i)
        for rel, attrs in rows
        for s in _schemas(p, i, b)
    )


def _total_resized(p, i, b, narrower: bool) -> bool:
    return any(
        s.attrs(rel) != i.schema.attrs(rel) and (s.attrs(rel) < i.schema.attrs(rel)) == narrower
        for rel in _totals(p) for s in _schemas(p, i, b)
    )


# what `staged_case_st` must reach, as predicates on (procedure, input, budget)
STAGED_BRANCHES = {
    "kept-body tgd with a head constant": lambda p, i, b: any(
        isinstance(t, Value) for d, _ in _demanding(p, i) for a in d.head.atoms for _, t in a.bindings
    ),
    "head relation widened by growth": _widened_head,
    "existential head over kept relations": lambda p, i, b: any(
        isinstance(d, Tgd) and d.head.existential and all(a.relation in _verbatim(p, i) for a in d.body.atoms)
        for d in p.post
    ),
    "kept relation empty on the input": lambda p, i, b: any(
        not i.rows(a.relation) for d, _ in _demanding(p, i) for a in d.body.atoms
    ),
    "total R under a schema that narrows R": lambda p, i, b: _total_resized(p, i, b, True),
    "total R under a schema that widens R": lambda p, i, b: _total_resized(p, i, b, False),
    "alter step with extra=1 and growth": lambda p, i, b: b.extra_constants == 1 and b.allow_schema_growth and any(
        isinstance(c, StructureConstraint) and not set(c.attributes) <= i.schema.attrs(c.relation) for c in p.post
    ),
}


@pytest.mark.parametrize("branch", sorted(STAGED_BRANCHES))
def test_staged_cases_reach_each_branch(branch):
    holds = STAGED_BRANCHES[branch]
    found = find(
        staged_case_st(),
        lambda case: bool(holds(*case)),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )
    assert holds(*found)


@settings(max_examples=STAGED_ORACLE_EXAMPLES, deadline=None)
@given(case=staged_case_st())
def test_partially_evaluated_clauses_list_the_literal_failures(case):
    # Each postcondition's and safety query's clause, given the relations the
    # oracle keeps, lists on every candidate the oracle builds what
    # `_post_failures` or `_safety_failures` lists.
    p, i, b = case
    kept, batches = [], []
    clauses, accepted = oracle_mod.outcome_clauses, oracle_mod._accepted

    def recording_clauses(p, inputs, verbatim):
        kept.append(verbatim)
        return clauses(p, inputs, verbatim)

    def recording(schema, per_relation, clauses):
        batches.append((schema, per_relation))
        return accepted(schema, per_relation, clauses)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "BUDGET_CAP", 1000)
        patch.setattr(oracle_mod, "outcome_clauses", recording_clauses)
        patch.setattr(oracle_mod, "_accepted", recording)
        try:
            enumerate_outcomes(p, i, b)
        except BudgetExceeded:
            pass
    inputs = outcome_inputs(p, i)
    for verbatim in kept:  # one step: at most once
        for schema, per_relation in batches:
            for rows in itertools.product(*(choices for _, choices in per_relation)):
                j = Instance.of(schema, dict(zip((rel for rel, _ in per_relation), rows)))
                assert _clause_failures(p, outcome_clauses(p, inputs, verbatim), j) == (
                    [_post_failures(idx, c, j) for idx, c in enumerate(p.post)],
                    [_safety_failures(idx, q, old, i.schema, j) for idx, (q, old) in enumerate(zip(p.safe, inputs.safety))],
                )


@st.composite
def perturbed_table_st(draw, i: Instance, outcomes: frozenset[Instance]):
    """A ground table of the input or of an outcome, with a row dropped or a
    cell made a labeled null maybe, or the empty result: tables that
    represent some, all or none of the outcomes."""
    base = draw(st.sampled_from([i, *sorted(outcomes, key=oracle_mod._instance_sort_key)]))
    kind = draw(st.sampled_from(["ground", "drop", "null", "empty"]))
    if kind == "empty":
        return EMPTY
    pairs = [(rel, row) for rel, rows in base.data for row in sorted(rows)]
    if kind != "ground" and pairs:
        rel, row = draw(st.sampled_from(pairs))
        pairs.remove((rel, row))
        if kind == "null":
            k = draw(st.integers(0, len(row.values) - 1))
            pairs.append((rel, Row(row.attrs, row.values[:k] + (NULLS[0],) + row.values[k + 1 :])))
    data = {rel: [(row, TRUE) for r, row in pairs if r == rel] for rel in base.schema.names}
    return ConditionalInstance.of(base.schema, data)


@settings(max_examples=DERIVED_MISSING_EXAMPLES, deadline=None)
@given(case=staged_case_st(), data=st.data())
def test_derived_missing_equals_the_literal_membership_check(case, data):
    # compare_with_chase checks membership on the minimal outcomes and every
    # outcome only when one of those is unrepresented. Its `missing` must be
    # the literal check of every outcome, in report order, for the chase's
    # table and for wrong tables put in its place.
    p, i, b = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "BUDGET_CAP", 3000)
        try:
            outcomes = enumerate_outcomes(p, i, b)
        except BudgetExceeded:
            return
        if data.draw(st.booleans(), label="chase table"):
            try:
                table = approximate_outcomes(i, [p])
            except UnsupportedClass:
                return
        else:
            table = data.draw(perturbed_table_st(i, outcomes), label="table")
        patch.setattr(oracle_mod, "approximate_outcomes", lambda i, ps: table)
        report = oracle_mod.compare_with_chase(i, [p], b)
    empty = isinstance(table, EmptyResult)
    assert report.missing == tuple(
        j
        for j in sorted(outcomes, key=oracle_mod._instance_sort_key)
        if empty or not rep_contains(table, j)
    )


# --- the minimal schema against the oracle's outcomes -------------------------


@st.composite
def scoped_case_st(draw) -> tuple[Procedure, Instance]:
    """One or two small relations over a, b, c with one or two rows of bits,
    a scope of one to three entries that may repeat a relation and mix
    wildcards with attribute lists, and at most one safety query."""
    names = draw(st.lists(st.sampled_from(["R", "T"]), min_size=1, max_size=2, unique=True))
    attrs = {
        rel: sorted(draw(st.sets(st.sampled_from("abc"), min_size=1)))
        for rel in names
    }
    s = Schema.of(attrs)
    data = {}
    for rel in names:
        cells = st.tuples(*(st.sampled_from(BITS) for _ in attrs[rel]))
        data[rel] = {
            Row.of(dict(zip(attrs[rel], c)))
            for c in draw(st.lists(cells, min_size=1, max_size=2))
        }
    scope = []
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(names))
        if draw(st.booleans()):
            scope.append(StructureConstraint.of(rel))
        else:
            scope.append(
                StructureConstraint.of(rel, draw(st.sets(st.sampled_from(attrs[rel]), min_size=1)))
            )
    rel = draw(st.sampled_from(names))
    safe_kind = draw(st.sampled_from(["none", "cq", "total", "filtered"]))
    safe = []
    if safe_kind == "cq":
        bound = draw(st.sets(st.sampled_from(attrs[rel]), min_size=1))
        safe.append(open_cq([NamedAtom.of(rel, {a: Var(a) for a in bound})]))
    elif safe_kind == "total":
        safe.append(TotalQuery((rel,)))
    elif safe_kind == "filtered":
        cond = Comparison(draw(st.sampled_from(attrs[rel])), "=", draw(st.sampled_from(BITS)))
        safe.append(TotalQuery((rel,), cond))
    return Procedure.of(scope=scope, safe=safe), Instance.of(s, data)


@settings(max_examples=MIN_SCHEMA_SOUNDNESS_EXAMPLES, deadline=None)
@given(case=scoped_case_st())
def test_min_schema_bounds_every_oracle_outcome(case):
    p, i = case
    outs = enumerate_outcomes(p, i, Budget(max_new_tuples=1))
    req = min_schema(p, i.schema)
    if isinstance(req, Failure):
        assert not outs
    else:
        assert all(schema_extends(j.schema, req.schema) for j in outs)


# --- template calls against their instantiation ---------------------------------

TEMPLATE_DECLARATIONS = (
    "tgd d0 : R(a: x) -> T(a: x)\n"
    "tgd d1 : R(b: x) -> U(b: x, c: y)\n"
    "tgd d2 : T(a: x) -> R(a: x)\n"
    "egd d3 : R(a: x) and R(a: y) -> x = y\n"
    "query q1(x) : exists y . T(a: x, b: y)\n"
    "query q2(x, y) : T(a: x, b: y)\n"
    "query q3 : total T\n"
)
TEMPLATE_SCOPE = parse_workspace(TEMPLATE_DECLARATIONS)

template_name_st = st.builds(
    lambda head, tail, dotted: head + tail + dotted,
    st.sampled_from("aRT_x"),
    st.text("ab1_", max_size=3),
    st.sampled_from(["", ".b"]),
).filter(lambda name: name not in dsl.RESERVED_WORDS)

# (text, value) pairs: constants and nulls; bare names are constants only in value lists
template_literal_st = st.one_of(
    st.integers(-20, 20).map(lambda n: (str(n), const(n))),
    st.text("ab ", max_size=3).map(lambda s: (f'"{s}"', const(s))),
    st.text("ab1", min_size=1, max_size=3).map(lambda s: (f"?{s}", null_marker(s))),
)
template_value_st = st.one_of(template_literal_st, template_name_st.map(lambda s: (s, const(s))))


def _joined(op: str, items: list) -> tuple:
    text = f" {op} ".join(f"({t})" for t, _ in items)
    return text, (And if op == "and" else Or)(tuple(c for _, c in items))


# (text, condition) pairs for `sql_delete`
template_condition_st = st.recursive(
    st.builds(
        lambda lhs, op, rhs: (f"{lhs} {op} {rhs[0]}", Comparison(lhs, op, rhs[1])),
        template_name_st,
        st.sampled_from(["=", "!="]),
        st.one_of(template_name_st.map(lambda s: (s, s)), template_literal_st),
    ),
    lambda sub: st.one_of(
        sub.map(lambda tc: (f"not ({tc[0]})", Not(tc[1]))),
        st.builds(_joined, st.sampled_from(["and", "or"]), st.lists(sub, min_size=2, max_size=3)),
    ),
    max_leaves=4,
)


def template_argument_st(key: str, shape: str):
    """(text, parameter, value) for one parameter of a template call."""
    names = st.lists(template_name_st, min_size=1, max_size=3)
    if shape in ("relation", "attribute"):
        return template_name_st.map(lambda s: (s, key, s))
    if shape == "attributes":
        return names.map(lambda ns: (", ".join(ns), key, ns))
    if shape == "dependencies":
        deps = st.lists(st.sampled_from(sorted(TEMPLATE_SCOPE.constraints)), min_size=1, max_size=3)
        return deps.map(lambda ns: (", ".join(ns), key, [TEMPLATE_SCOPE.constraints[n] for n in ns]))
    if shape == "condition":
        return template_condition_st.map(lambda tc: (tc[0], key, tc[1]))
    values = st.lists(template_value_st, min_size=1, max_size=3).map(
        lambda tvs: (", ".join(t for t, _ in tvs), key, [v for _, v in tvs])
    )
    query = st.sampled_from(sorted(TEMPLATE_SCOPE.queries)).map(
        lambda n: (f"query {n}", "query", TEMPLATE_SCOPE.queries[n])
    )
    return st.one_of(values, query)


@settings(max_examples=TEMPLATE_EXAMPLES, deadline=None)
@given(kind=st.sampled_from(sorted(TEMPLATE_KINDS)), data=st.data())
def test_template_calls_parse_to_their_instantiation(kind, data):
    template = TEMPLATE_KINDS[kind]
    given_groups = len(template.groups) - data.draw(st.integers(0, template.optional))
    params: dict = {"name": "p"}
    groups = []
    for group in template.groups[:given_groups]:
        texts = []
        for key, shape in group.items():
            text, param, value = data.draw(template_argument_st(key, shape))
            texts.append(text)
            params[param] = value
        groups.append(", ".join(texts))
    text = f"{TEMPLATE_DECLARATIONS}proc p = template {kind}({'; '.join(groups)})\n"
    try:
        expected = instantiate_template(kind, params)
    except WorkbenchError as e:
        # the parser places a builder's complaint at the call; other errors pass through
        wrapped = isinstance(e, MalformedParams)
        with pytest.raises(WorkspaceSyntaxError if wrapped else type(e)) as err:
            parse_workspace(text)
        assert str(err.value).endswith(f"template {kind}: {e}" if wrapped else str(e))
        return
    p = parse_workspace(text).procedures["p"]
    assert p == expected and p.name == "p"


# --- mutated JSON images -------------------------------------------------------

JSON_MUTATION_WORKSPACE = """
schema S { rel R(a, b); rel T(a, b); }
instance I : S { R: (1, 2), (3, 4); T: (1, 2); }
instance J : S { R: (1, 2); T: (1, 2); }
instance K : S { R: (1, ?n); T: ; }
query q : exists x, y . T(a: x, b: y)
query both : total R, T
proc del = template sql_delete(R; a = 3 or not (b != 2))
proc copy {
  scope { T[*]; }
  pre { egd R(a: x, b: y) and R(a: x, b: z) -> y = z; }
  post { tgd R(a: x, b: y) -> T(a: x, b: y); }
  safe { total T; }
}
proc kept {
  scope { T[*]; }
  safe { cq T(a: x, b: y); }
}
proc grow = template alter_table(T; c)
seq s = grow
"""
JSON_MUTATION_COMMANDS = (
    ["validate"],
    ["check-outcome", "--proc", "del", "--before", "I", "--after", "J"],
    ["check-outcome", "--proc", "kept", "--before", "I", "--after", "J"],
    ["schema-min", "--proc", "copy", "--schema", "S", "--allow-data-preconditions"],
    ["outcomes", "--instance", "I", "--seq", "s"],
    # the chase refuses copy's egd precondition: UnsupportedPrecondition, exit 2
    ["outcomes", "--instance", "I", "--seq", "copy"],
    ["ready", "--instance", "I", "--seq", "s", "--query", "q"],
)
JSON_REPLACEMENTS = (1, None, [], {}, "x", "@x", "a b", "", "a\nb")
JSON_KINDS = (
    "cmp", "not", "and", "or", "xor", "tgd", "egd", "struct", "cq", "total", "total_conj", "filtered"
)
JSON_MUTATION_IMAGE = workspace_to_json(parse_workspace(JSON_MUTATION_WORKSPACE))


def _json_slots(obj, path=()):
    """The path of every object field and list item below `obj`."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_slots(value, path + (key,))


def _json_mutations(image, path) -> dict[str, list]:
    """The one-step mutations of the field at `path`: per operation, its arguments."""
    parent = functools.reduce(operator.getitem, path[:-1], image)
    value = parent[path[-1]]
    ops: dict[str, list] = {"drop": [None], "replace": list(JSON_REPLACEMENTS)}
    if isinstance(parent, dict):
        ops["rename"] = [None]
    if isinstance(value, dict) and "kind" in value:
        ops["kind"] = [k for k in JSON_KINDS if k != value["kind"]]
    return ops


def _mutated(image, path, op: str, arg):
    """A copy of `image` with the field at `path` mutated by `op`."""
    image = copy.deepcopy(image)
    parent = functools.reduce(operator.getitem, path[:-1], image)
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "rename":
        parent[f"{key}_"] = parent.pop(key)
    elif op == "kind":
        parent[key]["kind"] = arg
    else:
        parent[key] = copy.deepcopy(arg)
    return image


@st.composite
def json_mutation_st(draw, image):
    """A copy of `image` with one field dropped or renamed, or one value replaced."""
    path = draw(st.sampled_from(list(_json_slots(image))))
    ops = _json_mutations(image, path)
    op = draw(st.sampled_from(list(ops)))
    return _mutated(image, path, op, draw(st.sampled_from(ops[op])))


def test_every_json_mutation_fails_cleanly_or_round_trips():
    """Each mutation `json_mutation_st` can draw either fails to load with a
    WorkbenchError or loads a workspace whose text form reads back as it."""
    walked = loaded = 0
    for path in _json_slots(JSON_MUTATION_IMAGE):
        for op, args in _json_mutations(JSON_MUTATION_IMAGE, path).items():
            for arg in args:
                walked += 1
                try:
                    ws = workspace_from_json(_mutated(JSON_MUTATION_IMAGE, path, op, arg))
                except WorkbenchError:
                    continue
                loaded += 1
                assert parse_workspace(serialize_workspace(ws)) == ws, (path, op, arg)
    assert walked > 1000 and loaded > 100


@settings(max_examples=JSON_MUTATION_EXAMPLES, deadline=None)
@given(data=st.data())
def test_mutated_json_workspaces_exit_cleanly(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.dq.json"
    path.write_text(json.dumps(data.draw(json_mutation_st(JSON_MUTATION_IMAGE))))
    for argv in JSON_MUTATION_COMMANDS:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert run_command([*argv, "--workspace", str(path)]) in (0, 1, 2)


# --- mutated text workspaces ---------------------------------------------------

TEXT_REPLACEMENTS = (
    "@", "?", '"', "#", "->", "(", ")", ",", ";", "total",
    "\u00b2", "x", "y", "1.", "-", "?n", '"a@b"', "rel", "\u00e9", "nonnull",
)


def _text_mutations(text: str):
    """Each token of `text` dropped, doubled (a blank between the copies), or
    replaced by each of TEXT_REPLACEMENTS. The walk reads tuple lists token
    by token, so it mutates their values and punctuation one at a time."""
    raw = dsl._lex(text, tuples=False)
    for i in range(len(raw) - 1):
        start = dsl._offset(text, raw, i, tuples=False)
        end = start + len("".join(raw[i]))
        yield text[:start] + text[end:]
        yield text[:end] + " " + text[start:end] + text[end:]
        for replacement in TEXT_REPLACEMENTS:
            yield text[:start] + replacement + text[end:]


def test_every_text_mutation_fails_cleanly_or_round_trips():
    """Each one-step token mutation of the mutation workspace either fails
    to parse with a WorkbenchError or parses to a workspace whose text form
    reads back as it."""
    walked = loaded = 0
    for text in _text_mutations(JSON_MUTATION_WORKSPACE):
        walked += 1
        try:
            ws = parse_workspace(text)
        except WorkbenchError:
            continue
        loaded += 1
        assert parse_workspace(serialize_workspace(ws)) == ws, text
    assert walked == 246 * (2 + len(TEXT_REPLACEMENTS)) and loaded > 300


# --- instance sections: tuple lists read at once against token by token ------

SECTION_PIECES = ("(", ")", ",", ";", "1", "x", "total", '"s"', '"a@b"', '"a;b"', "?n", "}", "->")
SECTION_VALUES = (
    "1", "-2", "3.25", "-0.5", "007", "x", "a.b", "total", "rel", "?n", "?m1", "1.", "a.", "?",
    '"s"', '"x y"', '"a,b"', '"a)b"', '"a(b"', '"a#b"', '"a;b"', '"a\\"b"', '"a@b"', "x@y",
    "²", "1²", "½", "", "1\f", "\xa02", "1.2.3", "x y",
)
SECTION_BLANKS = ("", " ", "  ", "\t", "\n", "\r\n", " \r\n  ")
SECTION_COMMENTS = ("# c\n", " #1, 2), (3\n", '#"\n')
ROOT = Path(__file__).resolve().parent.parent
TUPLE_LIST_MISFIT = "schema S { rel R(a, b); rel T(a, b); }\ninstance I : S { R: #1, 2), (3, 4); T: (1, 2); }\n"


def _reading(parse, text: str):
    """The workspace `parse(text)` returns, or its error's class, message, line and column."""
    try:
        return parse(text)
    except WorkbenchError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def _assert_readers_agree(text: str) -> bool:
    """The tuple-list reading of `text` gives the workspace the token path
    gives, or fails where that fails, and `parse_workspace` gives the token
    path's workspace or its very error. Returns whether a tuple list lexed
    as one token."""
    tokens = _reading(lambda t: dsl._Parser(t, False).parse(), text)
    bulk = _reading(lambda t: dsl._Parser(t, True).parse(), text)
    if isinstance(bulk, dsl.Workspace):
        assert bulk == tokens, text
    else:
        assert not isinstance(tokens, dsl.Workspace), (text, bulk)
    assert _reading(parse_workspace, text) == tokens, text
    try:
        return any(t[dsl._TUPLES] for t in dsl._lex(text))
    except WorkspaceSyntaxError:
        return False


@st.composite
def instance_section_st(draw):
    """A workspace whose `R` section draws arities 1 to 4 and tuples of the
    wrong arity (`2 * arity + 1` values among them, which fill a tuple and a
    half), well-formed values and one of any kind, blanks with CRLF,
    comments before and inside the tuple list in one text of four, trailing
    commas and empty sections."""
    arity = draw(st.integers(1, 4))
    gaps = SECTION_BLANKS + (SECTION_COMMENTS if draw(st.integers(0, 3)) == 0 else ())

    def gap():
        return draw(st.sampled_from(gaps))

    odd = draw(st.sampled_from(SECTION_VALUES))  # of any kind, among well-formed ones

    def value():
        return draw(st.sampled_from(SECTION_VALUES[:11])) if draw(st.integers(0, 5)) else odd

    def one_tuple():
        n = arity if draw(st.integers(0, 5)) else draw(st.integers(0, 2 * arity + 1))
        return "(" + ",".join(gap() + value() + gap() for _ in range(n)) + ")"

    tuples = ",".join(gap() + one_tuple() + gap() for _ in range(draw(st.integers(0, 4))))
    tail = draw(st.sampled_from(("", "", "", ",", " ,", ")")))
    return (
        f"schema S {{ rel R({', '.join('abcd'[:arity])}); rel T(a); }}\n"
        f"instance I : S {{ R:{gap()}{tuples}{tail}{gap()}; T:{gap()}(1){gap()}; }}\n"
    )


@settings(max_examples=SECTION_EXAMPLES, deadline=None)
@given(
    arity=st.integers(1, 3),
    rows=st.lists(st.lists(st.sampled_from(SECTION_PIECES[4:11]), min_size=1, max_size=4), max_size=4),
    tail=st.lists(st.sampled_from(SECTION_PIECES), max_size=3),
    cut=st.integers(0, 40),
)
def test_sliced_instance_sections_match_the_token_reader(arity, rows, tail, cut):
    """The tuple-list reading of an instance section gives what the token
    path gives, and declines every section the token path rejects: tuples of
    the wrong arity, a value that is no constant, a string with `@`, a
    missing `;`."""
    attrs = ", ".join("abc"[:arity])
    section = ", ".join("(" + ", ".join(row) + ")" for row in rows) + " ".join(tail)
    text = f"schema S {{ rel R({attrs}); rel T(a); }}\ninstance I : S {{ R: {section}; T: (1); }}"
    for text in (text, text[: len(text) - cut]):
        _assert_readers_agree(text)


@settings(max_examples=SECTION_EXAMPLES, deadline=None)
@given(text=instance_section_st())
def test_tuple_list_reader_agrees_with_the_token_path(text):
    _assert_readers_agree(text)


def test_tuple_list_reader_agrees_on_mutations_and_bench_texts(monkeypatch):
    for v in SECTION_VALUES:
        _assert_readers_agree(f"schema S {{ rel R(a, b); }}\ninstance I : S {{ R: (1, {v}), (2, 3); }}")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    texts = [t for make in workloads.GENERATORS.values() for t in make(1).files.values()]
    assert all([_assert_readers_agree(text) for text in texts])
    read = [_assert_readers_agree(text) for text in _text_mutations(JSON_MUTATION_WORKSPACE)]
    assert len(read) == 246 * (2 + len(TEXT_REPLACEMENTS)) and sum(read) > 1000


def test_a_comment_never_starts_a_tuple_list():
    """Only blanks come before a tuple-list token, so the comment's tail
    `1, 2), (3, 4)` is never read as one, and the text fails as it does
    token by token."""
    assert not _assert_readers_agree(TUPLE_LIST_MISFIT)
    with pytest.raises(WorkspaceSyntaxError, match="line 2, col 19: expected ';', found end of file"):
        parse_workspace(TUPLE_LIST_MISFIT)


# --- repeated tuple lists: one reading per (row layout, text) ------------------

SHARED_SCHEMA = "schema S { rel R(a, b); rel T(c, d); rel V(a); rel X(a, b, c); }\n"


@st.composite
def shared_sections_st(draw):
    """Two or three instances whose sections draw their tuple lists from a
    pool of one list per arity 1 to 3, so a list repeats across instances
    and sits under both `R(a, b)` and `T(c, d)` (equal arity, other
    attributes). One section in six takes a list of any arity, so a list
    also sits under relations of other arities. A tuple in six has an odd
    arity, and a value in six is one of any kind."""
    odd = draw(st.sampled_from(SECTION_VALUES))

    def tuple_list(arity):
        def one_tuple():
            n = arity if draw(st.integers(0, 5)) else draw(st.integers(1, 3))
            return "(" + ", ".join(draw(st.sampled_from(SECTION_VALUES[:11] + (odd,))) for _ in range(n)) + ")"

        return ", ".join(one_tuple() for _ in range(draw(st.integers(1, 3))))

    pool = {arity: tuple_list(arity) for arity in (1, 2, 3)}
    instances = []
    for k in range(draw(st.integers(2, 3))):
        sections = ""
        for r in draw(st.lists(st.sampled_from("RTVX"), unique=True)):
            arity = {"R": 2, "T": 2, "V": 1, "X": 3}[r] if draw(st.integers(0, 5)) else draw(st.integers(1, 3))
            sections += f" {r}: {pool[arity]};"
        instances.append(f"instance I{k} : S {{{sections} }}\n")
    return SHARED_SCHEMA + "".join(instances)


@settings(max_examples=SECTION_EXAMPLES, deadline=None)
@given(text=shared_sections_st())
@example(text=SHARED_SCHEMA + "instance I : S { R: (1, 2), (3, 4); T: (1, 2), (3, 4); }\n")
@example(text=SHARED_SCHEMA + "instance I : S { R: (1, 2); }\ninstance J : S { V: (1, 2); T: (1, 2); }\n")
@example(text=SHARED_SCHEMA + "instance I : S { V: (1), (2); }\ninstance J : S { X: (1), (2); V: (1), (2); }\n")
def test_repeated_tuple_lists_read_as_the_token_path_reads_them(text):
    """A tuple list read again, under the same layout or another one, gives
    what the token path gives, or fails where that fails."""
    _assert_readers_agree(text)


def test_figure_1_instances_share_their_evisits_rows():
    """Equal `EVisits` tuple lists under one layout are read once: every
    candidate outcome holds `I`'s very `frozenset`, and `Instance.of` keeps it."""
    ws = load_workspace(str(FIG1))
    evisits = ws.instances["I"].rows("EVisits")
    assert type(evisits) is frozenset and len(evisits) == 2
    for name in ("J1", "J2", "J3", "J1_missing"):
        assert ws.instances[name].rows("EVisits") is evisits
    assert ws.instances["J1"].rows("LocVisits") is not ws.instances["I"].rows("LocVisits")


# --- reports and row builders against their literal paths --------------------

# quoted strings with the characters a rendered row separates and escapes by
RENDER_VALUES = (const(1), const("x"), const("a,b"), const('say "hi"'), const("back\\slash"), null_marker("n"))
# equal relation names under other layouts, and a schema with no relation
RENDER_SCHEMAS = (
    Schema.of({"R": ("a",), "T": ("a", "b")}),
    Schema.of({"R": ("a", "c"), "T": ("a", "b")}),
    Schema.of({"T": ("b",)}),
    Schema.of({}),
)


@st.composite
def render_batch_st(draw) -> list[Instance]:
    """Instances whose relations take a row set drawn before under the same
    layout, so blocks repeat, or a new one, maybe empty."""
    drawn: dict[tuple[str, tuple[str, ...]], list[frozenset[Row]]] = {}
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        schema = draw(st.sampled_from(RENDER_SCHEMAS))
        data = {}
        for rel in schema.names:
            layout = schema.layout(rel)
            before = drawn.setdefault((rel, layout), [])
            if before and draw(st.booleans()):
                data[rel] = draw(st.sampled_from(before))
            else:
                cells = st.tuples(*(st.sampled_from(RENDER_VALUES) for _ in layout))
                data[rel] = frozenset(Row(layout, c) for c in draw(st.lists(cells, max_size=3)))
                before.append(data[rel])
        batch.append(Instance.of(schema, data))
    return batch


def _blocks(batch: list[Instance]) -> Counter:
    return Counter(pair for i in batch for pair in i.data)


# what `render_batch_st` must reach
RENDER_BRANCHES = {
    "a block with rows in two instances": lambda batch: any(n > 1 and pair[1] for pair, n in _blocks(batch).items()),
    "an empty relation under two layouts": lambda batch: len(
        {i.schema.layout("T") for i in batch if i.schema.defines("T") and not i.rows("T")}
    ) > 1,
    "an instance over no relation": lambda batch: any(not i.data for i in batch),
}


@pytest.mark.parametrize("branch", sorted(RENDER_BRANCHES))
def test_render_batches_reach_each_branch(branch):
    holds = RENDER_BRANCHES[branch]
    found = find(render_batch_st(), holds, settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))
    assert holds(found)


@settings(max_examples=RENDER_EXAMPLES, deadline=None)
@given(batch=render_batch_st())
def test_render_instances_match_the_literal_renderer(batch):
    expected = [reference_queries.render_instance(i) for i in batch]
    assert render_instances(batch) == expected
    assert [render_instance(i) for i in batch] == expected


@settings(max_examples=EXTENSION_EXAMPLES, deadline=None)
@given(
    cells=st.dictionaries(st.sampled_from("abcd"), st.sampled_from(VALUES), max_size=3),
    fill=st.lists(st.sampled_from("abcd"), unique=True, max_size=3),
    pool=st.lists(st.sampled_from(VALUES), unique=True, max_size=3),
)
def test_extensions_match_the_literal_row_builder(cells, fill, pool):
    # `fill` may name attributes the row has: their cells are replaced
    row = Row.of(cells)
    assert oracle_mod._extensions(row, fill, pool) == reference_oracle._extensions(row, fill, pool)


@settings(max_examples=MINIMALITY_EXAMPLES, deadline=None)
@given(j=small_instance_st(), k=small_instance_st(), data=st.data())
def test_same_schema_extension_matches_the_general_path(j, k, data):
    # k as drawn, or a part of j's rows over an equal but distinct schema
    if data.draw(st.booleans()):
        part = {rel: data.draw(st.sets(st.sampled_from(sorted(rows)))) for rel, rows in j.data}
        k = Instance.of(Schema(REP_SCHEMA.rels), part)
    for a, b in ((j, k), (k, j), (j, j)):
        assert instance_extends(a, b) == reference_queries.instance_extends(a, b)


def _budget_text(b: Budget) -> str:
    growth = ",growth" if b.allow_schema_growth else ""
    return f"extra={b.extra_constants},tuples={b.max_new_tuples},attrs={b.max_new_attributes}{growth}"


@settings(max_examples=REPORT_ORDER_EXAMPLES, deadline=None)
@given(case=staged_case_st(), minimal=st.booleans())
def test_oracle_reports_list_outcomes_in_the_literal_render_order(case, minimal):
    p, i, b = case
    ws = Workspace()
    ws.schemas["S"], ws.instances["I"], ws.instance_schema["I"], ws.procedures["p"] = i.schema, i, "S", p
    argv = ["oracle", "--workspace", "ws.dq", "--instance", "I", "--seq", "p", "--budget", _budget_text(b)]
    argv += ["--minimal"] if minimal else []
    reports = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "BUDGET_CAP", 3000)
        patch.setattr("dqworkbench.cli.load_workspace", lambda path: ws)
        try:
            outcomes = enumerate_outcomes(p, i, b)
        except BudgetExceeded:
            return
        for form in ("text", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_command([*argv, "--format", form])
            assert code == (0 if outcomes else 1)
            reports[form] = out.getvalue()
    if minimal:
        outcomes = minimal_outcomes(outcomes)
    ordered = sorted(outcomes, key=reference_queries.render_instance)
    label = "minimal outcomes" if minimal else "outcomes"
    lines = [f"{label} within budget: {len(ordered)}"]
    for idx, o in enumerate(ordered):
        text = reference_queries.render_instance(o)
        lines += [f"--- outcome {idx} ---", *([text] if text else [])]
    assert reports["text"] == "\n".join(lines) + "\n"
    assert json.loads(reports["json"])["outcomes"] == [instance_to_json(o) for o in ordered]
