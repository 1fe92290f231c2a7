"""Bulk generated-case suites: representation closure, enumerator/checker
agreement, fold reproducibility, certainty against the minimal-member
enumeration, workspace format round-trips, the matcher against
brute-force references, the residual clause against the joint
residual query, the workspace lexer against the reference tokenizer,
size-ordered minimality and the oracle's up-front meter against the
all-pairs test and the candidate totals they replace, the oracle's staged
clause checks against the literal enumerator, the minimal schema as a
lower bound on the oracle's outcome schemas, c-table conditions against
brute-force valuations, template calls against their instantiation, and
mutated JSON workspaces against the CLI's exit codes.

The module-level *_EXAMPLES constants are the configured case counts; the
acceptance suite checks the sum of the first four.
"""

from __future__ import annotations

import copy
import functools
import io
import itertools
import json
import operator
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dqworkbench.chase import (
    EmptyResult,
    TableResult,
    approximate_outcomes,
    canonical_table,
    certain_boolean_cq,
    outcomes_nonempty,
)
from dqworkbench import constraints
from dqworkbench.analyzer import Failure, min_schema
from dqworkbench.cli import run_command
from dqworkbench.constraints import (
    And,
    Comparison,
    ConjunctiveQuery,
    ConstantAtom,
    Egd,
    FilteredTotalQuery,
    NamedAtom,
    Not,
    Or,
    StructureConstraint,
    Tgd,
    TotalConjQuery,
    TotalQuery,
    Var,
    boolean_cq,
    cq,
    cq_constants,
    evaluate_query,
    homomorphisms,
    is_compatible,
    open_cq,
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
    condition_nulls,
    condition_satisfiable,
    enumerate_minimal,
    fresh_null_valuation,
    render_ctable,
    rep_contains,
)
from dqworkbench import dsl
from dqworkbench import oracle as oracle_mod
from dqworkbench.dsl import (
    load_workspace,
    parse_workspace,
    serialize_workspace,
    workspace_from_json,
    workspace_to_json,
)
from dqworkbench.errors import (
    BudgetExceeded,
    Incompatible,
    MalformedParams,
    WorkbenchError,
    WorkspaceSyntaxError,
)
from dqworkbench.model import (
    Instance,
    Row,
    Schema,
    active_domain,
    const,
    null_marker,
    schema_extends,
)
from dqworkbench.oracle import Budget, enumerate_outcomes, minimal_outcomes
from dqworkbench.procedures import (
    TEMPLATE_KINDS,
    Procedure,
    instantiate_template,
    is_possible_outcome,
    outcome_clauses,
    outcome_inputs,
    possible_outcome_report,
    residual_atoms,
    residual_query,
)

from . import reference_oracle, reference_tokenizer
from .test_dsl import FIG1, workspace_st
from .test_oracle import inclusion_tgd, rt_instance
from .test_procedures import schema_and_scope

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

# The candidates the oracle charges for Figure 1's `migrate, migrate` with
# budget extra=1,tuples=1: the total the per-candidate meter reached.
FIG1_MIGRATE_TWICE_CHARGE = 18_948

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
        assert set(condition_nulls(a)) - partial.keys()
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
        safe=[TotalQuery(dst)],
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
                and {row["A"] for row in j.rows(rel)} <= pool
                for rel in ("R", "T")
            )
            if not within:
                continue
            assert (j in outs) == is_possible_outcome(p, i, j)


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
    if isinstance(first, TableResult):
        assert canonical_table(first.table) == canonical_table(second.table)
        assert render_ctable(first.table) == render_ctable(second.table)


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
    assert isinstance(res, TableResult)
    return res.table


@st.composite
def goal_st(draw, t: ConditionalInstance):
    """A boolean goal over the table's schema, sometimes read off its rows
    with each null a variable, so that goals hinge on which nulls are equal."""
    rows = [(rel, row) for rel, pairs in t.data for row, _ in pairs]
    atoms, bound = [], set()
    for _ in range(draw(st.integers(1, 3))):
        if rows and draw(st.booleans()):
            rel, row = draw(st.sampled_from(rows))
            cells = dict(row.cells)
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
                expected = h.setdefault(term, row[attr]) if isinstance(term, Var) else term
                ok = ok and row[attr] == expected
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


# --- the residual clause against the joint residual query --------------------

BITS = (const(0), const(1))


@st.composite
def residual_case_st(draw) -> tuple[Procedure, Instance, Instance]:
    """A procedure with a drawn scope and a before/after pair over its schema.

    Relations are often empty on either side; the after side often repeats
    the before side's rows, and now and then drops an attribute, so that
    the residual query may no longer fit it.
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
    if draw(st.integers(0, 4)) == 0:
        rel = draw(st.sampled_from(s.names))
        gone = draw(st.sampled_from(after_attrs[rel]))
        after_attrs[rel].remove(gone)
        after[rel] = {row.project(after_attrs[rel]) for row in after[rel]}
    # "V" is in no schema: its safety query is incompatible with both sides
    safe = draw(
        st.lists(st.sampled_from([TotalQuery(r) for r in s.names + ("V",)]), max_size=2)
    )
    p = Procedure.of(scope=scope, safe=safe)
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
    return [(t.kind, t.text, *_line_col(text, t.pos)) for t in dsl._tokenize(text)]


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
    monkeypatch.setattr(oracle_mod, "BUDGET_CAP", FIG1_MIGRATE_TWICE_CHARGE)
    assert len(enumerate_outcomes(seq, i, b)) == 727
    monkeypatch.setattr(oracle_mod, "BUDGET_CAP", FIG1_MIGRATE_TWICE_CHARGE - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_outcomes(seq, i, b)


def test_meter_stops_before_any_candidate_is_checked(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a candidate was checked")

    clauses = oracle_mod.outcome_clauses
    seq, i, _ = _fig1_migrate_twice()
    monkeypatch.setattr(
        oracle_mod,
        "outcome_clauses",
        lambda *args: [(reads, unreachable) for reads, _ in clauses(*args)],
    )
    # One more than the first schema's per-relation charge (2565): a
    # per-candidate meter would check one cross-relation candidate first.
    monkeypatch.setattr(oracle_mod, "BUDGET_CAP", 2566)
    with pytest.raises(BudgetExceeded, match="2565 candidates charged so far"):
        enumerate_outcomes(seq[0], i, Budget(max_new_tuples=1))


# --- the staged oracle against the literal enumerator -------------------------


@st.composite
def staged_case_st(draw) -> tuple[Procedure, Instance, Budget]:
    """R and T over a and b with up to two rows of bits each, so either may
    be empty; one or two scope entries, whole or on attributes; a tgd or an
    egd across R and T, whose head may name an attribute only growth adds;
    a CQ, total, filtered or total-conjunction safety query; and a budget
    with or without schema growth."""
    attrs = {rel: sorted(draw(st.sets(st.sampled_from("ab"), min_size=1))) for rel in "RT"}
    data = {}
    for rel in attrs:
        cells = st.tuples(*(st.sampled_from(BITS) for _ in attrs[rel]))
        data[rel] = {Row.of(dict(zip(attrs[rel], c))) for c in draw(st.lists(cells, max_size=2))}
    scope = []
    for rel in draw(st.lists(st.sampled_from("RT"), min_size=1, max_size=2, unique=True)):
        if draw(st.booleans()):
            scope.append(StructureConstraint.of(rel))
        else:
            scope.append(StructureConstraint.of(rel, draw(st.sets(st.sampled_from(attrs[rel]), min_size=1))))
    src, dst = draw(st.permutations("RT"))
    post = []
    dependency = draw(st.sampled_from(["none", "tgd", "egd"]))
    if dependency == "tgd":
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
    safe = []
    safe_kind = draw(st.sampled_from(["none", "cq", "total", "filtered", "conjunction"]))
    if safe_kind == "cq":
        bound = draw(st.sets(st.sampled_from(attrs[src]), min_size=1))
        safe.append(open_cq([NamedAtom.of(src, {a: Var(a) for a in bound})]))
    elif safe_kind == "total":
        safe.append(TotalQuery(src))
    elif safe_kind == "filtered":
        cond = Comparison(draw(st.sampled_from(attrs[src])), "=", draw(st.sampled_from(BITS)))
        safe.append(FilteredTotalQuery(src, cond))
    elif safe_kind == "conjunction":
        safe.append(TotalConjQuery((src, dst)))
    growth = draw(st.booleans())
    b = Budget(
        extra_constants=draw(st.integers(0, 1)),
        max_new_tuples=1,
        max_new_attributes=draw(st.integers(0, 1)) if growth else 0,
        allow_schema_growth=growth,
    )
    return Procedure.of(scope=scope, post=post, safe=safe), Instance.of(Schema.of(attrs), data), b


def _outcomes_or_cap_message(enumerate_, p, i, b):
    try:
        return enumerate_(p, i, b)
    except BudgetExceeded as e:
        return str(e)


@settings(max_examples=STAGED_ORACLE_EXAMPLES, deadline=None)
@given(
    case=staged_case_st(),
    cap=st.one_of(st.just(3000), st.integers(1, 3000)),
)
def test_staged_oracle_matches_the_literal_enumerator(case, cap):
    # Most cases fit a cap of 3,000 and compare outcome sets; under a smaller
    # cap both sides must stop at the same charge, with the same message.
    p, i, b = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "BUDGET_CAP", cap)
        patch.setattr(reference_oracle, "BUDGET_CAP", cap)
        assert _outcomes_or_cap_message(
            enumerate_outcomes, p, i, b
        ) == _outcomes_or_cap_message(reference_oracle.enumerate_outcomes, p, i, b)


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
        safe.append(TotalQuery(rel))
    elif safe_kind == "filtered":
        cond = Comparison(draw(st.sampled_from(attrs[rel])), "=", draw(st.sampled_from(BITS)))
        safe.append(FilteredTotalQuery(rel, cond))
    return Procedure.of(scope=scope, safe=safe), Instance.of(s, data)


@settings(max_examples=MIN_SCHEMA_SOUNDNESS_EXAMPLES, deadline=None)
@given(case=scoped_case_st())
def test_min_schema_bounds_every_oracle_outcome(case):
    p, i = case
    # An arity pin bounds outcomes only while its query has an answer to keep.
    if any(
        not isinstance(q, ConjunctiveQuery) and not evaluate_query(q, i) for q in p.safe
    ):
        return
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
query q : exists x, y . T(a: x, b: y)
proc del = template sql_delete(R; a = 3 or not (b != 2))
proc copy {
  scope { T[*]; }
  pre { egd R(a: x, b: y) and R(a: x, b: z) -> y = z; }
  post { tgd R(a: x, b: y) -> T(a: x, b: y); }
  safe { total T; }
}
proc grow = template alter_table(T; c)
seq s = grow
"""
JSON_MUTATION_COMMANDS = (
    ["validate"],
    ["check-outcome", "--proc", "del", "--before", "I", "--after", "J"],
    ["schema-min", "--proc", "copy", "--schema", "S", "--allow-data-preconditions"],
    ["outcomes", "--instance", "I", "--seq", "s"],
    ["ready", "--instance", "I", "--seq", "s", "--query", "q"],
)
JSON_REPLACEMENTS = (1, None, [], {}, "x", "@x")
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


@st.composite
def json_mutation_st(draw, image):
    """A copy of `image` with one field dropped or renamed, or one value replaced."""
    image = copy.deepcopy(image)
    path = draw(st.sampled_from(list(_json_slots(image))))
    parent = functools.reduce(operator.getitem, path[:-1], image)
    key, value = path[-1], parent[path[-1]]
    ops = ["drop", "replace"] + ["rename"] * isinstance(parent, dict) + ["kind"] * (
        isinstance(value, dict) and "kind" in value
    )
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del parent[key]
    elif op == "rename":
        parent[f"{key}_"] = parent.pop(key)
    elif op == "kind":
        value["kind"] = draw(st.sampled_from([k for k in JSON_KINDS if k != value["kind"]]))
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(JSON_REPLACEMENTS)))
    return image


@settings(max_examples=JSON_MUTATION_EXAMPLES, deadline=None)
@given(data=st.data())
def test_mutated_json_workspaces_exit_cleanly(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.dq.json"
    path.write_text(json.dumps(data.draw(json_mutation_st(JSON_MUTATION_IMAGE))))
    for argv in JSON_MUTATION_COMMANDS:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert run_command([*argv, "--workspace", str(path)]) in (0, 1, 2)
