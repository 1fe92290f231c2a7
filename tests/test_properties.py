"""Bulk generated-case suites: representation closure, enumerator/checker
agreement, fold reproducibility, workspace format round-trips, and the
matcher against brute-force references.

The module-level *_EXAMPLES constants are the configured case counts; the
acceptance suite checks their sum.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

from hypothesis import given, settings, strategies as st

from dqworkbench.chase import (
    EmptyResult,
    TableResult,
    approximate_outcomes,
    canonical_table,
    outcomes_nonempty,
)
from dqworkbench import constraints
from dqworkbench.constraints import (
    NamedAtom,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    cq,
    homomorphisms,
)
from dqworkbench.ctables import (
    TRUE,
    CondEq,
    CondNeq,
    ConditionalInstance,
    CRow,
    LabeledNull,
    apply_valuation,
    cond_and,
    render_ctable,
    rep_contains,
)
from dqworkbench.dsl import (
    parse_workspace,
    serialize_workspace,
    workspace_from_json,
    workspace_to_json,
)
from dqworkbench.model import Instance, Row, Schema, active_domain, const, null_marker
from dqworkbench.oracle import Budget, enumerate_outcomes
from dqworkbench.procedures import Procedure, instantiate_template, is_possible_outcome

from .test_dsl import workspace_st
from .test_oracle import inclusion_tgd, rt_instance

REP_CLOSURE_EXAMPLES = 150
AGREEMENT_EXAMPLES = 100
DETERMINISM_EXAMPLES = 120
ROUND_TRIP_EXAMPLES = 150
MATCHER_EXAMPLES = 150

X = Var("x")

REP_SCHEMA = Schema.of({"R": ("a",), "T": ("a", "b")})
NULLS = (LabeledNull("n0"), LabeledNull("n1"))
CONSTS = tuple(const(k) for k in range(3))

cell_st = st.one_of(st.sampled_from(CONSTS), st.sampled_from(NULLS))

_leaf_cond_st = st.one_of(
    st.just(TRUE),
    st.builds(CondEq, st.sampled_from(NULLS), st.one_of(st.sampled_from(CONSTS), st.sampled_from(NULLS))),
    st.builds(CondNeq, st.sampled_from(NULLS), st.sampled_from(CONSTS)),
)

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
            row = CRow.of({a: draw(cell_st) for a in attrs})
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
