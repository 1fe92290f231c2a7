"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test is self-contained and runs headlessly; `pytest -v` gives one
pass/fail line per criterion. Timing pins are smoke-level: generous
enough for CI noise, tight enough to catch complexity regressions.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

from dqworkbench.analyzer import Failure, SchemaRequirement, min_schema
from dqworkbench.chase import (
    EmptyResult,
    approximate_outcomes,
    outcomes_nonempty,
    plan_search,
    ready_for,
)
from dqworkbench.cli import run_command
from dqworkbench.constraints import (
    ConjunctiveQuery,
    NamedAtom,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    cq,
    evaluate_query,
    satisfies,
)
from dqworkbench.ctables import LabeledNull, enumerate_minimal, rep_contains
from dqworkbench.model import Instance, Row, Schema, active_domain, const
from dqworkbench.oracle import (
    Budget,
    compare_with_chase,
    enumerate_outcomes,
    minimal_outcomes,
)
from dqworkbench.procedures import Procedure, instantiate_template

from .conftest import boolean_cq, migrate_total_proc, open_cq
from .reference_queries import canonicalize_cq, residual_query
from .test_oracle import (
    containment_check_proc,
    copy_into_both_proc,
    inclusion_tgd,
    rt_instance,
)
from .test_properties import (
    AGREEMENT_EXAMPLES,
    DETERMINISM_EXAMPLES,
    REP_CLOSURE_EXAMPLES,
    ROUND_TRIP_EXAMPLES,
)

WORKSPACE = str(Path(__file__).resolve().parent.parent / "workspaces" / "fig1.dq")

X, Y, Z = Var("x"), Var("y"), Var("z")


def test_c01_shipped_workspace_outcome_checks_are_exact_and_fast():
    checks = [
        (("migrate", "I", "J1"), 0),
        (("migrate", "I", "J2"), 0),
        (("alter_age", "J1", "J3"), 0),
        (("migrate", "I", "J1_missing"), 1),
        (("migrate", "I", "I"), 1),
    ]
    t0 = time.perf_counter()
    for (proc, before, after), want in checks:
        code = run_command(
            [
                "check-outcome",
                "--workspace", WORKSPACE,
                "--proc", proc,
                "--before", before,
                "--after", after,
            ]
        )
        assert code == want, (proc, before, after, code)
    assert time.perf_counter() - t0 < 1.0


def test_c02_residual_query_matches_the_worked_example():
    s = Schema.of({"R": ("A1", "A2"), "T": ("B1", "B2", "B3"), "S": ("A1", "B1")})
    scope = [StructureConstraint.of("R"), StructureConstraint.of("S", ["B1"])]
    got = residual_query(s, scope)
    b1, b2, b3, a1 = Var("b1"), Var("b2"), Var("b3"), Var("a1")
    want = cq(
        [
            NamedAtom.of("T", {"B1": b1, "B2": b2, "B3": b3}),
            NamedAtom.of("S", {"A1": a1}),
        ],
        free=[b1, b2, b3, a1],
    )
    assert canonicalize_cq(got) == canonicalize_cq(want)


def test_c03_exchange_outcomes_equal_dependency_satisfying_targets():
    t0 = time.perf_counter()
    rng = random.Random(20260403)
    for case in range(20):
        src_arity = rng.choice([1, 2])
        n_targets = 1 if src_arity == 2 else rng.choice([1, 2])
        src_attrs = ("A", "B")[:src_arity]
        rels = {"S": src_attrs, "T": ("A",)}
        if n_targets == 2:
            rels["U"] = ("A",)
        schema = Schema.of(rels)
        body_bind = {"A": X} if src_arity == 1 else {"A": X, "B": Y}
        target_names = sorted(r for r in rels if r != "S")
        deps = [
            Tgd(
                open_cq([NamedAtom.of("S", body_bind)]),
                cq([NamedAtom.of(rel, {"A": X})], free=[X]),
            )
            for rel in target_names
        ]
        source = {
            Row.of({a: const(rng.randint(0, 4)) for a in src_attrs})
            for _ in range(rng.randint(1, 4))
        }
        i = Instance.of(schema, {"S": source, **{r: set() for r in target_names}})
        b = Budget(
            extra_constants=rng.choice([0, 1]),
            max_new_tuples=rng.choice([2, 3]),
        )
        p = instantiate_template("data_exchange", {"dependencies": deps})
        outs = enumerate_outcomes(p, i, b)
        pool = sorted(
            active_domain(i) | {const(f"@c{k}") for k in range(b.extra_constants)}
        )
        per_rel = []
        for rel in target_names:
            rows = [Row.of({"A": v}) for v in pool]
            per_rel.append(
                [
                    frozenset(combo)
                    for k in range(b.max_new_tuples + 1)
                    for combo in itertools.combinations(rows, k)
                ]
            )
        expected = set()
        for pick in itertools.product(*per_rel):
            j = Instance.of(
                schema,
                {"S": source, **{r: set(rows) for r, rows in zip(target_names, pick)}},
            )
            if all(satisfies(d, j) for d in deps):
                expected.add(j)
        assert outs == frozenset(expected), f"setting {case}"
    assert time.perf_counter() - t0 < 30.0


def _ladder_setting(n: int):
    s = Schema.of({f"R{k:04d}": ("a", "b", "c") for k in range(n)})
    p = Procedure.of(
        pre=[StructureConstraint.of(f"R{k:04d}") for k in range(n)],
        post=[StructureConstraint.of(f"R{k:04d}", ["d"]) for k in range(n)],
    )
    return s, p


def test_c04_minimal_schema_trace_pin_failure_and_linear_scaling(visit_schema):
    aged = min_schema(
        instantiate_template(
            "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
        ),
        visit_schema,
    )
    assert isinstance(aged, SchemaRequirement)
    assert aged.schema == Schema.of(
        {
            "EVisits": ("facility", "patInsur", "timestp"),
            "LocVisits": ("facility", "patInsur", "timestp", "age"),
        }
    )

    p = migrate_total_proc()
    pinned = Procedure.of(
        scope=p.scope,
        pre=p.pre,
        post=list(p.post) + [StructureConstraint.of("LocVisits", ["age"])],
        safe=p.safe,
    )
    result = min_schema(pinned, visit_schema)
    assert isinstance(result, Failure)
    assert "LocVisits" in result.reason

    def clocked(n: int, reps: int = 20, rounds: int = 5) -> float:
        s, proc = _ladder_setting(n)
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(reps):
                req = min_schema(proc, s)
            best = min(best, time.perf_counter() - t0)
            assert isinstance(req, SchemaRequirement)
        return best

    t_small = clocked(20)
    t_big = clocked(200)
    # 10x the schema and procedure; linear behavior stays near 10x time
    assert t_big / max(t_small, 1e-4) <= 12.0, (t_small, t_big)


_C5_CONSTS = [const(k) for k in range(3)]


def _c5_schema(rng):
    rels = {}
    for name in ("R", "T")[: rng.randint(1, 2)]:
        rels[name] = tuple(("a", "b")[: rng.randint(1, 2)])
    if len(rels) < 2:
        rels["T"] = tuple(("a", "b")[: rng.randint(1, 2)])
    return Schema.of(rels)


def _c5_instance(rng, schema, max_rows=2):
    data = {}
    for rel in schema.names:
        attrs = sorted(schema.attrs(rel))
        rows = set()
        for _ in range(rng.randint(0, max_rows)):
            rows.add(Row.of({a: rng.choice(_C5_CONSTS) for a in attrs}))
        data[rel] = rows
    return Instance.of(schema, data)


def _c5_tgd(src, src_attrs, dst, dst_attrs, rng):
    # head terms come from body variables (full rule); body may pin constants
    body_bind = {}
    body_vars = []
    for idx, a in enumerate(sorted(src_attrs)):
        if rng.random() < 0.8:
            v = Var(f"x{idx}")
            body_bind[a] = v
            body_vars.append(v)
        else:
            body_bind[a] = rng.choice(_C5_CONSTS)
    if not body_vars:
        v = Var("x0")
        body_bind[sorted(src_attrs)[0]] = v
        body_vars.append(v)
    head_bind = {}
    for a in sorted(dst_attrs):
        if rng.random() < 0.75:
            head_bind[a] = rng.choice(body_vars)
        else:
            head_bind[a] = rng.choice(_C5_CONSTS)
    body = ConjunctiveQuery(
        (NamedAtom.of(src, body_bind),), tuple(sorted(set(body_vars))), frozenset()
    )
    used = sorted({t for t in head_bind.values() if isinstance(t, Var)})
    head = ConjunctiveQuery((NamedAtom.of(dst, head_bind),), tuple(used), frozenset())
    return Tgd(body, head)


def _c5_safe_scope(rng, schema):
    rels = list(schema.names)
    dst = rng.choice(rels)
    src = rng.choice([r for r in rels if r != dst] or rels)
    if src == dst:
        return None
    d = _c5_tgd(src, schema.attrs(src), dst, schema.attrs(dst), rng)
    return Procedure.of(
        scope=[StructureConstraint.of(dst)],
        post=[d],
        safe=[TotalQuery((dst,))],
        name=f"copy_{src}_{dst}",
    )


def _c5_alter(rng, schema):
    rel = rng.choice(list(schema.names))
    attrs = set(schema.attrs(rel))
    new = "c" if "c" not in attrs else "d"
    return Procedure.of(
        pre=[StructureConstraint.of(rel)],
        post=[StructureConstraint.of(rel, sorted(attrs | {new}))],
        name=f"alter_{rel}_{new}",
    )


def _c5_case(rng):
    schema = _c5_schema(rng)
    i = _c5_instance(rng, schema)
    n_steps = rng.randint(1, 3)
    seq = []
    alters = 0
    cur_schema = {rel: set(schema.attrs(rel)) for rel in schema.names}
    # growing a wide relation mid-sequence explodes the brute-force side,
    # so schema growth is only drawn for relations still holding <= 1 row
    rows_est = {rel: len(i.rows(rel)) for rel in schema.names}
    for _ in range(n_steps):
        small = [r for r in cur_schema if rows_est[r] <= 1]
        if rng.random() < 0.6 or alters >= 1 or not small:
            p = _c5_safe_scope(rng, Schema.of(cur_schema))
            if p is None:
                continue
            seq.append(p)
            dst = p.scope[0].relation
            src = [r for r in cur_schema if r != dst][0]
            rows_est[dst] += rows_est[src] + 1
        else:
            sub = Schema.of({r: cur_schema[r] for r in small})
            p = _c5_alter(rng, sub)
            rel = p.post[0].relation
            cur_schema[rel] = set(p.post[0].attributes)
            alters += 1
            seq.append(p)
    if not seq:
        seq = [_c5_safe_scope(rng, schema) or _c5_alter(rng, schema)]
    return i, seq


def _c5_null_count(table) -> int:
    seen = set()
    for rel in table.schema.names:
        for row, _cond in table.rows(rel):
            for cell in row.values:
                if isinstance(cell, LabeledNull):
                    seen.add(cell)
    return len(seen)


def test_c05_approximation_agrees_with_the_oracle_on_generated_cases():
    rng = random.Random(20260817)
    done = 0
    attempts = 0
    t0 = time.perf_counter()
    while done < 50 and attempts < 500:
        attempts += 1
        i, seq = _c5_case(rng)
        res = approximate_outcomes(i, seq)
        if isinstance(res, EmptyResult):
            nulls = 0
            added = 0
            max_attrs = 0
        else:
            nulls = _c5_null_count(res)
            added = max(
                len(res.rows(rel))
                - (len(i.rows(rel)) if i.schema.defines(rel) else 0)
                for rel in res.schema.names
            )
            max_attrs = max(
                len(res.schema.attrs(r)) for r in res.schema.names
            )
        # keep the brute-force side tractable: tiny null/tuple budgets only
        if nulls > 2 or added > 2:
            continue
        pool = len(active_domain(i)) + nulls + 2
        if (pool**max_attrs) ** max(added, 1) > 5000:
            continue
        growth = any(not p.scope and not p.safe for p in seq)
        budget = Budget(
            extra_constants=nulls,
            max_new_tuples=max(added, 1),
            allow_schema_growth=growth,
        )
        report = compare_with_chase(i, seq, budget)
        assert report.ok, f"attempt {attempts}: {report}"
        done += 1
    assert done == 50, f"only {done} cases within {attempts} attempts"
    assert time.perf_counter() - t0 < 60.0


def test_c06_sequence_filtering_keeps_exactly_the_mutually_contained_pairs():
    i = rt_instance([1], [1])
    b = Budget(extra_constants=1, max_new_tuples=1)
    first = enumerate_outcomes(copy_into_both_proc(), i, b)
    expected = set()
    for r_extra in [(), (1,), ("@c0",)]:
        for t_extra in [(), (1,), ("@c0",)]:
            j = rt_instance([1, *r_extra], [1, *t_extra])
            if satisfies(inclusion_tgd("R", "T"), j):
                expected.add(j)
    assert first == frozenset(expected)

    both = enumerate_outcomes(
        [copy_into_both_proc(), containment_check_proc()], i, b
    )
    assert both == frozenset(
        {rt_instance([1], [1]), rt_instance([1, "@c0"], [1, "@c0"])}
    )

    violating = rt_instance([1], [1, 2])
    assert enumerate_outcomes(containment_check_proc(), violating, b) == frozenset()


def test_c07_representation_is_strictly_wider_than_the_outcome_set():
    s = Schema.of({"R": ("a",), "S": ("a",)})
    i = Instance.of(
        s,
        {
            "R": {Row.of({"a": const(1)}), Row.of({"a": const(2)})},
            "S": {Row.of({"a": const(1)}), Row.of({"a": const(2)})},
        },
    )
    p = Procedure.of(
        scope=[StructureConstraint.of("S")],
        post=[
            Tgd(
                open_cq([NamedAtom.of("R", {"a": X})]),
                open_cq([NamedAtom.of("S", {"a": X})]),
            )
        ],
        safe=[TotalQuery(("S",))],
        name="copy_r_s",
    )
    table = approximate_outcomes(i, [p])

    # constructive witness: represented, yet violates the postcondition
    witness = Instance.of(
        s, {"R": i.rows("R") | {Row.of({"a": const(3)})}, "S": i.rows("S")}
    )
    assert rep_contains(table, witness)
    assert not satisfies(p.post[0], witness)

    outs = enumerate_outcomes(p, i, Budget(extra_constants=1, max_new_tuples=1))
    assert outs
    assert all(satisfies(p.post[0], j) for j in outs)

    # both sides share the input as their single minimal member
    assert enumerate_minimal(table) == frozenset({i})
    assert minimal_outcomes(outs) == frozenset({i})


def _c8_copy(src: str, dst: str, dst_extra: str | None = None) -> Procedure:
    w = Var("w")
    body = ConjunctiveQuery(
        (NamedAtom.of(src, {"f": X, "p": Y, "t": Z}),), (X, Y, Z), frozenset()
    )
    head_bind = {"f": X, "p": Y, "t": Z}
    existential = frozenset()
    if dst_extra:
        head_bind[dst_extra] = w
        existential = frozenset({w})
    head = ConjunctiveQuery((NamedAtom.of(dst, head_bind),), (X, Y, Z), existential)
    return Procedure.of(
        scope=[StructureConstraint.of(dst)],
        post=[Tgd(body, head)],
        safe=[TotalQuery((dst,))],
        name=f"copy_{src}_{dst}",
    )


def _c8_instance(n: int) -> Instance:
    schema = Schema.of({"E": ("f", "p", "t"), "L": ("f", "p", "t")})
    e_rows = {
        Row.of({"f": const(k), "p": const(k % 7), "t": const(f"t{k}")})
        for k in range(n // 2)
    }
    l_rows = {
        Row.of({"f": const(10_000 + k), "p": const(k % 5), "t": const(f"s{k}")})
        for k in range(n - n // 2)
    }
    return Instance.of(schema, {"E": e_rows, "L": l_rows})


def test_c08_nonemptiness_scales_subquadratically_to_a_thousand_tuples():
    seq = [
        _c8_copy("E", "L"),
        Procedure.of(
            pre=[StructureConstraint.of("L")],
            post=[StructureConstraint.of("L", ("age", "f", "p", "t"))],
            name="alter_L",
        ),
        _c8_copy("E", "L", dst_extra="age"),
    ]

    def clocked(n: int) -> float:
        i = _c8_instance(n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert outcomes_nonempty(i, seq)
            best = min(best, time.perf_counter() - t0)
        return best

    t10, t100, t1000 = clocked(10), clocked(100), clocked(1000)
    assert t1000 < 5.0, t1000
    floor = 1e-3
    # quadratic growth would show ~100x per decade; pin well under that
    assert t100 / max(t10, floor) < 90.0, (t10, t100)
    assert t1000 / max(t100, floor) < 90.0, (t100, t1000)


def test_c09_readiness_verdicts_planning_and_oracle_recertification(
    instance_i, capsys
):
    goal = boolean_cq(
        [
            NamedAtom.of(
                "LocVisits",
                {"facility": const(2087), "patInsur": const(91), "timestp": Z},
            )
        ]
    )
    assert not ready_for(instance_i, [], goal)
    assert ready_for(instance_i, [migrate_total_proc()], goal)

    assert (
        run_command(
            [
                "ready",
                "--workspace", WORKSPACE,
                "--instance", "I",
                "--seq", "migrate",
                "--query", "q_visit",
            ]
        )
        == 0
    )

    alter_age = instantiate_template(
        "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
    )
    plan = plan_search(instance_i, {migrate_total_proc(), alter_age}, goal, 2)
    assert plan is not None
    assert [p.name for p in plan] == ["migrate"]

    code = run_command(
        [
            "plan",
            "--workspace", WORKSPACE,
            "--instance", "I",
            "--query", "q_visit",
            "--max-len", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "plan: migrate" in out

    outs = enumerate_outcomes(
        migrate_total_proc(), instance_i, Budget(max_new_tuples=1)
    )
    assert outs
    assert all(evaluate_query(goal, j) for j in outs)


def test_c10_generated_property_volume_reaches_five_hundred_cases():
    total = (
        REP_CLOSURE_EXAMPLES
        + AGREEMENT_EXAMPLES
        + DETERMINISM_EXAMPLES
        + ROUND_TRIP_EXAMPLES
    )
    assert total >= 500
