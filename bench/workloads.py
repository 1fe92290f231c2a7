"""Seeded workload generators for the dqw benchmark.

Each generator takes the workload seed and returns a `Workload`: the
workspace files to write (as DSL text) and the `dqw` command list, each
command with the verdict known from how its input was built or from the
paper's worked example (Figure 1), never from a stored run of the program.
The program under test sees only the written files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Families of subcommands; each end-to-end time-to-verdict figure sums one.
FAMILIES = {
    "validate": "check",
    "schema-min": "check",
    "applicable": "check",
    "check-outcome": "check",
    "outcomes": "chase",
    "nonempty": "chase",
    "ready": "certain",
    "plan": "certain",
    "oracle": "oracle",
    "compare": "oracle",
}


@dataclass(frozen=True)
class Command:
    """One `dqw` invocation and the answer it must give.

    `code` is the expected exit code and `text` a line the report must
    contain. `rows` maps relation names to the row count the `outcomes`
    table must show. `known_undecided` marks a command that today ends in
    an orderly exit 2 (a search cap) instead of its answer: that counts as
    undecided, not as a failure, while an answer it does give is checked.
    """

    argv: tuple[str, ...]
    code: int
    text: str
    rows: tuple[tuple[str, int], ...] = ()
    known_undecided: bool = False

    @property
    def family(self) -> str:
        return FAMILIES[self.argv[0]]


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)

    def add(self, subcommand: str, workspace: str, *args: str, **expect) -> None:
        argv = (subcommand, "--workspace", workspace) + args
        self.commands.append(Command(argv, **expect))


def _tuples(rows) -> str:
    return ", ".join("(" + ", ".join(str(v) for v in row) + ")" for row in rows)


# --- scale_join -----------------------------------------------------------

JOIN_SIZES = (40, 80, 160)
JOIN_FANOUT = 2  # each join key occurs this often in R and in T


def _join_text(r_rows, t_rows, u0_rows, candidates) -> str:
    """A join workspace: I plus named candidate outcomes of `join` on I."""
    parts = [
        "schema S {\n  rel R(a, b);\n  rel T(b, c);\n  rel U(a, c);\n}\n",
        "instance I : S {\n"
        f"  R: {_tuples(r_rows)};\n  T: {_tuples(t_rows)};\n  U: {_tuples(u0_rows)};\n}}\n",
    ]
    for name, (r, u) in candidates.items():
        parts.append(
            f"instance {name} : S {{\n"
            f"  R: {_tuples(r)};\n  T: {_tuples(t_rows)};\n  U: {_tuples(u)};\n}}\n"
        )
    parts.append(
        "proc join {\n"
        "  scope { U[*]; }\n"
        "  pre { struct R[a, b]; struct T[b, c]; struct U[a, c]; }\n"
        "  post { tgd R(a: x, b: y) and T(b: y, c: z) -> U(a: x, c: z); }\n"
        "  safe { total U; }\n"
        "}\n"
        "proc alter_u = template alter_table(U; d)\n"
        "seq pipeline = join, alter_u, join\n"
    )
    return "\n".join(parts)


def _join_data(rng: random.Random, n: int):
    """R and T of n rows each whose join has exactly n * JOIN_FANOUT rows.

    Every join key occurs JOIN_FANOUT times on each side, and the a and c
    values are distinct, so the join size does not depend on the seed; only
    the labels and the row order do.
    """
    keys = rng.sample(range(10_000, 100_000), n // JOIN_FANOUT)
    a_vals = rng.sample(range(100_000, 1_000_000), n + n // 10 + 1)
    c_vals = rng.sample(range(100_000, 1_000_000), n + n // 10)
    r_rows = [(a_vals[i], keys[i % len(keys)]) for i in range(n)]
    t_rows = [(keys[i % len(keys)], c_vals[i]) for i in range(n)]
    rng.shuffle(r_rows)
    rng.shuffle(t_rows)
    # pre-existing U rows use a and c values the join never produces
    u0 = [(a_vals[n + i], c_vals[n + i]) for i in range(n // 10)]
    derived = sorted({(a, c) for a, b in r_rows for b2, c in t_rows if b == b2})
    spare_a = a_vals[-1]
    return r_rows, t_rows, u0, derived, spare_a


def scale_join(seed: int, sizes=JOIN_SIZES) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    for n in sizes:
        r_rows, t_rows, u0, derived, spare_a = _join_data(rng, n)
        closure = u0 + derived
        gone = rng.choice(derived)
        dropped = [row for row in closure if row != gone]
        changed = list(r_rows)
        k = rng.randrange(len(changed))
        changed[k] = (spare_a, changed[k][1])
        path = f"join_{n}.dq"
        w.files[path] = _join_text(
            r_rows,
            t_rows,
            u0,
            {
                "J_closure": (r_rows, closure),
                "J_dropped": (r_rows, dropped),
                "J_changed": (changed, closure),
            },
        )
        w.add("validate", path, code=0, text="workspace OK")
        w.add("applicable", path, "--seq", "pipeline", "--schema", "S", code=0, text="applicable: yes")
        # the second join adds nothing: every trigger's head is already there
        w.add(
            "outcomes", path, "--instance", "I", "--seq", "pipeline",
            code=0, text="U(a, c, d):",
            rows=(("R", n), ("T", n), ("U", len(closure))),
        )
        w.add("nonempty", path, "--instance", "I", "--seq", "pipeline", code=0, text="outcomes exist: yes")
        for after, code, word in (
            ("J_closure", 0, "yes"),  # the join's own closure
            ("J_dropped", 1, "no"),  # misses a derived row: postcondition fails
            ("J_changed", 1, "no"),  # out-of-scope R row changed: residual fails
        ):
            w.add(
                "check-outcome", path, "--proc", "join", "--before", "I", "--after", after,
                code=code, text=f"possible outcome: {word}",
            )
    return w


# --- certainty ------------------------------------------------------------

# The paper's Figure 1: emergency visits migrated into the local store,
# which an alter step then widens with an age column.
FIG1_PROCS = """\
proc migrate {
  scope { LocVisits[*]; }
  pre {
    struct EVisits[facility, patInsur, timestp];
    struct LocVisits[facility, patInsur, timestp];
  }
  post {
    tgd EVisits(facility: x, patInsur: y, timestp: z)
      -> LocVisits(facility: x, patInsur: y, timestp: z);
  }
  safe { total LocVisits; }
}

proc migrate_cq {
  scope { LocVisits[*]; }
  pre {
    struct EVisits[facility, patInsur, timestp];
    struct LocVisits[facility, patInsur, timestp];
  }
  post {
    tgd EVisits(facility: x, patInsur: y, timestp: z)
      -> LocVisits(facility: x, patInsur: y, timestp: z);
  }
  safe { cq LocVisits(facility: x, patInsur: y, timestp: z); }
}

proc alter_age = template alter_table(LocVisits; age)

seq fix = migrate, alter_age
"""

FIG1_SCHEMA = """\
schema S {
  rel EVisits(facility, patInsur, timestp);
  rel LocVisits(facility, patInsur, timestp);
}
"""

FIG1_GOAL = (2087, 91, '"090916 03:10"')

FIG1 = (
    FIG1_SCHEMA
    + """
instance I : S {
  EVisits: (1234, 33, "070916 12:00"), (2087, 91, "090916 03:10");
  LocVisits: (1234, 33, "070916 12:00"), (1222, 33, "020715 07:50");
}

query q_visit : exists z . LocVisits(facility: 2087, patInsur: 91, timestp: z)

"""
    + FIG1_PROCS
)

EVISITS_EXTRA = (1, 2)  # EVisits rows besides the goal row


def _visit(rng: random.Random, taken: set) -> tuple:
    while True:
        row = (rng.randrange(1000, 10_000), rng.randrange(10, 100))
        if row[0] not in taken and row[1] not in taken:
            taken.update(row)
            stamp = f'"{rng.randrange(1, 29):02d}{rng.randrange(1, 13):02d}16 {rng.randrange(24):02d}:{rng.randrange(60):02d}"'
            return row + (stamp,)


def _visits_text(rng: random.Random, extra: int) -> str:
    """Figure 1 with `extra` random visits besides the goal visit.

    LocVisits already holds the first random visit, as in the paper, and
    q_absent asks for a facility and patient that occur nowhere.
    """
    taken = {FIG1_GOAL[0], FIG1_GOAL[1]}
    visits = [_visit(rng, taken) for _ in range(extra)]
    absent = _visit(rng, taken)
    evisits = visits + [FIG1_GOAL]
    locvisits = visits[:1]
    return (
        FIG1_SCHEMA
        + f"\ninstance I : S {{\n  EVisits: {_tuples(evisits)};\n"
        f"  LocVisits: {_tuples(locvisits)};\n}}\n\n"
        f"query q_visit : exists z . LocVisits(facility: {FIG1_GOAL[0]}, patInsur: {FIG1_GOAL[1]}, timestp: z)\n"
        f"query q_absent : exists z . LocVisits(facility: {absent[0]}, patInsur: {absent[1]}, timestp: z)\n\n"
        + FIG1_PROCS
    )


GROUND_JOIN_ROWS = (10, 20)


def certainty(seed: int, extras=EVISITS_EXTRA, ground_rows=GROUND_JOIN_ROWS) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    for extra in extras:
        path = f"visits_{extra}.dq"
        w.files[path] = _visits_text(rng, extra)
        # migrate copies every EVisits row, the goal visit among them
        w.add("ready", path, "--instance", "I", "--seq", "fix", "--query", "q_visit", code=0, text="ready: yes")
        w.add("ready", path, "--instance", "I", "--seq", "fix", "--query", "q_absent", code=1, text="ready: no")
        # the goal is missing from I and one migrate step supplies it
        w.add("plan", path, "--instance", "I", "--query", "q_visit", "--max-len", "2", code=0, text="plan: migrate")
    for n in ground_rows:
        r_rows, t_rows, u0, derived, _ = _join_data(rng, n)
        a, c = rng.choice(derived)
        path = f"ground_join_{n}.dq"
        w.files[path] = _join_text(r_rows, t_rows, u0, {}) + f"query q_pair : U(a: {a}, c: {c})\n"
        # a full rule leaves a table without nulls, holding every derived pair
        w.add("ready", path, "--instance", "I", "--seq", "join", "--query", "q_pair", code=0, text="ready: yes")
    return w


# --- oracle ---------------------------------------------------------------

# The oracle workload runs on Figure 1 itself, whatever the seed: relabeling
# its constants reorders the sets whose iteration order decides when
# minimal_outcomes stops early, which moves its time several-fold.
AGREE = "approximation agrees with the oracle"


def oracle(seed: int, heavy: bool = True) -> Workload:
    w = Workload()
    w.files["fig1.dq"] = FIG1
    fig1 = ("fig1.dq", "--instance", "I", "--seq")
    if heavy:
        # enumeration-bound; the count must not depend on the hash seed
        w.add("oracle", *fig1, "fix", "--budget", "tuples=1,growth", code=0, text="outcomes within budget:")
    # The approximation agrees with the budgeted oracle: c05's invariant.
    w.add("compare", *fig1, "migrate", "--budget", "extra=1,tuples=1", code=0, text=AGREE)
    if heavy:
        # minimal_outcomes-bound: several hundred outcomes compared pairwise
        w.add("compare", *fig1, "migrate,migrate", "--budget", "extra=1,tuples=1", code=0, text=AGREE)
        # stops at the oracle's candidate cap today
        w.add(
            "compare", *fig1, "migrate", "--budget", "extra=1,tuples=2",
            code=0, text=AGREE, known_undecided=True,
        )
    return w


GENERATORS = {"scale_join": scale_join, "certainty": certainty, "oracle": oracle}

# Reduced inputs for the smoke test: every command kind, a fraction of the work.
SMOKE = {
    "scale_join": lambda seed: scale_join(seed, sizes=(10,)),
    "certainty": lambda seed: certainty(seed, extras=(1,), ground_rows=(4,)),
    "oracle": lambda seed: oracle(seed, heavy=False),
}
