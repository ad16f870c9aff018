"""The three benchmark workloads: `table`, `gr` and `enum`.

A workload has two halves.  `setup(seed)` does what every run pays before
its first item: import the CLI (numpy and click) and build the quivers and
`field(q)` tables the workload touches.  `run_pass(ctx, run)` then issues
its items one at a time, closed loop with a single caller; `run(name, fn,
check)` times `fn()`, applies the oracle `check` to its value, and returns
the value (None when `fn` raised).  A check returns None when the value is
right and a short message when it is not.

Some oracles compare items with each other (a measure must not depend on
the field).  Those items return their value and the workload calls
`run.fail(index, message)` for every member of a group that disagrees,
where `run.index` is the index of the item run last.

The seed drives every random choice: the homogeneous modules R, R' that
`enum` feeds to the Hall-number items, the order of its reflection
triples, and the `--sink` orientation of each `table` preset, whose output
does not depend on orientation.  The library only receives the generated
inputs.  Every triple of both reflection pools runs on every seed: a
sampled subset changed the item mix, and with it the median item latency, by about
40% from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

TABLE_PRESETS = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6",
                 "e6tilde", "e7tilde", "e8tilde")
# Rows hall-table must produce: one per distinct entry of delta.
TABLE_ROWS = {"kronecker": [1], "dtilde:4": [1, 2], "dtilde:5": [1, 2],
              "dtilde:6": [1, 2], "e6tilde": [1, 2, 3],
              "e7tilde": [1, 2, 3, 4], "e8tilde": [1, 2, 3, 4, 5, 6]}
TABLE_FIELDS = (3, 4, 5, 7, 8, 9, 11, 13)

GR_CHECK_PRESETS = ("dtilde:4", "dtilde:5", "dtilde:6", "e6tilde")
GR_CHECK_FIELDS = (3, 4, 5)
GR_ROOT_FIELDS = (2, 3, 5)
GR_ROOT_MAX_LEN = 12
GR_HOMOG_FIELDS = (3, 4, 5)
HOMOG_MEASURE = (1, 2, 5, 6)

D4_SINK = 2
K_SINK = 1
ENUM_D4_FIELDS = (3, 4, 5)
ENUM_K_FIELDS = (3, 4, 5, 7, 8, 9, 11, 13)
ENUM_ORACLE_FIELDS = (2, 3, 4, 5)
ENUM_PREINJ_FIELDS = (2, 3)
ENUM_PREINJ_MAX_LEN = 7


class Context:
    """What setup hands to a pass: the imported package, the workload's
    quivers and fields, and the seed's generator."""

    def __init__(self, seed: int):
        from tamehall import cli, functors, gf, gr, hall, homreg, quiver, reps

        self.cli, self.functors, self.gf = cli, functors, gf
        self.gr, self.hall, self.homreg = gr, hall, homreg
        self.quiver, self.reps = quiver, reps
        self.rng = random.Random(seed)

    def fields(self, qs):
        for q in qs:
            self.gf.field(q)


def cli_json(ctx: Context, argv: list[str]) -> tuple[int, dict | None]:
    """One in-process CLI call with its stdout parsed as JSON; progress on
    stderr is swallowed.  `cli.main` is looked up at call time so that a
    tracer bound into the module sees the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _same_value_groups(run, groups: dict) -> None:
    """Fail every item of a group whose recorded values differ."""
    for key, members in groups.items():
        values = {repr(v) for _, v in members}
        if len(values) > 1:
            for index, _ in members:
                run.fail(index, f"{key}: values differ across fields: {sorted(values)}")


# -------------------------------------------------------------------- table


def setup_table(seed: int) -> Context:
    ctx = Context(seed)
    ctx.sinks = {}
    for name in TABLE_PRESETS:
        ctx.sinks[name] = ctx.rng.randrange(ctx.quiver.preset_quiver(name).n) + 1
    ctx.fields(TABLE_FIELDS)
    return ctx


def _check_table(name: str):
    def check(value):
        code, payload = value
        if code != 0 or payload is None:
            return f"exit code {code}"
        if payload.get("pinned_check") != "pass" or payload.get("mismatches"):
            return f"pinned check {payload.get('pinned_check')}: {payload.get('mismatches')}"
        mults = [r["multiplicity"] for r in payload["rows"]]
        if mults != TABLE_ROWS[name]:
            return f"rows {mults}, expected {TABLE_ROWS[name]}"
        return None
    return check


def pass_table(ctx: Context, run) -> None:
    for name in TABLE_PRESETS:
        argv = ["hall-table", "--preset", name, "--sink", str(ctx.sinks[name]),
                "--format", "json"]
        run(f"hall-table {name} sink={ctx.sinks[name]}",
            lambda argv=argv: cli_json(ctx, argv), _check_table(name))


# ----------------------------------------------------------------------- gr


def setup_gr(seed: int) -> Context:
    ctx = Context(seed)
    ctx.d4 = ctx.quiver.preset_quiver("dtilde:4")
    ctx.fields(sorted(set(GR_CHECK_FIELDS + GR_ROOT_FIELDS + GR_HOMOG_FIELDS)))
    return ctx


def _check_gr_check(value):
    code, payload = value
    if code != 0 or payload is None:
        return f"exit code {code}"
    if payload.get("check") != "pass":
        return f"check {payload.get('check')}"
    if payload["gr_submodule"]["defect"] != -1 or payload["quotient"]["defect"] != 1:
        return (f"defects {payload['gr_submodule']['defect']}/"
                f"{payload['quotient']['defect']}, expected -1/1")
    pair = payload["kronecker_pair"]
    quad = (pair["hom_qp"], pair["hom_pq"], pair["ext_pq"], pair["ext_qp"])
    if quad != (0, 0, 0, 2):
        return f"pair {quad}, expected (0, 0, 0, 2)"
    return None


def _family_size(want: int):
    return lambda fam: (None if len(fam) == want
                        else f"{len(fam)} modules, expected {want}")


def _check_report(homogeneous: bool):
    def check(rep):
        if rep.u != rep.u_brute:
            return f"formula {rep.u} vs brute force {rep.u_brute}"
        if homogeneous:
            if (rep.u, rep.h, rep.s) != (1, 1, 0):
                return f"homogeneous report {(rep.u, rep.h, rep.s)}, expected (1, 1, 0)"
        elif rep.s is None or not (rep.h > rep.s >= rep.r and rep.e > rep.r):
            return f"exponents h={rep.h} s={rep.s} e={rep.e} r={rep.r}"
        return None
    return check


def _d4_roots(ctx: Context, sign: int, max_len: int) -> list[tuple[int, ...]]:
    Q = ctx.d4
    delta = ctx.quiver.radical_delta(Q)
    box = tuple(2 * d for d in delta)
    return sorted((x for x in ctx.quiver.positive_real_roots(Q, box)
                   if sign * ctx.quiver.defect(Q, x) > 0 and sum(x) <= max_len),
                  key=lambda v: (sum(v), v))


def pass_gr(ctx: Context, run) -> None:
    gf, gr, Q = ctx.gf, ctx.gr, ctx.d4
    for name in GR_CHECK_PRESETS:
        for q in GR_CHECK_FIELDS:
            argv = ["gr-check", "--preset", name, "--field", str(q), "--format", "json"]
            run(f"gr-check {name} q={q}", lambda argv=argv: cli_json(ctx, argv),
                _check_gr_check)

    # Criterion 5: root measures and GR inclusion dims agree across fields.
    inclusions = []
    groups: dict = {}
    for q in GR_ROOT_FIELDS:
        F = gf.field(q)
        for x in _d4_roots(ctx, -1, GR_ROOT_MAX_LEN):
            def sweep(x=x, F=F):
                M = ctx.functors.build_preprojective(Q, F, x)
                return M, gr.gr_measure(M), gr.gr_submodules(M)

            name = f"root {x} q={q}"
            got = run(name, sweep, lambda v, x=x: None if v[1][-1] == sum(x)
                      else f"measure {v[1]} does not end at the length")
            if got is not None:
                M, mu, wits = got
                groups.setdefault(x, []).append(
                    (run.index, (mu, sorted(w.dims for w in wits))))
                inclusions.append((M, wits, False))
    _same_value_groups(run, groups)

    for q in GR_HOMOG_FIELDS:
        F = gf.field(q)
        family = run(f"homogeneous family D~4 q={q}",
                     lambda F=F: ctx.homreg.build_homogeneous_simples(Q, F),
                     _family_size(q - 2))
        for label, R in family or ():
            got = run(f"homogeneous {label} q={q}",
                      lambda R=R: (gr.gr_measure(R), gr.gr_submodules(R)),
                      lambda v: None if v[0] == HOMOG_MEASURE
                      else f"measure {v[0]}, expected {HOMOG_MEASURE}")
            if got is not None:
                inclusions.append((R, got[1], True))

    for M, wits, homogeneous in inclusions:
        q = M.field.q
        for w in wits:
            run(f"count {w.dims} in {M.dims} q={q}",
                lambda w=w, M=M: gr.count_submodules_report(w.sub, M),
                _check_report(homogeneous))


# --------------------------------------------------------------------- enum


def setup_enum(seed: int) -> Context:
    ctx = Context(seed)
    ctx.d4 = ctx.quiver.preset_quiver("dtilde:4")
    ctx.kron = ctx.quiver.preset_quiver("kronecker")
    ctx.a3 = ctx.quiver.preset_quiver("a:3")
    ctx.fields(sorted(set(ENUM_D4_FIELDS + ENUM_K_FIELDS + ENUM_ORACLE_FIELDS
                          + ENUM_PREINJ_FIELDS)))
    return ctx


def _expect(value):
    return lambda got: None if got == value else f"got {got}, expected {value}"


def _sink_counts(ctx: Context, R, i: int, I):
    hall = ctx.hall
    S = ctx.reps.simple_rep(R.quiver, R.field, i)
    return (hall.hall_number_sink_fast(R, i, I), hall.hall_number_sink_lines(R, i),
            hall.hall_number(R, I, S))


def _one_sink_equal(counts):
    return None if len(set(counts)) == 1 else f"fast/lines/generic {counts}"


def _reflection_pools(ctx: Context, F):
    reps, functors = ctx.reps, ctx.functors
    A3, D4 = ctx.a3, ctx.d4
    singles = [reps.simple_rep(A3, F, 0), reps.simple_rep(A3, F, 1),
               reps.projective_rep(A3, F, 0), reps.projective_rep(A3, F, 1),
               reps.injective_rep(A3, F, 1)]
    a3 = singles + [reps.direct_sum(a, b) for a, b in
                    itertools.combinations_with_replacement(singles, 2)]
    delta = ctx.quiver.radical_delta(D4)
    d4 = [ctx.homreg.build_homogeneous_simples(D4, F)[0][1]]
    for leaf in (0, 1, 3, 4):
        d4.append(reps.simple_rep(D4, F, leaf))
        d4.append(reps.projective_rep(D4, F, leaf))
        d4.append(functors.build_preprojective(
            D4, F, tuple(d - (1 if j == leaf else 0) for j, d in enumerate(delta))))
    return a3, d4


def _triples(pool):
    return [(M, N1, N2) for M, N1, N2 in itertools.product(pool, repeat=3)
            if tuple(a + b for a, b in zip(N1.dims, N2.dims)) == M.dims]


def pass_enum(ctx: Context, run) -> None:
    gf, hall, reps, rng = ctx.gf, ctx.hall, ctx.reps, ctx.rng
    cases = ([(ctx.d4, D4_SINK, q) for q in ENUM_D4_FIELDS]
             + [(ctx.kron, K_SINK, q) for q in ENUM_K_FIELDS])
    for Q, i, q in cases:
        F = gf.field(q)
        tag = f"{'D~4' if Q is ctx.d4 else 'K'} q={q}"
        want = q - 2 if Q is ctx.d4 else q + 1
        family = run(f"homogeneous family {tag}",
                     lambda Q=Q, F=F: ctx.homreg.build_homogeneous_simples(Q, F),
                     _family_size(want))
        if not family:
            continue
        picks = rng.sample(range(len(family)), min(2, len(family)))
        chosen = [family[k][1] for k in picks]
        R = chosen[0]
        run(f"F^(R+R)_(R,R) {tag}",
            lambda R=R: hall.hall_number(reps.direct_sum(R, R), R, R), _expect(q + 1))
        if len(chosen) == 2:
            R2 = chosen[1]
            run(f"F^(R+R')_(R,R') {tag}",
                lambda R=R, R2=R2: hall.hall_number(reps.direct_sum(R, R2), R, R2),
                _expect(1))
        delta = ctx.quiver.radical_delta(Q)
        expected = tuple(d - (1 if j == i else 0) for j, d in enumerate(delta))
        I = ctx.functors.build_preinjective(Q, F, expected)
        for label, M in family:
            run(f"one-sink counts {tag} {label}",
                lambda M=M: _sink_counts(ctx, M, i, I), _one_sink_equal)

    for q in ENUM_ORACLE_FIELDS:
        argv = ["oracle-dynkin", "--field", str(q), "--format", "json"]
        run(f"oracle-dynkin q={q}", lambda argv=argv: cli_json(ctx, argv),
            lambda v: None if v[0] == 0 and v[1] and v[1]["failures"] == 0
            and all(c["ok"] for c in v[1]["checks"]) else f"exit code {v[0]}")

    F3 = gf.field(3)
    a3_pool, d4_pool = _reflection_pools(ctx, F3)
    for label, pool, sink in (("A3", a3_pool, 2), ("D~4", d4_pool, D4_SINK)):
        triples = _triples(pool)
        rng.shuffle(triples)
        for M, N1, N2 in triples:
            def invariance(M=M, N1=N1, N2=N2, sink=sink):
                refl = ctx.functors.reflect_plus
                return (hall.hall_number(M, N1, N2),
                        hall.hall_number(refl(M, sink), refl(N1, sink), refl(N2, sink)))
            run(f"reflection {label} {M.dims}/{N1.dims}/{N2.dims}", invariance,
                lambda v: None if v[0] == v[1] else f"before {v[0]}, after {v[1]}")

    groups: dict = {}
    for q in ENUM_PREINJ_FIELDS:
        F = gf.field(q)
        for x in _d4_roots(ctx, +1, ENUM_PREINJ_MAX_LEN):
            name = f"preinjective {x} q={q}"
            mu = run(name, lambda x=x, F=F: ctx.gr.gr_measure(
                ctx.functors.build_preinjective(ctx.d4, F, x)),
                lambda mu, x=x: None if mu[-1] <= sum(x) else f"measure {mu}")
            if mu is not None:
                groups.setdefault(x, []).append((run.index, mu))
    _same_value_groups(run, groups)


WORKLOADS = {
    "table": (setup_table, pass_table),
    "gr": (setup_gr, pass_gr),
    "enum": (setup_enum, pass_enum),
}
