"""Batch command-line front end.

Every subcommand reads its inputs from flags (or a JSON config file,
flags winning), writes one deterministic result to stdout, and keeps
progress chatter on stderr.  Exit codes: 0 success, 2 enumeration too
large for its budget, 3 invalid input, 4 failed verification.
"""

from __future__ import annotations

import json
import os
import sys

import click

from .errors import (
    DEFAULT_BUDGET,
    InfeasibleEnumerationError,
    InternalInconsistencyError,
    InvalidInputError,
    VerificationError,
)
from .functors import (
    build_preinjective,
    build_preprojective,
    reflect_minus,
    reflect_plus,
    tau,
    tau_minus,
)
from .gf import field, gaussian_binomial
from .gr import gr_measure, verify_main_theorem
from .hall import (
    hall_number,
    hall_poly_for_root,
    hall_table,
    necklace_count,
    table_mismatches,
)
from .homreg import build_homogeneous_simples
from .quiver import (
    classify_graph,
    defect,
    is_affine,
    parse_quiver,
    positive_real_roots,
    preset_quiver,
    radical_delta,
)
from .reps import (
    Rep,
    direct_sum,
    end_dim,
    injective_rep,
    projective_rep,
    simple_rep,
)

SCHEMA_VERSION = 1

MODULE_FORMS = ("simple:<i> | proj:<i> | inj:<i> | prep:<x1,..,xn> | "
                "prei:<x1,..,xn> | homog:<k>")


# ---------------------------------------------------------------------------
# plumbing


def _progress(message: str) -> None:
    click.echo(message, err=True)


def _styled(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return click.style(text, fg="green" if ok else "red")


def _words(values) -> str:
    return " ".join(str(x) for x in values)


def _arrow_words(arrows) -> str:
    """Render 1-indexed [s, t] pairs as `s->t` words."""
    return " ".join(f"{s}->{t}" for s, t in arrows)


def _apply_config(ctx: click.Context, values: dict) -> dict:
    """Fill in options from the JSON config file, but only where the
    command line left the default in place.  A null value keeps the
    option's default."""
    path = values.get("config")
    if not path:
        return values
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InvalidInputError("config file must hold a JSON object")
    by_key: dict[str, click.Parameter] = {}
    for p in ctx.command.params:
        by_key[p.name] = p
        for opt in p.opts:
            by_key[opt.lstrip("-").replace("-", "_")] = p
    out = dict(values)
    for key, raw in data.items():
        param = by_key.get(key.replace("-", "_"))
        if param is None or param.name == "config" or param.name not in out:
            raise InvalidInputError(
                f"config key {key!r} is not an option of this command")
        if raw is None or (ctx.get_parameter_source(param.name)
                           is not click.core.ParameterSource.DEFAULT):
            continue
        try:
            if param.multiple:
                items = raw if isinstance(raw, list) else [raw]
                out[param.name] = tuple(param.type.convert(v, param, ctx)
                                        for v in items)
            else:
                out[param.name] = param.type.convert(raw, param, ctx)
        except TypeError:
            raise InvalidInputError(
                f"config key {key!r} has a value of the wrong type")
    return out


def _require(value, flag: str):
    if value is None:
        raise InvalidInputError(f"missing required option {flag}")
    return value


def _resolve_quiver(preset: str | None, quiver_file: str | None,
                    sink: int | None):
    if (preset is None) == (quiver_file is None):
        raise InvalidInputError("give exactly one of --preset or --quiver-file")
    if preset is not None:
        Q = preset_quiver(preset)
        if sink is None:
            return Q
        if not 1 <= sink <= Q.n:
            raise InvalidInputError(f"--sink {sink} out of range 1..{Q.n}")
        return preset_quiver(preset, sink - 1)
    if sink is not None:
        raise InvalidInputError("--sink only applies to presets")
    try:
        with open(quiver_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read quiver file: {exc}")
    return parse_quiver(text)


def _parse_vertex(text: str, n: int) -> int:
    try:
        i = int(text)
    except ValueError:
        raise InvalidInputError(f"vertex {text!r} is not an integer")
    if not 1 <= i <= n:
        raise InvalidInputError(f"vertex {i} out of range 1..{n}")
    return i - 1


def _parse_dimvec(text: str, n: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidInputError(f"bad dimension vector {text!r}")
    if len(vec) != n:
        raise InvalidInputError(
            f"dimension vector {text!r} has {len(vec)} entries, quiver has {n}")
    if any(v < 0 for v in vec):
        raise InvalidInputError(f"dimension vector {text!r} has a negative entry")
    return vec


def build_module(Q, F, descriptor: str) -> Rep:
    """Turn a module descriptor into a representation.

    Forms (1-indexed): simple:<i>, proj:<i>, inj:<i>, prep:<dimvec>,
    prei:<dimvec>, homog:<k> for the k-th homogeneous family member.
    """
    kind, sep, arg = descriptor.partition(":")
    if not sep or not arg:
        raise InvalidInputError(
            f"module descriptor {descriptor!r} must look like kind:value ({MODULE_FORMS})")
    if kind == "simple":
        return simple_rep(Q, F, _parse_vertex(arg, Q.n))
    if kind == "proj":
        return projective_rep(Q, F, _parse_vertex(arg, Q.n))
    if kind == "inj":
        return injective_rep(Q, F, _parse_vertex(arg, Q.n))
    if kind == "prep":
        return build_preprojective(Q, F, _parse_dimvec(arg, Q.n))
    if kind == "prei":
        return build_preinjective(Q, F, _parse_dimvec(arg, Q.n))
    if kind == "homog":
        try:
            k = int(arg)
        except ValueError:
            raise InvalidInputError(f"homogeneous index {arg!r} is not an integer")
        family = build_homogeneous_simples(Q, F)
        if not 1 <= k <= len(family):
            raise InvalidInputError(
                f"homogeneous index {k} out of range 1..{len(family)} over GF({F.q})")
        return family[k - 1][1]
    raise InvalidInputError(f"unknown module kind {kind!r} ({MODULE_FORMS})")


def _module_json(M: Rep) -> dict:
    Q = M.quiver
    out = {
        "field": M.field.q,
        "dims": list(M.dims),
        "length": M.total_dim,
        "arrows": [[s + 1, t + 1] for s, t in Q.arrows],
        "mats": [[[int(v) for v in row] for row in A] for A in M.mats],
        "end_dim": end_dim(M),
    }
    if is_affine(Q):
        out["defect"] = defect(Q, M.dims)
    return out


def _module_lines(label: str, m: dict) -> list[str]:
    """Text form of a `_module_json` payload."""
    out = [f"module: {label}",
           f"field: GF({m['field']})",
           "dims: " + _words(m["dims"]),
           f"length: {m['length']}"]
    if "defect" in m:
        out.append(f"defect: {m['defect']}")
    out.append(f"end dim: {m['end_dim']}")
    out.append("arrows: " + _arrow_words(m["arrows"]))
    for (s, t), rows in zip(m["arrows"], m["mats"]):
        out.append(f"arrow {s}->{t}:")
        shape = (m["dims"][t - 1], m["dims"][s - 1])
        if 0 in shape:
            out.append(f"  (empty {shape[0]}x{shape[1]})")
        else:
            out.extend("  " + _words(row) for row in rows)
    return out


def _poly_json(poly) -> dict:
    return {
        "poly": poly.format(),
        "coeffs": list(poly.coeffs),
        "samples": [[q, c] for q, c in poly.samples],
        "verified_at": list(poly.verified_at),
    }


# ---------------------------------------------------------------------------
# the command runner


@click.group()
def cli():
    """Exact computations for representations of tame quivers over GF(q)."""


QUIVER_PARAMS = (
    click.Option(["--preset"], default=None,
                 help="Named quiver, e.g. kronecker, dtilde:4, e8tilde, a:3."),
    click.Option(["--quiver-file", "quiver_file"],
                 type=click.Path(dir_okay=False), default=None,
                 help="Quiver description file (vertices/arrow lines)."),
    click.Option(["--sink"], type=int, default=None,
                 help="Reorient a tree preset toward this vertex (1-indexed)."),
)

COMMON_PARAMS = (
    click.Option(["--format", "fmt"], type=click.Choice(["text", "json"]),
                 default="text", help="Output format."),
    click.Option(["--config"], type=click.Path(dir_okay=False), default=None,
                 help="JSON file with the same keys as the flags; flags win."),
)

MODULE = click.Argument(["module"])
FIELD = click.Option(["--field", "field_q"], type=int, default=None,
                     help="Field size q (prime power).")


def command(name: str, *params: click.Parameter, quiver: bool = True):
    """Register the decorated body as subcommand NAME with PARAMS, the
    quiver options (unless `quiver` is false) and --format/--config.

    The runner merges the config file, checks --budget, resolves the
    quiver and, when the command has a single --field, the field, then
    calls body(values, Q, F) -> (payload, text lines, failure or None).
    It writes the payload as JSON or the lines as text, and only then
    raises VerificationError for a failure, so a failed check still
    prints its result and exits 4.
    """
    params = params + (QUIVER_PARAMS if quiver else ()) + COMMON_PARAMS
    single_field = any(p.name == "field_q" and not p.multiple for p in params)

    def register(body):
        def run(**values):
            v = _apply_config(click.get_current_context(), values)
            if "budget" in v and v["budget"] < 1:
                raise InvalidInputError("--budget must be at least 1")
            Q = (_resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
                 if quiver else None)
            F = field(_require(v["field_q"], "--field")) if single_field else None
            payload, lines, failure = body(v, Q, F)
            if v["fmt"] == "json":
                click.echo(json.dumps({"schema": SCHEMA_VERSION, "command": name,
                                       **payload}, indent=2))
            else:
                for line in lines:
                    click.echo(line)
            if failure:
                raise VerificationError(failure)

        cli.command(name, params=list(params), help=body.__doc__)(run)
        return body

    return register


# ---------------------------------------------------------------------------
# subcommands


@command("quiver-info")
def cmd_quiver_info(v, Q, F):
    """Print the graph class and, for affine quivers, delta and defects."""
    gc = classify_graph(Q)
    affine = is_affine(Q)
    delta = radical_delta(Q) if affine else None
    defects = ([defect(Q, tuple(1 if j == i else 0 for j in range(Q.n)))
                for i in range(Q.n)] if affine else None)
    payload = {
        "symbol": gc.symbol,
        "vertices": Q.n,
        "arrows": [[s + 1, t + 1] for s, t in Q.arrows],
        "affine": affine,
        "delta": list(delta) if delta else None,
        "simple_defects": defects,
    }
    lines = [f"symbol: {gc.symbol}",
             f"vertices: {Q.n}",
             "arrows: " + _arrow_words(payload["arrows"]),
             f"affine: {'yes' if affine else 'no'}"]
    if affine:
        lines += ["delta: " + _words(delta), "simple defects: " + _words(defects)]
    return payload, lines, None


@command("roots", click.Option(
    ["--bound"], type=int, default=None,
    help="List roots with every coordinate at most this bound."))
def cmd_roots(v, Q, F):
    """List positive real roots inside a coordinate box."""
    if _require(v["bound"], "--bound") < 1:
        raise InvalidInputError("--bound must be at least 1")
    affine = is_affine(Q)
    items = []
    for x in sorted(positive_real_roots(Q, (v["bound"],) * Q.n),
                    key=lambda x: (sum(x), x)):
        item = {"dims": list(x), "length": sum(x)}
        if affine:
            item["defect"] = defect(Q, x)
        items.append(item)
    lines = [",".join(str(c) for c in r["dims"]) + f"  length={r['length']}"
             + (f" defect={r['defect']}" if affine else "") for r in items]
    lines.append(f"total: {len(items)}")
    return {"bound": v["bound"], "count": len(items), "roots": items}, lines, None


@command("build", MODULE, FIELD)
def cmd_build(v, Q, F):
    """Build one module and print its matrices.

    MODULE is one of: simple:<i>, proj:<i>, inj:<i>, prep:<x1,..,xn>,
    prei:<x1,..,xn>, homog:<k> (vertices 1-indexed).
    """
    m = {"module": v["module"], **_module_json(build_module(Q, F, v["module"]))}
    return m, _module_lines(v["module"], m), None


@command("reflect", MODULE,
         click.Option(["--vertex"], type=int, default=None,
                      help="Reflection vertex (1-indexed); a sink, or a source "
                           "with --minus."),
         click.Option(["--minus"], is_flag=True, default=False,
                      help="Apply the source reflection instead of the sink one."),
         FIELD)
def cmd_reflect(v, Q, F):
    """Apply one reflection to MODULE and print the result."""
    M = build_module(Q, F, v["module"])
    i = _parse_vertex(str(_require(v["vertex"], "--vertex")), Q.n)
    if not (Q.is_source(i) if v["minus"] else Q.is_sink(i)):
        raise InvalidInputError(f"vertex {i + 1} is not a {'source' if v['minus'] else 'sink'}")
    N = reflect_minus(M, i) if v["minus"] else reflect_plus(M, i)
    label = f"reflect{'-' if v['minus'] else '+'}@{v['vertex']} {v['module']}"
    m = {"module": v["module"], "vertex": v["vertex"], "minus": bool(v["minus"]),
         **_module_json(N)}
    return m, _module_lines(label, m), None


@command("tau", MODULE,
         click.Option(["--minus"], is_flag=True, default=False,
                      help="Apply the inverse translate instead."),
         FIELD)
def cmd_tau(v, Q, F):
    """Apply the translate (full reflection sweep) to MODULE."""
    M = build_module(Q, F, v["module"])
    N = tau_minus(M) if v["minus"] else tau(M)
    label = f"tau{'-' if v['minus'] else ''} {v['module']}"
    m = {"module": v["module"], "minus": bool(v["minus"]), **_module_json(N)}
    return m, _module_lines(label, m), None


@command("hall-number", click.Argument(["module_m"]), click.Argument(["module_n1"]),
         click.Argument(["module_n2"]), FIELD,
         click.Option(["--budget"], type=int, default=DEFAULT_BUDGET,
                      help="Cap on the subspace enumeration size."))
def cmd_hall_number(v, Q, F):
    """Count submodules of MODULE_M isomorphic to MODULE_N2 with quotient
    MODULE_N1."""
    M = build_module(Q, F, v["module_m"])
    N1 = build_module(Q, F, v["module_n1"])
    N2 = build_module(Q, F, v["module_n2"])
    value = hall_number(M, N1, N2, budget=v["budget"])
    return ({"field": F.q, "module": v["module_m"], "quotient": v["module_n1"],
             "submodule": v["module_n2"], "value": value}, [str(value)], None)


@command("hall-poly", click.Option(
    ["--root"], default=None,
    help="Dimension vector x1,..,xn of a negative-defect real root."))
def cmd_hall_poly(v, Q, F):
    """Interpolate the count polynomial attached to a real root."""
    x = _parse_dimvec(_require(v["root"], "--root"), Q.n)
    _progress(f"sampling counts for root {v['root']}")
    p = _poly_json(hall_poly_for_root(Q, x))
    lines = [f"f(q) = {p['poly']}",
             "coeffs ascending: " + _words(p["coeffs"]),
             "samples: " + " ".join(f"q={q}:{c}" for q, c in p["samples"]),
             "verified at: " + _words(p["verified_at"])]
    return {"root": list(x), **p}, lines, None


@command("hall-table")
def cmd_hall_table(v, Q, F):
    """Compute the count polynomial for each multiplicity in delta and
    validate the result against the pinned table."""
    rows = hall_table(Q, progress=_progress)
    mismatches = table_mismatches(rows)
    payload = {
        "rows": [{"multiplicity": r.multiplicity, "vertex": r.vertex + 1,
                  **_poly_json(r.poly)} for r in rows],
        "pinned_check": "fail" if mismatches else "pass",
        "mismatches": mismatches,
    }
    lines = [f"m={r.multiplicity} vertex={r.vertex + 1} "
             f"f_{r.multiplicity}(q) = {r.poly.format()}" for r in rows]
    word = _styled("FAIL", False) if mismatches else _styled("PASS", True)
    lines.append(f"table check: {word} ({len(rows)} rows)")
    failure = ("pinned table mismatch: " + "; ".join(mismatches)
               if mismatches else None)
    return payload, lines, failure


@command("gr-measure", MODULE, FIELD,
         click.Option(["--budget"], type=int, default=DEFAULT_BUDGET,
                      help="Cap on the submodule enumeration size."))
def cmd_gr_measure(v, Q, F):
    """Print the chain measure of MODULE."""
    measure = gr_measure(build_module(Q, F, v["module"]), budget=v["budget"])
    return ({"field": F.q, "module": v["module"], "measure": list(measure)},
            ["measure: " + _words(measure)], None)


@command("gr-check", click.Option(["--field", "field_q"], type=int, default=None,
                                  help="Field size q (3..5)."))
def cmd_gr_check(v, Q, F):
    """Verify the defect picture for one homogeneous module: chain
    submodule of defect -1, preinjective quotient of defect 1, and the
    (0,0,0,2) hom/ext pattern of the pair."""
    _progress(f"checking homogeneous module over GF({F.q})")
    report = verify_main_theorem(Q, F)
    lines = [
        "module dims: " + _words(report.module.dims) + f" over GF({F.q})",
        "measure: " + _words(report.measure),
        "gr submodule: dims " + _words(report.gr_submodule.dims)
        + f" defect {report.submodule_defect}",
        "quotient: dims " + _words(report.quotient_dims)
        + f" defect {report.quotient_defect}",
        f"pair: hom_qp={report.hom_qp} hom_pq={report.hom_pq} "
        f"ext_pq={report.ext_pq} ext_qp={report.ext_qp}",
        f"check: {_styled('PASS', True)}",
    ]
    return {"field": F.q, **report.to_json(), "check": "pass"}, lines, None


@command("necklace",
         click.Option(["--q", "q"], type=int, default=None, help="Field size q."),
         click.Option(["--l", "l"], type=int, default=None, help="Degree l."),
         quiver=False)
def cmd_necklace(v, Q, F):
    """Count monic irreducible polynomials of degree l over GF(q)."""
    value = necklace_count(_require(v["q"], "--q"), _require(v["l"], "--l"))
    return {"q": v["q"], "l": v["l"], "value": value}, [str(value)], None


def _dynkin_oracle_checks(q: int) -> list[dict]:
    """Brute-force submodule counts on two small Dynkin quivers against
    hand-checked values and subspace counts."""
    F = field(q)
    A2 = parse_quiver("vertices 2\narrow 1 2\n")
    A3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n")
    S1, S2 = simple_rep(A2, F, 0), simple_rep(A2, F, 1)
    P12 = projective_rep(A2, F, 0)
    T1, T2, T3 = (simple_rep(A3, F, i) for i in range(3))
    M111 = projective_rep(A3, F, 0)
    M011 = projective_rep(A3, F, 1)
    M110 = injective_rep(A3, F, 1)
    out = []

    def chk(name, got, expected):
        out.append({"name": name, "q": q, "got": got, "expected": expected,
                    "ok": got == expected})

    chk("a2 extension tower", hall_number(P12, S1, S2), 1)
    chk("a2 extension reversed", hall_number(P12, S2, S1), 0)
    chk("a2 split sum, sub at sink", hall_number(direct_sum(S1, S2), S1, S2), 1)
    chk("a2 split sum, sub at source", hall_number(direct_sum(S1, S2), S2, S1), 1)
    SS = direct_sum(S1, S1)
    chk("a2 lines in a square", hall_number(SS, S1, S1),
        gaussian_binomial(2, 1, q))
    S3 = direct_sum(SS, S1)
    chk("a2 lines in a cube", hall_number(S3, SS, S1),
        gaussian_binomial(3, 1, q))
    chk("a2 planes in a cube", hall_number(S3, S1, SS),
        gaussian_binomial(3, 2, q))
    chk("a3 chain, bottom simple", hall_number(M111, M110, T3), 1)
    chk("a3 chain, bottom pair", hall_number(M111, T1, M011), 1)
    chk("a3 chain, top simple not a sub", hall_number(M111, M011, T1), 0)
    chk("a3 chain, top pair not a sub", hall_number(M111, T3, M110), 0)
    chk("a3 split pair, one way",
        hall_number(direct_sum(M110, T3), M110, T3), 1)
    chk("a3 split pair, other way",
        hall_number(direct_sum(M110, T3), T3, M110), 1)
    chk("a3 middle square", hall_number(direct_sum(T2, T2), T2, T2),
        gaussian_binomial(2, 1, q))
    return out


@command("oracle-dynkin",
         click.Option(["--field", "field_q"], type=int, multiple=True,
                      help="Field size; repeatable.  Default: 2 3 4."),
         quiver=False)
def cmd_oracle_dynkin(v, Q, F):
    """Run the brute-force submodule-count suite on small Dynkin quivers."""
    fields = tuple(v["field_q"]) or (2, 3, 4)
    checks = []
    for q in fields:
        _progress(f"oracle checks over GF({q})")
        checks.extend(_dynkin_oracle_checks(q))
    failures = [c for c in checks if not c["ok"]]
    lines = []
    for c in checks:
        word = _styled("PASS", True) if c["ok"] else _styled("FAIL", False)
        line = f"{word} {c['name']} (q={c['q']}): {c['got']}"
        if not c["ok"]:
            line += f" expected {c['expected']}"
        lines.append(line)
    lines.append(f"oracle suite: {len(checks)} checks, {len(failures)} failures")
    failure = (f"{len(failures)} oracle checks failed, first: "
               f"{failures[0]['name']} (q={failures[0]['q']})" if failures else None)
    return ({"fields": list(fields), "checks": checks, "failures": len(failures)},
            lines, failure)


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cli.main(args=args, prog_name="tamehall", standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 3
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 3
    except InvalidInputError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except InfeasibleEnumerationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (VerificationError, InternalInconsistencyError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
