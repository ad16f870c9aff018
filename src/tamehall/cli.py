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


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2))


def _apply_config(ctx: click.Context, values: dict) -> dict:
    """Fill in options from the JSON config file, but only where the
    command line left the default in place."""
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
        if ctx.get_parameter_source(param.name) is not click.core.ParameterSource.DEFAULT:
            continue
        if param.multiple:
            items = raw if isinstance(raw, list) else [raw]
            out[param.name] = tuple(param.type.convert(v, param, ctx)
                                    for v in items)
        elif raw is None:
            out[param.name] = None
        else:
            out[param.name] = param.type.convert(raw, param, ctx)
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


def _module_lines(label: str, M: Rep) -> list[str]:
    Q = M.quiver
    out = [f"module: {label}",
           f"field: GF({M.field.q})",
           "dims: " + " ".join(str(d) for d in M.dims),
           f"length: {M.total_dim}"]
    if is_affine(Q):
        out.append(f"defect: {defect(Q, M.dims)}")
    out.append(f"end dim: {end_dim(M)}")
    out.append("arrows: " + " ".join(f"{s + 1}->{t + 1}" for s, t in Q.arrows))
    for a, (s, t) in enumerate(Q.arrows):
        A = M.mats[a]
        out.append(f"arrow {s + 1}->{t + 1}:")
        if A.size == 0:
            out.append(f"  (empty {A.shape[0]}x{A.shape[1]})")
        else:
            for row in A:
                out.append("  " + " ".join(str(int(v)) for v in row))
    return out


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


def _poly_json(poly) -> dict:
    return {
        "poly": poly.format(),
        "coeffs": list(poly.coeffs),
        "samples": [[q, c] for q, c in poly.samples],
        "verified_at": list(poly.verified_at),
    }


# ---------------------------------------------------------------------------
# shared option decorators


def quiver_options(f):
    f = click.option("--sink", type=int, default=None,
                     help="Reorient a tree preset toward this vertex (1-indexed).")(f)
    f = click.option("--quiver-file", "quiver_file",
                     type=click.Path(dir_okay=False), default=None,
                     help="Quiver description file (vertices/arrow lines).")(f)
    f = click.option("--preset", default=None,
                     help="Named quiver, e.g. kronecker, dtilde:4, e8tilde, a:3.")(f)
    return f


def common_options(f):
    f = click.option("--config", type=click.Path(dir_okay=False), default=None,
                     help="JSON file with the same keys as the flags; "
                          "flags win.")(f)
    f = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                     default="text", help="Output format.")(f)
    return f


@click.group()
def cli():
    """Exact computations for representations of tame quivers over GF(q)."""


# ---------------------------------------------------------------------------
# subcommands


@cli.command("quiver-info")
@quiver_options
@common_options
@click.pass_context
def cmd_quiver_info(ctx, preset, quiver_file, sink, fmt, config):
    """Print the graph class and, for affine quivers, delta and defects."""
    v = _apply_config(ctx, locals())
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    gc = classify_graph(Q)
    affine = is_affine(Q)
    delta = radical_delta(Q) if affine else None
    defects = ([defect(Q, tuple(1 if j == i else 0 for j in range(Q.n)))
                for i in range(Q.n)] if affine else None)
    if v["fmt"] == "json":
        _emit_json({
            "schema": SCHEMA_VERSION,
            "command": "quiver-info",
            "symbol": gc.symbol,
            "vertices": Q.n,
            "arrows": [[s + 1, t + 1] for s, t in Q.arrows],
            "affine": affine,
            "delta": list(delta) if delta else None,
            "simple_defects": defects,
        })
        return
    click.echo(f"symbol: {gc.symbol}")
    click.echo(f"vertices: {Q.n}")
    click.echo("arrows: " + " ".join(f"{s + 1}->{t + 1}" for s, t in Q.arrows))
    click.echo(f"affine: {'yes' if affine else 'no'}")
    if affine:
        click.echo("delta: " + " ".join(str(d) for d in delta))
        click.echo("simple defects: " + " ".join(str(d) for d in defects))


@cli.command("roots")
@click.option("--bound", type=int, default=None,
              help="List roots with every coordinate at most this bound.")
@quiver_options
@common_options
@click.pass_context
def cmd_roots(ctx, bound, preset, quiver_file, sink, fmt, config):
    """List positive real roots inside a coordinate box."""
    v = _apply_config(ctx, locals())
    if _require(v["bound"], "--bound") < 1:
        raise InvalidInputError("--bound must be at least 1")
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    affine = is_affine(Q)
    roots = sorted(positive_real_roots(Q, (v["bound"],) * Q.n),
                   key=lambda x: (sum(x), x))
    if v["fmt"] == "json":
        items = []
        for x in roots:
            item = {"dims": list(x), "length": sum(x)}
            if affine:
                item["defect"] = defect(Q, x)
            items.append(item)
        _emit_json({
            "schema": SCHEMA_VERSION,
            "command": "roots",
            "bound": v["bound"],
            "count": len(roots),
            "roots": items,
        })
        return
    for x in roots:
        line = ",".join(str(c) for c in x) + f"  length={sum(x)}"
        if affine:
            line += f" defect={defect(Q, x)}"
        click.echo(line)
    click.echo(f"total: {len(roots)}")


@cli.command("build")
@click.argument("module")
@click.option("--field", "field_q", type=int, default=None,
              help="Field size q (prime power).")
@quiver_options
@common_options
@click.pass_context
def cmd_build(ctx, module, field_q, preset, quiver_file, sink, fmt, config):
    """Build one module and print its matrices.

    MODULE is one of: simple:<i>, proj:<i>, inj:<i>, prep:<x1,..,xn>,
    prei:<x1,..,xn>, homog:<k> (vertices 1-indexed).
    """
    v = _apply_config(ctx, locals())
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    F = field(_require(v["field_q"], "--field"))
    M = build_module(Q, F, v["module"])
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "build",
                    "module": v["module"], **_module_json(M)})
        return
    for line in _module_lines(v["module"], M):
        click.echo(line)


@cli.command("reflect")
@click.argument("module")
@click.option("--vertex", type=int, default=None,
              help="Reflection vertex (1-indexed); a sink, or a source with --minus.")
@click.option("--minus", is_flag=True, default=False,
              help="Apply the source reflection instead of the sink one.")
@click.option("--field", "field_q", type=int, default=None,
              help="Field size q (prime power).")
@quiver_options
@common_options
@click.pass_context
def cmd_reflect(ctx, module, vertex, minus, field_q, preset, quiver_file, sink,
                fmt, config):
    """Apply one reflection to MODULE and print the result."""
    v = _apply_config(ctx, locals())
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    F = field(_require(v["field_q"], "--field"))
    M = build_module(Q, F, v["module"])
    i = _parse_vertex(str(_require(v["vertex"], "--vertex")), Q.n)
    N = reflect_minus(M, i) if v["minus"] else reflect_plus(M, i)
    label = f"reflect{'-' if v['minus'] else '+'}@{v['vertex']} {v['module']}"
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "reflect",
                    "module": v["module"], "vertex": v["vertex"],
                    "minus": bool(v["minus"]), **_module_json(N)})
        return
    for line in _module_lines(label, N):
        click.echo(line)


@cli.command("tau")
@click.argument("module")
@click.option("--minus", is_flag=True, default=False,
              help="Apply the inverse translate instead.")
@click.option("--field", "field_q", type=int, default=None,
              help="Field size q (prime power).")
@quiver_options
@common_options
@click.pass_context
def cmd_tau(ctx, module, minus, field_q, preset, quiver_file, sink, fmt,
            config):
    """Apply the translate (full reflection sweep) to MODULE."""
    v = _apply_config(ctx, locals())
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    F = field(_require(v["field_q"], "--field"))
    M = build_module(Q, F, v["module"])
    N = tau_minus(M) if v["minus"] else tau(M)
    label = f"tau{'-' if v['minus'] else ''} {v['module']}"
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "tau",
                    "module": v["module"], "minus": bool(v["minus"]),
                    **_module_json(N)})
        return
    for line in _module_lines(label, N):
        click.echo(line)


@cli.command("hall-number")
@click.argument("module_m")
@click.argument("module_n1")
@click.argument("module_n2")
@click.option("--field", "field_q", type=int, default=None,
              help="Field size q (prime power).")
@click.option("--budget", type=int, default=2_000_000,
              help="Cap on the subspace enumeration size.")
@quiver_options
@common_options
@click.pass_context
def cmd_hall_number(ctx, module_m, module_n1, module_n2, field_q, budget,
                    preset, quiver_file, sink, fmt, config):
    """Count submodules of MODULE_M isomorphic to MODULE_N2 with quotient
    MODULE_N1."""
    v = _apply_config(ctx, locals())
    if v["budget"] < 1:
        raise InvalidInputError("--budget must be at least 1")
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    F = field(_require(v["field_q"], "--field"))
    M = build_module(Q, F, v["module_m"])
    N1 = build_module(Q, F, v["module_n1"])
    N2 = build_module(Q, F, v["module_n2"])
    value = hall_number(M, N1, N2, budget=v["budget"])
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "hall-number",
                    "field": F.q, "module": v["module_m"],
                    "quotient": v["module_n1"], "submodule": v["module_n2"],
                    "value": value})
        return
    click.echo(str(value))


@cli.command("hall-poly")
@click.option("--root", default=None,
              help="Dimension vector x1,..,xn of a negative-defect real root.")
@quiver_options
@common_options
@click.pass_context
def cmd_hall_poly(ctx, root, preset, quiver_file, sink, fmt, config):
    """Interpolate the count polynomial attached to a real root."""
    v = _apply_config(ctx, locals())
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    x = _parse_dimvec(_require(v["root"], "--root"), Q.n)
    _progress(f"sampling counts for root {v['root']}")
    poly = hall_poly_for_root(Q, x)
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "hall-poly",
                    "root": list(x), **_poly_json(poly)})
        return
    click.echo(f"f(q) = {poly.format()}")
    click.echo("coeffs ascending: " + " ".join(str(c) for c in poly.coeffs))
    click.echo("samples: " + " ".join(f"q={q}:{c}" for q, c in poly.samples))
    click.echo("verified at: " + " ".join(str(q) for q in poly.verified_at))


@cli.command("hall-table")
@quiver_options
@common_options
@click.pass_context
def cmd_hall_table(ctx, preset, quiver_file, sink, fmt, config):
    """Compute the count polynomial for each multiplicity in delta and
    validate the result against the pinned table."""
    v = _apply_config(ctx, locals())
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    rows = hall_table(Q, progress=_progress)
    mismatches = table_mismatches(rows)
    if v["fmt"] == "json":
        _emit_json({
            "schema": SCHEMA_VERSION,
            "command": "hall-table",
            "rows": [{"multiplicity": r.multiplicity, "vertex": r.vertex + 1,
                      **_poly_json(r.poly)} for r in rows],
            "pinned_check": "fail" if mismatches else "pass",
            "mismatches": mismatches,
        })
    else:
        for r in rows:
            click.echo(f"m={r.multiplicity} vertex={r.vertex + 1} "
                       f"f_{r.multiplicity}(q) = {r.poly.format()}")
        word = _styled("FAIL", False) if mismatches else _styled("PASS", True)
        click.echo(f"table check: {word} ({len(rows)} rows)")
    if mismatches:
        raise VerificationError("pinned table mismatch: " + "; ".join(mismatches))


@cli.command("gr-measure")
@click.argument("module")
@click.option("--field", "field_q", type=int, default=None,
              help="Field size q (prime power).")
@click.option("--budget", type=int, default=2_000_000,
              help="Cap on the submodule enumeration size.")
@quiver_options
@common_options
@click.pass_context
def cmd_gr_measure(ctx, module, field_q, budget, preset, quiver_file, sink,
                   fmt, config):
    """Print the chain measure of MODULE."""
    v = _apply_config(ctx, locals())
    if v["budget"] < 1:
        raise InvalidInputError("--budget must be at least 1")
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    F = field(_require(v["field_q"], "--field"))
    M = build_module(Q, F, v["module"])
    measure = gr_measure(M, budget=v["budget"])
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "gr-measure",
                    "field": F.q, "module": v["module"],
                    "measure": list(measure)})
        return
    click.echo("measure: " + " ".join(str(m) for m in measure))


@cli.command("gr-check")
@click.option("--field", "field_q", type=int, default=None,
              help="Field size q (3..5).")
@quiver_options
@common_options
@click.pass_context
def cmd_gr_check(ctx, field_q, preset, quiver_file, sink, fmt, config):
    """Verify the defect picture for one homogeneous module: chain
    submodule of defect -1, preinjective quotient of defect 1, and the
    (0,0,0,2) hom/ext pattern of the pair."""
    v = _apply_config(ctx, locals())
    Q = _resolve_quiver(v["preset"], v["quiver_file"], v["sink"])
    F = field(_require(v["field_q"], "--field"))
    _progress(f"checking homogeneous module over GF({F.q})")
    report = verify_main_theorem(Q, F)
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "gr-check",
                    "field": F.q, **report.to_json(), "check": "pass"})
        return
    click.echo("module dims: " + " ".join(str(d) for d in report.module.dims)
               + f" over GF({F.q})")
    click.echo("measure: " + " ".join(str(m) for m in report.measure))
    click.echo("gr submodule: dims "
               + " ".join(str(d) for d in report.gr_submodule.dims)
               + f" defect {report.submodule_defect}")
    click.echo("quotient: dims " + " ".join(str(d) for d in report.quotient_dims)
               + f" defect {report.quotient_defect}")
    click.echo(f"pair: hom_qp={report.hom_qp} hom_pq={report.hom_pq} "
               f"ext_pq={report.ext_pq} ext_qp={report.ext_qp}")
    click.echo(f"check: {_styled('PASS', True)}")


@cli.command("necklace")
@click.option("--q", "q", type=int, default=None, help="Field size q.")
@click.option("--l", "l", type=int, default=None, help="Degree l.")
@common_options
@click.pass_context
def cmd_necklace(ctx, q, l, fmt, config):
    """Count monic irreducible polynomials of degree l over GF(q)."""
    v = _apply_config(ctx, locals())
    value = necklace_count(_require(v["q"], "--q"), _require(v["l"], "--l"))
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "necklace",
                    "q": v["q"], "l": v["l"], "value": value})
        return
    click.echo(str(value))


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


@cli.command("oracle-dynkin")
@click.option("--field", "field_q", type=int, multiple=True,
              help="Field size; repeatable.  Default: 2 3 4.")
@common_options
@click.pass_context
def cmd_oracle_dynkin(ctx, field_q, fmt, config):
    """Run the brute-force submodule-count suite on small Dynkin quivers."""
    v = _apply_config(ctx, locals())
    fields = tuple(v["field_q"]) or (2, 3, 4)
    checks = []
    for q in fields:
        _progress(f"oracle checks over GF({q})")
        checks.extend(_dynkin_oracle_checks(q))
    failures = [c for c in checks if not c["ok"]]
    if v["fmt"] == "json":
        _emit_json({"schema": SCHEMA_VERSION, "command": "oracle-dynkin",
                    "fields": list(fields), "checks": checks,
                    "failures": len(failures)})
    else:
        for c in checks:
            word = _styled("PASS", True) if c["ok"] else _styled("FAIL", False)
            line = f"{word} {c['name']} (q={c['q']}): {c['got']}"
            if not c["ok"]:
                line += f" expected {c['expected']}"
            click.echo(line)
        click.echo(f"oracle suite: {len(checks)} checks, "
                   f"{len(failures)} failures")
    if failures:
        raise VerificationError(
            f"{len(failures)} oracle checks failed, first: "
            f"{failures[0]['name']} (q={failures[0]['q']})")


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
