"""Command line front end.

Exit codes: 0 for successful positive verdicts, 1 for negative verdicts
(countermodel found, check failed, no decomposition), 2 for usage and
input errors, 3 when no verdict was reached because a budget ran out or
the program failed internally.  With --json every command prints a
schema-stable report deterministic across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from pathlib import Path
from typing import Optional

from .bat import BAT, GroundAction, validate
from .decomposition import (
    check_local_effect_preservation,
    check_strong_preservation,
    group_ssas,
    syntactic_decompose,
)
from .errors import BudgetExceeded, SitcalcError
from .forgetting import forget_atom, forget_ground_symbol
from .oracle import (
    Countermodel,
    EntailedFinite,
    EquivalentFinite,
    FiniteModel,
    InseparableFinite,
    NotEquivalent,
    OracleConfig,
    Sat,
    Separated,
    UnsatFinite,
    check_inseparable,
    entails,
    equivalent,
    is_positive,
    satisfiable,
)
from .progression import executable, progress, progress_componentwise, project
from .surface import (
    parse_bat,
    parse_file,
    parse_formula,
    parse_ground_action,
    parse_ground_atom,
    render,
    render_theory_file,
)
from .syntax import Signature, Theory

# ---------------------------------------------------------------------------
# input handling


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise SitcalcError(f"cannot read {path}: {e.strerror or e}") from None


def _load_bat(path: str) -> BAT:
    return parse_bat(_read_text(path), path)


def _load_any(path: str) -> tuple[Signature, Theory, Optional[BAT]]:
    """A file is either a full action theory or a plain theory file."""
    return parse_file(_read_text(path), path)


def _delta_of(spec: str, env: Signature) -> Signature:
    names = [name for name in (raw.strip() for raw in spec.split(",")) if name]
    known = env.names()
    for name in names:
        if name not in known:
            raise SitcalcError(f"delta symbol {name!r} is not declared in the file")
    return Signature(
        objects=env.objects.intersection(names),
        statics=frozenset(e for e in env.statics if e[0] in names),
        fluents=frozenset(e for e in env.fluents if e[0] in names),
        actions=frozenset(e for e in env.actions if e[0] in names),
    )


def _actions_of(spec: str, env: Signature) -> list[GroundAction]:
    out = []
    for part in spec.split(";"):
        part = part.strip()
        if part:
            out.append(parse_ground_action(part, env))
    return out


def _cfg_of(args: argparse.Namespace) -> OracleConfig:
    kw = {}
    if getattr(args, "max_extra", None) is not None:
        kw["max_extra"] = args.max_extra
    if getattr(args, "no_una", False):
        kw["una"] = False
    if getattr(args, "max_models", None) is not None:
        kw["max_models"] = args.max_models
    if getattr(args, "depth", None) is not None:
        kw["witness_depth"] = args.depth
    return OracleConfig(**kw)


# ---------------------------------------------------------------------------
# output handling


def _sig_json(sig: Signature) -> dict:
    return {
        "objects": sorted(sig.objects),
        "statics": {n: ar for n, ar in sig.statics},
        "fluents": {n: ar for n, ar in sig.fluents},
        "actions": {n: ar for n, ar in sig.actions},
    }


def _model_json(m: FiniteModel) -> dict:
    rels = {}
    for (name, tag), table in m.relations:
        key = name if not tag else f"{name}@{tag}"
        rels[key] = sorted(list(t) for t in table)
    return {"size": m.size, "consts": dict(m.consts), "relations": rels}


def _model_lines(m: FiniteModel, sig: Signature) -> list[str]:
    """The model, indented; sig declares its relations, whose arities tell an
    empty relation from a false proposition."""
    lines = [f"  domain size {m.size}"]
    if m.consts:
        lines.append("  " + ", ".join(f"{n} = {e}" for n, e in m.consts))
    statics, fluents = dict(sig.statics), dict(sig.fluents)
    for (name, tag), table in m.relations:
        shown = name if not tag else f"{name}[{tag}]"
        if not (fluents[name] if tag else statics[name]):
            lines.append(f"  {shown} = {'true' if () in table else 'false'}")
        else:
            tups = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in sorted(table))
            lines.append(f"  {shown} = {{{tups}}}")
    return lines


def _verdict_json(v) -> dict:
    match v:
        case EntailedFinite(bound):
            return {"kind": "entailed", "bound": bound}
        case Countermodel(model):
            return {"kind": "countermodel", "model": _model_json(model)}
        case EquivalentFinite(bound):
            return {"kind": "equivalent", "bound": bound}
        case NotEquivalent(model, direction):
            return {"kind": "not-equivalent", "direction": direction, "model": _model_json(model)}
        case Sat(model):
            return {"kind": "satisfiable", "model": _model_json(model)}
        case UnsatFinite(bound):
            return {"kind": "unsatisfiable", "bound": bound}
        case InseparableFinite(bound, counts):
            return {"kind": "inseparable", "bound": bound, "reduct_counts": [list(c) for c in counts]}
        case Separated(witness, by, bound):
            return {"kind": "separated", "witness": render(witness), "entailed_by": by, "bound": bound}
    return {"kind": type(v).__name__}


def _verdict_lines(v, sig: Signature) -> list[str]:
    """The verdict for people; sig declares the symbols of its model."""
    match v:
        case EntailedFinite(bound):
            return [f"entailed in every model up to domain size {bound}"]
        case Countermodel(model):
            return ["countermodel found:"] + _model_lines(model, sig)
        case EquivalentFinite(bound):
            return [f"equivalent in every model up to domain size {bound}"]
        case NotEquivalent(model, direction):
            which = "the first theory but not the second" if direction == "1!=>2" else "the second theory but not the first"
            return [f"not equivalent; this model satisfies {which}:"] + _model_lines(model, sig)
        case Sat(model):
            return ["satisfiable:"] + _model_lines(model, sig)
        case UnsatFinite(bound):
            return [f"unsatisfiable in every model up to domain size {bound}"]
        case InseparableFinite(bound, _):
            return [f"inseparable over the shared signature up to domain size {bound}"]
        case Separated(witness, by, _):
            return [f"separated: theory {by} entails {render(witness)}, the other does not"]
    return [str(v)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> tuple[int, dict, list[str]]:
    sig, t, b = _load_any(args.file)
    rep = {"command": "parse", "path": args.file, "signature": _sig_json(sig)}
    if b is not None:
        rep["kind"] = "bat"
        rep["init_axioms"] = len(t.axioms)
        rep["ssas"] = [s.fluent for s in b.ssas]
        rep["preconditions"] = [p.action for p in b.preconditions]
        lines = [
            f"{args.file}: basic action theory with {len(b.ssas)} successor state axioms, "
            f"{len(b.preconditions)} preconditions, {len(t.axioms)} initial axioms"
        ]
    else:
        rep["kind"] = "theory"
        rep["axioms"] = len(t.axioms)
        lines = [f"{args.file}: theory file with {len(t.axioms)} axioms"]
    return 0, rep, lines


def _cmd_validate(args) -> tuple[int, dict, list[str]]:
    sig, t, b = _load_any(args.file)
    if b is None:
        rep = {"command": "validate", "path": args.file, "ok": True, "errors": [], "warnings": []}
        return 0, rep, [f"{args.file}: theory file parses cleanly"]
    r = validate(b, strict=args.strict)
    rep = {
        "command": "validate",
        "path": args.file,
        "ok": r.ok,
        "errors": [str(v) for v in r.errors],
        "warnings": [str(v) for v in r.warnings],
    }
    lines = [f"error: {v}" for v in r.errors] + [f"warning: {v}" for v in r.warnings]
    lines.append(f"{args.file}: {'ok' if r.ok else 'invalid'}")
    return (0 if r.ok else 1), rep, lines


def _emit_theory(args, b: Optional[BAT], sig: Signature, t: Theory) -> list[str]:
    """Write to -o as a reloadable file, or return printable lines: none
    under --json, whose report carries the axioms instead."""
    if getattr(args, "out", None):
        if b is not None:
            text = render(dataclasses.replace(b, init=t, spans=()))
        else:
            text = render_theory_file(sig, t)
        Path(args.out).write_text(text)
        return [f"wrote {args.out}"]
    return [] if args.json else [render(ax) + ";" for ax in t.axioms]


def _decomposed(args, b: BAT) -> tuple:
    """delta1, delta2, the initial decomposition on delta2, the axiom groups on delta1."""
    delta1 = _delta_of(args.delta1, b.sig)
    delta2 = _delta_of(args.delta2, b.sig)
    return delta1, delta2, syntactic_decompose(b.init, delta2), group_ssas(b, delta1)


def _no_decomposition(rep: dict) -> tuple[int, dict, list[str]]:
    rep["verdict"] = {"kind": "no-decomposition"}
    return 1, rep, ["initial theory does not decompose on the delta2 symbols"]


def _cmd_progress(args) -> tuple[int, dict, list[str]]:
    b = _load_bat(args.file)
    alpha = parse_ground_action(args.action, b.sig)
    rep: dict = {"command": "progress", "path": args.file, "action": str(alpha)}
    if args.componentwise:
        delta1, _, decomp, partition = _decomposed(args, b)
        if decomp is None:
            return _no_decomposition(rep)
        result = progress_componentwise(b, decomp, partition, alpha, delta1)
        rep["partition"] = [list(g) for g in partition]
        if args.json:
            rep["components"] = [[render(ax) for ax in c.axioms] for c in result.components]
        if getattr(args, "out", None):
            union = Theory(tuple(ax for c in result.components for ax in c.axioms))
            return 0, rep, _emit_theory(args, b, b.sig, union)
        if args.json:
            return 0, rep, []
        lines = []
        for i, c in enumerate(result.components):
            lines.append(f"// component {i + 1}")
            lines.extend(render(ax) + ";" for ax in c.axioms)
        return 0, rep, lines
    result = progress(b, alpha)
    rep["omega"] = sorted(str(g) for g in result.omega)
    rep["touched_fluents"] = sorted(result.touched_fluents)
    if args.json:
        rep["axioms"] = [render(ax) for ax in result.theory.axioms]
    return 0, rep, _emit_theory(args, b, b.sig, result.theory)


def _cmd_forget(args) -> tuple[int, dict, list[str]]:
    sig, t, b = _load_any(args.file)
    rep: dict = {"command": "forget", "path": args.file}
    if args.atom:
        g = parse_ground_atom(args.atom, sig)
        out = forget_atom(t, g, una=not args.no_una)
        rep["atom"] = str(g)
    else:
        if args.symbol not in {name for name, _ in sig.statics | sig.fluents}:
            raise SitcalcError(f"symbol {args.symbol!r} is not a declared static or fluent predicate")
        out = forget_ground_symbol(t, args.symbol, una=not args.no_una)
        rep["symbol"] = args.symbol
    if args.json:
        rep["axioms"] = [render(ax) for ax in out.axioms]
    return 0, rep, _emit_theory(args, b, sig, out)


def _cmd_decompose(args) -> tuple[int, dict, list[str]]:
    sig, t, _ = _load_any(args.file)
    delta = _delta_of(args.delta, sig)
    rep: dict = {"command": "decompose", "path": args.file, "delta": sorted(delta.names())}
    d = syntactic_decompose(t, delta)
    if d is None:
        rep["components"] = None
        return 1, rep, [f"no decomposition of {args.file} on {{{', '.join(sorted(delta.names()))}}}"]
    rep["components"] = [[render(ax) for ax in c.axioms] for c in d.components]
    lines = [f"{len(d.components)} components"]
    for i, c in enumerate(d.components):
        lines.append(f"// component {i + 1}")
        lines.extend("  " + render(ax) + ";" for ax in c.axioms)
    return 0, rep, lines


def _cmd_check_preservation(args) -> tuple[int, dict, list[str]]:
    b = _load_bat(args.file)
    delta1, delta2, decomp, partition = _decomposed(args, b)
    rep: dict = {
        "command": "check-preservation",
        "path": args.file,
        "delta1": sorted(delta1.names()),
        "delta2": sorted(delta2.names()),
    }
    if decomp is None:
        return _no_decomposition(rep)
    rep["partition"] = [list(g) for g in partition]
    rep["components"] = len(decomp.components)
    strong = None
    if args.action:
        alpha = parse_ground_action(args.action, b.sig)
        strong = check_strong_preservation(b, delta1, delta2, alpha, partition, decomp)
        r = strong.alignment
    else:
        r = check_local_effect_preservation(b, delta1, delta2, partition, decomp)
    rep["alignment_passed"] = r.passed
    rep["f_map"] = {str(k): v for k, v in sorted(r.f_map.items())}
    rep["violations"] = [str(v) for v in r.violations]
    lines = [f"axiom groups: {'; '.join(', '.join(g) for g in partition)}"]
    lines += [f"initial components: {len(decomp.components)}"]
    lines += [f"violation: {v}" for v in r.violations]
    ok = r.passed
    if strong is not None:
        rep["action"] = str(alpha)
        rep["strong_passed"] = strong.passed
        rep["strong_violations"] = [str(v) for v in strong.violations]
        lines += [f"strong violation: {v}" for v in strong.violations]
        ok = strong.passed
    if ok:
        mapping = ", ".join(f"group {k + 1} -> component {v + 1}" for k, v in sorted(r.f_map.items()))
        lines.append(f"preservation holds ({mapping})")
    else:
        lines.append("preservation does not hold")
    return (0 if ok else 1), rep, lines


def _cmd_project(args) -> tuple[int, dict, list[str]]:
    b = _load_bat(args.file)
    acts = _actions_of(args.actions, b.sig)
    query = parse_formula(args.query, b.sig)
    v = project(b, acts, query, _cfg_of(args))
    rep = {
        "command": "project",
        "path": args.file,
        "actions": [str(a) for a in acts],
        "query": render(query),
        "verdict": _verdict_json(v),
    }
    return (0 if is_positive(v) else 1), rep, _verdict_lines(v, b.sig)


def _cmd_executable(args) -> tuple[int, dict, list[str]]:
    b = _load_bat(args.file)
    acts = _actions_of(args.actions, b.sig)
    r = executable(b, acts, _cfg_of(args))
    steps = []
    lines = []
    for i, s in enumerate(r.steps):
        ok = is_positive(s.verdict)
        steps.append({"action": str(s.action), "verdict": _verdict_json(s.verdict)})
        lines.append(f"step {i + 1}: {s.action}: {'executable' if ok else 'not executable'}")
    rep = {
        "command": "executable",
        "path": args.file,
        "steps": steps,
        "all_executable": r.all_executable,
    }
    return (0 if r.all_executable else 1), rep, lines


def _cmd_oracle(args) -> tuple[int, dict, list[str]]:
    cfg = _cfg_of(args)
    rep: dict = {"command": "oracle", "mode": args.mode}
    if args.mode == "entails":
        sig, t, _ = _load_any(args.file)
        query = parse_formula(args.query, sig)
        v = entails(t, query, cfg)
        rep.update({"path": args.file, "query": render(query)})
    elif args.mode == "equiv":
        sig1, t1, _ = _load_any(args.file)
        sig2, t2, _ = _load_any(args.file2)
        sig = sig1 | sig2
        v = equivalent(t1, t2, cfg)
        rep.update({"path": args.file, "path2": args.file2})
    elif args.mode == "sat":
        sig, t, _ = _load_any(args.file)
        v = satisfiable(t, cfg)
        rep.update({"path": args.file})
    else:
        sig1, t1, _ = _load_any(args.file)
        sig2, t2, _ = _load_any(args.file2)
        sig = sig1 | sig2
        delta = _delta_of(args.delta, sig)
        v = check_inseparable(t1, t2, delta, cfg)
        rep.update({"path": args.file, "path2": args.file2, "delta": sorted(delta.names())})
    rep["verdict"] = _verdict_json(v)
    return (0 if is_positive(v) else 1), rep, _verdict_lines(v, sig)


# ---------------------------------------------------------------------------
# argument parsing


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-extra", type=int, default=None, metavar="N",
                   help="extra domain elements beyond the constants (default 1)")
    p.add_argument("--no-una", action="store_true",
                   help="drop the unique-names assumption on constants")
    p.add_argument("--max-models", type=int, default=None, metavar="N",
                   help="cap on the models or reducts one oracle call may produce")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sitcalc",
        description="Progression, forgetting and decomposition analysis for basic action theories.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name: str, fn, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine readable report")
        return p

    p = add("parse", _cmd_parse, help="parse a file and summarize it")
    p.add_argument("file")

    p = add("validate", _cmd_validate, help="check declarations and axiom shapes")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")

    p = add("progress", _cmd_progress, help="progress the initial theory through one action")
    p.add_argument("file")
    p.add_argument("--action", required=True, metavar="ACT", help='ground action, e.g. "move(A, B, C)"')
    p.add_argument("--componentwise", action="store_true",
                   help="progress per component of the initial theory")
    p.add_argument("--delta1", default="", metavar="SYMS",
                   help="comma separated symbols shared between axiom groups")
    p.add_argument("--delta2", default="", metavar="SYMS",
                   help="comma separated symbols shared between initial components")
    p.add_argument("-o", "--out", metavar="FILE", help="write the result as a reloadable file")

    p = add("forget", _cmd_forget, help="forget a ground atom or a ground symbol")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--atom", metavar="ATOM", help='ground atom, e.g. "On(A, B)"')
    g.add_argument("--symbol", metavar="NAME", help="predicate with only ground occurrences")
    p.add_argument("--no-una", action="store_true", help="drop the unique-names assumption")
    p.add_argument("-o", "--out", metavar="FILE", help="write the result as a reloadable file")

    p = add("decompose", _cmd_decompose, help="split a theory over a shared signature")
    p.add_argument("file")
    p.add_argument("--delta", required=True, metavar="SYMS", help="comma separated shared symbols")

    p = add("check-preservation", _cmd_check_preservation,
            help="check that componentwise progression is available")
    p.add_argument("file")
    p.add_argument("--delta1", default="", metavar="SYMS")
    p.add_argument("--delta2", required=True, metavar="SYMS")
    p.add_argument("--action", metavar="ACT", help="also check the per-action conditions")

    p = add("project", _cmd_project, help="evaluate a query after a sequence of actions")
    p.add_argument("file")
    p.add_argument("--actions", required=True, metavar="ACTS", help='semicolon separated, e.g. "a1; a2"')
    p.add_argument("--query", required=True, metavar="FORMULA")
    _add_oracle_flags(p)

    p = add("executable", _cmd_executable, help="check each action's precondition along a sequence")
    p.add_argument("file")
    p.add_argument("--actions", required=True, metavar="ACTS")
    _add_oracle_flags(p)

    p = sub.add_parser(
        "oracle", help="bounded entailment, equivalence, satisfiability, inseparability"
    )
    osub = p.add_subparsers(dest="mode", required=True)

    def oadd(name: str, **kw) -> argparse.ArgumentParser:
        q = osub.add_parser(name, **kw)
        q.set_defaults(fn=_cmd_oracle)
        q.add_argument("--json", action="store_true", help="machine readable report")
        _add_oracle_flags(q)
        return q

    q = oadd("entails", help="does the theory entail the query")
    q.add_argument("file")
    q.add_argument("--query", required=True, metavar="FORMULA")

    q = oadd("equiv", help="are two theories equivalent")
    q.add_argument("file")
    q.add_argument("file2")

    q = oadd("sat", help="is the theory satisfiable")
    q.add_argument("file")

    q = oadd("insep", help="are two theories inseparable over a shared signature")
    q.add_argument("file")
    q.add_argument("file2")
    q.add_argument("--delta", required=True, metavar="SYMS")
    q.add_argument("--depth", type=int, default=None, metavar="N",
                   help="depth of the short separating sentences tried first (default 3)")

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, rep, lines = args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except SitcalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a defect, not a verdict: keep it off exit code 1
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    try:
        if getattr(args, "json", False):
            print(json.dumps(rep, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away; the verdict stands.  Point stdout at devnull
        # so the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
