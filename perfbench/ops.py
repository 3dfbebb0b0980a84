"""Turn generated specs into timed operations on sitcalc, with their checks.

`prepare` does the set-up an operation needs (parsing, and for decide and
separate also progression or forgetting of the inputs) and returns an Op.
Op.run is the timed call.  Op.check judges its result with the reference
evaluator in ref.py and the facts the generator recorded, never with the
sitcalc function that was timed.

Every sitcalc function is looked up on the package module `sc` at call
time, so a tracer that rebinds module attributes sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

import ref
import gen
from gen import Spec

# An operation that runs past this many seconds ends in BudgetExceeded and
# counts as failed.
OP_TIME_LIMIT = 20.0


@dataclass
class Op:
    """A prepared operation.  size describes the input for the per-operation
    record; progress operations parse inside the timed call, so theirs is
    taken from the result instead."""

    kind: str
    expect: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]  # result -> (correct, verdict kind)
    size: dict = field(default_factory=dict)
    # Nodes of the theories sitcalc produced in set-up that result_nodes
    # counts: progressed theories on decide, the forgotten bundled pair on
    # separate.
    produced_nodes: int = 0


def _text(sc, name_or_text: str) -> str:
    if name_or_text.endswith(".bat") and "\n" not in name_or_text:
        return sc.corpus_path(name_or_text).read_text()
    return name_or_text


def _cfg(sc, spec: Spec):
    return sc.OracleConfig(max_extra=spec.max_extra, una=spec.una, time_limit=OP_TIME_LIMIT)


def _axioms(t) -> list:
    return [ref.from_sitcalc(ax) for ax in t.axioms]


def _size(spec: Spec, theories, sig) -> dict:
    return {
        "axioms": sum(len(t.axioms) for t in theories),
        "nodes": sum(ref.nodes(t) for t in theories),
        "constants": len(sig.objects),
        "max_extra": spec.max_extra,
        "una": spec.una,
    }


def _agrees(m: ref.Model, world) -> bool:
    """Every ground atom over the world's constants has the world's value in m."""
    for key, tup in world.atoms():
        if m.holds(key, tuple(m.consts[c] for c in tup)) != (tup in world.rels[key]):
            return False
    return True


def _complete_for(axioms: list, world) -> bool:
    """world is the only model of the axioms over its constants: it satisfies
    them, and toggling any single ground atom falsifies one of them."""
    m = world.model()
    if not ref.holds_all(m, axioms):
        return False
    pinned = set()
    for f in axioms:
        lit = ref.ground_literal(f)
        if lit is not None:
            pinned.add((lit[0], lit[1]))
    for key, tup in world.atoms():
        if (key, tup) in pinned:
            continue
        if ref.holds_all(m.toggled(key, tup), axioms):
            return False
    return True


def _kind(v) -> str:
    return type(v).__name__


# ---------------------------------------------------------------------------
# progress: parse, progress through the moves, render; on the blocks-and-heap
# theories also decompose, check preservation and progress componentwise


def _prepare_progress(sc, spec: Spec) -> Op:
    text = spec.text
    actions = spec.actions
    componentwise = spec.kind == "stacks"
    delta1 = sc.Signature()
    delta2 = sc.Signature(statics=frozenset({("Block", 1)}))

    def run():
        b0 = sc.parse_bat(text, "<generated>")
        b = b0
        for a in actions:
            alpha = sc.parse_ground_action(a, b.sig)
            b = replace(b, init=sc.progress(b, alpha).theory)
        out = sc.render(replace(b, spans=()))
        comp = None
        if componentwise:
            decomp = sc.syntactic_decompose(b0.init, delta2)
            partition = sc.group_ssas(b0, delta1)
            report = sc.check_local_effect_preservation(b0, delta1, delta2, partition, decomp)
            alpha = sc.parse_ground_action(actions[0], b0.sig)
            comp = (decomp, report, sc.progress_componentwise(b0, decomp, partition, alpha, delta1))
        return b0, b.init, out, comp

    def check(result):
        b0, t, out, comp = result
        axioms = _axioms(t)
        init_lines = out.split("init {\n", 1)[-1].count(";\n")
        ok = init_lines == len(axioms)
        if spec.kind == "ground_world":
            ok = ok and _complete_for(axioms, spec.world)
        else:
            ok = ok and ref.holds_all(spec.world.model(), axioms)
            decomp, report, after = comp
            ok = (ok and decomp is not None and len(decomp.components) >= 2 and report.passed
                  and ref.holds_all(spec.aux["start"].model(), [f for c in decomp.components for f in _axioms(c)])
                  and ref.holds_all(spec.aux["first"].model(), [f for c in after.components for f in _axioms(c)]))
        return ok, "progressed" if ok else "wrong-theory"

    return Op(spec.kind, spec.expect, run, check)


# ---------------------------------------------------------------------------
# decide


def _model_ok(v, t, world, complete: bool, q=None) -> bool:
    """The verdict's model satisfies t, falsifies q if given, and agrees with
    the world when the world is the theory's only model."""
    m = ref.from_finite_model(v.model)
    if not ref.holds_all(m, _axioms(t)):
        return False
    if q is not None and ref.holds(m, ref.from_sitcalc(q)):
        return False
    return not complete or _agrees(m, world)


def _prepare_decide(sc, spec: Spec) -> Op:
    cfg = _cfg(sc, spec)
    text = _text(sc, spec.text)
    complete = spec.kind.startswith("gw_")
    kind = spec.kind.split("_", 1)[1]
    produced = 0
    if spec.kind == "corpus_entails":
        sig, t = sc.parse_theory(text, "<generated>")
    else:
        b = sc.parse_bat(text, "<generated>")
        sig = b.sig
        alphas = [sc.parse_ground_action(a, sig) for a in spec.actions]
        t = b.init
        if kind not in ("project", "executable"):
            t = sc.progress_sequence(b, alphas)
            produced = ref.nodes(t)
    q = sc.parse_formula(spec.query, sig) if spec.query else None
    inputs = [t]

    if kind == "entails":
        def run():
            return sc.entails(t, q, cfg)

        def check(v):
            ok = _kind(v) == spec.expect
            if ok and spec.expect == "Countermodel":
                ok = _model_ok(v, t, spec.world, complete, q)
            return ok, _kind(v)

    elif kind == "equivalent":
        if spec.expect == "EquivalentFinite":
            axioms = list(t.axioms)
            if "shuffle" in spec.aux:
                random.Random(spec.aux["shuffle"]).shuffle(axioms)
            else:
                axioms.reverse()
            t2 = sc.Theory(tuple(axioms))
        else:
            key, tup = spec.aux["flip"]
            lit = ref.atom(key[0], *tup, stage=key[1])
            drop = {lit, ref.neg(lit)}
            wrong = ref.neg(lit) if spec.world.has(key[0], *tup) else lit
            flipped = sc.parse_formula(ref.text(wrong), sig)
            t2 = sc.Theory(tuple(ax for ax in t.axioms if ref.from_sitcalc(ax) not in drop) + (flipped,))
        inputs.append(t2)

        def run():
            return sc.equivalent(t, t2, cfg)

        def check(v):
            ok = _kind(v) == spec.expect
            if ok and spec.expect == "NotEquivalent":
                one, two = (t, t2) if v.direction == "1!=>2" else (t2, t)
                m = ref.from_finite_model(v.model)
                ok = ref.holds_all(m, _axioms(one)) and not ref.holds_all(m, _axioms(two))
            return ok, _kind(v)

    elif kind == "satisfiable":
        if spec.expect == "UnsatFinite":
            t = sc.Theory(tuple(t.axioms) + (q,))
            inputs = [t]

        def run():
            return sc.satisfiable(t, cfg)

        def check(v):
            ok = _kind(v) == spec.expect
            if ok and spec.expect == "Sat":
                ok = _model_ok(v, t, spec.world, complete)
            return ok, _kind(v)

    elif kind == "project":
        def run():
            return sc.project(b, alphas, q, cfg)

        def check(v):
            ok = _kind(v) == spec.expect
            if ok and spec.expect == "Countermodel":
                m = ref.from_finite_model(v.model)
                ok = not ref.holds(m, ref.from_sitcalc(q)) and (not complete or _agrees(m, spec.world))
            return ok, _kind(v)

    elif kind == "executable":
        def run():
            return sc.executable(b, alphas, cfg)

        def check(r):
            got = [_kind(s.verdict) == "EntailedFinite" for s in r.steps]
            want = [True] * len(alphas)
            if spec.expect == "not-executable":
                want[-1] = False
            kind_ = "executable" if all(got) else "not-executable"
            return got == want, kind_

    else:
        raise ValueError(f"unknown decide kind {spec.kind}")

    return Op(spec.kind, spec.expect, run, check, _size(spec, inputs, sig), produced)


# ---------------------------------------------------------------------------
# separate


def _prepare_separate(sc, spec: Spec) -> Op:
    cfg = _cfg(sc, spec)
    sig1, t1 = sc.parse_theory(_text(sc, spec.text), "<generated>")
    produced = 0
    if spec.kind == "verify_forgetting":
        g = sc.parse_ground_atom(spec.query, sig1)
        if spec.aux.get("strengthen"):
            r = sc.Theory(tuple(t1.axioms) + (g.to_formula(),))
        else:
            r = sc.forget_atom(t1, g)

        def run():
            return sc.verify_forgetting(t1, g, r, cfg)

        def check(v):
            ok = _kind(v) == spec.expect
            if ok and spec.expect == "ForgettingMismatch":
                m = ref.from_finite_model(v.model)
                tup = tuple(m.consts[c] for c in g.args)
                reachable = (ref.holds_all(m, _axioms(t1))
                             or ref.holds_all(m.toggled((g.pred, ""), tup), _axioms(t1)))
                admitted = ref.holds_all(m, _axioms(r))
                ok = v.direction == "result-too-strong" and reachable and not admitted
            return ok, _kind(v)

        return Op(spec.kind, spec.expect, run, check, _size(spec, [t1, r], sig1), produced)

    sig2, t2 = sc.parse_theory(_text(sc, spec.text2), "<generated>")
    if spec.kind == "corpus_insep":
        g = sc.parse_ground_atom(spec.query, sig1)
        t1, t2 = sc.forget_atom(t1, g), sc.forget_atom(t2, g)
        produced = ref.nodes(t1) + ref.nodes(t2)
        delta = sc.Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
    else:
        delta = sc.Signature(objects=frozenset(gen.SEP_CONSTS), statics=frozenset({("P", 1), ("Q", 1)}))

    def run():
        return sc.check_inseparable(t1, t2, delta, cfg)

    def check(v):
        kind = _kind(v)
        if spec.expect == "Separated" and kind == "Unknown":
            return True, kind  # reduct sets differ, but no witness within budget
        ok = kind == spec.expect
        if ok and kind == "Separated":
            w = ref.from_sitcalc(v.witness)
            ok = (v.entailed_by == spec.aux["entailed_by"] and ref.names(w) <= delta.names()
                  and ref.holds(spec.world, w))
        return ok, kind

    return Op(spec.kind, spec.expect, run, check, _size(spec, [t1, t2], sig1 | sig2), produced)


def prepare(sc, workload: str, spec: Spec) -> Op:
    return {"progress": _prepare_progress, "decide": _prepare_decide, "separate": _prepare_separate}[workload](sc, spec)
