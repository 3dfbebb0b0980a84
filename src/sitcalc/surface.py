"""Concrete syntax: parse and print theory files, formulas and action terms.

One format serves both directions.  Declarations introduce the signature,
blocks carry the content:

    object A, B, C;
    static Block/1;
    fluent On/2, Clear/1;
    action move/3;

    ssa Clear(x) {
      pos: exists y, z a == move(y, x, z) & On(y, x);
      neg: exists y, z a == move(y, z, x);
    }

    poss move(x, y, z): Clear(x) & Clear(z);

    init {
      On(A, B);
      forall x Block(x);
    }

Fluent atoms are written without a situation argument; a trailing prime
(On'(x, y)) selects the next stage where that is allowed.  Standalone
theory files replace the ssa/poss/init blocks with a single `theory { ... }`
block whose sentences may mix stages.  Comments run from // to end of line.

render is the inverse: for every parsed input the rendered text reparses to
a structurally equal object, and rendering is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .bat import BAT, EffectDisjunct, GroundAction, Precondition, SSA
from .errors import ParseError, SourceSpan
from .forgetting import GroundAtom
from .syntax import (
    FALSE,
    TRUE,
    ActionTerm,
    And,
    Const,
    Exists,
    Falsity,
    FluentAtom,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    ObjEq,
    ObjTerm,
    Or,
    Signature,
    Stage,
    StaticAtom,
    Theory,
    Truth,
    Var,
    free_vars,
)

# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*'?)"
    r"|(?P<nat>\d+)"
    r"|(?P<op><->|->|==|!=|[!&|(),;:{}/])"
)

_RESERVED = frozenset(
    {
        "object", "static", "fluent", "action",
        "ssa", "poss", "init", "theory", "pos", "neg",
        "forall", "exists", "true", "false",
    }
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | nat | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str, path: str) -> list[_Token]:
    toks: list[_Token] = []
    line, bol = 1, 0
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(
                f"unexpected character {text[i]!r}", SourceSpan(path, line, i - bol + 1)
            )
        kind = m.lastgroup or ""
        s = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Token(kind, s, line, i - bol + 1))
        if "\n" in s:
            line += s.count("\n")
            bol = i + s.rindex("\n") + 1
        i = m.end()
    toks.append(_Token("eof", "end of input", line, len(text) - bol + 1))
    return toks


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str, path: str, sig: Optional[Signature] = None) -> None:
        self.path = path
        self.toks = _tokenize(text, path)
        self.i = 0
        self.objects: set[str] = set()
        self.statics: dict[str, int] = {}
        self.fluents: dict[str, int] = {}
        self.actions: dict[str, int] = {}
        if sig is not None:
            self.objects |= set(sig.objects)
            self.statics.update(dict(sig.statics))
            self.fluents.update(dict(sig.fluents))
            self.actions.update(dict(sig.actions))
        self.spans: list[tuple[str, SourceSpan]] = []
        # formula context, toggled per block
        self.stage_default = Stage.NOW
        self.allow_next = True

    # --- token plumbing

    def _peek(self) -> _Token:
        return self.toks[self.i]

    def _next(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def _at(self, text: str) -> bool:
        return self.toks[self.i].text == text

    def _accept(self, text: str) -> bool:
        if self._at(text):
            self.i += 1
            return True
        return False

    def _expect(self, text: str) -> _Token:
        t = self._peek()
        if t.text != text:
            self._err(f"expected {text!r}, found {t.text!r}", t)
        return self._next()

    def _span(self, t: _Token) -> SourceSpan:
        return SourceSpan(self.path, t.line, t.col)

    def _err(self, msg: str, t: Optional[_Token] = None) -> None:
        raise ParseError(msg, self._span(t if t is not None else self._peek()))

    def _ident(self, what: str) -> _Token:
        t = self._peek()
        if t.kind != "ident":
            self._err(f"expected {what}, found {t.text!r}", t)
        return self._next()

    def _declared(self, name: str) -> bool:
        return (
            name in self.objects
            or name in self.statics
            or name in self.fluents
            or name in self.actions
        )

    # --- declarations

    def _declaration(self) -> None:
        kind = self._next().text
        while True:
            t = self._ident(f"a {kind} name")
            name = t.text
            if name in _RESERVED:
                self._err(f"{name!r} is a reserved word", t)
            if name.endswith("'"):
                self._err("declared names cannot carry a prime", t)
            if self._declared(name):
                self._err(f"{name} is already declared", t)
            if kind == "object":
                self.objects.add(name)
            else:
                self._expect("/")
                n = self._peek()
                if n.kind != "nat":
                    self._err(f"expected an arity after {name}/", n)
                self._next()
                getattr(self, kind + "s")[name] = int(n.text)
            self.spans.append((f"{kind}:{name}", self._span(t)))
            if not self._accept(","):
                break
        self._expect(";")

    # --- terms

    def _binder(self, what: str, taken: set[str]) -> Var:
        t = self._ident(what)
        name = t.text
        if name in _RESERVED:
            self._err(f"{name!r} is a reserved word", t)
        if name.endswith("'"):
            self._err("variables cannot carry a prime", t)
        if self._declared(name):
            self._err(f"{name} is declared and cannot be used as a variable", t)
        if name in taken:
            self._err(f"repeated variable {name}", t)
        taken.add(name)
        return Var(name)

    def _term_from(self, t: _Token) -> ObjTerm:
        name = t.text
        if name in _RESERVED:
            self._err(f"{name!r} is a reserved word", t)
        if name.endswith("'"):
            self._err("terms cannot carry a prime", t)
        if name in self.objects:
            return Const(name)
        if name in self.statics or name in self.fluents or name in self.actions:
            self._err(f"{name} names a predicate or action and cannot be a term", t)
        return Var(name)

    def _term(self) -> ObjTerm:
        return self._term_from(self._ident("a term"))

    # --- formulas
    #
    # formula := iff; iff := impl [<-> iff]; impl := or [-> impl]
    # or := and (| and)*; and := unary (& unary)*
    # unary := ! unary | quantifier | true | false | ( formula ) | atom
    # A quantifier binds a comma-separated variable list and takes a unary
    # body, so chains like `forall x exists y R(x, y)` need no parentheses
    # while binary bodies do.

    def _formula(self) -> Formula:
        lhs = self._impl()
        if self._accept("<->"):
            return Iff(lhs, self._formula())
        return lhs

    def _impl(self) -> Formula:
        lhs = self._or()
        if self._accept("->"):
            return Implies(lhs, self._impl())
        return lhs

    def _or(self) -> Formula:
        f = self._and()
        while self._accept("|"):
            f = Or(f, self._and())
        return f

    def _and(self) -> Formula:
        f = self._unary()
        while self._accept("&"):
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        t = self._peek()
        if t.text == "!":
            self._next()
            return Not(self._unary())
        if t.text in ("forall", "exists"):
            return self._quantifier()
        if t.text == "true":
            self._next()
            return TRUE
        if t.text == "false":
            self._next()
            return FALSE
        if t.text == "(":
            self._next()
            f = self._formula()
            self._expect(")")
            return f
        return self._atom()

    def _quantifier(self) -> Formula:
        kw = self._next().text
        taken: set[str] = set()
        vs = [self._binder("a variable", taken)]
        while self._accept(","):
            vs.append(self._binder("a variable", taken))
        body = self._unary()
        ctor = Forall if kw == "forall" else Exists
        for v in reversed(vs):
            body = ctor(v, body)
        return body

    def _operand(self) -> tuple[_Token, Optional[list[ObjTerm]]]:
        t = self._ident("a formula")
        args: Optional[list[ObjTerm]] = None
        if self._at("("):
            self._next()
            args = []
            if not self._at(")"):
                args.append(self._term())
                while self._accept(","):
                    args.append(self._term())
            self._expect(")")
        return t, args

    def _atom(self) -> Formula:
        t, args = self._operand()
        if self._at("==") or self._at("!="):
            op = self._next().text
            rt, rargs = self._operand()
            for side, sargs in ((t, args), (rt, rargs)):
                if sargs is not None:
                    self._err("an application cannot be an equality operand", side)
            eq = ObjEq(self._term_from(t), self._term_from(rt))
            return Not(eq) if op == "!=" else eq

        name, primed = t.text, t.text.endswith("'")
        base = name[:-1] if primed else name
        got = tuple(args or [])
        if base in self.fluents:
            if primed and not self.allow_next:
                self._err("a next-stage atom is not allowed here", t)
            ar = self.fluents[base]
            if ar != len(got):
                self._err(f"{base} declared with arity {ar}, used with {len(got)}", t)
            stage = Stage.NEXT if primed else self.stage_default
            return FluentAtom(base, got, stage)
        if primed:
            self._err(f"{base} is not a declared fluent", t)
        if name in self.statics:
            ar = self.statics[name]
            if ar != len(got):
                self._err(f"{name} declared with arity {ar}, used with {len(got)}", t)
            return StaticAtom(name, got)
        if name in self.actions:
            self._err(f"action {name} cannot be used as a formula", t)
        if name in self.objects:
            self._err(f"constant {name} is not a formula", t)
        self._err(f"undeclared symbol {name}", t)
        raise AssertionError  # _err always raises

    def _block_formula(
        self,
        stage_default: Stage,
        allow_next: bool,
        scope: frozenset[str],
        where: str,
    ) -> Formula:
        start = self._peek()
        self.stage_default = stage_default
        self.allow_next = allow_next
        f = self._formula()
        loose = free_vars(f) - scope
        if loose:
            self._err(
                f"free variables {', '.join(sorted(loose))} in {where}"
                " (quantify them, or declare missing constants)",
                start,
            )
        return f

    # --- blocks

    def _ssa_block(self, seen: set[str]) -> SSA:
        self._expect("ssa")
        t = self._ident("a fluent name")
        name = t.text
        if name not in self.fluents:
            self._err(f"{name} is not a declared fluent", t)
        if name in seen:
            self._err(f"duplicate ssa block for {name}", t)
        seen.add(name)
        self.spans.append((f"ssa:{name}", self._span(t)))
        taken: set[str] = set()
        head: list[Var] = []
        self._expect("(")
        if not self._at(")"):
            head.append(self._binder("a head variable", taken))
            while self._accept(","):
                head.append(self._binder("a head variable", taken))
        self._expect(")")
        if len(head) != self.fluents[name]:
            self._err(
                f"{name} declared with arity {self.fluents[name]}, "
                f"ssa head has {len(head)}",
                t,
            )
        pos: list[EffectDisjunct] = []
        neg: list[EffectDisjunct] = []
        self._expect("{")
        while not self._at("}"):
            side = self._peek()
            if side.text not in ("pos", "neg"):
                self._err("expected 'pos' or 'neg'", side)
            self._next()
            self._expect(":")
            d = self._disjunct(name, head, set(taken))
            self._expect(";")
            (pos if side.text == "pos" else neg).append(d)
        self._expect("}")
        return SSA(name, tuple(head), tuple(pos), tuple(neg))

    def _disjunct(self, fluent: str, head: list[Var], taken: set[str]) -> EffectDisjunct:
        evs: list[Var] = []
        if self._accept("exists"):
            evs.append(self._binder("a quantified variable", taken))
            while self._accept(","):
                evs.append(self._binder("a quantified variable", taken))
        at = self._ident("an action variable")
        if self._declared(at.text) or at.text in _RESERVED or at.text in taken:
            self._err("expected a fresh action variable", at)
        self._expect("==")
        ft = self._ident("an action name")
        if ft.text not in self.actions:
            self._err(f"{ft.text} is not a declared action", ft)
        args: list[ObjTerm] = []
        if self._accept("("):
            if not self._at(")"):
                args.append(self._term())
                while self._accept(","):
                    args.append(self._term())
            self._expect(")")
        ar = self.actions[ft.text]
        if ar != len(args):
            self._err(f"{ft.text} declared with arity {ar}, used with {len(args)}", ft)
        bound = {v.name for v in head} | {v.name for v in evs}
        for a in args:
            if isinstance(a, Var) and a.name not in bound:
                self._err(f"variable {a.name} in the action term is unbound", ft)
        ctx = TRUE
        if self._accept("&"):
            ctx = self._block_formula(
                Stage.NOW, False, frozenset(bound),
                f"the context of the ssa for {fluent}",
            )
        return EffectDisjunct(tuple(evs), ActionTerm(ft.text, tuple(args)), ctx)

    def _poss_block(self, seen: set[str]) -> Precondition:
        self._expect("poss")
        t = self._ident("an action name")
        name = t.text
        if name not in self.actions:
            self._err(f"{name} is not a declared action", t)
        if name in seen:
            self._err(f"duplicate poss block for {name}", t)
        seen.add(name)
        self.spans.append((f"poss:{name}", self._span(t)))
        taken: set[str] = set()
        params: list[Var] = []
        if self._accept("("):
            if not self._at(")"):
                params.append(self._binder("a parameter", taken))
                while self._accept(","):
                    params.append(self._binder("a parameter", taken))
            self._expect(")")
        if len(params) != self.actions[name]:
            self._err(
                f"{name} declared with arity {self.actions[name]}, "
                f"poss has {len(params)} parameters",
                t,
            )
        self._expect(":")
        f = self._block_formula(
            Stage.NOW, False,
            frozenset(v.name for v in params),
            f"the precondition for {name}",
        )
        self._expect(";")
        return Precondition(name, tuple(params), f)

    def _sentence_block(self, kw: str, allow_next: bool, count: int) -> list[Formula]:
        self._expect(kw)
        self._expect("{")
        out: list[Formula] = []
        while not self._at("}"):
            start = self._peek()
            f = self._block_formula(
                Stage.NOW, allow_next, frozenset(), f"a sentence of {kw}"
            )
            self._expect(";")
            self.spans.append((f"{kw}:{count + len(out)}", self._span(start)))
            out.append(f)
        self._expect("}")
        return out

    def _signature(self) -> Signature:
        return Signature(
            objects=frozenset(self.objects),
            statics=frozenset(self.statics.items()),
            fluents=frozenset(self.fluents.items()),
            actions=frozenset(self.actions.items()),
        )


def parse_bat(text: str, path: str = "<input>") -> BAT:
    """Parse a full theory file with ssa/poss/init blocks."""
    p = _Parser(text, path)
    ssas: list[SSA] = []
    pres: list[Precondition] = []
    init: list[Formula] = []
    seen_ssa: set[str] = set()
    seen_poss: set[str] = set()
    while not p._at("end of input"):
        t = p._peek()
        if t.text in ("object", "static", "fluent", "action"):
            p._declaration()
        elif t.text == "ssa":
            ssas.append(p._ssa_block(seen_ssa))
        elif t.text == "poss":
            pres.append(p._poss_block(seen_poss))
        elif t.text == "init":
            init.extend(p._sentence_block("init", False, len(init)))
        elif t.text == "theory":
            p._err("a theory block is not allowed here; use init", t)
        else:
            p._err(f"expected a declaration or block, found {t.text!r}", t)
    return BAT(
        p._signature(), Theory(tuple(init)), tuple(pres), tuple(ssas), tuple(p.spans)
    )


def parse_theory(text: str, path: str = "<input>") -> tuple[Signature, Theory]:
    """Parse a standalone theory file: declarations plus theory blocks."""
    p = _Parser(text, path)
    axioms: list[Formula] = []
    while not p._at("end of input"):
        t = p._peek()
        if t.text in ("object", "static", "fluent", "action"):
            p._declaration()
        elif t.text == "theory":
            axioms.extend(p._sentence_block("theory", True, len(axioms)))
        elif t.text in ("ssa", "poss", "init"):
            p._err(f"a {t.text} block is not allowed in a theory file", t)
        else:
            p._err(f"expected a declaration or theory block, found {t.text!r}", t)
    return p._signature(), Theory(tuple(axioms))


def parse_formula(
    text: str,
    env: Signature,
    stage_default: Stage = Stage.NOW,
    path: str = "<formula>",
    allow_free: bool = False,
) -> Formula:
    """Parse one formula against an existing signature.

    Unprimed fluent atoms get stage_default; primed ones are next-stage.
    """
    p = _Parser(text, path, env)
    p.stage_default = stage_default
    f = p._formula()
    t = p._peek()
    if t.kind != "eof":
        p._err(f"unexpected trailing input {t.text!r}", t)
    if not allow_free and free_vars(f):
        raise ParseError(
            f"free variables {', '.join(sorted(free_vars(f)))} in formula"
            " (quantify them, or declare missing constants)",
            SourceSpan(path, 1, 1),
        )
    return f


def parse_ground_action(text: str, env: Signature, path: str = "<action>") -> GroundAction:
    """Parse a ground action application such as move(A, B, C)."""
    p = _Parser(text, path, env)
    t = p._ident("an action name")
    if t.text not in p.actions:
        p._err(f"{t.text} is not a declared action", t)
    args: list[str] = []
    if p._accept("("):
        if not p._at(")"):
            while True:
                a = p._ident("a constant")
                if a.text not in p.objects:
                    p._err(f"{a.text} is not a declared constant", a)
                args.append(a.text)
                if not p._accept(","):
                    break
        p._expect(")")
    ar = p.actions[t.text]
    if ar != len(args):
        p._err(f"{t.text} declared with arity {ar}, used with {len(args)}", t)
    e = p._peek()
    if e.kind != "eof":
        p._err(f"unexpected trailing input {e.text!r}", e)
    return GroundAction(t.text, tuple(args))


def parse_ground_atom(text: str, env: Signature, path: str = "<atom>") -> GroundAtom:
    """Parse a ground atom such as Clear(B) or On'(A, C); statics have no stage."""
    p = _Parser(text, path, env)
    t = p._ident("a predicate name")
    name, primed = t.text, t.text.endswith("'")
    base = name[:-1] if primed else name
    if base in p.fluents:
        stage: Optional[Stage] = Stage.NEXT if primed else Stage.NOW
        ar = p.fluents[base]
    elif not primed and base in p.statics:
        stage = None
        ar = p.statics[base]
    else:
        p._err(f"{base} is not a declared fluent or static predicate", t)
    args: list[str] = []
    if p._accept("("):
        if not p._at(")"):
            while True:
                a = p._ident("a constant")
                if a.text not in p.objects:
                    p._err(f"{a.text} is not a declared constant", a)
                args.append(a.text)
                if not p._accept(","):
                    break
        p._expect(")")
    if ar != len(args):
        p._err(f"{base} declared with arity {ar}, used with {len(args)}", t)
    e = p._peek()
    if e.kind != "eof":
        p._err(f"unexpected trailing input {e.text!r}", e)
    return GroundAtom(base, tuple(args), stage)


# ---------------------------------------------------------------------------
# rendering
#
# Precedences: <-> 1, -> 2, | 3, & 4, everything tight 5.  The implication
# connectives are right-associative, the lattice connectives associate left.

def _rt(t: ObjTerm) -> str:
    return t.name


def _app(name: str, args: tuple[ObjTerm, ...]) -> str:
    return name + (f"({', '.join(_rt(a) for a in args)})" if args else "")


def _fmt(f: Formula, min_prec: int) -> str:
    s, p = _fmt1(f)
    return f"({s})" if p < min_prec else s


def _qbody(f: Formula) -> str:
    if isinstance(f, ObjEq) or (isinstance(f, Not) and isinstance(f.body, ObjEq)):
        return f"({_fmt(f, 0)})"
    return _fmt(f, 5)


def _fmt1(f: Formula) -> tuple[str, int]:
    match f:
        case Truth():
            return "true", 5
        case Falsity():
            return "false", 5
        case FluentAtom(name, args, stage):
            prime = "'" if stage == Stage.NEXT else ""
            return _app(name + prime, args), 5
        case StaticAtom(pred, args):
            return _app(pred, args), 5
        case ObjEq(l, r):
            return f"{_rt(l)} == {_rt(r)}", 5
        case Not(ObjEq(l, r)):
            return f"{_rt(l)} != {_rt(r)}", 5
        case Not(body):
            return "!" + _fmt(body, 5), 5
        case And(l, r):
            return f"{_fmt(l, 4)} & {_fmt(r, 5)}", 4
        case Or(l, r):
            return f"{_fmt(l, 3)} | {_fmt(r, 4)}", 3
        case Implies(l, r):
            return f"{_fmt(l, 3)} -> {_fmt(r, 2)}", 2
        case Iff(l, r):
            return f"{_fmt(l, 2)} <-> {_fmt(r, 1)}", 1
        case Forall(v, body) | Exists(v, body):
            ctor = type(f)
            kw = "forall" if ctor is Forall else "exists"
            vs = [v.name]
            while isinstance(body, ctor):
                vs.append(body.var.name)
                body = body.body
            return f"{kw} {', '.join(vs)} {_qbody(body)}", 5
    raise TypeError(f"cannot render {f!r}")


def _render_disjunct(d: EffectDisjunct) -> str:
    parts = []
    if d.exists_vars:
        parts.append("exists " + ", ".join(v.name for v in d.exists_vars))
    parts.append("a == " + _app(d.action.fn, d.action.args))
    if d.context != TRUE:
        parts.append("& " + _fmt(d.context, 0))
    return " ".join(parts)


def _decl_lines(sig: Signature) -> list[str]:
    out = []
    if sig.objects:
        out.append("object " + ", ".join(sorted(sig.objects)) + ";")
    for kw, entries in (
        ("static", sig.statics),
        ("fluent", sig.fluents),
        ("action", sig.actions),
    ):
        if entries:
            out.append(kw + " " + ", ".join(f"{n}/{a}" for n, a in sorted(entries)) + ";")
    return out


def _render_bat(b: BAT) -> str:
    lines = _decl_lines(b.sig)
    for s in b.ssas:
        lines.append("")
        lines.append(f"ssa {s.fluent}({', '.join(v.name for v in s.head_vars)}) {{")
        for d in s.pos:
            lines.append(f"  pos: {_render_disjunct(d)};")
        for d in s.neg:
            lines.append(f"  neg: {_render_disjunct(d)};")
        lines.append("}")
    if b.preconditions:
        lines.append("")
    for pre in b.preconditions:
        params = ", ".join(v.name for v in pre.params)
        lines.append(f"poss {pre.action}({params}): {_fmt(pre.formula, 0)};")
    lines.append("")
    lines.append("init {")
    for ax in b.init.axioms:
        lines.append(f"  {_fmt(ax, 0)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_theory_file(sig: Signature, t: Theory) -> str:
    """A standalone reparseable theory file for the given signature."""
    lines = _decl_lines(sig)
    lines.append("")
    lines.append("theory {")
    for ax in t.axioms:
        lines.append(f"  {_fmt(ax, 0)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render(x: Union[BAT, Theory, Formula]) -> str:
    """Deterministic concrete syntax; parsing it back yields an equal object."""
    if isinstance(x, BAT):
        return _render_bat(x)
    if isinstance(x, Theory):
        return "".join(_fmt(ax, 0) + ";\n" for ax in x.axioms)
    return _fmt(x, 0)
