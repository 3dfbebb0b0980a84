"""Reference parser: the surface parser as it was before token texts came
from one regex pass, kept whole so the tests can compare the two.

Every token is a _Token carrying its kind, text, line and column, made by
one finditer pass that raises at the first bad character.  Formulas are
read by a recursive-descent cascade, one method per precedence level, each
calling the next tighter one:

    formula := impl [<-> formula]; impl := or [-> impl]
    or := and (| and)*; and := unary (& unary)*
    unary := ! unary | quantifier | true | false | ( formula ) | atom

It costs five interpreter frames per nesting level, so it fails on deep
inputs that surface reads.  The parse_* functions here have the signatures
and results of surface's, spans and errors included.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional, TypeVar

from sitcalc.bat import BAT, EffectDisjunct, GroundAction, Precondition, SSA
from sitcalc.errors import ParseError, SourceSpan
from sitcalc.forgetting import GroundAtom
from sitcalc.syntax import (
    FALSE,
    TRUE,
    ActionTerm,
    And,
    Const,
    Exists,
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
    r"|(?P<bad>.)",
    re.DOTALL,
)

_RESERVED = frozenset(
    {
        "object", "static", "fluent", "action",
        "ssa", "poss", "init", "theory", "pos", "neg",
        "forall", "exists", "true", "false",
    }
)


_T = TypeVar("_T")


class _Token(NamedTuple):
    kind: str  # ident | nat | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str, path: str) -> list[_Token]:
    toks: list[_Token] = []
    line, bol = 1, 0
    for m in _TOKEN_RE.finditer(text):  # the catch-all group leaves no gaps
        kind, s = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in s:
                line += s.count("\n")
                bol = m.start() + s.rindex("\n") + 1
        elif kind == "bad":
            raise ParseError(
                f"unexpected character {s!r}", SourceSpan(path, line, m.start() - bol + 1)
            )
        elif kind != "comment":
            toks.append(_Token(kind, s, line, m.start() - bol + 1))
    toks.append(_Token("eof", "end of input", line, len(text) - bol + 1))
    return toks


# ---------------------------------------------------------------------------
# parser


class ReferenceParser:
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

    def _list(self, item: Callable[[], _T], close: Optional[str] = None) -> list[_T]:
        """Comma-separated items, then the closing token if one is given.

        Without a closing token the list has at least one item; with one it
        may be empty.
        """
        out: list[_T] = []
        if close is None or not self._at(close):
            out.append(item())
            while self._accept(","):
                out.append(item())
        if close is not None:
            self._expect(close)
        return out

    def _end(self) -> None:
        t = self._peek()
        if t.kind != "eof":
            self._err(f"unexpected trailing input {t.text!r}", t)

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

    def _constant(self) -> str:
        t = self._ident("a constant")
        if t.text not in self.objects:
            self._err(f"{t.text} is not a declared constant", t)
        return t.text

    # --- formulas

    def _formula(self):
        lhs = self._impl()
        if self._accept("<->"):
            return Iff(lhs, self._formula())
        return lhs

    def _impl(self):
        lhs = self._or()
        if self._accept("->"):
            return Implies(lhs, self._impl())
        return lhs

    def _or(self):
        f = self._and()
        while self._accept("|"):
            f = Or(f, self._and())
        return f

    def _and(self):
        f = self._unary()
        while self._accept("&"):
            f = And(f, self._unary())
        return f

    def _unary(self):
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
        return self._atom(self._ident("a formula"))

    def _quantifier(self):
        kw = self._next().text
        taken = set()
        vs = self._list(lambda: self._binder("a variable", taken))
        body = self._unary()
        ctor = Forall if kw == "forall" else Exists
        for v in reversed(vs):
            body = ctor(v, body)
        return body

    def _args(self) -> Optional[list[ObjTerm]]:
        return self._list(self._term, ")") if self._accept("(") else None

    def _atom(self, t: _Token) -> Formula:
        if t.kind != "ident":
            self._err(f"expected a formula, found {t.text!r}", t)
        args = self._args()
        if self._at("==") or self._at("!="):
            op = self._next().text
            rt = self._ident("a formula")
            rargs = self._args()
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
        self._expect("(")
        head = self._list(lambda: self._binder("a head variable", taken), ")")
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
            evs = self._list(lambda: self._binder("a quantified variable", taken))
        at = self._ident("an action variable")
        if self._declared(at.text) or at.text in _RESERVED or at.text in taken:
            self._err("expected a fresh action variable", at)
        self._expect("==")
        ft = self._ident("an action name")
        if ft.text not in self.actions:
            self._err(f"{ft.text} is not a declared action", ft)
        args = self._list(self._term, ")") if self._accept("(") else []
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
            params = self._list(lambda: self._binder("a parameter", taken), ")")
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
    p = ReferenceParser(text, path)
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
    p = ReferenceParser(text, path)
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
    p = ReferenceParser(text, path, env)
    p.stage_default = stage_default
    f = p._formula()
    p._end()
    if not allow_free and free_vars(f):
        raise ParseError(
            f"free variables {', '.join(sorted(free_vars(f)))} in formula"
            " (quantify them, or declare missing constants)",
            SourceSpan(path, 1, 1),
        )
    return f


def _ground_args(p: ReferenceParser, t: _Token, name: str, ar: int) -> tuple[str, ...]:
    """The constant arguments after the symbol token t, which end the input."""
    args = p._list(p._constant, ")") if p._accept("(") else []
    if ar != len(args):
        p._err(f"{name} declared with arity {ar}, used with {len(args)}", t)
    p._end()
    return tuple(args)


def parse_ground_action(text: str, env: Signature, path: str = "<action>") -> GroundAction:
    """Parse a ground action application such as move(A, B, C)."""
    p = ReferenceParser(text, path, env)
    t = p._ident("an action name")
    if t.text not in p.actions:
        p._err(f"{t.text} is not a declared action", t)
    return GroundAction(t.text, _ground_args(p, t, t.text, p.actions[t.text]))


def parse_ground_atom(text: str, env: Signature, path: str = "<atom>") -> GroundAtom:
    """Parse a ground atom such as Clear(B) or On'(A, C); statics have no stage."""
    p = ReferenceParser(text, path, env)
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
    return GroundAtom(base, _ground_args(p, t, base, ar), stage)
