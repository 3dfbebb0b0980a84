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
theory files replace the ssa/poss/init blocks with `theory { ... }` blocks
whose sentences may mix stages.  A file is a theory file exactly when it has
a theory block.  parse_bat and parse_theory each read one kind, and
parse_file reads either and says which.  Comments run from // to end of
line.

render is the inverse: for every parsed input the rendered text reparses to
a structurally equal object, and rendering is deterministic.

The parser keeps tokens as plain strings, and a token's kind is read off
its text.  The texts come from string methods, not from a regex pass over
the whole text: each comment is cut, each punctuation character is spaced
apart, and str.split cuts the text into chunks at its blanks.  Nearly
every chunk is one token; a regex runs only inside a distinct chunk that
is not, one that holds several tokens or a bad character (x!=y, !On).  The
texts are exactly those that the whole-text regex would find.  A token is
an index into the list of texts, and positions are not kept per token:
the line and column of the tokens that an error names are computed from
the cumulative lengths of the text before them and an index of the
newlines, and a BAT computes those of its spans the same way the first
time they are read.  A bad character anywhere in the text is reported
before any syntax error.  Within one parse each name yields one Const or
Var object, shared by all its occurrences.

A complete ground world is hundreds of init sentences that are each a
ground literal, [!][(]P(c1, ..., ck)[)];.  The sentence loop reads such a
sentence straight into its node when P is a declared predicate of that
arity and each ci a constant that an earlier sentence met; any other
sentence, well-formed or not, goes to the formula parser, so every error
message and position is the formula parser's.  The printer prints an atom
or a negated atom without the dispatch over node kinds that the other
formulas take, and prints the last operand of every node in a loop.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Callable, NoReturn, Optional, TypeVar, Union

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
    literal_atom,
)

# ---------------------------------------------------------------------------
# tokens
#
# _tokens gives the text of each token.  _SCAN, which matches the blanks
# and comments before each token and then the token, places them; its last
# match is the empty one at the end of the text, whose token is _EOF.  "."
# takes a bad character.  A token is its index into toks.  Positions are
# computed only for the tokens that an error or a span that is read names
# (_positions): re.split with the blanks captured too cuts the text into
# triples (the empty text between two matches, the blanks, the token),
# whose cumulative lengths and a newline index turn a token's offset into a
# line and column.

_BLANKS = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_GOOD = r"[&|(),;:{}/]|!=?|[A-Za-z_][A-Za-z0-9_]*'?|\d+|<->|->|=="
_TOKEN = _GOOD + r"|.|\Z"
_SCAN = re.compile(f"({_BLANKS})({_TOKEN})", re.DOTALL)
_ONE = re.compile(_GOOD)  # fullmatch: a chunk that is one good token
_PIECES = re.compile(_GOOD + "|.", re.DOTALL)  # the tokens within a chunk
_COMMENT = re.compile(r"//[^\n]*")
_PUNCTUATION = [(c, f" {c} ") for c in "&|(),;:{}/"]
# what str.split() takes for a blank besides the four blanks of _BLANKS, in
# an ASCII text; the tokenizer reports each as a bad character
_OTHER_BLANKS = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _tokens(text: str) -> tuple[list[str], set[str]]:
    """The texts of the tokens of text, then _EOF, and the set of those texts
    without _EOF.

    These are the tokens that _SCAN finds.  A "//" always starts a comment,
    as no token but "/" holds a "/", and the blanks before a token take a
    comment first; so cutting every comment up to its newline and splitting
    at blanks and around the punctuation leaves chunks whose tokens are the
    text's.  A chunk that is one token is kept as it is.
    """
    if "//" in text:
        text = _COMMENT.sub("", text)
    for c, spaced in _PUNCTUATION:
        text = text.replace(c, spaced)
    if text.isascii() and not any(c in text for c in _OTHER_BLANKS):
        chunks = text.split()
    else:  # str.split() would take a bad character for a blank
        for c in "\t\r\n":
            text = text.replace(c, " ")
        chunks = [c for c in text.split(" ") if c]
    distinct = set(chunks)
    pieces = {c: _PIECES.findall(c) for c in distinct if not _ONE.fullmatch(c)}
    if pieces:
        chunks = [t for c in chunks for t in pieces.get(c, (c,))]
        distinct = set(chunks)
    chunks.append(_EOF)
    return chunks, distinct


_OPS = frozenset({"<->", "->", "==", "!=", *"!&|(),;:{}/"})
_IDENT_FIRST = frozenset(string.ascii_letters + "_")
_EOF = "end of input"

_RESERVED = frozenset(
    {
        "object", "static", "fluent", "action",
        "ssa", "poss", "init", "theory", "pos", "neg",
        "forall", "exists", "true", "false",
    }
)


_DECLARATIONS = ("object", "static", "fluent", "action")
_UNDECLARED = ("", 0)  # the declaration of a name that has none

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# parser
#
# Each binary token maps to its node, its precedence and whether it groups
# right; the printer reads the same table.  Prefix operators and atoms bind
# tighter than any binary operator (_TIGHT).

_BINARY: dict[str, tuple[type, int, bool]] = {
    "<->": (Iff, 1, True),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "&": (And, 4, False),
}
_NOT_BINARY = (None, 0, False)
_TIGHT = 5
_PREFIX = {"!": Not, "forall": Forall, "exists": Exists}


class _Parser:
    def __init__(self, text: str, path: str, sig: Optional[Signature] = None) -> None:
        self.text = text
        self.path = path
        toks, distinct = _tokens(text)
        self.toks = toks
        self.i = 0  # the next token
        self.idents: set[str] = set()
        bad: list[int] = []
        for t in distinct:
            if t[0] in _IDENT_FIRST:
                self.idents.add(t)
            elif t not in _OPS and not t.isdecimal():  # isdecimal is \d
                bad.append(toks.index(t))
        if bad:  # the first bad character wins over any syntax error
            k = min(bad)
            self._err(f"unexpected character {toks[k]!r}", k)
        # name -> (declaring keyword, arity); names are unique across sorts
        self.decls: dict[str, tuple[str, int]] = {}
        if sig is not None:
            self.decls.update((n, ("object", 0)) for n in sig.objects)
            for kw, pool in (("static", sig.statics), ("fluent", sig.fluents), ("action", sig.actions)):
                self.decls.update((n, (kw, ar)) for n, ar in pool)
        self.terms: dict[str, ObjTerm] = {}  # name -> its one Const or Var
        self.saw_var = False  # _term_at handed out a Var since the flag was cleared
        # (keyword, name or sentence number, token index) of each declared
        # name, block and sentence: a BAT's spans, positioned when read
        self.marks: list[tuple[str, object, int]] = []
        self.allow_next = True  # primed atoms are allowed; toggled per block

    # --- token plumbing

    def _err(self, msg: str, k: Optional[int] = None) -> NoReturn:
        """Raise at token k, by default the next one."""
        at = self.i if k is None else k
        raise ParseError(msg, _positions(self.text, self.path, [at])[0])

    def _accept(self, text: str) -> bool:
        if self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        t = self.toks[self.i]
        if t != text:
            self._err(f"expected {text!r}, found {t!r}")
        self.i += 1

    def _ident(self, what: str) -> int:
        """Read an identifier and return its index."""
        k = self.i
        if self.toks[k] not in self.idents:
            self._err(f"expected {what}, found {self.toks[k]!r}")
        self.i = k + 1
        return k

    def _list(self, item: Callable[[], _T], close: Optional[str] = None) -> list[_T]:
        """Comma-separated items, then the closing token if one is given.

        Without a closing token the list has at least one item; with one it
        may be empty.
        """
        out: list[_T] = []
        if close is None or self.toks[self.i] != close:
            out.append(item())
            while self._accept(","):
                out.append(item())
        if close is not None:
            self._expect(close)
        return out

    def _end(self) -> None:
        t = self.toks[self.i]
        if t != _EOF:
            self._err(f"unexpected trailing input {t!r}")

    def _plain(self, k: int, noun: str) -> str:
        """The identifier at k, which must be neither reserved nor primed."""
        name = self.toks[k]
        if name in _RESERVED:
            self._err(f"{name!r} is a reserved word", k)
        if name.endswith("'"):
            self._err(f"{noun} cannot carry a prime", k)
        return name

    # --- declarations

    def _declaration(self) -> None:
        kind = self.toks[self.i]
        self.i += 1
        self.terms.clear()  # a name declared now is no longer a variable
        while True:
            k = self._ident(f"a {kind} name")
            name = self._plain(k, "declared names")
            if name in self.decls:
                self._err(f"{name} is already declared", k)
            ar = 0
            if kind != "object":
                self._expect("/")
                n = self.toks[self.i]
                if not n.isdecimal():
                    self._err(f"expected an arity after {name}/")
                self.i += 1
                ar = int(n)
            self.decls[name] = (kind, ar)
            self.marks.append((kind, name, k))
            if not self._accept(","):
                break
        self._expect(";")

    # --- terms

    def _binder(self, what: str, taken: set[str]) -> Var:
        k = self._ident(what)
        name = self._plain(k, "variables")
        if name in self.decls:
            self._err(f"{name} is declared and cannot be used as a variable", k)
        if name in taken:
            self._err(f"repeated variable {name}", k)
        taken.add(name)
        return self._term_at(k)  # an undeclared name: a Var

    def _term_at(self, k: int) -> ObjTerm:
        """The term that the identifier at k names, one object per name."""
        name = self.toks[k]
        term = self.terms.get(name)
        if term is None:
            kind = self.decls.get(self._plain(k, "terms"), _UNDECLARED)[0]
            if kind == "object":
                term = Const(name)
            elif kind:
                self._err(f"{name} names a predicate or action and cannot be a term", k)
            else:
                term = Var(name)
            self.terms[name] = term
        if type(term) is Var:
            self.saw_var = True
        return term

    def _term(self) -> ObjTerm:
        return self._term_at(self._ident("a term"))

    def _constant(self) -> str:
        k = self._ident("a constant")
        if self.decls.get(self.toks[k], _UNDECLARED)[0] != "object":
            self._err(f"{self.toks[k]} is not a declared constant", k)
        return self.toks[k]

    # --- formulas
    #
    # formula := unary (binary unary)*, grouped by _BINARY
    # unary := ! unary | (forall|exists) vars unary | true | false | ( formula ) | atom
    #
    # One loop reads this with its own stacks.  "(" is a marker on the operator
    # stack, and "!" and each quantified variable are prefix entries that apply
    # to the next complete unary operand.  A binary token first reduces what
    # binds tighter (or as tightly, if it groups left); ")" reduces down to its
    # marker.  So `forall x exists y R(x, y)` needs no parentheses, while a
    # binary quantifier body does.

    def _formula(self) -> Formula:
        toks = self.toks
        ops: list[str] = []  # "(" markers, prefix and binary tokens
        args: list = []  # binder variables and left operands of binary tokens
        while True:
            t = toks[self.i]
            self.i += 1
            if t == "(" or t == "!":
                ops.append(t)
                continue
            if t == "forall" or t == "exists":
                taken: set[str] = set()
                for v in self._list(lambda: self._binder("a variable", taken)):
                    ops.append(t)
                    args.append(v)
                continue
            f = TRUE if t == "true" else FALSE if t == "false" else self._atom(self.i - 1)
            while True:  # f is a complete unary operand
                while ops and ops[-1] in _PREFIX:
                    op = ops.pop()
                    f = Not(f) if op == "!" else _PREFIX[op](args.pop(), f)
                t = toks[self.i]
                node, prec, right = _BINARY.get(t, _NOT_BINARY)
                while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][1] >= prec + right:
                    f = _BINARY[ops.pop()][0](args.pop(), f)
                if node is not None:
                    self.i += 1
                    ops.append(t)
                    args.append(f)
                    break
                if not ops:
                    return f
                if t != ")":
                    self._err(f"expected ')', found {t!r}")
                self.i += 1
                ops.pop()

    def _args(self) -> Optional[list[ObjTerm]]:
        """The argument list that opens at the next token, or None if none does."""
        toks = self.toks
        i = self.i
        if toks[i] != "(":
            return None
        i += 1
        out: list[ObjTerm] = []
        if toks[i] != ")":
            while True:
                term = self.terms.get(toks[i])
                if type(term) is not Const:  # a variable, a name not met yet, or no term at all
                    self.i = i
                    term = self._term()
                out.append(term)
                if toks[i + 1] != ",":
                    i += 1
                    break
                i += 2
        if toks[i] != ")":
            self._err(f"expected ')', found {toks[i]!r}", i)
        self.i = i + 1
        return out

    def _atom(self, k: int) -> Formula:
        """The atom or equality whose first token, at k, was just read."""
        name = self.toks[k]
        if name not in self.idents:
            self._err(f"expected a formula, found {name!r}", k)
        args = self._args()
        op = self.toks[self.i]
        if op == "==" or op == "!=":
            self.i += 1
            r = self._ident("a formula")
            rargs = self._args()
            for side, sargs in ((k, args), (r, rargs)):
                if sargs is not None:
                    self._err("an application cannot be an equality operand", side)
            eq = ObjEq(self._term_at(k), self._term_at(r))
            return Not(eq) if op == "!=" else eq

        primed = name.endswith("'")
        base = name[:-1] if primed else name
        got = tuple(args) if args else ()
        kind, ar = self.decls.get(base, _UNDECLARED)
        if kind == "fluent":
            if primed and not self.allow_next:
                self._err("a next-stage atom is not allowed here", k)
            if ar != len(got):
                self._err(f"{base} declared with arity {ar}, used with {len(got)}", k)
            return FluentAtom(base, got, Stage.NEXT if primed else Stage.NOW)
        if primed:
            self._err(f"{base} is not a declared fluent", k)
        if kind == "static":
            if ar != len(got):
                self._err(f"{name} declared with arity {ar}, used with {len(got)}", k)
            return StaticAtom(name, got)
        if kind == "action":
            self._err(f"action {name} cannot be used as a formula", k)
        if kind == "object":
            self._err(f"constant {name} is not a formula", k)
        self._err(f"undeclared symbol {name}", k)

    def _block_formula(self, allow_next: bool, scope: frozenset[str], where: str) -> Formula:
        """A formula whose free variables lie in scope, reported where it starts."""
        start = self.i
        self.allow_next = allow_next
        self.saw_var = False
        f = self._formula()
        if self.saw_var:  # else f has no variable term and is closed
            loose = free_vars(f) - scope
            if loose:
                self._err(
                    f"free variables {', '.join(sorted(loose))} in {where}"
                    " (quantify them, or declare missing constants)",
                    start,
                )
        return f

    # --- blocks

    def _block_head(self, kind: str, seen: set[str]) -> tuple[int, str, int]:
        """After an ssa or poss keyword: the declared name it is for, which
        no earlier block of the same keyword named; its index and arity."""
        kw = self.toks[self.i]
        self.i += 1
        k = self._ident(f"a {kind} name" if kind == "fluent" else f"an {kind} name")
        name = self.toks[k]
        decl_kind, ar = self.decls.get(name, _UNDECLARED)
        if decl_kind != kind:
            self._err(f"{name} is not a declared {kind}", k)
        if name in seen:
            self._err(f"duplicate {kw} block for {name}", k)
        seen.add(name)
        self.marks.append((kw, name, k))
        return k, name, ar

    def _ssa_block(self, seen: set[str]) -> SSA:
        k, name, ar = self._block_head("fluent", seen)
        taken: set[str] = set()
        self._expect("(")
        head = self._list(lambda: self._binder("a head variable", taken), ")")
        if len(head) != ar:
            self._err(f"{name} declared with arity {ar}, ssa head has {len(head)}", k)
        pos: list[EffectDisjunct] = []
        neg: list[EffectDisjunct] = []
        self._expect("{")
        while self.toks[self.i] != "}":
            side = self.toks[self.i]
            if side not in ("pos", "neg"):
                self._err("expected 'pos' or 'neg'")
            self.i += 1
            self._expect(":")
            d = self._disjunct(name, head, set(taken))
            self._expect(";")
            (pos if side == "pos" else neg).append(d)
        self._expect("}")
        return SSA(name, tuple(head), tuple(pos), tuple(neg))

    def _disjunct(self, fluent: str, head: list[Var], taken: set[str]) -> EffectDisjunct:
        evs: list[Var] = []
        if self._accept("exists"):
            evs = self._list(lambda: self._binder("a quantified variable", taken))
        k = self._ident("an action variable")
        at = self.toks[k]
        if at in self.decls or at in _RESERVED or at in taken:
            self._err("expected a fresh action variable", k)
        self._expect("==")
        k = self._ident("an action name")
        fn = self.toks[k]
        kind, ar = self.decls.get(fn, _UNDECLARED)
        if kind != "action":
            self._err(f"{fn} is not a declared action", k)
        args = self._args() or []
        if ar != len(args):
            self._err(f"{fn} declared with arity {ar}, used with {len(args)}", k)
        bound = {v.name for v in head} | {v.name for v in evs}
        for a in args:
            if isinstance(a, Var) and a.name not in bound:
                self._err(f"variable {a.name} in the action term is unbound", k)
        ctx = TRUE
        if self._accept("&"):
            ctx = self._block_formula(False, frozenset(bound), f"the context of the ssa for {fluent}")
        return EffectDisjunct(tuple(evs), ActionTerm(fn, tuple(args)), ctx)

    def _poss_block(self, seen: set[str]) -> Precondition:
        k, name, ar = self._block_head("action", seen)
        taken: set[str] = set()
        params: list[Var] = []
        if self._accept("("):
            params = self._list(lambda: self._binder("a parameter", taken), ")")
        if len(params) != ar:
            self._err(f"{name} declared with arity {ar}, poss has {len(params)} parameters", k)
        self._expect(":")
        f = self._block_formula(False, frozenset(taken), f"the precondition for {name}")
        self._expect(";")
        return Precondition(name, tuple(params), f)

    def _ground_literal(self, allow_next: bool) -> Optional[Formula]:
        """The sentence at the next token if it is [!][(]P(c1, ..., ck)[)]
        and ends at the next ";": P a predicate declared with arity k, each
        ci a constant that an earlier sentence met.  Left at the ";".  Any
        other sentence, well-formed or not, gives None and leaves the next
        token where it was, so the formula parser reports its errors."""
        toks = self.toks
        i = self.i
        neg = toks[i] == "!"
        i += neg
        paren = toks[i] == "("
        i += paren
        name = toks[i]
        kind, ar = self.decls.get(name, _UNDECLARED)
        stage = Stage.NOW
        if not kind and allow_next and name[-1] == "'":
            name = name[:-1]
            kind, ar = self.decls.get(name, _UNDECLARED)
            if kind != "fluent":
                return None
            stage = Stage.NEXT
        elif kind != "fluent" and kind != "static":
            return None
        i += 1
        args: tuple[ObjTerm, ...] = ()
        if ar:
            terms = self.terms
            got = []
            for k in range(ar):  # "(" before the first argument, "," before the others
                if toks[i] != ("," if k else "("):
                    return None
                term = terms.get(toks[i + 1])
                if type(term) is not Const:
                    return None
                got.append(term)
                i += 2
            if toks[i] != ")":
                return None
            args = tuple(got)
            i += 1
        if paren:
            if toks[i] != ")":
                return None
            i += 1
        if toks[i] != ";":
            return None
        self.i = i
        atom = FluentAtom(name, args, stage) if kind == "fluent" else StaticAtom(name, args)
        return Not(atom) if neg else atom

    def _sentence_block(self, out: list[Formula]) -> None:
        """Append the sentences of an init or theory block to out.  A ground
        literal takes the short path of _ground_literal."""
        kw = self.toks[self.i]
        self.i += 1
        self._expect("{")
        where = f"a sentence of {kw}"
        allow_next = kw == "theory"
        closed = frozenset()
        while self.toks[self.i] != "}":
            start = self.i
            f = self._ground_literal(allow_next)
            if f is None:
                f = self._block_formula(allow_next, closed, where)
            out.append(f)
            self._expect(";")
            self.marks.append((kw, len(out) - 1, start))
        self.i += 1  # the "}"

    def _signature(self) -> Signature:
        by_kind: dict[str, list[tuple[str, int]]] = {kw: [] for kw in _DECLARATIONS}
        for name, (kw, ar) in self.decls.items():
            by_kind[kw].append((name, ar))
        return Signature(
            objects=frozenset(n for n, _ in by_kind["object"]),
            statics=frozenset(by_kind["static"]),
            fluents=frozenset(by_kind["fluent"]),
            actions=frozenset(by_kind["action"]),
        )


def _positions(text: str, path: str, ks: list[int]) -> list[SourceSpan]:
    """The positions of the tokens ks of text."""
    ends = list(accumulate(map(len, _SCAN.split(text))))
    line_starts = [0, *accumulate(len(s) + 1 for s in text.split("\n"))]
    out = []
    for k in ks:
        off = ends[3 * k + 1]  # the end of the blanks before token k
        line = bisect_right(line_starts, off)
        out.append(SourceSpan(path, line, off - line_starts[line - 1] + 1))
    return out


class _Spans(Sequence):
    """A BAT's (key, SourceSpan) pairs, positioned the first time they are read.

    Parsing records each key's token; reading splits the text again and
    computes every position at once.  Compares equal to the tuple of pairs.
    """

    __slots__ = ("_text", "_path", "_marks", "_pairs")

    def __init__(self, text: str, path: str, marks: list[tuple[str, object, int]]) -> None:
        self._text = text
        self._path = path
        self._marks = marks
        self._pairs: Optional[tuple[tuple[str, SourceSpan], ...]] = None

    def _read(self) -> tuple[tuple[str, SourceSpan], ...]:
        if self._pairs is None:
            ks = [k for _, _, k in self._marks]
            at = _positions(self._text, self._path, ks)
            self._pairs = tuple((f"{kw}:{what}", span) for (kw, what, _), span in zip(self._marks, at))
            self._text = self._marks = None
        return self._pairs

    def __len__(self) -> int:
        return len(self._read())

    def __getitem__(self, i):
        return self._read()[i]

    def __eq__(self, other: object) -> bool:
        return self._read() == (other._read() if isinstance(other, _Spans) else other)

    def __repr__(self) -> str:
        return repr(self._read())


def _read_file(
    text: str, path: str, theory_file: Optional[bool]
) -> tuple[Signature, Theory, Optional[BAT]]:
    """The one block loop behind the file parsers.

    theory_file says which kind of file the text must be: a theory file
    (True), a basic action theory (False), or undecided (None), when the
    first theory block makes it a theory file.  An ssa, poss or init block
    before that theory block is then reported at its keyword.  The BAT is
    None for a theory file.
    """
    p = _Parser(text, path)
    ssas: list[SSA] = []
    pres: list[Precondition] = []
    sentences: list[Formula] = []  # of the init or of the theory blocks
    seen_ssa: set[str] = set()
    seen_poss: set[str] = set()
    first_block: Optional[int] = None  # the keyword of the first ssa, poss or init block
    while (t := p.toks[p.i]) != _EOF:
        if t in _DECLARATIONS:
            p._declaration()
        elif t == "theory" and theory_file is not False:
            if first_block is not None:
                p._err(f"a {p.toks[first_block]} block is not allowed in a theory file", first_block)
            theory_file = True
            p._sentence_block(sentences)
        elif t in ("ssa", "poss", "init"):
            if theory_file:
                p._err(f"a {t} block is not allowed in a theory file")
            if first_block is None:
                first_block = p.i
            if t == "ssa":
                ssas.append(p._ssa_block(seen_ssa))
            elif t == "poss":
                pres.append(p._poss_block(seen_poss))
            else:
                p._sentence_block(sentences)
        elif t == "theory":
            p._err("a theory block is not allowed here; use init")
        else:
            p._err(f"expected a declaration or {'theory ' if theory_file else ''}block, found {t!r}")
    sig, theory = p._signature(), Theory(tuple(sentences))
    if theory_file:
        return sig, theory, None
    return sig, theory, BAT(sig, theory, tuple(pres), tuple(ssas), _Spans(text, path, p.marks))


def parse_bat(text: str, path: str = "<input>") -> BAT:
    """Parse a full theory file with ssa/poss/init blocks."""
    return _read_file(text, path, False)[2]


def parse_theory(text: str, path: str = "<input>") -> tuple[Signature, Theory]:
    """Parse a standalone theory file: declarations plus theory blocks."""
    sig, theory, _ = _read_file(text, path, True)
    return sig, theory


def parse_file(text: str, path: str = "<input>") -> tuple[Signature, Theory, Optional[BAT]]:
    """Parse either kind of file: a theory file exactly when it has a theory
    block.  The signature, the initial or plain theory, and the BAT or None."""
    return _read_file(text, path, None)


def parse_formula(
    text: str,
    env: Signature,
    path: str = "<formula>",
    allow_free: bool = False,
) -> Formula:
    """Parse one formula against an existing signature.

    Unprimed fluent atoms are at the current stage; primed ones are next-stage.
    """
    p = _Parser(text, path, env)
    f = p._formula()
    p._end()
    if not allow_free and free_vars(f):
        raise ParseError(
            f"free variables {', '.join(sorted(free_vars(f)))} in formula"
            " (quantify them, or declare missing constants)",
            SourceSpan(path, 1, 1),
        )
    return f


def _ground_args(p: _Parser, k: int, name: str, ar: int) -> tuple[str, ...]:
    """The constant arguments after the symbol at k, which end the input."""
    args = p._list(p._constant, ")") if p._accept("(") else []
    if ar != len(args):
        p._err(f"{name} declared with arity {ar}, used with {len(args)}", k)
    p._end()
    return tuple(args)


def parse_ground_action(text: str, env: Signature, path: str = "<action>") -> GroundAction:
    """Parse a ground action application such as move(A, B, C)."""
    p = _Parser(text, path, env)
    k = p._ident("an action name")
    name = p.toks[k]
    kind, ar = p.decls.get(name, _UNDECLARED)
    if kind != "action":
        p._err(f"{name} is not a declared action", k)
    return GroundAction(name, _ground_args(p, k, name, ar))


def parse_ground_atom(text: str, env: Signature, path: str = "<atom>") -> GroundAtom:
    """Parse a ground atom such as Clear(B) or On'(A, C); statics have no stage."""
    p = _Parser(text, path, env)
    k = p._ident("a predicate name")
    name = p.toks[k]
    primed = name.endswith("'")
    base = name[:-1] if primed else name
    kind, ar = p.decls.get(base, _UNDECLARED)
    if kind == "fluent":
        stage: Optional[Stage] = Stage.NEXT if primed else Stage.NOW
    elif kind == "static" and not primed:
        stage = None
    else:
        p._err(f"{base} is not a declared fluent or static predicate", k)
    return GroundAtom(base, _ground_args(p, k, base, ar), stage)


# ---------------------------------------------------------------------------
# rendering

_INFIX = {node: (f" {tok} ", prec, right) for tok, (node, prec, right) in _BINARY.items()}


def _rt(t: ObjTerm) -> str:
    return t.name


def _app(name: str, args: tuple[ObjTerm, ...]) -> str:
    return f"{name}({', '.join([a.name for a in args])})" if args else name


def _fmt(f: Formula, min_prec: int) -> str:
    """The text of f, in parentheses if it binds less tightly than min_prec.

    The last operand of each node is printed by the loop rather than by a
    call, so a formula that nests along last operands, such as a chain
    that alternates ! and <->, or quantifiers of alternating kinds, costs
    no recursion; the parentheses opened on the way close at the end.
    """
    atom = literal_atom(f)
    if atom is not None:  # binds tighter than any operator: no parentheses
        if type(atom) is FluentAtom:
            s = _app((atom.fluent + "'") if atom.stage is Stage.NEXT else atom.fluent, atom.args)
        else:
            s = _app(atom.pred, atom.args)
        return s if atom is f else "!" + s
    pieces = []
    close = 0
    while True:
        head, prec, last, last_prec = _fmt1(f)
        if prec < min_prec:
            pieces.append("(")
            close += 1
        pieces.append(head)
        if last is None:
            break
        if literal_atom(last) is not None:
            pieces.append(_fmt(last, last_prec))
            break
        f, min_prec = last, last_prec
    pieces.append(")" * close)
    return "".join(pieces)


def _fmt1(f: Formula) -> tuple[str, int, Optional[Formula], int]:
    """The text of f, which is not a literal (_fmt prints those), up to its
    last operand; its precedence; and that last operand, for _fmt to print
    after the text, with the precedence it needs, or None if the text is
    whole."""
    match f:
        case Truth():
            return "true", _TIGHT, None, 0
        case Falsity():
            return "false", _TIGHT, None, 0
        case ObjEq(l, r):
            return f"{_rt(l)} == {_rt(r)}", _TIGHT, None, 0
        case Not():
            # a chain of negations in a loop, so 3,000 ! cost no recursion;
            # the innermost one over an equality prints as !=
            bangs = 0
            while type(f) is Not:
                f = f.body
                bangs += 1
            if type(f) is ObjEq:
                return "!" * (bangs - 1) + f"{_rt(f.lhs)} != {_rt(f.rhs)}", _TIGHT, None, 0
            return "!" * bangs, _TIGHT, f, _TIGHT
        case And() | Or() | Implies() | Iff():
            node = type(f)
            sep, prec, right = _INFIX[node]
            if right:
                # the right spine in a loop, so a long chain costs no recursion
                lefts = []
                while isinstance(f, node):
                    lefts.append(_fmt(f.lhs, prec + 1))
                    f = f.rhs
                return sep.join(lefts) + sep, prec, f, prec
            # the left spine in a loop, so a wide chain costs no recursion
            last = f.rhs
            f = f.lhs
            rights = []
            while isinstance(f, node):
                rights.append(_fmt(f.rhs, prec + 1))
                f = f.lhs
            rights.append(_fmt(f, prec))
            return sep.join(reversed(rights)) + sep, prec, last, prec + 1
        case Forall(v, body) | Exists(v, body):
            ctor = type(f)
            kw = "forall" if ctor is Forall else "exists"
            vs = [v.name]
            while isinstance(body, ctor):
                vs.append(body.var.name)
                body = body.body
            head = f"{kw} {', '.join(vs)} "
            if isinstance(body, ObjEq) or (isinstance(body, Not) and isinstance(body.body, ObjEq)):
                return f"{head}({_fmt(body, 0)})", _TIGHT, None, 0
            return head, _TIGHT, body, _TIGHT
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
