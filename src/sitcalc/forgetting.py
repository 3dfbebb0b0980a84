"""Forgetting of ground atoms and ground-occurring predicate symbols.

Forgetting a ground atom g in a finite theory T yields a theory whose models
are exactly the models of T with the truth value of g released: M' satisfies
the result iff some model of T agrees with M' everywhere except possibly on g.
The syntactic computation relativizes every occurrence of g's predicate so the
value of g is isolated, then resolves on g.

Forgetting is local: only axioms that can denote g take part.  An axiom
without an atom of g's predicate, kind, stage and arity cannot, and neither,
under unique names, can one whose every such atom has a constant argument
other than g's constant at that position.  These axioms pass through as the
same objects, without being relativized.  The test is exact: relativizing
such an axiom yields g only in conjunctions with an equality between
distinct constants, which simplification under unique names turns into
FALSE, so the relativized form never mentions g and resolution would have
kept the axiom verbatim anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import NonGroundOccurrence
from .syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    FluentAtom,
    Formula,
    Not,
    ObjEq,
    Or,
    Signature,
    Stage,
    StaticAtom,
    Theory,
    atoms_of,
    conj,
    map_atoms,
    simplify,
)


@dataclass(frozen=True)
class GroundAtom:
    """A predicate applied to constants; stage None marks a static predicate."""

    pred: str
    args: tuple[str, ...]
    stage: Optional[Stage] = Stage.NOW

    @property
    def sort_key(self) -> tuple[str, tuple[str, ...], int]:
        rank = 0 if self.stage is None else (1 if self.stage == Stage.NOW else 2)
        return (self.pred, self.args, rank)

    def to_formula(self) -> Formula:
        terms = tuple(Const(c) for c in self.args)
        if self.stage is None:
            return StaticAtom(self.pred, terms)
        return FluentAtom(self.pred, terms, self.stage)

    def signature(self) -> Signature:
        pair = frozenset({(self.pred, len(self.args))})
        if self.stage is None:
            return Signature(objects=frozenset(self.args), statics=pair)
        return Signature(objects=frozenset(self.args), fluents=pair)

    def __str__(self) -> str:
        inner = f"{self.pred}({', '.join(self.args)})" if self.args else self.pred
        if self.stage == Stage.NEXT:
            return f"{inner}@next"
        return inner


def sorted_atoms(atoms: Iterable[GroundAtom]) -> tuple[GroundAtom, ...]:
    """Canonical forgetting order: by predicate, then arguments, then stage."""
    return tuple(sorted(set(atoms), key=lambda g: g.sort_key))


def _matches(f: Formula, g: GroundAtom) -> Optional[tuple]:
    """Argument tuple of f when f is an atom of g's predicate, kind and stage."""
    match f:
        case FluentAtom(pred, args, stage) if (
            g.stage is not None and pred == g.pred and stage == g.stage and len(args) == len(g.args)
        ):
            return args
        case StaticAtom(pred, args) if g.stage is None and pred == g.pred and len(args) == len(g.args):
            return args
        case _:
            return None


def _may_denote(f: Formula, g: GroundAtom, una: bool) -> bool:
    """Can an atom of f denote g?  Under unique names an atom whose argument
    is a constant other than g's constant at that position cannot."""
    for atom in atoms_of(f):
        args = _matches(atom, g)
        if args is not None and not (
            una and any(isinstance(t, Const) and t.name != c for t, c in zip(args, g.args))
        ):
            return True
    return False


def relativize(f: Formula, g: GroundAtom, una: bool = True) -> Formula:
    """Split every occurrence of g's predicate on whether its arguments equal g's.

    An occurrence P(t) becomes (t = c & P(c)) | (t != c & P(t)) for g = P(c),
    so that the only occurrences whose truth depends on g are the explicit
    ground ones.  The output is simplified, which restores occurrences with
    distinct constant arguments to plain atoms under unique names.
    """
    gatom = g.to_formula()
    gconsts = tuple(Const(c) for c in g.args)

    def split(atom: Formula) -> Formula:
        args = _matches(atom, g)
        if args is None:
            return atom
        eqs = conj([ObjEq(t, c) for t, c in zip(args, gconsts)])
        return Or(And(eqs, gatom), And(Not(eqs), atom))

    return simplify(map_atoms(f, split), una)


def replace_ground(f: Formula, g: GroundAtom, value: Formula) -> Formula:
    """Replace exact occurrences of the ground atom g by the given formula."""
    gatom = g.to_formula()
    return map_atoms(f, lambda a: value if a == gatom else a)


def forget_atom(t: Theory, g: GroundAtom, una: bool = True) -> Theory:
    """Forget one ground atom.

    Axioms that cannot denote g (see the module docstring) pass through as
    the same objects without being relativized, and so do axioms whose
    relativized form does not mention g.  The rest are relativized,
    conjoined and expanded to (AND phi[g/true]) | (AND phi[g/false]).
    Keeping g-free axioms out of the disjunction is sound because a conjunct
    without g factors out of it.
    """
    kept: list[Formula] = []
    pos_parts: list[Formula] = []
    neg_parts: list[Formula] = []
    for ax in t.axioms:
        if not _may_denote(ax, g, una):
            kept.append(ax)
            continue
        rel = relativize(ax, g, una)
        pos = replace_ground(rel, g, TRUE)
        neg = replace_ground(rel, g, FALSE)
        if pos == neg:
            kept.append(ax)
        else:
            pos_parts.append(pos)
            neg_parts.append(neg)
    if not pos_parts:
        return t
    forgotten = simplify(Or(conj(pos_parts), conj(neg_parts)), una)
    return Theory(tuple(kept) + (forgotten,))


def forget_atoms(t: Theory, atoms: Iterable[GroundAtom], una: bool = True) -> Theory:
    """Forget a set of ground atoms in the canonical order.

    Forgetting is commutative up to logical equivalence, so the order only
    affects the syntactic shape of the result.
    """
    for g in sorted_atoms(atoms):
        t = forget_atom(t, g, una)
    return t


def occurring_ground_atoms(t: Theory, pred: str) -> tuple[GroundAtom, ...]:
    """All ground atoms of the given predicate occurring in t.

    Raises NonGroundOccurrence if the predicate appears with a variable
    argument anywhere in t.
    """
    found: set[GroundAtom] = set()
    for a in atoms_of(t):
        if isinstance(a, FluentAtom) and a.fluent == pred:
            stage = a.stage
        elif isinstance(a, StaticAtom) and a.pred == pred:
            stage = None
        else:
            continue
        if not all(isinstance(x, Const) for x in a.args):
            raise NonGroundOccurrence(f"{pred} occurs with variable arguments")
        found.add(GroundAtom(pred, tuple(x.name for x in a.args), stage))
    return sorted_atoms(found)


def forget_ground_symbol(t: Theory, pred: str, una: bool = True) -> Theory:
    """Forget a whole predicate symbol whose occurrences in t are all ground.

    For a nullary symbol this is the classical middle-term elimination
    T[p/true] | T[p/false].  A predicate with no occurrences leaves t
    unchanged.
    """
    atoms = occurring_ground_atoms(t, pred)
    if not atoms:
        return t
    return forget_atoms(t, atoms, una)
