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

forget_atoms and forget_atom share one loop, which files each axiom once
per call in a denotation index, under those of its atoms that can denote an
atom to forget: under unique names a ground atom that is one of them, and
an atom with a variable argument (any atom, without unique names) of the
predicate, stage and arity of one of them, with its argument pattern.
A literal axiom, an atom or a negated atom, is filed under its one atom
without a walk, and under unique names one whose first argument is a
constant is passed over at once unless some atom to forget has its
predicate and that first argument.  Each step looks up the axioms that can
denote its atom instead of scanning the theory, and files the disjunction
it adds.  An axiom that no step takes comes out as the same object.

A literal step is one where every axiom that can denote the atom g is g
or !g, as on every step of a complete ground world under unique names.
Relativizing g or !g gives it back, its images under g:=TRUE and g:=FALSE
are constants, and the disjunction of their conjunctions simplifies to
TRUE, or to FALSE if both g and !g occur.  Such a step adds that constant
directly, without relativize, map_atoms_twice or simplify; _resolve takes
every other step.  Of those, a unit step is one where g or !g is among the
axioms that can denote g, beside axioms of other shapes: the image under
the value that falsifies that literal is a conjunction with FALSE, so
_resolve builds only the other image, with map_atoms, and simplifies its
conjunction, which is what the disjunction of both simplifies to.

A step keeps shared structure shared, so that simplify, which memoizes per
node, reduces each shared subtree once: the axioms it relativizes share one
split table, which gives each occurrence pattern of g's predicate one split
node, and one map_atoms_twice walk over them all builds the g:=TRUE and
g:=FALSE images of each.
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
    literal_atom,
    map_atoms,
    map_atoms_twice,
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


def relativize(
    f: Formula, g: GroundAtom, una: bool = True, splits: Optional[dict[tuple, Formula]] = None
) -> Formula:
    """Split every occurrence of g's predicate on whether its arguments equal g's.

    An occurrence P(t) becomes (t = c & P(c)) | (t != c & P(t)) for g = P(c),
    so that the only occurrences whose truth depends on g are the explicit
    ground ones.  The output is simplified, which restores occurrences with
    distinct constant arguments to plain atoms under unique names.

    splits maps the argument tuple of each occurrence to its split.  A
    caller that relativizes several axioms for the same g passes one dict
    to every call, so that equal occurrences share one split node, which
    simplify, memoizing per node, reduces once.
    """
    gatom = g.to_formula()
    gconsts = tuple(Const(c) for c in g.args)
    if splits is None:
        splits = {}

    def split(atom: Formula) -> Formula:
        args = _matches(atom, g)
        if args is None:
            return atom
        out = splits.get(args)
        if out is None:
            eqs = conj([ObjEq(t, c) for t, c in zip(args, gconsts)])
            out = splits[args] = Or(And(eqs, gatom), And(Not(eqs), atom))
        return out

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
    return _forget(t, (g,), una)


def forget_atoms(t: Theory, atoms: Iterable[GroundAtom], una: bool = True) -> Theory:
    """Forget a set of ground atoms in the canonical order.

    Forgetting is commutative up to logical equivalence, so the order only
    affects the syntactic shape of the result.  The result is that of
    forget_atom applied to each atom in turn.
    """
    return _forget(t, sorted_atoms(atoms), una)


def _key(g: GroundAtom) -> tuple[str, int, int]:
    """The denotation index key of g, see _forget."""
    return (g.pred, g.sort_key[2], len(g.args))


def _forget(t: Theory, atoms: Iterable[GroundAtom], una: bool) -> Theory:
    """forget_atom for each atom in turn, through the denotation index
    described in the module docstring.  The axioms that pass through keep
    their order, and the disjunctions added follow them."""
    atoms = tuple(atoms)
    # A key is (predicate, stage rank, arity), the rank that of sort_key: 0
    # for a static, 1 for the current and 2 for the next stage.  An int
    # hashes in C, a Stage by a Python-level call, and filing a theory hashes
    # two keys per atom.  An argument pattern has a constant's name or None
    # for a variable at each position.  Only the atoms that can denote an
    # atom to forget are filed; a literal axiom is filed under its one atom.
    keys = {_key(g) for g in atoms}
    ground: dict[tuple, list[int]] = {(_key(g), g.args): [] for g in atoms}
    open_: dict[tuple, list[tuple[int, tuple]]] = {}  # key -> (id, argument pattern)
    # the live axioms that are filed in the index or were added, by id
    axioms: dict[int, Formula] = {}
    # the argument names of each filed literal axiom over constants, by id
    literals: dict[int, tuple[str, ...]] = {}
    # Under unique names a literal whose first argument is a constant can
    # denote only an atom with its predicate and that first argument.
    firsts = {(g.pred, g.args[0]) for g in atoms if g.args} if una else None

    def add(i: int, ax: Formula) -> None:
        atom = literal_atom(ax)
        for a in atoms_of(ax) if atom is None else (atom,):
            node = type(a)
            if node is FluentAtom:
                key = (a.fluent, 1 if a.stage is Stage.NOW else 2, len(a.args))
            elif node is StaticAtom:
                key = (a.pred, 0, len(a.args))
            else:
                continue
            if key not in keys:
                continue
            names = tuple([x.name if type(x) is Const else None for x in a.args])
            is_ground = None not in names
            if is_ground and atom is not None:
                literals[i] = names
            if una and is_ground:
                ids = ground.get((key, names))  # under unique names it denotes only itself
                if ids is None:
                    continue
                ids.append(i)
            else:
                open_.setdefault(key, []).append((i, names))
            axioms[i] = ax

    def may_denote(g: GroundAtom) -> list[int]:
        """Ids of the live axioms with an atom that can denote g, in theory order.
        Under unique names an atom with a constant other than g's at some
        position cannot."""
        key = _key(g)
        found = set(ground[key, g.args])
        for i, names in open_.get(key, ()):
            if not una or all(n is None or n == c for n, c in zip(names, g.args)):
                found.add(i)
        return sorted(i for i in found if i in axioms)

    for i, ax in enumerate(t.axioms):
        if firsts is not None:
            a = ax.body if type(ax) is Not else ax
            node = type(a)
            if (node is FluentAtom or node is StaticAtom) and a.args:
                first = a.args[0]
                name = a.fluent if node is FluentAtom else a.pred
                if type(first) is Const and (name, first.name) not in firsts:
                    continue
        add(i, ax)
    gone: set[int] = set()  # the ids of the axioms taken into a disjunction
    next_id = len(t.axioms)
    for g in atoms:
        ids = may_denote(g)
        if not ids:
            continue
        if all(literals.get(i) == g.args for i in ids):
            # a literal step: every axiom that can denote g is g or !g, and
            # forgetting g leaves TRUE, or FALSE if both occur
            signs = {type(axioms[i]) is Not for i in ids}
            used, new = ids, FALSE if len(signs) == 2 else TRUE
        else:
            used, new = _resolve([axioms[i] for i in ids], ids, g, una)
            if new is None:
                continue
        for i in used:
            del axioms[i]
        gone.update(used)
        axioms[next_id] = new
        add(next_id, new)
        next_id += 1
    if not gone:
        return t
    n = len(t.axioms)
    kept = list(t.axioms)
    for i in sorted((i for i in gone if i < n), reverse=True):
        del kept[i]
    kept.extend(ax for i, ax in axioms.items() if i >= n)
    return Theory(tuple(kept))


def _resolve(
    axs: list[Formula], ids: list[int], g: GroundAtom, una: bool
) -> tuple[list[int], Optional[Formula]]:
    """The ids of the axioms whose relativized form mentions g, and the
    disjunction of their g:=TRUE and g:=FALSE images, simplified; None if
    there are none.  On a unit step only the image that survives is built."""
    gatom = g.to_formula()
    splits: dict[tuple, Formula] = {}  # one split per occurrence pattern for the whole step
    rels = Theory(tuple(relativize(ax, g, una, splits) for ax in axs))
    units = [ax for ax in axs if literal_atom(ax) == gatom]
    if units:
        # g is an axiom, so the g:=FALSE image holds FALSE, or !g is, and
        # the g:=TRUE image does; the disjunction is the other image alone
        value = FALSE if all(type(ax) is Not for ax in units) else TRUE
        pos_t = neg_t = map_atoms(rels, lambda a: value if a == gatom else a)
    else:
        pos_t, neg_t = map_atoms_twice(rels, lambda a: (TRUE, FALSE) if a == gatom else (a, a))
    pos_parts: list[Formula] = []
    neg_parts: list[Formula] = []
    used: list[int] = []
    for i, rel, pos, neg in zip(ids, rels.axioms, pos_t.axioms, neg_t.axioms):
        if pos is not rel:  # a new object exactly when g occurs in rel
            pos_parts.append(pos)
            neg_parts.append(neg)
            used.append(i)
    if not used:
        return used, None
    if units:
        return used, simplify(conj(pos_parts), una)
    return used, simplify(Or(conj(pos_parts), conj(neg_parts)), una)


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
