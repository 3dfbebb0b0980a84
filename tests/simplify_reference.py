"""The simplifier as it was before it marked the nodes it builds normal.

simplify rewrote to a fixed point by repeating one-step passes, and each
result was confirmed by a last pass that rewrote nothing, which walked again
every node a rule had just built.  The syntax module's simplify must return
equal results, rendered alike, while skipping those confirming walks.

This copy keeps its one-step memo in a dict that lives for one simplify
call, not in the node slots the syntax module's simplify writes.
"""

from typing import Iterable, Optional

from sitcalc.errors import SitcalcError
from sitcalc.syntax import (
    FALSE,
    TRUE,
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
    StaticAtom,
    Truth,
    Var,
    conj,
    disj,
    flatten_and,
    flatten_or,
    free_vars,
    substitute,
)


def _complement_in(p: Formula, kept: list[Formula], negs: list[Formula]) -> bool:
    """Is p the complement of a formula in kept?  negs holds the bodies of its Nots."""
    return (type(p) is Not and p.body in kept) or p in negs


_LITERAL_ATOMS = (FluentAtom, StaticAtom, ObjEq)
_WIDE = 16  # formulas from which a membership test hashes atoms rather than scanning


class _Indexed(list):
    """A list of formulas whose membership test hashes atoms and negated atoms.

    _conjunction_of and _disjunction_of test each part against the parts
    kept so far, and disjunct sets against each other, which on plain lists
    is quadratic in the width.  From _WIDE parts on they keep them here.
    Other formulas keep the scan, because a compound formula's dataclass
    hash walks the whole formula on every call.  Below _WIDE parts a scan
    is cheaper than hashing atoms: on fresh conjunctions of ground literals
    the two cost the same at 12 parts, and hashing takes about 0.86 times
    the scan's time at 16 and 0.3 times at 64 (BENCH_15.json, "membership").
    """

    __slots__ = ("atoms", "negated")

    def __init__(self, items: Iterable[Formula] = ()) -> None:
        super().__init__()
        self.atoms: set[Formula] = set()
        self.negated: set[Formula] = set()  # b for each Not(b) in the list, b an atom
        for p in items:
            self.append(p)

    def append(self, p: Formula) -> None:
        super().append(p)
        node = type(p)
        if node in _LITERAL_ATOMS:
            self.atoms.add(p)
        elif node is Not and type(p.body) in _LITERAL_ATOMS:
            self.negated.add(p.body)

    def __contains__(self, p: object) -> bool:
        node = type(p)
        if node in _LITERAL_ATOMS:
            return p in self.atoms
        if node is Not and type(p.body) in _LITERAL_ATOMS:
            return p.body in self.negated
        return super().__contains__(p)


def _kept(width: int, items: Iterable[Formula] = ()) -> list[Formula]:
    """A list of items for up to width formulas, indexed if it can grow wide."""
    return _Indexed(items) if width >= _WIDE else list(items)


def _simp_eq(f: ObjEq, una: bool) -> Formula:
    lhs, rhs = f.lhs, f.rhs
    if lhs == rhs:
        return TRUE
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return FALSE if una else f
    # keep variables on the left so transformed effect conditions read x = c
    if isinstance(lhs, Const) and isinstance(rhs, Var):
        return ObjEq(rhs, lhs)
    return f


def _is_chain(f: Formula, node: type, parts: list[Formula]) -> bool:
    """Is f, operand for operand, the left-nested chain conj/disj builds from parts?"""
    for p in reversed(parts[1:]):
        if type(f) is not node or f.rhs is not p:
            return False
        f = f.lhs
    return bool(parts) and f is parts[0]


def _conjunction_of(parts: list[Formula], una: bool, f: Formula) -> Formula:
    """Rebuild the conjunction f: drop TRUE, dedupe, detect local contradictions.

    f itself is returned if the rebuilt chain would equal it.
    """
    out = _kept(len(parts))
    negs = _kept(len(parts))
    bindings: dict[str, str] = {}
    for p in parts:
        if isinstance(p, Falsity):
            return FALSE
        if isinstance(p, Truth) or p in out:
            continue
        if _complement_in(p, out, negs):
            return FALSE
        if una:
            match p:
                case ObjEq(Var(v), Const(c)):
                    if bindings.setdefault(v, c) != c:
                        return FALSE
                case _:
                    pass
        out.append(p)
        if type(p) is Not:
            negs.append(p.body)
    return f if _is_chain(f, And, out) else conj(out)


def _disjunction_of(parts: list[Formula], una: bool, f: Formula) -> Formula:
    """Rebuild the disjunction f: drop FALSE, dedupe, absorb subsumed disjuncts.

    f itself is returned if the rebuilt chain would equal it.
    """
    flat = _kept(len(parts))
    negs = _kept(len(parts))
    for p in parts:
        if isinstance(p, Truth):
            return TRUE
        if isinstance(p, Falsity) or p in flat:
            continue
        if _complement_in(p, flat, negs):
            return TRUE
        flat.append(p)
        if type(p) is Not:
            negs.append(p.body)
    # drop a disjunct whose conjunct set contains some other whole disjunct set,
    # and strip conjuncts refuted by another disjunct: d | (!d & e)  ==  d | e
    sets = [flatten_and(p) for p in flat]
    members = [_kept(len(s), s) for s in sets]
    keep = [True] * len(flat)
    for i, si in enumerate(sets):
        if not keep[i]:
            continue
        for j, sj in enumerate(members):
            if i == j or not keep[j]:
                continue
            if all(c in sj for c in si):
                keep[j] = False
    survivors = [i for i in range(len(flat)) if keep[i]]
    # No disjunct is the complement of one of its own conjuncts, so testing
    # against all the survivors is testing against the others.
    others = _kept(len(survivors))
    other_negs = _kept(len(survivors))
    for i in survivors:
        others.append(flat[i])
        if type(flat[i]) is Not:
            other_negs.append(flat[i].body)
    changed = False
    for i in survivors:
        stripped = [c for c in sets[i] if not _complement_in(c, others, other_negs)]
        if len(stripped) != len(sets[i]):
            sets[i] = stripped
            changed = True
    rebuilt = [
        _conjunction_of(sets[i], una, flat[i]) if (changed or len(sets[i]) != 1) else flat[i]
        for i in survivors
    ]
    return f if _is_chain(f, Or, rebuilt) else disj(rebuilt)


def _one_point_conjuncts(v: Var, parts: list[Formula]) -> Optional[tuple[ObjTerm, list[Formula]]]:
    """Find v = t (t free of v) among conjuncts; return t and the remaining conjuncts."""
    for i, p in enumerate(parts):
        match p:
            case ObjEq(lhs, rhs) if lhs == v and rhs != v:
                return rhs, parts[:i] + parts[i + 1 :]
            case ObjEq(lhs, rhs) if rhs == v and lhs != v:
                return lhs, parts[:i] + parts[i + 1 :]
            case _:
                continue
    return None


_NORMAL = object()  # memo value: no rule rewrites the node
_MEMO: dict[int, tuple[Formula, object]] = {}  # id -> (node, one-step result), one simplify call long


def _step(f: Formula, una: bool) -> Formula:
    """One rewriting pass over f, memoized on the node per una value.

    Returns f itself when no rule fires anywhere in it, so a caller can
    tell a fixed point by identity.  A normal node stores _NORMAL rather
    than a reference to itself, which would make it a reference cycle.
    """
    hit = _MEMO.get(id(f))
    if hit is not None:
        return f if hit[1] is _NORMAL else hit[1]
    out = _rewrite(f, una)
    _MEMO[id(f)] = (f, _NORMAL if out is f else out)
    return out


def _rewrite(f: Formula, una: bool) -> Formula:
    match f:
        case Truth() | Falsity() | FluentAtom() | StaticAtom():
            return f
        case ObjEq():
            return _simp_eq(f, una)
        case Not(body):
            # a chain of negations is one polarity bit, not one frame per !
            neg = True
            while type(body) is Not:
                body = body.body
                neg = not neg
            g = _step(body, una)
            if not neg:
                return g
            match g:
                case Truth():
                    return FALSE
                case Falsity():
                    return TRUE
                case Not(inner):
                    return inner
                case _:
                    return f if g is f.body else Not(g)
        case And():
            parts = [_step(p, una) for p in flatten_and(f)]
            return _conjunction_of(parts, una, f)
        case Or():
            parts = [_step(p, una) for p in flatten_or(f)]
            return _disjunction_of(parts, una, f)
        case Implies():
            # a right-nested chain a1 -> a2 -> ... -> b is walked along its
            # spine: the links below f that have no memo yet are rewritten
            # and memoized innermost first, as _step would
            links = [f]
            while type(links[-1].rhs) is Implies and id(links[-1].rhs) not in _MEMO:
                links.append(links[-1].rhs)
            out = _step(links[-1].rhs, una)
            for link in reversed(links):
                out = _implication(link, _step(link.lhs, una), out, una)
                if link is not f:
                    _MEMO[id(link)] = (link, _NORMAL if out is link else out)
            return out
        case Iff(lhs, rhs):
            a, b = _step(lhs, una), _step(rhs, una)
            match (a, b):
                case (Truth(), _):
                    return b
                case (_, Truth()):
                    return a
                case (Falsity(), _):
                    return _step(Not(b), una)
                case (_, Falsity()):
                    return _step(Not(a), una)
                case _ if a == b:
                    return TRUE
                case _:
                    return f if a is lhs and b is rhs else Iff(a, b)
        case Forall(v, body):
            b = _step(body, una)
            if isinstance(b, (Truth, Falsity)):
                return b
            if v.name not in free_vars(b):
                return b
            match b:
                case Implies(ante, cons):
                    found = _one_point_conjuncts(v, flatten_and(ante))
                    if found is not None:
                        t, rest = found
                        inst = substitute(Implies(conj(rest), cons), {v.name: t})
                        return _step(inst, una)
                case _:
                    pass
            return f if b is body else Forall(v, b)
        case Exists(v, body):
            b = _step(body, una)
            if isinstance(b, (Truth, Falsity)):
                return b
            if v.name not in free_vars(b):
                return b
            found = _one_point_conjuncts(v, flatten_and(b))
            if found is not None:
                t, rest = found
                return _step(substitute(conj(rest), {v.name: t}), una)
            return f if b is body else Exists(v, b)
        case _:
            raise SitcalcError(f"not a formula: {f!r}")


def _implication(f: Implies, a: Formula, b: Formula, una: bool) -> Formula:
    """One rewriting pass over f, given the passes a over its antecedent and
    b over its consequent."""
    match (a, b):
        case (Truth(), _):
            return b
        case (Falsity(), _):
            return TRUE
        case (_, Truth()):
            return TRUE
        case (_, Falsity()):
            return _step(Not(a), una)
        case _ if a == b:
            return TRUE
        case _:
            return f if a is f.lhs and b is f.rhs else Implies(a, b)


def simplify(f: Formula, una: bool = True) -> Formula:
    """Equivalence-preserving local rewriting to a fixed point.

    Covers boolean constant laws, double negation, idempotence, complement and
    subsumption inside flat conjunctions/disjunctions, reflexive equalities,
    constant disequalities under unique names, vacuous quantifiers and the
    one-point rule for exists z (z = t & phi) and forall z (z = t -> phi).
    Nonempty object domains are assumed.  The result of a simplify call is
    its own simplification, as the very same object.
    """
    _MEMO.clear()
    prev = f
    for _ in range(200):  # each rule shrinks the tree; the bound is a safety net
        cur = _step(prev, una)
        if cur is prev:
            return cur
        prev = cur
    return prev
