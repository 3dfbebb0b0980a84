"""Terms, formulas, signatures and theories.

Fluents carry a stage tag instead of a reified situation argument: NOW is the
current initial situation, NEXT is the situation reached by the single ground
action under consideration.  Uniform formulas in the usual sense are formulas
whose fluent atoms all carry the same tag.  Object terms are variables and
constants only; there are no object function symbols of positive arity.
No formula mentions an action: action terms occur only in the effect
disjuncts of successor state axioms (bat.EffectDisjunct).

Formulas are walked by two primitives that keep their own stack, so a deep
or wide formula costs memory, not interpreter recursion:

- atoms_of(x) yields the atomic subformulas of a formula or theory, left
  to right;
- map_atoms(x, fn) rebuilds a formula or theory around fn(atom), sharing
  every subtree that fn left unchanged.

New code that folds over atoms or rewrites atoms uses them.  signature_of,
stages_of, rename_stage and forgetting's relativize, replace_ground and
occurring_ground_atoms do.
flatten_and/flatten_or walk a connective spine and free_vars carries the
bound variables on its stack; neither recurses.

These still recurse, because they compute something per connective rather
than per atom: simplify (rewrite rules per connective, run to a fixed
point), substitute (capture-avoiding renaming at each binder), the
printer surface._fmt1 (precedence and parentheses per connective) and the
oracle's evaluate and _Grounder.ground (semantics per connective).  The
dataclass-generated __eq__, __hash__ and __repr__ of the nodes recurse
too, so comparing or hashing two deep trees can still hit the recursion
limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import SitcalcError, SortError


class Stage(enum.Enum):
    NOW = "now"
    NEXT = "next"

    def __repr__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Const:
    name: str

    def __repr__(self) -> str:
        return f"Const({self.name!r})"


# Module-level unions are written with `|`: a typing.Union alias enters
# typing's caches, which then keep every earlier import of the package alive.
ObjTerm = Var | Const


@dataclass(frozen=True)
class ActionTerm:
    fn: str
    args: tuple[ObjTerm, ...] = ()

    def __post_init__(self) -> None:
        for t in self.args:
            if not isinstance(t, (Var, Const)):
                raise SortError(f"action argument must be an object term, got {t!r}")

    @property
    def is_ground(self) -> bool:
        return all(isinstance(t, Const) for t in self.args)


# ---------------------------------------------------------------------------
# formulas


class Formula:
    """Base class; all nodes are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Truth(Formula):
    pass


@dataclass(frozen=True)
class Falsity(Formula):
    pass


TRUE = Truth()
FALSE = Falsity()


@dataclass(frozen=True)
class FluentAtom(Formula):
    fluent: str
    args: tuple[ObjTerm, ...]
    stage: Stage = Stage.NOW


@dataclass(frozen=True)
class StaticAtom(Formula):
    pred: str
    args: tuple[ObjTerm, ...] = ()


@dataclass(frozen=True)
class ObjEq(Formula):
    lhs: ObjTerm
    rhs: ObjTerm


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-nested conjunction; TRUE for the empty sequence."""
    out: Optional[Formula] = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TRUE if out is None else out


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-nested disjunction; FALSE for the empty sequence."""
    out: Optional[Formula] = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return FALSE if out is None else out


def _spine(f: Formula, node: type, unit: type) -> list[Formula]:
    """Operands along the spine of binary `node`s, left to right, dropping `unit`s."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, node):
            stack.append(f.rhs)
            stack.append(f.lhs)
        elif not isinstance(f, unit):
            out.append(f)
    return out


def flatten_and(f: Formula) -> list[Formula]:
    """Conjuncts along the And spine.  TRUE yields [], other nodes yield [f]."""
    return _spine(f, And, Truth)


def flatten_or(f: Formula) -> list[Formula]:
    """Disjuncts along the Or spine.  FALSE yields [], other nodes yield [f]."""
    return _spine(f, Or, Falsity)


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    """Vocabulary: object constants plus static, fluent and action symbols with arities.

    The four name sets must be pairwise disjoint.  Signatures compose with the
    set operators; subtraction and intersection act on names with their arities.
    """

    objects: frozenset[str] = frozenset()
    statics: frozenset[tuple[str, int]] = frozenset()
    fluents: frozenset[tuple[str, int]] = frozenset()
    actions: frozenset[tuple[str, int]] = frozenset()

    def __post_init__(self) -> None:
        groups = [
            set(self.objects),
            {n for n, _ in self.statics},
            {n for n, _ in self.fluents},
            {n for n, _ in self.actions},
        ]
        seen: set[str] = set()
        for g in groups:
            clash = seen & g
            if clash:
                raise SitcalcError(f"signature reuses names across sorts: {sorted(clash)}")
            seen |= g

    def __or__(self, other: Signature) -> Signature:
        return Signature(
            self.objects | other.objects,
            self.statics | other.statics,
            self.fluents | other.fluents,
            self.actions | other.actions,
        )

    def __and__(self, other: Signature) -> Signature:
        return Signature(
            self.objects & other.objects,
            self.statics & other.statics,
            self.fluents & other.fluents,
            self.actions & other.actions,
        )

    def __sub__(self, other: Signature) -> Signature:
        return Signature(
            self.objects - other.objects,
            self.statics - other.statics,
            self.fluents - other.fluents,
            self.actions - other.actions,
        )

    def __le__(self, other: Signature) -> bool:
        return (
            self.objects <= other.objects
            and self.statics <= other.statics
            and self.fluents <= other.fluents
            and self.actions <= other.actions
        )

    def is_empty(self) -> bool:
        return not (self.objects or self.statics or self.fluents or self.actions)

    def names(self) -> frozenset[str]:
        return frozenset(
            set(self.objects)
            | {n for n, _ in self.statics}
            | {n for n, _ in self.fluents}
            | {n for n, _ in self.actions}
        )

    def sorted_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.names()))

    def static_arity(self, name: str) -> Optional[int]:
        for n, k in self.statics:
            if n == name:
                return k
        return None

    def fluent_arity(self, name: str) -> Optional[int]:
        for n, k in self.fluents:
            if n == name:
                return k
        return None

    def action_arity(self, name: str) -> Optional[int]:
        for n, k in self.actions:
            if n == name:
                return k
        return None


# ---------------------------------------------------------------------------
# theories


@dataclass(frozen=True)
class Theory:
    axioms: tuple[Formula, ...] = ()

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)


SyntaxLike = Var | Const | ActionTerm | Formula | Theory


# ---------------------------------------------------------------------------
# traversal

_ATOMIC = (Truth, Falsity, FluentAtom, StaticAtom, ObjEq)
_BINARY = (And, Or, Implies, Iff)
_UNARY = (Not, Forall, Exists)  # one subformula, in .body
_REBUILD = object()  # map_atoms stack marker: the node below it gets its children back


def atoms_of(x: Union[Formula, Theory]) -> Iterator[Formula]:
    """Atomic subformulas of a formula or theory, left to right.

    Atomic means fluent and static atoms, object equalities, TRUE and FALSE.
    """
    stack = list(reversed(x.axioms)) if isinstance(x, Theory) else [x]
    while stack:
        f = stack.pop()
        if isinstance(f, _ATOMIC):
            yield f
        elif isinstance(f, _BINARY):
            stack.append(f.rhs)
            stack.append(f.lhs)
        elif isinstance(f, _UNARY):
            stack.append(f.body)
        else:
            raise SitcalcError(f"not a formula: {f!r}")


def map_atoms(x: Union[Formula, Theory], fn: Callable[[Formula], Formula]):
    """Replace every atomic subformula a of a formula or theory by fn(a).

    Connectives and quantifiers are rebuilt around the results; a subtree in
    which fn changed nothing comes back as the very same object.  What fn
    returns is not walked again.
    """
    if isinstance(x, Theory):
        axioms = tuple(map_atoms(ax, fn) for ax in x.axioms)
        return x if all(new is old for new, old in zip(axioms, x.axioms)) else Theory(axioms)
    todo: list = [x]
    done: list[Formula] = []
    while todo:
        f = todo.pop()
        if f is _REBUILD:
            f = todo.pop()
            if isinstance(f, _BINARY):
                rhs = done.pop()
                lhs = done.pop()
                done.append(f if lhs is f.lhs and rhs is f.rhs else type(f)(lhs, rhs))
            else:
                body = done.pop()
                if body is f.body:
                    done.append(f)
                else:
                    done.append(Not(body) if isinstance(f, Not) else type(f)(f.var, body))
        elif isinstance(f, _ATOMIC):
            done.append(fn(f))
        elif isinstance(f, _BINARY):
            todo += (f, _REBUILD, f.rhs, f.lhs)
        elif isinstance(f, _UNARY):
            todo += (f, _REBUILD, f.body)
        else:
            raise SitcalcError(f"not a formula: {f!r}")
    return done[0]


# ---------------------------------------------------------------------------
# symbols, free variables, stages


def _sig_of_term(t: Union[ObjTerm, ActionTerm], objects: set[str], actions: set[tuple[str, int]]) -> None:
    match t:
        case Const(name):
            objects.add(name)
        case ActionTerm(fn, args):
            actions.add((fn, len(args)))
            for arg in args:
                _sig_of_term(arg, objects, actions)
        case Var():
            pass
        case _:
            raise SitcalcError(f"not a term: {t!r}")


def _atom_terms(a: Formula) -> tuple[ObjTerm, ...]:
    """The terms an atomic formula applies its symbol or equality to."""
    match a:
        case FluentAtom(_, args, _) | StaticAtom(_, args):
            return args
        case ObjEq(lhs, rhs):
            return (lhs, rhs)
        case _:
            return ()


def signature_of(x: SyntaxLike) -> Signature:
    """Symbols occurring in a term, formula or theory.  Variables contribute nothing."""
    objects: set[str] = set()
    statics: set[tuple[str, int]] = set()
    fluents: set[tuple[str, int]] = set()
    actions: set[tuple[str, int]] = set()

    match x:
        case Theory() | Formula():
            for a in atoms_of(x):
                match a:
                    case FluentAtom(name, args, _):
                        fluents.add((name, len(args)))
                    case StaticAtom(name, args):
                        statics.add((name, len(args)))
                for t in _atom_terms(a):
                    _sig_of_term(t, objects, actions)
        case Var() | Const() | ActionTerm():
            _sig_of_term(x, objects, actions)
        case _:
            raise SitcalcError(f"cannot take the signature of {x!r}")

    return Signature(frozenset(objects), frozenset(statics), frozenset(fluents), frozenset(actions))


def free_vars(f: Formula) -> frozenset[str]:
    """Names of free object variables."""
    out: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        f, bound = stack.pop()
        if isinstance(f, _BINARY):
            stack.append((f.rhs, bound))
            stack.append((f.lhs, bound))
        elif isinstance(f, Not):
            stack.append((f.body, bound))
        elif isinstance(f, (Forall, Exists)):
            stack.append((f.body, bound | {f.var.name}))
        else:
            for t in _atom_terms(f):
                if isinstance(t, Var) and t.name not in bound:
                    out.add(t.name)
    return frozenset(out)


def stages_of(x: Union[Formula, Theory]) -> frozenset[Stage]:
    """Stages of the fluent atoms occurring in a formula or theory."""
    return frozenset(a.stage for a in atoms_of(x) if isinstance(a, FluentAtom))


@dataclass(frozen=True)
class UniformityReport:
    """Whether every axiom carries a single common stage on its fluent atoms.

    A theory with no fluent atoms at all counts as uniform in NOW.  offenders
    lists the indices of axioms whose stage set is mixed or disagrees with the
    rest of the theory.
    """

    uniform: bool
    stage: Optional[Stage]
    offenders: tuple[int, ...] = ()


def check_uniform(t: Theory) -> UniformityReport:
    per_axiom = [stages_of(ax) for ax in t.axioms]
    mixed = tuple(i for i, s in enumerate(per_axiom) if len(s) > 1)
    used = frozenset().union(*per_axiom) if per_axiom else frozenset()
    if mixed:
        return UniformityReport(False, None, mixed)
    if len(used) > 1:
        # every axiom is internally pure, but the theory mixes stages
        minority = min(used, key=lambda s: (sum(1 for ps in per_axiom if ps == {s}), s.value))
        offenders = tuple(i for i, s in enumerate(per_axiom) if s == {minority})
        return UniformityReport(False, None, offenders)
    stage = next(iter(used)) if used else Stage.NOW
    return UniformityReport(True, stage)


def rename_stage(x: Union[Formula, Theory], frm: Stage, to: Stage):
    """Retag every fluent atom at stage `frm` with stage `to`."""

    def retag(a: Formula) -> Formula:
        if isinstance(a, FluentAtom) and a.stage == frm:
            return FluentAtom(a.fluent, a.args, to)
        return a

    return map_atoms(x, retag)


# ---------------------------------------------------------------------------
# substitution


def _subst_term(t: ObjTerm, binding: Mapping[str, ObjTerm]) -> ObjTerm:
    match t:
        case Var(name) if name in binding:
            value = binding[name]
            if not isinstance(value, (Var, Const)):
                raise SortError(f"cannot bind object variable {name} to {value!r}")
            return value
        case _:
            return t


def _fresh_name(base: str, avoid: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def substitute(f: Formula, binding: Mapping[str, ObjTerm]) -> Formula:
    """Capture-avoiding substitution of object terms for free object variables."""
    for v in binding.values():
        if not isinstance(v, (Var, Const)):
            raise SortError(f"substitution value must be an object term, got {v!r}")

    def walk(f: Formula, binding: Mapping[str, ObjTerm]) -> Formula:
        if not binding:
            return f
        match f:
            case Truth() | Falsity():
                return f
            case FluentAtom(name, args, stage):
                return FluentAtom(name, tuple(_subst_term(t, binding) for t in args), stage)
            case StaticAtom(name, args):
                return StaticAtom(name, tuple(_subst_term(t, binding) for t in args))
            case ObjEq(lhs, rhs):
                return ObjEq(_subst_term(lhs, binding), _subst_term(rhs, binding))
            case Not(body):
                return Not(walk(body, binding))
            case And(a, b):
                return And(walk(a, binding), walk(b, binding))
            case Or(a, b):
                return Or(walk(a, binding), walk(b, binding))
            case Implies(a, b):
                return Implies(walk(a, binding), walk(b, binding))
            case Iff(a, b):
                return Iff(walk(a, binding), walk(b, binding))
            case Forall(v, body) | Exists(v, body):
                inner = {k: t for k, t in binding.items() if k != v.name}
                captured = {
                    t.name for t in inner.values() if isinstance(t, Var) and t.name == v.name
                }
                if captured:
                    avoid = set(free_vars(body)) | set(inner) | {
                        t.name for t in inner.values() if isinstance(t, Var)
                    }
                    fresh = Var(_fresh_name(v.name, avoid))
                    body = walk(body, {v.name: fresh})
                    v = fresh
                new_body = walk(body, inner)
                return Forall(v, new_body) if isinstance(f, Forall) else Exists(v, new_body)
            case _:
                raise SitcalcError(f"not a formula: {f!r}")

    return walk(f, dict(binding))


# ---------------------------------------------------------------------------
# equality-aware simplification


def _complementary(a: Formula, b: Formula) -> bool:
    return a == Not(b) or b == Not(a)


def _simp_eq(lhs: ObjTerm, rhs: ObjTerm, una: bool) -> Formula:
    if lhs == rhs:
        return TRUE
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return FALSE if una else ObjEq(lhs, rhs)
    # keep variables on the left so transformed effect conditions read x = c
    if isinstance(lhs, Const) and isinstance(rhs, Var):
        return ObjEq(rhs, lhs)
    return ObjEq(lhs, rhs)


def _conjunction_of(parts: list[Formula], una: bool) -> Formula:
    """Rebuild a conjunction: drop TRUE, dedupe, detect local contradictions."""
    out: list[Formula] = []
    bindings: dict[str, str] = {}
    for p in parts:
        if isinstance(p, Falsity):
            return FALSE
        if isinstance(p, Truth) or p in out:
            continue
        if any(_complementary(p, q) for q in out):
            return FALSE
        if una:
            match p:
                case ObjEq(Var(v), Const(c)):
                    if bindings.setdefault(v, c) != c:
                        return FALSE
                case _:
                    pass
        out.append(p)
    return conj(out)


def _disjunction_of(parts: list[Formula], una: bool) -> Formula:
    """Rebuild a disjunction: drop FALSE, dedupe, absorb subsumed disjuncts."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, Truth):
            return TRUE
        if isinstance(p, Falsity) or p in flat:
            continue
        if any(_complementary(p, q) for q in flat):
            return TRUE
        flat.append(p)
    # drop a disjunct whose conjunct set contains some other whole disjunct set,
    # and strip conjuncts refuted by another disjunct: d | (!d & e)  ==  d | e
    sets = [flatten_and(p) for p in flat]
    keep = [True] * len(flat)
    for i, si in enumerate(sets):
        if not keep[i]:
            continue
        for j, sj in enumerate(sets):
            if i == j or not keep[j]:
                continue
            if all(c in sj for c in si):
                keep[j] = False
    survivors = [i for i in range(len(flat)) if keep[i]]
    changed = False
    for i in survivors:
        others = [flat[j] for j in survivors if j != i]
        stripped = [c for c in sets[i] if not any(_complementary(c, o) for o in others)]
        if len(stripped) != len(sets[i]):
            sets[i] = stripped
            changed = True
    rebuilt = [
        _conjunction_of(sets[i], una) if (changed or len(sets[i]) != 1) else flat[i]
        for i in survivors
    ]
    return disj(rebuilt)


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


def simplify(f: Formula, una: bool = True) -> Formula:
    """Equivalence-preserving local rewriting to a fixed point.

    Covers boolean constant laws, double negation, idempotence, complement and
    subsumption inside flat conjunctions/disjunctions, reflexive equalities,
    constant disequalities under unique names, vacuous quantifiers and the
    one-point rule for exists z (z = t & phi) and forall z (z = t -> phi).
    Nonempty object domains are assumed.
    """

    def step(f: Formula) -> Formula:
        match f:
            case Truth() | Falsity() | FluentAtom() | StaticAtom():
                return f
            case ObjEq(lhs, rhs):
                return _simp_eq(lhs, rhs, una)
            case Not(body):
                match step(body):
                    case Truth():
                        return FALSE
                    case Falsity():
                        return TRUE
                    case Not(inner):
                        return inner
                    case g:
                        return Not(g)
            case And():
                parts = [step(p) for p in flatten_and(f)]
                return _conjunction_of(parts, una)
            case Or():
                parts = [step(p) for p in flatten_or(f)]
                return _disjunction_of(parts, una)
            case Implies(lhs, rhs):
                a, b = step(lhs), step(rhs)
                match (a, b):
                    case (Truth(), _):
                        return b
                    case (Falsity(), _):
                        return TRUE
                    case (_, Truth()):
                        return TRUE
                    case (_, Falsity()):
                        return step(Not(a))
                    case _ if a == b:
                        return TRUE
                    case _:
                        return Implies(a, b)
            case Iff(lhs, rhs):
                a, b = step(lhs), step(rhs)
                match (a, b):
                    case (Truth(), _):
                        return b
                    case (_, Truth()):
                        return a
                    case (Falsity(), _):
                        return step(Not(b))
                    case (_, Falsity()):
                        return step(Not(a))
                    case _ if a == b:
                        return TRUE
                    case _:
                        return Iff(a, b)
            case Forall(v, body):
                b = step(body)
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
                            return step(inst)
                    case _:
                        pass
                return Forall(v, b)
            case Exists(v, body):
                b = step(body)
                if isinstance(b, (Truth, Falsity)):
                    return b
                if v.name not in free_vars(b):
                    return b
                found = _one_point_conjuncts(v, flatten_and(b))
                if found is not None:
                    t, rest = found
                    return step(substitute(conj(rest), {v.name: t}))
                return Exists(v, b)
            case _:
                raise SitcalcError(f"not a formula: {f!r}")

    prev = f
    for _ in range(200):  # each rule shrinks the tree; the bound is a safety net
        cur = step(prev)
        if cur == prev:
            return cur
        prev = cur
    return prev


def simplify_theory(t: Theory, una: bool = True) -> Theory:
    return Theory(tuple(simplify(ax, una) for ax in t.axioms))


def split_conjunctions(t: Theory) -> Theory:
    """Split each top-level conjunction into separate axioms, dropping TRUE."""
    out: list[Formula] = []
    for ax in t.axioms:
        out.extend(flatten_and(ax))
    return Theory(tuple(out))
