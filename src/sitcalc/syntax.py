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
  every subtree that fn left unchanged, and keeps shared structure
  shared: each distinct node object is mapped once per call, across all
  the axioms of a theory, so a subtree in several places comes back as
  one object in all of them.  map_atoms_twice, the walk map_atoms makes,
  builds two such images of x at once, as forgetting needs x[g:=TRUE]
  and x[g:=FALSE].

New code that folds over atoms or rewrites atoms uses them.  signature_of,
stages_of, symbols_and_stages, rename_stage and forgetting's relativize,
replace_ground, denotation index and occurring_ground_atoms do.
flatten_and/flatten_or walk a connective spine, free_vars carries the
bound variables on its stack and substitute the binding that holds under
each binder on its; none of them recurses (substitute only to rename a
bound variable away from a capture).  literal_atom says whether a formula
is a literal, an atom or a negated atom, which the layers that take a
short path for literals ask.

These still recurse, because they compute something per connective rather
than per atom: simplify (rewrite rules per connective), the printer
surface._fmt1 (parentheses per connective, from the precedence table the
parser reads) and the oracle's evaluate and grounding compiler
oracle._compile (semantics per connective).  Their depth is the nesting
depth of the formula, not its width: simplify flattens And/Or spines,
takes the rounds that stripping a disjunction needs in a loop, folds a
Not chain into one polarity bit and walks a right-nested chain of -> and
<-> along its spine, _fmt1 prints an And/Or spine, a right-nested
-> or <-> chain and a ! chain with a loop, and surface._fmt prints the
last operand of every node in a loop, so a formula that nests along last
operands, such as a chain that alternates ! and <-> or quantifiers of
alternating kinds, costs it no recursion, evaluate walks a left-nested And/Or spine and a right-nested -> chain
with a loop and folds a Not chain into one polarity bit, and _compile
makes each And/Or spine and each -> chain one n-ary node and folds Not
chains into the polarity.  The dataclass-generated __eq__, __hash__ and
__repr__ of the nodes recurse too, so comparing or hashing two
deep trees that share no subtree can still hit the recursion limit.  The
parser does not recurse: surface._Parser._formula keeps its own operator
and operand stacks.

simplify and free_vars memoize their results on the nodes themselves, in
slots that Formula declares: a node is immutable, so what was computed for
it once holds for as long as it lives, and a subtree shared between an
input and a result (map_atoms shares every unchanged one), or between
places in one formula or theory, is not simplified again.  simplify's memo
is a node's normal form, so one lookup answers for the whole subtree.  A
node that a rule builds from normal parts, and that no rule could rewrite
again, is marked normal as it is built, so a later call stops at it.  The
memo lives in slots rather than in an instance __dict__ because a dict
would cost every node, memoized or not, a few hundred bytes (on CPython
3.11 a slotted And is 72 bytes, a plain dataclass And with its dict 352),
and a progressed theory holds tens of thousands of nodes.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import SitcalcError, SortError


class Stage(enum.Enum):
    NOW = "now"
    NEXT = "next"

    # Enum hashes a member by a Python-level hash of its name; the members
    # are singletons, which pickling and copying keep, so identity will do
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# terms


def _slot_init(cls: type) -> type:
    """Give the slotted frozen dataclass cls an __init__ that stores each
    field through its slot descriptor's __set__.

    The __init__ that dataclass writes for a frozen class stores each field
    with object.__setattr__, which finds the slot by name on every call.
    The descriptor's own setter is bound once here: on CPython 3.11 a
    FluentAtom is then built in about 0.45 us instead of 0.65 us, and a
    parse of a complete ground world builds thousands of nodes.  The
    fields stay keyword parameters with their defaults, so
    dataclasses.replace works as before, and assignment still raises
    FrozenInstanceError.  The function is compiled from source as
    dataclass compiles its own, so that it has the fields' names.
    """
    env: dict[str, object] = {}
    params = []
    for f in fields(cls):
        env[f"set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"default_{f.name}"] = f.default
            params.append(f"{f.name}=default_{f.name}")
    stores = "".join(f"\n        set_{f.name}(self, {f.name})" for f in fields(cls))
    source = f"def make({', '.join(env)}):\n    def __init__(self, {', '.join(params)}):{stores}\n    return __init__"
    scope: dict[str, object] = {}
    exec(source, scope)
    init = scope["make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@_slot_init
@dataclass(frozen=True, slots=True)
class Const:
    name: str

    def __repr__(self) -> str:
        return f"Const({self.name!r})"


# Module-level unions are written with `|`: a typing.Union alias enters
# typing's caches, which then keep every earlier import of the package alive.
ObjTerm = Var | Const


@dataclass(frozen=True, slots=True)
class ActionTerm:
    fn: str
    args: tuple[ObjTerm, ...] = ()

    def __post_init__(self) -> None:
        for t in self.args:
            if not isinstance(t, (Var, Const)):
                raise SortError(f"action argument must be an object term, got {t!r}")


# ---------------------------------------------------------------------------
# formulas


class Formula:
    """Base class; all nodes are slotted frozen dataclasses below.

    The slots declared here are per-node memos, not fields: they take no
    part in equality, hashing or repr.  _simp_una and _simp_no_una hold
    simplify's normal form with and without unique names, _fv the free
    variables.  An unset slot means not computed yet.

    A node is built by an __init__ that _slot_init gives its class: it
    stores each field through the field's slot descriptor, which parsing
    a complete ground world, thousands of nodes, does faster than the
    object.__setattr__ of dataclass's own frozen __init__.  Everything
    else is dataclass's: the keyword parameters and defaults that
    dataclasses.replace calls, __match_args__, __eq__, __hash__, __repr__
    and the __setattr__ that raises FrozenInstanceError.
    """

    __slots__ = ("_simp_una", "_simp_no_una", "_fv")


@dataclass(frozen=True, slots=True)
class Truth(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Falsity(Formula):
    pass


TRUE = Truth()
FALSE = Falsity()


@_slot_init
@dataclass(frozen=True, slots=True)
class FluentAtom(Formula):
    fluent: str
    args: tuple[ObjTerm, ...]
    stage: Stage = Stage.NOW


@_slot_init
@dataclass(frozen=True, slots=True)
class StaticAtom(Formula):
    pred: str
    args: tuple[ObjTerm, ...] = ()


@_slot_init
@dataclass(frozen=True, slots=True)
class ObjEq(Formula):
    lhs: ObjTerm
    rhs: ObjTerm


@_slot_init
@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@_slot_init
@dataclass(frozen=True, slots=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@_slot_init
@dataclass(frozen=True, slots=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@_slot_init
@dataclass(frozen=True, slots=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@_slot_init
@dataclass(frozen=True, slots=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@_slot_init
@dataclass(frozen=True, slots=True)
class Forall(Formula):
    var: Var
    body: Formula


@_slot_init
@dataclass(frozen=True, slots=True)
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
        if type(f) is node:
            stack.append(f.rhs)
            stack.append(f.lhs)
        elif type(f) is not unit:
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
        return self._valid(
            self.objects & other.objects,
            self.statics & other.statics,
            self.fluents & other.fluents,
            self.actions & other.actions,
        )

    def __sub__(self, other: Signature) -> Signature:
        return self._valid(
            self.objects - other.objects,
            self.statics - other.statics,
            self.fluents - other.fluents,
            self.actions - other.actions,
        )

    @staticmethod
    def _valid(objects, statics, fluents, actions) -> Signature:
        """A signature whose name sets are subsets of a valid signature's,
        built without the disjointness check they cannot fail."""
        s = object.__new__(Signature)
        s.__dict__.update(objects=objects, statics=statics, fluents=fluents, actions=actions)
        return s

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

# Node kinds, tested as type(f) in KIND: the nodes are final classes.
_PREDICATIONS = frozenset({FluentAtom, StaticAtom})
_LITERAL_ATOMS = _PREDICATIONS | {ObjEq}
_ATOMIC = _LITERAL_ATOMS | {Truth, Falsity}
_BINARY = frozenset({And, Or, Implies, Iff})
_UNARY = frozenset({Not, Forall, Exists})  # one subformula, in .body
_REBUILD = object()  # map_atoms stack marker: the node below it gets its children back


def literal_atom(f: Formula) -> Optional[Formula]:
    """The atom of f if f is a literal, a fluent or static atom or the
    negation of one: f itself, or the negated atom; None for any other
    formula.  A complete ground world is hundreds of such axioms, so the
    parser, the printer, forgetting's index and progression's stage
    bookkeeping each take a short path for them, which this states."""
    node = type(f)
    if node is FluentAtom or node is StaticAtom:
        return f
    if node is Not:
        node = type(f.body)
        if node is FluentAtom or node is StaticAtom:
            return f.body
    return None


def atoms_of(x: Union[Formula, Theory]) -> Iterator[Formula]:
    """Atomic subformulas of a formula or theory, left to right.

    Atomic means fluent and static atoms, object equalities, TRUE and FALSE.
    """
    stack = list(reversed(x.axioms)) if type(x) is Theory else [x]
    while stack:
        f = stack.pop()
        node = type(f)
        if node in _ATOMIC:
            yield f
        elif node in _BINARY:
            stack.append(f.rhs)
            stack.append(f.lhs)
        elif node in _UNARY:
            stack.append(f.body)
        else:
            raise SitcalcError(f"not a formula: {f!r}")


def map_atoms(x: Union[Formula, Theory], fn: Callable[[Formula], Formula]):
    """Replace every atomic subformula a of a formula or theory by fn(a).

    Connectives and quantifiers are rebuilt around the results; a subtree in
    which fn changed nothing comes back as the very same object.  What fn
    returns is not walked again.  Each distinct node object is mapped once
    per call, across all the axioms of a theory: a subtree that occurs in
    several places comes back as one object in all of them, and fn runs
    once per distinct atom object, so fn must be pure.
    """
    return map_atoms_twice(x, lambda a: (b := fn(a), b))[0]


def _with_parts(f: Formula, lhs: Formula, rhs: Formula) -> Formula:
    """The binary node f with the given operands; f itself if they are its own."""
    return f if lhs is f.lhs and rhs is f.rhs else type(f)(lhs, rhs)


def _with_body(f: Formula, body: Formula) -> Formula:
    """The negation or quantifier f with the given body; f itself if it is its own."""
    if body is f.body:
        return f
    return Not(body) if isinstance(f, Not) else type(f)(f.var, body)


def map_atoms_twice(x: Union[Formula, Theory], fn: Callable[[Formula], tuple[Formula, Formula]]):
    """Two map_atoms calls in one walk: fn(a) is the pair of images of an
    atomic subformula a, and the result is the pair of rebuilt formulas or
    theories.  A subtree that is the same in both images is one object, the
    input's own where fn changed nothing in it.
    """
    roots = x.axioms if isinstance(x, Theory) else (x,)
    memo: dict[int, tuple[Formula, Formula]] = {}
    out: list[tuple[Formula, Formula]] = []
    for root in roots:
        todo: list = [root]
        done: list[tuple[Formula, Formula]] = []
        while todo:
            f = todo.pop()
            if f is _REBUILD:
                f = todo.pop()
                if type(f) in _BINARY:
                    (r1, r2), (l1, l2) = done.pop(), done.pop()
                    one = _with_parts(f, l1, r1)
                    two = one if l2 is l1 and r2 is r1 else _with_parts(f, l2, r2)
                else:
                    b1, b2 = done.pop()
                    one = _with_body(f, b1)
                    two = one if b2 is b1 else _with_body(f, b2)
                new = (one, two)
            else:
                new = memo.get(id(f))
                if new is not None:
                    done.append(new)
                    continue
                node = type(f)
                if node in _ATOMIC:
                    new = fn(f)
                elif node in _BINARY:
                    todo += (f, _REBUILD, f.rhs, f.lhs)
                    continue
                elif node in _UNARY:
                    todo += (f, _REBUILD, f.body)
                    continue
                else:
                    raise SitcalcError(f"not a formula: {f!r}")
            memo[id(f)] = new
            done.append(new)
        out.append(done[0])
    if isinstance(x, Theory):
        return tuple(
            x if all(new is old for new, old in zip(images, x.axioms)) else Theory(images)
            for images in zip(*out)
        ) if out else (x, x)
    return out[0]


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
    match x:
        case Theory() | Formula():
            return symbols_and_stages(x)[0]
        case Var() | Const() | ActionTerm():
            objects: set[str] = set()
            actions: set[tuple[str, int]] = set()
            _sig_of_term(x, objects, actions)
            return Signature(objects=frozenset(objects), actions=frozenset(actions))
        case _:
            raise SitcalcError(f"cannot take the signature of {x!r}")


def symbols_and_stages(x: Union[Formula, Theory]) -> tuple[Signature, frozenset[Stage]]:
    """signature_of(x) and stages_of(x) from one walk over x."""
    objects: set[str] = set()
    statics: set[tuple[str, int]] = set()
    fluents: set[tuple[str, int]] = set()
    actions: set[tuple[str, int]] = set()
    stages: set[Stage] = set()
    for a in atoms_of(x):
        match a:
            case FluentAtom(name, args, stage):
                fluents.add((name, len(args)))
                stages.add(stage)
            case StaticAtom(name, args):
                statics.add((name, len(args)))
        for t in _atom_terms(a):
            _sig_of_term(t, objects, actions)
    sig = Signature(frozenset(objects), frozenset(statics), frozenset(fluents), frozenset(actions))
    return sig, frozenset(stages)


def free_vars(f: Formula) -> frozenset[str]:
    """Names of free object variables, memoized on the node."""
    fv = getattr(f, "_fv", None)
    if fv is not None:
        return fv
    out: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        node = type(g)  # dispatched by identity: this runs on every parsed sentence
        if node is FluentAtom or node is StaticAtom:
            terms = g.args
        elif node is ObjEq:
            terms = (g.lhs, g.rhs)
        else:
            known = getattr(g, "_fv", None)
            if known is not None:
                out.update(known - bound)
            elif node is Not:
                stack.append((g.body, bound))
            elif node in _BINARY:
                stack.append((g.rhs, bound))
                stack.append((g.lhs, bound))
            elif node is Forall or node is Exists:
                stack.append((g.body, bound | {g.var.name}))
            continue
        for t in terms:
            if type(t) is Var and t.name not in bound:
                out.add(t.name)
    fv = frozenset(out)
    object.__setattr__(f, "_fv", fv)
    return fv


def stages_of(x: Union[Formula, Theory]) -> frozenset[Stage]:
    """Stages of the fluent atoms occurring in a formula or theory."""
    return frozenset(a.stage for a in atoms_of(x) if isinstance(a, FluentAtom))


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
    return _subst(f, dict(binding))


def _subst(f: Formula, binding: Mapping[str, ObjTerm]) -> Formula:
    """substitute's walk, with its own stack: a module-level function, not
    a closure that refers to itself and so leaves a reference cycle behind
    each call.  Each pending node carries the binding that holds under its
    binders; a subtree under an empty binding comes back as it is, and the
    rest is rebuilt.  Renaming a bound variable away from a capture is a
    walk of its own over the quantifier's body."""
    todo: list = [(f, binding)]
    done: list[Formula] = []
    while todo:
        f, binding = todo.pop()
        if binding is _REBUILD:
            if type(f) is tuple:  # (quantifier class, its variable)
                done.append(f[0](f[1], done.pop()))
            elif type(f) is Not:
                done.append(Not(done.pop()))
            else:
                rhs = done.pop()
                done.append(type(f)(done.pop(), rhs))
            continue
        node = type(f)
        if not binding or node is Truth or node is Falsity:
            done.append(f)
        elif node is FluentAtom:
            done.append(FluentAtom(f.fluent, tuple([_subst_term(t, binding) for t in f.args]), f.stage))
        elif node is StaticAtom:
            done.append(StaticAtom(f.pred, tuple([_subst_term(t, binding) for t in f.args])))
        elif node is ObjEq:
            done.append(ObjEq(_subst_term(f.lhs, binding), _subst_term(f.rhs, binding)))
        elif node is Not:
            todo += ((f, _REBUILD), (f.body, binding))
        elif node in _BINARY:
            todo += ((f, _REBUILD), (f.rhs, binding), (f.lhs, binding))
        elif node is Forall or node is Exists:
            v, body = f.var, f.body
            inner = {k: t for k, t in binding.items() if k != v.name}
            captured = {
                t.name for t in inner.values() if isinstance(t, Var) and t.name == v.name
            }
            if captured:
                avoid = set(free_vars(body)) | set(inner) | {
                    t.name for t in inner.values() if isinstance(t, Var)
                }
                fresh = Var(_fresh_name(v.name, avoid))
                body = _subst(body, {v.name: fresh})
                v = fresh
            todo += (((node, v), _REBUILD), (body, inner))
        else:
            raise SitcalcError(f"not a formula: {f!r}")
    return done[0]


# ---------------------------------------------------------------------------
# equality-aware simplification


def _complement_in(p: Formula, kept: list[Formula], negs: list[Formula]) -> bool:
    """Is p the complement of a formula in kept?  negs holds the bodies of its Nots."""
    return (type(p) is Not and p.body in kept) or p in negs


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
        return _mark_normal(ObjEq(rhs, lhs), una)
    return f


def _is_chain(f: Formula, node: type, parts: list[Formula]) -> bool:
    """Is f, operand for operand, the left-nested chain conj/disj builds from parts?"""
    for p in reversed(parts[1:]):
        if type(f) is not node or f.rhs is not p:
            return False
        f = f.lhs
    return bool(parts) and f is parts[0]


def _conjunction_of(parts: list[Formula], una: bool, f: Formula) -> Formula:
    """The normal form of the conjunction f of these normal parts: drop
    TRUE, dedupe, detect local contradictions.

    f itself is returned if the rebuilt chain would equal it.  A rebuilt
    chain with no And part is normal, as a rewrite would keep the same
    parts; one with an And part is normalized again, which flattens it.
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
    if _is_chain(f, And, out):
        return f
    g = conj(out)
    if len(out) < 2:
        return g
    if any(type(p) is And for p in out):
        return _step(g, una)
    return _mark_normal(g, una)


def _is_literal(p: Formula) -> bool:
    return type(p) in _LITERAL_ATOMS or (type(p) is Not and type(p.body) in _LITERAL_ATOMS)


def _subsumes(si: list[Formula], sj: list[Formula]) -> bool:
    """Does the conjunct set sj hold every conjunct of si?"""
    return all(c in sj for c in si)


def _disjunction_of(parts: list[Formula], una: bool, f: Optional[Formula]) -> Formula:
    """The normal form of the disjunction f of these normal parts: drop
    FALSE, dedupe, absorb subsumed disjuncts.

    f itself, if given, is returned if the rebuilt chain would equal it.
    A rebuilt chain is normal if nothing was stripped and no part is an
    Or, as the survivors of absorption subsume one another nowhere.
    Otherwise the rebuilt parts, which are normal, are flattened and taken
    round again, as simplify would take their disjunction: stripping may
    expose more to absorb or strip.  The rounds are a loop, as a staircase
    d1 | (!d1 & d2) | (!d2 & d3) | ... strips one conjunct a round.  A
    survivor that a round left as it was is no repeat or complement of
    another such survivor, so the next round dedupes it only against the
    parts that were rebuilt.
    """
    fresh: Optional[list[bool]] = None  # which parts a round rebuilt
    while True:
        flat = _disjuncts(parts, fresh)
        if flat is None:
            return TRUE
        survivors, sets, cut = _absorb(flat)
        # a disjunct that kept its conjuncts is normal as it is
        rebuilt = [_conjunction_of(sets[i], una, flat[i]) if i in cut else flat[i] for i in survivors]
        if _is_chain(f, Or, rebuilt):
            return f
        if len(rebuilt) < 2:
            return disj(rebuilt)
        if not cut and not any(type(p) is Or for p in rebuilt):
            return _mark_normal(disj(rebuilt), una)
        parts = []
        fresh = []
        for i, p in zip(survivors, rebuilt):
            if p is flat[i] and type(p) is not Or:
                parts.append(p)
                fresh.append(False)
            else:
                more = flatten_or(p)
                parts += more
                fresh += [True] * len(more)
        f = None  # a later round has no node of its own to return


def _disjuncts(parts: list[Formula], fresh: Optional[list[bool]] = None) -> Optional[list[Formula]]:
    """The parts without FALSE and repeats; None if one is TRUE or the
    complement of another.

    fresh, if given, marks the parts that can be new: the others are
    known to be neither TRUE nor FALSE, and no repeat or complement of one
    another, so each of them is tested only against the fresh parts kept
    before it.
    """
    flat = _kept(len(parts))
    negs = _kept(len(parts))
    if fresh is not None:
        new = _kept(len(parts))  # the fresh parts kept
        new_negs = _kept(len(parts))
    for k, p in enumerate(parts):
        if fresh is not None and not fresh[k]:
            if p in new:
                continue
            if _complement_in(p, new, new_negs):
                return None
        else:
            if isinstance(p, Truth):
                return None
            if isinstance(p, Falsity) or p in flat:
                continue
            if _complement_in(p, flat, negs):
                return None
            if fresh is not None:
                new.append(p)
                if type(p) is Not:
                    new_negs.append(p.body)
        flat.append(p)
        if type(p) is Not:
            negs.append(p.body)
    return flat


def _absorb(flat: list[Formula]) -> tuple[list[int], list[list[Formula]], set[int]]:
    """Absorption and stripping over the disjuncts flat.

    Drops a disjunct whose conjunct set contains some other whole disjunct
    set, and strips conjuncts refuted by another disjunct: d | (!d & e) ==
    d | e.  Returns the indices of the survivors, the conjunct set of each
    disjunct after stripping, and the indices of the stripped ones.
    """
    sets = [flatten_and(p) for p in flat]
    members = [_kept(len(s), s) for s in sets]
    keep = [True] * len(flat)
    # A set is tested only against the disjuncts that hold its first literal
    # conjunct, found in an index of literal conjuncts; a set without one is
    # tested against them all.
    holders: dict[Formula, list[int]] = {}
    firsts: list[Optional[Formula]] = []
    for j, s in enumerate(sets):
        first = None
        for c in s:
            if _is_literal(c):
                holders.setdefault(c, []).append(j)
                if first is None:
                    first = c
        firsts.append(first)
    everyone = range(len(flat))
    for i, si in enumerate(sets):
        if not keep[i]:
            continue
        first = firsts[i]
        for j in everyone if first is None else holders[first]:
            if i != j and keep[j] and _subsumes(si, members[j]):
                keep[j] = False
    survivors = [i for i in everyone if keep[i]]
    # No disjunct is the complement of one of its own conjuncts, so testing
    # against all the survivors is testing against the others.
    others = _kept(len(survivors))
    other_negs = _kept(len(survivors))
    for i in survivors:
        others.append(flat[i])
        if type(flat[i]) is Not:
            other_negs.append(flat[i].body)
    cut = set()
    for i in survivors:
        stripped = [c for c in sets[i] if not _complement_in(c, others, other_negs)]
        if len(stripped) != len(sets[i]):
            sets[i] = stripped
            cut.add(i)
    return survivors, sets, cut


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


_NORMAL = object()  # simplify memo: no rule rewrites the node
_SLOT = ("_simp_no_una", "_simp_una")  # the memo slot, indexed by una
_INERT = _ATOMIC - {ObjEq}
_LINKS = frozenset({Not, Implies, Iff})  # the links of a chain simplify walks along its spine


def _inert(f: Formula) -> bool:
    """Is f a node that no rule rewrites, needing no memo: TRUE, FALSE or a
    literal?  literal_atom inline, as simplify asks this of every node."""
    node = type(f)
    return node in _INERT or (node is Not and type(f.body) in _PREDICATIONS)


def _mark_normal(f: Formula, una: bool) -> Formula:
    object.__setattr__(f, _SLOT[una], _NORMAL)
    return f


def _step(f: Formula, una: bool) -> Formula:
    """The normal form of f, memoized on the node per una value.

    Returns f itself when f is normal.  A normal node stores _NORMAL rather
    than a reference to itself, which would make it a reference cycle.
    Inert nodes keep no memo.
    """
    if _inert(f):
        return f
    slot = _SLOT[una]
    memo = getattr(f, slot, None)
    if memo is not None:
        return f if memo is _NORMAL else memo
    out = _rewrite(f, una)
    object.__setattr__(f, slot, _NORMAL if out is f else out)
    return out


def _rewrite(f: Formula, una: bool) -> Formula:
    """The normal form of f, a node that is not inert, from the normal
    forms of its parts.  A node that a rule builds from normal parts, and
    that no rule could rewrite again, is marked normal; any other rule
    result is normalized in turn."""
    match f:
        case ObjEq():
            return _simp_eq(f, una)
        case Not() | Implies() | Iff():
            # a right-nested chain of links, each a -> or <-> link or a run
            # of !, is walked along its spine: the links below f that need a
            # memo and have none yet are normalized and memoized innermost
            # first, as _step would
            slot = _SLOT[una]
            links = []
            link = f
            while True:
                below, neg = _below(link)
                links.append((link, neg))
                if type(below) not in _LINKS or _inert(below) or getattr(below, slot, None) is not None:
                    break
                link = below
            out = _step(below, una)
            for link, neg in reversed(links):
                if type(link) is Not:
                    out = _negation(link, out, neg, una)
                else:
                    rule = _implication if type(link) is Implies else _biconditional
                    out = rule(link, _step(link.lhs, una), out, una)
                if link is not f:
                    object.__setattr__(link, slot, _NORMAL if out is link else out)
            return out
        case And():
            parts = [_step(p, una) for p in flatten_and(f)]
            return _conjunction_of(parts, una, f)
        case Or():
            parts = [_step(p, una) for p in flatten_or(f)]
            return _disjunction_of(parts, una, f)
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
            return f if b is body else _mark_normal(Forall(v, b), una)
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
            return f if b is body else _mark_normal(Exists(v, b), una)
        case _:
            raise SitcalcError(f"not a formula: {f!r}")


def _below(f: Formula) -> tuple[Formula, bool]:
    """The node below the link f on a chain's spine, and whether f negates
    it: the right side of a -> or <-> link, or the node under a run of !,
    whose parity is one polarity bit rather than one link per !."""
    if type(f) is not Not:
        return f.rhs, False
    neg = True
    f = f.body
    while type(f) is Not:
        f = f.body
        neg = not neg
    return f, neg


def _negation(f: Not, g: Formula, neg: bool, una: bool) -> Formula:
    """The normal form of the run of ! that f heads, given the normal form g
    of the node under the run and the run's parity neg."""
    if not neg:
        return g
    match g:
        case Truth():
            return FALSE
        case Falsity():
            return TRUE
        case Not(inner):
            return inner
        case _ if g is f.body:
            return f
        case _:
            return _mark_normal(Not(g), una)


def _implication(f: Implies, a: Formula, b: Formula, una: bool) -> Formula:
    """The normal form of f, given the normal forms a of its antecedent and
    b of its consequent."""
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
        case _ if a is f.lhs and b is f.rhs:
            return f
        case _:
            return _mark_normal(Implies(a, b), una)


def _biconditional(f: Iff, a: Formula, b: Formula, una: bool) -> Formula:
    """The normal form of f, given the normal forms a and b of its sides."""
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
        case _ if a is f.lhs and b is f.rhs:
            return f
        case _:
            return _mark_normal(Iff(a, b), una)


def simplify(f: Formula, una: bool = True) -> Formula:
    """Equivalence-preserving local rewriting to a normal form.

    Covers boolean constant laws, double negation, idempotence, complement and
    subsumption inside flat conjunctions/disjunctions, reflexive equalities,
    constant disequalities under unique names, vacuous quantifiers and the
    one-point rule for exists z (z = t & phi) and forall z (z = t -> phi).
    Nonempty object domains are assumed.  The result of a simplify call is
    its own simplification, as the very same object.

    Each node's normal form is memoized on it (_step), so a node shared
    with an earlier call, or between places in one formula, is normalized
    once.  A node that a rule builds from normal parts, and that no rule
    could rewrite again, is marked normal as it is built; any other rule
    result is normalized in turn.  Atoms other than equalities, and their
    negations, keep no memo.
    """
    return _step(f, una)


def simplify_theory(t: Theory, una: bool = True) -> Theory:
    return Theory(tuple(simplify(ax, una) for ax in t.axioms))


def split_conjunctions(t: Theory) -> Theory:
    """Split each top-level conjunction into separate axioms, dropping TRUE."""
    out: list[Formula] = []
    for ax in t.axioms:
        if type(ax) is And or type(ax) is Truth:
            out.extend(flatten_and(ax))
        else:
            out.append(ax)
    return Theory(tuple(out))
