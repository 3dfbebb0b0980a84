"""Canonical successor state axioms and basic action theories.

SSAs are kept structural: a list of positive and a list of negative effect
disjuncts, each an action term under optional existential quantifiers with
a context condition at the current stage, read as
[exists ys] a == A(ts) & context.  The action variable a and its equality
are never formulas: for a ground action, unique names for actions settle
a == A(ts) from the structure alone.  The local-effect check reads the
action arguments off the structure.  The ground-action transform builds
formulas: it settles each disjunct's action equality, binding the
quantified action arguments to the action's constants, builds the
disjunction of the surviving blocks, simplifies it and splits it back into
blocks, which argument sets, the characteristic set and the instantiation
of the SSAs then read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import MalformedTransform, MissingAxiom, SitcalcError, SourceSpan
from .forgetting import GroundAtom, sorted_atoms
from .syntax import (
    FALSE,
    TRUE,
    ActionTerm,
    And,
    Const,
    Exists,
    Falsity,
    FluentAtom,
    Formula,
    Iff,
    Not,
    ObjEq,
    Or,
    Signature,
    Stage,
    Theory,
    Truth,
    Var,
    conj,
    disj,
    flatten_and,
    flatten_or,
    free_vars,
    signature_of,
    simplify,
    substitute,
    symbols_and_stages,
)

# ---------------------------------------------------------------------------
# structure


@dataclass(frozen=True)
class EffectDisjunct:
    """One disjunct of an effect condition: [exists ys] a == A(ts) [& context].

    context is a formula at the current stage whose free variables must lie
    within the SSA head variables, the quantified variables and the action
    argument variables.
    """

    exists_vars: tuple[Var, ...]
    action: ActionTerm
    context: Formula = TRUE


@dataclass(frozen=True)
class SSA:
    """Successor state axiom for one fluent in canonical form.

    Reads as: fluent(head_vars) holds next iff some positive disjunct fires,
    or it holds now and no negative disjunct fires.  Empty disjunct lists
    denote an unsatisfiable effect condition.
    """

    fluent: str
    head_vars: tuple[Var, ...]
    pos: tuple[EffectDisjunct, ...] = ()
    neg: tuple[EffectDisjunct, ...] = ()

    def action_functions(self) -> tuple[frozenset[str], frozenset[str]]:
        return (
            frozenset(d.action.fn for d in self.pos),
            frozenset(d.action.fn for d in self.neg),
        )


@dataclass(frozen=True)
class Precondition:
    """Right-hand side of a precondition axiom for one action function."""

    action: str
    params: tuple[Var, ...]
    formula: Formula = TRUE


@dataclass(frozen=True)
class GroundAction:
    fn: str
    args: tuple[str, ...] = ()

    def term(self) -> ActionTerm:
        return ActionTerm(self.fn, tuple(Const(c) for c in self.args))

    def __str__(self) -> str:
        return f"{self.fn}({', '.join(self.args)})"


@dataclass(frozen=True)
class BAT:
    """A basic action theory over the declared signature.

    Unique names for constants and for distinct action functions are part of
    the semantics, not stored as axioms.  spans maps keys such as "ssa:On"
    or "init:3" to source positions; a parsed BAT computes them when first
    read.
    """

    sig: Signature
    init: Theory
    preconditions: tuple[Precondition, ...] = ()
    ssas: tuple[SSA, ...] = ()
    spans: Sequence[tuple[str, SourceSpan]] = field(default=(), compare=False)
    # (id(ssa), action) -> (ssa, transform_ssa(ssa, action)); see _transformed
    _transformed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ssa(self, fluent: str) -> Optional[SSA]:
        for s in self.ssas:
            if s.fluent == fluent:
                return s
        return None

    def precondition(self, action: str) -> Optional[Precondition]:
        for p in self.preconditions:
            if p.action == action:
                return p
        return None

    def span_of(self, key: str) -> Optional[SourceSpan]:
        for k, span in self.spans:
            if k == key:
                return span
        return None


@dataclass(frozen=True)
class TransformedSSA:
    """An SSA with a fixed ground action substituted and action talk removed.

    gamma_pos and gamma_neg are disjunctions of blocks that pair constant
    bindings for the head variables with a residual context condition at the
    current stage.
    """

    fluent: str
    head_vars: tuple[Var, ...]
    gamma_pos: Formula
    gamma_neg: Formula
    # the blocks of gamma_pos and of gamma_neg, each a tuple of pairs of
    # head constants and residual context, as _split_disjunct reads them
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(
            tuple(_split_disjunct(self.fluent, self.head_vars, b) for b in _disjuncts_of(g))
            for g in (self.gamma_pos, self.gamma_neg)
        ))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Violation:
    message: str
    span: Optional[SourceSpan] = None

    def __str__(self) -> str:
        return f"{self.span}: {self.message}" if self.span else self.message


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class LocalEffectReport:
    local_effect: bool
    offenders: tuple[str, ...] = ()  # fluent names whose SSA breaks the condition


# ---------------------------------------------------------------------------
# validation


def _arg_var_names(action: ActionTerm) -> frozenset[str]:
    return frozenset(t.name for t in action.args if isinstance(t, Var))


def validate(b: BAT, strict: bool = False) -> ValidationReport:
    """Structural well-formedness report; an empty error list means valid.

    The consistency restriction (an action function appearing in both the
    positive and the negative effect condition of one SSA) is a warning by
    default because the bundled worked examples themselves exhibit it;
    strict mode turns it into an error.
    """
    errors: list[Violation] = []
    warnings: list[Violation] = []

    def err(msg: str, key: Optional[str] = None) -> None:
        errors.append(Violation(msg, b.span_of(key) if key else None))

    def warn(msg: str, key: Optional[str] = None) -> None:
        warnings.append(Violation(msg, b.span_of(key) if key else None))

    def check(f: Formula, bound: frozenset[str], key: str, subject: str, where: str) -> None:
        """f is at the current stage, declared, and free only in bound."""
        sig, stages = symbols_and_stages(f)
        if not stages <= frozenset({Stage.NOW}):
            err(f"{subject} is not at the current stage", key)
        if not sig <= b.sig:
            bad = (sig - b.sig).sorted_names()
            err(f"undeclared symbols {', '.join(bad)} in {where}", key)
        loose = free_vars(f) - bound
        if loose:
            err(f"free variables {', '.join(sorted(loose))} in {where}", key)

    seen_fluents: set[str] = set()
    for s in b.ssas:
        key = f"ssa:{s.fluent}"
        if s.fluent in seen_fluents:
            err(f"duplicate successor state axiom for {s.fluent}", key)
        seen_fluents.add(s.fluent)
        declared = b.sig.fluent_arity(s.fluent)
        if declared is None:
            err(f"successor state axiom for undeclared fluent {s.fluent}", key)
        elif declared != len(s.head_vars):
            err(f"{s.fluent} declared with arity {declared} but SSA head has {len(s.head_vars)}", key)
        head = [v.name for v in s.head_vars]
        if len(set(head)) != len(head):
            err(f"repeated head variable in SSA for {s.fluent}", key)
        for d in s.pos + s.neg:
            ex = [v.name for v in d.exists_vars]
            if len(set(ex)) != len(ex) or set(ex) & set(head):
                err(f"quantified variables of an effect disjunct of {s.fluent} clash", key)
            ar = b.sig.action_arity(d.action.fn)
            if ar is None:
                err(f"undeclared action {d.action.fn} in SSA for {s.fluent}", key)
            elif ar != len(d.action.args):
                err(f"action {d.action.fn} used with {len(d.action.args)} arguments, declared {ar}", key)
            for t in d.action.args:
                if isinstance(t, Const) and t.name not in b.sig.objects:
                    err(f"undeclared constant {t.name} in SSA for {s.fluent}", key)
            check(
                d.context, frozenset(head + ex) | _arg_var_names(d.action), key,
                f"context condition in SSA for {s.fluent}", f"context of SSA for {s.fluent}",
            )
        shared = frozenset.intersection(*s.action_functions())
        for fn in sorted(shared):
            msg = f"action {fn} occurs in both effect conditions of {s.fluent}"
            (err if strict else warn)(msg, key)

    seen_actions: set[str] = set()
    for p in b.preconditions:
        key = f"poss:{p.action}"
        if p.action in seen_actions:
            err(f"duplicate precondition axiom for {p.action}", key)
        seen_actions.add(p.action)
        ar = b.sig.action_arity(p.action)
        if ar is None:
            err(f"precondition axiom for undeclared action {p.action}", key)
        elif ar != len(p.params):
            err(f"{p.action} declared with arity {ar} but precondition has {len(p.params)} parameters", key)
        names = [v.name for v in p.params]
        if len(set(names)) != len(names):
            err(f"repeated parameter in precondition for {p.action}", key)
        subject = f"precondition for {p.action}"
        check(p.formula, frozenset(names), key, subject, subject)

    for i, ax in enumerate(b.init.axioms):
        check(ax, frozenset(), f"init:{i}", f"initial axiom {i}", f"initial axiom {i}")

    without_ssa = signature_of(b.init).fluents - frozenset(
        (s.fluent, len(s.head_vars)) for s in b.ssas
    )
    for name, _ in sorted(without_ssa):
        warn(f"fluent {name} appears in the initial theory but has no successor state axiom")

    return ValidationReport(tuple(errors), tuple(warnings))


def is_local_effect(b: BAT) -> LocalEffectReport:
    """Do the argument lists of all effect actions cover their head variables?

    Checked per disjunct: every head variable of the SSA must occur among the
    action's arguments, so a ground action can only change the fluent on
    argument tuples named by its own constants.
    """
    offenders = []
    for s in b.ssas:
        head = frozenset(v.name for v in s.head_vars)
        if any(not head <= _arg_var_names(d.action) for d in s.pos + s.neg):
            offenders.append(s.fluent)
    return LocalEffectReport(not offenders, tuple(offenders))


# ---------------------------------------------------------------------------
# precondition inlining


def inline_preconditions(b: BAT) -> BAT:
    """Move each precondition into the contexts of the disjuncts that use it.

    The effect conditions then only fire for executable actions.  The
    precondition map of the result is trivial.
    """

    def add(d: EffectDisjunct) -> EffectDisjunct:
        p = b.precondition(d.action.fn)
        if p is None or p.formula == TRUE:
            return d
        if len(p.params) != len(d.action.args):
            raise SitcalcError(
                f"precondition for {d.action.fn} has {len(p.params)} parameters, "
                f"action term has {len(d.action.args)}"
            )
        binding = {v.name: t for v, t in zip(p.params, d.action.args)}
        inst = substitute(p.formula, binding)
        ctx = inst if d.context == TRUE else And(d.context, inst)
        return replace(d, context=ctx)

    ssas = tuple(
        replace(s, pos=tuple(add(d) for d in s.pos), neg=tuple(add(d) for d in s.neg))
        for s in b.ssas
    )
    pres = tuple(replace(p, formula=TRUE) for p in b.preconditions)
    return replace(b, ssas=ssas, preconditions=pres)


# ---------------------------------------------------------------------------
# the ground-action transform


def _disjuncts_of(gamma: Formula) -> list[Formula]:
    if isinstance(gamma, Truth):
        return [gamma]
    if isinstance(gamma, Falsity):
        return []
    return flatten_or(gamma)


def _split_disjunct(
    fluent: str, head_vars: tuple[Var, ...], disjunct: Formula
) -> tuple[tuple[str, ...], Formula]:
    """Read the head-variable bindings and the residual context off one block."""
    prefix: list[Var] = []
    body = disjunct
    while isinstance(body, Exists):
        prefix.append(body.var)
        body = body.body
    heads = {v.name for v in head_vars}
    eqs: dict[str, str] = {}
    rest: list[Formula] = []
    for part in flatten_and(body):
        match part:
            case ObjEq(Var(name), Const(cname)) if name in heads and name not in eqs:
                eqs[name] = cname
            case _:
                rest.append(part)
    missing = heads - set(eqs)
    if missing:
        raise MalformedTransform(
            f"effect of {fluent} leaves head variable(s) {', '.join(sorted(missing))} "
            f"unbound; the axiom is not local-effect for this action"
        )
    residual = conj(rest)
    for v in reversed(prefix):
        if v.name in free_vars(residual):
            residual = Exists(v, residual)
    return tuple(eqs[v.name] for v in head_vars), residual


def _effect_part(alpha: GroundAction, d: EffectDisjunct) -> Formula:
    """The disjunct d for the action alpha, before simplification.

    alpha == A(ts) is settled by unique names for actions: FALSE for
    another action function, else argument by argument.  A constant of ts
    is settled against alpha's constant at its place, by unique names for
    constants.  A variable of ts that d quantifies is bound to that
    constant, as the one-point rule would bind it, so its quantifier goes
    and the constant is substituted into the context.  Any other variable
    t gives the equality t == c.
    """
    if d.action.fn != alpha.fn:
        return FALSE
    quantified = {v.name for v in d.exists_vars}
    binding: dict[str, Const] = {}
    eqs: list[Formula] = []
    for t, c in zip(d.action.args, alpha.args):
        if type(t) is Const:
            if t.name != c:
                return FALSE
        elif t.name in quantified:
            if binding.setdefault(t.name, Const(c)).name != c:
                return FALSE
        else:
            eqs.append(ObjEq(t, Const(c)))
    body = conj(eqs)
    if d.context != TRUE:
        ctx = d.context
        if not binding.keys().isdisjoint(free_vars(ctx)):
            ctx = substitute(ctx, binding)
        body = And(body, ctx)
    for v in reversed(d.exists_vars):
        if v.name not in binding:
            body = Exists(v, body)
    return body


def transform_ssa(s: SSA, alpha: GroundAction) -> TransformedSSA:
    """Substitute a ground action into an SSA and eliminate all action talk.

    Each disjunct is built for alpha by _effect_part, which settles its
    action equality and binds the quantified action arguments to alpha's
    constants; simplification then does the rest.  Raises
    MalformedTransform when some surviving block fails to bind every head
    variable to a constant, i.e. the SSA is not local-effect for alpha.
    """
    gp = simplify(disj(_effect_part(alpha, d) for d in s.pos))
    gn = simplify(disj(_effect_part(alpha, d) for d in s.neg))
    return TransformedSSA(s.fluent, s.head_vars, gp, gn)


def _transformed(b: BAT, s: SSA, alpha: GroundAction) -> TransformedSSA:
    """transform_ssa(s, alpha) for an SSA of b, computed once per BAT.

    characteristic_set and instantiate_ssas both need it, and
    progress_componentwise calls instantiate_ssas once per component.
    dataclasses.replace starts an empty table.  The entry holds s, so
    the id in its key cannot be reused while the table lives.
    """
    key = (id(s), alpha)
    hit = b._transformed.get(key)
    if hit is None:
        hit = b._transformed[key] = (s, transform_ssa(s, alpha))
    return hit[1]


def argument_set(t: TransformedSSA) -> frozenset[tuple[str, ...]]:
    """Constant tuples on which the transformed SSA can change the fluent."""
    return frozenset(tup for blocks in t.blocks for tup, _ in blocks)


def characteristic_set(b: BAT, alpha: GroundAction) -> frozenset[GroundAtom]:
    """All current-stage ground fluent atoms the action can possibly touch."""
    out = set()
    for s in b.ssas:
        for tup in argument_set(_transformed(b, s, alpha)):
            out.add(GroundAtom(s.fluent, tup, Stage.NOW))
    return frozenset(out)


def instantiate_ssas(
    b: BAT, alpha: GroundAction, omega: frozenset[GroundAtom]
) -> Theory:
    """One mixed-stage biconditional per touched atom.

    For each atom in omega the next-stage truth value is defined from the
    transformed effect conditions and the current value, simplified under
    unique names.  When the blocks' head constants settle both effect
    conditions to TRUE or FALSE, the simplified axiom is built directly:
    F'(c) if gamma+ holds, else !F'(c) if gamma- holds, else F'(c) <-> F(c).
    """
    transformed: dict[str, TransformedSSA] = {}
    axioms = []
    for g in sorted_atoms(omega):
        if g.pred not in transformed:
            s = b.ssa(g.pred)
            if s is None:
                raise MissingAxiom(f"no successor state axiom for {g.pred}")
            transformed[g.pred] = _transformed(b, s, alpha)
        t = transformed[g.pred]
        if len(t.head_vars) != len(g.args):
            raise MissingAxiom(f"{g.pred} instantiated with {len(g.args)} arguments")
        consts = tuple(Const(c) for c in g.args)
        nxt = FluentAtom(g.pred, consts, Stage.NEXT)
        pos, neg = (_settled(blocks, g.args) for blocks in t.blocks)
        if pos is TRUE:
            axioms.append(nxt)
            continue
        now = FluentAtom(g.pred, consts, Stage.NOW)
        if pos is FALSE and neg is not None:
            axioms.append(Not(nxt) if neg is TRUE else Iff(nxt, now))
            continue
        binding = {v.name: c for v, c in zip(t.head_vars, consts)}
        pos = substitute(t.gamma_pos, binding)
        neg = substitute(t.gamma_neg, binding)
        axioms.append(simplify(Iff(nxt, Or(pos, And(now, Not(neg))))))
    return Theory(tuple(axioms))


def _settled(blocks: tuple, args: tuple[str, ...]) -> Optional[Formula]:
    """The effect condition of these blocks with its head variables bound
    to args, simplified under unique names, if the blocks' head constants
    settle it: TRUE if a block binds them to args and has no residual,
    FALSE if no block binds them to args, else None."""
    out: Optional[Formula] = FALSE
    for tup, residual in blocks:
        if tup == args:
            if type(residual) is Truth:
                return TRUE
            out = None
    return out
