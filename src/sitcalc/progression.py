"""Progression of local-effect basic action theories by forgetting.

A ground action can only change the fluent atoms in its characteristic set.
Progression therefore instantiates the successor state axioms on exactly
those atoms, forgets the atoms' current values from the combined theory,
and re-reads the next stage as the new current stage.  The result is again
uniform in the current stage and serves as the initial theory for the next
action.

Each layer of a step takes work in what the action touches wherever its
input lets it; the generic path stays for everything else.  On a complete
ground world every layer does:
- the transform binds the action's constants while it builds each effect
  disjunct (bat.transform_ssa), so simplify has no one-point rule to run;
- an atom whose effect conditions the head constants settle is
  instantiated as F'(c), !F'(c) or F'(c) <-> F(c) directly
  (bat.instantiate_ssas), here a next-stage literal;
- forgetting passes over an untouched literal after one set lookup, and
  each atom's step is a literal step, which adds TRUE without relativizing
  (see forgetting);
- _finalize decides by what each axiom is: it renames a next-stage literal
  by building its atom at the current stage, keeps any other literal as it
  is, drops TRUE, and renames, simplifies and splits only the rest.
What is left per untouched axiom is a constant number of Python steps in
forgetting's filing loop and in _finalize.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

from .bat import BAT, GroundAction, characteristic_set, instantiate_ssas
from .decomposition import Decomposition, check_local_effect_preservation
from .errors import MissingAxiom, SitcalcError
from .forgetting import GroundAtom, forget_atoms
from .oracle import (
    DEFAULT_CONFIG,
    Countermodel,
    EntailedFinite,
    OracleConfig,
    entails,
    is_positive,
)
from .syntax import (
    TRUE,
    FluentAtom,
    Formula,
    Not,
    Signature,
    Stage,
    Theory,
    flatten_and,
    literal_atom,
    rename_stage,
    signature_of,
    simplify,
    substitute,
)


@dataclass(frozen=True)
class ProgressionResult:
    """Progressed initial theory plus what the action touched."""

    theory: Theory
    omega: frozenset[GroundAtom]
    touched_fluents: frozenset[str]


@dataclass(frozen=True)
class StepVerdict:
    action: GroundAction
    verdict: Union[EntailedFinite, Countermodel]


@dataclass(frozen=True)
class ExecutabilityReport:
    steps: tuple[StepVerdict, ...] = ()

    @property
    def all_executable(self) -> bool:
        return all(is_positive(s.verdict) for s in self.steps)


def _finalize(t: Theory) -> Theory:
    """Stage bookkeeping after forgetting: the next stage becomes current.

    One pass over t that decides by what each axiom is.  A next-stage
    literal is renamed by building its atom at the current stage; any other
    literal is kept as the same object, which is simplified already; TRUE
    is dropped.  Every other axiom is renamed, simplified and split into
    its conjuncts by flatten_and, which drops TRUE, as split_conjunctions
    would.  One simplification suffices: the conjuncts of a simplified
    axiom are simplified already.  Renaming gives back an axiom without a
    next-stage atom, and simplifying gives back one simplified already, as
    the axioms forgetting passed through are from the second step on.
    """
    out: list[Formula] = []
    nxt = Stage.NEXT
    for ax in t.axioms:
        atom = literal_atom(ax)
        if atom is None:
            if ax is not TRUE:
                out.extend(flatten_and(simplify(rename_stage(ax, nxt, Stage.NOW))))
        elif type(atom) is FluentAtom and atom.stage is nxt:
            now = FluentAtom(atom.fluent, atom.args, Stage.NOW)
            out.append(now if atom is ax else Not(now))
        else:
            out.append(ax)
    return Theory(tuple(out))


def progress(b: BAT, alpha: GroundAction) -> ProgressionResult:
    """Progress the initial theory through one ground action.

    Raises MalformedTransform when some axiom is not local-effect for alpha,
    i.e. its transformed effect condition fails to pin every head variable.
    """
    omega = characteristic_set(b, alpha)
    inst = instantiate_ssas(b, alpha, omega)
    combined = Theory(tuple(inst.axioms) + tuple(b.init.axioms))
    forgotten = forget_atoms(combined, omega)
    return ProgressionResult(
        theory=_finalize(forgotten),
        omega=omega,
        touched_fluents=frozenset(g.pred for g in omega),
    )


def progress_componentwise(
    b: BAT,
    init_decomp: Decomposition,
    ssa_partition: Sequence[Sequence[str]],
    alpha: GroundAction,
    delta1: Signature = Signature(),
) -> Decomposition:
    """Progress each initial component on its own.

    Requires the alignment between the axiom groups and the initial
    components to check out; each component is then updated using only the
    groups mapped to it, and components whose fluents the action cannot
    touch are returned as the very same objects.
    """
    report = check_local_effect_preservation(
        b, delta1, init_decomp.delta, ssa_partition, init_decomp
    )
    if not report.passed:
        detail = "; ".join(str(v) for v in report.violations)
        raise SitcalcError(f"componentwise progression preconditions failed: {detail}")

    omega = characteristic_set(b, alpha)
    group_fluents = [frozenset(g) for g in ssa_partition]
    fluents_for_component: dict[int, set[str]] = {}
    for i, j in report.f_map.items():
        fluents_for_component.setdefault(j, set()).update(group_fluents[i])

    components = []
    for j, comp in enumerate(init_decomp.components):
        omega_j = frozenset(
            g for g in omega if g.pred in fluents_for_component.get(j, ())
        )
        if not omega_j:
            components.append(comp)  # untouched, same object by design
            continue
        inst = instantiate_ssas(b, alpha, omega_j)
        combined = Theory(tuple(inst.axioms) + tuple(comp.axioms))
        components.append(_finalize(forget_atoms(combined, omega_j)))
    return Decomposition(init_decomp.delta, tuple(components))


def progress_sequence(b: BAT, actions: Sequence[GroundAction]) -> Theory:
    """Fold progress over an action sequence; the empty sequence is b.init."""
    cur = b
    for alpha in actions:
        cur = replace(cur, init=progress(cur, alpha).theory)
    return cur.init


def project(
    b: BAT,
    actions: Sequence[GroundAction],
    query: Formula,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> Union[EntailedFinite, Countermodel]:
    """Does the theory after the actions entail the current-stage query?"""
    t = progress_sequence(b, actions)
    return entails(t, query, cfg, sig=signature_of(b.init) | b.sig)


def executable(
    b: BAT, actions: Sequence[GroundAction], cfg: OracleConfig = DEFAULT_CONFIG
) -> ExecutabilityReport:
    """Check each action's precondition in the theory it would run in.

    The theory is progressed through every action but the last, even when
    a precondition is not entailed, so the report covers the whole
    sequence.  Nothing reads the theory after the last action, so it is
    not built, and a last action that is not local-effect is reported, not
    raised as MalformedTransform.  The entailment question reads the
    vocabulary of the current theory off its compiled program; b.sig adds
    the declared symbols.
    """
    cur = b
    steps = []
    for i, alpha in enumerate(actions, 1):
        pre = cur.precondition(alpha.fn)
        if pre is None:
            raise MissingAxiom(f"no precondition axiom for {alpha.fn}")
        binding = {v.name: c for v, c in zip(pre.params, alpha.term().args)}
        inst = substitute(pre.formula, binding)
        steps.append(StepVerdict(alpha, entails(cur.init, inst, cfg, sig=b.sig)))
        if i < len(actions):
            cur = replace(cur, init=progress(cur, alpha).theory)
    return ExecutabilityReport(tuple(steps))
