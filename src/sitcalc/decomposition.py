"""Splitting theories into components that share only a designated signature.

A decomposition keeps the axioms of a theory in groups whose pairwise shared
symbols all lie inside a chosen delta signature.  Queries over one group's
own symbols can then be answered against that group alone, and progression
can update groups independently when the axiom/initial-component alignment
conditions verified here hold.

One connectivity rule makes every grouping here: two items (initial axioms,
or successor state axioms) are connected when they share a symbol outside
delta, and the groups are the blocks of the transitive closure, ordered by
their first item.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .bat import BAT, SSA, GroundAction, Violation
from .errors import SitcalcError
from .oracle import DEFAULT_CONFIG, OracleConfig, equivalent, is_positive
from .syntax import Signature, Stage, Theory, signature_of, symbols_and_stages

# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Decomposition:
    """Component theories sharing only delta symbols with one another."""

    delta: Signature
    components: tuple[Theory, ...]

    @property
    def signature_components(self) -> tuple[Signature, ...]:
        return tuple(signature_of(c) - self.delta for c in self.components)


@dataclass(frozen=True)
class DecompositionCheck:
    passed: bool
    failures: tuple[str, ...] = ()
    equivalence: Optional[object] = None  # oracle verdict for theory vs union


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of the axiom-group / initial-component alignment conditions."""

    passed: bool
    f_map: dict[int, int] = field(default_factory=dict)
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class StrongPreservationReport:
    passed: bool
    violations: tuple[Violation, ...]
    alignment: AlignmentReport


@dataclass(frozen=True)
class SplitReport:
    """Before-components whose predicates end up spread over several after-components."""

    splits: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @property
    def split_detected(self) -> bool:
        return bool(self.splits)


# ---------------------------------------------------------------------------
# computing decompositions


def _connected(keysets: Sequence[Iterable[Hashable]]) -> list[list[int]]:
    """Indices of the items in blocks joined by shared keys.

    Each block is ascending and the blocks are ordered by their first
    member; an item without keys is a block of its own.
    """
    parent = list(range(len(keysets)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[Hashable, int] = {}
    for i, keys in enumerate(keysets):
        for key in keys:
            ri, rj = find(i), find(owner.setdefault(key, i))
            parent[max(ri, rj)] = min(ri, rj)  # every root is its block's least member
    blocks: dict[int, list[int]] = {}
    for i in range(len(keysets)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def _clashes(sigs: Sequence[Signature], delta: Signature) -> Iterator[tuple[int, int, Signature]]:
    """(i, j, shared) for each pair i < j of signatures sharing symbols outside delta."""
    for i, j in combinations(range(len(sigs)), 2):
        shared = (sigs[i] & sigs[j]) - delta
        if not shared.is_empty():
            yield i, j, shared


def _union(sigs: Iterable[Signature]) -> Signature:
    """The union of the signatures, built and checked once."""
    sigs = list(sigs)
    return Signature(
        frozenset().union(*(s.objects for s in sigs)),
        frozenset().union(*(s.statics for s in sigs)),
        frozenset().union(*(s.fluents for s in sigs)),
        frozenset().union(*(s.actions for s in sigs)),
    )


def syntactic_decompose(t: Theory, delta: Signature) -> Optional[Decomposition]:
    """Partition the axioms so components share only delta symbols.

    The connected blocks of the axioms with symbols outside delta form the
    finest such partition.  Axioms mentioning only delta symbols carry no
    component of their own and are attached to the nearest preceding block.
    Returns None when no split into two or more components with non-delta
    content exists at this granularity.
    """
    axioms = tuple(t.axioms)
    deltanames = delta.names()
    own = [signature_of(ax).names() - deltanames for ax in axioms]
    blocks = [blk for blk in _connected(own) if own[blk[0]]]
    if len(blocks) < 2:
        return None
    for i, names in enumerate(own):
        if not names:
            home = max((b for b in blocks if b[0] < i), key=lambda b: b[0], default=blocks[0])
            home.append(i)
    components = tuple(Theory(tuple(axioms[i] for i in sorted(b))) for b in blocks)
    return Decomposition(delta, components)


# ---------------------------------------------------------------------------
# verification


def verify_decomposition(
    t: Theory, d: Decomposition, cfg: OracleConfig = DEFAULT_CONFIG
) -> DecompositionCheck:
    """Check the signature conditions and that the components add up to t.

    Components may mention extra symbols absent from t (tautological padding
    is a legitimate decomposition device), but all of t's symbols must be
    covered and the union must be equivalent to t.
    """
    sigs = [signature_of(c) for c in d.components]
    failures = [
        f"components {i} and {j} share non-delta symbols {', '.join(shared.sorted_names())}"
        for i, j, shared in _clashes(sigs, d.delta)
    ]
    for i, s in enumerate(sigs):
        if (s - d.delta).is_empty():
            failures.append(f"component {i} has no symbols outside delta")
    lost = signature_of(t) - _union(sigs)
    if not lost.is_empty():
        names = ", ".join(lost.sorted_names())
        failures.append(f"symbols {names} of the theory appear in no component")
    union = Theory(tuple(ax for c in d.components for ax in c.axioms))
    eq = equivalent(t, union, cfg)
    passed = not failures and is_positive(eq)
    return DecompositionCheck(passed, tuple(failures), eq)


def _ssa_signature(s: SSA) -> Signature:
    ds = s.pos + s.neg
    own = Signature(fluents=frozenset({(s.fluent, len(s.head_vars))}))
    contexts = signature_of(Theory(tuple(d.context for d in ds)))
    return _union([own, contexts, *(signature_of(d.action) for d in ds)])


def group_ssas(b: BAT, delta1: Signature = Signature()) -> tuple[tuple[str, ...], ...]:
    """Group the fluents by connectivity of their axiom signatures over delta1.

    The result is directly usable as the ssa_partition argument of the
    preservation checks; it is the finest grouping those checks can accept.
    """
    deltanames = delta1.names()
    blocks = _connected([_ssa_signature(s).names() - deltanames for s in b.ssas])
    return tuple(tuple(b.ssas[i].fluent for i in blk) for blk in blocks)


def check_local_effect_preservation(
    b: BAT,
    delta1: Signature,
    delta2: Signature,
    ssa_partition: Sequence[Sequence[str]],
    init_decomp: Decomposition,
) -> AlignmentReport:
    """Can progression respect the given axiom grouping and initial components?

    Verifies: delta1/delta2 fluent-free; the groups partition the axioms and
    pairwise share only delta1 symbols; the initial components are uniform,
    pairwise share only delta2 symbols, and each keeps a predicate of its
    own outside delta1, delta2; every fluent of the axioms occurs initially;
    and each group's symbols shared with the initial theory sit inside a
    single component, yielding f_map.
    """
    violations: list[str] = []
    bad = violations.append

    for nm, d in (("delta1", delta1), ("delta2", delta2)):
        if d.fluents:
            bad(f"{nm} contains fluent symbols {', '.join(sorted(n for n, _ in d.fluents))}")
    if init_decomp.delta != delta2:
        bad("the initial decomposition was built for a different delta than delta2")

    seen: dict[str, int] = {}
    groups: list[list[SSA]] = []
    for gi, names in enumerate(ssa_partition):
        grp: list[SSA] = []
        for name in names:
            s = b.ssa(name)
            if s is None:
                bad(f"group {gi} lists {name}, which has no successor state axiom")
            elif name in seen:
                bad(f"fluent {name} appears in groups {seen[name]} and {gi}")
            else:
                seen[name] = gi
                grp.append(s)
        groups.append(grp)
    uncovered = [s.fluent for s in b.ssas if s.fluent not in seen]
    if uncovered:
        bad(f"the partition misses the axioms for {', '.join(uncovered)}")

    ssa_sigs = {s.fluent: _ssa_signature(s) for s in b.ssas}
    gsigs = [_union(ssa_sigs[s.fluent] for s in grp) for grp in groups]
    for i, j, shared in _clashes(gsigs, delta1):
        names = ", ".join(shared.sorted_names())
        bad(f"axiom groups {i} and {j} share symbols {names} outside delta1")

    found = [symbols_and_stages(c) for c in init_decomp.components]
    csigs = [sig for sig, _ in found]
    for i, j, shared in _clashes(csigs, delta2):
        names = ", ".join(shared.sorted_names())
        bad(f"initial components {i} and {j} share non-delta symbols {names}")
    for j, (sig, stages) in enumerate(found):
        if not stages <= frozenset({Stage.NOW}):
            bad(f"initial component {j} is not uniform in the current stage")
        residual = sig - delta1 - delta2
        if not (residual.statics or residual.fluents):
            bad(f"initial component {j} has no predicate symbols outside delta1 and delta2")

    ssa_fluents = _union(ssa_sigs.values())
    init_sig = _union(csigs)
    missing = {n for n, _ in ssa_fluents.fluents} - {n for n, _ in init_sig.fluents}
    if missing:
        bad(f"fluents {', '.join(sorted(missing))} occur in the axioms but in no initial component")

    f_map: dict[int, int] = {}
    for i, gs in enumerate(gsigs):
        need = gs & init_sig
        homes = [j for j, cs in enumerate(csigs) if need <= cs]
        if homes:
            f_map[i] = homes[0]
        else:
            names = ", ".join(need.sorted_names())
            bad(f"no single initial component covers the symbols {names} of axiom group {i}")

    return AlignmentReport(not violations, f_map, tuple(map(Violation, violations)))


def check_strong_preservation(
    b: BAT,
    delta1: Signature,
    delta2: Signature,
    alpha: GroundAction,
    ssa_partition: Sequence[Sequence[str]],
    init_decomp: Decomposition,
) -> StrongPreservationReport:
    """Conditions under which the componentwise update stays a decomposition.

    On top of the alignment, which the report carries as .alignment: delta1
    holds no action functions and sits inside delta2, and the action's
    constants already occur in every initial component with a fluent the
    action can change.  violations lists only these per-action conditions;
    passed also requires the alignment to pass.
    """
    alignment = check_local_effect_preservation(b, delta1, delta2, ssa_partition, init_decomp)
    violations = []
    if delta1.actions:
        names = ", ".join(sorted(n for n, _ in delta1.actions))
        violations.append(Violation(f"delta1 contains action functions {names}"))
    if not delta1 <= delta2:
        extra = (delta1 - delta2).sorted_names()
        violations.append(Violation(f"delta1 symbols {', '.join(extra)} missing from delta2"))
    consts = frozenset(alpha.args)
    for j, comp in enumerate(init_decomp.components):
        csig = signature_of(comp)
        touched = any(
            s is not None and alpha.fn in frozenset.union(*s.action_functions())
            for s in (b.ssa(n) for n, _ in csig.fluents)
        )
        if touched and not consts <= csig.objects:
            gap = ", ".join(sorted(consts - csig.objects))
            msg = f"constants {gap} of {alpha} are missing from initial component {j}"
            violations.append(Violation(f"{msg}, whose fluents the action can change"))
    passed = alignment.passed and not violations
    return StrongPreservationReport(passed, tuple(violations), alignment)


def detect_split(before: Decomposition, after: Decomposition) -> SplitReport:
    """Report before-components whose predicates now span several after-components."""
    if before.delta != after.delta:
        raise SitcalcError("the two decompositions use different delta signatures")

    def preds(s: Signature) -> frozenset[str]:
        return frozenset(n for n, _ in s.statics) | frozenset(n for n, _ in s.fluents)

    a_preds = [preds(s) for s in after.signature_components]
    splits = []
    for i, bs in enumerate(before.signature_components):
        hits = tuple(j for j, ap in enumerate(a_preds) if preds(bs) & ap)
        if len(hits) >= 2:
            splits.append((i, hits))
    return SplitReport(tuple(splits))
