"""Spans and counts at sitcalc's module boundaries, recorded from outside.

Tracer.install wraps each listed public function at every place a sitcalc
module binds it (simplify, for one, is bound in syntax, bat, forgetting
and the package itself), so calls between modules are seen as well as the
benchmark's own.  Each span records name, start, end, parent span and
operation id; spans live in arrays until the run ends.  Self time is a
span's duration minus the time its child spans cover.

Span times are CPU time of the benchmark's thread, the clock the
end-to-end latencies use.  Work the tracer does besides timing (node
counts after a call returns) is taken off the span clock, so it does not
show up as time in any layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

import ref

SPANNED = {
    "surface": ("parse_bat", "parse_theory", "parse_formula", "parse_ground_action",
                "parse_ground_atom", "render", "render_theory_file"),
    "bat": ("characteristic_set", "instantiate_ssas"),
    "syntax": ("simplify", "simplify_theory"),
    "forgetting": ("forget_atoms", "forget_atom", "relativize"),
    "progression": ("progress", "progress_componentwise"),
    "decomposition": ("syntactic_decompose", "check_local_effect_preservation"),
    "oracle": ("entails", "equivalent", "satisfiable", "check_inseparable", "verify_forgetting"),
}
# Called hundreds of thousands of times per run: counted, not spanned.
COUNTED = {"oracle": ("evaluate", "theory_holds")}


def _parsed_text(counts, args, kw, result):
    counts["surface.parse.chars"] += len(args[0] if args else kw["text"])


def _omega(counts, args, kw, result):
    counts["bat.omega_atoms"] += len(result)


def _forgotten(counts, args, kw, result):
    counts["forgetting.nodes_in"] += ref.nodes(args[0] if args else kw["t"])
    counts["forgetting.nodes_out"] += ref.nodes(result)


def _progressed(counts, args, kw, result):
    counts["progression.steps"] += 1
    counts["progression.result_nodes"] += ref.nodes(result.theory)


def _progressed_components(counts, args, kw, result):
    counts["progression.steps"] += 1
    counts["progression.result_nodes"] += ref.nodes(list(result.components))


def _decomposed(counts, args, kw, result):
    counts["decomposition.components"] += len(result.components) if result is not None else 0


def _entailed(counts, args, kw, result):
    counts["oracle.countermodels"] += type(result).__name__ == "Countermodel"


def _inseparable(counts, args, kw, result):
    kind = type(result).__name__
    counts["oracle.reducts"] += sum(a + b for _, a, b in getattr(result, "reduct_counts", ()))
    counts["oracle.separated"] += kind == "Separated"
    counts["oracle.unknown"] += kind == "Unknown"


HOOKS = {
    **{f"surface.{f}": _parsed_text for f in SPANNED["surface"] if f.startswith("parse_")},
    "bat.characteristic_set": _omega,
    "forgetting.forget_atoms": _forgotten,
    "progression.progress": _progressed,
    "progression.progress_componentwise": _progressed_components,
    "decomposition.syntactic_decompose": _decomposed,
    "oracle.entails": _entailed,
    "oracle.check_inseparable": _inseparable,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.hidden = 0.0  # seconds of tracer bookkeeping taken off the span clock
        self._bound: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.thread_time() - self.hidden

    def _spanned(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            i = len(tr.start)
            tr.name.append(nid)
            tr.op.append(tr.op_id)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.end.append(0.0)
            tr.stack.append(i)
            tr.start.append(tr.now())
            try:
                result = fn(*args, **kw)
            finally:
                tr.end[i] = tr.now()
                tr.stack.pop()
            if hook is not None:
                t0 = time.thread_time()
                hook(tr.counts, args, kw, result)
                tr.hidden += time.thread_time() - t0
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)

        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every loaded sitcalc module."""
        mods = [m for n, m in sys.modules.items() if n == "sitcalc" or n.startswith("sitcalc.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, fns in table.items():
                home = sys.modules[f"sitcalc.{mod}"]
                for fname in fns:
                    orig = getattr(home, fname)
                    wrapper = make(f"{mod}.{fname}", orig)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._bound.append((m, attr, orig))
                                setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._bound):
            setattr(m, attr, orig)
        self._bound.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            agg = out.setdefault(self.names[self.name[i]], [0, 0.0])
            agg[0] += 1
            agg[1] += self.end[i] - self.start[i] - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header, then [name, op, parent, start, end]."""
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"names": self.names, "fields": ["name", "op", "parent", "start_s", "end_s"]}) + "\n")
            for i in range(len(self.start)):
                f.write(f"[{self.name[i]},{self.op[i]},{self.parent[i]},{self.start[i]:.7f},{self.end[i]:.7f}]\n")


# Per-layer metrics: name -> (unit, better).  Times and counts are per
# traced operation.
PER_LAYER = {
    "surface.parse.calls": ("calls/op", "lower"),
    "surface.parse.self_ms": ("ms/op", "lower"),
    "surface.parse.kchars_per_s": ("kchar/s", "higher"),
    "surface.render.self_ms": ("ms/op", "lower"),
    "bat.characteristic_set.self_ms": ("ms/op", "lower"),
    "bat.instantiate_ssas.self_ms": ("ms/op", "lower"),
    "bat.omega_atoms": ("atoms/op", "lower"),
    "forgetting.forget_atoms.self_ms": ("ms/op", "lower"),
    "forgetting.forget_atom.calls": ("calls/op", "lower"),
    "forgetting.relativize.self_ms": ("ms/op", "lower"),
    "forgetting.nodes_in": ("nodes/op", "lower"),
    "forgetting.nodes_out": ("nodes/op", "lower"),
    "syntax.simplify.calls": ("calls/op", "lower"),
    "syntax.simplify.self_ms": ("ms/op", "lower"),
    "syntax.simplify_theory.self_ms": ("ms/op", "lower"),
    "progression.progress.self_ms": ("ms/op", "lower"),
    "progression.progress_componentwise.self_ms": ("ms/op", "lower"),
    "progression.steps": ("steps/op", "lower"),
    "progression.result_nodes": ("nodes/op", "lower"),
    "decomposition.syntactic_decompose.self_ms": ("ms/op", "lower"),
    "decomposition.check_local_effect_preservation.self_ms": ("ms/op", "lower"),
    "decomposition.components": ("comps/op", "higher"),
    "oracle.entails.calls": ("calls/op", "lower"),
    "oracle.entails.self_ms": ("ms/op", "lower"),
    "oracle.equivalent.self_ms": ("ms/op", "lower"),
    "oracle.satisfiable.self_ms": ("ms/op", "lower"),
    "oracle.countermodels": ("models/op", "lower"),
    "oracle.check_inseparable.self_ms": ("ms/op", "lower"),
    "oracle.verify_forgetting.self_ms": ("ms/op", "lower"),
    "oracle.evaluate.calls": ("calls/op", "lower"),
    "oracle.theory_holds.calls": ("calls/op", "lower"),
    "oracle.reducts": ("reducts/op", "lower"),
    "oracle.witness_searches": ("searches/op", "lower"),
    "oracle.witness_found_ratio": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(tr: Tracer, ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
    st = tr.self_times()

    def self_ms(*names: str) -> float:
        return sum(st.get(n, (0, 0.0))[1] for n in names) * 1000 / ops

    def calls(*names: str) -> float:
        return sum(st.get(n, (0, 0.0))[0] for n in names) / ops

    c = tr.counts
    parse = [f"surface.{f}" for f in SPANNED["surface"] if f.startswith("parse_")]
    parse_s = self_ms(*parse) * ops / 1000
    searches = c["oracle.separated"] + c["oracle.unknown"]
    out = {
        "surface.parse.calls": calls(*parse),
        "surface.parse.self_ms": self_ms(*parse),
        "surface.parse.kchars_per_s": c["surface.parse.chars"] / 1000 / parse_s if parse_s else 0.0,
        "surface.render.self_ms": self_ms("surface.render", "surface.render_theory_file"),
        "forgetting.forget_atom.calls": calls("forgetting.forget_atom"),
        "syntax.simplify.calls": calls("syntax.simplify"),
        "oracle.entails.calls": calls("oracle.entails"),
        "oracle.evaluate.calls": c["oracle.evaluate.calls"] / ops,
        "oracle.theory_holds.calls": c["oracle.theory_holds.calls"] / ops,
        "oracle.witness_searches": searches / ops,
        "oracle.witness_found_ratio": c["oracle.separated"] / searches if searches else 0.0,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }
    for name in PER_LAYER:
        if name in out:
            continue
        if name.endswith(".self_ms"):
            out[name] = self_ms(name[: -len(".self_ms")])
        else:
            out[name] = c[name] / ops
    return {name: out[name] for name in PER_LAYER}
