"""Reference formula parser: the recursive-descent cascade the surface parser
used before it read formulas with one precedence loop.

One method per precedence level, each calling the next tighter one:

    formula := impl [<-> formula]; impl := or [-> impl]
    or := and (| and)*; and := unary (& unary)*
    unary := ! unary | quantifier | true | false | ( formula ) | atom

It costs five interpreter frames per nesting level, so it fails on deep
inputs that the loop reads; it exists only so the tests can compare the two
on the same texts.  reference(fn, ...) calls one of surface's parse
functions with this parser in place.
"""

from sitcalc import surface
from sitcalc.syntax import FALSE, TRUE, And, Exists, Forall, Iff, Implies, Not, Or


class ReferenceParser(surface._Parser):
    def _formula(self):
        lhs = self._impl()
        if self._accept("<->"):
            return Iff(lhs, self._formula())
        return lhs

    def _impl(self):
        lhs = self._or()
        if self._accept("->"):
            return Implies(lhs, self._impl())
        return lhs

    def _or(self):
        f = self._and()
        while self._accept("|"):
            f = Or(f, self._and())
        return f

    def _and(self):
        f = self._unary()
        while self._accept("&"):
            f = And(f, self._unary())
        return f

    def _unary(self):
        t = self._peek()
        if t.text == "!":
            self._next()
            return Not(self._unary())
        if t.text in ("forall", "exists"):
            return self._quantifier()
        if t.text == "true":
            self._next()
            return TRUE
        if t.text == "false":
            self._next()
            return FALSE
        if t.text == "(":
            self._next()
            f = self._formula()
            self._expect(")")
            return f
        return self._atom(self._ident("a formula"))

    def _quantifier(self):
        kw = self._next().text
        taken = set()
        vs = self._list(lambda: self._binder("a variable", taken))
        body = self._unary()
        ctor = Forall if kw == "forall" else Exists
        for v in reversed(vs):
            body = ctor(v, body)
        return body


def reference(fn, *args, **kwargs):
    """fn(*args, **kwargs), parsed by ReferenceParser instead of surface._Parser."""
    saved = surface._Parser
    surface._Parser = ReferenceParser
    try:
        return fn(*args, **kwargs)
    finally:
        surface._Parser = saved
