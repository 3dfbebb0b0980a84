"""Generated ground blocks worlds for the forgetting tests.

Blocks B0..B(n-1) stand in random stacks on a table T that is always clear.
The initial theory lists every ground literal over Block, On and Clear, so
it has (n + 1) * (n + 3) axioms and pins the world exactly.
"""

from sitcalc.surface import parse_bat, parse_ground_action

DECLS = """object {objects};
static Block/1;
fluent On/2, Clear/1;
action move/3;

ssa On(x, z) {{
  pos: exists y a == move(x, y, z);
  neg: exists y a == move(x, z, y);
}}

ssa Clear(x) {{
  pos: exists y, z a == move(y, x, z);
  neg: exists y, z a == move(y, z, x) & x != T;
}}

poss move(x, y, z): Block(x) & On(x, y) & Clear(x) & Clear(z) & x != z;
"""


def ground_world(rng, n):
    """A BAT over an n-block world and a legal ground move in it."""
    blocks = [f"B{i}" for i in range(n)]
    order = blocks[:]
    rng.shuffle(order)
    stacks = []
    for b in order:
        if stacks and rng.random() < 0.6:
            rng.choice(stacks).append(b)
        else:
            stacks.append([b])
    on = {(s[0], "T") for s in stacks} | {(s[i], s[i - 1]) for s in stacks for i in range(1, len(s))}
    clear = {s[-1] for s in stacks} | {"T"}
    consts = blocks + ["T"]

    def literal(holds, atom):
        return atom if holds else f"!{atom}"

    lines = [DECLS.format(objects=", ".join(consts)), "init {"]
    lines += [f"  {literal(c in blocks, f'Block({c})')};" for c in consts]
    lines += [f"  {literal((c, d) in on, f'On({c}, {d})')};" for c in consts for d in consts]
    lines += [f"  {literal(c in clear, f'Clear({c})')};" for c in consts]
    lines.append("}")
    b = parse_bat("\n".join(lines) + "\n", f"<{n}-block world>")
    below = dict(on)
    x = rng.choice(sorted(s[-1] for s in stacks))
    z = rng.choice(sorted(c for c in clear if c not in (x, below[x])) or ["T"])
    return b, parse_ground_action(f"move({x}, {below[x]}, {z})", b.sig)
