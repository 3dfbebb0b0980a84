"""Generated blocks worlds for the forgetting tests.

ground_world: blocks B0..B(n-1) stand in random stacks on a table T that is
always clear.  The initial theory lists every ground literal over Block, On
and Clear, so it has (n + 1) * (n + 3) axioms and pins the world exactly.
ground_world_text gives the same world as text, before it is parsed.

stacks_world: blocks and a heap of items, with the quantified initial
axioms of the bundled blocks_stacks.bat.
"""

from sitcalc import corpus_path
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


def ground_world_text(rng, n):
    """The text of an n-block world's BAT and of a legal ground move in it."""
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
    below = dict(on)
    x = rng.choice(sorted(s[-1] for s in stacks))
    z = rng.choice(sorted(c for c in clear if c not in (x, below[x])) or ["T"])
    return "\n".join(lines) + "\n", f"move({x}, {below[x]}, {z})"


def ground_world(rng, n):
    """A BAT over an n-block world and a legal ground move in it."""
    text, move = ground_world_text(rng, n)
    b = parse_bat(text, f"<{n}-block world>")
    return b, parse_ground_action(move, b.sig)


def stacks_world(rng, nb, nh):
    """A BAT in the style of the bundled blocks_stacks.bat and two actions
    legal in it, a move and then a push.

    Blocks A0..A(nb-1) stand in at least two stacks, with no table; heap
    items H0..H(nh-1), nh >= 2, are threaded onto a spike or lie loose, at
    least one of each.  The initial theory is the bundled file's quantified
    axioms plus the true ground facts, so it is incomplete.
    """
    blocks = [f"A{i}" for i in range(nb)]
    heap = [f"H{i}" for i in range(nh)]
    order = blocks[:]
    rng.shuffle(order)
    stacks = [order[:2], order[2:3]]
    for b in order[3:]:
        if rng.random() < 0.5:
            rng.choice(stacks).append(b)
        else:
            stacks.append([b])
    items = heap[:]
    rng.shuffle(items)
    spike = items[: rng.randint(1, nh - 1)]
    facts = [f"Block({b})" for b in blocks]
    facts += [f"On({s[i]}, {s[i - 1]})" for s in stacks for i in range(1, len(s))]
    facts += [f"Clear({s[-1]})" for s in stacks]
    facts += [f"Top({spike[-1]})"] + [f"Under({spike[i]}, {spike[i - 1]})" for i in range(1, len(spike))]
    facts += [f"Inheap({h})" for h in items[len(spike):]]

    with open(corpus_path("blocks_stacks.bat")) as fh:
        head, init = fh.read().split("init {")
    head = head.replace("object A, B, C;", f"object {', '.join(blocks + heap)};")
    quantified = [ln for ln in init.splitlines() if ln.strip().startswith(("forall", "exists"))]
    text = head + "init {\n" + "\n".join(quantified + [f"  {a};" for a in facts]) + "\n}\n"
    b = parse_bat(text, f"<{nb} blocks, {nh} heap items>")

    tall = [s for s in stacks if len(s) > 1]
    x_stack = rng.choice(tall)
    x, y = x_stack[-1], x_stack[-2]
    z = rng.choice(sorted(s[-1] for s in stacks if s is not x_stack))
    item = rng.choice(sorted(items[len(spike):]))
    moves = [f"move({x}, {y}, {z})", f"push({item}, {spike[-1]})"]
    return b, [parse_ground_action(m, b.sig) for m in moves]
