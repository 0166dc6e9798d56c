"""Seeded generators for the benchmark's model families.

Every generator takes a seed and returns model source text; the same seed
gives the same text.  Within a family a seed only renames identifiers and
values (with fixed name lengths) and permutes table entries, so every seed
builds a tree of the same shape and costs the same work, while the report
and DOT bytes differ from seed to seed.
"""

from __future__ import annotations

import random
import string

#: Generator seeds with recorded references; ``--seed n`` uses ``n % REF_SEEDS``.
REF_SEEDS = 16

#: The corpus is random models 0..CORPUS_SIZE-1 (``corpus_model`` seeds).
CORPUS_SIZE = 600


def _names(rng: random.Random, count: int, head: str, length: int) -> list:
    """``count`` distinct identifiers: ``head`` plus random lowercase letters."""
    out: list = []
    while len(out) < count:
        name = head + "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if name not in out:
            out.append(name)
    return out


def fanout_model(seed: int) -> str:
    """Three forwarding switches and one controller that answers help requests.

    Switch ``i`` forwards regular packets from port ``i`` to port ``i+1``,
    asks for help on a blocking packet and, once the controller answers,
    drops everything.  Domains are inferred: 3 flag values x 5 ports.
    """
    rng = random.Random(seed)
    ctrl = _names(rng, 1, "C", 3)[0]
    switches = _names(rng, 3, "S", 3)
    dead = _names(rng, 3, "D", 3)
    helps = _names(rng, 3, "H", 3)
    ups = _names(rng, 3, "U", 3)
    token = _names(rng, 1, "t", 3)[0]
    regular = _names(rng, 1, "r", 6)[0]
    blocking = _names(rng, 1, "b", 7)[0]
    ports = rng.sample(range(1, 10), 4)
    lines = ["channels " + ", ".join(helps + ups) + " ;", ""]
    for i, sw in enumerate(switches):
        src, dst = ports[i], ports[i + 1]
        lines += [
            f'def {sw} = "(flag = {regular}) . (pt = {src}) . (pt <- {dst})" ; {sw}',
            f'       o+ "(flag = {blocking}) . (pt = {src})" ; {helps[i]} ! {token} ; {sw}',
            f"       o+ {ups[i]} ? {token} ; {dead[i]} ;",
            f'def {dead[i]} = "0" ; bot ;',
            "",
        ]
    lines.append(
        f"def {ctrl} = "
        + "\n       o+ ".join(
            f"{h} ? {token} ; {u} ! {token} ; {ctrl}" for h, u in zip(helps, ups)
        )
        + " ;"
    )
    lines += ["", f"init {ctrl} || " + " || ".join(switches) + " ;"]
    return "\n".join(lines) + "\n"


def _table(entries) -> str:
    return " + ".join(f"(vlan = {v}) . (pt = {p}) . (pt <- {q})" for v, p, q in entries)


def packet_space_model(seed: int) -> str:
    """Two ACL-guarded switches whose forwarding table the controller replaces.

    Each switch forwards through ``~ACL . table`` and, after receiving a new
    table as a quoted policy, runs ``~ACL . table*``.  Domains are inferred:
    3 ip values x 21 vlans x 21 ports = 1323 packets.
    """
    rng = random.Random(seed)
    ctrl = _names(rng, 1, "C", 3)[0]
    switches = _names(rng, 2, "S", 3)
    nexts = _names(rng, 2, "N", 3)
    ups = _names(rng, 2, "U", 3)
    vlans = rng.sample(range(100, 1000), 20)
    ports = rng.sample(range(10, 100), 20)
    blocked = rng.sample(range(10, 100), 2)
    acl = " + ".join(f"(ip = {a})" for a in blocked)

    def table(k: int) -> list:
        # Tables 0..3 cover the 20 vlans between them (offset 5 per table);
        # every port appears as a match or as an assignment.
        return [
            (vlans[(5 * k + e) % 20], ports[(7 * k + 3 * e) % 20], ports[(7 * k + 3 * e + 1) % 20])
            for e in range(10)
        ]

    lines = ["channels " + ", ".join(ups) + " ;", ""]
    for i, sw in enumerate(switches):
        new = _table(table(2 + i))
        lines += [
            f'def {sw} = "~({acl}) . ({_table(table(i))})" ; {sw}',
            f'       o+ {ups[i]} ? "{new}" ; {nexts[i]} ;',
            f'def {nexts[i]} = "~({acl}) . ({new})*" ; {nexts[i]} ;',
            "",
        ]
    lines.append(
        f"def {ctrl} = "
        + "\n       o+ ".join(
            f'{ups[i]} ! "{_table(table(2 + i))}" ; {ctrl}' for i in range(2)
        )
        + " ;"
    )
    lines += ["", f"init {ctrl} || " + " || ".join(switches) + " ;"]
    return "\n".join(lines) + "\n"


_POLICY_POOL = [
    "(a = 0)",
    "(a = 1)",
    "(a = 0) . (a <- 1)",
    "(a = 1) . (a <- 0)",
    "(a <- 0)",
    "1",
]


def corpus_model(seed: int) -> str:
    """A small random model of 2-3 components over one field ``a``.

    Half the models omit the ``fields`` block, so the domains are inferred;
    those whose only policies are ``1`` have no field and end in exit 2.
    """
    rng = random.Random(seed)
    declare = rng.random() < 0.5
    names = [f"P{i}" for i in range(rng.randint(2, 3))]

    def cont() -> str:
        return "bot" if rng.random() < 0.15 else rng.choice(names)

    def summand() -> str:
        if rng.random() < 0.5:
            return f'"{rng.choice(_POLICY_POOL)}" ; {cont()}'
        return f"{rng.choice('xy')} {rng.choice('!?')} {rng.choice('mn')} ; {cont()}"

    lines = ["fields { a : { 0, 1 } ; }"] if declare else []
    lines.append("channels x, y ;")
    for name in names:
        summands = " o+ ".join(summand() for _ in range(rng.randint(1, 3)))
        lines.append(f"def {name} = {summands} ;")
    lines.append("init " + " || ".join(names) + " ;")
    return "\n".join(lines) + "\n"


def corpus_mode(model_seed: int) -> str:
    """Even corpus models run in ``full`` mode, odd ones in ``race`` mode."""
    return ("full", "race")[model_seed % 2]


def corpus_entries(seed: int) -> list:
    """The corpus in the order of one run: ``(model seed, mode)`` pairs.

    Every run analyses the same models in the same modes, so the seed does
    not change the corpus's cost; it shuffles the order, modes alternating,
    and so what the global NetKAT cache holds when each analysis starts.
    """
    rng = random.Random(seed)
    full = list(range(0, CORPUS_SIZE, 2))
    race = list(range(1, CORPUS_SIZE, 2))
    rng.shuffle(full)
    rng.shuffle(race)
    return [(m, corpus_mode(m)) for pair in zip(full, race) for m in pair]
