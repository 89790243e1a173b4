"""Seeded inputs of the three benchmark workloads.

Every op a generator can emit is drawn from the fixed catalogs below, so
`record.py` can store a reference output for each of them once and every
seed is checked against the same references.  A seed only chooses among
variants of similar cost and fixes the order, which keeps the work of one
pass the same for every seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-suite", "cli-oneshot", "kostka-cache")

# verify-suite: (kind, check, k, deg_max).  The degrees keep one pass near two
# seconds, so a 30-second run holds enough passes for a steady median.
VERIFY_OPS = (
    ("verify", "duality", 4, 9),
    ("verify", "omega", 4, 8),
    ("verify", "pieri-consistency", 4, 6),
    ("verify", "reduction-g", 4, 9),
    ("verify", "reduction-G", 4, 9),
    ("scan", "gk-in-g-positivity", 3, 8),
    ("scan", "G-in-dualks-positivity", 4, 9),
)

# cli-oneshot: one slot per request of a pass; the seed picks one variant of
# each slot.  Variants of a slot cost about the same.  Eight light slots
# (interpreter start and import dominate), two small verify/scan slots, and
# three m->s conversions at k=4 that set the tail.
CLI_SLOTS = (
    [["expand", "--family", "gk", "--partition", p, "--k", "3", "--basis", "h"]
     for p in ("3,2,1", "3,3", "2,2,1,1")],
    [["expand", "--family", "Gk", "--partition", p, "--k", "3", "--deg-max", "8"]
     for p in ("3,2", "2,2,1", "3,1,1")],
    [["expand", "--family", "G", "--partition", p, "--deg-max", "7"]
     for p in ("2,1", "1,1,1", "3")],
    [["expand", "--family", f, "--partition", p, "--basis", b]
     for f, p, b in (("g", "3,2,1", "e"), ("g", "4,2", "e"), ("s", "3,2,1", "h"), ("s", "4,1,1", "h"))],
    [["expand", "--family", "dks", "--partition", p, "--k", "3"]
     for p in ("3,2,1,1", "3,3,1", "2,2,2,1")],
    [["pieri", d, "--partition", p, "--r", r, "--k", k, "--strips"]
     for d, p, r, k in (("row", "3,2,1", "2", "3"), ("row", "3,3,1", "2", "3"),
                        ("col", "3,2,1", "2", "3"), ("col", "4,4,3,2,1", "3", "4"))],
    [["tableaux", "--shape", s, *w, "--k", k, "--list"]
     for s, w, k in (("2,1,1", ("--weight", "2,1,1,1"), "2"), ("2,2", ("--weight", "2,1,1"), "2"),
                     ("3,2,1", ("--standard-degree", "8"), "3"))],
    [["kostka", "--k", "3", "--shape", "3,2,1", "--weight", w]
     for w in ("2,2,1,1", "3,2,1", "2,1,1,1,1")],
    [["verify", c, "--k", "2", "--deg-max", "6"] for c in ("duality", "reduction-g")],
    [["scan", c, "--k", "3", "--deg-max", "7"]
     for c in ("gk-in-g-positivity", "G-in-dualks-positivity")],
    [["expand", "--family", "ks", "--partition", "4,3,2", "--k", "4", "--basis", "s"]],
    [["expand", "--family", "gk", "--partition", "4,2,2,1", "--k", "4", "--basis", "s"]],
    [["expand", "--family", "gk", "--partition", "3,3,2,1", "--k", "4", "--basis", "s"]],
)

_CLI_SLOT = {" ".join(argv + ["--format", "json"]): i
             for i, slot in enumerate(CLI_SLOTS) for argv in slot}

# kostka-cache: the (k, deg_max) pairs of one pass, and the requests a seed
# may send at each.  Each pair gets KOSTKA_REQUESTS_PER_PAIR requests; the
# first builds and writes the matrix, the others read it.  The first is the
# pair's fixed writer request: the variants differ by up to a fifth in what
# they add to the build, and the writes set the tail, so a seed's draw of
# variants would move it.  The seed draws the reads and the order.
KOSTKA_PAIRS = ((4, 13), (5, 13))
KOSTKA_FAMILIES = ("Gk", "gk", "dks")
KOSTKA_PARTITIONS = {
    4: ("3,2,1", "4,3,2", "2,2,1", "4,1,1"),
    5: ("3,2,1", "5,3,1", "2,2,1", "4,2"),
}
KOSTKA_WRITERS = {4: ("Gk", "4,3,2"), 5: ("Gk", "5,3,1")}
KOSTKA_REQUESTS_PER_PAIR = 3


def _rng(seed: int, workload: str, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def verify_ops(seed: int, pass_index: int) -> list[tuple]:
    """The suites of one pass: a rotation of VERIFY_OPS, from the seed and the pass.

    The suites share in-process caches, so a suite's time depends on which
    suites ran before it: pieri-consistency takes about twice as long first
    as it does later.  Consecutive passes take consecutive rotations, so over
    seven passes every suite runs once in every position, and a suite's
    median over a run covers the same cache states for every seed.  Random
    orders drawn per pass moved its median by up to a third between seeds.
    The seed picks the first rotation.
    """
    phase = _rng(seed, "verify-suite", 0).randrange(len(VERIFY_OPS))
    shift = (phase + pass_index) % len(VERIFY_OPS)
    return list(VERIFY_OPS[shift:] + VERIFY_OPS[:shift])


def cli_ops(seed: int, pass_index: int) -> list[list[str]]:
    rng = _rng(seed, "cli-oneshot", pass_index)
    ops = [rng.choice(slot) + ["--format", "json"] for slot in CLI_SLOTS]
    rng.shuffle(ops)
    return ops


def kostka_ops(seed: int, pass_index: int) -> list[list[str]]:
    """Requests of one pass; `--cache-dir` is appended by the runner."""
    rng = _rng(seed, "kostka-cache", pass_index)
    pairs = [pair for pair in KOSTKA_PAIRS for _ in range(KOSTKA_REQUESTS_PER_PAIR)]
    rng.shuffle(pairs)
    ops, seen = [], set()
    for k, deg_max in pairs:
        if k in seen:
            family, partition = rng.choice(KOSTKA_FAMILIES), rng.choice(KOSTKA_PARTITIONS[k])
        else:
            family, partition = KOSTKA_WRITERS[k]
            seen.add(k)
        ops.append([
            "expand", "--family", family, "--partition", partition,
            "--k", str(k), "--deg-max", str(deg_max), "--format", "json",
        ])
    return ops


def generate(workload: str, seed: int, pass_index: int) -> list:
    if workload == "verify-suite":
        return [list(op) for op in verify_ops(seed, pass_index)]
    if workload == "cli-oneshot":
        return cli_ops(seed, pass_index)
    if workload == "kostka-cache":
        return kostka_ops(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")


def op_key(op) -> str:
    """Reference key of an op: its arguments, without per-pass paths."""
    if op and op[0] in ("verify", "scan") and len(op) == 4 and isinstance(op[2], int):
        kind, check, k, deg_max = op
        return f"{kind}:{check}:k={k}:deg_max={deg_max}"
    return " ".join(op)


def op_classes(workload: str, ops: list) -> list[str]:
    """The class of each op of a pass: ops of one class cost about the same.

    verify-suite: the suite; cli-oneshot: the slot; kostka-cache: the pair and
    whether the request writes (the first at its pair) or reads the matrix.
    """
    if workload == "verify-suite":
        return [op_key(op) for op in ops]
    if workload == "cli-oneshot":
        return [f"slot{_CLI_SLOT[op_key(op)]}" for op in ops]
    seen, classes = set(), []
    for op in ops:
        pair = (op[op.index("--k") + 1], op[op.index("--deg-max") + 1])
        classes.append(f"k{pair[0]}d{pair[1]}-{'read' if pair in seen else 'write'}")
        seen.add(pair)
    return classes


def catalog() -> list[tuple[str, list]]:
    """Every (workload, op) any seed can produce, for recording references."""
    ops: list[tuple[str, list]] = [("verify-suite", list(op)) for op in VERIFY_OPS]
    for slot in CLI_SLOTS:
        ops.extend(("cli-oneshot", argv + ["--format", "json"]) for argv in slot)
    for k, deg_max in KOSTKA_PAIRS:
        for family in KOSTKA_FAMILIES:
            for p in KOSTKA_PARTITIONS[k]:
                ops.append(("kostka-cache", [
                    "expand", "--family", family, "--partition", p,
                    "--k", str(k), "--deg-max", str(deg_max), "--format", "json",
                ]))
    return ops
