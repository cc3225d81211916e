"""Seeded inputs for each workload.

``generate(workload, seed)`` returns a list of decks; a deck is a list of
ops, each a small JSON-ready dict.  A run cycles through the decks and
stops on a deck boundary, so every run sees the same mix of op kinds and
sizes; the seed decides the order, the routes and the exact arguments.
The same seed always gives the same decks (``digest`` proves it), and
any other integer seed is accepted.
"""

from __future__ import annotations

import hashlib
import json
import random

ROUTES = ("oracle", "sum1", "sum2", "sum3", "ratio", "recurrence", "delta", "series")
DECKS = 4

# crosscheck: first_mismatch(N) sizes in one deck, as (N, copies).  One
# op reaches the N = 40 case.  The median and p75 ops fall inside the
# N = 16 and N = 18 blocks, so they do not flip between sizes, and each
# block has enough repeats to average out machine noise during a run.
CROSSCHECK_SIZES = ((6, 12), (16, 14), (18, 18), (26, 3), (40, 1))

# session: (kind, method, lam band, size band, copies per deck).  The key
# of each slot is drawn once per seed, so keys repeat across the run; the
# copy counts make the repeats skewed.  Ordered by warm cost, the median
# op falls in the recurrence block and p95 in the ratio block.
SESSION_SLOTS = (
    ("central", "series", (0, 0), (285, 300), 3),
    ("diagonal", "series", (1, 8), (190, 200), 3),
    ("diagonal", "oracle", (1, 8), (285, 300), 4),
    ("gf_Z", None, (2, 8), (190, 200), 3),
    ("diagonal", "delta", (1, 8), (285, 300), 3),
    ("central", "recurrence", (0, 0), (1900, 2000), 10),
    ("central", "sum1", (0, 0), (285, 300), 2),
    ("diagonal", "sum2", (1, 8), (190, 200), 1),
    ("central", "sum3", (0, 0), (285, 300), 1),
    ("row", None, (0, 0), (285, 300), 2),
    ("diagonal", "ratio", (1, 8), (190, 200), 4),
)

# quadrature: the timed domain stops this far from the edges where the
# package is known to fail (see README.md); the failing inputs are run by
# workloads.quadrature_known_defects() instead.  Near an edge the panel
# count grows without bound, so seeded points stay INTERIOR_GAP inside
# and every deck adds the same fixed points towards each edge; that keeps
# the cost of a deck from depending on the seed.
GF_EDGE_GAP = 1e-5
B_MAX = 0.999
INTERIOR_GAP = 1e-2
GF_EDGE_POINTS = [-1.0 + gap for gap in (1e-2, 1e-3, 1e-4, GF_EDGE_GAP)] + [
    1.0 / 3.0 - gap for gap in (1e-2, 1e-3, 1e-4, GF_EDGE_GAP)
]
B_EDGE_POINTS = [1e-6, 1e-3, 1.0 - INTERIOR_GAP, B_MAX]
FOURIER_MAX_N = 14
Z_MAX_N = 30


def _crosscheck(rng: random.Random) -> list[list[dict]]:
    decks = []
    for _ in range(DECKS):
        sizes = [n for n, copies in CROSSCHECK_SIZES for _ in range(copies)]
        rng.shuffle(sizes)
        decks.append([{"max_n": n, "methods": rng.sample(ROUTES, len(ROUTES))} for n in sizes])
    return decks


def _session(rng: random.Random) -> list[list[dict]]:
    deck = []
    for kind, method, lams, sizes, copies in SESSION_SLOTS:
        lam = rng.randint(*lams)
        size = rng.randint(*sizes)
        if kind == "central":
            op = {"kind": kind, "method": method, "max_n": size}
        elif kind == "diagonal":
            op = {"kind": kind, "method": method, "lam": lam, "max_n": size}
        elif kind == "gf_Z":
            op = {"kind": kind, "lam": lam, "order": size + lam}
        else:
            op = {"kind": kind, "n": size}
        deck += [op] * copies
    decks = []
    for _ in range(DECKS):
        order = list(deck)
        rng.shuffle(order)
        decks.append(order)
    return decks


def _gf_x(rng: random.Random) -> float:
    return rng.uniform(-1.0 + INTERIOR_GAP, 1.0 / 3.0 - INTERIOR_GAP)


def _cli(rng: random.Random) -> list[list[dict]]:
    decks = []
    for _ in range(DECKS):
        ops = []
        for _ in range(3):
            ops.append({"verb": "central", "args": ["--max-n", str(rng.randint(1800, 2000)), "--method", "recurrence"]})
            ops.append({"verb": "row", "args": ["--n", str(rng.randint(150, 300))]})
            ops.append({"verb": "diag", "args": ["--lambda", str(rng.randint(1, 8)), "--max-n", str(rng.randint(30, 50)),
                                                 "--method", rng.choice(ROUTES)]})
            ops.append({"verb": "gf", "args": ["--order", str(rng.randint(30, 50)), "--lambda", str(rng.randint(0, 6))]})
        n = rng.randint(0, Z_MAX_N)
        ops.append({"verb": "quad", "args": ["--kind", "z", "--n", str(n), "--lambda", str(rng.randint(0, n))]})
        # "--x=" keeps a negative value from reading as a flag
        ops.append({"verb": "quad", "args": ["--kind", "gf", f"--x={round(_gf_x(rng) * 10000)}/10000"]})
        for _ in range(2):
            ops.append({"verb": "crosscheck", "args": ["--max-n", str(rng.randint(4, 8))]})
        rng.shuffle(ops)
        decks.append(ops)
    return decks


def _quadrature(rng: random.Random) -> list[list[dict]]:
    decks = []
    for _ in range(DECKS):
        ops = [{"kind": "z", "n": n, "lam": lam} for n in range(Z_MAX_N + 1) for lam in range(n + 1)]
        xs = [_gf_x(rng) for _ in range(32)] + GF_EDGE_POINTS
        ops += [{"kind": "gf", "x": x} for x in xs]
        bs = [rng.uniform(INTERIOR_GAP, 1.0 - INTERIOR_GAP) for _ in range(12)] + B_EDGE_POINTS
        ops += [{"kind": "b_identity", "b": b, "lam": lam} for b in bs for lam in range(9)]
        ops += [{"kind": "b_chain", "b": b, "max_lambda": 8} for b in bs]
        ops += [{"kind": "fourier", "n": n} for n in range(FOURIER_MAX_N + 1)]
        rng.shuffle(ops)
        decks.append(ops)
    return decks


GENERATORS = {
    "crosscheck": _crosscheck,
    "session": _session,
    "cli": _cli,
    "quadrature": _quadrature,
}


def generate(workload: str, seed: int) -> list[list[dict]]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(decks: list[list[dict]]) -> str:
    text = json.dumps(decks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
