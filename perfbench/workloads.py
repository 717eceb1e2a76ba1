"""Workload pools and the seeded draw of each run's op lists.

A workload is a fixed sequence of slots.  Each slot is one size class and
holds a few CLI invocations of about the same cost; a pass (one fresh
client interpreter) runs one invocation from every slot, in slot order.
The seed only chooses the order in which each slot's members take turns,
so every seed gives the same mix of size classes and the same order of
layers, and over a run's rounds every member runs about equally often: the
seed does not shift the run's cost.
"""

from __future__ import annotations

import itertools
import random

CERT_PATH = "perfbench/.work/certificate.json"


def _lp(q: int, r: int, n: int, program: str, k: int, cert: bool = False) -> str:
    flag = "--d" if program == "I" else "--t"
    argv = f"lp --q {q} --r {r} --n {n} {flag} {k} --program {program}"
    return argv + f" --certificate {CERT_PATH}" if cert else argv


def _bounds(q: int, r: int, n: int, d: int) -> str:
    return f"bounds --q {q} --r {r} --n {n} --d {d}"


def _asym(q: int, r: int, curve: str, grid: int) -> str:
    return f"asym --q {q} --r {r} --curve {curve} --grid {grid}"


# Each slot: (size-class label, candidate invocations of similar cost).
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    # Exact Delsarte LPs on small spaces; lp I and lp II on one space share
    # its Krawtchouk table, as in a sweep that tabulates LP bounds.
    "lp-sweep": [
        ("q2r2n6-I", [_lp(2, 2, 6, "I", d) for d in (3, 4)]),
        ("q2r2n6-II", [_lp(2, 2, 6, "II", t) for t in (5, 6, 7)]),
        ("q3r2n6-I", [_lp(3, 2, 6, "I", d) for d in (4, 5, 6)]),
        ("q3r2n6-II", [_lp(3, 2, 6, "II", t) for t in (7, 8)]),
        ("q2r3n4-I-cert", [_lp(2, 3, 4, "I", d, cert=True) for d in (4, 5, 6)]),
        ("q2r3n4-II", [_lp(2, 3, 4, "II", t) for t in (7, 8)]),
        ("q2r4n3-I", [_lp(2, 4, 3, "I", d) for d in (3, 4)]),
        ("q2r4n3-II", [_lp(2, 4, 3, "II", t) for t in (8, 9)]),
    ],
    # Depth-2 bounds: root scans at real arguments and a cold exact
    # Krawtchouk table per op, since every op is on a different space.
    "bounds-r2": [
        ("q4r2n8", [_bounds(4, 2, 8, d) for d in (7, 8)]),
        ("q3r2n9", [_bounds(3, 2, 9, d) for d in (7, 10, 11)]),
        ("q2r2n12", [_bounds(2, 2, 12, d) for d in (10, 11)]),
    ],
    # Deep spaces (r >= 3, 950 to 2300 shapes) where the depth-2 bound does
    # not apply: shape enumeration and the scheme operators carry the time.
    "bounds-deep": [
        ("q3r3n16", [_bounds(3, 3, 16, d) for d in (14, 15)]),
        ("q3r4n10", [_bounds(3, 4, 10, d) for d in (13, 14)]),
        ("q2r4n12", [_bounds(2, 4, 12, d) for d in (14, 15, 16)]),
        ("q2r3n22", [_bounds(2, 3, 22, d) for d in (22, 23)]),
    ],
    # Pure-Python float grids of the asymptotic curves; no exact arithmetic.
    "asym-grids": [
        ("lp-r3", [_asym(q, 3, "lp", 4) for q in (2, 3)]),
        ("lp2-r2", [_asym(q, 2, "lp2", 14) for q in (2, 3, 4)]),
        ("be", [_asym(q, r, "be", g) for q, r, g in ((2, 3, 200), (3, 2, 240), (2, 4, 160))]),
        ("gv", [_asym(q, r, "gv", g) for q, r, g in ((2, 3, 200), (3, 3, 240), (2, 2, 160))]),
    ],
}


def op_kind(argv: list[str]) -> str:
    """Kind of an invocation for per-kind time sums: lp_I, lp_II, asym_lp, ..."""
    if argv[0] == "lp":
        return "lp_" + argv[argv.index("--program") + 1]
    if argv[0] == "asym":
        return "asym_" + argv[argv.index("--curve") + 1]
    return argv[0]


def pool(workload: str) -> list[str]:
    """Every invocation a run of this workload can draw."""
    return [cmd for _, cands in WORKLOADS[workload] for cmd in cands]


def draws(workload: str, seed: int):
    """Endless op lists, one per pass: [(slot label, command)] in slot order."""
    rng = random.Random(f"{workload}/{seed}")
    turns = [(label, rng.sample(cands, len(cands))) for label, cands in WORKLOADS[workload]]
    for index in itertools.count():
        yield [(label, order[index % len(order)]) for label, order in turns]
