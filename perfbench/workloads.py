"""Seeded workload generators.

A batch is its workload's lead ops, which hold the anchors and are the same
for every seed, followed by a number of rounds.  A round holds one seeded
draw for each of the workload's slots.  Round r of seed s draws from its own
generator, seeded by the string "<workload>:<s>:<r>", so a round never
depends on how many rounds the batch has and recorded digests stay valid
for any batch length.

The slots of a round are chosen so that the median op and the op at the
tail percentile fall well inside a group of ops of about the same cost,
whatever the seed; the anchors, costly and run once, sit above the tail.

An op is either a `cusp-ledger` command line (run through `cli.main` with
`--json`) or a library tower cross-check, written as
("tower", family, depth, terms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    id: str                 # "<round>.<slot>", stable across batch lengths
    argv: tuple[str, ...]
    expect_exit: int
    anchor: bool = False


# -- family-scan ------------------------------------------------------------

# nmax ranges, narrow and chosen so that every scan costs about the same,
# whatever its depth; d2-7 and cphi2-5 divide by eta seven and four times,
# so they get shorter ranges
VERIFY_NMAX = {"p-5": (2550, 2650), "p-7": (2550, 2650),
               "p-11": (2550, 2650), "pd-5": (2450, 2550),
               "d2-7": (850, 880), "cphi2-5": (880, 910)}
# first counterexample (n, valuation) of `verify --beta <schedule beta + 1>`;
# only depths whose witness lies below every drawn nmax are listed, so these
# runs always exit 1
BETA_WITNESS = {
    ("p-5", 1): (4, 1), ("p-5", 2): (24, 2), ("p-5", 3): (99, 3),
    ("p-5", 4): (599, 4), ("p-5", 5): (2474, 5),
    ("p-7", 1): (5, 1), ("p-7", 2): (47, 2), ("p-7", 3): (243, 2),
    ("p-7", 4): (2301, 3),
    ("p-11", 1): (6, 1), ("p-11", 2): (116, 2), ("p-11", 3): (721, 3),
    ("pd-5", 1): (26, 1), ("pd-5", 2): (651, 2),
    ("d2-7", 1): (43, 1),
    ("cphi2-5", 1): (3, 1), ("cphi2-5", 2): (23, 2), ("cphi2-5", 3): (73, 3),
}
# tower cross-check slots: (family, depth, terms range), each costing about
# twice a scan, so that the towers form the group the tail falls in
TOWER_SLOTS = (("p-5", 3, (21, 22)), ("p-7", 3, (7, 7)),
               ("p-11", 2, (21, 22)), ("p-5", 4, (4, 4)))
# scans run with --jobs 2: the p-11 scan and the second --beta run, fixed so
# that every round has the same mix of pooled and serial scans
SHARDED_SCANS = (2, 7)

FAMILY_ANCHORS = (("verify", "--family", "p-5", "--alpha", "3",
                   "--nmax", "20000"),
                  ("verify", "--family", "d2-7", "--alpha", "1",
                   "--nmax", "8000"))


def family_scan_round(rng: random.Random, families: dict) -> list:
    scans = []
    for fam, (lo, hi) in VERIFY_NMAX.items():
        alpha = rng.choice(sorted(families[fam]["schedule"], key=int))
        scans.append([("verify", "--family", fam, "--alpha", alpha,
                       "--nmax", str(rng.randint(lo, hi))), 0])
    for fam, alpha in rng.sample(sorted(BETA_WITNESS), 2):
        nmax = rng.randint(*VERIFY_NMAX[fam])
        beta = families[fam]["schedule"][str(alpha)]["beta"] + 1
        scans.append([("verify", "--family", fam, "--alpha", str(alpha),
                       "--nmax", str(nmax), "--beta", str(beta)), 1])
    for i in SHARDED_SCANS:
        scans[i][0] = ("--jobs", "2") + scans[i][0]
    towers = [(("tower", fam, str(depth), str(rng.randint(*terms))), 0)
              for fam, depth, terms in TOWER_SLOTS]
    return scans + towers


# -- reduce-chart -----------------------------------------------------------

REDUCE_ANCHOR = ("reduce", "--target", "family:p-5:L2", "--basis", "level-5",
                 "--terms", "300")
# family targets: (target, basis, prime, terms range); the ranges of the
# costly targets are narrow so that a round's cost hardly depends on the seed
FAMILY_TARGETS = (("family:p-5:L1", "level-5", 5, (150, 300)),
                  ("family:p-5:L2", "level-5", 5, (115, 125)),
                  ("family:p-7:L1", "level-7", 7, (195, 205)),
                  ("family:pd-5:L1", "level-10", 5, (150, 300)))
# two cubics per genus-0 basis: with p-7:L1 they form a group of seven ops of
# about the same cost, wide enough that the median op and the tail fall
# inside it for every seed
POLY_BASES = ("level-5", "level-7", "level-10", "level-5", "level-7",
              "level-10", "demo-genus1")


def reduce_chart_round(rng: random.Random, families: dict) -> list:
    ops = []
    for target, basis, prime, terms in FAMILY_TARGETS:
        argv = ("reduce", "--target", target, "--basis", basis,
                "--terms", str(rng.randint(*terms)))
        if rng.random() < 0.5:
            argv += ("--prime", str(prime))
        ops.append((argv, 0))
    for basis in POLY_BASES:
        # a cubic in x with random integer coefficients
        coeffs = [rng.randint(-9, 9) for _ in range(3)]
        coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
        argv = ("reduce", "--target", "poly:" + ",".join(map(str, coeffs)),
                "--basis", basis, "--terms", str(rng.randint(95, 105)))
        if rng.random() < 0.5:
            argv += ("--prime", str(rng.choice([2, 3, 5, 7])))
        ops.append((argv, 0))
    # every pole target on the genus-1 basis runs into the gap at order 1
    ops.append((("reduce", "--target", f"pole:{rng.randint(1, 6)}",
                 "--basis", "demo-genus1", "--terms", "40"), 1))
    return ops


# -- eta-search -------------------------------------------------------------

# levels by divisor count, each with the largest bound that keeps the box
# (2b+1)^(k-1) at or below about 80k candidates
K8_LEVELS = (24, 30, 40, 42, 54, 56, 66, 70, 78, 88)
SEARCH_CLASSES = {
    "k8": (K8_LEVELS, 2),
    "k6": ((12, 18, 20, 28, 32, 44, 45, 50, 52, 63, 68, 75), 3),
    "k5": ((16, 81), 3),
    "k4": ((6, 8, 10, 14, 15, 21, 22, 26, 27, 33, 34, 35), 3),
    "k8-b1": (K8_LEVELS, 1),
}
SEARCH_SLOTS = ("k8", "k6", "k6", "k6", "k6", "k5", "k4", "k8-b1")
SEARCH_ANCHOR = ("find-eta", "--level", "30", "--constraints", "1<0",
                 "--bound", "2")


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _constraints(rng: random.Random, level: int) -> tuple[str, ...]:
    kind = rng.choice(("none", "pole", "localizer", "exact"))
    if kind == "none":
        return ()
    if kind == "pole":
        text = "1<0"
    elif kind == "localizer":
        text = ",".join(["1<0"] + [f"{c}>=1" for c in divisors(level)[1:]])
    else:
        text = f"1==-{rng.randint(1, 3)}"
    return ("--constraints", text)


def _with_curves(search: tuple[str, ...], level: int) -> list:
    return [(("profile", str(level)), 0),
            (("classify", "--level", str(level)), 0), (search, 0)]


def eta_search_round(rng: random.Random, families: dict) -> list:
    ops, searches = [], []
    for cls in SEARCH_SLOTS:
        levels, bound = SEARCH_CLASSES[cls]
        level = rng.choice(levels)
        searches.append([("find-eta", "--level", str(level))
                         + _constraints(rng, level) + ("--bound", str(bound)),
                         level])
    # the 8-divisor search at bound 2 is sharded over two workers in every
    # round, so that every round has the same mix of pooled and serial
    # searches (a pooled six-divisor search costs a fifth more)
    searches[0][0] = ("--jobs", "2") + searches[0][0]
    for argv, level in searches:
        ops.extend(_with_curves(argv, level))
    return ops


# -- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    anchors: tuple[tuple[str, ...], ...]
    lead: tuple             # (argv, exit code) of the ops before the rounds
    lead_seconds: float     # nominal time of the lead ops
    round_seconds: float    # nominal time of one round; sets rounds per run


WORKLOADS = {w.name: w for w in (
    Workload("family-scan", family_scan_round, FAMILY_ANCHORS,
             tuple((argv, 0) for argv in FAMILY_ANCHORS), 2.7, 1.07),
    Workload("reduce-chart", reduce_chart_round, (REDUCE_ANCHOR,),
             ((REDUCE_ANCHOR, 0),), 1.2, 1.45),
    Workload("eta-search", eta_search_round, (SEARCH_ANCHOR,),
             tuple(_with_curves(SEARCH_ANCHOR, 30)), 0.8, 1.55),
)}


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds in a batch meant to take about `seconds` on the reference box.

    The count depends only on the arguments, so both sides of a comparison
    run exactly the same work."""
    return max(1, round((seconds - workload.lead_seconds)
                        / workload.round_seconds))


def make_round(workload: Workload, seed: int, index: int,
               families: dict) -> list[Op]:
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    return [Op(f"{index}.{slot}", tuple(argv), code)
            for slot, (argv, code)
            in enumerate(workload.make_round(rng, families))]


def make_batch(workload: Workload, seed: int, rounds: int,
               families: dict) -> list[Op]:
    """The lead ops and `rounds` rounds; `families` maps a family name to
    its entry in the shipped catalog."""
    anchors = set(workload.anchors)
    lead = [Op(f"a.{i}", argv, code, argv in anchors)
            for i, (argv, code) in enumerate(workload.lead)]
    return lead + [op for r in range(rounds)
                   for op in make_round(workload, seed, r, families)]
