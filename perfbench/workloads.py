"""Seeded command lists for the three benchmark workloads.

Each workload is a list of `Command`s: the argv handed to `fatdiag` and the
facts the correctness gate needs to check its output.  The program only
ever sees the argv.

Every list is built from a fixed roster of slots whose cost is known; the
seed picks, inside each slot, what does not change the cost much (the
space, the multiplicity bound d, small shifts of n, a relabelling of the
points a group acts on) and the order of the commands.  That keeps the
total work of a list nearly the same for every seed, so run-to-run
spread measures the program and not the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    facts: dict = field(default_factory=dict, compare=False, hash=False)


def digest(commands: list[Command]) -> str:
    """sha256 of the argv lists, the identity of a generated workload."""
    blob = json.dumps([list(c.args) for c in commands], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# Even-parity presets with Euler characteristic from -4 to 2.
EVEN_SPACES = {
    "point": 1,
    "projective_plane": 1,
    "sphere:2": 2,
    "sphere:4": 2,
    "torus": 0,
    "torus x sphere:2": 0,
    "surface:2": -2,
    "surface:3": -4,
}

# Connected spaces with their Poincare polynomials (for betti and pi1).
GROUP_SPACES = {
    "circle": (1, 1),
    "sphere:2": (1, 0, 1),
    "torus": (1, 2, 1),
    "surface:2": (1, 4, 1),
    "projective_plane": (1,),
    "wedge_circles:2": (1, 2),
}


# --------------------------------------------------------------------------
# formula-sweep


# (kind, n band, d band as fractions of n, count).  Three tiers.  The
# three heaviest commands reach n = 45; the largest, which sets the peak
# memory, has d >= n - 1 so that its vectors always have 43-44 entries.
# Then a tier of 22 commands of nearly equal cost at n = 30-35 with
# d >= n/2, where the number of multiplicity vectors is close to p(n) and
# barely depends on d; it holds both the median and the tail percentile,
# so neither sits on a jump between tiers.  Then twelve light commands
# over the rest of the range.  Draws of a slot are antithetic in pairs
# (the second mirrors the first inside the band), so the costs of a pair
# nearly add up to a constant.
_FORMULA_SLOTS = [
    ("bd", (45, 45), (0.97, 1.0), 1),
    ("fd", (40, 41), (0.9, 1.0), 1),
    ("bupper", (41, 42), (0.9, 0.97), 1),
    ("bd", (34, 35), (0.5, 1.0), 8),
    ("bupper", (34, 35), (0.5, 0.97), 8),
    ("fd", (30, 31), (0.5, 1.0), 6),
    ("bd", (20, 45), (0.0, 0.15), 1),
    ("fd", (20, 45), (0.0, 0.15), 1),
    ("bupper", (20, 45), (0.0, 0.15), 1),
    ("bd", (20, 28), (0.0, 1.0), 1),
    ("fd", (20, 28), (0.0, 1.0), 1),
    ("bupper", (20, 28), (0.0, 1.0), 1),
    ("sp", (20, 45), None, 2),
]

# (kind, first n band, n width, d span, csv); d starts at 2-4, which keeps
# the grids light and their cost steady.
_FORMULA_GRIDS = [
    ("bd", (20, 24), 3, 4, False),
    ("fd", (20, 24), 3, 4, True),
    ("bupper", (20, 24), 3, 4, False),
    ("bd", (20, 24), 3, 4, True),
]


def _pick(lo: int, hi: int, u: float) -> int:
    """Integer of [lo, hi] at quantile u of [0, 1)."""
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def formula_sweep(seed: int) -> list[Command]:
    rng = random.Random(f"formula-sweep/{seed}")
    spaces = sorted(EVEN_SPACES)
    out = []
    for kind, n_band, d_band, count in _FORMULA_SLOTS:
        u_n, u_d = rng.random(), rng.random()
        for i in range(count):
            if i % 2:
                u_n, u_d = 1 - u_n, 1 - u_d
            elif i:
                u_n, u_d = rng.random(), rng.random()
            space = rng.choice(spaces)
            n = _pick(*n_band, u_n)
            facts = {"kind": kind, "chi": EVEN_SPACES[space], "n": n}
            if kind == "sp":
                out.append(Command(("chi", "sp", "--space", space, "-n", str(n)), facts))
                continue
            d_min = 1 if kind == "bupper" else 2
            d_lo = max(d_min, round(d_band[0] * n))
            d = _pick(d_lo, max(d_lo, min(n, round(d_band[1] * n))), u_d)
            facts["d"] = d
            out.append(Command(
                ("chi", kind, "--space", space, "-n", str(n), "-d", str(d)), facts))
    for kind, n_band, width, d_span, csv in _FORMULA_GRIDS:
        space = rng.choice(spaces)
        n_lo = rng.randint(*n_band)
        n_hi = n_lo + width - 1
        d_lo = rng.randint(2, 4)
        d_hi = d_lo + d_span
        args = ["chi", kind, "--space", space,
                "-n", f"{n_lo}..{n_hi}", "-d", f"{d_lo}..{d_hi}"]
        if csv:
            args.append("--csv")
        out.append(Command(tuple(args), {
            "kind": kind, "chi": EVEN_SPACES[space], "grid": True, "csv": csv,
            "n": (n_lo, n_hi), "d": (d_lo, d_hi)}))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# group-strata


def _cycle(points) -> str:
    return "(" + " ".join(str(p) for p in points) + ")"


def _sym_gens(block: list[int]) -> list[str]:
    if len(block) < 2:
        return []
    if len(block) == 2:
        return [_cycle(block)]
    return [_cycle(block), _cycle(block[:2])]


def cyclic(n: int) -> list[str]:
    return [_cycle(range(1, n + 1))]


def dihedral(n: int) -> list[str]:
    flip = "".join(_cycle((i, n + 1 - i)) for i in range(1, n // 2 + 1))
    return [_cycle(range(1, n + 1)), flip]


def symmetric(n: int) -> list[str]:
    return _sym_gens(list(range(1, n + 1)))


def alternating(n: int) -> list[str]:
    return [_cycle((i, i + 1, i + 2)) for i in range(1, n - 1)]


def young(*sizes: int) -> list[str]:
    gens, start = [], 1
    for size in sizes:
        gens += _sym_gens(list(range(start, start + size)))
        start += size
    return gens


def wreath(k: int, m: int) -> list[str]:
    """S_k wr S_m, imprimitive on m blocks of k points."""
    blocks = [list(range(1 + b * k, 1 + (b + 1) * k)) for b in range(m)]
    gens = _sym_gens(blocks[0])
    swap = "".join(_cycle((blocks[0][i], blocks[1][i])) for i in range(k))
    gens.append(swap)
    if m > 2:
        gens.append("".join(_cycle([blocks[b][i] for b in range(m)]) for i in range(k)))
    return gens


@dataclass(frozen=True)
class Family:
    name: str
    degree: int
    order: int
    gens: tuple[str, ...]
    verbs: tuple[str, ...]  # chi, betti, pi1, depth, length; depth may repeat
    symmetric: bool = False


def _family(name, degree, order, gens, verbs, symmetric_=False):
    return Family(name, degree, order, tuple(gens), tuple(verbs.split()), symmetric_)


# Degrees 3-8, orders 2-5040.  `strata length` only runs up to order 24.
# `strata depth` runs where it costs 0.2-0.4 s (each twice, on two
# relabellings), which makes a tier of fourteen commands of nearly equal
# cost that holds the tail percentile, plus one heavier depth on
# S2xS3xS3.  A_5 and S_5 lengths and depth on S_7 belong to the sweep.
GROUP_ROSTER = [
    _family("S3", 3, 6, symmetric(3), "chi betti depth length", True),
    _family("V4", 4, 2, ["(1 2)(3 4)"], "chi betti pi1 length"),
    _family("A4", 4, 12, alternating(4), "chi betti length"),
    _family("S4", 4, 24, symmetric(4), "chi betti pi1 length", True),
    _family("S5", 5, 120, symmetric(5), "chi betti pi1", True),
    _family("S2xS3", 5, 12, young(2, 3), "chi betti length"),
    _family("S3wrS2", 6, 72, wreath(3, 2), "chi betti pi1"),
    _family("S6", 6, 720, symmetric(6), "chi betti pi1 depth depth", True),
    _family("S3xS4", 7, 144, young(3, 4), "chi betti depth depth"),
    _family("S2xS5", 7, 240, young(2, 5), "chi betti pi1 depth"),
    _family("A7", 7, 2520, alternating(7), "chi betti"),
    _family("S7", 7, 5040, symmetric(7), "chi betti pi1", True),
    _family("C8", 8, 8, cyclic(8), "chi betti depth depth"),
    _family("D8", 8, 16, dihedral(8), "chi betti pi1 depth depth length"),
    _family("S2^4", 8, 16, young(2, 2, 2, 2), "chi betti depth depth"),
    _family("S4+4", 8, 24, symmetric(4), "chi betti depth"),
    _family("S3xS3+2", 8, 36, young(3, 3), "chi betti depth"),
    _family("S2xS3xS3", 8, 72, young(2, 3, 3), "chi betti depth"),
    _family("S2wrS4", 8, 384, wreath(2, 4), "chi betti pi1"),
    _family("S4wrS2", 8, 1152, wreath(4, 2), "chi betti pi1"),
]

FAMILIES = {f.name: f for f in GROUP_ROSTER}


def relabel(gens, perm: dict[int, int]) -> str:
    """Generators in cycle notation with every point p renamed perm[p]."""
    out = []
    for gen in gens:
        text, current = "", []
        for token in gen.replace("(", " ( ").replace(")", " ) ").split():
            if token == "(":
                current = []
            elif token == ")":
                text += _cycle(current)
            else:
                current.append(perm[int(token)])
        out.append(text)
    return "; ".join(out)


def group_strata(seed: int) -> list[Command]:
    """Every roster command on a seeded relabelling of the group's points:
    chi, betti, pi1 and length share one relabelling and chi and betti one
    space; each depth gets a relabelling of its own."""
    rng = random.Random(f"group-strata/{seed}")
    spaces = sorted(GROUP_SPACES)

    def group(fam):
        points = list(range(1, fam.degree + 1))
        image = points[:]
        rng.shuffle(image)
        return ("--degree", str(fam.degree),
                "--gens", relabel(fam.gens, dict(zip(points, image))))

    out = []
    for fam in GROUP_ROSTER:
        shared, space = group(fam), rng.choice(spaces)
        for verb in fam.verbs:
            facts = {"family": fam.name, "space": space}
            if verb in ("chi", "betti"):
                args = (verb, "gamma", "--space", space) + shared
            elif verb == "pi1":
                args = ("pi1", "gamma", "--space", rng.choice(spaces)) + shared
                facts["space"] = None
            elif verb == "depth":
                args = ("strata", "depth") + group(fam)
            else:
                args = ("strata", verb) + shared
            out.append(Command(args, facts))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# oracle-check


# (kind, n, how many); d and the space are drawn per command.  Besides
# the few heavy commands (and `verify --suite all`), a tier of twelve
# n = 8 verifications holds the tail percentile and the light commands
# hold the median.
_ORACLE_SLOTS = [
    ("bd", 10, 1), ("bd", 9, 1), ("fd", 9, 1),
    ("bd", 8, 6), ("fd", 8, 6),
    ("bupper", 10, 2), ("bupper", 9, 2), ("bupper", 8, 2), ("bupper", 7, 1),
    ("bupper", 6, 1), ("bupper", 5, 1), ("bupper", 4, 1),
    ("bd", 7, 2), ("fd", 7, 2), ("bd", 6, 1), ("fd", 6, 1),
    ("bd", 5, 1), ("fd", 5, 1), ("bd", 4, 1), ("fd", 4, 1),
]

_GRAPHS_PER_LIST = 16


def random_connected_graph(rng: random.Random, min_v: int = 4, max_v: int = 8):
    """A connected simple graph on letters, as (vertices, edges)."""
    while True:
        n = rng.randint(min_v, max_v)
        names = [chr(ord("a") + i) for i in range(n)]
        edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                 if rng.random() < 0.45]
        seen, frontier = {names[0]}, [names[0]]
        while frontier:
            x = frontier.pop()
            for a, b in edges:
                for u, v in ((a, b), (b, a)):
                    if u == x and v not in seen:
                        seen.add(v)
                        frontier.append(v)
        if len(seen) == n:
            return names, edges


def oracle_check(seed: int) -> list[Command]:
    rng = random.Random(f"oracle-check/{seed}")
    spaces = sorted(EVEN_SPACES)
    out = []
    for kind, n, count in _ORACLE_SLOTS:
        for _ in range(count):
            space = rng.choice(spaces)
            d = rng.randint(1 if kind == "bupper" else 2, n)
            out.append(Command(
                ("chi", kind, "--space", space, "-n", str(n), "-d", str(d), "--verify"),
                {"kind": kind, "chi": EVEN_SPACES[space], "n": n, "d": d}))
    for _ in range(_GRAPHS_PER_LIST):
        names, edges = random_connected_graph(rng)
        text = json.dumps({"vertices": names, "edges": [list(e) for e in edges]},
                          separators=(",", ":"))
        out.append(Command(("graph", "chi2", "--graph", text, "--oracle"),
                           {"vertices": names, "edges": edges}))
    out.append(Command(("verify", "--suite", "all"), {}))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "formula-sweep": formula_sweep,
    "group-strata": group_strata,
    "oracle-check": oracle_check,
}


def generate(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](seed)
