"""Seeded fuzzing of the command line grammar, in-process.

Each case is an argv drawn from the command table, then bent: malformed
spaces, ranges, cycle notation and degrees, huge n, '=' forms, repeated,
unknown and abbreviated options, stray words and missing values.  Whatever
the argv, the contract holds: the exit code is 0, 1, 2 or 4, neither a
traceback nor int()'s "invalid literal" reaches stderr, and stdout is
empty, one envelope line, or a CSV table when --csv was given.  A chi
bd|fd|bupper envelope echoes -n and -d as canonical ranges.  Exit 2 comes
only from the manifold gate: chi bd|fd|bupper on a space whose parity is
not "even", with the one stderr line that names the kind's locus.  The draws
stay cheap (groups of degree <= 6 and at most S_4, --verify only with
n <= 8, and `verify`, whose one battery takes about 0.1 s), apart from
`strata depth` at degree up to 40 on a trivial, cyclic or involution
generator, whose join lattice is small at any degree, and Young subgroups
and direct products of symmetric and cyclic groups at degree up to 40,
which the group commands answer factor by factor.
"""

from __future__ import annotations

import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

from fatdiag.cli import COMMANDS, _parse, main
from fatdiag.eulerchar import KINDS, chi_sp
from fatdiag.spaces import parse_space
from fatdiag.strata import length_sn

# option -> (well-formed values, malformed values)
VALUES = {
    "--space": (["torus", "sphere:2", "point", "surface:2", "projective_plane", "circle",
                 "wedge_circles:2", "torus x sphere:2", '{"betti": [1, 0, 1]}',
                 # integers past Python's 4300-digit str() limit once combined
                 '{"betti": [1, 0, %s, 0, %s], "parity": "even"}' % ("9" * 4300, "9" * 4300),
                 '{"betti": [1], "h1": {"rank": 0, "torsion": [%d, %d]}, "pi1": "abelian"}'
                 % (2**10000, 3**6300),
                 # chi = 0, and Betti numbers of up to 6001 digits in the echo
                 f"torus x surface:{10**3000} x surface:{10**3000}"],
                ["sphere:", "sphere:-1", "sphere:x", "nosuch", "", "x x", "torus x", "{",
                 "[]", '{"betti": "x"}', '{"betti": [1, 1], "parity": "odd"}',
                 "sphere:99999999", '{"betti": [1, 0.5, 1]}', '{"betti": [1, true, 1]}',
                 '{"betti": [1, "2", 1]}', '{"betti": [1, 1e400]}', "sphere:\u0663",
                 "sphere:--2", "surface:\u00b2"]),
    "-n": (["0", "1", "2", "4", "8", "2..6", "3..8", " 5 ", "+4"],
           ["8..2", "-3", "x", "", "..", "2..", "..4", "1_0", "4.0", "2..x", "\u0663",
            "\u00b2"]),
    "--degree": (["0", "1", "3", "4", "6", " 4", "+3", "100000000000"],
                 ["-1", "x", "2.5", "", "\u0663", "\u00b2"]),
    "--gens": (["", "(1 2)", "(1 2 3)", "(1 2)(3 4)", "(1 2 3 4); (1 3)", "(1 2 3); (1 2)"],
               ["(1 9)", "(1 1)", "(", "(a b)", ";;", "(0 1)", "()", "1 2", "(1 2", "(1 2));",
                "(1 \u0662)", "(1 \u00b2)"]),
    "--graph": (["gamma1", "gamma2", '{"vertices": ["a", "b"], "edges": [["a", "b"]]}',
                 '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}',
                 # integer labels, whose order as numbers is not their order as strings
                 '{"vertices": [10, 9, 100], "edges": [[10, 9], [9, 100]]}'],
                ["gamma9", "{", '{"vertices": 3, "edges": []}', "/nonexistent/graph.json", "",
                 '{"vertices": ["a"], "edges": [["a", "z"]]}',
                 '{"vertices": [1, "1"], "edges": []}']),
    "--suite": (["all"], ["none", "", "ALL"]),
}
VALUES["-d"] = VALUES["-n"]
HUGE_N = ["100000000", "2..20000000", "10" * 30, "999999999999"]
CANONICAL_RANGE = re.compile(r"(0|[1-9][0-9]*)(\.\.(0|[1-9][0-9]*))?")
VERIFY_N = ["2", "3", "4", "8", "2..5", "3..8", "8..3", "x"]
STRAY = ["extra", "-x", "--nosuch", "--", "-", "--=", "=", "-n", "--space"]


def _value(rng: random.Random, option: str, verify: bool) -> str:
    if verify and option in ("-n", "-d"):
        return rng.choice(VERIFY_N)
    if option in ("-n", "-d") and rng.random() < 0.1:
        return rng.choice(HUGE_N)
    good, bad = VALUES[option]
    return rng.choice(good if rng.random() < 0.8 else bad)


def _words(rng: random.Random, option: str, value: str | None) -> list[str]:
    name = option
    if rng.random() < 0.05 and len(option) > 3:
        name = option[:rng.randint(2, len(option) - 1)]  # an abbreviation
    if value is None:
        return [name]
    if rng.random() < 0.25:
        return [f"{name}={value}"]
    return [name, value]


def _large_depth_argv(rng: random.Random) -> tuple[list[str], int]:
    """A `strata depth` argv on a trivial, cyclic or involution generator
    of degree <= 40, and its depth: 0, the number of prime factors of the
    cycle length (the height of its divisor lattice), or 1."""
    degree = rng.randint(0, 40)
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    kind = rng.choice(["trivial", "cyclic", "involution"])
    if kind == "trivial" or degree < 2:
        return ["strata", "depth", "--degree", str(degree), "--gens", ""], 0
    if kind == "cyclic":
        gens = "(" + " ".join(map(str, points)) + ")"
        want, m, p = 0, degree, 2
        while m > 1:
            while m % p == 0:
                m, want = m // p, want + 1
            p += 1
    else:
        pairs = rng.randint(1, degree // 2)
        gens = "".join(f"({points[2 * i]} {points[2 * i + 1]})" for i in range(pairs))
        want = 1
    return ["strata", "depth", "--degree", str(degree), "--gens", gens], want


def _prime_factor_count(m: int) -> int:
    count, p = 0, 2
    while m > 1:
        while m % p == 0:
            m, count = m // p, count + 1
        p += 1
    return count


def _product_argv(rng: random.Random) -> tuple[list[str], str]:
    """A `chi gamma`, `strata depth` or `strata length` argv on a direct
    product of symmetric groups (a Young subgroup) or of symmetric and
    cyclic groups on shuffled disjoint blocks, degree <= 40, and its
    answer from the factors' closed forms: chi_sp(chi, k) for S_k and the
    necklace count (1/k) sum_{d | k} phi(d) chi^(k/d) for C_k, times chi
    per fixed point; depth k - 1 for S_k and the number of prime factors
    of k for C_k, which is also the chain length of C_k, and length_sn(k)
    for S_k."""
    command = rng.choice(["chi gamma", "strata depth", "strata length"])
    young = rng.random() < 0.5
    largest = 4 if command == "strata length" else 6
    blocks = []
    while not blocks or rng.random() < 0.6 and len(blocks) < 6:
        kind = "S" if young or rng.random() < 0.5 else "C"
        blocks.append((kind, rng.randint(2, largest if kind == "S" else 12)))
    while sum(k for _, k in blocks) > 40:
        blocks.pop()
    degree = min(40, sum(k for _, k in blocks) + rng.randint(0, 6))
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    gens, chi = [], rng.choice([-2, 0, 1, 2, 3])
    answers = {"chi gamma": Fraction(chi) ** (degree - sum(k for _, k in blocks)),
               "strata depth": 0, "strata length": 0}
    for kind, k in blocks:
        block, points = points[:k], points[k:]
        gens.append("(" + " ".join(map(str, block)) + ")")
        if kind == "S":
            gens.append(f"({block[0]} {block[1]})")
            answers["chi gamma"] *= chi_sp(chi, k)
            answers["strata depth"] += k - 1
            answers["strata length"] += length_sn(k)
        else:
            answers["chi gamma"] *= Fraction(sum(
                sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1) * chi ** (k // d)
                for d in range(1, k + 1) if k % d == 0), k)
            answers["strata depth"] += _prime_factor_count(k)
            answers["strata length"] += _prime_factor_count(k)
    rng.shuffle(gens)
    space = {-2: "surface:2", 0: "torus", 1: "point", 2: "sphere:2", 3: '{"betti": [1, 0, 2]}'}
    argv = command.split() + ["--degree", str(degree), "--gens", "; ".join(gens)]
    if command == "chi gamma":
        argv += ["--space", space[chi]]
    return argv, str(answers[command])


def random_argv(rng: random.Random) -> list[str]:
    (command, variant), (_, options, _) = rng.choice(list(COMMANDS.items()))
    argv = [command] + ([variant] if variant else [])
    if rng.random() < 0.05:
        argv = argv[:rng.randint(0, len(argv))] + [rng.choice(["chi", "xx", "gamma"])]
    verify = "--verify" in options and rng.random() < 0.3
    words = []
    for option, (kind, _) in options.items():
        if option == "--verify" and not verify:
            continue
        if rng.random() < 0.08 and option != "--suite":  # left out; its default is all
            continue
        for _ in range(2 if rng.random() < 0.1 else 1):  # repeated
            value = None if kind is bool else _value(rng, option, verify)
            words.append(_words(rng, option, value))
    rng.shuffle(words)
    argv += [word for group in words for word in group]
    if rng.random() < 0.1:
        argv.insert(rng.randint(len(argv) - len(words), len(argv)), rng.choice(STRAY))
    if rng.random() < 0.05:
        argv.append(rng.choice([o for o, (k, _) in options.items() if k is not bool]
                               or ["--suite"]))  # a missing value
    return argv


def _check(argv: list[str], rc: int, out: str, err: str) -> None:
    assert rc in (0, 1, 2, 4), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    assert "invalid literal" not in err, (argv, err)  # int()'s words never reach the user
    if rc == 2:
        _, args = _parse(argv)
        assert args.command == "chi" and args.variant in KINDS, (argv, err)
        parity = parse_space(args.space).parity
        assert parity != "even", (argv, err)
        assert err == (f"unsupported space: {KINDS[args.variant][3]} is only defined over"
                       f" closed even-dimensional manifolds; got parity {parity!r}\n"), (argv, err)
    if rc != 0:
        assert out == "", (argv, out)
        return
    lines = out.splitlines()
    if "--csv" in argv:
        assert lines[0] == "n,d,value" and len(lines) > 1, (argv, out)
        for line in lines[1:]:
            # canonical decimal integers, of any length
            assert all(re.fullmatch(r"0|-?[1-9][0-9]*", x) for x in line.split(",")), (argv, line)
        return
    assert len(lines) == 1 and out.endswith("\n"), (argv, out)
    # Decimal reads integers of any length, past int()'s 4300-digit limit
    envelope = json.loads(lines[0], parse_int=Decimal)
    assert envelope["schema"] == "fatdiag/1", (argv, out)
    if envelope["command"] in ("chi bd", "chi fd", "chi bupper"):
        # a range is echoed as the canonical text of its bounds
        for option in ("n", "d"):
            assert CANONICAL_RANGE.fullmatch(envelope["inputs"][option]), (argv, out)


def test_contract_holds_on_random_argv(capsys):
    rng = random.Random(20101)
    codes = set()
    for _ in range(400):
        argv = random_argv(rng)
        rc = main(argv)
        captured = capsys.readouterr()
        _check(argv, rc, captured.out, captured.err)
        codes.add(rc)
    assert codes == {0, 1, 2, 4}


def test_contract_holds_on_large_depth_draws(capsys):
    rng = random.Random(20112)
    for _ in range(40):
        argv, want = _large_depth_argv(rng)
        rc = main(argv)
        captured = capsys.readouterr()
        _check(argv, rc, captured.out, captured.err)
        assert rc == 0 and json.loads(captured.out)["result"] == str(want), argv


def test_contract_holds_on_product_draws(capsys):
    rng = random.Random(20113)
    for _ in range(60):
        argv, want = _product_argv(rng)
        rc = main(argv)
        captured = capsys.readouterr()
        _check(argv, rc, captured.out, captured.err)
        assert rc == 0 and json.loads(captured.out)["result"] == want, argv
