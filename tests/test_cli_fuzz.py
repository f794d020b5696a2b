"""Seeded fuzzing of the command line grammar, in-process.

Each case is an argv drawn from the command table, then bent: malformed
spaces, ranges, cycle notation and degrees, huge n, '=' forms, repeated,
unknown and abbreviated options, stray words and missing values.  Whatever
the argv, the contract holds: the exit code is 0, 1, 2 or 4, no traceback
reaches stderr, and stdout is empty, one envelope line, or a CSV table
when --csv was given.  The draws stay cheap (groups of degree <= 6 and at
most S_4, --verify only with n <= 8, no `verify --suite all`).
"""

from __future__ import annotations

import json
import random

from fatdiag.cli import COMMANDS, main

# option -> (well-formed values, malformed values)
VALUES = {
    "--space": (["torus", "sphere:2", "point", "surface:2", "projective_plane", "circle",
                 "wedge_circles:2", "torus x sphere:2", '{"betti": [1, 0, 1]}'],
                ["sphere:", "sphere:-1", "sphere:x", "nosuch", "", "x x", "torus x", "{",
                 "[]", '{"betti": "x"}', '{"betti": [1, 1], "parity": "odd"}',
                 "sphere:99999999"]),
    "-n": (["0", "1", "2", "4", "8", "2..6", "3..8", " 5 ", "+4"],
           ["8..2", "-3", "x", "", "..", "2..", "..4", "1_0", "4.0", "2..x"]),
    "--degree": (["0", "1", "3", "4", "6", " 4", "+3"], ["-1", "x", "2.5", ""]),
    "--gens": (["", "(1 2)", "(1 2 3)", "(1 2)(3 4)", "(1 2 3 4); (1 3)", "(1 2 3); (1 2)"],
               ["(1 9)", "(1 1)", "(", "(a b)", ";;", "(0 1)", "()", "1 2", "(1 2", "(1 2));"]),
    "--graph": (["gamma1", "gamma2", '{"vertices": ["a", "b"], "edges": [["a", "b"]]}',
                 '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}'],
                ["gamma9", "{", '{"vertices": 3, "edges": []}', "/nonexistent/graph.json", "",
                 '{"vertices": ["a"], "edges": [["a", "z"]]}']),
    "--suite": (["fast"], ["none", "", "ALL"]),
}
VALUES["-d"] = VALUES["-n"]
HUGE_N = ["100000000", "2..20000000", "10" * 30, "999999999999"]
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
    if rc != 0:
        assert out == "", (argv, out)
        return
    lines = out.splitlines()
    if "--csv" in argv:
        assert lines[0] == "n,d,value" and len(lines) > 1, (argv, out)
        for line in lines[1:]:
            assert [str(int(x)) for x in line.split(",")] == line.split(","), (argv, line)
        return
    assert len(lines) == 1 and out.endswith("\n"), (argv, out)
    assert json.loads(lines[0])["schema"] == "fatdiag/1", (argv, out)


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
