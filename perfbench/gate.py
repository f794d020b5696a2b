"""Correctness gate: every command must exit 0 and print one correct answer.

`check_all` looks at the outputs of a whole pass, because the group
workload's identities tie commands together (chi from `chi gamma` is the
alternating sum of `betti gamma` on the same group and space).  It returns
one failure reason per failed command.
"""

from __future__ import annotations

import json
from pathlib import Path

import reference
from workloads import FAMILIES, GROUP_SPACES, Command

SCHEMA = "fatdiag/1"
EXPECTED_GROUPS = Path(__file__).with_name("expected_groups.json")
PI1_KIND = {"circle": "abelian", "sphere:2": "trivial", "torus": "abelian",
            "surface:2": "opaque", "projective_plane": "abelian",
            "wedge_circles:2": "opaque"}


def load_expected() -> dict:
    with open(EXPECTED_GROUPS, encoding="utf-8") as fh:
        return json.load(fh)


def expected_key(cmd: Command) -> str:
    """Key of a group command in expected_groups.json.  Results do not
    change when the points are relabelled, so one table serves every seed."""
    verb = " ".join(cmd.args[:2])
    space = cmd.args[3] if cmd.args[2] == "--space" else ""
    return f"{cmd.facts['family']}|{verb}|{space}"


def envelope(stdout: str, command: str) -> dict:
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one envelope line, got {len(lines)} lines")
    env = json.loads(lines[0])
    if not isinstance(env, dict) or env.get("schema") != SCHEMA:
        raise ValueError("not a fatdiag/1 envelope")
    if env.get("command") != command:
        raise ValueError(f"envelope command {env.get('command')!r} != {command!r}")
    return env


def _int(text) -> int:
    if not isinstance(text, str):
        raise ValueError(f"integer not serialized as a string: {text!r}")
    return int(text)


def _cells(facts: dict) -> list[tuple[int, int]]:
    d_min = 1 if facts["kind"] == "bupper" else 2
    (n_lo, n_hi), (d_lo, d_hi) = facts["n"], facts["d"]
    return [(n, d) for n in range(n_lo, n_hi + 1) for d in range(d_lo, d_hi + 1)
            if d_min <= d <= n]


def _check_value(kind: str, chi: int, n: int, d, got: int) -> None:
    bad = reference.identity_violation(kind, chi, n, d, got)
    if bad:
        raise ValueError(f"chi {kind} n={n} d={d}: {bad}")
    want = reference.value(kind, chi, n, d)
    if got != want:
        raise ValueError(f"chi {kind} chi={chi} n={n} d={d}: got {got}, reference {want}")


def _check_chi(cmd: Command, stdout: str) -> None:
    facts, kind = cmd.facts, cmd.facts["kind"]
    chi = facts["chi"]
    if facts.get("csv"):
        lines = stdout.splitlines()
        if not lines or lines[0] != "n,d,value":
            raise ValueError("csv output lacks its n,d,value header")
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        if [(n, d) for n, d, _ in rows] != _cells(facts):
            raise ValueError("csv rows do not cover the requested grid")
        for n, d, got in rows:
            _check_value(kind, chi, n, d, got)
        return
    env = envelope(stdout, f"chi {kind}")
    if _int(env["inputs"]["space"]["euler"]) != chi:
        raise ValueError("space echo has the wrong Euler characteristic")
    if facts.get("grid"):
        rows = env["result"]
        if [(r["n"], r["d"]) for r in rows] != _cells(facts):
            raise ValueError("grid rows do not cover the requested grid")
        for r in rows:
            _check_value(kind, chi, r["n"], r["d"], _int(r["value"]))
        return
    got = _int(env["result"])
    _check_value(kind, chi, facts["n"], facts.get("d"), got)
    if "--verify" in cmd.args:
        oracles = env.get("oracle_results") or {}
        names = {"bd": {"cycle_type_average", "stratification_sum"},
                 "fd": {"set_partition_sum"}, "bupper": {"complement"}}[kind]
        if kind != "bupper" and facts["d"] == 2:
            names = names | {"closed_d2_form"}
        if set(oracles) != names:
            raise ValueError(f"oracles {sorted(oracles)}, expected {sorted(names)}")
        for name, text in oracles.items():
            if _int(text) != got:
                raise ValueError(f"oracle {name} = {text} disagrees with {got}")


def _check_graph(cmd: Command, stdout: str) -> None:
    env = envelope(stdout, "graph chi2")
    vertices, edges = cmd.facts["vertices"], cmd.facts["edges"]
    inputs = env["inputs"]
    if (inputs["vertices"], inputs["edges"]) != (len(vertices), len(edges)):
        raise ValueError("graph echo has the wrong size")
    got = _int(env["result"])
    want = reference.graph_chi2(vertices, edges)
    if got != want:
        raise ValueError(f"graph chi2 = {got}, reference {want}")
    if (env.get("oracle_results") or {}).get("discretized") != str(got):
        raise ValueError("discretized oracle missing or disagrees")


def _check_verify(stdout: str) -> None:
    result = envelope(stdout, "verify")["result"]
    checks = result["checks"]
    if result["failed"] != "0" or not checks or any(c["status"] != "ok" for c in checks):
        raise ValueError(f"verify reported failures: {result}")
    if result["passed"] != str(len(checks)):
        raise ValueError("verify pass count disagrees with its check list")


def _orbits(degree: int, gens: str) -> tuple[int, int]:
    """(fixed points, orbits of size >= 2) of the group on its points."""
    parent = list(range(degree + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for gen in gens.split(";"):
        for cycle in gen.replace(")", "").split("("):
            points = [int(p) for p in cycle.split()]
            for a, b in zip(points, points[1:]):
                parent[find(a)] = find(b)
    sizes: dict[int, int] = {}
    for p in range(1, degree + 1):
        sizes[find(p)] = sizes.get(find(p), 0) + 1
    fixed = sum(1 for s in sizes.values() if s == 1)
    return fixed, len(sizes) - fixed


def _check_group(cmd: Command, stdout: str, expected: dict) -> object:
    fam = FAMILIES[cmd.facts["family"]]
    verb = " ".join(cmd.args[:2])
    env = envelope(stdout, verb)
    if env["inputs"]["group_order"] != str(fam.order):
        raise ValueError(f"group order {env['inputs']['group_order']}, expected {fam.order}")
    result = env["result"]
    key = expected_key(cmd)
    if key not in expected:
        raise ValueError(f"no stored expected result for {key}")
    if result != expected[key]:
        raise ValueError(f"{key}: got {result}, stored {expected[key]}")
    n = fam.degree
    if verb == "pi1 gamma":
        # Pi1(X) per fixed point, H1(X) per orbit of size >= 2; Pi1 factors
        # fold into H1 when Pi1 is abelian and everything vanishes when X
        # is simply connected.
        fixed, moved = _orbits(n, cmd.args[cmd.args.index("--gens") + 1])
        want = {"trivial": (0, 0), "abelian": (0, fixed + moved),
                "opaque": (fixed, moved)}[PI1_KIND[cmd.args[3]]]
        got = (result["pi1_exponent"], result["h1_exponent"])
        if got != tuple(str(e) for e in want):
            raise ValueError(f"pi1 exponents {got} for orbits ({fixed}, {moved})")
    elif fam.symmetric:
        space = cmd.args[3]
        if verb == "chi gamma":
            want = str(reference.chi_sp(sum((-1) ** k * b for k, b in
                                            enumerate(GROUP_SPACES[space])), n))
        elif verb == "betti gamma":
            want = {str(k): str(v) for k, v in
                    sorted(reference.macdonald(GROUP_SPACES[space], n).items())}
        elif verb == "strata depth":
            want = str(n - 1)
        else:
            want = str(reference.length_sn(n))
        if result != want:
            raise ValueError(f"{verb} on S_{n}: got {result}, reference {want}")
    return result


def check_all(commands: list[Command], outputs: list[tuple[int, str]],
              expected: dict | None = None) -> dict[int, str]:
    """Failure reason per index of `commands`; `outputs` holds (exit code,
    stdout) for each."""
    failures: dict[int, str] = {}
    group_results: dict[tuple, tuple[int, object]] = {}
    for i, (cmd, (code, stdout)) in enumerate(zip(commands, outputs)):
        if code != 0:
            failures[i] = f"exit code {code}"
            continue
        try:
            if "family" in cmd.facts:
                if expected is None:
                    expected = load_expected()
                result = _check_group(cmd, stdout, expected)
                verb = " ".join(cmd.args[:2])
                group_results[(cmd.facts["family"], cmd.facts["space"], verb)] = (i, result)
            elif cmd.args[0] == "chi":
                _check_chi(cmd, stdout)
            elif cmd.args[0] == "graph":
                _check_graph(cmd, stdout)
            elif cmd.args[0] == "verify":
                _check_verify(stdout)
            else:
                raise ValueError(f"no check for {cmd.args[0]}")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"
    # chi(X^n / G) is the alternating sum of its Betti numbers.
    for (family, space, verb), (i, result) in group_results.items():
        if verb != "chi gamma":
            continue
        betti = group_results.get((family, space, "betti gamma"))
        if betti is None:
            continue
        alternating = sum((-1) ** int(k) * int(v) for k, v in betti[1].items())
        if int(result) != alternating:
            failures.setdefault(i, f"{family} on {space}: chi {result} != "
                                   f"alternating Betti sum {alternating}")
    return failures

