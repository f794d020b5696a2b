from __future__ import annotations

import ast
import functools
import importlib
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import fatdiag
from fatdiag.cli import main
from fatdiag.spaces import MAX_LABEL_DEPTH


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "fatdiag/1"
    assert set(payload) <= {"schema", "command", "inputs", "result", "oracle_results"}
    return payload


def test_chi_sp(capsys):
    payload = run_json(capsys, "chi", "sp", "--space", "sphere:2", "-n", "4")
    assert payload["command"] == "chi sp"
    assert payload["result"] == "5"
    assert payload["inputs"]["space"]["euler"] == "2"


def test_chi_bd_single_with_verify(capsys):
    payload = run_json(
        capsys, "chi", "bd", "--space", "sphere:2", "-n", "4", "-d", "2", "--verify"
    )
    assert payload["result"] == "5"
    oracles = payload["oracle_results"]
    assert oracles["cycle_type_average"] == "5"
    assert oracles["stratification_sum"] == "5"
    assert oracles["closed_d2_form"] == "5"


def test_chi_fd_single(capsys):
    payload = run_json(capsys, "chi", "fd", "--space", "sphere:2", "-n", "3", "-d", "2")
    assert payload["result"] == "8"


def test_chi_grid(capsys):
    payload = run_json(
        capsys, "chi", "bd", "--space", "sphere:2", "-n", "2..5", "-d", "2", "--verify"
    )
    rows = payload["result"]
    assert [(r["n"], r["d"], r["value"]) for r in rows] == [
        (2, 2, "2"),
        (3, 2, "4"),
        (4, 2, "5"),
        (5, 2, "6"),
    ]


def test_chi_grid_skips_invalid_cells(capsys):
    payload = run_json(capsys, "chi", "bd", "--space", "sphere:2", "-n", "2..4", "-d", "3")
    rows = payload["result"]
    assert [(r["n"], r["d"]) for r in rows] == [(3, 3), (4, 3)]


def test_chi_bupper_allows_d1(capsys):
    payload = run_json(
        capsys, "chi", "bupper", "--space", "sphere:2", "-n", "2", "-d", "1", "--verify"
    )
    assert payload["result"] == "1"


def test_chi_csv(capsys):
    rc, out, err = run(
        capsys, "chi", "bd", "--space", "sphere:2", "-n", "4..5", "-d", "2..3", "--csv"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,value"
    assert "4,2,5" in lines and "5,2,6" in lines
    assert len(lines) == 5


def test_grid_rows_equal_single_cells(capsys):
    # a grid builds one column per d; each row is what the cell's own
    # command prints
    for kind in ("bd", "fd", "bupper"):
        for space in ("surface:3", "sphere:2"):
            rc, out, err = run(capsys, "chi", kind, "--space", space,
                               "-n", "1..12", "-d", "1..9", "--csv")
            assert rc == 0, err
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            assert len(rows) == sum(min(n, 9) - (kind != "bupper") for n in range(1, 13))
            for n, d, value in rows:
                single = run_json(capsys, "chi", kind, "--space", space, "-n", n, "-d", d)
                assert single["result"] == value, (kind, space, n, d)


def test_torus_grid_vanishes(capsys):
    # chi = 0 kills every stratum of the unordered fat diagonal; the whole
    # 2..200 grid answers at once
    rc, out, err = run(capsys, "chi", "bd", "--space", "torus",
                       "-n", "2..200", "-d", "2..200", "--csv")
    assert rc == 0, err
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 199 * 200 // 2
    assert {row.rpartition(",")[2] for row in rows} == {"0"}


def test_chi_grid_with_verify(capsys):
    for kind in ("bd", "fd"):
        rc, out, err = run(capsys, "chi", kind, "--space", "surface:2",
                           "-n", "4..9", "-d", "2..9", "--verify", "--csv")
        assert rc == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,value"
        assert len(lines) == 1 + sum(n - 1 for n in range(4, 10))


def test_chi_space_product_expression(capsys):
    payload = run_json(
        capsys, "chi", "sp", "--space", "sphere:2 x sphere:2", "-n", "2"
    )
    # chi = 4, chi_sp(4, 2) = 10
    assert payload["result"] == "10"


def test_chi_space_json_file(capsys, tmp_path):
    f = tmp_path / "space.json"
    f.write_text(json.dumps({"label": "demo", "betti": [1, 0, 2], "parity": "even"}))
    payload = run_json(capsys, "chi", "sp", "--space", str(f), "-n", "2")
    assert payload["result"] == "6"


def test_chi_gamma(capsys):
    payload = run_json(
        capsys,
        "chi", "gamma",
        "--space", "sphere:2",
        "--degree", "3",
        "--gens", "(1 2 3)",
    )
    assert payload["result"] == "4"
    assert payload["inputs"]["group_order"] == "3"


def test_betti_gamma(capsys):
    payload = run_json(
        capsys,
        "betti", "gamma",
        "--space", "torus",
        "--degree", "3",
        "--gens", "(1 2 3)",
    )
    assert payload["result"] == {
        "0": "1", "1": "2", "2": "5", "3": "8", "4": "5", "5": "2", "6": "1"
    }


def test_pi1_bd(capsys):
    payload = run_json(capsys, "pi1", "bd", "--space", "circle", "-n", "4", "-d", "2")
    result = payload["result"]
    assert result["display"] == "H1(X)"
    assert result["abelian"]["display"] == "Z"
    assert result["abelian"]["rank"] == "1"


def test_pi1_bd_opaque(capsys):
    payload = run_json(capsys, "pi1", "bd", "--space", "surface:2", "-n", "6", "-d", "4")
    result = payload["result"]
    assert result["display"] == "Pi1(X) x H1(X)"
    assert result["abelian"] is None


def test_pi1_gamma(capsys):
    payload = run_json(
        capsys,
        "pi1", "gamma",
        "--space", "wedge_circles:2",
        "--degree", "4",
        "--gens", "(1 2)",
    )
    assert payload["result"]["display"] == "Pi1(X)^2 x H1(X)"


def _child_env() -> dict:
    """Environment for a child Python that imports this fatdiag."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(fatdiag.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


# Runs the CLI on the argv given and prints its exit code, its peak
# resident set in kilobytes (Linux, from wait4) and then its stdout.  Linux
# starts a child's peak at that of the process it was spawned from, so the
# CLI is spawned from this small interpreter, not from the test process.
_PEAK_SPAWNER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "fatdiag.cli", *sys.argv[1:]],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
with proc.stdout:
    out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\\n")
sys.stdout.write(out.decode())
"""


def _child_peak(*argv: str) -> tuple[dict, int]:
    """Run the CLI in a grandchild; its JSON output and its own peak
    resident set in kilobytes."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_SPAWNER, *argv],
                          capture_output=True, text=True, env=_child_env(), check=True)
    head, out = proc.stdout.split("\n", 1)
    code, peak = map(int, head.split())
    assert code == 0
    return json.loads(out), peak


def test_child_peak_is_the_cli_own():
    # a test process that has touched 64 MB must not raise the reading
    ballast = b"\x01" * (64 << 20)
    payload, peak = _child_peak("chi", "sp", "--space", "torus", "-n", "5")
    assert payload["result"] == "0"
    assert peak < 40 * 1024
    del ballast


def test_pi1_gamma_memory_is_linear_in_degree():
    # orbit counting of the trivial group on 10^6 points must stay far
    # below the ~570 MB that per-point orbit sets took
    payload, peak = _child_peak("pi1", "gamma", "--space", "circle",
                                "--degree", "1000000", "--gens", "")
    assert payload["result"]["display"] == "H1(X)^1000000"
    assert peak < 200 * 1024


def test_chi_gamma_streams_the_group():
    # S_9's 362880 elements are streamed from the stabilizer chain, not
    # stored: an element set peaked at about 91 MB
    payload, peak = _child_peak("chi", "gamma", "--space", "torus",
                                "--degree", "9", "--gens", "(1 2 3 4 5 6 7 8 9); (1 2)")
    assert payload["result"] == "0"
    assert payload["inputs"]["group_order"] == "362880"
    assert peak < 40 * 1024


# Runs main on each '|'-separated argv given, then prints the exit codes
# and the names of every module loaded, as a Python literal (printing JSON
# would load json itself).  The child runs under -S: a site hook (a .pth
# file of some installed package) may import modules such as typing first
# and hide what the package itself loads.
_LOADED_MODULES = """
import contextlib, io, sys
from fatdiag.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv.split("|")) for argv in sys.argv[1:]]
print(repr([codes, sorted(sys.modules)]))
"""


def _loaded_modules(*argvs: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-S", "-c", _LOADED_MODULES, *argvs],
                          capture_output=True, text=True, env=_child_env(), check=True)
    codes, modules = ast.literal_eval(proc.stdout)
    assert codes == [0] * len(argvs)
    return set(modules)


def test_commands_import_only_what_they_run():
    loaded = _loaded_modules("chi|sp|--space|torus|-n|5",
                             "chi|bd|--space|sphere:2|-n|4|-d|2")
    for name in ("argparse", "gettext", "locale", "dataclasses", "inspect", "json", "re", "enum",
                 "__future__", "typing", "fatdiag.selfcheck", "fatdiag.graphconf",
                 "fatdiag.strata", "fatdiag.fundgroup", "fatdiag.permgroup"):
        assert name not in loaded, name
    # no command loads json, not even to read a JSON --space or --graph,
    # and chi bd --verify reads the classes of S_n without the group engine
    loaded = _loaded_modules('chi|sp|--space|{"betti": [1]}|-n|2',
                             'graph|chi2|--graph|{"vertices": ["a", "b"], "edges": [["a", "b"]]}'
                             "|--oracle",
                             "chi|bd|--space|sphere:2|-n|6|-d|3|--verify")
    assert {"json", "__future__", "typing", "re", "enum", "fatdiag.permgroup"} & loaded == set()
    assert {"fatdiag.jsonread", "fatdiag.graphconf", "fatdiag.combinatorics"} <= loaded
    # verify loads every module but the JSON reader
    package = {f"fatdiag.{path.stem}" for path in Path(fatdiag.__file__).parent.glob("*.py")
               if path.stem != "__init__"}
    loaded = _loaded_modules("verify", "--help")
    assert package - loaded == {"fatdiag.jsonread"}
    assert {"argparse", "gettext", "locale", "json", "__future__", "typing", "re",
            "enum"} & loaded == set()
    # the commands on a group share one handler, and each loads only the
    # modules its invariant runs
    group = "|--degree|3|--gens|(1 2 3)"
    for argv, modules in (
        ("pi1|bd|--space|circle|-n|4|-d|2", {"cli", "errors", "spaces", "algebra", "fundgroup"}),
        ("strata|length" + group, {"cli", "errors", "permgroup", "strata"}),
        ("strata|depth" + group, {"cli", "errors", "permgroup", "strata"}),
        ("pi1|gamma|--space|torus" + group,
         {"cli", "errors", "permgroup", "spaces", "algebra", "fundgroup"}),
        ("chi|gamma|--space|torus" + group,
         {"cli", "errors", "permgroup", "spaces", "algebra", "eulerchar", "combinatorics"}),
        ("betti|gamma|--space|torus" + group,
         {"cli", "errors", "permgroup", "spaces", "algebra", "invariants"}),
    ):
        loaded = _loaded_modules(argv)
        assert {name for name in loaded if name.startswith("fatdiag.")} == {
            f"fatdiag.{name}" for name in modules}, argv
        assert {"re", "enum"} & loaded == set(), argv
    # a graph fixture is read without the JSON reader
    loaded = {name for name in _loaded_modules("graph|chi2|--graph|gamma1|--oracle")
              if name.startswith("fatdiag.")}
    assert loaded == {"fatdiag.cli", "fatdiag.errors", "fatdiag.graphconf"}


def _cli_env() -> dict:
    """_child_env() with block-buffered stdio, as a command run from a shell
    or a pipe has."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_process(*argv: str, **popen) -> subprocess.CompletedProcess:
    """`python -m fatdiag.cli argv` in a child; stdout and stderr are
    captured as bytes unless popen says otherwise."""
    popen = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen}
    return subprocess.run([sys.executable, "-m", "fatdiag.cli", *argv], env=_cli_env(),
                          **popen)


# One command per COMMANDS entry, then a usage error (1), an unsupported
# space (2) and a guard trip (4).
_PROCESS_CASES = [
    ("chi", "sp", "--space", "torus", "-n", "5"),
    ("chi", "bd", "--space", "sphere:2", "-n", "6", "-d", "3", "--verify"),
    ("chi", "fd", "--space", "sphere:2", "-n", "2..6", "-d", "2..3", "--csv"),
    ("chi", "bupper", "--space", "surface:2", "-n", "2..5", "-d", "1..2"),
    ("chi", "gamma", "--space", "torus", "--degree", "4", "--gens", "(1 2 3 4)"),
    ("betti", "gamma", "--space", "torus", "--degree", "3", "--gens", "(1 2 3)"),
    ("pi1", "bd", "--space", "circle", "-n", "4", "-d", "2"),
    ("pi1", "gamma", "--space", "wedge_circles:2", "--degree", "4", "--gens", "(1 2)"),
    ("strata", "depth", "--degree", "4", "--gens", "(1 2 3 4); (1 2)"),
    ("strata", "length", "--degree", "4", "--gens", "(1 2 3 4)"),
    ("graph", "chi2", "--graph", "gamma1", "--oracle"),
    ("verify",),
    ("chi", "sp", "-n", "5"),
    ("chi", "bd", "--space", "circle", "-n", "4", "-d", "2"),
    ("chi", "bd", "--space", '{"betti": [1, 0, %d], "parity": "even"}' % (2**1000 - 1),
     "-n", "1730", "-d", "2"),
]
# about 82 KB of output, more than a 64 KiB pipe buffer
_GRID_CSV = ("chi", "fd", "--space", "torus", "-n", "2..140", "-d", "2..140", "--csv")
_SMALL = ("chi", "sp", "--space", "torus", "-n", "5")


def _without_times(err: str) -> str:
    """verify's stderr with each check's milliseconds blanked."""
    return re.sub(r"\(\d+\.\d ms\)", "(ms)", err)


def _last_line(err: bytes) -> bytes:
    return err.rstrip(b"\n").rsplit(b"\n", 1)[-1]


def test_cli_process_ends_as_main_returns(capsys):
    # the process ends through run(): flushed stdio, then os._exit with
    # main()'s code, so what it prints and returns is what main() gives
    from fatdiag.cli import COMMANDS

    assert {argv[:2] if argv[0] != "verify" else ("verify", None)
            for argv in _PROCESS_CASES[:-3]} == set(COMMANDS)
    codes = []
    for argv in _PROCESS_CASES + [_GRID_CSV]:
        code, out, err = run(capsys, *argv)
        proc = _cli_process(*argv)
        assert proc.returncode == code, argv
        assert proc.stdout == out.encode(), argv
        assert _without_times(proc.stderr.decode()) == _without_times(err), argv
        codes.append(code)
    assert codes == [0] * 12 + [1, 2, 4, 0]
    assert len(proc.stdout) > 65536


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_process_on_a_full_device():
    # a write that fails inside main() is a bug report, exit 5; a flush that
    # fails after main() (the output fitted in the buffer) falls back to
    # the interpreter's own exit, which reports it and exits 120
    with open("/dev/full", "wb") as full:
        grid = _cli_process(*_GRID_CSV, stdout=full)
        small = _cli_process(*_SMALL, stdout=full)
    assert grid.returncode == 5
    assert grid.stderr.startswith(b"Traceback")
    assert _last_line(grid.stderr).startswith(b"OSError: [Errno 28]")
    assert small.returncode == 120
    assert small.stderr.startswith(b"Exception ignored")
    assert _last_line(small.stderr).startswith(b"OSError: [Errno 28]")


def test_cli_process_with_stdout_closed_at_spawn():
    # sys.stdout is None: print writes nothing, and the process exits 0
    for argv in (_SMALL, _GRID_CSV):
        proc = _cli_process(*argv, stdout=None, preexec_fn=functools.partial(os.close, 1))
        assert (proc.returncode, proc.stderr) == (0, b""), argv


def test_cli_process_whose_reader_closes_early():
    # the reader takes ten bytes of a grid larger than the pipe buffer and
    # closes: the rest of the write fails inside main(), exit 5
    with subprocess.Popen([sys.executable, "-m", "fatdiag.cli", *_GRID_CSV], env=_cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 5
    assert err.startswith(b"Traceback")
    assert _last_line(err).startswith(b"BrokenPipeError")


def test_strata_depth_and_length(capsys):
    payload = run_json(
        capsys, "strata", "depth", "--degree", "4", "--gens", "(1 2 3 4)"
    )
    assert payload["result"] == "2"
    payload = run_json(
        capsys, "strata", "length", "--degree", "4", "--gens", "(1 2 3 4)"
    )
    assert payload["result"] == "2"


def test_strata_multiple_generators(capsys):
    payload = run_json(
        capsys, "strata", "depth", "--degree", "4", "--gens", "(1 2 3 4); (1 3)"
    )
    assert payload["inputs"]["group_order"] == "8"


def test_graph_chi2_fixture(capsys):
    payload = run_json(capsys, "graph", "chi2", "--graph", "gamma1", "--oracle")
    assert payload["result"] == "-4"
    assert payload["oracle_results"]["discretized"] == "-4"
    payload = run_json(capsys, "graph", "chi2", "--graph", "gamma2")
    assert payload["result"] == "-6"
    assert "oracle_results" not in payload


def test_graph_chi2_inline_json(capsys):
    doc = json.dumps(
        {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
    )
    payload = run_json(capsys, "graph", "chi2", "--graph", doc, "--oracle")
    assert payload["result"] == "0"


def test_graph_json_file_with_or_without_at(capsys, tmp_path):
    # --graph reads any path, as --space reads an @path: both through
    # jsonread.load
    path = tmp_path / "path3.json"
    path.write_text('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}')
    for ref in (str(path), "@" + str(path)):
        payload = run_json(capsys, "graph", "chi2", "--graph", ref)
        assert (payload["result"], payload["inputs"]["edges"]) == ("2", 2)
    rc, out, err = run(capsys, "graph", "chi2", "--graph", "@" + str(tmp_path / "none.json"))
    assert rc == 1 and out == "" and "No such file" in err


def _young_gens(*sizes: int) -> str:
    """Generators of S_a1 x S_a2 x ... on consecutive blocks from point 1."""
    gens, start = [], 1
    for size in sizes:
        gens += [f"({' '.join(map(str, range(start, start + size)))})", f"({start} {start + 1})"]
        start += size
    return "; ".join(gens)


def test_betti_gamma_multiplies_over_direct_factors(capsys):
    # P(X^n / G) is P^f times the symmetric products' polynomials over the
    # blocks (Kunneth): S_6^5 and S_5^8 exited 4 while the whole group's
    # histogram was averaged (51,003,747 and 123,727,338 products)
    from fatdiag.invariants import macdonald_poincare_sp
    from fatdiag.spaces import preset

    torus = preset("torus").poincare()
    for degree, sizes in ((30, (6,) * 5), (40, (5,) * 8), (7, (2, 3)), (8, (2, 2, 3)),
                          (8, (3, 4))):
        want = torus ** (degree - sum(sizes))
        for size in sizes:
            want = want * macdonald_poincare_sp(torus, size)
        payload = run_json(capsys, "betti", "gamma", "--space", "torus",
                           "--degree", str(degree), "--gens", _young_gens(*sizes))
        assert payload["result"] == {str(d): str(c) for d, c in
                                     sorted(want.coefficients().items())}, sizes


def test_large_inputs_of_spaces_are_guarded(capsys, monkeypatch):
    # a torsion order with a large prime factor is refused on its trial
    # divisions, and a long Betti vector on its coefficient products,
    # before the first; 10^5 copies of Z/2 still answer
    from fatdiag.algebra import GradedPolynomial

    def refuse(self, other):
        raise AssertionError("a product was made")

    monkeypatch.setattr(GradedPolynomial, "__mul__", refuse)
    for argv in (
        ("chi", "gamma", "--space", '{"betti":[1],"h1":{"rank":0,"torsion":[100000000000031]}}',
         "--degree", "2", "--gens", ""),
        ("betti", "gamma", "--space", '{"betti": [%s]}' % ", ".join(["1"] * 3001),
         "--degree", "2", "--gens", ""),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 4 and out == "", err
    payload = run_json(capsys, "pi1", "gamma", "--space", "projective_plane",
                       "--degree", "100000", "--gens", "")
    assert payload["result"]["abelian"]["torsion"] == ["2"] * 100000


def test_graph_oracle_is_guarded_before_it_counts(capsys, monkeypatch):
    # K_60 subdivides to 60 + 5 * 1770 = 8910 cells, 39.7 * 10^6 pair
    # tests: the guard refuses it before subdividing or counting anything
    from fatdiag import graphconf

    def never(graph):
        raise AssertionError("cells counted past the guard")

    monkeypatch.setattr(graphconf, "_cell_pair_count", never)
    names = [f"v{i}" for i in range(60)]
    doc = json.dumps({"vertices": names,
                      "edges": [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]})
    rc, out, err = run(capsys, "graph", "chi2", "--graph", doc, "--oracle")
    assert rc == 4 and out == ""
    assert "resource guard: discretized cell pairs" in err
    # the closed formula alone still answers: chi = 60 - 1770, every degree 59
    payload = run_json(capsys, "graph", "chi2", "--graph", doc)
    assert payload["result"] == str((-1710) ** 2 - 1710 - 60 * 58 * 57) == "2724030"


def test_verify_suite_fast_is_a_usage_error(capsys):
    # verify runs one battery: --suite takes all only
    rc, out, err = run(capsys, "verify", "--suite", "fast")
    assert rc == 1 and out == ""
    assert err == "error: --suite takes one of all, got 'fast'\n"


def test_output_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "chi", "bd", "--space", "torus", "-n", "2..6", "-d", "2..6")
    rc2, out2, _ = run(capsys, "chi", "bd", "--space", "torus", "-n", "2..6", "-d", "2..6")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_exit_code_usage_errors(capsys):
    cases = [
        ("chi", "sp", "--space", "nosuchspace", "-n", "2"),
        ("chi", "sp", "--space", "sphere:2", "-n", "2..4"),
        ("chi", "bd", "--space", "sphere:2", "-n", "5..2", "-d", "2"),
        ("chi", "bd", "--space", "sphere:2", "-n", "2", "-d", "5"),
        ("chi", "bd", "--space", "sphere:2", "-n", "x", "-d", "2"),
        ("graph", "chi2", "--graph", "gamma9"),
        ("strata", "depth", "--degree", "4", "--gens", "(1 9)"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert err.strip(), argv


_LOCI = {"bd": "unordered fat diagonal", "fd": "ordered fat diagonal",
         "bupper": "multiplicity-bounded symmetric product"}


def _gate_line(kind: str, parity: str) -> str:
    return (f"unsupported space: {_LOCI[kind]} is only defined over closed even-dimensional"
            f" manifolds; got parity '{parity}'\n")


def test_exit_code_unsupported_space(capsys):
    # the manifold gate: chi bd|fd|bupper, single cells and grids, with or
    # without --verify and --csv, exit 2 with one stderr line on a space
    # that is not even
    for space, parity in (("circle", "odd"), ("sphere:3", "odd"), ("wedge_circles:2", "none")):
        for kind in _LOCI:
            for extra in ((), ("--verify",), ("--csv",)):
                for n, d in (("4", "2"), ("2..5", "2..3")):
                    argv = ("chi", kind, "--space", space, "-n", n, "-d", d, *extra)
                    assert run(capsys, *argv) == (2, "", _gate_line(kind, parity)), argv


def test_manifold_gate_precedence(capsys):
    # an empty grid (exit 1) and the grid-cell guard come before the gate,
    # and the gate before the result-size bound
    rc, out, err = run(capsys, "chi", "bd", "--space", "circle", "-n", "3", "-d", "9")
    assert (rc, out) == (1, "")
    assert err == "error: no valid (n, d) pairs with 2 <= d <= n in the ranges\n"
    rc, out, err = run(capsys, "chi", "bd", "--space", "circle", "-n", "0..1000",
                       "-d", "0..1000")
    assert (rc, out) == (4, "")
    assert err.startswith("resource guard: grid cells: size 499500 ")
    space = '{"betti": [1, 0, %d], "parity": "%s"}'
    rc, out, err = run(capsys, "chi", "bd", "--space", space % (2**4000, "odd"),
                       "-n", "1000", "-d", "2")
    assert (rc, out, err) == (2, "", _gate_line("bd", "odd"))
    rc, out, err = run(capsys, "chi", "bd", "--space", space % (2**4000, "even"),
                       "-n", "1000", "-d", "2")
    assert (rc, out) == (4, "")
    assert err.startswith("resource guard: result size: ")


def test_other_commands_take_any_parity(capsys):
    # only chi bd|fd|bupper ask the manifold gate
    group = ("--degree", "3", "--gens", "(1 2 3); (1 2)")
    for space in ("circle", "sphere:3", "wedge_circles:2"):
        for argv in (("chi", "sp", "-n", "3"), ("chi", "gamma", *group),
                     ("betti", "gamma", *group), ("pi1", "gamma", *group),
                     ("pi1", "bd", "-n", "4", "-d", "2")):
            payload = run_json(capsys, *argv[:2], "--space", space, *argv[2:])
            assert payload["inputs"]["space"]["parity"] != "even"


def test_exit_code_resource_guard(capsys, guard_scale_env):
    # M_11: the depth search would make 9 * 10^6 units of tests and joins
    rc, out, err = run(capsys, "strata", "depth", "--degree", "11",
                       "--gens", "(1 2 3 4 5 6 7 8 9 10 11); (3 7 11 8)(4 10 5 6)")
    assert rc == 4 and out == ""
    assert "resource guard: stratification depth" in err
    # the guard scales down with the environment knob
    guard_scale_env("0.00001")
    rc, _, err = run(capsys, "strata", "depth", "--degree", "4", "--gens", "(1 2 3 4)")
    assert rc == 4


def test_closed_formula_guard_limits_work(capsys):
    # every n <= 1000 answers at any d.  For d > n/2 the point of
    # multiplicity m >= d is unique: C(n, m) chi (chi - 1)^(n - m) per m.
    payload = run_json(capsys, "chi", "fd", "--space", "sphere:2", "-n", "1000", "-d", "501")
    assert payload["result"] == str(sum(2 * math.comb(1000, m) for m in range(501, 1001)))
    # chi = 0: (1 + q)^0 = 1 has no q^1500 term
    payload = run_json(capsys, "chi", "bupper", "--space", "torus", "-n", "1500", "-d", "1")
    assert payload["result"] == "0"
    # the ordinary form is charged by the length of its coefficients:
    # (1 + ... + q^30000)^-6 is (1 - q)^6 up to q^30000, whose q^30000 term
    # is 0, and (1 + q)^0 has no q^100000 term
    for argv in (("chi", "bupper", "--space", "surface:4", "-n", "30000", "-d", "30000"),
                 ("chi", "bupper", "--space", "torus", "-n", "100000", "-d", "1")):
        assert run_json(capsys, *argv)["result"] == "0"
    # beyond the estimated-work limit the guard trips before any work, and
    # the stratum-enumeration oracle of --verify is guarded too
    for argv, guard in (
        (("chi", "fd", "--space", "sphere:2", "-n", "100000", "-d", "50000"),
         "closed formula work"),
        (("chi", "bupper", "--space", "torus", "-n", "1000000", "-d", "1"),
         "closed formula work"),
        # a bd column is charged with the untruncated chi_sp series it is
        # taken from: with chi = 4096 its coefficients reach 36,000 bits
        (("chi", "bd", "--space", '{"betti": [1, 0, 4095], "parity": "even"}',
          "-n", "700000", "-d", "2"), "closed formula work"),
        (("chi", "bd", "--space", "sphere:2", "-n", "730000", "-d", "3"),
         "closed formula work"),
        (("chi", "bupper", "--space", "torus", "-n", "60", "-d", "2", "--verify"),
         "stratification_sum_bd"),
        # group enumeration is guarded on |G| * degree before the identity
        (("chi", "gamma", "--space", "torus", "--degree", "100000000", "--gens", ""),
         "group enumeration"),
        # a space is guarded on its Betti length before the vector is built
        (("chi", "sp", "--space", "sphere:99999999", "-n", "2"), "space size"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 4, argv
        assert guard in err
        assert out == ""


def test_verify_oracles_are_guarded_on_work(capsys):
    # the set-partition oracles answer past n = 10, each cell checked by
    # every oracle, and are refused on their estimated work before they run
    payload = run_json(capsys, "chi", "bd", "--space", "sphere:2", "-n", "11", "-d", "3",
                       "--verify")
    assert payload["result"] == "12"
    assert payload["oracle_results"] == {"cycle_type_average": "12",
                                         "stratification_sum": "12"}
    payload = run_json(capsys, "chi", "fd", "--space", "surface:2", "-n", "30", "-d", "2",
                       "--verify")
    assert payload["oracle_results"]["set_partition_sum"] == payload["result"]
    for argv, guard in (
        (("chi", "bd", "--space", "sphere:2", "-n", "18", "-d", "3", "--verify"),
         "oracle_bd_burnside: size 59507"),
        (("chi", "fd", "--space", "sphere:2", "-n", "51", "-d", "2", "--verify"),
         "oracle_fd_setpartitions: size 316251"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 4, argv
        assert guard in err
        assert out == ""


def test_pi1_gamma_answers_past_the_walk_guard(capsys):
    # the stabilizer chain gives |G| at once: pi1 gamma answers on S_10.
    # chi gamma walks one coset per conjugacy orbit of cosets, so it
    # answers on S_10 too, chi_sp(2, 10) = 11, and is refused on S_11
    # before that walk
    s10 = ("--degree", "10", "--gens", "(1 2 3 4 5 6 7 8 9 10); (1 2)")
    payload = run_json(capsys, "pi1", "gamma", "--space", "torus", *s10)
    assert payload["inputs"]["group_order"] == "3628800"
    assert payload["result"]["display"] == "H1(X)"
    payload = run_json(capsys, "chi", "gamma", "--space", "sphere:2", *s10)
    assert payload["result"] == "11"
    rc, out, err = run(capsys, "chi", "gamma", "--space", "torus", "--degree", "11",
                       "--gens", "(1 2 3 4 5 6 7 8 9 10 11); (1 2)")
    assert rc == 4 and out == ""
    assert "group enumeration: size 11586960" in err


def test_exact_results_past_the_digit_limit(capsys):
    # Python's default str() stops at 4300 digits; results are printed in
    # full up to the result-size guard, which exits 4 with nothing printed
    limit = sys.get_int_max_str_digits()
    payload = run_json(capsys, "chi", "gamma", "--space", "sphere:2", "--degree", "20000",
                       "--gens", "")
    assert payload["result"] == str(Decimal(2**20000))
    assert sys.get_int_max_str_digits() == limit
    # (2^20 + 1)^50000 has 1000001 bits
    rc, out, err = run(capsys, "chi", "gamma", "--space", '{"betti": [1, 0, 1048576]}',
                       "--degree", "50000", "--gens", "")
    assert rc == 4
    assert "result size" in err
    assert out == ""


# Valid JSON spaces whose integers pass Python's 4300-digit str() limit
# only once combined: Euler characteristic 1 + 2X with X = 10^4300 - 1
# (4301 digits), and the invariant factor 2^10000 3^6300 (about 6000
# digits) of two torsion orders of about 3000 digits each.
_HUGE_EULER = '{"betti": [1, 0, %s, 0, %s], "parity": "even"}' % ("9" * 4300, "9" * 4300)
_HUGE_TORSION = ('{"betti": [1], "h1": {"rank": 0, "torsion": [%d, %d]}, "pi1": "abelian"}'
                 % (2**10000, 3**6300))


def test_integers_past_the_digit_limit_are_printed_everywhere(capsys):
    # they exited 5 with a traceback when the echo and the group payload
    # wrote integers with a bare str()
    x = 10**4300 - 1
    euler = str(Decimal(1 + 2 * x))
    payload = run_json(capsys, "betti", "gamma", "--space", _HUGE_EULER, "--degree", "2",
                       "--gens", "(1 2)")
    assert payload["inputs"]["space"]["euler"] == euler
    assert payload["result"]["8"] == str(Decimal(x * (x + 1) // 2))
    payload = run_json(capsys, "chi", "sp", "--space", _HUGE_EULER, "-n", "1")
    assert payload["inputs"]["space"]["euler"] == payload["result"] == euler
    factor = str(Decimal(2**10000 * 3**6300))
    for argv in (("pi1", "gamma", "--degree", "2", "--gens", "(1 2)"),
                 ("pi1", "bd", "-n", "4", "-d", "2")):
        payload = run_json(capsys, *argv, "--space", _HUGE_TORSION)
        assert payload["result"]["abelian"] == {"rank": "0", "torsion": [factor],
                                                "display": "Z/" + factor}, argv


# torus x surface:G x surface:G with G = 10^3000: Euler characteristic 0,
# and Betti numbers of up to 6001 digits, 79,741 bits in all.
_HUGE_GENUS = f"torus x surface:{10**3000} x surface:{10**3000}"


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_betti_echo_past_the_digit_limit(capsys):
    # the echo wrote the Betti numbers with int.__repr__ and exited 5,
    # though chi = 0 keeps every result short
    surface = [1, 2 * 10**3000, 1]
    betti = _convolve(_convolve([1, 2, 1], surface), surface)
    argvs = [("chi", "sp", "-n", "1"), ("chi", "bd", "-n", "3", "-d", "2"),
             ("pi1", "bd", "-n", "4", "-d", "2"),
             *((verb, "gamma", "--degree", "2", "--gens", "(1 2)")
               for verb in ("chi", "betti", "pi1"))]
    runs = [run(capsys, *argv, "--space", _HUGE_GENUS) for argv in argvs]
    # X^2 / S_2: (P(t)^2 + P_even(t^2) - P_odd(t^2)) / 2
    square = _convolve(betti, betti)
    for i, b in enumerate(betti):
        square[2 * i] += (-1) ** i * b
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # for json.loads and str() in this test only
    try:
        for argv, (rc, out, err) in zip(argvs, runs):
            assert rc == 0, (argv, err)
            payload = json.loads(out)
            assert payload["inputs"]["space"]["betti"] == betti, argv
            assert out == json.dumps(payload, sort_keys=True) + "\n", argv
        assert json.loads(runs[0][1])["result"] == "0"
        assert json.loads(runs[4][1])["result"] == {str(deg): str(c // 2)
                                                    for deg, c in enumerate(square) if c}
    finally:
        sys.set_int_max_str_digits(limit)


def test_betti_echo_is_guarded_on_its_total_size(capsys):
    # 100 factors surface:10^41: 201 Betti numbers, each under 4300 digits
    # (it answered before the guard), 1,385,870 bits in all
    space = " x ".join([f"surface:{10**41}"] * 100)
    rc, out, err = run(capsys, "chi", "sp", "--space", space, "-n", "1")
    assert rc == 4 and out == ""
    assert "resource guard: result size: size 1385870 " in err


def test_huge_degree_is_refused_before_any_generator_is_read(capsys, monkeypatch):
    # parse_cycles built the identity on every point first (MemoryError,
    # exit 5), and pi1 gamma listed every point before the guard
    import fatdiag.permgroup

    def refuse(*args):
        raise AssertionError("a generator was parsed")

    monkeypatch.setattr(fatdiag.permgroup, "parse_cycles", refuse)
    for argv in (("chi", "gamma", "--space", "torus"), ("pi1", "gamma", "--space", "torus"),
                 ("strata", "depth")):
        for degree, gens in (("100000000000", "(1 2)"), ("100000000", "")):
            rc, out, err = run(capsys, *argv, "--degree", degree, "--gens", gens)
            assert rc == 4 and out == "", argv
            assert f"resource guard: group enumeration: size {degree} " in err, argv


def test_abelian_answer_is_guarded_on_its_printed_size(capsys, monkeypatch):
    # H1(X)^k prints each torsion order k times: with one order 2^14000
    # (14001 bits) degree 71 makes 994071 bits and answers, degree 72
    # makes 1008072 and is refused before the k-fold sum is built
    import fatdiag.spaces

    space = '{"betti": [1], "h1": {"rank": 0, "torsion": [%d]}, "pi1": "abelian"}' % 2**14000
    payload = run_json(capsys, "pi1", "gamma", "--space", space, "--degree", "71", "--gens", "")
    assert payload["result"]["abelian"]["torsion"] == [str(Decimal(2**14000))] * 71
    # Z/2 at degree 100000 is 2 * 10^5 bits
    payload = run_json(capsys, "pi1", "gamma", "--space", "projective_plane",
                       "--degree", "100000", "--gens", "")
    assert payload["result"]["abelian"]["torsion"] == ["2"] * 100000

    def refuse(self, k):
        raise AssertionError("the power was built")

    monkeypatch.setattr(fatdiag.spaces.AbelianDescriptor, "power", refuse)
    rc, out, err = run(capsys, "pi1", "gamma", "--space", space, "--degree", "72", "--gens", "")
    assert rc == 4 and out == ""
    assert "resource guard: result size: size 1008072 " in err


def test_single_value_options_take_integers(capsys):
    # chi sp and pi1 bd take one -n (and -d): a range, even a degenerate
    # one, is refused by the parser as any other non-integer
    for argv, option in ((("chi", "sp", "--space", "torus", "-n", "4..4"), "-n"),
                         (("pi1", "bd", "--space", "circle", "-n", "4..4", "-d", "2"), "-n"),
                         (("pi1", "bd", "--space", "circle", "-n", "4", "-d", "2..2"), "-d"),
                         (("chi", "sp", "--space", "nosuch", "-n", "x"), "-n")):
        rc, out, err = run(capsys, *argv)
        value = argv[argv.index(option) + 1]
        assert (rc, out, err) == (1, "", f"error: {option} takes an integer, got {value!r}\n")
    payload = run_json(capsys, "pi1", "bd", "--space", "circle", "-n", " +4", "-d", "2")
    assert payload["inputs"]["n"] == 4 and payload["inputs"]["d"] == 2


_BAD_SPHERE = "error: bad --space: preset 'sphere' needs an integer parameter, e.g. sphere:2\n"


def test_every_typed_integer_has_one_grammar(capsys):
    # -n, -d and --degree, both ends of a range, a preset parameter and a
    # cycle point are read alike: optional whitespace, at most one sign,
    # ASCII digits; underscores, other scripts' digits and superscripts are
    # refused with each reader's own message, never int()'s
    gens = ("--gens", "(1 2)")
    for argv, err in (
        (("chi", "sp", "--space", "torus", "-n", "1_0"), "error: -n takes an integer, got '1_0'\n"),
        (("chi", "bd", "--space", "torus", "-n", "1_0", "-d", "2"), "error: bad -n value '1_0'\n"),
        (("pi1", "bd", "--space", "circle", "-n", "1_0", "-d", "2"),
         "error: -n takes an integer, got '1_0'\n"),
        (("strata", "depth", "--degree", "1_0", *gens),
         "error: --degree takes an integer, got '1_0'\n"),
        (("chi", "sp", "--space", "torus", "-n", "\u0663"),
         "error: -n takes an integer, got '\u0663'\n"),
        (("strata", "depth", "--degree", "\u0663", *gens),
         "error: --degree takes an integer, got '\u0663'\n"),
        (("chi", "bd", "--space", "torus", "-n", "\u0663..\u0665", "-d", "2"),
         "error: bad -n range '\u0663..\u0665'\n"),
        (("chi", "sp", "--space", "sphere:\u0663", "-n", "1"), _BAD_SPHERE),
        (("chi", "sp", "--space", "wedge_circles:0\u0663", "-n", "1"),
         "error: bad --space: preset 'wedge_circles' needs an integer parameter,"
         " e.g. wedge_circles:2\n"),
        (("strata", "depth", "--degree", "3", "--gens", "(1 \u0662)"),
         "error: bad --degree or --gens: bad point '\u0662' in '(1 \u0662)'"
         " (points are 1-indexed)\n"),
        (("chi", "sp", "--space", "sphere:--2", "-n", "1"), _BAD_SPHERE),
        (("chi", "sp", "--space", "surface:\u00b2", "-n", "1"),
         "error: bad --space: preset 'surface' needs an integer parameter, e.g. surface:2\n"),
        (("strata", "depth", "--degree", "3", "--gens", "(1 \u00b2)"),
         "error: bad --degree or --gens: bad point '\u00b2' in '(1 \u00b2)'"
         " (points are 1-indexed)\n"),
        (("chi", "sp", "--space", "sphere:-1", "-n", "1"),
         "error: bad --space: sphere dimension must be >= 1\n"),
        (("chi", "sp", "--space", "torus", "-n", "9" * 4301),
         f"error: -n takes an integer, got '{'9' * 4301}'\n"),
        (("chi", "sp", "--space", "sphere:" + "9" * 4301, "-n", "1"), _BAD_SPHERE),
    ):
        assert run(capsys, *argv) == (1, "", err), argv
    # a sign is taken everywhere, and so are whitespace and leading zeros
    payload = run_json(capsys, "chi", "sp", "--space", "sphere:+2", "-n", "1")
    assert payload["inputs"]["space"]["label"] == "sphere:2"
    for space in ("sphere: 2", "sphere:02"):
        assert run_json(capsys, "chi", "sp", "--space", space, "-n", "1") == payload
    for cycles in ("(+1 2)", "(01 2)", "(1 2)"):
        payload = run_json(capsys, "chi", "gamma", "--space", "torus", "--degree", "3",
                           "--gens", cycles)
        assert payload["inputs"]["group_order"] == "2", cycles
    assert run_json(capsys, "strata", "depth", "--degree", "+3", *gens)["result"] == "1"
    # --degree -1 is an integer, refused by the group model
    assert run(capsys, "strata", "depth", "--degree", "-1", "--gens", "") == (
        1, "", "error: bad --degree or --gens: degree must be >= 0, got -1\n")


def test_refusals_of_counts_graphs_and_json_spaces(capsys):
    # each refusal is a usage error, worded by the reader that refuses it
    for argv, err in (
        (("chi", "sp", "--space", "torus", "-n", "-1"), "error: -n must be >= 0\n"),
        (("graph", "chi2", "--graph", '{"vertices":["a","b","c"],"edges":[["a","b"]]}'),
         "error: formula needs a connected graph\n"),
        (("chi", "sp", "--space", '{"betti":[1],"h1":{"rank":0,"torsion":[1]}}', "-n", "2"),
         "error: bad --space: torsion orders must be >= 2, got 1\n"),
        (("chi", "sp", "--space", '{"betti":[2,0]}', "-n", "2"),
         "error: bad --space: connected space needs b_0 = 1, got 2\n"),
        (("chi", "sp", "--space", '{"betti":[1,1],"pi1":"trivial"}', "-n", "2"),
         "error: bad --space: trivial fundamental group forces trivial H_1\n"),
        (("chi", "sp", "--space", '{"betti":[1,0,-1]}', "-n", "2"),
         "error: bad --space: bad Betti vector (1, 0, -1)\n"),
    ):
        assert run(capsys, *argv) == (1, "", err), argv


def test_result_size_is_guarded_before_computing(capsys, monkeypatch):
    # chi gamma on the trivial group is chi^degree, and chi sp a binomial:
    # both are refused from a bound on their bit length, before the value
    # is computed (17 s and 1.9 s when it was computed first)
    import fatdiag.eulerchar

    def refuse(*args):
        raise AssertionError("the value was computed")

    monkeypatch.setattr(fatdiag.eulerchar, "chi_gamma_product", refuse)
    monkeypatch.setattr(fatdiag.eulerchar, "chi_sp", refuse)
    for argv, size in (
        (("chi", "gamma", "--space", '{"betti": [1, 0, 99000]}', "--degree", "2000000",
          "--gens", ""), 33190311),
        (("chi", "sp", "--space", '{"betti": [1, 0, 100000]}', "-n", "1000000000"),
         1328786),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 4 and out == "", argv
        assert f"result size: size {size} " in err


def test_chi_cell_size_is_guarded_before_any_column(capsys, monkeypatch):
    # with chi = 2^1000 or -2^1000 every command below would build columns
    # for seconds, to hundreds of MB, before its result was refused; a lower
    # bound on the last row's bits refuses them before any column is built
    import fatdiag.eulerchar

    def refuse(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(fatdiag.eulerchar, "_series", refuse)
    for betti in ([1, 0, 2**1000 - 1], [1, 2**1000 + 1, 0]):
        space = '{"betti": %s, "parity": "even"}' % betti
        for kind in ("bd", "fd", "bupper"):
            for n, d in (("1730", "2"), ("2..1730", "2..3")):
                rc, out, err = run(capsys, "chi", kind, "--space", space, "-n", n, "-d", d)
                assert rc == 4 and out == "", (kind, betti[1], n, d, err)
                assert "resource guard: result size" in err


def test_result_size_precheck_refuses_only_what_exact_refuses(capsys, monkeypatch):
    # with the limit at 1000 bits: <(1 2)> at degree 1000 averages
    # 3 * 2^998, 1000 bits, though its identity term 2^1000 has 1001, so it
    # answers, and at degree 1001 the result itself is refused.  A negative
    # chi is not refused beforehand: S_3 averages 0 at chi = -2
    import fatdiag.cli

    monkeypatch.setattr(fatdiag.cli, "MAX_RESULT_BITS", 1000)
    payload = run_json(capsys, "chi", "gamma", "--space", "sphere:2", "--degree", "1000",
                       "--gens", "(1 2)")
    assert payload["result"] == str(3 * 2**998)
    rc, out, err = run(capsys, "chi", "gamma", "--space", "sphere:2", "--degree", "1001",
                       "--gens", "(1 2)")
    assert rc == 4 and out == "" and "result size: size 1001 " in err
    payload = run_json(capsys, "chi", "gamma", "--space", "surface:2", "--degree", "1001",
                       "--gens", "(1 2 3); (1 2)")
    assert payload["result"] == "0"


def test_bupper_oracle_catches_wrong_formula(capsys, monkeypatch):
    import fatdiag.eulerchar

    right = fatdiag.eulerchar.chi_b_upper

    def off_by_one(*args):
        return right(*args) + 1

    # the command looks the formula up in the library when it runs, so the
    # wrong formula reaches it, and the oracle does not route through it
    monkeypatch.setattr(fatdiag.eulerchar, "chi_b_upper", off_by_one)
    rc, out, err = run(
        capsys, "chi", "bupper", "--space", "sphere:2", "-n", "6", "-d", "2", "--verify"
    )
    assert rc == 3
    assert "complement" in err


def test_bug_exits_5_with_traceback(capsys, monkeypatch):
    import fatdiag.eulerchar
    from fatdiag.errors import InternalConsistencyError

    def broken(*args):
        raise InternalConsistencyError("non-integral average")

    def crashing(*args):
        return 1 // 0

    for formula in (broken, crashing):
        monkeypatch.setattr(fatdiag.eulerchar, "chi_bd", formula)
        rc, out, err = run(capsys, "chi", "bd", "--space", "sphere:2", "-n", "4", "-d", "2")
        assert rc == 5
        assert out == ""
        assert err.startswith("Traceback") and formula.__name__ in err


def test_each_error_class_carries_its_exit_code(capsys, monkeypatch):
    # main has one branch for every FatdiagError: the class's label on
    # stderr and its exit code; an InternalConsistencyError is a bug
    import fatdiag.cli as cli
    from fatdiag.errors import (FatdiagError, InternalConsistencyError, OracleMismatchError,
                                ResourceGuardError, UnsupportedSpaceError)

    def raising(error):
        def handler(args):
            raise error("the message")
        return handler

    _, options, summary = cli.COMMANDS["verify", None]
    for error, code, label in ((FatdiagError, 1, "error"), (cli.UsageError, 1, "error"),
                               (UnsupportedSpaceError, 2, "unsupported space"),
                               (OracleMismatchError, 3, "oracle mismatch"),
                               (ResourceGuardError, 4, "resource guard")):
        assert (error.exit_code, error.label) == (code, label)
        monkeypatch.setitem(cli.COMMANDS, ("verify", None), (raising(error), options, summary))
        assert run(capsys, "verify") == (code, "", f"{label}: the message\n"), error
    monkeypatch.setitem(cli.COMMANDS, ("verify", None),
                        (raising(InternalConsistencyError), options, summary))
    rc, out, err = run(capsys, "verify")
    assert (rc, out) == (InternalConsistencyError.exit_code, "") == (5, "")
    assert err.startswith("Traceback")
    assert err.endswith("InternalConsistencyError: the message\n")


def test_oracle_mismatches_share_one_format(capsys, monkeypatch):
    # chi --verify, on a single cell or any cell of a grid, and graph chi2
    # --oracle raise one mismatch naming every oracle that disagrees
    import fatdiag.eulerchar
    import fatdiag.graphconf

    right = fatdiag.eulerchar.chi_oracles

    def off_at(cell, name):
        def oracles(kind, chi, n, d):
            table = right(kind, chi, n, d)
            if (n, d) == cell:
                table[name] += 1
            return table
        return oracles

    monkeypatch.setattr(fatdiag.eulerchar, "chi_oracles", off_at((4, 2), "stratification_sum"))
    assert run(capsys, "chi", "bd", "--space", "torus", "-n", "4", "-d", "2", "--verify") == (
        3, "", "oracle mismatch: chi bd(0, 4, 2) = 0 but stratification_sum=1\n")
    monkeypatch.setattr(fatdiag.eulerchar, "chi_oracles", off_at((3, 3), "set_partition_sum"))
    assert run(capsys, "chi", "fd", "--space", "sphere:2", "-n", "2..4", "-d", "2..3",
               "--verify") == (3, "", "oracle mismatch: chi fd(2, 3, 3) = 2 but"
                                      " set_partition_sum=3\n")
    monkeypatch.setattr(fatdiag.graphconf, "discretized_chi_f2", lambda graph: -5)
    assert run(capsys, "graph", "chi2", "--graph", "gamma1", "--oracle") == (
        3, "", "oracle mismatch: graph chi2 = -4 but discretized=-5\n")


def test_ranges_are_echoed_canonically(capsys):
    # -n and -d of chi bd|fd|bupper are read by the parser and echoed as
    # the canonical text of their bounds
    for n, d, echo in ((" 007", "+2", ("7", "2")), ("2 .. 3", "2", ("2..3", "2")),
                       ("02..+08", " 3..3 ", ("2..8", "3")), ("7", "2", ("7", "2")),
                       ("2..8", "2..3", ("2..8", "2..3"))):
        payload = run_json(capsys, "chi", "bd", "--space", "torus", "-n", n, "-d", d)
        assert (payload["inputs"]["n"], payload["inputs"]["d"]) == echo, (n, d)
    # ranges are read by the parser, in table order, as -n of chi sp is:
    # before the space, and -n before a missing -d
    for argv in (("--space", "nosuch", "-n", "x", "-d", "2"), ("--space", "torus", "-n", "x")):
        assert run(capsys, "chi", "bd", *argv) == (1, "", "error: bad -n value 'x'\n"), argv


def test_malformed_input_is_usage_error(capsys):
    cases = [
        ("pi1", "bd", "--space", "circle", "-n", "0", "-d", "0"),
        ("chi", "sp", "--space", '{"betti": [1, 1], "h1": [1]}', "-n", "2"),
        ("chi", "sp", "--space",
         '{"betti": [1, 1], "h1": {"rank": 1, "torsion": ["a"]}}', "-n", "2"),
        ("chi", "gamma", "--space", "sphere:2", "--degree", "-1", "--gens", ""),
        ("betti", "gamma", "--space", "torus", "--degree", "-1", "--gens", ""),
        ("pi1", "gamma", "--space", "torus", "--degree", "-3", "--gens", ""),
        ("strata", "depth", "--degree", "-2", "--gens", ""),
        ("strata", "length", "--degree", "-1", "--gens", ""),
        ("graph", "chi2", "--graph",
         '{"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]}', "--oracle"),
        ("graph", "chi2", "--graph",
         '{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}'),
        ("graph", "chi2", "--graph",
         '{"vertices": ["a", "b", "a"], "edges": [["a", "b"]]}'),
        ("graph", "chi2", "--graph", '{"vertices": 3, "edges": []}'),
        ("graph", "chi2", "--graph", '{"vertices": ["a", "b"], "edges": [3]}'),
        # labels are strings or integers: true is no vertex "True", and an
        # endpoint 1.0 no vertex "1.0"
        ("graph", "chi2", "--graph", '{"vertices":[true,"a"],"edges":[[true,"a"]]}'),
        ("graph", "chi2", "--graph",
         '{"vertices":[false,"a","b"],"edges":[["False","a"],["a","b"]]}'),
        ("graph", "chi2", "--graph", '{"vertices":["1.0","a"],"edges":[[1.0,"a"]]}'),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == ""
        assert err.startswith("error:"), err
    # degree 0 is a valid (empty) permutation group
    rc, out, _ = run(capsys, "strata", "depth", "--degree", "0", "--gens", "")
    assert rc == 0 and json.loads(out)["result"] == "0"


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    # the JSON reader keeps its own stack, so nesting far past the
    # interpreter's recursion limit is read, then refused as a bad input;
    # inline arguments stop near 5000 levels (Linux caps one at 128 KB)
    def nested(depth):
        return "[" * depth + "]" * depth

    for depth in (5000, 10**5):
        docs = [("--space", f'{{"betti": {nested(depth)}}}'),
                ("--space", f'{{"betti": [1], "pi1": {nested(depth)}}}'),
                ("--space", f'{{"betti": [1], "parity": {nested(depth)}}}'),
                ("--graph", f'{{"vertices": {nested(depth)}, "edges": []}}')]
        for i, (option, doc) in enumerate(docs):
            if depth > 5000:
                path = tmp_path / f"doc{i}.json"
                path.write_text(doc)
                doc = str(path)
            argv = (["chi", "sp", "--space", doc, "-n", "2"] if option == "--space"
                    else ["graph", "chi2", "--graph", doc])
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (1, ""), (depth, i, err)
            assert err.startswith("error:") and "Traceback" not in err


def test_label_nesting_is_bounded(capsys):
    # a label nesting MAX_LABEL_DEPTH lists or objects is echoed as
    # json.dumps writes it; one level more is refused before the echo
    limit = MAX_LABEL_DEPTH
    for depth, want in ((limit, 0), (limit + 1, 1)):
        for label in ("[" * depth + "1" + "]" * depth,
                      '{"a": ' * (depth - 1) + "{}" + "}" * (depth - 1),
                      '{"a": ' * (depth - 2) + '[1, {"b": 2}]' + "}" * (depth - 2)):
            rc, out, err = run(capsys, "chi", "sp", "--space",
                               f'{{"betti": [1], "label": {label}}}', "-n", "2")
            assert rc == want, (depth, label[:12], err)
            if want == 0:
                envelope = json.loads(out)
                assert envelope["inputs"]["space"]["label"] == json.loads(label)
                assert out == json.dumps(envelope, sort_keys=True) + "\n"
            else:
                assert out == "" and "Traceback" not in err
                assert err == (f'error: bad --space: space JSON "label" nests over {limit} '
                               "lists and objects\n")


def test_json_string_file_is_not_decoded_twice(capsys, tmp_path):
    # a file holding one JSON string is that string, not the document
    # its text spells
    space = tmp_path / "space.json"
    space.write_text(json.dumps(json.dumps({"betti": [1, 0, 1]})))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]})))
    for argv in (["chi", "sp", "--space", str(space), "-n", "2"],
                 ["graph", "chi2", "--graph", str(graph)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, ""), err
        assert err.startswith("error: bad --") and "Traceback" not in err


def test_guard_scale_env_validation(capsys, guard_scale_env):
    guard_scale_env("banana")
    rc, out, err = run(capsys, "strata", "depth", "--degree", "4", "--gens", "(1 2)")
    assert rc == 1
    assert "FATDIAG_GUARD_SCALE" in err


def test_missing_subcommand_is_usage_error(capsys):
    rc, out, err = run(capsys, "chi")
    assert rc == 1


_FD_SURFACE = (
    b'{"command": "chi fd", "inputs": {"d": "2", "n": "4", "space": {"betti": [1, 4, 1],'
    b' "euler": "-2", "label": "surface:2", "parity": "even"}, "verify": false},'
    b' "result": "-104", "schema": "fatdiag/1"}\n'
)


def test_option_forms_give_the_same_bytes(capsysbinary):
    for argv in (
        ("chi", "fd", "--space", "surface:2", "-n", "4", "-d", "2"),
        ("chi", "fd", "--space=surface:2", "-n=4", "-d", "2"),
        ("chi", "fd", "-d", "2", "-n", "9", "--space", "torus", "-n", "4",
         "--space=surface:2"),
        ("chi", "fd", "--space", "surface:2", "-n4", "-d2"),
    ):
        assert main(list(argv)) == 0, argv
        assert capsysbinary.readouterr().out == _FD_SURFACE, argv


def test_grid_csv_bytes(capsysbinary):
    rc = main(["chi", "bd", "--space", "sphere:2", "-n", "4..5", "-d=2..3", "--csv"])
    assert rc == 0
    assert capsysbinary.readouterr().out == b"n,d,value\n4,2,5\n4,3,4\n5,2,6\n5,3,6\n"


def test_parser_usage_errors(capsys):
    for argv in (
        ("chi", "bd", "--space", "torus", "-n", "4", "-d", "2", "--verif"),  # no prefixes
        ("chi", "sp", "--spa", "torus", "-n", "4"),
        ("chi", "sp", "--space", "torus", "-n", "4", "extra"),
        ("chi", "sp", "--space", "torus", "-n"),
        ("strata", "depth", "--degree", "x"),
        ("strata", "depth", "--gens", "(1 2)"),
        ("chi", "bd", "--space", "torus", "-n", "4", "-d", "2", "--verify=1"),
        ("verify", "--suite", "most"),
        ("verify", "all"),
        ("chi", "xx"),
        ("nosuch",),
        ("-n", "4"),
        (),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == ""
        assert err.startswith("error:"), argv


def test_help_prints_usage(capsys):
    rc, out, err = run(capsys, "--help")
    assert rc == 0 and err == ""
    assert out.startswith("usage: fatdiag")
    assert "fatdiag strata depth --degree DEGREE [--gens GENS]" in out
    assert "fatdiag verify [--suite {all}]" in out
    rc, out, _ = run(capsys, "chi", "--help")
    assert rc == 0
    assert "fatdiag chi bd --space SPACE -n N -d D [--verify] [--csv]" in out
    assert "fatdiag graph" not in out
    rc, help_after_options, _ = run(capsys, "chi", "bd", "--space", "torus", "-h")
    assert rc == 0 and help_after_options == out


def test_grid_is_guarded_before_it_is_built(capsys, monkeypatch):
    # the cell count is worked out from the bounds, then the summed
    # estimated work of the columns, before any column is made
    for argv, guard in (
        (("chi", "bd", "--space", "torus", "-n", "2..20000000", "-d", "2", "--csv"),
         "grid cells: size 19999999"),
        (("chi", "fd", "--space", "torus", "-n", "2..1500", "-d", "2..1500", "--csv"),
         "grid cells: size 1124250"),
        (("chi", "fd", "--space", "surface:3", "-n", "2..440", "-d", "2..440"),
         "closed formula work"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 4, argv
        assert out == ""
        assert guard in err
    # the count is exact: a limit of one cell fewer trips the guard
    import fatdiag.cli
    from fatdiag.errors import ResourceGuardError

    for ns, ds, d_min in (((2, 9), (1, 12), 2), ((5, 7), (1, 3), 1), ((2, 3), (5, 9), 2),
                          ((1, 40), (7, 20), 2), ((3, 3), (3, 3), 2), ((-5, 30), (-9, 4), 1)):
        expected = [(n, d) for n in range(ns[0], ns[1] + 1)
                    for d in range(ds[0], ds[1] + 1) if d_min <= d <= n]
        monkeypatch.setattr(fatdiag.cli, "MAX_GRID_CELLS", len(expected))
        assert fatdiag.cli._grid(ns, ds, d_min) == expected
        if expected:
            monkeypatch.setattr(fatdiag.cli, "MAX_GRID_CELLS", len(expected) - 1)
            with pytest.raises(ResourceGuardError, match="grid cells"):
                fatdiag.cli._grid(ns, ds, d_min)


def _envelopes(monkeypatch, argvs) -> list:
    """The envelope of each argv that prints one, from main in-process."""
    encode, seen = fatdiag.cli._encode, []

    def record(value):
        if isinstance(value, dict) and "schema" in value:  # not a nested value
            seen.append(value)
        return encode(value)

    monkeypatch.setattr(fatdiag.cli, "_encode", record)
    for argv in argvs:
        main(list(argv))
    monkeypatch.undo()
    return seen


def test_envelope_encoder_matches_json_dumps(capsys, monkeypatch):
    # every envelope of the three benchmark workloads, seeds 1 and 2
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    argvs = sorted({cmd.args for name in workloads.WORKLOADS for seed in (1, 2)
                    for cmd in workloads.generate(name, seed)})
    envelopes = _envelopes(monkeypatch, argvs)
    capsys.readouterr()
    assert len(envelopes) == len([argv for argv in argvs if "--csv" not in argv])
    for envelope in envelopes:
        assert fatdiag.cli._encode(envelope) == json.dumps(envelope, sort_keys=True)


# A JSON --space label may be any JSON value: escapes, astral characters
# (surrogate pairs), lone surrogates, DEL, floats, NaN, the infinities,
# nested containers and keys that sort differently from their order.
ADVERSARIAL_LABELS = [
    '"q\\"uote\\\\ \\b\\f\\n\\r\\t \\u0000\\u001f\\u007f"',
    '"\\u00e9 \\u20ac \\ud83d\\ude00 \\ud800 \\udfff \\uffff"',
    '"é€😀"', "1.5", "-0.0", "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
    "1e-320", "123456789012345678901234567890", "true", "false", "null",
    "[]", "{}", '[1, [2.5, {"b": null, "a": [true]}], "x"]',
    '{"b": 1, "a": 2, "B": 3, "": 4, "\\u00e9": 5, "10": 6, "9": 7}']


def test_envelope_encoder_on_adversarial_labels(capsys):
    for label in ADVERSARIAL_LABELS:
        rc, out, err = run(capsys, "chi", "sp", "--space",
                           f'{{"betti": [1], "label": {label}}}', "-n", "2")
        assert rc == 0, (label, err)
        envelope = json.loads(out)
        assert out == json.dumps(envelope, sort_keys=True) + "\n", label
    for value in [float("nan"), float("inf"), -float("inf"), 1e16, 2.0**-1074, 0.1,
                  {2: "a", 1: "b"}, {1.5: 0, 0.5: 1}, {True: 1, False: 0}, {None: 1},
                  (1, "t"), "\U0010ffff", "\x7f\x80\u2028", -(10**30)]:
        assert fatdiag.cli._encode(value) == json.dumps(value, sort_keys=True), value
