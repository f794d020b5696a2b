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
    for name in ("argparse", "gettext", "locale", "dataclasses", "inspect", "json",
                 "__future__", "typing", "fatdiag.selfcheck", "fatdiag.graphconf",
                 "fatdiag.strata", "fatdiag.fundgroup", "fatdiag.permgroup"):
        assert name not in loaded, name
    # no command loads json, not even to read a JSON --space or --graph,
    # and chi bd --verify reads the classes of S_n without the group engine
    loaded = _loaded_modules('chi|sp|--space|{"betti": [1]}|-n|2',
                             'graph|chi2|--graph|{"vertices": ["a", "b"], "edges": [["a", "b"]]}'
                             "|--oracle",
                             "chi|bd|--space|sphere:2|-n|6|-d|3|--verify")
    assert {"json", "__future__", "typing", "fatdiag.permgroup"} & loaded == set()
    assert {"fatdiag.jsonread", "fatdiag.graphconf", "fatdiag.combinatorics"} <= loaded
    # verify loads every module but the JSON reader
    package = {f"fatdiag.{path.stem}" for path in Path(fatdiag.__file__).parent.glob("*.py")
               if path.stem != "__init__"}
    loaded = _loaded_modules("verify", "--help")
    assert package - loaded == {"fatdiag.jsonread"}
    assert {"argparse", "gettext", "locale", "json", "__future__", "typing"} & loaded == set()


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


def test_exit_code_unsupported_space(capsys):
    rc, out, err = run(capsys, "chi", "bd", "--space", "circle", "-n", "4", "-d", "2")
    assert rc == 2
    assert "unsupported" in err
    rc, _, _ = run(capsys, "chi", "fd", "--space", "wedge_circles:2", "-n", "4", "-d", "2")
    assert rc == 2


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
