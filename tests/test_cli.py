from __future__ import annotations

import json
import math

from fatdiag.cli import main


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


def test_verify_fast(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "fast")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"]["failed"] == "0"
    assert len(payload["result"]["checks"]) == 10
    assert all(c["status"] == "ok" for c in payload["result"]["checks"])
    assert sum(1 for line in err.splitlines() if line.startswith("ok")) == 10


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


def test_exit_code_resource_guard(capsys, monkeypatch):
    rc, out, err = run(capsys, "strata", "depth", "--degree", "10", "--gens", "")
    assert rc == 4
    assert "resource guard" in err
    # the guard scales down with the environment knob
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", "0.1")
    rc, _, err = run(capsys, "strata", "depth", "--degree", "4", "--gens", "(1 2 3 4)")
    assert rc == 4


def test_closed_formula_guard_limits_work(capsys):
    # every n <= 1000 answers at any d.  For d > n/2 the point of
    # multiplicity m >= d is unique: C(n, m) chi (chi - 1)^(n - m) per m.
    payload = run_json(capsys, "chi", "fd", "--space", "sphere:2", "-n", "1000", "-d", "501")
    assert payload["result"] == str(sum(2 * math.comb(1000, m) for m in range(501, 1001)))
    # beyond the estimated-work limit the guard trips before any work, and
    # the stratum-enumeration oracle of --verify is guarded too
    for argv, guard in (
        (("chi", "fd", "--space", "sphere:2", "-n", "100000", "-d", "50000"),
         "closed formula work"),
        (("chi", "bupper", "--space", "torus", "-n", "1500", "-d", "1"), "closed formula work"),
        (("chi", "bupper", "--space", "torus", "-n", "60", "-d", "2", "--verify"),
         "stratification_sum_bd"),
        # group enumeration is guarded on |G| * degree before the identity
        (("chi", "gamma", "--space", "torus", "--degree", "100000000", "--gens", ""),
         "group enumeration"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 4, argv
        assert guard in err
        assert out == ""


def test_bupper_oracle_catches_wrong_formula(capsys, monkeypatch):
    import fatdiag.cli
    import fatdiag.eulerchar

    right = fatdiag.eulerchar.chi_b_upper

    def off_by_one(*args):
        return right(*args) + 1

    # patching the library too shows the oracle does not route through it
    monkeypatch.setattr(fatdiag.cli, "chi_b_upper", off_by_one)
    monkeypatch.setattr(fatdiag.eulerchar, "chi_b_upper", off_by_one)
    rc, out, err = run(
        capsys, "chi", "bupper", "--space", "sphere:2", "-n", "6", "-d", "2", "--verify"
    )
    assert rc == 3
    assert "complement" in err


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
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == ""
        assert err.startswith("error:"), err
    # degree 0 is a valid (empty) permutation group
    rc, out, _ = run(capsys, "strata", "depth", "--degree", "0", "--gens", "")
    assert rc == 0 and json.loads(out)["result"] == "0"


def test_guard_scale_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", "banana")
    rc, out, err = run(capsys, "strata", "depth", "--degree", "4", "--gens", "(1 2)")
    assert rc == 1
    assert "FATDIAG_GUARD_SCALE" in err


def test_missing_subcommand_is_usage_error(capsys):
    rc, out, err = run(capsys, "chi")
    assert rc == 1
