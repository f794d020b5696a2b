"""Scaling sweep and baseline re-measurement: a report, not gated.

    python3 perfbench/run.py --sweep

Each point is the median wall time of REPS runs, each its own
subprocess under a time cap of CAP_S seconds and a 1 GiB address-space
limit.  A point over the cap is written as "timeout", and the larger
points of the same series are then not run and also written as
"timeout".  A run that exhausts the memory limit is written as
"memory_limit".

Series: `chi bd` and `chi fd` at n = 20, 30, ..., 80 with d = n/2 on a
chi = 2 space; `strata depth` on S_3 ... S_8; `strata length` on S_3,
S_4, A_4, D_4, A_5 and S_5.  The rows of the ROADMAP's measured-baseline
table follow; library rows are timed inside the subprocess, as they were
there, and CLI and pytest rows by the subprocess wall time.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time

import workloads

REPS = 3
CAP_S = 30.0
MEMORY_LIMIT = 1 << 30


def _cli(*args):
    return ("cli", args)


def _lib(setup: str, stmt: str):
    code = (f"import time\n{setup}\nt = time.perf_counter()\n{stmt}\n"
            "print(time.perf_counter() - t)")
    return ("lib", ("-c", code))


def _group(degree: int, gens) -> tuple[str, ...]:
    return ("--degree", str(degree), "--gens", "; ".join(gens))


SYMMETRIC = {n: _group(n, workloads.symmetric(n)) for n in range(3, 9)}
LENGTH_GROUPS = [
    ("S3", SYMMETRIC[3]), ("S4", SYMMETRIC[4]), ("A4", _group(4, workloads.alternating(4))),
    ("D4", _group(4, workloads.dihedral(4))), ("A5", _group(5, workloads.alternating(5))),
    ("S5", SYMMETRIC[5]),
]


def series() -> dict[str, list[tuple[str, tuple]]]:
    out = {}
    for kind in ("bd", "fd"):
        out[f"chi {kind}, d = n/2, chi = 2"] = [
            (f"n={n}", _cli("chi", kind, "--space", "sphere:2", "-n", str(n),
                            "-d", str(n // 2)))
            for n in range(20, 81, 10)]
    out["strata depth on S_n"] = [
        (f"S{n}", _cli("strata", "depth", *group)) for n, group in SYMMETRIC.items()]
    out["strata length"] = [
        (name, _cli("strata", "length", *group)) for name, group in LENGTH_GROUPS]
    eul, perm, strata = ("from fatdiag.eulerchar import *", "from fatdiag.permgroup import *",
                         "from fatdiag.strata import *\nfrom fatdiag.permgroup import *")
    out["ROADMAP baseline"] = [
        ("Tier-1 pytest", ("pytest", ("-q", "-p", "no:cacheprovider"))),
        ("test_cli_verify_runs_all_criteria", ("pytest", (
            "-q", "-p", "no:cacheprovider",
            "tests/test_acceptance.py::test_cli_verify_runs_all_criteria"))),
        ("chi_bd(2, 40, 20)", _lib(eul, "chi_bd(2, 40, 20)")),
        ("chi_bd(2, 60, 30)", _lib(eul, "chi_bd(2, 60, 30)")),
        ("chi_bd(2, 80, 40)", _lib(eul, "chi_bd(2, 80, 40)")),
        ("chi_fd(2, 60, 30)", _lib(eul, "chi_fd(2, 60, 30)")),
        ("chi_fd(2, 80, 40)", _lib(eul, "chi_fd(2, 80, 40)")),
        ("enumerate S_8", _lib(perm, "symmetric_group(8).elements()")),
        ("cycle_type_histogram(S_8)", _lib(
            perm + "\ng = symmetric_group(8); g.elements()", "g.cycle_type_histogram()")),
        ("depth(S_6)", _lib(strata, "depth(symmetric_group(6))")),
        ("depth(S_7)", _lib(strata, "depth(symmetric_group(7))")),
        ("group_length(S_4)", _lib(strata, "group_length(symmetric_group(4))")),
        ("group_length(S_5)", _lib(strata, "group_length(symmetric_group(5))")),
        ("oracle_fd_setpartitions(3, 10, 2)", _lib(eul, "oracle_fd_setpartitions(3, 10, 2)")),
        ("CLI chi fd -n 10 -d 3 --verify", _cli(
            "chi", "fd", "--space", "sphere:2", "-n", "10", "-d", "3", "--verify")),
        ("CLI strata depth S_7", _cli("strata", "depth", *SYMMETRIC[7])),
        ("CLI betti gamma torus S_8", _cli(
            "betti", "gamma", "--space", "torus", *SYMMETRIC[8])),
    ]
    return out


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def measure_once(root, env, how, args, cap: float):
    """Seconds, or "timeout" / "memory_limit" / "error: ..."."""
    prefix = {"cli": ["-m", "fatdiag.cli"], "lib": [], "pytest": ["-m", "pytest"]}[how]
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *prefix, *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=cap,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        if "MemoryError" in proc.stderr:
            return "memory_limit"
        return f"error: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return float(proc.stdout.split()[-1]) if how == "lib" else wall


def main(root, out_dir) -> int:
    from run import Runner, provenance_base

    env = Runner.child_env(root)
    plan = series()
    results = {}
    for name, points in plan.items():
        rows, over = {}, False
        for label, (how, argv) in points:
            if over and name != "ROADMAP baseline":
                rows[label] = "timeout"
                print(f"{name:32s} {label:36s} timeout (not run)", flush=True)
                continue
            runs = []
            for _ in range(REPS):
                value = measure_once(root, env, how, argv, CAP_S)
                runs.append(value)
                if not isinstance(value, float):
                    break
            value = (statistics.median(runs) if all(isinstance(v, float) for v in runs)
                     else next(v for v in runs if not isinstance(v, float)))
            over = value == "timeout"
            rows[label] = value
            shown = f"{value:.4f} s" if isinstance(value, float) else value
            print(f"{name:32s} {label:36s} {shown}", flush=True)
        results[name] = rows
    plan_digest = hashlib.sha256(json.dumps(
        {k: [(label, list(p[1])) for label, p in v] for k, v in plan.items()},
        sort_keys=True).encode()).hexdigest()
    report = {"provenance": dict(provenance_base(root), plan_digest=plan_digest,
                                 reps=REPS, cap_s=CAP_S,
                                 memory_limit_bytes=MEMORY_LIMIT),
              "results": results}
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "sweep.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(root)}")
    return 0

