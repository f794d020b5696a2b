"""fatdiag benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload formula-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each command of the workload runs as its
own `python -m fatdiag.cli` subprocess with PYTHONPATH set to the
checkout's `src/`, one at a time (a closed loop with one client).  The
command list runs again and again while another pass fits in --seconds.
Outputs are checked by the correctness gate (gate.py) after each pass,
outside the timed region.

The host's speed drifts by about +-25% over tens of seconds, and every
command's wall time drifts with it.  So before every PROBE_EVERY-th
command, and after the last, the benchmark runs a probe pair: the fixed,
fatdiag-independent calibrate.py, then a fatdiag subprocess that does no
work.  Each command's wall time is divided by the local calibration time
(the median of the four nearest calibration runs), which gives its time
in calibration units.

--trace 0 prints the end-to-end metrics:

  wall_rel      time of the whole command list, each command taken at
                its median over passes, in calibration units
  cmd_p50_rel   median per-command time (each command's median over
                passes), in calibration units
  cmd_tail_rel  the same at the highest percentile with >= 10 commands
                beyond it; the percentile and count are printed beside it
  setup_s       median of no-work fatdiag time / calibration time, times
                REFERENCE_CAL_S: the no-work subprocess's wall time at
                the reference host speed
  peak_rss_mb   largest child max-RSS over the commands, from os.wait4

The raw wall times (wall_s, cmd_p50_s, cmd_tail_s, setup_raw_s) are
printed on the `raw:` line and kept in the result file.

--trace 1 runs every command twice in a row, plain and then under
tracer.py, and prints the per-layer metrics of layers.py from the traced
runs, plus tracing.overhead_s: the traced minus the plain wall time of a
pass, summed over its command pairs (median over passes).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `failed` counts commands that exited non-zero or failed the
gate.  A result file with provenance goes to perfbench/out/, and traced
runs also write their spans there.

Other modes:

    --sweep                         scaling sweep and baseline re-measurement
    --compare A.json B.json         compare two result files of one workload
    --self-test                     the benchmark's own tests
    --record-expected               rewrite expected_groups.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_ARGS = ("chi", "sp", "--space", "point", "-n", "0")
PROBE_EVERY = 5
TAIL_BEYOND = 10
# calibrate.py's median wall time on the 2-vCPU host the bounds were set
# on (0.064-0.107 s over 60 runs); setup_s is given at this speed.
REFERENCE_CAL_S = 0.090
END_TO_END = {"wall_rel": "x", "cmd_p50_rel": "x", "cmd_tail_rel": "x",
              "setup_s": "s", "peak_rss_mb": "MB"}


class Result(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall: float
    max_rss_kb: int
    trace: dict | None


class Runner:
    """Runs fatdiag commands as subprocesses of this checkout's source."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.env = self.child_env(root)
        self._out = tempfile.TemporaryFile(dir=scratch)
        self._err = tempfile.TemporaryFile(dir=scratch)
        self._traces = 0

    @staticmethod
    def child_env(root: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("PYTHON", "FATDIAG_"))}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        return env

    def close(self):
        self._out.close()
        self._err.close()

    def _spawn(self, argv) -> Result:
        for fh in (self._out, self._err):
            fh.seek(0)
            fh.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=self._out, stderr=self._err,
                                env=self.env, cwd=self.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out, err = (self._read(fh) for fh in (self._out, self._err))
        return Result(proc.returncode, out, err, wall, usage.ru_maxrss, None)

    def run(self, args, traced: bool = False) -> Result:
        if not traced:
            return self._spawn([sys.executable, "-m", "fatdiag.cli", *args])
        self._traces += 1
        spans = self.scratch / f"spans-{self._traces}.json"
        result = self._spawn([sys.executable, str(HERE / "tracer.py"), "--spans",
                              str(spans), "--cmd", str(self._traces), "--", *args])
        if spans.exists():
            result = result._replace(trace=json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        return result

    def calibrate(self) -> float:
        result = self._spawn([sys.executable, str(HERE / "calibrate.py")])
        if result.code != 0:
            raise RuntimeError(f"calibrate.py exited {result.code}: {result.stderr}")
        return result.wall

    @staticmethod
    def _read(fh) -> str:
        fh.seek(0)
        return fh.read().decode("utf-8", "replace")


@dataclass
class Pass:
    results: list[Result]
    cal: list[float] | None = None  # calibration time around each command
    traced: list[Result] = field(default_factory=list)  # the same commands, traced
    probes: list[tuple[float, float]] = field(default_factory=list)  # (cal, setup)


@dataclass
class Log:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, args, reason: str, stderr: str):
        self.failed += 1
        self.failures.append({"args": list(args), "reason": reason, "stderr": stderr[-500:]})


def probe_pair(runner: Runner, log: Log) -> tuple[float, float]:
    """(calibration time, no-work fatdiag time); the latter is gated."""
    cal = runner.calibrate()
    result = runner.run(SETUP_ARGS)
    log.attempted += 1
    try:
        ok = result.code == 0 and gate.envelope(result.stdout, "chi sp")["result"] == "1"
    except ValueError:
        ok = False
    if not ok:
        log.record(SETUP_ARGS, f"exit code {result.code} or wrong result", result.stderr)
    return cal, result.wall


def local_calibration(cals: list[float], count: int) -> list[float]:
    """Calibration time for each of `count` commands: the median of the
    two probes around the command's group and the next one on each side.
    A single calibration run is noisier than the drift it tracks."""
    out = []
    for i in range(count):
        j = i // PROBE_EVERY
        out.append(statistics.median(cals[max(0, j - 1):j + 3]))
    return out


def run_passes(runner: Runner, commands, budget: float, log: Log,
               traced: bool = False, calibrated: bool = False) -> list[Pass]:
    """Run whole passes of `commands` while the next is expected to fit in
    `budget` seconds (always at least one).  Probe pairs run only when
    `calibrated`.  When `traced`, each command runs untraced and then at
    once traced, so the pair sees the same host speed."""
    started = time.perf_counter()
    spent, passes = [], []
    while True:
        pass_start = time.perf_counter()
        current = Pass([])
        for i, cmd in enumerate(commands):
            if calibrated and i % PROBE_EVERY == 0:
                current.probes.append(probe_pair(runner, log))
            current.results.append(runner.run(cmd.args))
            if traced:
                current.traced.append(runner.run(cmd.args, traced=True))
        if calibrated:
            current.probes.append(probe_pair(runner, log))
            current.cal = local_calibration([cal for cal, _ in current.probes],
                                            len(commands))
        spent.append(time.perf_counter() - pass_start)
        for results in filter(None, (current.results, current.traced)):
            failures = gate.check_all(commands, [(r.code, r.stdout) for r in results])
            log.attempted += len(commands)
            for i, reason in sorted(failures.items()):
                log.record(commands[i].args, reason, results[i].stderr)
        passes.append(current)
        if time.perf_counter() - started + statistics.median(spent) > budget:
            return passes


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that still
    has TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    count = len(passes[0].results)
    rel = [[r.wall / c for r, c in zip(p.results, p.cal)] for p in passes]
    per_cmd_rel = [statistics.median(p[i] for p in rel) for i in range(count)]
    per_cmd_s = [statistics.median(p.results[i].wall for p in passes) for i in range(count)]
    probes = [probe for p in passes for probe in p.probes]
    tail_rel, percentile, samples = tail(per_cmd_rel)
    metrics = {
        "wall_rel": sum(per_cmd_rel),
        "cmd_p50_rel": statistics.median(per_cmd_rel),
        "cmd_tail_rel": tail_rel,
        "setup_s": REFERENCE_CAL_S * statistics.median(setup / cal for cal, setup in probes),
        "peak_rss_mb": max(r.max_rss_kb for p in passes for r in p.results) / 1024.0,
    }
    notes = {
        "wall_s": sum(per_cmd_s),
        "cmd_p50_s": statistics.median(per_cmd_s),
        "cmd_tail_s": tail(per_cmd_s)[0],
        "setup_raw_s": statistics.median(setup for _, setup in probes),
        "calibration_s": statistics.median(cal for cal, _ in probes),
        "cmd_tail_percentile": percentile,
        "cmd_tail_samples": samples,
        "passes": len(passes),
        "probe_pairs": len(probes),
    }
    return metrics, notes


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    metrics = layers.median_of(
        [layers.aggregate([r.trace for r in p.traced if r.trace]) for p in passes])
    wall = statistics.median(sum(r.wall for r in p.results) for p in passes)
    traced_wall = statistics.median(sum(r.wall for r in p.traced) for p in passes)
    metrics["tracing.overhead_s"] = statistics.median(
        sum(t.wall - r.wall for r, t in zip(p.results, p.traced)) for p in passes)
    notes = {"wall_s": wall, "traced_wall_s": traced_wall, "passes": len(passes)}
    return metrics, notes


def _commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance_base(root: Path) -> dict:
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "source_digest": sha.hexdigest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def benchmark(args) -> int:
    if not (ROOT / "src" / "fatdiag" / "cli.py").is_file():
        print(f"error: no fatdiag source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    commands = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    log = Log()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        runner = Runner(ROOT, Path(scratch))
        try:
            runner.run(SETUP_ARGS)  # compile bytecode before timing anything
            if not args.trace:
                passes = run_passes(runner, commands, args.seconds, log, calibrated=True)
                metrics, notes = end_to_end(passes)
                units = END_TO_END
            else:
                runner.run(SETUP_ARGS, traced=True)
                passes = run_passes(runner, commands, args.seconds, log, traced=True)
                metrics, notes = per_layer(passes)
                units = layers.PER_LAYER
        finally:
            runner.close()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for p in passes:
                for cmd, r in zip(commands, p.traced):
                    if r.trace:
                        fh.write(json.dumps(dict(r.trace, args=list(cmd.args))) + "\n")
    prov = dict(provenance_base(ROOT), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, commands=len(commands),
                command_digest=workloads.digest(commands))
    result = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures,
        "probes": [p.probes for p in passes],
        "commands": [{"args": list(cmd.args),
                      "wall_s": [p.results[i].wall for p in passes],
                      "max_rss_kb": [p.results[i].max_rss_kb for p in passes]}
                     for i, cmd in enumerate(commands)],
    }
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands, "
          f"digest {prov['command_digest'][:16]}, {notes['passes']} passes")
    for name, value in metrics.items():
        extra = ""
        if name == "cmd_tail_rel":
            extra = (f"  (p{notes['cmd_tail_percentile']:.1f} of "
                     f"{notes['cmd_tail_samples']} per-command medians)")
        elif name in layers.COMPUTED:
            extra = f"  ({layers.COMPUTED[name]})"
        print(f"metric {name} {value:.6g} {units[name]}{extra}")
    if not args.trace:
        print(f"raw: wall {notes['wall_s']:.4f} s, cmd p50 {notes['cmd_p50_s']:.4f} s, "
              f"cmd tail {notes['cmd_tail_s']:.4f} s, setup {notes['setup_raw_s']:.4f} s, "
              f"calibration {notes['calibration_s']:.4f} s")
    for failure in log.failures[:10]:
        print(f"FAIL {' '.join(failure['args'])[:120]}: {failure['reason'][:300]}")
    print(f"gate: {log.failed} of {log.attempted} commands failed "
          f"(fail_frac {log.failed / log.attempted:.4g}); result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": result["metrics"]}))
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Print metric deltas of two result files; refuse different command lists."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    da, db = a["provenance"]["command_digest"], b["provenance"]["command_digest"]
    if da != db or a["provenance"]["trace"] != b["provenance"]["trace"]:
        print(f"error: refusing to compare different workloads "
              f"(command digests {da[:16]} and {db[:16]})", file=sys.stderr)
        return 2
    print(f"{'metric':48s} {'A':>14s} {'B':>14s} {'B/A-1':>8s}")
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"].get(name, {}).get("value")
        if vb is None:
            continue
        delta = f"{vb / va - 1:+.1%}" if va else "n/a"
        print(f"{name:48s} {va:14.6g} {vb:14.6g} {delta:>8s}")
    return 0


def record_expected() -> int:
    """Write expected_groups.json: every group command the group-strata
    workload can generate, run once on the roster's own labelling."""
    table = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        runner = Runner(ROOT, Path(scratch))
        try:
            for fam in workloads.GROUP_ROSTER:
                group = ("--degree", str(fam.degree), "--gens", "; ".join(fam.gens))
                argvs = [(verb, "gamma", "--space", space) + group
                         for verb in ("chi", "betti", "pi1") if verb in fam.verbs
                         for space in sorted(workloads.GROUP_SPACES)]
                argvs += [("strata", verb) + group
                          for verb in ("depth", "length") if verb in fam.verbs]
                for argv in argvs:
                    result = runner.run(argv)
                    if result.code != 0:
                        print(f"error: {' '.join(argv)} exited {result.code}: "
                              f"{result.stderr}", file=sys.stderr)
                        return 1
                    cmd = workloads.Command(argv, {"family": fam.name})
                    table[gate.expected_key(cmd)] = json.loads(result.stdout)["result"]
        finally:
            runner.close()
    gate.EXPECTED_GROUPS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"wrote {len(table)} expected results to {gate.EXPECTED_GROUPS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.record_expected:
        return record_expected()
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
        return 0 if unittest.TextTestRunner().run(suite).wasSuccessful() else 1
    if args.sweep:
        import sweep
        return sweep.main(ROOT, OUT)
    if not args.workload:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
