"""The benchmark's own tests.

    python3 perfbench/run.py --self-test
    python3 -m unittest discover -s perfbench      (from the repository root)
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def envelope(command: str, result, **extra) -> str:
    return json.dumps(dict({"schema": "fatdiag/1", "command": command, "result": result},
                           **extra))


def correct_output(cmd: workloads.Command, expected: dict) -> str:
    """What a correct fatdiag prints for `cmd`, built from the references."""
    facts, verb = cmd.facts, " ".join(cmd.args[:2])
    if "family" in facts:
        order = str(workloads.FAMILIES[facts["family"]].order)
        return envelope(verb, expected[gate.expected_key(cmd)],
                        inputs={"group_order": order})
    if cmd.args[0] == "verify":
        checks = [{"name": n, "status": "ok"} for n in layers.CHECKS.values()]
        return envelope("verify", {"failed": "0", "passed": str(len(checks)),
                                   "checks": checks, "suite": "all"})
    if cmd.args[0] == "graph":
        value = str(reference.graph_chi2(facts["vertices"], facts["edges"]))
        return envelope("graph chi2", value, oracle_results={"discretized": value},
                        inputs={"vertices": len(facts["vertices"]),
                                "edges": len(facts["edges"])})
    kind, chi = facts["kind"], facts["chi"]
    inputs = {"space": {"euler": str(chi)}}
    if facts.get("grid"):
        cells = gate._cells(facts)
        if facts["csv"]:
            return "\n".join(["n,d,value"] + [
                f"{n},{d},{reference.value(kind, chi, n, d)}" for n, d in cells])
        rows = [{"n": n, "d": d, "value": str(reference.value(kind, chi, n, d))}
                for n, d in cells]
        return envelope(verb, rows, inputs=inputs)
    value = str(reference.value(kind, chi, facts["n"], facts.get("d")))
    extra = {}
    if "--verify" in cmd.args:
        names = {"bd": ["cycle_type_average", "stratification_sum"],
                 "fd": ["set_partition_sum"], "bupper": ["complement"]}[kind]
        if kind != "bupper" and facts["d"] == 2:
            names.append("closed_d2_form")
        extra["oracle_results"] = {name: value for name in names}
    return envelope(verb, value, inputs=inputs, **extra)


class FakeRunner:
    """Stands in for run.Runner: answers from a table, takes no time."""

    def __init__(self, outputs: dict):
        self.outputs = outputs

    def run(self, args, traced=False):
        if tuple(args) == run.SETUP_ARGS:
            return run.Result(0, envelope("chi sp", "1"), "", 0.1, 1000, None)
        return run.Result(0, self.outputs[tuple(args)], "", 0.2, 2000, None)

    def calibrate(self):
        return 0.1


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_list_other_seed_other_list(self):
        for name in workloads.WORKLOADS:
            first = workloads.generate(name, 7)
            self.assertEqual(workloads.digest(first),
                             workloads.digest(workloads.generate(name, 7)), name)
            self.assertNotEqual(workloads.digest(first),
                                workloads.digest(workloads.generate(name, 8)), name)

    def test_every_group_command_has_a_stored_result(self):
        expected = gate.load_expected()
        for seed in range(1, 21):
            for cmd in workloads.generate("group-strata", seed):
                self.assertIn(gate.expected_key(cmd), expected)


class ReferenceTests(unittest.TestCase):
    def test_identities(self):
        for chi in range(-5, 6):
            for n in range(1, 30):
                self.assertEqual(reference.chi_b_upper(chi, n, n), reference.chi_sp(chi, n))
                for d in range(2, n + 1):
                    bd, fd = reference.chi_bd(chi, n, d), reference.chi_fd(chi, n, d)
                    self.assertIsNone(reference.identity_violation("bd", chi, n, d, bd))
                    self.assertIsNone(reference.identity_violation("fd", chi, n, d, fd))
                    self.assertEqual(bd + reference.chi_b_upper(chi, n, d - 1),
                                     reference.chi_sp(chi, n))
                falling = math.prod(chi - j for j in range(n))
                if n >= 2:
                    self.assertEqual(reference.chi_fd(chi, n, 2), chi**n - falling)
                    self.assertEqual(reference.chi_bd(chi, n, 2) * math.factorial(n),
                                     reference.chi_sp(chi, n) * math.factorial(n) - falling)

    def test_fd_against_restricted_stirling_numbers(self):
        # chi_fd = chi^n - sum_k S_{<d}(n, k) (chi)_k, with S_{<d} counting set
        # partitions into k blocks all smaller than d.
        for n in range(1, 13):
            for d in range(2, n + 1):
                table = {(0, 0): 1}
                for m in range(1, n + 1):
                    for k in range(1, m + 1):
                        table[(m, k)] = sum(
                            math.comb(m - 1, j - 1) * table.get((m - j, k - 1), 0)
                            for j in range(1, min(m, d - 1) + 1))
                for chi in range(-4, 5):
                    bounded = sum(table.get((n, k), 0) * math.prod(chi - j for j in range(k))
                                  for k in range(n + 1))
                    self.assertEqual(reference.chi_fd(chi, n, d), chi**n - bounded)

    def test_macdonald_small_cases(self):
        self.assertEqual(reference.macdonald((1, 0, 1), 2), {0: 1, 2: 1, 4: 1})
        self.assertEqual(reference.macdonald((1, 1), 4), {0: 1, 1: 1})
        self.assertEqual([reference.length_sn(n) for n in range(1, 7)], [0, 1, 2, 4, 5, 6])


class GateTests(unittest.TestCase):
    def outputs(self, name, seed=3):
        expected = gate.load_expected()
        commands = workloads.generate(name, seed)
        return commands, [(0, correct_output(c, expected)) for c in commands]

    def test_correct_outputs_pass(self):
        for name in workloads.WORKLOADS:
            commands, outputs = self.outputs(name)
            self.assertEqual(gate.check_all(commands, outputs), {}, name)

    def test_corrupted_outputs_are_caught(self):
        for name in workloads.WORKLOADS:
            commands, outputs = self.outputs(name)
            for i in range(0, len(commands), 3):
                code, text = outputs[i]
                digit = next(j for j in range(len(text) - 1, -1, -1) if text[j].isdigit())
                wrong = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
                cases = [(code, wrong), (1, text), (code, text + "\n" + text), (code, "")]
                for case in cases:
                    broken = outputs[:i] + [case] + outputs[i + 1:]
                    failures = gate.check_all(commands, broken)
                    self.assertIn(i, failures, f"{name}: {commands[i].args} {case}")

    def test_alternating_betti_sum_is_checked(self):
        commands, outputs = self.outputs("group-strata")
        i = next(i for i, c in enumerate(commands)
                 if c.args[0] == "chi" and not workloads.FAMILIES[c.facts["family"]].symmetric)
        expected = dict(gate.load_expected())
        key = gate.expected_key(commands[i])
        expected[key] = str(int(expected[key]) + 1)
        broken = list(outputs)
        broken[i] = (0, correct_output(commands[i], expected))
        failures = gate.check_all(commands, broken, expected)
        self.assertIn("alternating Betti sum", failures[i])

    def test_a_corrupted_output_raises_the_failure_count(self):
        commands, outputs = self.outputs("formula-sweep")
        table = {c.args: text for c, (_, text) in zip(commands, outputs)}
        log = run.Log()
        run.run_passes(FakeRunner(table), commands, 0, log, calibrated=True)
        self.assertEqual(log.failed, 0)
        table[commands[0].args] = table[commands[0].args].replace('"result": "', '"result": "1')
        log = run.Log()
        run.run_passes(FakeRunner(table), commands, 0, log, calibrated=True)
        self.assertEqual(log.failed, 1)
        self.assertGreater(log.attempted, len(commands))


class MetricTests(unittest.TestCase):
    def declared(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
                {m["name"]: m["unit"] for m in bench["per_layer"]}, bench)

    def test_printed_metrics_are_declared(self):
        end_to_end, per_layer, bench = self.declared()
        self.assertEqual(end_to_end, run.END_TO_END)
        self.assertEqual(per_layer, layers.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))

        commands, outputs = GateTests().outputs("formula-sweep")
        table = {c.args: text for c, (_, text) in zip(commands, outputs)}
        passes = run.run_passes(FakeRunner(table), commands, 0, run.Log(), calibrated=True)
        metrics, _ = run.end_to_end(passes)
        self.assertEqual(set(metrics), set(end_to_end))

        trace = {"import_s": 0.05, "counts": {}, "guards": {"group enumeration": 0.1},
                 "spans": [[1, 0, "cli", 0.0, 1.0, 0.5, 0],
                           [2, 1, "eulerchar.chi_bd", 0.1, 0.6, 0.5, 0]]}
        plain = run.Result(0, "", "", 0.9, 1, None)
        traced = [run.Pass([plain], traced=[run.Result(0, "", "", 1.0, 1, trace)])]
        metrics, _ = run.per_layer(traced)
        self.assertEqual(set(metrics), set(per_layer))
        self.assertAlmostEqual(metrics["eulerchar.formula.self_s"], 0.5)
        self.assertAlmostEqual(metrics["tracing.overhead_s"], 0.1)

    def test_compare_refuses_different_command_lists(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, digest in (("a", "1" * 64), ("b", "2" * 64)):
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps({
                    "provenance": {"command_digest": digest, "trace": 0},
                    "metrics": {"wall_rel": {"value": 1.0, "unit": "x"}}}))
                paths.append(str(path))
            self.assertEqual(run.compare(*paths), 2)
            self.assertEqual(run.compare(paths[0], paths[0]), 0)


class TracerTests(unittest.TestCase):
    def test_traced_command_prints_the_same_and_records_spans(self):
        args = ["chi", "bd", "--space", "torus", "-n", "7", "-d", "3", "--verify"]
        env = run.Runner.child_env(HERE.parent)
        plain = subprocess.run([sys.executable, "-m", "fatdiag.cli", *args], env=env,
                               capture_output=True, text=True, cwd=HERE.parent)
        with tempfile.TemporaryDirectory() as tmp:
            spans = os.path.join(tmp, "spans.json")
            traced = subprocess.run(
                [sys.executable, str(HERE / "tracer.py"), "--spans", spans, "--cmd", "1",
                 "--", *args], env=env, capture_output=True, text=True, cwd=HERE.parent)
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
        self.assertEqual(traced.returncode, plain.returncode)
        self.assertEqual(traced.stdout, plain.stdout)
        names = {span[2] for span in trace["spans"]}
        for name in ("cli", "eulerchar.chi_bd", "eulerchar.oracle_bd_burnside",
                     "combinatorics.set_partitions", "combinatorics.alpha_sequences"):
            self.assertIn(name, names)
        self.assertGreater(trace["counts"]["algebra.falling_factorial.calls"], 0)
        self.assertIn("oracle_bd_burnside", trace["guards"])
        metrics = layers.aggregate([trace])
        command = metrics["cli.command_s"]
        self_total = sum(metrics[f"{layer}.self_s"] for layer in layers.SELF_LAYERS)
        self.assertAlmostEqual(self_total, command, delta=1e-6 + 1e-9 * command)


if __name__ == "__main__":
    unittest.main()
