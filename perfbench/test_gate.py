"""Self-test of the correctness gate: a wrong expectation must count as a failure.

Run from the root of a checkout:

    python3 perfbench/test_gate.py
"""

import dataclasses
import shutil
import sys
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402  (needs the package on the path)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.OUT / "selftest"
        cls.ops = workloads.build(cls.work, "verify-exact", 7)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def outcome(self, op):
        code, _, _, out, err = run.run_child(run.cli_args(op), self.work, run.child_env())
        return run.judged(op, 0, code, out, err)

    def op(self, name: str, metric: str = "check"):
        return next(op for op in self.ops
                    if op.metric == metric and Path(op.args[2]).name == name)

    def test_predicted_outcomes_pass(self):
        for op in (self.op("ref1.json"), self.op("perturbed.json")):
            self.assertEqual(self.outcome(op)["problems"], [], op.args)

    def test_wrong_exit_code_expectation_fails(self):
        wrong = dataclasses.replace(self.op("perturbed.json"), exit=0)
        problems = self.outcome(wrong)["problems"]
        self.assertTrue(any("exit code 1, expected 0" in p for p in problems), problems)

    def test_wrong_residual_expectation_fails(self):
        wrong = dataclasses.replace(self.op("ref1.json"), residual="perturbed")
        problems = self.outcome(wrong)["problems"]
        self.assertTrue(any("at or below" in p for p in problems), problems)

    def test_output_rules(self):
        check = workloads.Op("check", ("check",), 0, "exact")
        ok = '{"independence": {"residual": 0.0}}'
        self.assertEqual(run.gate.judge(check, 0, ok, "")[0], [])
        bad_outputs = [
            ('{"independence": {"residual": NaN}}', ""),
            ('{"independence": {"residual": Infinity}}', ""),
            ("not json", ""),
            (ok, "Traceback (most recent call last):\n  ..."),
            ('{"independence": {"residual": 1e-300}}', ""),
        ]
        for stdout, stderr in bad_outputs:
            self.assertNotEqual(run.gate.judge(check, 0, stdout, stderr)[0], [], stdout)
        simulate = workloads.Op("simulate", ("simulate",), 0)
        for report in ('{"consistent_with_zero": false, "max_residual": 0.001}',
                       '{"consistent_with_zero": true, "max_residual": 0.02}'):
            self.assertNotEqual(run.gate.judge(simulate, 0, report, "")[0], [], report)


if __name__ == "__main__":
    unittest.main()
