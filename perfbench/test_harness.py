"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import unittest
from unittest import mock

import run
import tracer
from workloads import WORKLOADS, Command


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
        names = ["root", "a", "b", "c"]
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 7.0]
        parents = [-1, 0, 0, 2]
        got = tracer.self_times(names, starts, ends, parents)
        self.assertEqual(got, {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0})

    def test_generator_spans_nest_per_resumption(self):
        t = tracer.Tracer()

        def leaf():
            return 1

        def gen(f):
            yield f()
            yield f()

        leaf_w = t.wrap("m.leaf", leaf)
        gen_w = t.wrap("m.gen", gen)
        self.assertEqual(list(gen_w(leaf_w)), [1, 1])
        self.assertEqual(t.calls, {"m.leaf": 2, "m.gen": 1})
        self.assertEqual(t.counters["m.gen.yielded"], 2)
        names = [t.keys[i] for i in t.name_ids]
        # three resumptions of the generator, each the parent of one leaf call
        self.assertEqual(names.count("m.gen"), 3)
        for i, name in enumerate(names):
            if name == "m.leaf":
                self.assertEqual(names[t.parents[i]], "m.gen")


class Gate(unittest.TestCase):
    plain = Command("selftest-plain", ("verify", "x", "--suite", "hall"))
    seeded = Command("selftest-seeded", ("verify", "x", "--suite", "constancy", "--seed", "{seed}"))
    good = {"ok": True, "value": 1}

    def expected(self):
        body = json.dumps(self.good).encode()
        return {
            self.plain.id: run.sha256(body),
            self.seeded.id: run.digest(self.seeded, self.good, b""),
        }

    def test_gate(self):
        body = json.dumps(self.good).encode()
        with mock.patch.dict(run.EXPECTED, self.expected()):
            self.assertEqual(run.outcome(self.plain, 0, body), (None, True))
            self.assertEqual(run.outcome(self.plain, 1, body)[0], "exit 1")
            not_ok = json.dumps({"ok": False, "value": 1}).encode()
            self.assertEqual(run.outcome(self.plain, 0, not_ok), ("report not ok", False))
            tampered = json.dumps({"ok": True, "value": 2}).encode()
            failure, recorded = run.outcome(self.plain, 0, tampered)
            self.assertEqual(failure, "digest differs from the recorded one")
            self.assertFalse(recorded)
            self.assertEqual(run.outcome(self.plain, 1, b"Traceback"), ("exit 1 without a report", False))

    def test_seed_is_left_out_of_the_digest(self):
        with mock.patch.dict(run.EXPECTED, self.expected()):
            body = json.dumps({**self.good, "seed": 7}).encode()
            self.assertEqual(run.outcome(self.seeded, 0, body), (None, True))

    def test_known_defect_fails_but_is_recorded(self):
        bad = json.dumps({"ok": False, "value": 1, "seed": 0, "discrepancies": [{"signs": []}]}).encode()
        expected = {self.seeded.id: run.digest(self.seeded, {**self.good, "discrepancies": []}, b"")}
        with mock.patch.dict(run.EXPECTED, expected):
            self.assertEqual(run.outcome(self.seeded, 1, bad), ("exit 1", False))
            with mock.patch.dict(run.KNOWN_DEFECTS, {self.seeded.id: "selftest"}):
                self.assertEqual(run.outcome(self.seeded, 1, bad), ("exit 1", True))


class WarmSetup(unittest.TestCase):
    def test_cache_is_filled(self):
        work = run.HERE / "work" / "selftest-warm"
        shutil.rmtree(work, ignore_errors=True)
        try:
            ctx = run.setup(WORKLOADS["counting-warm"], 0, work)
            cache = ctx.env["COMPONENT_LATTICE_CACHE"]
            self.assertTrue(any(run.Path(cache).iterdir()))
            cold = run.setup(WORKLOADS["counting-cold"], 0, work / "cold")
            self.assertNotIn("COMPONENT_LATTICE_CACHE", cold.env)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
