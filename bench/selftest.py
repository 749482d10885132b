"""Self-tests of the benchmark's own code: seeds, quantiles, exact
arithmetic and output checks.  Needs no evoalg import and no fixtures on
disk.

    python3 bench/selftest.py
"""

import json
import unittest
from fractions import Fraction

from checks import check
from exact import count_closed_sets, det
from run import NOMINAL_REF_S, _end_to_end, nearest_rank
from workloads import WORKLOADS, build


def _shape(requests):
    """What must not depend on the seed: ids (subcommand, field, size),
    subcommands, flags and the checks applied."""
    return [(r["id"], r["argv"][0], [a for a in r["argv"] if str(a).startswith("--")],
             r["check"] if isinstance(r["check"], str) or r["check"] is None
             else r["check"][0])
            for r in requests]


def _inputs(requests):
    return json.dumps([(r["argv"], r["fixture"]) for r in requests])


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(_inputs(build(workload, 7)), _inputs(build(workload, 7)))

    def test_other_seed_other_inputs_same_mix(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = build(workload, 7), build(workload, 8)
                self.assertEqual(_shape(a), _shape(b))
                differ = sum(1 for x, y in zip(a, b)
                             if (x["argv"], x["fixture"]) != (y["argv"], y["fixture"]))
                self.assertGreater(differ, 0.9 * len(a))

    def test_every_fixture_used_once_per_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                requests = build(workload, 3)
                ids = [r["id"] for r in requests]
                self.assertEqual(len(ids), len(set(ids)))


class QuantileTests(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(nearest_rank(values, 0.9), (90, 10))
        self.assertEqual(nearest_rank(values, 0.5), (50, 50))
        self.assertEqual(nearest_rank([3.0], 0.9), (3.0, 0))
        self.assertEqual(nearest_rank([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.9), (10, 1))

    def test_p90_has_ten_requests_beyond(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                n = len(build(workload, 1))
                self.assertGreaterEqual(nearest_rank(range(n), 0.9)[1], 10)


class ScalingTests(unittest.TestCase):
    @staticmethod
    def report(latencies, ref):
        return {"maxrss_kib": 20480,
                "results": [{"start": 1.0, "end": 1.0 + t, "ref": ref, "rc": 0,
                             "error": None} for t in latencies]}

    def test_a_slower_machine_scales_away(self):
        ref = NOMINAL_REF_S
        fast = self.report([0.1, 0.01, 0.02], ref)
        slow = self.report([0.2, 0.02, 0.04], 2 * ref)
        values, _, _ = _end_to_end([fast, slow, slow], [0.1, 0.3, 0.2])
        self.assertAlmostEqual(values["latency_p50_s"], 0.02)
        self.assertAlmostEqual(values["latency_p90_s"], 0.1)
        self.assertAlmostEqual(values["requests_per_s"], 3 / 0.13)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mib"], 20)

    def test_a_slower_program_shows(self):
        ref = NOMINAL_REF_S
        before, _, _ = _end_to_end([self.report([0.1, 0.01, 0.02], ref)] * 3, [0.1])
        after, _, _ = _end_to_end([self.report([0.1, 0.01, 0.03], ref)] * 3, [0.1])
        self.assertAlmostEqual(after["latency_p50_s"], 1.5 * before["latency_p50_s"])


class ExactTests(unittest.TestCase):
    def test_det(self):
        self.assertEqual(det([[2, 1], [1, 1]], 5), 1)
        self.assertEqual(det([[1, 2], [2, 4]], 7), 0)
        self.assertEqual(det([[0, 1], [1, 0]], 3), 2)
        self.assertEqual(det([[Fraction(1, 2), 1], [3, 4]]), -1)
        self.assertEqual(det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]), -3)

    def test_count_closed_sets(self):
        self.assertEqual(count_closed_sets([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 99), 8)
        chain = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]    # 2 -> 1 -> 0
        self.assertEqual(count_closed_sets(chain, 99), 4)
        cycle = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]    # 0 <-> 1, 2 alone
        self.assertEqual(count_closed_sets(cycle, 99), 4)
        self.assertEqual(count_closed_sets([[1, 0], [0, 1]], 2), 3)


class CheckTests(unittest.TestCase):
    ROWS = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]

    def request(self, kind, p=None, rows=None):
        return {"check": kind, "p": p, "rows": rows or self.ROWS,
                "argv": ["minors", "x.alg"]}

    def test_minors_triple(self):
        req = self.request("minors")
        good = ("witness found: gamma [1], omega [1]\n"
                "u: 1 0\nv: 1 0\nw: 1 0\nu (v w) = 0 verified\n")
        self.assertIsNone(check(req, good))
        self.assertIsNotNone(check(req, good.replace("u: 1 0", "u: 1 1")))
        self.assertIsNotNone(check(req, good.replace("gamma [1]", "gamma [2]")))
        self.assertIsNotNone(check(req, "no vanishing-minor witness\n"))
        none = self.request("minors-none", 10007, [[1, 2], [3, 5]])
        self.assertIsNone(check(none, "no vanishing-minor witness\n"))
        self.assertIsNotNone(check(none, good))

    def test_cube(self):
        req = self.request("cube")
        self.assertIsNone(check(req, "element with cube zero: 1 0\n"
                                     "from principal minor on [1]\n"))
        self.assertIsNotNone(check(req, "element with cube zero: 0 1\n"
                                        "from principal minor on [2]\n"))
        self.assertIsNotNone(check(req, "element with cube zero: 0 0\n"
                                        "from principal minor on [1]\n"))
        none = self.request("cube-none")
        self.assertIsNone(check(none, "no vanishing principal minor: "
                                      "no such element exists\n"))
        self.assertIsNotNone(check(none, "element with cube zero: 1 0\n"
                                         "from principal minor on [1]\n"))

    def test_oracle_analyze_random_ideals(self):
        oracle = {"check": "oracle"}
        self.assertIsNone(check(oracle, "oracle nilpotency: checked 12, mismatches 0\n"))
        self.assertIsNotNone(check(oracle, "oracle nilpotency: checked 12, mismatches 1\n"))
        analyze = self.request("analyze")
        self.assertIsNone(check(analyze, "field: q\ndim: 2\nperfect: true\n"))
        self.assertIsNotNone(check(analyze, "field: q\ndim: 2\nperfect: false\n"))
        rnd = {"check": "random-perfect",
               "argv": ["random", "--field", "gf 5", "--dim", "2", "--seed", "1", "--perfect"]}
        self.assertIsNone(check(rnd, "field gf 5\ndim 2\n1 2\n3 4\n"))
        self.assertIsNotNone(check(rnd, "field gf 5\ndim 2\n1 2\n2 4\n"))
        ideals = {"check": ["ideals", 2]}
        self.assertIsNone(check(ideals, "perfect algebra; 2 ideals, all basic\n"
                                        "  span of e[]\n  span of e[1]\n"))
        self.assertIsNotNone(check(ideals, "perfect algebra; 3 ideals, all basic\n"))
        self.assertIsNotNone(check(ideals, ""))
        self.assertIsNotNone(check(rnd, "field gf 5\ndim 2\n1 2\n"))


if __name__ == "__main__":
    unittest.main()
