#!/usr/bin/env python3
"""Unit tests for bench_diff.py: row keying, exact field comparison,
--allow globs, wall_ms and host_fields ratios and --subset.

Run directly or through ctest (test `tools_bench_diff_py`):

    python3 -m unittest discover -s tools/bench_diff -p "*_test.py"
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402

ROWS = [
    {"bench": "table2", "p": 2, "read_ms": 7.5, "wall_ms": 10.0,
     "metrics": {"disk_util": [0.5, 0.25]}},
    {"bench": "table2", "p": 4, "read_ms": 4.0, "wall_ms": 20.0,
     "metrics": {"disk_util": [0.5, 0.25, 0.25, 0.25]}},
    {"bench": "sort", "p": 2, "sort_sec": 263.0, "wall_ms": 400.0},
]


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, rows):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
        return path

    def run_diff(self, fresh_rows, *extra):
        committed = self.write("committed.json", ROWS)
        fresh = self.write("fresh.json", fresh_rows)
        out = io.StringIO()
        with redirect_stdout(out):
            status = bench_diff.main([committed, fresh, *extra])
        return status, out.getvalue()

    def test_identical_rows_pass_and_report_wall_ratio(self):
        fresh = json.loads(json.dumps(ROWS))
        for row in fresh:
            row["wall_ms"] *= 2
        status, out = self.run_diff(fresh)
        self.assertEqual(status, 0)
        self.assertIn("3 rows compared", out)
        self.assertIn("over 3 rows: median 2.000", out)
        self.assertIn("0 fields moved, 0 unexplained", out)

    def test_moved_virtual_field_fails_with_its_row_key(self):
        fresh = json.loads(json.dumps(ROWS))
        fresh[1]["read_ms"] = 3.9
        status, out = self.run_diff(fresh)
        self.assertEqual(status, 1)
        self.assertIn("table2#1: read_ms 4.0 -> 3.9  [UNEXPLAINED]", out)

    def test_allow_names_the_reason_and_covers_nested_fields(self):
        fresh = json.loads(json.dumps(ROWS))
        fresh[0]["read_ms"] = 7.4
        fresh[0]["metrics"]["disk_util"][1] = 0.2
        status, out = self.run_diff(
            fresh, "--allow", "table*:read_ms=smaller messages",
            "--allow", "table2:metrics=shorter busy time")
        self.assertEqual(status, 0)
        self.assertIn("read_ms 7.5 -> 7.4  [smaller messages]", out)
        self.assertIn("metrics.disk_util[1] 0.25 -> 0.2  [shorter busy time]",
                      out)
        self.assertIn("2 fields moved, 0 unexplained", out)

    def test_allow_is_scoped_to_its_bench(self):
        fresh = json.loads(json.dumps(ROWS))
        fresh[2]["sort_sec"] = 262.0
        status, _ = self.run_diff(fresh, "--allow", "table2:*=anything")
        self.assertEqual(status, 1)

    def test_added_or_removed_fields_count_as_moved(self):
        fresh = json.loads(json.dumps(ROWS))
        del fresh[2]["sort_sec"]
        fresh[2]["merge_sec"] = 1.0
        status, out = self.run_diff(fresh)
        self.assertEqual(status, 1)
        self.assertIn("sort#0: sort_sec 263.0 -> <absent>", out)
        self.assertIn("sort#0: merge_sec <absent> -> 1.0", out)

    def test_host_fields_compare_as_ratios(self):
        overhead = {"bench": "sim_overhead_switch", "procs": 4,
                    "events": 100, "run_ms": 10.0, "events_per_sec": 1e4,
                    "host_fields": ["run_ms", "events_per_sec"],
                    "wall_ms": 1.0}
        committed = self.write("committed.json", ROWS + [overhead])
        fresh_row = dict(overhead, run_ms=20.0, events_per_sec=5e3)
        fresh = self.write("fresh.json", ROWS + [fresh_row])
        out = io.StringIO()
        with redirect_stdout(out):
            status = bench_diff.main([committed, fresh])
        self.assertEqual(status, 0)
        self.assertIn("run_ms fresh/committed over 1 rows: median 2.000",
                      out.getvalue())
        self.assertIn("events_per_sec fresh/committed over 1 rows: "
                      "median 0.500", out.getvalue())
        self.assertIn("0 fields moved, 0 unexplained", out.getvalue())

        # Only the listed fields are host clock: the row's simulated event
        # count, and the same field name on a row without the list, must
        # still match exactly.
        fresh_rows = json.loads(json.dumps(ROWS)) + [dict(fresh_row,
                                                          events=101)]
        fresh_rows[2]["run_ms"] = 1.0
        fresh = self.write("fresh.json", fresh_rows)
        out = io.StringIO()
        with redirect_stdout(out):
            status = bench_diff.main([committed, fresh])
        self.assertEqual(status, 1)
        self.assertIn("sim_overhead_switch#0: events 100 -> 101  "
                      "[UNEXPLAINED]", out.getvalue())
        self.assertIn("sort#0: run_ms <absent> -> 1.0  [UNEXPLAINED]",
                      out.getvalue())

    def test_missing_rows_fail_unless_subset(self):
        status, out = self.run_diff(ROWS[:1])
        self.assertEqual(status, 1)
        self.assertIn("table2#1: missing from fresh file", out)
        status, _ = self.run_diff(ROWS[:1], "--subset")
        self.assertEqual(status, 0)

    def test_new_rows_always_fail(self):
        status, out = self.run_diff(ROWS + [{"bench": "copy", "p": 2}],
                                    "--subset")
        self.assertEqual(status, 1)
        self.assertIn("copy#0: new row", out)

    def test_bad_input_exits_2(self):
        bad = os.path.join(self.dir.name, "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("{not json\n")
        good = self.write("good.json", ROWS)
        with redirect_stderr(io.StringIO()):
            self.assertEqual(bench_diff.main([bad, good]), 2)
            self.assertEqual(
                bench_diff.main([good, good, "--allow", "no-reason"]), 2)


if __name__ == "__main__":
    unittest.main()
