#!/usr/bin/env python3
"""Compare a fresh BENCH_results.json against the committed one, row by row.

Both files are JSON Lines: one object per bench row, each carrying a
"bench" name.  Rows are keyed by (bench name, ordinal among that bench's
rows), so a bench that emits one row per p lines up p-for-p.

Every field is a virtual-time (or configuration) field and must match
exactly, except:
  - host-clock fields, which are reported as fresh/committed ratios
    instead: wall_ms on every row, plus each field a row names in its
    "host_fields" list (a bench that times the simulator itself, such as
    sim_overhead, marks its wall-clock fields this way);
  - fields named by --allow BENCH:FIELD=REASON.  BENCH and FIELD are
    fnmatch globs; FIELD matches the flattened path of a leaf
    ("metrics.disk_util[1]") or any prefix of it ("metrics").  The reason
    is printed next to every moved field it covers, so the diff doubles as
    the list of moved fields with their causes.

Usage:
    python3 tools/bench_diff/bench_diff.py BENCH_results.json fresh.json \\
        [--subset] [--allow 'table2_*:write_ms_per_block=smaller messages']

--subset lets the fresh file cover only some committed rows (CI reruns a
few benches).  A fresh row with no committed counterpart is always an
error.  Exit status: 0 when every difference is allowed, 1 otherwise,
2 on bad input.
"""

import argparse
import fnmatch
import json
import statistics
import sys

WALL_FIELDS = frozenset({"wall_ms"})


def host_fields(*rows):
    """wall_ms plus every field the rows list under "host_fields"."""
    fields = set(WALL_FIELDS)
    for row in rows:
        fields.update(row.get("host_fields", []))
    return fields


def load_rows(path):
    """Read a JSON Lines bench file into {(bench, ordinal): row}."""
    rows = {}
    counts = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            if not isinstance(row, dict) or "bench" not in row:
                raise ValueError(f"{path}:{lineno}: row has no 'bench' name")
            bench = row["bench"]
            ordinal = counts.get(bench, 0)
            counts[bench] = ordinal + 1
            rows[(bench, ordinal)] = row
    return rows


def flatten(value, prefix=""):
    """Yield (path, leaf) for every scalar under `value`."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from flatten(sub, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from flatten(sub, f"{prefix}[{i}]")
    else:
        yield prefix, value


def parse_allow(spec):
    """'bench:field=reason' -> (bench_glob, field_glob, reason)."""
    target, sep, reason = spec.partition("=")
    bench, colon, field = target.partition(":")
    if not sep or not colon or not bench or not field or not reason.strip():
        raise ValueError(f"--allow wants BENCH:FIELD=REASON, got {spec!r}")
    return bench, field, reason.strip()


def allowed_reason(allows, bench, path):
    for bench_glob, field_glob, reason in allows:
        if not fnmatch.fnmatchcase(bench, bench_glob):
            continue
        # A field pattern covers the leaf itself and everything under it.
        prefixes = [path] + [
            path[:i] for i, ch in enumerate(path) if ch in ".["
        ]
        if any(fnmatch.fnmatchcase(p, field_glob) for p in prefixes):
            return reason
    return None


def diff(committed, fresh, allows, subset=False):
    """Compare two row maps.

    Returns (lines, moved, unexplained, host_ratios): report lines, the
    count of fields whose value moved, the count of differences no --allow
    covers, and {host field name: [fresh/committed ratios]}.
    """
    lines = []
    moved = 0
    unexplained = 0
    host_ratios = {}
    for key in sorted(fresh):
        if key not in committed:
            lines.append(f"{key[0]}#{key[1]}: new row, not in committed file")
            unexplained += 1
    for key in sorted(committed):
        bench, ordinal = key
        label = f"{bench}#{ordinal}"
        if key not in fresh:
            if not subset:
                lines.append(f"{label}: missing from fresh file")
                unexplained += 1
            continue
        host = host_fields(committed[key], fresh[key])
        old = dict(flatten(committed[key]))
        new = dict(flatten(fresh[key]))
        for path in sorted(old.keys() | new.keys()):
            a = old.get(path, "<absent>")
            b = new.get(path, "<absent>")
            if path in host and isinstance(a, (int, float)) and \
                    isinstance(b, (int, float)):
                if a > 0:
                    host_ratios.setdefault(path, []).append(b / a)
                continue
            if a == b:
                continue
            moved += 1
            reason = allowed_reason(allows, bench, path)
            if reason is None:
                unexplained += 1
                lines.append(f"{label}: {path} {a} -> {b}  [UNEXPLAINED]")
            else:
                lines.append(f"{label}: {path} {a} -> {b}  [{reason}]")
    return lines, moved, unexplained, host_ratios


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Row-by-row diff of bench JSON Lines files.")
    parser.add_argument("committed", help="committed BENCH_results.json")
    parser.add_argument("fresh", help="freshly generated rows")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="BENCH:FIELD=REASON",
                        help="accept a moved field and print the reason")
    parser.add_argument("--subset", action="store_true",
                        help="fresh covers only some committed rows")
    args = parser.parse_args(argv)
    try:
        allows = [parse_allow(spec) for spec in args.allow]
        committed = load_rows(args.committed)
        fresh = load_rows(args.fresh)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    lines, moved, unexplained, ratios = diff(committed, fresh, allows,
                                             args.subset)
    compared = len(fresh.keys() & committed.keys())
    print(f"bench_diff: {compared} rows compared "
          f"({len(committed)} committed, {len(fresh)} fresh)")
    for line in lines:
        print("  " + line)
    for field in sorted(ratios, key=lambda f: (f not in WALL_FIELDS, f)):
        r = ratios[field]
        print(f"{field} fresh/committed over {len(r)} rows: "
              f"median {statistics.median(r):.3f}, "
              f"min {min(r):.3f}, max {max(r):.3f}")
    print(f"{moved} fields moved, {unexplained} unexplained differences")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
