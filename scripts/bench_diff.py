#!/usr/bin/env python3
"""Compare two bench_results trees and flag perf regressions.

Inputs are directories of util::BenchJsonWriter documents
({"bench": ..., "meta": {git_rev, timestamp, compiler, build_type, obs, ...},
"rows": [{"name": ..., <metric>: <number|string>}, ...]}). The baseline is
either a second directory or a committed copy inside a git revision
(--git REV reads REV:bench_results/<file> via `git show`).

For every bench file present in BOTH trees, rows are matched by name and each
shared numeric metric is printed with its delta. Metrics are gated by
direction:

  lower-better  (regression = new > base * (1 + threshold)):
      *_ms, *_ns, *_us, alloc_*, *_words, conflicts, propagations, decisions
  higher-better (regression = new < base * (1 - threshold)):
      speedup, vs_best_single, decided, *accuracy*, exact_fraction
  informational (never gated): everything else, e.g. counts that describe
      the workload rather than the implementation (clauses, instances,
      workers, reps).

A metric whose row also carries "<metric>_samples" (one value per seed,
e.g. bench_table1's per-seed accuracies) is judged statistically instead of
by --threshold: a one-sided Welch test over the two sample lists must put
the 99% lower confidence bound of (new - base) at or above -margin
(non-inferiority). The margin is 0.005 for accuracies, half the last digit
the paper prints in Table 1, and 0.05 for exact_fraction. A sample list
present on one side only is a failure: the statistical judgement cannot be
made, and a silently dropped series is how a quality loss would hide.

Timing rows below --min-time-ms in BOTH trees are informational regardless of
direction: sub-millisecond wall times are noise-dominated.

A row present in the baseline but missing from the new tree is a hard failure
(a silently dropped benchmark is how regressions hide); new rows are reported
but fine. A bench file present in only one tree is a warning, not a failure,
so trees from different commits stay comparable.

Provenance meta is printed for both sides and mismatched compiler /
build_type / obs provoke a warning (the numbers are still compared: a
cross-compiler diff is often exactly what you want to see, it is just not a
clean regression signal).

Usage:
  bench_diff.py BASE_DIR NEW_DIR [--threshold 0.10] [--min-time-ms 1.0]
  bench_diff.py NEW_DIR --git [REV]      # baseline = REV's committed copy
                                         # (default REV: HEAD)

Exit codes: 0 = no gated regression, 1 = regression or missing row,
2 = usage or schema error.
"""

import argparse
import json
import math
import os
import subprocess
import sys

LOWER_BETTER_SUFFIXES = ("_ms", "_ns", "_us", "_words")
LOWER_BETTER_PREFIXES = ("alloc_",)
LOWER_BETTER_EXACT = {"conflicts", "propagations", "decisions"}
HIGHER_BETTER = {"speedup", "vs_best_single", "decided", "exact_fraction"}
SAMPLES_SUFFIX = "_samples"
NONINFERIORITY_CONFIDENCE = 0.99


class SchemaError(Exception):
    pass


def is_timing(metric):
    """True for wall/phase timing metrics (ms units), including names like
    wall_ms_plain where the unit sits mid-name."""
    return metric.endswith("_ms") or "_ms_" in metric or metric.startswith("ms_")


def classify(metric):
    """Return 'lower', 'higher', or 'info' for a metric name."""
    if metric in HIGHER_BETTER or "accuracy" in metric:
        return "higher"
    if metric in LOWER_BETTER_EXACT:
        return "lower"
    if is_timing(metric) or metric.endswith(LOWER_BETTER_SUFFIXES):
        return "lower"
    if metric.startswith(LOWER_BETTER_PREFIXES):
        return "lower"
    return "info"


def noninferiority_margin(metric):
    """Tolerated loss of a sampled metric's mean, or None when the metric
    has no statistical rule."""
    if metric == "exact_fraction":
        return 0.05
    if "accuracy" in metric:
        return 0.005
    return None


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b) by Lentz's continued fraction
    (Numerical Recipes betai/betacf)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc_reg(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h / a


def student_t_quantile(p, df):
    """Quantile of Student's t with (possibly fractional) df, for p > 0.5,
    by bisection on the CDF 1 - I_{df/(df+t^2)}(df/2, 1/2) / 2."""
    lo, hi = 0.0, 1e4
    for _ in range(200):
        t = 0.5 * (lo + hi)
        cdf = 1.0 - 0.5 * betainc_reg(df / 2.0, 0.5, df / (df + t * t))
        lo, hi = (t, hi) if cdf < p else (lo, t)
    return 0.5 * (lo + hi)


def welch_lower_bound(base, new, confidence):
    """(mean(new) - mean(base), its one-sided lower confidence bound) by
    Welch's test: unequal variances, Welch-Satterthwaite df."""
    def mean_var(xs):
        m = sum(xs) / len(xs)
        return m, sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    mb, vb = mean_var(base)
    mn, vn = mean_var(new)
    sb, sn = vb / len(base), vn / len(new)
    diff = mn - mb
    if sb + sn == 0.0:
        return diff, diff
    df = (sb + sn) ** 2 / (sb ** 2 / (len(base) - 1) + sn ** 2 / (len(new) - 1))
    return diff, diff - student_t_quantile(confidence, df) * math.sqrt(sb + sn)


def judge_samples(metric, base_row, new_row):
    """Non-inferiority verdict for a sampled metric: (line, regression)."""
    key = metric + SAMPLES_SUFFIX
    if key not in base_row or key not in new_row:
        side = "new" if key in base_row else "base"
        return (f"{metric}: per-seed samples missing from the {side} row  "
                "REGRESSION", f"{key} missing from the {side} row")
    base, new = base_row[key], new_row[key]
    margin = noninferiority_margin(metric)
    for xs in (base, new):
        if not isinstance(xs, list) or len(xs) < 2 or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in xs):
            raise SchemaError(f"{key}: need a list of >= 2 numbers")
    if margin is None:
        raise SchemaError(f"{key}: no non-inferiority margin for '{metric}'")
    diff, lcb = welch_lower_bound(base, new, NONINFERIORITY_CONFIDENCE)
    ok = lcb >= -margin
    line = (f"{metric}: {sum(base) / len(base):.4f} -> "
            f"{sum(new) / len(new):.4f} over {len(base)}/{len(new)} samples "
            f"(diff {diff:+.4f}, {NONINFERIORITY_CONFIDENCE:.0%} LCB "
            f"{lcb:+.4f} {'>=' if ok else '<'} -{margin:g})")
    if ok:
        return line + "  non-inferior", None
    return line + "  REGRESSION", f"{metric} lower bound {lcb:+.4f} < -{margin:g}"


def load_doc(name, text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise SchemaError(f"{name}: not valid JSON: {ex}")
    if not isinstance(doc, dict) or "rows" not in doc or "bench" not in doc:
        raise SchemaError(f"{name}: missing 'bench'/'rows' keys")
    rows = doc["rows"]
    if not isinstance(rows, list):
        raise SchemaError(f"{name}: 'rows' is not a list")
    by_name = {}
    for row in rows:
        if not isinstance(row, dict) or "name" not in row:
            raise SchemaError(f"{name}: row without a 'name'")
        by_name[row["name"]] = row
    return doc.get("meta", {}), by_name


def read_dir_tree(path):
    if not os.path.isdir(path):
        raise SchemaError(f"{path}: not a directory")
    tree = {}
    for fname in sorted(os.listdir(path)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(path, fname), encoding="utf-8") as f:
            tree[fname] = load_doc(os.path.join(path, fname), f.read())
    if not tree:
        raise SchemaError(f"{path}: no *.json bench files")
    return tree


def read_git_tree(rev, rel_dir):
    try:
        listing = subprocess.run(
            ["git", "ls-tree", "--name-only", rev, rel_dir + "/"],
            capture_output=True, text=True, check=True).stdout.split()
    except (subprocess.CalledProcessError, OSError) as ex:
        raise SchemaError(f"git ls-tree {rev} failed: {ex}")
    tree = {}
    for path in listing:
        if not path.endswith(".json"):
            continue
        try:
            text = subprocess.run(["git", "show", f"{rev}:{path}"],
                                  capture_output=True, text=True,
                                  check=True).stdout
        except subprocess.CalledProcessError as ex:
            raise SchemaError(f"git show {rev}:{path} failed: {ex}")
        tree[os.path.basename(path)] = load_doc(f"{rev}:{path}", text)
    if not tree:
        raise SchemaError(f"{rev}:{rel_dir}: no committed *.json bench files")
    return tree


def fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+",
                        help="BASE_DIR NEW_DIR, or NEW_DIR with --git")
    parser.add_argument("--git", nargs="?", const="HEAD", default=None,
                        metavar="REV",
                        help="compare against REV's committed copy of the "
                             "results dir (default HEAD)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold (default 0.10)")
    parser.add_argument("--min-time-ms", type=float, default=1.0,
                        help="timing rows below this in both trees are "
                             "informational (default 1.0)")
    args = parser.parse_args()

    try:
        if args.git is not None:
            if len(args.dirs) != 1:
                print("bench_diff: --git takes exactly one directory",
                      file=sys.stderr)
                sys.exit(2)
            new_dir = args.dirs[0]
            rel = os.path.relpath(new_dir)
            base_tree = read_git_tree(args.git, rel)
            new_tree = read_dir_tree(new_dir)
            base_label, new_label = f"{args.git}:{rel}", new_dir
        else:
            if len(args.dirs) != 2:
                print("bench_diff: need BASE_DIR NEW_DIR (or --git REV)",
                      file=sys.stderr)
                sys.exit(2)
            base_tree = read_dir_tree(args.dirs[0])
            new_tree = read_dir_tree(args.dirs[1])
            base_label, new_label = args.dirs[0], args.dirs[1]
    except SchemaError as ex:
        print(f"bench_diff: schema error: {ex}", file=sys.stderr)
        sys.exit(2)

    regressions = []
    compared_files = 0
    for fname in sorted(set(base_tree) | set(new_tree)):
        if fname not in base_tree:
            print(f"[{fname}] only in {new_label} — skipped")
            continue
        if fname not in new_tree:
            print(f"[{fname}] only in {base_label} — skipped")
            continue
        compared_files += 1
        base_meta, base_rows = base_tree[fname]
        new_meta, new_rows = new_tree[fname]
        print(f"== {fname} ==")
        print(f"  base: rev={base_meta.get('git_rev', '?')} "
              f"{base_meta.get('timestamp', '?')} "
              f"{base_meta.get('compiler', '?')} "
              f"{base_meta.get('build_type', '?')} obs={base_meta.get('obs', '?')}")
        print(f"  new:  rev={new_meta.get('git_rev', '?')} "
              f"{new_meta.get('timestamp', '?')} "
              f"{new_meta.get('compiler', '?')} "
              f"{new_meta.get('build_type', '?')} obs={new_meta.get('obs', '?')}")
        for key in ("compiler", "build_type", "obs"):
            if base_meta.get(key) != new_meta.get(key):
                print(f"  warning: {key} differs "
                      f"({base_meta.get(key)} vs {new_meta.get(key)}) — "
                      "not a clean A/B")

        for row_name in sorted(set(base_rows) | set(new_rows)):
            if row_name not in base_rows:
                print(f"  + {row_name}: new row")
                continue
            if row_name not in new_rows:
                print(f"  ! {row_name}: MISSING from new tree")
                regressions.append(f"{fname}:{row_name} missing")
                continue
            base_row, new_row = base_rows[row_name], new_rows[row_name]
            sampled = sorted({k[:-len(SAMPLES_SUFFIX)]
                              for k in set(base_row) | set(new_row)
                              if k.endswith(SAMPLES_SUFFIX)})
            for metric in sampled:
                try:
                    line, regression = judge_samples(metric, base_row, new_row)
                except SchemaError as ex:
                    print(f"bench_diff: schema error: {fname}: {ex}",
                          file=sys.stderr)
                    sys.exit(2)
                print(f"    {row_name}.{line}")
                if regression:
                    regressions.append(f"{fname}:{row_name}.{regression}")
            for metric in sorted(set(base_row) & set(new_row) - {"name"}):
                if metric in sampled or metric.endswith(SAMPLES_SUFFIX):
                    continue
                bv, nv = base_row[metric], new_row[metric]
                if not isinstance(bv, (int, float)) or isinstance(bv, bool) \
                        or not isinstance(nv, (int, float)) or isinstance(nv, bool):
                    if bv != nv:
                        print(f"    {row_name}.{metric}: {bv} -> {nv}")
                    continue
                direction = classify(metric)
                below_floor = (is_timing(metric)
                               and bv < args.min_time_ms
                               and nv < args.min_time_ms)
                delta_pct = 0.0 if bv == 0 else 100.0 * (nv - bv) / bv
                verdict = ""
                if direction != "info" and not below_floor:
                    if direction == "lower" and nv > bv * (1.0 + args.threshold):
                        verdict = "  REGRESSION"
                    elif direction == "higher" and nv < bv * (1.0 - args.threshold):
                        verdict = "  REGRESSION"
                elif below_floor:
                    direction = "info"
                print(f"    {row_name}.{metric}: {fmt(bv)} -> {fmt(nv)} "
                      f"({delta_pct:+.1f}%, {direction}){verdict}")
                if verdict:
                    regressions.append(
                        f"{fname}:{row_name}.{metric} {fmt(bv)} -> {fmt(nv)}")

    if compared_files == 0:
        print("bench_diff: no bench file present in both trees",
              file=sys.stderr)
        sys.exit(2)
    if regressions:
        print(f"bench_diff: FAIL: {len(regressions)} regression(s) (flat "
              f"threshold {args.threshold:.0%}, sampled metrics by "
              "non-inferiority):", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_diff: OK: {compared_files} file(s), no gated metric "
          f"regressed beyond {args.threshold:.0%}, every sampled metric "
          "non-inferior")


if __name__ == "__main__":
    main()
