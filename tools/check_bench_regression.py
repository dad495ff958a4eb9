#!/usr/bin/env python3
"""CI perf-regression gate for the bench-smoke job.

Compares the JSON written by the bench binaries against committed
baselines in bench/baselines/ and fails when a metric moves outside its
tolerance band (bench/baselines/tolerances.json).

Two input schemas are understood:

  * the flat schema written by bench_common.h's JsonResultWriter:
      {"benchmark": "...", "meta": {...}, "metrics": {"name": value}}
  * google-benchmark --benchmark_out JSON ({"context": ..., "benchmarks":
    [...]}); each iteration run becomes one metric keyed by its benchmark
    name with real_time as the value.

Baselines are always stored in the flat schema (google-benchmark results
are normalised on --update), so a baseline diff in review reads as plain
metric/value pairs. The "meta" block (git SHA, build type, CPU features)
is provenance: it is recorded and displayed but never compared
numerically — except build_type, where comparing a Debug run against a
Release baseline is refused outright.

Modes:
  check (default)  compare --results against --baselines; exit 1 on any
                   regression outside tolerance
  --update         rewrite the baselines from --results (normalised);
                   commit the result (see TESTING.md for the refresh
                   workflow)
  --self-test      prove the gate can fail: perturb each baseline metric
                   beyond its tolerance in memory and require the
                   comparison to report it; exit 1 if any perturbation
                   slips through

Exit codes: 0 = clean, 1 = regression (or self-test hole), 2 = usage or
malformed input.

Tolerance semantics (tolerances.json):
  defaults: {...}                      applied to every metric
  benchmarks.<name>._default: {...}    per-benchmark override
  benchmarks.<name>.<metric>: {...}    per-metric override
with fields
  direction            "lower_is_better" (default) | "higher_is_better"
  max_regression_pct   relative band vs the baseline value (null = no
                       relative check; timings on shared CI runners get
                       wide bands — the gate exists to catch order-of-
                       magnitude regressions, not 5% noise)
  min_value/max_value  absolute bounds on the new value, independent of
                       the baseline (use for counts that must stay 0 and
                       ratios with a hard floor)
  required             if true, the metric missing from the results is
                       itself a failure (default false)
"""

import argparse
import copy
import json
import pathlib
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def normalize(raw, stem):
    """Return {"benchmark", "meta", "metrics"} from either input schema."""
    if "benchmarks" in raw and "context" in raw:  # google-benchmark
        metrics = {}
        for entry in raw["benchmarks"]:
            if entry.get("run_type", "iteration") != "iteration":
                continue  # aggregates (mean/median) would double-count
            metrics[entry["name"]] = float(entry["real_time"])
        return {"benchmark": stem, "meta": {}, "metrics": metrics}
    if "metrics" in raw:  # flat JsonResultWriter schema
        return {
            "benchmark": raw.get("benchmark", stem),
            "meta": raw.get("meta", {}),
            "metrics": {k: float(v) for k, v in raw["metrics"].items()},
        }
    raise ValueError(f"{stem}: neither google-benchmark nor flat bench JSON")


def load_dir(directory):
    """All *.json files in a directory, normalised, keyed by file stem."""
    results = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name == "tolerances.json":
            continue
        try:
            results[path.stem] = normalize(load_json(path), path.stem)
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            raise ValueError(f"{path}: {error}") from error
    return results


def rule_for(tolerances, benchmark, metric):
    rule = dict(tolerances.get("defaults", {}))
    per_bench = tolerances.get("benchmarks", {}).get(benchmark, {})
    rule.update(per_bench.get("_default", {}))
    rule.update(per_bench.get(metric, {}))
    rule.setdefault("direction", "lower_is_better")
    rule.setdefault("max_regression_pct", None)
    rule.setdefault("required", False)
    return rule


def compare_metric(metric, base, new, rule):
    """Return a list of failure strings (empty = within tolerance)."""
    failures = []
    if rule.get("min_value") is not None and new < rule["min_value"]:
        failures.append(
            f"{metric}: value {new:g} below hard floor {rule['min_value']:g}")
    if rule.get("max_value") is not None and new > rule["max_value"]:
        failures.append(
            f"{metric}: value {new:g} above hard ceiling {rule['max_value']:g}")
    pct_band = rule["max_regression_pct"]
    if pct_band is not None and base > 0:
        if rule["direction"] == "higher_is_better":
            regression_pct = (base - new) / base * 100.0
        else:
            regression_pct = (new - base) / base * 100.0
        if regression_pct > pct_band:
            failures.append(
                f"{metric}: {base:g} -> {new:g} is a "
                f"{regression_pct:.1f}% regression "
                f"({rule['direction']}, band {pct_band:g}%)")
    return failures


def compare(baselines, results, tolerances, log=print):
    """Compare result sets; returns (failures, warnings) string lists."""
    failures, warnings = [], []
    for stem, baseline in sorted(baselines.items()):
        result = results.get(stem)
        if result is None:
            warnings.append(f"{stem}: no result file (bench not run?)")
            continue
        base_build = baseline["meta"].get("build_type")
        new_build = result["meta"].get("build_type")
        if base_build and new_build and base_build != new_build:
            failures.append(
                f"{stem}: refusing to compare build_type={new_build} "
                f"against a {base_build} baseline")
            continue
        checked = 0
        for metric, base_value in sorted(baseline["metrics"].items()):
            rule = rule_for(tolerances, baseline["benchmark"], metric)
            if metric not in result["metrics"]:
                message = f"{stem}: metric {metric} missing from results"
                (failures if rule["required"] else warnings).append(message)
                continue
            problems = compare_metric(metric, base_value,
                                      result["metrics"][metric], rule)
            failures.extend(f"{stem}: {p}" for p in problems)
            checked += 1
        for metric in sorted(set(result["metrics"]) - set(baseline["metrics"])):
            warnings.append(
                f"{stem}: new metric {metric} not in baseline "
                f"(run --update to adopt it)")
        log(f"  {stem}: {checked} metric(s) checked")
    for stem in sorted(set(results) - set(baselines)):
        warnings.append(
            f"{stem}: result has no baseline (run --update to adopt it)")
    return failures, warnings


def write_baselines(results, baseline_dir):
    baseline_dir = pathlib.Path(baseline_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for stem, result in sorted(results.items()):
        path = baseline_dir / f"{stem}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {path} ({len(result['metrics'])} metric(s))")


def perturb(value, rule):
    """A value that must violate `rule`, or None if the rule cannot fail."""
    band = rule["max_regression_pct"]
    if band is not None and value > 0:
        factor = (band + 50.0) / 100.0
        if rule["direction"] == "higher_is_better":
            return value * max(1.0 - factor, 0.0) - 1e-9
        return value * (1.0 + factor)
    if rule.get("max_value") is not None:
        return rule["max_value"] + max(abs(rule["max_value"]), 1.0)
    if rule.get("min_value") is not None:
        return rule["min_value"] - max(abs(rule["min_value"]), 1.0)
    return None


def self_test(baselines, tolerances):
    """Perturb every checkable metric beyond tolerance; the gate must
    notice each one, and the unperturbed comparison must stay green."""
    clean_failures, _ = compare(baselines, copy.deepcopy(baselines),
                                tolerances, log=lambda *_: None)
    holes = []
    if clean_failures:
        holes.append("identity comparison is not clean: " +
                     "; ".join(clean_failures))
    tested = 0
    for stem, baseline in sorted(baselines.items()):
        for metric, value in sorted(baseline["metrics"].items()):
            rule = rule_for(tolerances, baseline["benchmark"], metric)
            bad_value = perturb(value, rule)
            if bad_value is None:
                continue  # metric has no band at all — nothing to enforce
            perturbed = copy.deepcopy(baselines)
            perturbed[stem]["metrics"][metric] = bad_value
            failures, _ = compare(baselines, perturbed, tolerances,
                                  log=lambda *_: None)
            tested += 1
            if not any(metric in failure for failure in failures):
                holes.append(
                    f"{stem}/{metric}: perturbation {value:g} -> "
                    f"{bad_value:g} was NOT caught")
    print(f"self-test: {tested} perturbation(s) injected across "
          f"{len(baselines)} baseline file(s)")
    if tested == 0:
        holes.append("no metric had an enforceable tolerance band")
    for hole in holes:
        print(f"  HOLE: {hole}")
    return not holes


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    parser.add_argument("--results", default="bench-results",
                        help="directory of fresh bench JSON (default: "
                             "bench-results)")
    parser.add_argument("--baselines", default=str(repo_root / "bench/baselines"),
                        help="directory of committed baselines")
    parser.add_argument("--tolerances", default=None,
                        help="tolerance file (default: "
                             "<baselines>/tolerances.json)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from --results instead of "
                             "checking")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches out-of-band "
                             "perturbations of every baseline metric")
    args = parser.parse_args()

    tolerance_path = pathlib.Path(
        args.tolerances or pathlib.Path(args.baselines) / "tolerances.json")
    try:
        tolerances = load_json(tolerance_path) if tolerance_path.exists() else {}
        baselines = (load_dir(args.baselines)
                     if pathlib.Path(args.baselines).is_dir() else {})
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.self_test:
        if not baselines:
            print(f"error: no baselines in {args.baselines}", file=sys.stderr)
            return 2
        return 0 if self_test(baselines, tolerances) else 1

    try:
        results = load_dir(args.results)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not results:
        print(f"error: no result JSON in {args.results}", file=sys.stderr)
        return 2

    if args.update:
        write_baselines(results, args.baselines)
        return 0

    if not baselines:
        print(f"error: no baselines in {args.baselines}; run with --update "
              f"to create them", file=sys.stderr)
        return 2
    print(f"comparing {len(results)} result file(s) against "
          f"{len(baselines)} baseline(s):")
    failures, warnings = compare(baselines, results, tolerances)
    for warning in warnings:
        print(f"warning: {warning}")
    if failures:
        print(f"\n{len(failures)} regression(s) outside tolerance:")
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print("all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
