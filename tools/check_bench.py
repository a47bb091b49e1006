"""Benchmark-regression gate: compare results against checked-in baselines.

Every gated benchmark run writes its headline numbers as JSON under
``benchmarks/results/<name>.json`` (see ``benchmarks/_harness.py``:
``write_metrics``). This tool compares each checked-in baseline in
``benchmarks/baselines/`` against the results file of the same name:

* ``exact`` metrics (parity booleans, counts) must match exactly --
  a parity check that stops holding is a correctness regression, not
  noise;
* ``ratio`` metrics (reduction factors, error magnitudes) must land
  within a relative tolerance band (default +/- 20%) of the recorded
  value, so a real perf regression fails CI while cross-version float
  jitter does not.

A baseline with no matching results file fails the gate (the bench
silently stopped running), as does a results file at a different
scale than its baseline (smoke numbers are only comparable to smoke
baselines).

Usage::

    python tools/check_bench.py             # gate (CI runs this)
    python tools/check_bench.py --record    # (re)write baselines
    python tools/check_bench.py --tolerance 0.25

``--record`` snapshots the current results as the new baselines,
inferring each metric's kind: bools, ints and strings record as
``exact``, floats as ``ratio``. Re-record whenever a bench's headline
legitimately moves (and say why in the commit).
"""

import argparse
import json
import os
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO / "benchmarks" / "results"
BASELINES_DIR = REPO / "benchmarks" / "baselines"
DEFAULT_TOLERANCE = 0.20


def _rel(path):
    """Repo-relative path for messages; absolute when outside the repo
    (e.g. dirs monkeypatched to a tmp sandbox in tests)."""
    try:
        return path.relative_to(REPO)
    except ValueError:
        return path


def _load(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit("check_bench: cannot read {}: {}".format(path, exc))


def _kind_for(value):
    """Baseline kind inferred at record time."""
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return "exact"
    if isinstance(value, float):
        return "ratio"
    raise SystemExit(
        "check_bench: metric value {!r} is not a JSON scalar".format(value)
    )


def record(tolerance):
    BASELINES_DIR.mkdir(parents=True, exist_ok=True)
    results = sorted(RESULTS_DIR.glob("*.json"))
    if not results:
        raise SystemExit(
            "check_bench: no results to record -- run the benchmarks "
            "first (PYTHONPATH=src python -m pytest benchmarks/bench_*.py)"
        )
    for path in results:
        payload = _load(path)
        baseline = {
            "bench": payload["bench"],
            "scale": payload.get("scale", "smoke"),
            "tolerance": tolerance,
            "metrics": {
                key: {"kind": _kind_for(value), "value": value}
                for key, value in sorted(payload["metrics"].items())
            },
        }
        out = BASELINES_DIR / path.name
        out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print("recorded {} ({} metrics)".format(
            _rel(out), len(baseline["metrics"])))
    return 0


def _check_metric(key, spec, got, tolerance, failures):
    kind = spec["kind"]
    want = spec["value"]
    if got is None:
        failures.append("{}: missing from results".format(key))
        return "MISSING"
    if kind == "exact":
        ok = got == want
        verdict = "ok" if ok else "FAIL"
        if not ok:
            failures.append("{}: expected exactly {!r}, got {!r}".format(
                key, want, got))
        return verdict
    # ratio: relative band around the recorded value; a zero baseline
    # degrades to an absolute band of the tolerance itself.
    span = abs(want) * tolerance if want else tolerance
    ok = abs(got - want) <= span
    if not ok:
        failures.append(
            "{}: {} outside [{:.4f}, {:.4f}] (baseline {} +/- {:.0f}%)"
            .format(key, got, want - span, want + span, want,
                    100 * tolerance)
        )
    return "ok" if ok else "FAIL"


def _band_for(spec, tolerance):
    """Human-readable band column for the drift table."""
    if spec["kind"] == "exact":
        return "exact"
    want = spec["value"]
    span = abs(want) * tolerance if want else tolerance
    return "[{:.4f}, {:.4f}]".format(want - span, want + span)


def _write_step_summary(rows, failures):
    """Append the per-metric drift table to ``$GITHUB_STEP_SUMMARY``.

    GitHub renders the file as markdown on the Actions run page, so a
    failed gate shows *which* metric drifted and by how much without
    digging through the job log. A no-op outside Actions (or when the
    variable is unset), so local runs are unaffected.
    """
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = ["## Benchmark drift", ""]
    lines.append("| bench | metric | measured | baseline | band | verdict |")
    lines.append("| --- | --- | --- | --- | --- | --- |")
    for bench, metric, got, want, band, verdict in rows:
        mark = {"ok": ":white_check_mark:"}.get(verdict, ":x:")
        lines.append("| {} | {} | {} | {} | {} | {} {} |".format(
            bench, metric, got, want, band, mark, verdict))
    lines.append("")
    if failures:
        lines.append("**check_bench: {} failure(s)** -- re-record with "
                     "`python tools/check_bench.py --record` if "
                     "intentional.".format(len(failures)))
    else:
        lines.append("**check_bench: all baselines hold**")
    lines.append("")
    with open(summary_path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check(tolerance_override=None):
    baselines = sorted(BASELINES_DIR.glob("*.json"))
    if not baselines:
        raise SystemExit(
            "check_bench: no baselines under {} -- record them with "
            "--record".format(_rel(BASELINES_DIR))
        )
    failures = []
    rows = []  # (bench, metric, measured, baseline, band, verdict)
    for path in baselines:
        baseline = _load(path)
        name = baseline["bench"]
        tolerance = (tolerance_override
                     if tolerance_override is not None
                     else baseline.get("tolerance", DEFAULT_TOLERANCE))
        result_path = RESULTS_DIR / path.name
        if not result_path.exists():
            failures.append("{}: no results file -- did the bench run?"
                            .format(name))
            print("{:<24} MISSING ({} not written)".format(
                name, _rel(result_path)))
            rows.append((name, "(all)", "-", "-", "-", "NO RESULTS"))
            continue
        results = _load(result_path)
        if results.get("scale") != baseline.get("scale"):
            failures.append(
                "{}: scale mismatch (baseline {}, results {})".format(
                    name, baseline.get("scale"), results.get("scale"))
            )
            rows.append((name, "(all)", str(results.get("scale")),
                         str(baseline.get("scale")), "-", "SCALE MISMATCH"))
            continue
        got_metrics = results.get("metrics", {})
        before = len(failures)
        for key, spec in sorted(baseline["metrics"].items()):
            verdict = _check_metric(key, spec, got_metrics.get(key),
                                    tolerance, failures)
            print("{:<24} {:<32} {:>12} (baseline {}) {}".format(
                name, key, _fmt(got_metrics.get(key)), _fmt(spec["value"]),
                verdict))
            rows.append((name, key, _fmt(got_metrics.get(key)),
                         _fmt(spec["value"]), _band_for(spec, tolerance),
                         verdict))
        if len(failures) == before:
            extra = sorted(set(got_metrics) - set(baseline["metrics"]))
            if extra:
                print("{:<24} note: unbaselined metrics {}".format(
                    name, ", ".join(extra)))
    _write_step_summary(rows, failures)
    if failures:
        print("\ncheck_bench: {} failure(s):".format(len(failures)))
        for failure in failures:
            print("  - " + failure)
        print("\nIf the change is intentional, re-record with "
              "`python tools/check_bench.py --record` and commit the "
              "baselines with an explanation.")
        return 1
    print("\ncheck_bench: all baselines hold")
    return 0


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "{:.4f}".format(value)
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", action="store_true",
                        help="snapshot current results as the baselines")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="relative band for ratio metrics "
                             "(default: per-baseline, {} when recording)"
                        .format(DEFAULT_TOLERANCE))
    args = parser.parse_args(argv)
    if args.record:
        return record(args.tolerance if args.tolerance is not None
                      else DEFAULT_TOLERANCE)
    return check(args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
