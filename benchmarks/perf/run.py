"""The repo's performance benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py [--seed N] [--workload NAME] [--repeats R]
                                   [--trace [0|1]] [--out FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json

Metric names, units, directions and bounds live in ``BENCHMARK.json``
at the repo root; workloads in ``workloads.py``; the reference every
answer is checked against in ``reference.py``; the layer trace in
``trace.py``. README.md is the glossary.

Each repeat of a workload is one fresh single-threaded subprocess
(``PYTHONHASHSEED=0``, ``gc.collect()`` before the measured phase, GC
left on), run one after another. A workload is repeated until its
repeats -- set-up, measured phase and check -- have taken ``--seconds``
of wall time (at least ``MIN_REPEATS`` times, unless that alone passes
``SLOW_MACHINE_S``), or exactly ``--repeats`` times; reported values
are medians over repeats. End-to-end metrics come from untraced
repeats (``--trace 0``), per-layer metrics from traced ones
(``--trace 1``); with ``--trace`` left out both rounds run. With
several workloads the order rotates from round to round, so machine
drift spreads evenly over them.

The last line of standard output is one JSON object. For one workload
in one mode it is ``{"correct", "attempted", "failed", "metrics"}``;
otherwise it is the whole document that ``--out`` also writes and
``--compare`` reads.
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MIN_REPEATS = 3
# A run that has taken this long starts no further repeat, whatever it
# still owes: on a machine several times slower than the one the
# geometries were sized on, it then ends well inside the driver's 180 s.
SLOW_MACHINE_S = 60.0
SETUPS = 5  # set-ups per repeat; setup_s is their median
# Exact functions of (code, seed): equal on every repeat, or the run is
# not deterministic and is reported as incorrect.
SIMULATED = ("result_lag_p50_sim_s", "result_lag_max_sim_s",
             "result_completeness", "wire_bytes_per_row")


def spec():
    """BENCHMARK.json: the names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One repeat, in its own process
# ----------------------------------------------------------------------
def snapshot(net):
    """Counters the program keeps, read where a user would read them."""
    engines = [node.engine for node in net.nodes.values()]
    counters = dict(net.message_counters())
    counters["events_fired"] = net.clock.events_fired
    counters["events_pending"] = net.clock.pending
    counters["rows_scanned"] = sum(e.rows_scanned for e in engines)
    counters["ring_late_drops"] = sum(e.ring_late_drops for e in engines)
    return counters


def one_repeat(name, seed, geometry, traced):
    """Set up, measure and check one workload once; returns raw figures."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import reference
    import trace
    from workloads import WORKLOADS as classes

    tracer = trace.Tracer().install() if traced else None
    try:
        setups = []
        for _ in range(SETUPS):
            started = perf_counter()
            workload = classes[name](
                seed, geometry, **({"span": tracer.wrap} if traced else {}))
            workload.setup()
            setups.append(perf_counter() - started)
        net, log = workload.net, workload.log
        gc.collect()
        before, rows, sim = snapshot(net), log.rows, net.now
        if traced:
            tracer.start()
        started = perf_counter()
        workload.measure()
        if traced:
            tracer.stop()
    finally:
        if traced:
            tracer.uninstall()
    # Wall time of each marked stretch (see Workload.advance).
    marks = [started] + workload.marks
    stretches = [b - a for a, b in zip(marks, marks[1:])]
    wall = marks[-1] - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = snapshot(net)
    delta = {k: after[k] - before.get(k, 0) for k in after}
    work = {"sim_s": net.now - sim, "rows": log.rows - rows}
    verdict = reference.check(workload.expected(), workload.results)
    lags = sorted(verdict["lags"])
    out = {
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "wall_s": wall,
        "stretches": stretches,
        "work": work,
        "lag_samples": len(lags),
        "metrics": {
            "setup_s": statistics.median(setups),
            "sim_s_per_wall_s": work["sim_s"] / wall,
            "rows_per_s": work["rows"] / wall,
            "peak_rss_mb": peak_kb / 1024.0,
            "result_lag_p50_sim_s": statistics.median(lags),
            "result_lag_max_sim_s": lags[-1],
            "result_completeness": verdict["completeness"],
            "wire_bytes_per_row": delta["bytes_sent"] / work["rows"],
        },
    }
    if traced:
        out["metrics"] = trace.layer_metrics(tracer, delta)
    return out


def spawn(name, seed, geometry, traced):
    """Run :func:`one_repeat` in a fresh interpreter and wait for it."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--one-repeat",
         "--workload", name, "--seed", str(seed), "--geometry", geometry,
         "--trace", str(int(traced))],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        sys.exit("run.py: {} (seed {}) exited with {}".format(
            name, seed, done.returncode))
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Rounds of repeats, medians
# ----------------------------------------------------------------------
def run_round(names, seed, geometry, traced, seconds, repeats, spent):
    """Repeat every workload to its quota; returns name -> [repeat].

    ``spent`` is name -> wall seconds its repeats have taken so far,
    everything included; it carries over from round to round.
    """
    done = {name: [] for name in names}

    def owes(name):
        if repeats is not None:
            return len(done[name]) < repeats
        if done[name] and spent[name] >= SLOW_MACHINE_S:
            return False
        return len(done[name]) < MIN_REPEATS or spent[name] < seconds

    turn = 0
    while any(owes(name) for name in names):
        shift = turn % len(names)
        for name in names[shift:] + names[:shift]:
            if owes(name):
                started = perf_counter()
                done[name].append(spawn(name, seed, geometry, traced))
                spent[name] += perf_counter() - started
        turn += 1
    return done


def summarize(name, plain, traced, trace_mode, specs):
    """One workload's verdict, its value for each of ``specs`` (medians
    over repeats), and the per-repeat samples ``--compare`` reads."""
    samples = {}
    for repeat in (plain if trace_mode != 1 else []) + traced:
        for metric, value in repeat["metrics"].items():
            samples.setdefault(metric, []).append(value)
    if traced:
        base = statistics.median(r["wall_s"] for r in plain)
        samples["bench.trace_overhead"] = [r["wall_s"] / base for r in traced]
    missing = [s["name"] for s in specs if s["name"] not in samples]
    if missing:
        sys.exit("run.py: {} did not produce {}".format(
            name, ", ".join(missing)))
    values = {s["name"]: statistics.median(samples[s["name"]]) for s in specs}
    if trace_mode != 1:
        # A repeat does the same work in the same stretches every time,
        # and a busy neighbour only ever slows it: each stretch's
        # fastest repeat is the wall time of an undisturbed machine.
        wall = sum(map(min, zip(*(r["stretches"] for r in plain))))
        values["sim_s_per_wall_s"] = plain[0]["work"]["sim_s"] / wall
        values["rows_per_s"] = plain[0]["work"]["rows"] / wall
    repeats = plain + traced
    failed = sum(r["failed"] for r in repeats)
    deterministic = all(
        len(set(samples[m])) == 1 for m in SIMULATED if m in samples)
    return {
        "correct": failed == 0 and deterministic,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": failed,
        "repeats": len(repeats),
        "lag_samples": repeats[0]["lag_samples"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
        "samples": samples,
    }


def measure(names, seed, trace_mode, seconds, repeats, geometry="full"):
    """The whole document: meta, then one :func:`summarize` per workload.

    ``trace_mode`` 0 runs untraced repeats to the quota, 1 runs traced
    repeats to the quota after one untraced repeat (the denominator of
    ``bench.trace_overhead``), None runs the untraced quota and then
    one traced repeat.
    """
    quota, once = (seconds, repeats), (0, 1)
    spent = dict.fromkeys(names, 0.0)
    plain = run_round(names, seed, geometry, False,
                      *(once if trace_mode == 1 else quota), spent)
    traced = {name: [] for name in names}
    if trace_mode != 0:
        traced = run_round(names, seed, geometry, True,
                           *(quota if trace_mode == 1 else once), spent)
    kinds = {0: ["end_to_end"], 1: ["per_layer"]}.get(
        trace_mode, ["end_to_end", "per_layer"])
    specs = [s for kind in kinds for s in spec()[kind]]
    return {
        "meta": meta(seed),
        "workloads": {
            name: summarize(name, plain[name], traced[name], trace_mode, specs)
            for name in names},
    }


def meta(seed):
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    return {
        "git_rev": rev or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def print_table(document):
    for name, entry in document["workloads"].items():
        print("{}: {} repeats, {} attempted, {} failed, {}".format(
            name, entry["repeats"], entry["attempted"], entry["failed"],
            "correct" if entry["correct"] else "INCORRECT"))
        for metric, cell in entry["metrics"].items():
            note = ""
            if metric.startswith("result_lag"):
                note = "  ({} samples)".format(entry["lag_samples"])
            print("  {:<36} {:>16.6g} {}{}".format(
                metric, cell["value"], cell["unit"], note))


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def spread(values):
    """Interquartile range over the median, 0 for fewer than 2 values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(base_path, new_path):
    """Table of base, new, ratio, bound and verdict; 1 if any is worse.

    ``worse``: the new median is worse than the base median by more
    than the metric's bound. ``unresolved``: it is not, but either
    side's repeats spread wider than the bound, so "no change" cannot
    be told from noise.
    """
    base = json.loads(pathlib.Path(base_path).read_text())["workloads"]
    new = json.loads(pathlib.Path(new_path).read_text())["workloads"]
    end_to_end = spec()["end_to_end"]
    worse = 0
    print("{:<14}{:<26}{:>14}{:>14}{:>9}{:>8}  {}".format(
        "workload", "metric", "base", "new", "new/base", "bound", "verdict"))
    for name in base:
        if name not in new:
            continue
        for bounds in end_to_end:
            metric = bounds["name"]
            if (metric not in base[name]["metrics"]
                    or metric not in new[name]["metrics"]):
                continue
            a = base[name]["metrics"][metric]["value"]
            b = new[name]["metrics"][metric]["value"]
            loss = (b - a) / a if bounds["better"] == "lower" else (a - b) / a
            noise = max(spread(base[name]["samples"][metric]),
                        spread(new[name]["samples"][metric]))
            if loss > bounds["bound"]:
                verdict = "worse"
                worse += 1
            elif noise > bounds["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("{:<14}{:<26}{:>14.6g}{:>14.6g}{:>9.4f}{:>8}  {}".format(
                name, metric, a, b, b / a, bounds["bound"], verdict))
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv=None):
    benchmark = spec()
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--geometry", choices=("full", "tiny"), default="full",
                        help="tiny is for test_perf.py, not for numbers")
    parser.add_argument("--one-repeat", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("run.py: no program to measure: {} is missing".format(
            ROOT / "src" / "repro"))
    if args.one_repeat:
        print(json.dumps(one_repeat(
            args.workload, args.seed, args.geometry, bool(args.trace))))
        return 0
    names = [args.workload] if args.workload else workloads
    document = measure(names, args.seed, args.trace, args.seconds,
                       args.repeats, args.geometry)
    print_table(document)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    if args.workload and args.trace is not None:
        entry = document["workloads"][args.workload]
        document = {k: entry[k]
                    for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
