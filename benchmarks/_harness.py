"""Shared plumbing for the benchmark suite.

Every bench regenerates one exhibit (the paper's Figure 1 / Table 1, or
an extension experiment from DESIGN.md) through exactly one entry
point, its pytest test, and must leave a human-readable artifact
behind: :func:`report` prints the exhibit and also writes it to
``benchmarks/results/<name>.txt`` so the output survives pytest's
capture. Each results file is stamped with the command line and git
revision that produced it, so an exhibit always says how to regenerate
it. Exhibits are run output, not source: git ignores them and CI
uploads ``benchmarks/results/`` as an artifact.

One size switch, the ``PIER_BENCH_SCALE`` environment variable, picks
every bench's geometry: unset, the gated exhibits run their CI-sized
pass and the others a tens-of-seconds default; ``=full`` runs the
gated exhibits at full size and the others at paper scale (e.g. the
300-node, 30-minute Figure 1 run).

A gated bench starts with :func:`begin` and ends with :func:`report`
given its headline numbers, which are also written as machine-readable
JSON (:func:`write_metrics`): ``benchmarks/results/<name>.json`` with
the command line, git revision, scale and a flat ``{metric: value}``
dict. ``tools/check_bench.py`` compares those files against the
checked-in baselines in ``benchmarks/baselines/`` -- parity booleans
must match exactly, ratio metrics within a tolerance band -- which is
the CI benchmark-regression gate.
"""

import json
import os
import pathlib
import subprocess
import sys

from benchmarks.perf.reference import RowLog

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def full_scale():
    """True when ``PIER_BENCH_SCALE=full`` asks for full-size runs."""
    return os.environ.get("PIER_BENCH_SCALE", "").lower() == "full"


def _git_rev():
    """Short revision of the working tree, or 'unknown' outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(pathlib.Path(__file__).parent),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def provenance():
    """Header lines recording how a results file was produced.

    Fails fast (a clear message, not a stack trace) outside a git
    checkout: a results file whose revision stamp reads "unknown" can
    never be regenerated, which defeats the point of stamping it. Set
    ``PIER_BENCH_ALLOW_NO_GIT=1`` to record "unknown" anyway (e.g. when
    benchmarking an exported tarball).
    """
    rev = _git_rev()
    if rev == "unknown" and not os.environ.get("PIER_BENCH_ALLOW_NO_GIT"):
        raise SystemExit(
            "benchmarks: results files are stamped with the git revision "
            "that produced them, but this does not look like a git "
            "checkout (git rev-parse failed). Run the benchmarks from a "
            "clone of the repository, or set PIER_BENCH_ALLOW_NO_GIT=1 "
            "to stamp the results file with 'unknown'."
        )
    return "# generated by: {}\n# git rev: {}\n".format(
        " ".join(sys.argv), rev
    )


def report(name, text, metrics=None):
    """Print an exhibit and persist it under benchmarks/results/.

    The persisted copy is prefixed with provenance comments (command
    line + git rev); the printed copy is the bare exhibit. Refuses to
    write an unattributable results file -- see :func:`provenance`.
    When ``metrics`` is given the headline numbers are additionally
    written as JSON (see :func:`write_metrics`) for the CI
    benchmark-regression gate.
    """
    header = provenance()  # resolve provenance (or fail) before printing
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "{}.txt".format(name)
    path.write_text(header + text + "\n", encoding="utf-8")
    if metrics is not None:
        write_metrics(name, metrics)
    return path


def begin(name):
    """A gated bench's first act: remove its own results JSON.

    ``benchmarks/results/*.json`` is git-ignored and survives from run
    to run, so a bench that died before :func:`write_metrics` would
    leave the *previous* run's numbers for ``tools/check_bench.py`` to
    bless. With the file gone the gate reports the bench as not run.
    """
    (RESULTS_DIR / "{}.json".format(name)).unlink(missing_ok=True)


def write_metrics(name, metrics):
    """Persist a bench's headline numbers as machine-readable JSON.

    ``metrics`` is a flat dict of JSON scalars: parity checks as
    booleans, counts as ints, reduction ratios as floats.
    ``tools/check_bench.py`` compares the file against the checked-in
    baseline of the same name and scale (booleans/ints exactly, floats
    within a tolerance band), so a perf regression -- or a silently
    skipped assertion -- fails CI instead of rotting quietly.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": name,
        "scale": "full" if full_scale() else "smoke",
        "generated_by": " ".join(sys.argv),
        "git_rev": _git_rev(),
        "metrics": dict(metrics),
    }
    path = RESULTS_DIR / "{}.json".format(name)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def percentile(values, q):
    """The nearest-rank ``q`` quantile of ``values`` (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def fmt_table(headers, rows):
    """Fixed-width text table."""
    widths = [len(h) for h in headers]
    rendered = [[_fmt(v) for v in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return "{:,.1f}".format(value)
    if isinstance(value, int):
        return "{:,}".format(value)
    return str(value)


def _numeric(cell):
    return cell.replace(",", "").replace(".", "").replace("-", "").isdigit()


def rate_sample(engine, i, step, base):
    """The fig1 sample: a node's base rate plus a 7-step sawtooth."""
    return (base + (step % 7),)


def ticker_net(seed, nodes, retention, table="node_stats",
               columns=(("rate_kbps", "FLOAT"),), value=rate_sample,
               period=2.0, delay=0.1):
    """A testbed whose every node appends one row to a stream table
    every ``period`` seconds, the first ``delay`` seconds in, and the
    ``RowLog`` that takes each row at the instant it is appended:
    ``log.window(table, t - W, t)`` is what an epoch closing at ``t``
    over ``W`` seconds must read, the one ground truth of every
    ticker-fed exhibit.

    The row is ``value(engine, i, step, base)`` for the ``i``-th node's
    ``step``-th tick (from 1); ``base`` is that node's draw, in
    address order, from the testbed's ``rates`` stream, 10 to 100.
    """
    from repro.core.network import PierNetwork

    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table(table, list(columns), window=retention)
    rng = net.rng.fork("rates")
    log = RowLog()

    def ticker(address, i, base):
        step = [0]

        def tick():
            engine = net.node(address).engine
            step[0] += 1
            row = value(engine, i, step[0], base)
            engine.stream_append(table, row)
            log.add(engine.clock.now, address, table, [row])
            engine.set_timer(period, tick)

        return tick

    for i, address in enumerate(net.addresses()):
        tick = ticker(address, i, 10.0 + 90.0 * rng.random())
        net.node(address).engine.set_timer(delay, tick)
    return net, log
