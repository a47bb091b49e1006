"""Unit tests for the benchmark-regression gate (tools/check_bench.py).

The gate is CI's last line of defense against a benchmark silently
regressing (or silently not running), so its own semantics -- exact
parity, the +/- tolerance band edges, missing metrics/results, scale
mismatch, --record kind inference, and the step-summary drift table --
get pinned here with real files under a tmp dir.
"""

import importlib.util
import json
import pathlib

import pytest

_TOOL = (pathlib.Path(__file__).resolve().parent.parent
         / "tools" / "check_bench.py")


_HARNESS = _TOOL.parent.parent / "benchmarks" / "_harness.py"


def _load_module(path=_TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cb(tmp_path, monkeypatch):
    """The tool module with its dirs pointed at a tmp sandbox."""
    module = _load_module()
    results = tmp_path / "results"
    baselines = tmp_path / "baselines"
    results.mkdir()
    baselines.mkdir()
    monkeypatch.setattr(module, "RESULTS_DIR", results)
    monkeypatch.setattr(module, "BASELINES_DIR", baselines)
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    return module


def _write_result(cb, name, metrics, scale="smoke"):
    path = cb.RESULTS_DIR / "{}.json".format(name)
    path.write_text(json.dumps(
        {"bench": name, "scale": scale, "metrics": metrics}),
        encoding="utf-8")
    return path


def _write_baseline(cb, name, metrics, scale="smoke", tolerance=0.20):
    """metrics: {key: (kind, value)}."""
    path = cb.BASELINES_DIR / "{}.json".format(name)
    path.write_text(json.dumps({
        "bench": name,
        "scale": scale,
        "tolerance": tolerance,
        "metrics": {k: {"kind": kind, "value": value}
                    for k, (kind, value) in metrics.items()},
    }), encoding="utf-8")
    return path


class TestExactMetrics:
    def test_exact_match_passes(self, cb):
        _write_baseline(cb, "b", {"parity": ("exact", True),
                                  "rows": ("exact", 42)})
        _write_result(cb, "b", {"parity": True, "rows": 42})
        assert cb.check() == 0

    def test_exact_mismatch_fails(self, cb):
        _write_baseline(cb, "b", {"parity": ("exact", True)})
        _write_result(cb, "b", {"parity": False})
        assert cb.check() == 1

    def test_exact_int_off_by_one_fails(self, cb):
        # No band for exact metrics -- a count that moved is a
        # correctness regression, not noise.
        _write_baseline(cb, "b", {"rows": ("exact", 42)})
        _write_result(cb, "b", {"rows": 43})
        assert cb.check() == 1

    def test_exact_string_compares_exactly(self, cb):
        _write_baseline(cb, "b", {"mode": ("exact", "adaptive")})
        _write_result(cb, "b", {"mode": "adaptive"})
        assert cb.check() == 0


class TestRatioBand:
    def test_just_inside_the_band_passes(self, cb):
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0)})
        _write_result(cb, "b", {"speedup": 12.0})  # exactly +20%
        assert cb.check() == 0
        _write_result(cb, "b", {"speedup": 8.0})   # exactly -20%
        assert cb.check() == 0

    def test_just_outside_the_band_fails(self, cb):
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0)})
        _write_result(cb, "b", {"speedup": 12.01})
        assert cb.check() == 1
        _write_result(cb, "b", {"speedup": 7.99})
        assert cb.check() == 1

    def test_zero_baseline_uses_absolute_band(self, cb):
        # A relative band around 0 would be empty; the gate degrades
        # to an absolute band of the tolerance itself.
        _write_baseline(cb, "b", {"err": ("ratio", 0.0)})
        _write_result(cb, "b", {"err": 0.15})
        assert cb.check() == 0
        _write_result(cb, "b", {"err": 0.25})
        assert cb.check() == 1

    def test_tolerance_override_widens_the_band(self, cb):
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0)})
        _write_result(cb, "b", {"speedup": 13.0})
        assert cb.check() == 1
        assert cb.check(tolerance_override=0.35) == 0

    def test_per_baseline_tolerance_is_respected(self, cb):
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0)},
                        tolerance=0.50)
        _write_result(cb, "b", {"speedup": 14.0})
        assert cb.check() == 0


class TestMissing:
    def test_missing_metric_fails(self, cb):
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0),
                                  "gone": ("exact", 1)})
        _write_result(cb, "b", {"speedup": 10.0})
        assert cb.check() == 1

    def test_missing_results_file_fails(self, cb):
        # A baseline whose bench stopped writing results means the
        # bench silently stopped running -- that must fail the gate.
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0)})
        assert cb.check() == 1

    def test_no_baselines_at_all_aborts(self, cb):
        with pytest.raises(SystemExit):
            cb.check()

    def test_scale_mismatch_fails(self, cb):
        _write_baseline(cb, "b", {"rows": ("exact", 1)}, scale="smoke")
        _write_result(cb, "b", {"rows": 1}, scale="full")
        assert cb.check() == 1

    def test_unbaselined_extra_metric_is_not_a_failure(self, cb):
        _write_baseline(cb, "b", {"rows": ("exact", 1)})
        _write_result(cb, "b", {"rows": 1, "new_metric": 99.0})
        assert cb.check() == 0


class TestStaleResults:
    def test_a_bench_that_dies_leaves_nothing_for_the_gate_to_bless(
            self, cb, monkeypatch):
        # Results JSON is git-ignored and outlives the run that wrote
        # it; a bench removes its own as its first act.
        harness = _load_module(_HARNESS)
        monkeypatch.setattr(harness, "RESULTS_DIR", cb.RESULTS_DIR)
        _write_baseline(cb, "b", {"parity": ("exact", True)})
        _write_result(cb, "b", {"parity": True})  # the previous run's
        assert cb.check() == 0
        harness.begin("b")  # ...and the bench dies before write_metrics
        assert cb.check() == 1
        harness.begin("b")  # nothing to remove is not an error
        harness.write_metrics("b", {"parity": True}, scale="smoke")
        assert cb.check() == 0


class TestRecord:
    def test_record_infers_kinds(self, cb):
        _write_result(cb, "b", {"parity": True, "rows": 42,
                                "mode": "x", "speedup": 1.5})
        assert cb.record(0.20) == 0
        recorded = json.loads(
            (cb.BASELINES_DIR / "b.json").read_text(encoding="utf-8"))
        kinds = {k: v["kind"] for k, v in recorded["metrics"].items()}
        assert kinds == {"parity": "exact", "rows": "exact",
                         "mode": "exact", "speedup": "ratio"}
        assert recorded["tolerance"] == 0.20
        assert recorded["scale"] == "smoke"

    def test_record_then_check_roundtrips(self, cb):
        _write_result(cb, "b", {"parity": True, "speedup": 1.5})
        assert cb.record(0.20) == 0
        assert cb.check() == 0

    def test_record_with_no_results_aborts(self, cb):
        with pytest.raises(SystemExit):
            cb.record(0.20)

    def test_record_rejects_non_scalar_metric(self, cb):
        _write_result(cb, "b", {"bad": [1, 2]})
        with pytest.raises(SystemExit):
            cb.record(0.20)

    def test_main_record_flag(self, cb):
        _write_result(cb, "b", {"speedup": 1.5})
        assert cb.main(["--record"]) == 0
        assert (cb.BASELINES_DIR / "b.json").exists()
        assert cb.main([]) == 0
        assert cb.main(["--tolerance", "0.01"]) == 0  # 1.5 == 1.5 exactly


class TestStepSummary:
    def _summary(self, cb, tmp_path, monkeypatch):
        out = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(out))
        return out

    def test_drift_table_written_on_pass(self, cb, tmp_path, monkeypatch):
        out = self._summary(cb, tmp_path, monkeypatch)
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0),
                                  "parity": ("exact", True)})
        _write_result(cb, "b", {"speedup": 10.5, "parity": True})
        assert cb.check() == 0
        text = out.read_text(encoding="utf-8")
        assert "| bench | metric | measured | baseline | band | verdict |" \
            in text
        assert "| b | parity | True | True | exact |" in text
        # Ratio rows carry the concrete accept band.
        assert "| b | speedup | 10.5000 | 10.0000 | [8.0000, 12.0000] |" \
            in text
        assert "all baselines hold" in text

    def test_drift_table_marks_failures(self, cb, tmp_path, monkeypatch):
        out = self._summary(cb, tmp_path, monkeypatch)
        _write_baseline(cb, "b", {"speedup": ("ratio", 10.0)})
        _write_result(cb, "b", {"speedup": 20.0})
        assert cb.check() == 1
        text = out.read_text(encoding="utf-8")
        assert "FAIL" in text
        assert "1 failure(s)" in text

    def test_missing_results_appear_in_table(self, cb, tmp_path,
                                             monkeypatch):
        out = self._summary(cb, tmp_path, monkeypatch)
        _write_baseline(cb, "gone", {"x": ("exact", 1)})
        assert cb.check() == 1
        assert "NO RESULTS" in out.read_text(encoding="utf-8")

    def test_scale_mismatch_appears_in_table(self, cb, tmp_path,
                                             monkeypatch):
        out = self._summary(cb, tmp_path, monkeypatch)
        _write_baseline(cb, "b", {"x": ("exact", 1)}, scale="smoke")
        _write_result(cb, "b", {"x": 1}, scale="full")
        assert cb.check() == 1
        assert "SCALE MISMATCH" in out.read_text(encoding="utf-8")

    def test_summary_appends_not_truncates(self, cb, tmp_path,
                                           monkeypatch):
        # Other steps of the same job share the file; don't clobber.
        out = self._summary(cb, tmp_path, monkeypatch)
        out.write_text("## Earlier step\n", encoding="utf-8")
        _write_baseline(cb, "b", {"x": ("exact", 1)})
        _write_result(cb, "b", {"x": 1})
        assert cb.check() == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("## Earlier step")
        assert "## Benchmark drift" in text

    def test_no_env_var_writes_nothing(self, cb, tmp_path):
        _write_baseline(cb, "b", {"x": ("exact", 1)})
        _write_result(cb, "b", {"x": 1})
        assert cb.check() == 0
        assert not (tmp_path / "summary.md").exists()
