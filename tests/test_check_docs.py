"""The docs gate's stale-name check (tools/check_docs.py), on a tmp
tree: a back-ticked name must exist where the docs say it does."""

import importlib.util
import pathlib

import pytest

_TOOL = (pathlib.Path(__file__).resolve().parent.parent
         / "tools" / "check_docs.py")


def _load_module():
    spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cd(tmp_path, monkeypatch):
    """The tool module, pointed at a tmp repo with only a README."""
    module = _load_module()
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(module, "NAME_FILES", ["README.md"])
    return module


def test_stale_names_fail_and_live_names_pass(cd, tmp_path):
    for top in cd.CODE_DIRS:
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "live.py").write_text(
        "class LiveRecord:\n    def _live_method(self):\n        pass\n\n"
        "class _LiveHost:\n    _hooks = ()\n",
        encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "rows_per_s"}]}', encoding="utf-8")
    (tmp_path / ".gitignore").write_text("tests/made_by_a_run/\n",
                                         encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "`LiveRecord` and `_LiveHost` live in `src/live.py`; see also\n"
        "`src/live.py:3`, `tests/made_by_a_run/`, `lowercase`, `PIER`,\n"
        "`LiveRecord.field` and `src/{a,b}.py`. `_live_method`,\n"
        "`LiveRecord._live_method()`, `host._hooks` and the metric\n"
        "`rows_per_s` are found; `a_phrase with_spaces`, `f(some_arg)`\n"
        "and `q|some_key|` are not identifiers.\n",
        encoding="utf-8")
    assert cd.check_names() == []

    (tmp_path / "README.md").write_text(
        "`LiveRecord` replaced `StaleRecord` and `_StaleHost` when\n"
        "`src/gone.py` was folded into `src/live.py`; `_stale_method`,\n"
        "`LiveRecord.stale_method()`, `host._gone` and `stale_per_s`\n"
        "went with them.\n",
        encoding="utf-8")
    assert cd.check_names() == [
        "README.md: stale name `StaleRecord`",
        "README.md: stale name `_StaleHost`",
        "README.md: stale name `_gone`",
        "README.md: stale name `_stale_method`",
        "README.md: stale name `src/gone.py`",
        "README.md: stale name `stale_method`",
        "README.md: stale name `stale_per_s`",
    ]
