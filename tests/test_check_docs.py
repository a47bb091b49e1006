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


def test_ticked_directory_of_ignored_output_is_generated(cd, tmp_path):
    # A fresh checkout has no such directory: git ignores every file a
    # run writes there, so the directory itself is never committed.
    for top in cd.CODE_DIRS:
        (tmp_path / top).mkdir()
    (tmp_path / "BENCHMARK.json").write_text("{}", encoding="utf-8")
    (tmp_path / ".gitignore").write_text(
        "benchmarks/results/*.json\nbenchmarks/results/*.txt\n",
        encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "Benches write to `benchmarks/results/`, uploaded from\n"
        "`benchmarks/results`; `benchmarks/res/` and\n"
        "`benchmarks/results/old/` are not generated.\n",
        encoding="utf-8")
    assert cd.check_names() == [
        "README.md: stale name `benchmarks/res/`",
        "README.md: stale name `benchmarks/results/old/`",
    ]


def test_unresolved_docstring_roles_fail(cd, tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "planted_roles.py").write_text(
        '"""Resolved: :class:`Live`, :meth:`Live.run`, :meth:`run`,\n'
        ':func:`helper`, :class:`~collections.OrderedDict`,\n'
        ':mod:`collections` and :attr:`a title <Live.size>`. Not:\n'
        ':class:`Gone`, :meth:`Live.gone`, :mod:`recursion` and\n'
        ':class:`~collections.Gone`."""\n\n\n'
        "def helper():\n    pass\n\n\n"
        "class Live:\n    size = 0\n\n"
        '    def run(self):\n        """Was :meth:`stale`."""\n',
        encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    assert cd.check_roles() == [
        "src/planted_roles.py: unresolved :class:`Gone`",
        "src/planted_roles.py: unresolved :meth:`Live.gone`",
        "src/planted_roles.py: unresolved :mod:`recursion`",
        "src/planted_roles.py: unresolved :class:`~collections.Gone`",
        "src/planted_roles.py: unresolved :meth:`stale`",
    ]


def test_class_members_must_exist(cd, tmp_path):
    for top in cd.CODE_DIRS:
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "kinds.py").write_text(
        "class Base:\n    kind = 'x'\n    size: int = 0\n\n"
        "    def run(self):\n        self.state, self.runs = 1, 0\n\n\n"
        "class Live(Base):\n    def __init__(self, retain):\n"
        "        self._retain = retain\n\n\n"
        "class Foreign(dict):\n    pass\n",
        encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "`Live.run()`, `Live.kind`, `Live.size`, `Live.state`, `Live.runs`,\n"
        "`Live._retain`, `Live.__init__`, `Foreign.setdefault`, `x.Live.run`\n"
        "and `Outside.anything` pass; `Live.retain`, `Base._retain`,\n"
        "`Live.backfill()` and `see Live.gone` do not.\n",
        encoding="utf-8")
    assert cd.check_members() == [
        "README.md: `Base._retain` names no member of its class",
        "README.md: `Live.backfill` names no member of its class",
        "README.md: `Live.gone` names no member of its class",
        "README.md: `Live.retain` names no member of its class",
    ]


def test_stale_constants_and_keywords_fail(cd, tmp_path):
    for top in cd.CODE_DIRS:
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "knobs.py").write_text(
        "LIVE_CAP = 1\n\n\nclass Config:\n"
        "    def __init__(self, live_knob=False):\n"
        "        self.live_knob = live_knob\n",
        encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text("{}", encoding="utf-8")
    (tmp_path / ".gitignore").write_text("", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "`LIVE_CAP`, `Config(live_knob=True)`, `PIER` and `EVERY 5` pass;\n"
        "`GONE_CAP`, `STALE_MAX_ROWS/BYTES` and `Config(gone_knob=1)`\n"
        "do not.\n",
        encoding="utf-8")
    assert cd.check_names() == [
        "README.md: stale name `GONE_CAP`",
        "README.md: stale name `STALE_MAX_ROWS`",
        "README.md: stale name `gone_knob`",
    ]


def test_the_verify_guide_is_checked():
    assert ".claude/skills/verify/SKILL.md" in _load_module().NAME_FILES
