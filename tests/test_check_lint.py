"""The offline lint gate (tools/check_lint.py): what it reports, what it
must stay quiet about, and that this tree is clean."""

import importlib.util
import pathlib
import textwrap

import pytest

_TOOL = (pathlib.Path(__file__).resolve().parent.parent
         / "tools" / "check_lint.py")


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_lint", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(lint, source, line_length=100):
    return [(line, code) for line, code, _message in
            lint.check_source(textwrap.dedent(source), line_length)]


class TestUnusedImports:
    def test_module_and_function_imports_nobody_reads(self, lint):
        assert report(lint, """\
            import os
            import sys as system
            from a import b, c

            def f():
                import json
                return c.d, system.argv
            """) == [(1, "F401"), (3, "F401"), (6, "F401")]

    def test_reads_from_nested_scopes_and_exports_count(self, lint):
        assert report(lint, """\
            import os.path
            from a import b, c, d
            __all__ = ["b"]
            __all__ += ["c"]

            class K:
                def m(self):
                    return [os.sep for _ in d]
            """) == []

    def test_future_imports_are_not_names(self, lint):
        assert report(lint, "from __future__ import annotations\n") == []


class TestUndefinedNames:
    def test_a_read_nothing_binds(self, lint):
        assert report(lint, """\
            def f(a, *rest, key=None, **more):
                return a, rest, key, more, missing

            print(len(other), __file__, __name__)
            """) == [(2, "F821"), (4, "F821")]

    def test_definition_order_and_every_binding_form(self, lint):
        assert report(lint, """\
            def early():
                return late() + CONSTANT

            def late():
                total = 0
                for i, (j, k) in pairs():
                    total += i
                with open("f") as handle, open("g"):
                    pass
                try:
                    pass
                except ValueError as exc:
                    total = exc
                def inner():
                    nonlocal total
                    return total, handle, j, k
                return inner, (lambda x, y=total: x + y)

            class Later(early.__class__):
                pass

            def pairs():
                return {n: m for n in range(3) for m in range(n)}

            CONSTANT = 1
            """) == []

    def test_class_body_is_invisible_to_its_methods(self, lint):
        assert report(lint, """\
            class A:
                x = 3
                ys = [y for y in range(x)]      # first iterable: class scope
                zs = [x for _ in range(2)]      # element: not class scope
                def m(self):
                    return x
            """) == [(4, "F821"), (6, "F821")]

    def test_star_import_turns_the_check_off(self, lint):
        assert report(lint, "from os import *\nprint(getcwd())\n") == []


class TestLinesAndNoqa:
    def test_line_length_comes_from_the_argument(self, lint):
        source = "x = 1\ny = '" + "a" * 100 + "'\n"
        assert report(lint, source) == [(2, "E501")]
        assert report(lint, source, line_length=120) == []

    def test_noqa_silences_its_own_line_only(self, lint):
        assert report(lint, """\
            import os  # noqa
            import sys  # noqa: F401 -- re-exported by hand
            import json  # noqa: E501
            import re
            """) == [(3, "F401"), (4, "F401")]

    def test_a_syntax_error_is_one_finding(self, lint):
        assert report(lint, "def f(:\n") == [(1, "E999")]


class TestConfigAndTree:
    def test_ruff_toml_is_read_by_hand(self, lint):
        line_length, ignores = lint.read_config(lint.REPO / "ruff.toml")
        assert line_length == 100
        assert lint.ignored_codes("src/repro/dht/__init__.py", ignores) == {"F401"}
        assert lint.ignored_codes("__init__.py", ignores) == {"F401"}
        assert lint.ignored_codes("benchmarks/perf/run.py", ignores) == {"E402"}
        assert lint.ignored_codes("src/repro/dht/chord.py", ignores) == set()

    def test_findings_print_as_path_line_code_and_fail(self, lint, tmp_path,
                                                       monkeypatch, capsys):
        (tmp_path / "ruff.toml").write_text(
            'line-length = 20\n[lint.per-file-ignores]\n"pkg/*" = ["F401"]\n',
            encoding="utf-8")
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(
            "import os\nvalue = 'long enough to trip'\n", encoding="utf-8")
        (tmp_path / "top.py").write_text("import os\n", encoding="utf-8")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "skipped.py").write_text("import os\n",
                                                         encoding="utf-8")
        monkeypatch.setattr(lint, "REPO", tmp_path)
        assert lint.main([]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "pkg/mod.py:2: E501 line too long (29 > 20)",
            "top.py:1: F401 `os` imported but unused",
        ]
        (tmp_path / "top.py").write_text("import os\nprint(os)\n",
                                         encoding="utf-8")
        assert lint.main([str(tmp_path / "top.py")]) == 0

    def test_dead_definitions_in_src_fail_the_whole_tree_run(
            self, lint, tmp_path, monkeypatch, capsys):
        (tmp_path / "ruff.toml").write_text("line-length = 100\n",
                                            encoding="utf-8")
        for folder in ("src/pkg", "examples", "tests", "scripts"):
            (tmp_path / folder).mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "mod.py").write_text(textwrap.dedent("""\
            import functools


            def used():
                return 1


            def dead():
                return used()


            @functools.cache
            def registered():
                return 2


            class Kept:
                def __repr__(self):
                    return "kept"

                def called(self):
                    return 3

                def orphan(self):
                    def nested_is_not_checked():
                        pass
                    return nested_is_not_checked


            def spare():  # noqa: DEF001 -- kept on purpose
                return 4
            """), encoding="utf-8")
        (tmp_path / "examples" / "demo.py").write_text(
            "from pkg.mod import Kept\nKept().called()\n", encoding="utf-8")
        # A test calling a definition does not keep it alive: code only
        # tests call is dead to the program.
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from pkg.mod import dead\ndead().orphan()\n", encoding="utf-8")
        # A directory outside the usage roots references nothing.
        (tmp_path / "scripts" / "run.py").write_text(
            "dead = orphan = 1\nprint(dead, orphan)\n", encoding="utf-8")
        monkeypatch.setattr(lint, "REPO", tmp_path)
        assert lint.main([]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "src/pkg/mod.py:8: DEF001 `dead` is defined but never referenced",
            "src/pkg/mod.py:24: DEF001 `orphan` is defined but never referenced",
        ]
        # The rule is whole-tree: a run over named paths skips it.
        assert lint.main([str(tmp_path / "src")]) == 0

    def test_method_kind_decorators_do_not_keep_a_definition(
            self, lint, tmp_path, monkeypatch, capsys):
        # @classmethod, @staticmethod and @property file nothing
        # anywhere: a definition only they wrap and only tests call is
        # dead, while one a filing decorator wraps counts as used.
        (tmp_path / "ruff.toml").write_text("line-length = 100\n",
                                            encoding="utf-8")
        for folder in ("src/pkg", "examples", "tests"):
            (tmp_path / folder).mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "mod.py").write_text(textwrap.dedent("""\
            import functools


            class Box:
                @classmethod
                def build(cls):
                    return cls()

                @staticmethod
                def helper():
                    return 1

                @property
                def size(self):
                    return 2

                @functools.cached_property
                def filed(self):
                    return 3
            """), encoding="utf-8")
        (tmp_path / "examples" / "demo.py").write_text(
            "from pkg.mod import Box\nprint(Box)\n", encoding="utf-8")
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from pkg.mod import Box\nBox.build().helper()\nBox().size\n",
            encoding="utf-8")
        monkeypatch.setattr(lint, "REPO", tmp_path)
        assert lint.main([]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "src/pkg/mod.py:6: DEF001 `build` is defined but never referenced",
            "src/pkg/mod.py:10: DEF001 `helper` is defined but never referenced",
            "src/pkg/mod.py:14: DEF001 `size` is defined but never referenced",
        ]

    def test_this_tree_is_clean(self, lint, capsys):
        assert lint.main([]) == 0, capsys.readouterr().out
