"""Docs gate: intra-repo markdown link check, stale back-ticked names,
unresolved docstring roles, README doctests.

Failure modes this catches before merge:

* a markdown file links to a repo path that does not exist (docs rot as
  files move);
* the README, the architecture guide or the verify guide
  (``.claude/skills/verify/SKILL.md``) names, in back-ticks, a repo
  path that does not exist, or a ``CamelCase``, ``snake_case``,
  ``UPPER_CASE`` or ``keyword=`` identifier that occurs nowhere in the
  code (docs rot as classes, methods, constants and knobs are folded
  and deleted);
* one of those docs names, in back-ticks, ``Class.member`` for a class
  of the code that has no such member: no ``def``, class attribute or
  ``self.`` attribute of that name in the class or its bases (a method
  deleted from one class can live on in another, so the bare name
  still occurs);
* a ``src/`` docstring's Sphinx role (``:class:``, ``:meth:``,
  ``:func:``, ``:mod:``, ``:attr:``) names a target that does not
  resolve: it must be a name in its module or an attribute of a class
  defined there, or import and then resolve by ``getattr`` (a module
  docstring that still names a deleted class would otherwise keep
  that name "in the code");
* a README code block's shown output drifts from what the code actually
  prints (the examples are doctests and really run).

Usage: ``python tools/check_docs.py`` from the repo root (it puts
``src/`` on ``sys.path`` itself). Exit status is the number of failures.
"""

import ast
import doctest
import importlib
import inspect
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# [text](target) -- excluding images; anchors and external URLs skipped.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)

DOCTEST_FILES = ["README.md"]

# The docs that describe the tree as it is (ROADMAP / CHANGES also name
# what was deleted, on purpose) and where their names must be found.
NAME_FILES = ["README.md", "docs/ARCHITECTURE.md",
              ".claude/skills/verify/SKILL.md"]
CODE_DIRS = ["src", "tests", "benchmarks", "tools"]
_TICKED = re.compile(r"`([^`\n]+)`")
_REPO_PATH = re.compile(r"^(?:{})/[\w./-]*$".format("|".join(CODE_DIRS)))
_CAMEL = re.compile(r"\b_?[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]+)+\b")
_SNAKE = re.compile(r"^_?[a-z][a-z0-9]*(?:_[a-z0-9]+)*$")
_CONST = re.compile(r"\b_?[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b")
_KWARG = re.compile(r"\b(_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+)=")
_MEMBER = re.compile(r"\b(_?[A-Z]\w*)\.(\w+)")
# :role:`target`, :role:`~target` or :role:`title <target>`.
_ROLE = re.compile(r":(class|meth|func|mod|attr):`([^`]+)`")
_ROLE_TARGET = re.compile(r"<([^>]+)>$")


def markdown_files():
    skip_parts = {".git", ".claude", "node_modules"}
    for path in sorted(REPO.rglob("*.md")):
        if not skip_parts.intersection(path.relative_to(REPO).parts):
            yield path


def check_links():
    failures = []
    for md in markdown_files():
        text = md.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (md.parent / target_path).resolve()
            if not resolved.exists():
                failures.append("{}: broken link -> {}".format(
                    md.relative_to(REPO), target))
    return failures


def check_names():
    """Back-ticked repo paths must exist; back-ticked ``CamelCase`` /
    ``_CamelCase`` and ``UPPER_CASE`` names, ``snake_case`` /
    ``_snake_case`` ones (a whole span, less a dotted prefix and a
    trailing ``()``) and ``snake_case=`` keywords must occur somewhere
    in the code or in ``BENCHMARK.json``."""
    # What .gitignore names is generated by a run, not stale; so is a
    # directory that holds only such output (a pattern lies under it).
    ignored = (REPO / ".gitignore").read_text(encoding="utf-8").split()

    def generated(path):
        under = path.rstrip("/") + "/"
        return path in ignored or any(p.startswith(under) for p in ignored)

    known = set()
    sources = [REPO / "BENCHMARK.json"]  # the metric names
    for top in CODE_DIRS:
        sources.extend((REPO / top).rglob("*.py"))
    for path in sources:
        known.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    failures = []
    for name in NAME_FILES:
        stale = set()
        for span in _TICKED.findall((REPO / name).read_text(encoding="utf-8")):
            # `tests/test_x.py::TestY` and `src/a.py:12` name the file.
            path = span.split(":", 1)[0]
            if (_REPO_PATH.match(path) and not generated(path)
                    and not (REPO / path).exists()):
                stale.add(path)
            for pattern in (_CAMEL, _CONST, _KWARG):
                stale.update(n for n in pattern.findall(span)
                             if n not in known)
            snake = span.removesuffix("()").rsplit(".", 1)[-1]
            if "_" in snake and _SNAKE.match(snake) and snake not in known:
                stale.add(snake)
        failures.extend("{}: stale name `{}`".format(name, n)
                        for n in sorted(stale))
    return failures


def _class_members():
    """Class name -> (base names, member names) across the code: its
    defs and nested classes, its class-level assignments and the
    ``self.`` attributes its methods set. A base given by anything but
    a name is recorded as ``None`` (it cannot be followed)."""
    classes = {}
    for top in CODE_DIRS:
        for path in (REPO / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases, members = classes.setdefault(node.name, (set(), set()))
                for base in node.bases:
                    bases.add(base.id if isinstance(base, ast.Name)
                              else base.attr if isinstance(base, ast.Attribute)
                              else None)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef,
                                         ast.AsyncFunctionDef)):
                        members.add(stmt.name)
                    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                                   else [stmt.target])
                        members.update(n.id for t in targets
                                       for n in ast.walk(t)
                                       if isinstance(n, ast.Name))
                members.update(
                    n.attr for n in ast.walk(node)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self")
    return classes


def _lineage(classes, name):
    """``name`` and every class it inherits from, or None when one of
    them is not the code's own (``object`` adds nothing)."""
    lineage, todo = set(), [name]
    while todo:
        cls = todo.pop()
        if cls in lineage or cls == "object":
            continue
        if cls not in classes:
            return None
        lineage.add(cls)
        todo.extend(classes[cls][0])
    return lineage


def check_members():
    """Back-ticked ``Class.member`` names a member of that class or of
    its bases, when the class is the code's own (dunders are exempt)."""
    classes = _class_members()
    failures = []
    for name in NAME_FILES:
        text = (REPO / name).read_text(encoding="utf-8")
        stale = set()
        for span in _TICKED.findall(text):
            for cls, member in _MEMBER.findall(span):
                lineage = _lineage(classes, cls)
                if (lineage is not None and not member.startswith("__")
                        and not any(member in classes[c][1]
                                    for c in lineage)):
                    stale.add("{}.{}".format(cls, member))
        failures.extend("{}: `{}` names no member of its class".format(name, n)
                        for n in sorted(stale))
    return failures


def _getattr_chain(obj, names):
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _resolves(module, target):
    """Does ``target`` name something, read from ``module``?"""
    names = target.split(".")
    if _getattr_chain(module, names):
        return True
    if len(names) == 1 and any(
            inspect.isclass(value) and value.__module__ == module.__name__
            and hasattr(value, target) for value in vars(module).values()):
        return True
    for cut in range(len(names), 0, -1):
        try:
            base = importlib.import_module(".".join(names[:cut]))
        except ImportError:
            continue
        return _getattr_chain(base, names[cut:])
    return False


def check_roles():
    """Every Sphinx role in a ``src/`` docstring resolves (see the
    module docstring for the rule); the modules are imported, so run
    with ``src`` on the path."""
    failures = []
    src = REPO / "src"
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for role, text in _ROLE.findall(ast.get_docstring(node) or ""):
                titled = _ROLE_TARGET.search(text)
                target = (titled.group(1) if titled else text).lstrip("~.")
                if not _resolves(module, target):
                    failures.append("{}: unresolved :{}:`{}`".format(
                        path.relative_to(REPO), role, text))
    return failures


def check_doctests():
    failures = []
    for name in DOCTEST_FILES:
        path = REPO / name
        text = path.read_text(encoding="utf-8")
        blocks = [b for b in _FENCE.findall(text) if ">>>" in b]
        if not blocks:
            failures.append("{}: no doctest-able python blocks".format(name))
            continue
        # Blocks share one namespace, in order, like one long session.
        globs = {}
        runner = doctest.DocTestRunner(verbose=False,
                                       optionflags=doctest.ELLIPSIS)
        parser = doctest.DocTestParser()
        for i, block in enumerate(blocks):
            test = parser.get_doctest(
                block, globs, "{}[block {}]".format(name, i), name, 0
            )
            runner.run(test, clear_globs=False)
            globs = test.globs
        results = runner.summarize(verbose=False)
        if results.failed:
            failures.append("{}: {} doctest example(s) failed".format(
                name, results.failed))
    return failures


def main():
    sys.path[:0] = [str(REPO / "src")]
    failures = (check_links() + check_names() + check_members()
                + check_roles() + check_doctests())
    for failure in failures:
        print("FAIL:", failure)
    if not failures:
        print("docs ok: links resolve, names exist, roles resolve, "
              "README examples run")
    return len(failures)


if __name__ == "__main__":
    sys.exit(main())
