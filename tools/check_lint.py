"""Offline lint: the part of ``ruff check`` this tree can verify without
ruff (it is not installable here; CI still runs the real thing first and
ruff stays the authority).

Stdlib only. Reports, as ``path:line: code message``:

* ``F401`` -- a name bound by ``import`` (module scope or inside a
  function) that nothing in the file reads and ``__all__`` does not
  export;
* ``F821`` -- a name read somewhere that no enclosing scope binds and
  that is not a builtin, i.e. one that would have to be a module global
  and is not;
* ``E501`` -- a line longer than ``line-length``;
* ``DEF001`` -- a top-level def or class, or a method of a top-level
  class, in ``src/`` whose name occurs as a NAME token nowhere else in
  the ``.py`` files of ``USAGE_DIRS`` (no ruff rule does this: it is
  the whole-tree reference count that finds dead code). A decorated
  definition counts as used -- its decorator files it somewhere, as
  ``register_operator`` does -- and so does a dunder. Checked on the
  default whole-tree run only.

``line-length`` and ``[lint.per-file-ignores]`` are read out of
``ruff.toml`` by hand (``tomllib`` is missing on Python 3.10), and
``# noqa`` / ``# noqa: CODE,...`` comments are honoured per line.

Usage: ``python tools/check_lint.py [path ...]`` from the repo root
(default: the whole tree). Exit status 1 if anything was reported.
"""

import ast
import builtins
import fnmatch
import io
import pathlib
import re
import sys
import tokenize
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
# Where a definition in src/ may be referenced from.
USAGE_DIRS = ("src", "tests", "benchmarks", "tools", "examples")

_NOQA = re.compile(r"#\s*noqa(?::\s*([A-Z][A-Z0-9]*(?:[,\s]+[A-Z][A-Z0-9]*)*))?", re.I)
_IGNORE_LINE = re.compile(r'^"([^"]+)"\s*=\s*\[([^\]]*)\]')
_MODULE_NAMES = {"__file__", "__name__", "__doc__", "__package__", "__spec__",
                 "__loader__", "__path__", "__builtins__", "__class__"}


def read_config(path):
    """``(line_length, [(glob, {codes})])`` from a ruff.toml."""
    line_length, ignores, section = 88, [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif section is None and line.startswith("line-length"):
            line_length = int(line.split("=", 1)[1])
        elif section == "lint.per-file-ignores":
            match = _IGNORE_LINE.match(line)
            if match:
                ignores.append((match.group(1),
                                set(re.findall(r"[A-Z]+[0-9]+", match.group(2)))))
    return line_length, ignores


def ignored_codes(relpath, ignores):
    """Codes switched off for ``relpath`` (posix, repo-relative).
    ``fnmatch``'s ``*`` crosses ``/`` as ruff's globs do; a leading
    ``**/`` may also match nothing (a file at the root)."""
    codes = set()
    for pattern, pattern_codes in ignores:
        if fnmatch.fnmatchcase(relpath, pattern) or (
                pattern.startswith("**/")
                and fnmatch.fnmatchcase(relpath, pattern[3:])):
            codes |= pattern_codes
    return codes


class Scope:
    def __init__(self, node, parent):
        self.is_class = isinstance(node, ast.ClassDef)
        self.parent = parent
        self.bound = set()
        self.imports = {}  # name -> line of the import that bound it
        self.used = set()

    def resolve(self, name):
        """Mark ``name`` read in the scope Python would find it in;
        False if no scope binds it. Class bodies are invisible to the
        scopes nested inside them."""
        scope, innermost = self, True
        while scope is not None:
            if name in scope.bound and (innermost or not scope.is_class):
                scope.used.add(name)
                return True
            scope, innermost = scope.parent, False
        return False


class Checker(ast.NodeVisitor):
    """Two passes over one module: bind every scope's names, then
    resolve every read (so use-before-definition order never matters)."""

    def __init__(self, tree):
        self.scopes = {}  # scope node -> Scope
        self.reads = []  # (Scope, name, line)
        self.star_import = False
        self.exported = set()
        self.module = self.scope = self._enter(tree, None)
        self.generic_visit(tree)

    def _enter(self, node, parent):
        scope = self.scopes[node] = Scope(node, parent)
        return scope

    def _bind(self, name, scope=None):
        (scope or self.scope).bound.add(name)

    def _in_scope(self, node, visit_children):
        outer, self.scope = self.scope, self._enter(node, self.scope)
        visit_children()
        self.scope = outer

    # -- bindings ------------------------------------------------------
    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "*":
                self.star_import = True
                continue
            name = alias.asname or alias.name.split(".")[0]
            self._bind(name)
            if getattr(node, "module", None) != "__future__":
                self.scope.imports.setdefault(name, node.lineno)

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.append((self.scope, node.id, node.lineno))
        else:
            self._bind(node.id)

    def visit_Global(self, node):
        for name in node.names:
            self._bind(name)
            self._bind(name, self.module)

    def visit_Nonlocal(self, node):
        for name in node.names:
            self._bind(name)

    def visit_ExceptHandler(self, node):
        if node.name:
            self._bind(node.name)
        self.generic_visit(node)

    def visit_Assign(self, node):
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "__all__" in targets and self.scope is self.module:
            self._export(node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if (isinstance(node.target, ast.Name) and node.target.id == "__all__"
                and self.scope is self.module):
            self._export(node.value)
        self.generic_visit(node)

    def _export(self, value):
        for element in getattr(value, "elts", ()):
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                self.exported.add(element.value)

    # -- scopes --------------------------------------------------------
    def _visit_function(self, node):
        if not isinstance(node, ast.Lambda):
            self._bind(node.name)
            for expr in node.decorator_list + [node.returns]:
                if expr is not None:
                    self.visit(expr)
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        for expr in args.defaults + args.kw_defaults + [a.annotation for a in every]:
            if expr is not None:
                self.visit(expr)  # evaluated in the enclosing scope

        def inside():
            for arg in every:
                self._bind(arg.arg)
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self.visit(stmt)

        self._in_scope(node, inside)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_function

    def visit_ClassDef(self, node):
        self._bind(node.name)
        for expr in node.decorator_list + node.bases + [k.value for k in node.keywords]:
            self.visit(expr)
        self._in_scope(node, lambda: [self.visit(stmt) for stmt in node.body])

    def _visit_comprehension(self, node):
        self.visit(node.generators[0].iter)  # evaluated in the enclosing scope

        def inside():
            for i, gen in enumerate(node.generators):
                self.visit(gen.target)
                if i:
                    self.visit(gen.iter)
                for cond in gen.ifs:
                    self.visit(cond)
            for part in ("elt", "key", "value"):
                if hasattr(node, part):
                    self.visit(getattr(node, part))

        self._in_scope(node, inside)

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = (
        _visit_comprehension)

    # -- verdicts ------------------------------------------------------
    def problems(self):
        known = set(dir(builtins)) | _MODULE_NAMES
        for scope, name, line in self.reads:
            if not scope.resolve(name) and name not in known and not self.star_import:
                yield line, "F821", "undefined name `{}`".format(name)
        for scope in self.scopes.values():
            for name, line in scope.imports.items():
                if name not in scope.used and not (
                        scope is self.module and name in self.exported):
                    yield line, "F401", "`{}` imported but unused".format(name)


def noqa_lines(source):
    """line -> set of codes a ``# noqa`` comment silences (empty = all)."""
    silenced = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            match = _NOQA.search(token.string)
            if match:
                codes = match.group(1)
                silenced[token.start[0]] = (
                    set(re.split(r"[,\s]+", codes.upper())) if codes else set())
    return silenced


def check_source(source, line_length, extra=()):
    """``[(line, code, message)]`` for one file's text, sorted; ``extra``
    findings (from whole-tree rules) are filtered by ``# noqa`` too."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [(exc.lineno or 1, "E999", "syntax error: {}".format(exc.msg))]
    found = list(Checker(tree).problems()) + list(extra)
    for number, line in enumerate(source.splitlines(), 1):
        if len(line) > line_length:
            found.append((number, "E501", "line too long ({} > {})".format(
                len(line), line_length)))
    silenced = noqa_lines(source)
    return sorted(
        (line, code, message) for line, code, message in found
        if not (line in silenced and (not silenced[line] or code in silenced[line])))


def python_files(root):
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if not any(p.startswith(".") for p in parts[:-1]):
            yield path


def _definitions(tree):
    """Undecorated, non-dunder top-level defs and classes of a module,
    and the same among the members of its top-level classes."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for definition in [node, *members]:
            if (isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                    and not definition.decorator_list
                    and not (definition.name.startswith("__")
                             and definition.name.endswith("__"))):
                yield definition


def dead_definitions(root):
    """relpath -> ``[(line, "DEF001", message)]`` for every definition
    in ``root/src`` whose name is no NAME token anywhere else under
    ``USAGE_DIRS``. Files that do not parse are skipped (E999 reports
    them)."""
    names = Counter()
    modules = {}
    for top in USAGE_DIRS:
        if not (root / top).is_dir():
            continue
        for path in python_files(root / top):
            source = path.read_text(encoding="utf-8")
            try:
                tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
                if top == "src":
                    modules[path.relative_to(root).as_posix()] = ast.parse(source)
            except (SyntaxError, tokenize.TokenError):
                continue
            names.update(t.string for t in tokens if t.type == tokenize.NAME)
    found = {}
    for relpath, tree in modules.items():
        for definition in _definitions(tree):
            if names[definition.name] <= 1:
                found.setdefault(relpath, []).append((
                    definition.lineno, "DEF001",
                    "`{}` is defined but never referenced".format(definition.name)))
    return found


def main(argv):
    line_length, ignores = read_config(REPO / "ruff.toml")
    targets = [pathlib.Path(a).resolve() for a in argv] or [REPO]
    dead = {} if argv else dead_definitions(REPO)
    reported = 0
    for target in targets:
        for path in ([target] if target.is_file() else python_files(target)):
            relpath = path.relative_to(REPO).as_posix()
            off = ignored_codes(relpath, ignores)
            for line, code, message in check_source(
                    path.read_text(encoding="utf-8"), line_length,
                    dead.get(relpath, ())):
                if code not in off:
                    print("{}:{}: {} {}".format(relpath, line, code, message))
                    reported += 1
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
