"""Every name kmflow defines has a caller, or is exported if it is public.

A public module-level function or class of ``src/kmflow``, or a public method
of such a class, must either be named in ``kmflow.__all__`` or appear as a
word somewhere outside every definition of that name in its file: in
``src/kmflow``, ``README.md`` or ``perfbench/*.py``.  So two same-named methods
do not count as each other's caller.  A private one (dunders aside) must
appear so in ``src/kmflow`` itself.  Tests do not count as callers, so a name
only tests use belongs in ``tests/oracles.py``.

And every real setting goes through one check: ``_is_real`` is read only by
``graphon._check_real`` and by the CLI's ``_CHECKS`` table.  Every JSON spec
goes through one decoder: its ``"kind"`` is read only in ``graphon._from_spec``,
and no ``_FIELDS`` table lists a kind's fields beside its constructor.
"""

import ast
import re
from pathlib import Path

import kmflow

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "kmflow").glob("*.py"))
CALLERS = [*SOURCES, ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]


def _definitions(private: bool):
    """(file, qualified name) of each public, or each private but not dunder,
    module-level function and class, and method of such a class."""
    def chosen(name):
        return name.startswith("_") == private and not name.startswith("__")

    defining = (ast.FunctionDef, ast.ClassDef)
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defining):
                continue
            if chosen(node.name):
                yield path, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and chosen(item.name):
                    yield path, f"{node.name}.{item.name}"


def _used_outside(path, name, callers=CALLERS) -> bool:
    short = name.rsplit(".", 1)[-1]
    word = re.compile(rf"\b{re.escape(short)}\b")
    for caller in callers:
        text = caller.read_text()
        lines = text.splitlines()
        if caller == path:
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == short:
                    for i in range(node.lineno - 1, node.end_lineno):
                        lines[i] = ""
        if word.search("\n".join(lines)):
            return True
    return False


def test_every_public_name_has_a_caller():
    unused = [name for path, name in _definitions(private=False)
              if name not in kmflow.__all__ and not _used_outside(path, name)]
    assert unused == [], f"public names with no caller: {unused}"


def test_every_private_name_has_a_caller():
    unused = [name for path, name in _definitions(private=True)
              if not _used_outside(path, name, SOURCES)]
    assert unused == [], f"private names with no caller: {unused}"


def test_real_settings_have_one_check():
    """``_is_real`` is read only in ``graphon._check_real``, which gives every
    real setting of the library its bounds and its one wording, and in the
    CLI's ``_CHECKS`` table of config keys."""
    allowed = {("graphon.py", "_check_real"), ("cli.py", "_CHECKS")}
    stray = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            target = node.targets[0] if isinstance(node, ast.Assign) else node
            if (path.name, getattr(target, "name", getattr(target, "id", None))) in allowed:
                continue
            stray += [f"{path.name}:{use.lineno}" for use in ast.walk(node)
                      if isinstance(use, ast.Name) and use.id == "_is_real"]
    assert stray == [], f"_is_real read outside _check_real and cli._CHECKS: {stray}"


def _reads_kind(node) -> bool:
    """Whether a node reads the ``"kind"`` entry of a mapping: ``x["kind"]``,
    or ``x.get("kind", ...)`` or ``x.pop("kind", ...)``."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in ("get", "pop") and node.args):
        key = node.args[0]
    else:
        return False
    return isinstance(key, ast.Constant) and key.value == "kind"


def test_specs_have_one_decoder():
    readers, tables = set(), []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if _reads_kind(node):
                    readers.add((path.name, getattr(top, "name", None)))
                if "_FIELDS" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    tables.append(f"{path.name}:{node.lineno}")
    assert readers == {("graphon.py", "_from_spec")}
    assert tables == [], f"_FIELDS tables left: {tables}"
