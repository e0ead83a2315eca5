"""The package holds no code that only the tests call, and README names
only what the package has.  Every exception class is raised, or is a
base of one that is.

A public top-level function or class in src/engel must be read by some
code token in src/engel other than its own definition, or be named in
README.md as part of the library's documented surface.  Anything else is
test-only code, and it belongs in tests/helpers.py.  Likewise a class
that tests or demos construct is constructed in src/engel too, or named
in README.md.
"""

import ast
import collections
import importlib
import inspect
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "engel"


def test_every_public_name_in_the_package_has_a_reader():
    tokens, defined = collections.Counter(), collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tokens.update(
            tok.string
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.NAME
        )
        defined.update(
            node.name
            for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = sorted(
        name
        for name, count in defined.items()
        if tokens[name] == count and not re.search(r"\b%s\b" % re.escape(name), readme)
    )
    assert unread == []


def _constructed(paths):
    # Names called as Name(...) or something.Name(...).
    called = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
    return called


def test_no_class_is_built_only_by_the_tests():
    # A class that tests or demos construct is constructed by the package
    # too, or README names it; otherwise it models nothing the package
    # ever makes.
    sources = sorted(SRC.glob("*.py"))
    classes = {
        node.name
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }
    outside = _constructed(sorted((ROOT / "tests").glob("*.py"))
                           + sorted((ROOT / "demos").glob("*.py")))
    inside = _constructed(sources)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    only_tests = sorted(
        name
        for name in classes & outside
        if name not in inside and not re.search(r"\b%s\b" % re.escape(name), readme)
    )
    assert only_tests == []


def test_every_module_name_in_the_readme_exists():
    # A `module.name` of an engel module in README resolves, so a name
    # that is renamed or deleted cannot stay documented.
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = sorted(set(re.findall(r"`(\w+)\.(\w+)", readme)))
    assert ("homotopy", "script_frames") in named
    missing = [
        "%s.%s" % (module, name)
        for module, name in named
        if module in modules
        and not hasattr(importlib.import_module("engel." + module), name)
    ]
    assert missing == []


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    # A class folded into another cannot stay behind in engel.errors.
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                raised.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    errors = importlib.import_module("engel.errors")
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    raised = [c for c in classes if c.__name__ in raised]
    unraised = [c.__name__ for c in classes if not any(issubclass(r, c) for r in raised)]
    assert unraised == []


def test_every_source_parses_as_python_3_10():
    # pyproject.toml says requires-python >= 3.10, and a 3.10 interpreter
    # is not always at hand to run the suite on: syntax newer than 3.10
    # in the package, its tests or its demos fails here instead.
    paths = [path for folder in (SRC, ROOT / "tests", ROOT / "demos")
             for path in sorted(folder.glob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
