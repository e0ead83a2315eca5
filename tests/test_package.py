"""The package holds no code that only the tests call, and README names
only what the package has.

A public top-level function or class in src/engel must be read by some
code token in src/engel other than its own definition, or be named in
README.md as part of the library's documented surface.  Anything else is
test-only code, and it belongs in tests/helpers.py.
"""

import ast
import collections
import importlib
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
