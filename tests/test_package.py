"""The package holds no code that only the tests call.

A public top-level function or class in src/engel must be read by some
code token in src/engel other than its own definition, or be named in
README.md as part of the library's documented surface.  Anything else is
test-only code, and it belongs in tests/helpers.py.
"""

import ast
import collections
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
