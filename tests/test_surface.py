"""The public surface of sho_spectra has a caller outside the tests.

Every public top-level function and class of the package, and every public
method of a public class, must appear as a word somewhere in src/ other
than its own def or class line, or somewhere in perfbench/.  A name that
only the tests call is a test helper living in the library: move it into
the tests, or delete it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sho_spectra"

# no exceptions: every public name has a caller outside the tests
ALLOWED = set()


def _public(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def public_surface():
    """(module file, name, line of its def or class statement) per public name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not _public(node):
                continue
            out.append((path, node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                out.extend((path, item.name, item.lineno) for item in node.body if _public(item))
    return out


def _uncalled(surface):
    sources = {path: path.read_text().splitlines() for path in (ROOT / "src").rglob("*.py")}
    bench = "\n".join(path.read_text() for path in (ROOT / "perfbench").rglob("*.py"))
    uncalled = set()
    for home, name, lineno in surface:
        word = re.compile(rf"\b{re.escape(name)}\b")
        in_src = any(word.search(line)
                     for path, lines in sources.items()
                     for i, line in enumerate(lines, start=1)
                     if not (path == home and i == lineno))
        if not in_src and not word.search(bench):
            uncalled.add(name)
    return uncalled


def test_surface_scan_sees_the_package():
    names = {name for _, name, _ in public_surface()}
    # a top-level function, a class and a method of a class
    assert {"zeta_kernel", "HermitianTruncation", "solve"} <= names
    assert "_gram" not in names


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = _uncalled(public_surface())
    assert uncalled - ALLOWED == set()
    assert ALLOWED <= uncalled, "an allowed name gained a caller: drop it from ALLOWED"
