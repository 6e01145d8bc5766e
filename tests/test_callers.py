"""Every function, class and method of the package is used by the package."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scoreforge"

# qualified name -> why it stays with no caller in src/
NO_CALLER: dict[str, str] = {}


def definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class, and of
    each method of a top-level class; dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_has_a_caller():
    """A name counts as used when code in src/ refers to it, as a name or
    as an attribute; a mention in a comment or a docstring does not."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = sorted(qualified for tree in trees
                      for qualified, name in definitions(tree)
                      if not (name.startswith("__") and name.endswith("__"))
                      and name not in used)
    assert uncalled == sorted(NO_CALLER)


def test_readme_names_only_defined_code():
    """Every backticked call form in README.md, such as `track_tables(` or
    `MidiPiece.end_tick(`, names a function, class or method that src/
    defines: by its qualified name, or by a method's own name."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name in definitions(tree):
            names |= {qualified, name}
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    called = set(re.findall(r"`([A-Za-z_][\w.]*)\(", readme))
    assert called and sorted(called - names) == []
