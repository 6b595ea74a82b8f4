"""Every public name of the library is read by something other than the tests.

A public function, class, method or dataclass field that appears, as a whole
word, only at its own definition in ``src/reidapt`` and nowhere in the
benchmark, the demos or the README is code that only tests keep alive.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "reidapt").glob("*.py"))
READERS = [*sorted((ROOT / "perfbench").glob("*.py")),
           *sorted(p for p in (ROOT / "demos").iterdir() if p.is_file()),
           ROOT / "README.md"]


def public_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes, and the methods and annotated
    fields of those classes, whose names do not start with an underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    names.append(member.name)
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    names.append(member.target.id)
    return [name for name in names if not name.startswith("_")]


def count_words(name: str, texts) -> int:
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return sum(len(pattern.findall(text)) for text in texts)


def unread_names() -> list[str]:
    library = [path.read_text() for path in LIBRARY]
    readers = [path.read_text() for path in READERS]
    definitions = {}
    for text in library:
        for name in public_definitions(ast.parse(text)):
            definitions[name] = definitions.get(name, 0) + 1
    return sorted(name for name, defined in definitions.items()
                  if count_words(name, library) <= defined
                  and count_words(name, readers) == 0)


def test_definitions_are_found():
    names = set()
    for path in LIBRARY:
        names.update(public_definitions(ast.parse(path.read_text())))
    # a function, a class, a method and a dataclass field
    assert {"kmeans", "MemoryBank", "relabel_fraction", "num_clusters"} <= names
    assert not any(name.startswith("_") for name in names)


def test_every_public_name_has_a_reader():
    assert unread_names() == []
