"""Every function, method and class in the package is named somewhere in it.

A definition that no other line of ``src/sublinexp`` names, and that the package
does not export, is code only its tests (or nothing) reach: it belongs in a test
helper or nowhere.  Names reached from outside the package by name are listed in
``ALLOWED``, each with the reason it stays.
"""

import ast
from pathlib import Path

import sublinexp

SRC = Path(__file__).resolve().parents[1] / "src" / "sublinexp"

ALLOWED = {
    "reachable_masks": "bench/spans.py wraps it as a traced span",
    "ParametricFamily.tail_fractions": "bench/spans.py wraps it as a traced span",
    "csv_from_json": "the bench and CI regenerate each report's CSV with it",
    "ParametricFamily.generator": "a reference that the tests compare the family scans against",
}


def definitions_and_uses():
    """``({qualified name: (file, line)}, {name: count of its uses})`` over the package."""
    defined, used, methods = {}, {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):  # a class before its methods
            if isinstance(node, ast.ClassDef):
                defined[node.name] = (path.name, node.lineno)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined[f"{node.name}.{item.name}"] = (path.name, item.lineno)
                        methods.add(item)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node not in methods:
                defined[node.name] = (path.name, node.lineno)
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                used[name] = used.get(name, 0) + 1
    return defined, used


def test_every_definition_is_named_in_the_package():
    defined, used = definitions_and_uses()
    dead = [
        f"{qualified} ({path}:{line})"
        for qualified, (path, line) in sorted(defined.items())
        if not qualified.rpartition(".")[2].startswith("__")  # dunders: called by Python itself
        and qualified not in sublinexp.__all__
        and qualified not in ALLOWED
        and not used.get(qualified.rpartition(".")[2])
    ]
    assert not dead, "named only at their definition: " + ", ".join(dead)


def test_allowlist_names_only_dead_definitions():
    defined, used = definitions_and_uses()
    assert set(ALLOWED) <= set(defined)
    assert not [name for name in ALLOWED if used.get(name.rpartition(".")[2])]
