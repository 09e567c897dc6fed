import ast
from pathlib import Path


def test_oracles_do_not_import_the_library():
    tree = ast.parse((Path(__file__).parent / "_oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no imports found; the parse is broken"
    assert not [m for m in imported if m.split(".")[0] == "hestonstab" or m.startswith(".")]
