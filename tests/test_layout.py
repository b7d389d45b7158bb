"""Layout guard: every public name in src/remogen has a program reference.

A public top-level function or class, or a public method of a top-level
class, that only the tests reach is code to read, test and keep bit-exact
that serves no run: move it into tests/ or delete it. The scan is by bare
name over the AST, so it is coarse: any program reference to the name
counts, whichever definition it means.

A program reference is a use of the name anywhere in src/ outside the
definition itself, or anywhere in perfbench/. Uses are names, attributes and
string constants (perfbench patches functions by their names). Import lists
and __all__ only re-export a name and do not count, and neither does an
attribute of an imported third-party module, such as np.zeros.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "remogen"
PROGRAM = (ROOT / "src", ROOT / "perfbench")


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions() -> list:
    """(path, qualified name, bare name, first line, last line) of each public definition."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((path, node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        out.append((path, f"{node.name}.{item.name}", item.name,
                                    item.lineno, item.end_lineno))
    return out


def _external_modules(tree: ast.Module) -> set:
    """Local names bound by `import x` or `import x as y`: third-party or stdlib modules."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if not alias.name.startswith("remogen")}


def _export_strings(tree: ast.Module) -> set:
    """The string nodes of `__all__ = [...]`."""
    return {id(elt) for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and target.id == "__all__" for elt in ast.walk(node.value)}


def program_references() -> dict:
    """bare name -> [(path, line)] of every program use of that name."""
    refs: dict = {}
    for base in PROGRAM:
        for path in sorted(base.rglob("*.py")):
            if any(part.startswith(".") for part in path.relative_to(base).parts):
                continue   # perfbench/.work holds build outputs, not program code
            tree = ast.parse(path.read_text(encoding="utf-8"))
            external, exports = _external_modules(tree), _export_strings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.value, ast.Name) and node.value.id in external:
                        continue
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) in exports:
                        continue
                    name = node.value
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_name_has_a_program_reference():
    refs = program_references()
    test_only = []
    for path, qualname, name, first, last in definitions():
        outside = [(p, line) for p, line in refs.get(name, ())
                   if not (p == path and first <= line <= last)]
        if not outside:
            test_only.append(f"{path.relative_to(ROOT)}:{first} {qualname}")
    assert not test_only, ("public names with no program reference; move them into "
                           "tests/ or delete them:\n" + "\n".join(test_only))

