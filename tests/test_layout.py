"""Layout guards: every public name in src/remogen has a program reference,
and every defaulted parameter of one is passed by a program call.

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


def program_trees():
    """(path, parsed module) of each program file."""
    for base in PROGRAM:
        for path in sorted(base.rglob("*.py")):
            if any(part.startswith(".") for part in path.relative_to(base).parts):
                continue   # perfbench/.work holds build outputs, not program code
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def program_references() -> dict:
    """bare name -> [(path, line)] of every program use of that name."""
    refs: dict = {}
    for path, tree in program_trees():
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



# One params walk --------------------------------------------------------------
#
# tensorcore.map_leaves is the one recursive walk over parameter trees. Code
# that reads a dataclass's fields anywhere else is a second walk in the making.

DATACLASS_INTROSPECTION = {"fields", "is_dataclass", "__dataclass_fields__"}


def test_only_map_leaves_reads_dataclass_fields():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walker = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "map_leaves"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant):
                name = node.value
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                name = next((a.name for a in node.names
                             if a.name in DATACLASS_INTROSPECTION), None)
            else:
                continue
            if name in DATACLASS_INTROSPECTION and not any(
                    first <= node.lineno <= last for first, last in walker):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not found, ("dataclass fields read outside tensorcore.map_leaves; walk params "
                       "trees with map_leaves:\n" + "\n".join(found))


# Defaulted parameters ---------------------------------------------------------
#
# A default that no program call overrides is a knob nobody turns: every run
# takes the same value, so it is a constant written as a parameter. The scan
# matches calls to definitions by bare name, like the guard above; a call
# passes a parameter by position, by keyword, or through *args or **kwargs.

# cli.main(argv): the console script calls main() and reads sys.argv, so only
# the tests pass argv.
DEFAULT_ALLOWED = {"cli.main(argv)"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def _signature(fn: ast.FunctionDef, bound: bool) -> tuple:
    """(positional parameter names as a call sees them, {defaulted name})."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    defaulted = set(positional[len(positional) - len(fn.args.defaults):])
    defaulted |= {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if d is not None}
    return (positional[1:] if bound else positional), defaulted


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def defaulted_parameters() -> list:
    """(label, bare call name, positional names, defaulted name) for each
    defaulted parameter of a public function, a public method or a
    constructor in src/remogen. A constructor is called by its class name."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            sigs = []
            if isinstance(node, ast.FunctionDef):
                sigs.append((node.name, node.name, *_signature(node, False)))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name)]
                    sigs.append((node.name, node.name, [f.target.id for f in fields],
                                 {f.target.id for f in fields if f.value is not None}))
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        sigs.append((node.name, node.name, *_signature(item, True)))
                    elif _public(item.name):
                        sigs.append((f"{node.name}.{item.name}", item.name,
                                     *_signature(item, not _is_static(item))))
            for label, name, positional, defaulted in sigs:
                for param in sorted(defaulted):
                    out.append((f"{module}.{label}({param})", name, positional, param))
    return out


def program_calls() -> dict:
    """bare callee name -> [(positional count, keyword names, spreads)] of each
    program call; spreads is True when the call passes *args or **kwargs."""
    calls: dict = {}
    for _, tree in program_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            spreads = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, spreads))
    return calls


def test_every_defaulted_parameter_is_passed_by_a_program_call():
    calls = program_calls()
    params = defaulted_parameters()
    assert DEFAULT_ALLOWED <= {label for label, *_ in params}, "stale allowlist entry"
    unpassed = []
    for label, name, positional, param in params:
        index = positional.index(param) if param in positional else None
        passed = any(spreads or param in keywords
                     or (index is not None and n_positional > index)
                     for n_positional, keywords, spreads in calls.get(name, ()))
        if not passed and label not in DEFAULT_ALLOWED:
            unpassed.append(label)
    assert not unpassed, ("defaulted parameters that no program call passes; make them "
                          "constants or required:\n" + "\n".join(unpassed))


# Model sizes ------------------------------------------------------------------
#
# EngineConfig is the one place that sets the default model sizes. A size
# defaulted anywhere else is a second copy that can drift from it unseen: a
# call that forgets to pass it builds another model than the config names.

MODEL_SIZES = ("history_len", "future_len", "latent_dim", "text_dim", "width", "heads",
               "n_blocks", "ffn_hidden", "vae_hidden", "injection_layers", "beta_sens")


def test_only_engine_config_defaults_a_model_size():
    from remogen.runtime.config import EngineConfig

    assert set(MODEL_SIZES) <= set(EngineConfig.__annotations__), "stale model-size name"
    found = [label for label, _, _, param in defaulted_parameters()
             if param in MODEL_SIZES and not label.startswith("runtime.config.")]
    assert not found, ("model sizes defaulted outside runtime/config.py; take them from "
                       "EngineConfig:\n" + "\n".join(found))
