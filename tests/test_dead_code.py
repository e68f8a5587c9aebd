"""No dead code: every import of a package module, test or script is used
in it, and every top-level name of the package is reached by what the
package is for.

The users of a name are the package's own modules, the scripts, the
benchmark (perfbench/*.py) and the A1-A8 acceptance gate
(tests/test_acceptance.py).  A name that only other tests reach is dead:
a test of it tests nothing that a command, script, benchmark or acceptance
criterion runs.  The package's `__init__.py` is its docstring only, so no
name is re-exported and every use names its module.

References are looked up by identifier in the users' ASTs: names,
attributes, imported names, and string constants that are identifiers
(perfbench/tracing.py patches functions by name).
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "szlenk").glob("*.py") if p.name != "__init__.py")
USERS = sorted(
    [*MODULES, *(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").glob("*.py"),
     ROOT / "tests" / "test_acceptance.py"]
)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def references(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def unused_imports(tree: ast.Module) -> list[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "__future__":
            continue
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    out.append(bound)
    return out


def unreferenced_names(path: Path, refs_by_file: dict[Path, set[str]]) -> list[str]:
    elsewhere = set().union(*(r for p, r in refs_by_file.items() if p != path))
    body = parse(path).body
    refs = [references(stmt) for stmt in body]
    out = []
    for k, stmt in enumerate(body):
        for name in sorted(defined_names(stmt)):
            if name.startswith("__") or name in elsewhere:
                continue
            if not any(name in r for j, r in enumerate(refs) if j != k):
                out.append(name)
    return out


def test_every_import_is_used():
    files = [
        *MODULES, *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))
    ]
    bad = [f"{p.relative_to(ROOT)}: {name}" for p in files for name in unused_imports(parse(p))]
    assert bad == []


def test_every_top_level_name_is_referenced():
    refs_by_file = {p: references(parse(p)) for p in USERS}
    bad = [f"{p.name}: {name}" for p in MODULES for name in unreferenced_names(p, refs_by_file)]
    assert bad == []


def test_package_init_is_its_docstring():
    body = parse(ROOT / "src" / "szlenk" / "__init__.py").body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)
