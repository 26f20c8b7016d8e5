"""Every name the package exports has a reader.

A name that gutzmerlab/__init__.py imports must be used, as a Name or an
Attribute in the syntax tree (a docstring mention does not count), in one of:
another definition in src/gutzmerlab/*.py, a bench/*.py file, or
tests/test_acceptance.py.  A name that none of them uses stays only as an
entry of REFERENCES, with the reason it is kept."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gutzmerlab"

REFERENCES = {
    "HeisPoint": "bench/tracer.py and bench/measure.py name it as a span target",
    "apply_D": "bench/tracer.py names it as a span target",
    "matrix_element": "Gauss-Hermite oracle that the closed-form e1d is checked against",
    "invert": "pointwise inversion at complexified points, the oracle of invert_grid",
    "twisted_conv": "direct-quadrature oracle of the modal projection path",
    "flat_fourier": "the only implementation of the pinned flat Fourier convention",
    "pw_forward_check": "the only statement of the forward bound D O <= C e^{2A|eta|+2 sqrt(B) r}",
}


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_names(path: Path) -> set:
    """Names read as a Name or an Attribute in `path`; a top-level def or class
    does not count as a use of its own name."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def readers() -> set:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(*(used_names(p) for p in paths))


def test_every_export_has_a_reader_or_a_reason():
    unread = sorted(set(exported_names()) - readers() - set(REFERENCES))
    assert not unread, f"exported but used nowhere: {unread}"


def test_every_reference_is_exported_and_unread():
    # an entry whose name gained a reader, or left the exports, goes
    stale = sorted(set(REFERENCES) - (set(exported_names()) - readers()))
    assert not stale, f"REFERENCES entries to drop: {stale}"
