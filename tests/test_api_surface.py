"""Every public name of the package has a reader.

A public name is one that gutzmerlab/__init__.py imports, or a module-level
def, class or assignment of src/gutzmerlab/*.py whose name does not start
with an underscore.  It must be used, as a Name or an Attribute in the syntax
tree (a docstring or string mention does not count), in one of: a definition
in src/gutzmerlab/*.py other than its own, a bench/*.py file, or
tests/test_acceptance.py.  A name that none of them uses stays only as an
entry of REFERENCES, with the reason it is kept.

Every QuadratureSpec field is a knob some caller in src/gutzmerlab/*.py or
bench/*.py sets; a field nobody sets is a constant.

hermite_modes has one special-Hermite evaluator: the Laguerre functions of
specfun are read only by the closed form e1d, by radial_table and by
_offset_sums, so a second table builder cannot grow back beside them."""

import ast
import dataclasses
from pathlib import Path

from gutzmerlab.grids import QuadratureSpec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gutzmerlab"

REFERENCES = {
    "HeisPoint": "bench/tracer.py and bench/measure.py name it as a span target",
    "apply_D": "bench/tracer.py names it as a span target",
    "invert": "pointwise inversion at complexified points, the oracle of invert_grid",
    "twisted_conv": "direct-quadrature oracle of the modal projection path",
    "flat_fourier": "the only implementation of the pinned flat Fourier convention",
    "pw_forward_check": "the only statement of the forward bound D O <= C e^{2A|eta|+2 sqrt(B) r}",
    "e1d": "closed form of one mode, the reference the tests check the field evaluator "
           "against; bench/tracer.py names it as a span target",
}


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def module_names(path: Path) -> list:
    """Names that `path` binds at module level by a def, a class or an
    assignment (imports excluded)."""
    names = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [node.id for t in targets for node in ast.walk(t)
                      if isinstance(node, ast.Name)]
    return names


def public_names() -> set:
    defined = {name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
               for name in module_names(p)}
    return {name for name in defined if not name.startswith("_")} | set(exported_names())


def used_names(path: Path) -> set:
    """Names read as a Name or an Attribute in `path`; a top-level def or class
    does not count as a use of its own name."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        names = {node.id for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
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


def test_every_unexported_public_name_has_a_reader_or_a_reason():
    unread = sorted(public_names() - set(exported_names()) - readers() - set(REFERENCES))
    assert not unread, f"public module-level name used nowhere: {unread}"


def test_every_reference_is_public_and_unread():
    # an entry whose name gained a reader, or left the public names, goes
    stale = sorted(set(REFERENCES) - (public_names() - readers()))
    assert not stale, f"REFERENCES entries to drop: {stale}"


def names_set(path: Path) -> set:
    """Keyword names of the calls in `path`, and the string keys of its dict
    displays and of the subscripts it assigns to."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            found |= {kw.arg for kw in node.keywords if kw.arg}
            continue
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        else:
            continue
        found |= {k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    return found


def test_every_spec_field_is_set_by_a_caller():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    unset = ({f.name for f in dataclasses.fields(QuadratureSpec)}
             - set().union(*(names_set(p) for p in paths)))
    assert not unset, f"QuadratureSpec fields no caller sets: {sorted(unset)}"


LAGUERRE = {"laguerre", "laguerre_all", "laguerre_sums"}
LAGUERRE_READERS = {"e1d", "radial_table", "_offset_sums"}


def laguerre_readers(path: Path) -> set:
    """Top-level defs (methods as Class.method, other statements as
    <module>) of `path` that read a specfun Laguerre function, as a Name or
    an Attribute."""
    scopes = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.ClassDef):
            scopes += [(f"{stmt.name}.{getattr(s, 'name', '<class>')}", s) for s in stmt.body]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((stmt.name, stmt))
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            scopes.append(("<module>", stmt))
    return {name for name, stmt in scopes for node in ast.walk(stmt)
            if (isinstance(node, ast.Name) and node.id in LAGUERRE
                and not isinstance(node.ctx, ast.Store))
            or (isinstance(node, ast.Attribute) and node.attr in LAGUERRE)}


def test_one_special_hermite_evaluator():
    extra = sorted(laguerre_readers(PACKAGE / "hermite_modes.py") - LAGUERRE_READERS)
    assert not extra, f"hermite_modes reads the Laguerre functions outside the engine: {extra}"
