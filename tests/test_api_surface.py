"""Every public name of the package has a reader.

A public name is one that gutzmerlab.__all__ lists, or a module-level
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
_offset_sums, so a second table builder cannot grow back beside them.

spectral and hermite_modes send their matrix products through
hermite_modes._panel_matmul, which keeps desk-scale products on the calling
thread; the few products that do not are named in SMALL_PRODUCTS, one site
each, so a new product cannot wake OpenBLAS's thread pool unnoticed."""

import ast
import dataclasses
from pathlib import Path

import gutzmerlab
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
    """gutzmerlab.__all__, the names of the package's lazy export table."""
    return list(gutzmerlab.__all__)


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


def test_every_export_resolves():
    assert exported_names()
    missing = [name for name in exported_names() if not hasattr(gutzmerlab, name)]
    assert not missing, f"exported but not importable: {missing}"


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


def scopes(path: Path) -> list:
    """(name, node) of the top-level defs of `path` (methods as
    Class.method) and of its other statements (as <module>)."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.ClassDef):
            out += [(f"{stmt.name}.{getattr(s, 'name', '<class>')}", s) for s in stmt.body]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((stmt.name, stmt))
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            out.append(("<module>", stmt))
    return out


def laguerre_readers(path: Path) -> set:
    """The scopes of `path` that read a specfun Laguerre function, as a Name
    or an Attribute."""
    return {name for name, stmt in scopes(path) for node in ast.walk(stmt)
            if (isinstance(node, ast.Name) and node.id in LAGUERRE
                and not isinstance(node.ctx, ast.Store))
            or (isinstance(node, ast.Attribute) and node.attr in LAGUERRE)}


def test_one_special_hermite_evaluator():
    extra = sorted(laguerre_readers(PACKAGE / "hermite_modes.py") - LAGUERRE_READERS)
    assert not extra, f"hermite_modes reads the Laguerre functions outside the engine: {extra}"


PRODUCT_MODULES = ("spectral", "hermite_modes")
PRODUCT_CALLS = {"matmul", "dot", "tensordot"}
# The products of spectral and hermite_modes that do not go through
# hermite_modes._panel_matmul, one site each: every one stays far under the
# size at which OpenBLAS wakes its thread pool (measured: 2^16 complex
# multiply-adds in a matrix product, between 2^19 and 2^20 real ones, and a
# complex dot of between 2^13 and 2^14 terms).
SMALL_PRODUCTS = {
    ("hermite_modes", "_offset_sums"):
        "real [2 x slices of one offset, m] @ [m, shells] per offset block",
    ("spectral", "_radial_contract"):
        "real [m, shells] @ [shells, 2 x members of one |lambda| group] per offset",
    ("spectral", "_plane_coefs"):
        "[2 dtop + 1, points of one shell] @ [points of one shell, slices] per shell",
    ("spectral", "invert"):
        "a dot of the lambda-node weights with the fields at one point",
}


def is_product(node: ast.AST) -> bool:
    """An @ (or @=), a matmul / dot / tensordot call, or an einsum call that
    sets optimize (the einsum that may hand its work to BLAS)."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in PRODUCT_CALLS:
        return True
    return name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords)


def product_sites() -> list:
    """(module, scope) of every product in PRODUCT_MODULES outside the panel
    helper itself, once per product."""
    return [(module, name) for module in PRODUCT_MODULES
            for name, stmt in scopes(PACKAGE / f"{module}.py") if name != "_panel_matmul"
            for node in ast.walk(stmt) if is_product(node)]


def test_is_product_sees_every_kind():
    code = ("a @ b\nx @= y\nnp.matmul(a, b)\nnp.dot(a, b)\na.dot(b)\nnp.tensordot(a, b)\n"
            "np.einsum('ij,jk', a, b, optimize=True)\n"
            "np.einsum('i,i->', a, a)\n_panel_matmul(a, b)\na * b\n")
    assert sum(map(is_product, ast.walk(ast.parse(code)))) == 7


def test_products_go_through_the_panel_helper():
    # a product outside _panel_matmul is one of the named small ones, so a
    # new product site cannot wake the BLAS pool unnoticed
    sites = product_sites()
    unnamed = sorted(set(sites) - set(SMALL_PRODUCTS))
    assert not unnamed, f"products that bypass _panel_matmul: {unnamed}"
    counts = {site: sites.count(site) for site in SMALL_PRODUCTS}
    assert counts == dict.fromkeys(SMALL_PRODUCTS, 1), f"one product per named site: {counts}"
