"""The benchmark tracer's contract with the package: every span target of
bench/tracer.py resolves, and installing then removing the tracer leaves every
package attribute as it was.  bench/ has its own test run; this test keeps a
deletion or rename in src/ that would break `bench/run.py --trace 1` from
passing the package's tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    name = "gutzmerlab_bench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def resolve(target):
    """(owner, name, object) of one target; a class method must be an entry
    of its own class's dict, as the tracer patches it there."""
    owner = importlib.import_module(f"gutzmerlab.{target.module}")
    *cls_path, attr = target.attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr, (owner.__dict__[attr] if cls_path else getattr(owner, attr))


def test_every_target_resolves(tracer):
    assert tracer.TARGETS
    missing = []
    for t in tracer.TARGETS:
        try:
            resolve(t)
        except (AttributeError, KeyError, ImportError) as exc:
            missing.append(f"{t.module}.{t.attr}: {exc!r}")
    assert not missing, missing


def test_install_wraps_every_target_and_uninstall_restores(tracer):
    before = tracer.attribute_snapshot()
    originals = [resolve(target)[2] for target in tracer.TARGETS]
    t = tracer.Tracer()
    t.install()
    try:
        for target, orig in zip(tracer.TARGETS, originals):
            wrapper = resolve(target)[2]
            assert wrapper is not orig and wrapper.__wrapped__ is orig, target.span_name
    finally:
        t.uninstall()
    assert tracer.same_attributes(before, tracer.attribute_snapshot())
