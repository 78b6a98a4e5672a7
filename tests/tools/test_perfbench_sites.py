"""The benchmark tracer's call sites must exist in the program.

``perfbench/tracing.py`` attributes time to layers by swapping, for a
traced run, the module and class attributes listed in its ``SITES``
table for span-recording wrappers.  Renaming or dropping one of those
attributes breaks the traced benchmark run; these tests make it break
the test suite too.  The tracer is imported by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def lookup(where, attribute):
    """``(owner, attribute value)`` exactly as ``Tracer.installed`` reads it."""
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        return owner, owner.__dict__[attribute]
    return owner, getattr(owner, attribute)


@pytest.mark.parametrize("site", tracing.SITES, ids=lambda site: f"{site[0]}.{site[1]}")
def test_site_resolves_to_an_existing_attribute(site):
    where, attribute = site[:2]
    _, value = lookup(where, attribute)
    assert callable(value)


def test_installed_wraps_every_site_and_restores_the_originals():
    originals = [lookup(where, attribute)[1] for where, attribute, *_ in tracing.SITES]
    with tracing.Tracer().installed():
        for (where, attribute, *_), original in zip(tracing.SITES, originals):
            wrapped = lookup(where, attribute)[1]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    for (where, attribute, *_), original in zip(tracing.SITES, originals):
        assert lookup(where, attribute)[1] is original
