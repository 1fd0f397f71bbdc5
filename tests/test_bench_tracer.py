"""The traced benchmark run can wrap every package function it names.

``bench/tracer.py`` looks its targets up by attribute, so a renamed or
removed function fails here instead of only in a traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402


def _bindings():
    owners = list(tracer.PACKAGE_MODULES) + [o for o, *_ in tracer.TARGETS if isinstance(o, type)]
    return {(id(o), key): value for o in owners for key, value in vars(o).items()}


def test_install_wraps_targets_and_uninstall_restores():
    before = _bindings()
    t = tracer.Tracer()
    try:
        t.install()
        for owner, attr, _, _ in tracer.TARGETS:
            assert owner.__dict__[attr] is not before[(id(owner), attr)], attr
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
