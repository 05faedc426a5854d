"""Every name a ddcn module exports in ``__all__`` exists on that module."""

import importlib
import pkgutil

import ddcn


def test_all_names_resolve():
    names = sorted(m.name for m in pkgutil.iter_modules(ddcn.__path__, "ddcn."))
    assert {"ddcn.cli", "ddcn.data", "ddcn.ops", "ddcn.profile", "ddcn.train"} <= set(names)
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        stale = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        if stale:
            missing[name] = stale
    assert missing == {}
