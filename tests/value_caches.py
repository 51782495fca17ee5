"""Clearing msalg's value caches from tests.

A test that swaps a kernel, or counts the work a call does, must not read
a result an earlier test left in a cache.  clear_msalg_caches finds the
caches by introspection, so a new cache needs no entry in a hand-kept list.
"""

import sys


def msalg_caches() -> list:
    """Every function with cache_clear in a loaded msalg module, each once,
    in module order."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "msalg" or name.startswith("msalg.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found.setdefault(id(value), value)
    return list(found.values())


def clear_msalg_caches() -> None:
    for cache in msalg_caches():
        cache.cache_clear()
