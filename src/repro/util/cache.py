"""The substrate's one bounded, content-keyed cache.

Every memoization layer under :mod:`repro.box`, :mod:`repro.machine`
and :mod:`repro.cluster` is a :class:`BoundedCache`: a mapping from a
hashable *content* key (never an ``id()``) to a value that is a pure
function of that key.  One policy, stated once:

* **LRU.**  A hit moves the entry to the young end; an insert past
  ``maxsize`` evicts from the old end.  The bound is a constant at the
  definition site, sized from the traffic that cache sees
  (``docs/performance.md`` has the table and what each costs when off).
* **Lookup and insert hold the instance's lock; ``build`` runs outside
  it**, so a slow build never serializes unrelated keys.  Two threads
  that miss the same key both build; the first insert wins and both
  return that one object, so callers can rely on identity.
* **Counted.**  Every lookup increments ``<name>.hits`` or
  ``<name>.misses`` in :func:`repro.util.perf.perf`; instances that
  share a name share a family.

Instances register themselves in a weakly-held process registry, which
is what :func:`clear_all_caches` walks and where the perf report and
the ``cache.<family>.hit_rate`` gauges get their family list.  A cache
owned by a short-lived object (the per-``WorkloadTable`` evaluation
cache) leaves the registry when its owner dies.  Stores that are not
keyed caches but belong in the same report and the same clear-all (the
scratch arena) join with :func:`register_family`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from .perf import perf

__all__ = [
    "BoundedCache",
    "cache_families",
    "clear_all_caches",
    "register_family",
    "registered_caches",
]

V = TypeVar("V")

_MISSING = object()

_REGISTRY_LOCK = threading.Lock()
_CACHES: "weakref.WeakSet[BoundedCache]" = weakref.WeakSet()
#: Names are kept for the life of the process, so a family whose
#: instances have all died still reports the traffic it counted.
_FAMILIES: set[str] = set()
_CLEAR_HOOKS: list[Callable[[], None]] = []


class BoundedCache:
    """A named LRU map with a fixed entry bound (see the module docstring)."""

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = f"{name}.hits"
        self._misses = f"{name}.misses"
        with _REGISTRY_LOCK:
            _CACHES.add(self)
            _FAMILIES.add(name)

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value cached under ``key``, calling ``build()`` on a miss."""
        data = self._data
        with self._lock:
            value = data.get(key, _MISSING)
            if value is not _MISSING:
                data.move_to_end(key)
        if value is not _MISSING:
            perf().inc(self._hits)
            return value
        perf().inc(self._misses)
        value = build()
        with self._lock:
            value = data.setdefault(key, value)
            while len(data) > self.maxsize:
                data.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


def register_family(name: str, clear: Callable[[], None]) -> None:
    """Add a non-``BoundedCache`` store to the report and to clear-all."""
    with _REGISTRY_LOCK:
        _FAMILIES.add(name)
        _CLEAR_HOOKS.append(clear)


def cache_families() -> list[str]:
    """Every family name registered so far, sorted."""
    with _REGISTRY_LOCK:
        return sorted(_FAMILIES)


def registered_caches() -> list[BoundedCache]:
    """The live :class:`BoundedCache` instances."""
    with _REGISTRY_LOCK:
        return list(_CACHES)


def clear_all_caches() -> None:
    """Empty every live cache and run every registered clear hook."""
    with _REGISTRY_LOCK:
        hooks = list(_CLEAR_HOOKS)
    for cache in registered_caches():
        cache.clear()
    for clear in hooks:
        clear()
