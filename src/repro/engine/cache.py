"""Thread-safe LRU caches backing the :class:`~repro.engine.MACEngine`.

The engine keys every prepared artifact (range-filter maps, coreness
decompositions, (k,t)-cores, r-dominance graphs) on a canonicalized
query tuple, so identical requests — and requests that share a prefix of
the pipeline — reuse work.  ``LRUCache.get_or_create`` deduplicates
concurrent builds of the same key: when several batch workers ask for
one missing entry, a single thread computes it and the rest wait on an
event instead of redoing the (potentially seconds-long) build.

Live mutations bracket their network changes with
``begin_mutation``/``end_mutation``: a build that overlaps a mutation
may have read a mix of old and new state, so it still answers its own
caller (ordered before the batch) but is never published.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Hashable


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time telemetry snapshot of one cache."""

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class LRUCache:
    """A small LRU map with hit/miss accounting and build deduplication.

    Values may be ``None`` (the engine caches "this (k,t)-core is empty"
    just like any other answer); presence is tracked by key, not by
    truthiness.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        # Even while idle, odd while a mutation is in progress; a build
        # publishes only if the epoch it was elected at is still current.
        self._epoch = 0

    # ------------------------------------------------------------------
    def get_or_create(
        self,
        key: Hashable,
        factory: Callable[[], Any],
        deadline: Any | None = None,
        epoch: int | None = None,
    ) -> tuple[Any, bool]:
        """Return ``(value, was_hit)``, building via ``factory`` on a miss.

        Concurrent callers with the same missing key block until the one
        elected builder finishes (or, if it raises, the next waiter takes
        over the build).  Waiters that receive a value built by another
        thread count as hits: they paid none of the build cost.

        ``deadline`` (an object with ``remaining()``/``check()``, see
        :class:`repro.deadline.Deadline`) bounds the *wait*: a budgeted
        caller stuck behind someone else's slow build fails typed
        (``check`` raises) instead of blocking unboundedly — without it,
        a deadline-carrying request could hang on ``event.wait()`` for
        the full duration of an unbudgeted caller's build.

        A build that overlapped a mutation (see :meth:`begin_mutation`)
        returns its value to this caller but does not cache it.  A
        factory that uses inputs read before this call passes the
        :attr:`epoch` read before them, which then counts as the start
        of the build.
        """
        while True:
            with self._lock:
                if key in self._data:
                    self._hits += 1
                    self._data.move_to_end(key)
                    return self._data[key], True
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    if epoch is None:
                        epoch = self._epoch
                    elected = True
                else:
                    elected = False
            if not elected:
                if deadline is None:
                    event.wait()
                elif not event.wait(
                    timeout=max(deadline.remaining(), 0.0)
                ):
                    # Timed out waiting on the in-flight build: expired
                    # (check raises) or a clock sliver (loop re-waits).
                    deadline.check("waiting for an in-flight build")
                continue  # re-check: value present, evicted, or build failed
            try:
                value = factory()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()
                raise
            with self._lock:
                self._misses += 1
                if self._is_current(epoch):
                    self._store(key, value)
                self._inflight.pop(key, None)
            event.set()
            return value, False

    def _is_current(self, epoch: int) -> bool:
        return epoch == self._epoch and epoch % 2 == 0

    def _store(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    @property
    def epoch(self) -> int:
        """Token for the ``epoch`` of :meth:`put` / :meth:`get_or_create`."""
        with self._lock:
            return self._epoch

    def begin_mutation(self) -> None:
        """Mark a network mutation in progress: in-flight builds go stale."""
        with self._lock:
            self._epoch += 1

    def end_mutation(self) -> None:
        """Close :meth:`begin_mutation`; builds elected from now publish."""
        with self._lock:
            self._epoch += 1

    def evict_if(self, pred: Callable[[Hashable, Any], bool]) -> int:
        """Drop every entry for which ``pred(key, value)`` is true.

        The dirty-region invalidation hook of :mod:`repro.live`: a
        mutation computes its touched footprint and evicts only the
        entries that intersect it, leaving disjoint hot entries warm.
        Returns the number of entries evicted.  ``pred`` runs under the
        cache lock, so it must be cheap and must not re-enter the cache.
        """
        with self._lock:
            doomed = [
                key for key, value in self._data.items() if pred(key, value)
            ]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    # ------------------------------------------------------------------
    def items(self) -> list[tuple[Hashable, Any]]:
        """Snapshot of ``(key, value)`` pairs, oldest first (no counters).

        The save path of :mod:`repro.store` iterates this to persist
        prepared entries; LRU order and hit/miss accounting are
        untouched.
        """
        with self._lock:
            return list(self._data.items())

    def put(
        self, key: Hashable, value: Any, epoch: int | None = None
    ) -> None:
        """Insert an entry directly (no miss counted).

        Snapshot restore and mutation repair pass no ``epoch``.  A
        caller that computed ``value`` outside :meth:`get_or_create`
        passes the :attr:`epoch` it read first; the entry is dropped if
        a mutation began since.
        """
        with self._lock:
            if epoch is None or self._is_current(epoch):
                self._store(key, value)

    def peek(self, key: Hashable) -> tuple[Any, bool]:
        """``(value, present)`` without touching LRU order or counters."""
        with self._lock:
            if key in self._data:
                return self._data[key], True
            return None, False

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters, keeping every cached entry.

        Worker processes call this at boot so their telemetry reflects
        only the traffic they served — the forked cache *contents*
        (snapshot-warmed stages) stay, but the parent's accounting does
        not leak into per-worker counters.
        """
        with self._lock:
            self._hits = 0
            self._misses = 0

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._data),
                capacity=self.capacity,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats
        return (
            f"LRUCache(size={s.size}/{s.capacity}, hits={s.hits}, "
            f"misses={s.misses})"
        )
