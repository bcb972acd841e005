"""Event tracing: a hub over one column store.

Every component in the reproduction can emit structured records into the
simulator's :class:`TraceRecorder`.  The measurement tools (ping, ttcp, the
agility probe) and the protocol-transition benchmark (Table 1) are built on
top of this trace, which keeps measurement completely decoupled from the
components being measured — the same property the paper gets from
instrumenting its bridge externally with ``ping``/``ttcp``.

The recorder is a *hub* over exactly one store: it applies global and
per-category gating, stamps each record with simulated time and writes it
as one row of its store:

* :class:`ListSink` — the trace store, and the only place a retained record
  lives on any engine.  A record is one row of a flat list of cells; queries
  select rows on those cells and build :class:`TraceRecord` views only for
  the rows they return.  Every recorder gets one by default (each shard of
  a sharded fabric its own).
* :class:`RingBufferSink` — the same store with a capacity: it keeps only
  the newest ``capacity`` records, for long (million-frame) runs that must
  not grow without bound.

Nothing is counted per record.  The hub's live counters
(:attr:`TraceRecorder.counters`, a :class:`CountingSink` of
``(category, source)`` pairs) fold the store's rows in when someone reads
them, which is what lets measurement tools subscribe to live counters
(:class:`CounterWindow`) instead of re-scanning the trace.

Record *details* are rendered lazily: producers on the frame hot path pass a
shared module-level renderer plus its arguments instead of an eager dict, and
the expensive rendering (``frame.describe()`` strings and the like) only
happens if some consumer actually reads :attr:`TraceRecord.detail`.  A
store row holds floats, strings, small integers, the shared renderer and up
to two flattened arguments, so it adds no object the cyclic garbage
collector tracks.  Producers guard even the argument packing with
:meth:`TraceRecorder.wants`.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from itertools import count as count_from
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.sim.clock import Clock

#: What producers may pass as a record's detail: nothing, an eager mapping,
#: or a callable returning one, called with the record's trailing emit
#: arguments on first access.
DetailSource = Union[None, Dict[str, Any], Callable[..., Dict[str, Any]]]


class TraceRecord:
    """A single trace record.

    Attributes:
        time: simulated time (seconds) the record was emitted.
        source: name of the component that emitted the record
            (e.g. ``"bridge1"``, ``"host-a"``, ``"control-switchlet"``).
        category: machine-readable record category
            (e.g. ``"frame.rx"``, ``"stp.state"``, ``"transition"``).
        detail: free-form key/value payload.  May be produced lazily: when
            the producer supplied a callable it runs on first access, as
            ``detail(*args)``, and the result is cached on the record and
            the record's own reference to the arguments released, so
            untouched hot-path records never pay for rendering.
        shard: index of the fabric shard that emitted the record; ``None``
            on a plain recorder.

    ``shard`` is deliberately ignored by equality: a sharded and an
    unsharded run compare record-for-record even though only one of them
    carries a shard.
    """

    __slots__ = ("time", "source", "category", "_detail", "_args", "shard")

    def __init__(
        self,
        time: float,
        source: str,
        category: str,
        detail: DetailSource = None,
        args: tuple = (),
        shard: Optional[int] = None,
    ) -> None:
        self.time = time
        self.source = source
        self.category = category
        self._detail = detail
        self._args = args
        self.shard = shard

    @property
    def detail(self) -> Dict[str, Any]:
        """The record's payload, rendering (and caching) it if it was lazy."""
        payload = self._detail
        if payload is None:
            payload = {}
            self._detail = payload
        elif callable(payload):
            payload = dict(payload(*self._args))
            self._detail = payload
            self._args = ()
        return payload

    @property
    def detail_is_rendered(self) -> bool:
        """Whether the payload has been rendered yet (diagnostics/tests)."""
        return not callable(self._detail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.source == other.source
            and self.category == other.category
            and self.detail == other.detail
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecord(time={self.time!r}, source={self.source!r}, "
            f"category={self.category!r}, detail={self.detail!r})"
        )


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def _count_pairs(
    pairs: Dict[Tuple[str, str], int],
    category: Optional[str],
    source: Optional[str],
) -> int:
    """Count matching records in a (category, source) -> n pair table."""
    if category is not None and source is not None:
        return pairs.get((category, source), 0)
    if category is None and source is None:
        return sum(pairs.values())
    if source is None:
        return sum(n for (c, _s), n in pairs.items() if c == category)
    return sum(n for (_c, s), n in pairs.items() if s == source)


class CountingSink:
    """Live counters in O(distinct (category, source) pairs) memory.

    The type of :attr:`TraceRecorder.counters`.  It holds a single pair
    table, in first-seen order, which the hub's store folds its rows into
    when the counters are read; the aggregate views (:attr:`total`,
    :attr:`by_category`, :attr:`by_source`) are derived on read, which costs
    O(pairs) — pairs number in the dozens, so queries are effectively O(1).
    """

    def __init__(self) -> None:
        self.by_category_source: Dict[Tuple[str, str], int] = {}

    @property
    def total(self) -> int:
        """Total records seen."""
        return sum(self.by_category_source.values())

    @property
    def by_category(self) -> Dict[str, int]:
        """Per-category totals (derived; a fresh dict each access)."""
        out: Dict[str, int] = {}
        for (category, _source), n in self.by_category_source.items():
            out[category] = out.get(category, 0) + n
        return out

    @property
    def by_source(self) -> Dict[str, int]:
        """Per-source totals (derived; a fresh dict each access)."""
        out: Dict[str, int] = {}
        for (_category, source), n in self.by_category_source.items():
            out[source] = out.get(source, 0) + n
        return out

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of records seen matching the criteria."""
        return _count_pairs(self.by_category_source, category, source)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the per-category counters (for reports)."""
        return self.by_category

    def clear(self) -> None:
        self.by_category_source.clear()


class CounterWindow:
    """Deltas of a hub's live counters over a measurement window.

    Measurement tools open a window when a trial starts and read counter
    deltas when it ends — no re-scan of the record list, and it works even
    when a :class:`RingBufferSink` has evicted the records (the hub's
    counters are always live).
    """

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder
        self._start_pairs = dict(recorder.counters.by_category_source)

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Records captured since the window opened, matching the criteria."""
        now = _count_pairs(
            self._recorder.counters.by_category_source, category, source
        )
        return now - _count_pairs(self._start_pairs, category, source)


#: The cells of one store row, in order.  A record's emit arguments are
#: flattened: the first two sit in ``first`` and ``second`` and ``count``
#: says how many there were; a longer argument tuple is kept whole in
#: ``first``.
FIELDS = ("time", "source", "category", "detail", "shard", "first", "second", "count")
_TIME, _SOURCE, _CATEGORY, _DETAIL, _SHARD, _FIRST, _SECOND, _COUNT = range(len(FIELDS))
_WIDTH = len(FIELDS)


class ListSink:
    """The trace store: every retained record is one row of a flat list.

    A row is :data:`FIELDS`, ``len(FIELDS)`` consecutive cells: floats,
    strings, small integers, the detail (usually a shared renderer) and up to
    two flattened emit arguments.  It adds no object the cyclic garbage
    collector tracks beyond the objects its arguments name (frames,
    interfaces), and a write is one ``list.extend``.

    Rows are numbered in emission order from 0 (since the last
    :meth:`clear`).  Queries select row numbers on the cells — by category
    or source through a lazily built index of row numbers, so such a query
    costs O(matches) — and build :class:`TraceRecord` views only for the
    rows they return.  A view renders a lazy detail on its first read and
    caches it on itself; the store keeps the renderer and its arguments
    until the row is evicted or cleared, so a view built by a later query
    renders afresh.

    **Counters fold on read.**  The hub that holds a store binds it to its
    ``(category, source)`` pair table and counts nothing per record;
    :meth:`fold` adds the rows written since the last fold, at C speed, when
    someone reads the counters.  A store belongs to the one hub it was
    given to: a second hub refuses it, so its queries and its counters
    always describe the same records.
    """

    #: Rows kept before the oldest is overwritten; ``None`` keeps every row.
    capacity: Optional[int] = None

    def __init__(self) -> None:
        self._rows: list = []
        # Row n lives at cell (n % _modulus) * _WIDTH: a ring wraps, an
        # unbounded store never does.
        self._modulus = sys.maxsize
        self._cells: Optional[int] = None
        #: Rows that have fallen off the old end (always 0 when unbounded).
        self.evicted = 0
        # A ring's write cell once it is full: the oldest row's.
        self._head = 0
        # The pair table rows fold into, and the rows already folded.
        self._pairs: Optional[Dict[Tuple[str, str], int]] = None
        self._folded = 0
        # Lazy indexes: field offset -> ({value: ascending row numbers},
        # rows indexed so far).
        self._indexes: Dict[int, list] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _writer(self) -> Callable[[tuple], None]:
        """The one-call row writer behind the hub's :meth:`~TraceRecorder.emit`."""
        return self._rows.extend if self._cells is None else self._write

    def _write(self, row: tuple) -> None:
        rows = self._rows
        cells = self._cells
        if cells is None or len(rows) < cells:
            rows.extend(row)
            return
        head = self._head
        if not head:
            # The lap fold: count every row before this lap overwrites it.
            self.fold()
        rows[head:head + _WIDTH] = row
        head += _WIDTH
        self._head = 0 if head == cells else head
        self.evicted += 1

    # ------------------------------------------------------------------
    # Row numbers and cells
    # ------------------------------------------------------------------

    def _end(self) -> int:
        """One past the newest row's number."""
        return self.evicted + len(self._rows) // _WIDTH

    def _spans(self, first: int, end: int) -> tuple:
        """Cell ranges holding rows ``first`` to ``end - 1``, oldest first."""
        if first >= end:
            return ()
        start = (first % self._modulus) * _WIDTH
        stop = start + (end - first) * _WIDTH
        cells = self._cells
        if cells is None or stop <= cells:
            return ((start, stop),)
        return ((start, cells), (0, stop - cells))

    def _field(self, offset: int, start: int, stop: int) -> Iterator:
        """One field of the rows in cells ``start`` to ``stop``, without a copy."""
        return map(self._rows.__getitem__, range(start + offset, stop, _WIDTH))

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def _bind(self, pairs: Dict[Tuple[str, str], int]) -> None:
        """Fold into ``pairs`` from the next row on (once, by the owning hub)."""
        self._pairs = pairs
        self._folded = self._end()

    def fold(self) -> None:
        """Count the rows written since the last fold into the bound table.

        Pairs enter the table in first-seen emission order.
        """
        pairs = self._pairs
        end = self._end()
        if pairs is None or self._folded == end:
            return
        fresh: Counter = Counter()
        for start, stop in self._spans(self._folded, end):
            fresh.update(
                zip(self._field(_CATEGORY, start, stop), self._field(_SOURCE, start, stop))
            )
        for pair, n in fresh.items():
            pairs[pair] = pairs.get(pair, 0) + n
        self._folded = end

    def recount(self) -> None:
        """Fold every retained row again (its table was cleared)."""
        self._folded = self.evicted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _index(self, offset: int) -> Dict[Any, List[int]]:
        """``{value: ascending retained row numbers}`` for one field."""
        entry = self._indexes.get(offset)
        if entry is None:
            entry = self._indexes[offset] = [{}, 0]
        index, indexed = entry
        end = self._end()
        oldest = self.evicted
        first = max(indexed, oldest)
        for start, stop in self._spans(first, end):
            numbers = count_from(first)
            for value, number in zip(self._field(offset, start, stop), numbers):
                bucket = index.get(value)
                if bucket is None:
                    bucket = index[value] = []
                bucket.append(number)
            first += (stop - start) // _WIDTH
        entry[1] = end
        if oldest:
            for bucket in index.values():
                if bucket and bucket[0] < oldest:
                    del bucket[: bisect_left(bucket, oldest)]
        return index

    def _candidates(self, category: Optional[str], source: Optional[str]):
        """Ascending numbers of the rows that can match; exact for one criterion."""
        if category is None and source is None:
            return range(self.evicted, self._end())
        if category is None:
            return self._index(_SOURCE).get(source, ())
        by_category = self._index(_CATEGORY).get(category, ())
        if source is None:
            return by_category
        by_source = self._index(_SOURCE).get(source, ())
        return by_category if len(by_category) <= len(by_source) else by_source

    def _matches(
        self,
        category: Optional[str],
        source: Optional[str],
        since: Optional[float],
        until: Optional[float],
        newest_first: bool = False,
    ) -> Iterator[int]:
        candidates = self._candidates(category, source)
        if newest_first:
            candidates = reversed(candidates)
        rows = self._rows
        modulus = self._modulus
        for number in candidates:
            cell = (number % modulus) * _WIDTH
            if category is not None and rows[cell + _CATEGORY] != category:
                continue
            if source is not None and rows[cell + _SOURCE] != source:
                continue
            if since is not None and rows[cell + _TIME] < since:
                continue
            if until is not None and rows[cell + _TIME] > until:
                continue
            yield number

    def select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[int]:
        """Numbers of the retained rows matching every criterion, oldest first."""
        if (category is None or source is None) and since is None and until is None:
            return list(self._candidates(category, source))
        return list(self._matches(category, source, since, until))

    def column(self, field: str, numbers: Iterable[int]) -> list:
        """One field (a name in :data:`FIELDS`) of the given rows."""
        offset = FIELDS.index(field)
        rows = self._rows
        modulus = self._modulus
        return [rows[(number % modulus) * _WIDTH + offset] for number in numbers]

    def canonical_keys(self, numbers: List[int], *ties: Iterable) -> Iterator[tuple]:
        """Canonical merge keys ``(time, source, category, *ties, row)``.

        Sorted, the keys put the rows in the canonical order; ``ties``
        (a fabric passes the shard index) and the row number break ties.
        """
        return zip(
            self.column("time", numbers), self.column("source", numbers),
            self.column("category", numbers), *ties, numbers,
        )

    def view(self, number: int) -> TraceRecord:
        """A :class:`TraceRecord` for the retained row ``number``."""
        cell = (number % self._modulus) * _WIDTH
        time, source, category, detail, shard, first, second, count = (
            self._rows[cell:cell + _WIDTH]
        )
        if count == 1:
            args: tuple = (first,)
        elif count == 2:
            args = (first, second)
        elif count == 0:
            args = ()
        else:
            args = first
        return TraceRecord(time, source, category, detail, args, shard)

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    def __iter__(self) -> Iterator[TraceRecord]:
        """Views of the rows retained when iteration starts, oldest first."""
        return map(self.view, range(self.evicted, self._end()))

    @property
    def records(self) -> List[TraceRecord]:
        """Views of the retained records, oldest first (a new list)."""
        return list(self)

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Views of the retained records matching every provided criterion."""
        return list(map(self.view, self.select(category, source, since, until)))

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of retained records matching the criteria."""
        if category is None or source is None:
            return len(self._candidates(category, source))
        return sum(1 for _number in self._matches(category, source, None, None))

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent retained record matching the criteria, if any."""
        for number in self._matches(category, source, None, None, newest_first=True):
            return self.view(number)
        return None

    # ------------------------------------------------------------------
    # Bulk access (the process backend ships unbounded stores' rows home)
    # ------------------------------------------------------------------

    def rows_from(self, first: int) -> List[tuple]:
        """Rows ``first`` onwards as ``(time, source, category, detail)``.

        Lazy details are rendered and the arguments dropped, so the rows
        pickle without the frames a renderer's arguments reference.
        """
        rows = self._rows
        out = []
        for number in range(first, self._end()):
            cell = (number % self._modulus) * _WIDTH
            time, source, category, detail = rows[cell:cell + _SHARD]
            if callable(detail):
                detail = self.view(number).detail
            out.append((time, source, category, detail))
        return out

    def truncate(self, length: int) -> None:
        """Drop every row from ``length`` on (an unbounded store)."""
        del self._rows[length * _WIDTH:]
        self._folded = min(self._folded, length)
        self._indexes.clear()

    def extend(self, entries: Iterable[tuple], shard: Optional[int]) -> None:
        """Append rows in the :meth:`rows_from` form, emitted by ``shard``."""
        for time, source, category, detail in entries:
            self._write((time, source, category, detail, shard, None, None, 0))

    def clear(self) -> None:
        """Drop every row; rows not yet counted are folded in first."""
        self.fold()
        # Cleared in place: the hub holds this list's bound ``extend``.
        self._rows.clear()
        self.evicted = 0
        self._head = 0
        self._folded = 0
        self._indexes.clear()


class RingBufferSink(ListSink):
    """The trace store with a capacity: only the newest ``capacity`` records.

    The rows grow to ``capacity`` and are then overwritten in place, oldest
    first; every write replaces every cell of the row, so an evicted record
    keeps nothing alive.  Before a lap starts overwriting, the ring folds
    its rows into the hub's counters, so the live counters still see every
    record ever emitted.  :attr:`evicted` counts records that have fallen
    off the old end.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        super().__init__()
        self.capacity = int(capacity)
        self._modulus = self.capacity
        self._cells = self.capacity * _WIDTH


# ---------------------------------------------------------------------------
# The hub
# ---------------------------------------------------------------------------


class TraceRecorder:
    """The trace hub: gates, stamps and stores records.

    Args:
        clock: the simulated clock used to timestamp records.
        trace_sinks: ``None`` for a fresh :class:`ListSink`, or a one-element
            sequence holding the :class:`ListSink` or :class:`RingBufferSink`
            to write instead, which no other recorder holds.  Anything else
            raises :class:`TypeError`.
        counters: a sharded fabric's shared counters; by default the hub
            keeps its own.
        shard: the index of the fabric shard this recorder belongs to.

    The hub holds exactly one store (:attr:`store`), and :meth:`emit`
    writes one row into it.  Queries (:meth:`filter`, :meth:`last`,
    iteration, and :meth:`canonical_records`) read the store's retained
    rows.  :meth:`count`, :meth:`__len__` and :attr:`counters` read the
    live counters, which fold the store's rows in when read, so they also
    count what a ring has evicted.
    """

    def __init__(
        self,
        clock: Clock,
        trace_sinks: Optional[Sequence[ListSink]] = None,
        counters: Optional[CountingSink] = None,
        shard: Optional[int] = None,
    ) -> None:
        if trace_sinks is None:
            store = ListSink()
        elif (
            isinstance(trace_sinks, Sequence)
            and len(trace_sinks) == 1
            and isinstance(trace_sinks[0], ListSink)
        ):
            store = trace_sinks[0]
        else:
            raise TypeError(
                "trace_sinks: expected None or a one-element sequence holding "
                f"a ListSink or a RingBufferSink, got {trace_sinks!r}"
            )
        if store._pairs is not None:
            raise TypeError(
                f"trace_sinks: the {type(store).__name__} already belongs to "
                "another trace recorder; give each simulator a store of its own"
            )
        self._clock = clock
        self._enabled = True
        self._disabled_categories: set = set()
        self._counters = counters if counters is not None else CountingSink()
        self._shard = shard
        self._store = store
        store._bind(self._counters.by_category_source)
        self._write = store._writer()
        # Brings the counters up to date: this store's fold, or on a sharded
        # fabric every shard store's (the counters are fabric-wide).
        self._fold: Callable[[], None] = store.fold

    @property
    def store(self) -> ListSink:
        """The store every record is written to and every query reads."""
        return self._store

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether records are currently being captured."""
        return self._enabled

    def disable(self) -> None:
        """Stop capturing records."""
        self._enabled = False

    def enable(self) -> None:
        """Resume capturing records."""
        self._enabled = True

    def disable_category(self, category: str) -> None:
        """Suppress one category: its records are not written."""
        self._disabled_categories.add(category)

    def enable_category(self, category: str) -> None:
        """Re-enable a previously disabled category."""
        self._disabled_categories.discard(category)

    @property
    def disabled_categories(self) -> frozenset:
        """The categories currently gated off."""
        return frozenset(self._disabled_categories)

    def wants(self, category: str) -> bool:
        """Whether a record in ``category`` would currently be captured.

        Hot-path producers call this before packing even the lazy detail
        arguments, so a gated category costs one set lookup per record.
        """
        return self._enabled and category not in self._disabled_categories

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def emit(
        self, source: str, category: str, detail: DetailSource = None, *args: Any
    ) -> None:
        """Write a record stamped with the current simulated time.

        ``detail`` may be an eager dict or a callable rendered as
        ``detail(*args)`` only when some consumer reads
        :attr:`TraceRecord.detail`.  Frame-path producers pass a shared
        module-level renderer and its arguments, never a per-record closure.
        A record that passes the gate becomes one store row, its arguments
        flattened as :data:`FIELDS` describes; read it back with
        :meth:`last` or :meth:`filter`.
        """
        if not self._enabled or category in self._disabled_categories:
            return
        count = len(args)
        if count == 1:
            first = args[0]
            second = None
        elif count == 2:
            first, second = args
        elif count == 0:
            first = second = None
        else:
            first = args
            second = None
        self._write(
            (
                self._clock._now_s, source, category, detail, self._shard,
                first, second, count,
            )
        )

    def record(self, source: str, category: str, **detail: Any) -> None:
        """Back-compat eager form of :meth:`emit` (keyword arguments as detail)."""
        self.emit(source, category, detail if detail else None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def counters(self) -> CountingSink:
        """The live ``(category, source)`` counters, folded up to date."""
        self._fold()
        return self._counters

    def __len__(self) -> int:
        """Total records captured since construction / the last :meth:`clear`."""
        return self.counters.total

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate the records retained by the store."""
        return iter(self._store)

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records retained by the store matching every criterion."""
        return self._store.filter(category, source, since, until)

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of records captured matching the criteria (live)."""
        return self.counters.count(category=category, source=source)

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent retained record matching the criteria, if any."""
        return self._store.last(category, source)

    def canonical_records(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> List[TraceRecord]:
        """The retained records matching the criteria, in the canonical order.

        The canonical key is ``(time, source, category)``, and ties keep
        emission order.  Every engine offers this order
        (:meth:`repro.sim.fabric.FabricTrace.canonical_records` on a
        fabric), so a fabric run compares record for record with this
        engine's.  Rows are selected on ``category`` and ``source`` before
        the sort.
        """
        store = self._store
        keys = sorted(store.canonical_keys(store.select(category, source)))
        return [store.view(key[-1]) for key in keys]

    def clear(self) -> None:
        """Drop all captured records and reset the live counters."""
        self._store.clear()
        self._counters.clear()
