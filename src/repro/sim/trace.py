"""Event tracing: a dispatch hub with pluggable sinks.

Every component in the reproduction can emit structured records into the
simulator's :class:`TraceRecorder`.  The measurement tools (ping, ttcp, the
agility probe) and the protocol-transition benchmark (Table 1) are built on
top of this trace, which keeps measurement completely decoupled from the
components being measured — the same property the paper gets from
instrumenting its bridge externally with ``ping``/``ttcp``.

The recorder itself is only a *hub*: it stamps records with simulated time,
applies global and per-category gating, and dispatches to composable sinks:

* :class:`ListSink` — keeps every record, with per-category and per-source
  indexes so :meth:`TraceRecorder.filter` / :meth:`TraceRecorder.last` cost
  O(matches) instead of O(all records).  One is installed by default.
* :class:`RingBufferSink` — keeps only the newest ``capacity`` records, for
  long (million-frame) runs that must not grow without bound.  It stores
  record fields in parallel columns and builds :class:`TraceRecord` views on
  query; as a hub's only sink it takes each record's fields straight from
  :meth:`TraceRecorder.emit`, so no record object is ever built.
* :class:`CountingSink` — O(1)-memory per-category / per-source counters.
  The hub always maintains one internally (:attr:`TraceRecorder.counters`),
  which is what makes :meth:`TraceRecorder.count` O(1) and lets measurement
  tools subscribe to live counters instead of re-scanning the trace.
* :class:`NullSink` — discards everything (benchmarking floor).

Record *details* are rendered lazily: producers on the frame hot path pass a
shared module-level renderer plus its arguments instead of an eager dict, and
the expensive rendering (``frame.describe()`` strings and the like) only
happens if some consumer actually reads :attr:`TraceRecord.detail`.  A
retained record therefore holds two objects the cyclic garbage collector
tracks — itself and its argument tuple — where a per-record closure would
add a function, its closure tuple and a cell per captured variable.
Producers guard even the argument packing with :meth:`TraceRecorder.wants`.
"""

from __future__ import annotations

from itertools import chain
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
            ``detail(*args)``, and the result is cached and the arguments
            released, so untouched hot-path records never pay for rendering.
        seq: global emission sequence number, stamped by the sharded fabric's
            per-shard recorders so per-shard streams merge back into the
            exact single-engine emission order; ``None`` on records emitted
            by a plain (unsharded) recorder.  Deliberately ignored by
            equality: a sharded and an unsharded run compare record-for-record
            even though only one of them carries merge keys.
    """

    __slots__ = ("time", "source", "category", "_detail", "seq", "_args")

    def __init__(
        self,
        time: float,
        source: str,
        category: str,
        detail: DetailSource = None,
        seq: Optional[int] = None,
        args: tuple = (),
    ) -> None:
        self.time = time
        self.source = source
        self.category = category
        self._detail = detail
        self.seq = seq
        self._args = args

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


def match_records(
    records: Iterable[TraceRecord],
    category: Optional[str] = None,
    source: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[TraceRecord]:
    """Records matching every provided criterion, preserving input order.

    The shared predicate behind :meth:`TraceRecorder.filter` and the sharded
    fabric's stream queries.
    """
    selected = []
    for entry in records:
        if category is not None and entry.category != category:
            continue
        if source is not None and entry.source != source:
            continue
        if since is not None and entry.time < since:
            continue
        if until is not None and entry.time > until:
            continue
        selected.append(entry)
    return selected


def last_match(
    records: "List[TraceRecord]",
    category: Optional[str] = None,
    source: Optional[str] = None,
) -> Optional[TraceRecord]:
    """The most recent record matching the criteria, if any."""
    for entry in reversed(records):
        if category is not None and entry.category != category:
            continue
        if source is not None and entry.source != source:
            continue
        return entry
    return None


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TraceSink:
    """Base class for trace sinks.  Subclasses implement :meth:`accept`."""

    def accept(self, record: TraceRecord) -> None:
        """Receive one record (called synchronously by the hub)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop any retained state (records, counters)."""


class NullSink(TraceSink):
    """Discards every record; the floor for trace-overhead benchmarks."""

    def accept(self, record: TraceRecord) -> None:
        pass


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


class CountingSink(TraceSink):
    """Live counters in O(distinct (category, source) pairs) memory.

    The accept path maintains a single pair table (one dict update per
    record); the aggregate views (:attr:`total`, :attr:`by_category`,
    :attr:`by_source`) are derived on read, which costs O(pairs) — pairs
    number in the dozens, so queries are effectively O(1) while the hot path
    pays the bare minimum.
    """

    def __init__(self) -> None:
        self.by_category_source: Dict[Tuple[str, str], int] = {}

    def accept(self, record: TraceRecord) -> None:
        pair = (record.category, record.source)
        by_pair = self.by_category_source
        by_pair[pair] = by_pair.get(pair, 0) + 1

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
    deltas when it ends — O(1) per query, no re-scan of the record list, and
    it works even when only a :class:`NullSink` or :class:`RingBufferSink` is
    installed (the hub's internal :class:`CountingSink` is always live).
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


class ListSink(TraceSink):
    """Keeps every record, indexed by category and by source.

    The indexes make :meth:`filter`, :meth:`count` and :meth:`last` cost
    O(matching records) rather than O(all records): single-criterion queries
    walk only the matching index list, and two-criterion queries walk the
    shorter of the two.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._by_category: Dict[str, List[TraceRecord]] = {}
        self._by_source: Dict[str, List[TraceRecord]] = {}
        self._indexed_upto = 0

    def accept(self, record: TraceRecord) -> None:
        # One list append on the hot path; the indexes catch up lazily on
        # the next query (queries happen between runs, not per frame).
        self._records.append(record)

    def _refresh_index(self) -> None:
        records = self._records
        upto = self._indexed_upto
        total = len(records)
        if upto == total:
            return
        by_category = self._by_category
        by_source = self._by_source
        for index in range(upto, total):
            record = records[index]
            bucket = by_category.get(record.category)
            if bucket is None:
                bucket = by_category[record.category] = []
            bucket.append(record)
            bucket = by_source.get(record.source)
            if bucket is None:
                bucket = by_source[record.source] = []
            bucket.append(record)
        self._indexed_upto = total

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (a copy)."""
        return list(self._records)

    def _candidates(
        self, category: Optional[str], source: Optional[str]
    ) -> List[TraceRecord]:
        """The smallest index list guaranteed to contain every match."""
        self._refresh_index()
        if category is not None and source is not None:
            by_category = self._by_category.get(category, [])
            by_source = self._by_source.get(source, [])
            return by_category if len(by_category) <= len(by_source) else by_source
        if category is not None:
            return self._by_category.get(category, [])
        if source is not None:
            return self._by_source.get(source, [])
        return self._records

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Return records matching every provided criterion."""
        selected = []
        for entry in self._candidates(category, source):
            if category is not None and entry.category != category:
                continue
            if source is not None and entry.source != source:
                continue
            if since is not None and entry.time < since:
                continue
            if until is not None and entry.time > until:
                continue
            selected.append(entry)
        return selected

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of retained records matching the criteria."""
        if category is None and source is None:
            return len(self._records)
        self._refresh_index()
        if source is None:
            return len(self._by_category.get(category, []))
        if category is None:
            return len(self._by_source.get(source, []))
        return len(self.filter(category=category, source=source))

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent record matching the criteria, if any."""
        for entry in reversed(self._candidates(category, source)):
            if category is not None and entry.category != category:
                continue
            if source is not None and entry.source != source:
                continue
            return entry
        return None

    def clear(self) -> None:
        self._records.clear()
        self._by_category.clear()
        self._by_source.clear()
        self._indexed_upto = 0


class RingBufferSink(TraceSink):
    """Keeps only the newest ``capacity`` records (bounded memory).

    Records are kept as parallel columns, not as :class:`TraceRecord`
    objects: time, source, category, detail, seq, the first two emit
    arguments (flattened) and the argument count.  A longer argument tuple
    is stored whole in the first argument column.  The columns grow to
    ``capacity`` and are then overwritten in place, oldest slot first; every
    write replaces both argument cells, so an evicted record keeps nothing
    alive.  A retained record is thus floats, strings, small integers and a
    shared renderer: it adds no object the cyclic garbage collector tracks,
    beyond the objects its arguments name (frames, interfaces).

    Iteration, :attr:`records`, :meth:`filter` and :meth:`last` build
    :class:`TraceRecord` views, oldest first.  A view renders a lazy detail
    on its first read and caches it; the ring keeps the renderer and its
    arguments, so a view built by a later query renders afresh.
    :attr:`evicted` counts records that have fallen off the old end.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = int(capacity)
        self._times: List[float] = []
        self._sources: List[str] = []
        self._categories: List[str] = []
        self._details: List[DetailSource] = []
        self._seqs: List[Optional[int]] = []
        self._first_args: list = []
        self._second_args: list = []
        self._arg_counts: List[int] = []
        # The oldest record's slot once the columns are full (and so the
        # next one to overwrite); 0 while they are still growing.
        self._oldest = 0
        self.evicted = 0

    def store(
        self,
        time: float,
        source: str,
        category: str,
        detail: DetailSource,
        seq: Optional[int],
        args: tuple,
    ) -> None:
        """Retain one record given as fields (the hub's emit store path)."""
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
        times = self._times
        if len(times) < self.capacity:
            times.append(time)
            self._sources.append(source)
            self._categories.append(category)
            self._details.append(detail)
            self._seqs.append(seq)
            self._first_args.append(first)
            self._second_args.append(second)
            self._arg_counts.append(count)
            return
        slot = self._oldest
        times[slot] = time
        self._sources[slot] = source
        self._categories[slot] = category
        self._details[slot] = detail
        self._seqs[slot] = seq
        self._first_args[slot] = first
        self._second_args[slot] = second
        self._arg_counts[slot] = count
        slot += 1
        self._oldest = 0 if slot == self.capacity else slot
        self.evicted += 1

    def accept(self, record: TraceRecord) -> None:
        self.store(
            record.time,
            record.source,
            record.category,
            record._detail,
            record.seq,
            record._args,
        )

    def _view(self, slot: int) -> TraceRecord:
        """A :class:`TraceRecord` for the record in ``slot``."""
        count = self._arg_counts[slot]
        if count == 0:
            args: tuple = ()
        elif count == 1:
            args = (self._first_args[slot],)
        elif count == 2:
            args = (self._first_args[slot], self._second_args[slot])
        else:
            args = self._first_args[slot]
        return TraceRecord(
            self._times[slot],
            self._sources[slot],
            self._categories[slot],
            self._details[slot],
            self._seqs[slot],
            args,
        )

    def _slots(self, newest_first: bool = False) -> Iterable[int]:
        """Slot indices in emission order (or reversed)."""
        oldest = self._oldest
        size = len(self._times)
        if newest_first:
            return chain(range(oldest - 1, -1, -1), range(size - 1, oldest - 1, -1))
        return chain(range(oldest, size), range(oldest))

    def _matches(
        self,
        category: Optional[str],
        source: Optional[str],
        since: Optional[float] = None,
        until: Optional[float] = None,
        newest_first: bool = False,
    ) -> Iterator[int]:
        """Slots of the retained records matching every provided criterion."""
        times = self._times
        sources = self._sources
        categories = self._categories
        for slot in self._slots(newest_first):
            if category is not None and categories[slot] != category:
                continue
            if source is not None and sources[slot] != source:
                continue
            if since is not None and times[slot] < since:
                continue
            if until is not None and times[slot] > until:
                continue
            yield slot

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def records(self) -> List[TraceRecord]:
        """Views of the retained records, oldest first (a new list)."""
        return [self._view(slot) for slot in self._slots()]

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records in the retained window matching every provided criterion."""
        return [
            self._view(slot) for slot in self._matches(category, source, since, until)
        ]

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of retained records matching the criteria."""
        if category is None and source is None:
            return len(self._times)
        return sum(1 for _slot in self._matches(category, source))

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent retained record matching the criteria, if any."""
        for slot in self._matches(category, source, newest_first=True):
            return self._view(slot)
        return None

    def clear(self) -> None:
        for column in (
            self._times,
            self._sources,
            self._categories,
            self._details,
            self._seqs,
            self._first_args,
            self._second_args,
            self._arg_counts,
        ):
            column.clear()
        self._oldest = 0
        self.evicted = 0


# ---------------------------------------------------------------------------
# The hub
# ---------------------------------------------------------------------------


class TraceRecorder:
    """The trace hub: stamps, gates and dispatches records to sinks.

    Args:
        clock: the simulated clock used to timestamp records.
        sinks: initial sinks; defaults to a single :class:`ListSink`, which
            preserves the historical "append-only, filterable list" API
            (iteration, :meth:`filter`, :meth:`last`).

    Queries (:meth:`filter`, :meth:`last`, iteration) are served by the first
    queryable sink (:class:`ListSink` or :class:`RingBufferSink`);
    :meth:`count` and :meth:`__len__` are served by the always-on internal
    :class:`CountingSink` (:attr:`counters`) and are therefore O(1) and
    independent of which sinks are installed.

    When a :class:`RingBufferSink` is the only sink and no listener is
    registered, :meth:`emit` hands the record's fields straight to the ring
    (:meth:`RingBufferSink.store`), builds no :class:`TraceRecord` and
    returns ``None``.
    """

    def __init__(self, clock: Clock, sinks: Optional[Iterable[TraceSink]] = None) -> None:
        self._clock = clock
        self._enabled = True
        self._listeners: List[Callable[[TraceRecord], None]] = []
        self._disabled_categories: set = set()
        self.counters = CountingSink()
        self._sinks: List[TraceSink] = list(sinks) if sinks is not None else [ListSink()]
        self._primary: Optional[TraceSink] = None
        self._store: Optional[Callable[..., None]] = None
        self._refresh_dispatch()

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------

    def _refresh_dispatch(self) -> None:
        """Re-derive the query sink and the emit store path."""
        sinks = self._sinks
        self._primary = next((sink for sink in sinks if hasattr(sink, "filter")), None)
        sole = sinks[0] if len(sinks) == 1 else None
        if type(sole) is RingBufferSink and not self._listeners:
            self._store = sole.store
        else:
            self._store = None

    @property
    def sinks(self) -> Tuple[TraceSink, ...]:
        """The installed sinks, in dispatch order."""
        return tuple(self._sinks)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Install an additional sink and return it."""
        self._sinks.append(sink)
        self._refresh_dispatch()
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Uninstall a sink (no-op if it is not installed)."""
        if sink in self._sinks:
            self._sinks.remove(sink)
            self._refresh_dispatch()

    def set_sinks(self, sinks: Iterable[TraceSink]) -> None:
        """Replace the installed sinks wholesale."""
        self._sinks = list(sinks)
        self._refresh_dispatch()

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether records are currently being captured."""
        return self._enabled

    def disable(self) -> None:
        """Stop capturing records (sinks and listeners stop firing)."""
        self._enabled = False

    def enable(self) -> None:
        """Resume capturing records."""
        self._enabled = True

    def disable_category(self, category: str) -> None:
        """Suppress one category: neither sinks nor listeners see it."""
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

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked synchronously for every new record."""
        self._listeners.append(listener)
        self._refresh_dispatch()

    def remove_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Unregister a listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)
            self._refresh_dispatch()

    def emit(
        self, source: str, category: str, detail: DetailSource = None, *args: Any
    ) -> Optional[TraceRecord]:
        """Dispatch a record stamped with the current simulated time.

        ``detail`` may be an eager dict or a callable rendered as
        ``detail(*args)`` only when some consumer reads
        :attr:`TraceRecord.detail`.  Frame-path producers pass a shared
        module-level renderer and its arguments, never a per-record closure.
        Returns the record, or ``None`` when it was gated off or went down
        the ring store path (see the class docstring).
        """
        if not self._enabled or category in self._disabled_categories:
            return None
        # Inline the internal counter update: this runs for every record and
        # a method call per record is measurable on the frame hot path.
        pair = (category, source)
        by_pair = self.counters.by_category_source
        by_pair[pair] = by_pair.get(pair, 0) + 1
        store = self._store
        if store is not None:
            store(self._clock._now_s, source, category, detail, None, args)
            return None
        entry = TraceRecord(self._clock._now_s, source, category, detail, None, args)
        for sink in self._sinks:
            sink.accept(entry)
        for listener in self._listeners:
            listener(entry)
        return entry

    def record(self, source: str, category: str, **detail: Any) -> Optional[TraceRecord]:
        """Back-compat eager form of :meth:`emit` (keyword arguments as detail)."""
        return self.emit(source, category, detail if detail else None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total records captured since construction / the last :meth:`clear`."""
        return self.counters.total

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate the records retained by the primary queryable sink."""
        if self._primary is None:
            return iter(())
        return iter(self._primary)  # type: ignore[arg-type]

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records retained by the primary sink matching every criterion."""
        if self._primary is None:
            return []
        return self._primary.filter(  # type: ignore[union-attr]
            category=category, source=source, since=since, until=until
        )

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of records captured matching the criteria (O(1), live)."""
        return self.counters.count(category=category, source=source)

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent retained record matching the criteria, if any."""
        if self._primary is None:
            return None
        return self._primary.last(category=category, source=source)  # type: ignore[union-attr]

    def clear(self) -> None:
        """Drop all captured records and reset the live counters."""
        self.counters.clear()
        for sink in self._sinks:
            sink.clear()
