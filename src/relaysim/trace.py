"""Pipeline trace records: one JSON-lines row per relay event.

Events carry the transaction key as the `(origin chain id, origin nonce)`
tuple, or `None` for an event that names no transaction; the `"o:n"` form
exists only in serialized artifacts (`ctx_key_str`, `event_lines`).
"""

from __future__ import annotations

import json
import struct
from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

PIPELINE_STAGES = (
    "commit_sc",
    "confirm_sc",
    "prove_sc",
    "confirm_rc",
    "prove_rc",
    "verify_dc",
    "confirm_dc",
)
_STAGE_INDEX = {stage: i for i, stage in enumerate(PIPELINE_STAGES)}
_WIDTH = len(PIPELINE_STAGES)
_CONFIRM_DC = _STAGE_INDEX["confirm_dc"]
_NO_GAS = -(2**63)  # the gas field's mark for an event without gas
# An event's record: its key's row, stage code, tick, chain, verdict code and
# gas, little-endian with no padding.
_EVENT = struct.Struct("<iHQQHq")
_TIME = struct.Struct("<Q")  # an event's tick, read alone
_TIME_OFFSET = struct.calcsize("<iH")
_POSITION = struct.Struct("<i")  # an event's position in the log
_ROW = struct.Struct(f"<{_WIDTH}i")  # a key's positions, one per pipeline stage
_EMPTY_ROW = _ROW.pack(*(-1,) * _WIDTH)
_KEY = struct.Struct("<QQ")  # a row's key: origin and nonce

Key = Optional[Tuple[int, int]]


def ctx_key_str(key: Key) -> str:
    return "?:?" if key is None else f"{key[0]}:{key[1]}"


_WINDOW = 4096  # how far past its column's end a nonce may grow the column; a block's worth
_ABSENT = object()


class NonceTable(MutableMapping):
    """A mapping keyed by transaction key `(origin, nonce)` that keeps no
    Python object per key: each origin has one column indexed by nonce,
    since `Chain.make_tx` numbers each origin's nonces 0, 1, 2, ... `fmt` is
    the `struct` code of the integers a column packs into a `bytearray`, or
    None for a list of objects; `fill` marks an empty slot.

    A key goes to a small side dict instead when no column slot can hold
    it: the `None` key, a negative nonce, a nonce more than `_WINDOW` past
    its column's end (a forged nonce such as 999_999_999 or 2**64 - 1, which
    so grows no column), or a value that is `fill` or does not fit `fmt`.
    A key is in its column or in the side dict, never in both. A column
    grows by at least an eighth of its length, so growth is amortised and
    at most an eighth of it is slack.

    Iteration yields each origin's column keys in nonce order, origins
    ascending, then the side dict's keys in the order they were stored;
    `len` counts by iterating."""

    __slots__ = ("_format", "_fill", "_empty", "_columns", "_side")

    def __init__(self, fmt: Optional[str] = "q", fill=-1):
        self._format = fmt
        self._fill = fill
        self._empty = None if fmt is None else bytearray(struct.pack(fmt, fill))
        self._columns: Dict[int, Any] = {}  # origin -> memoryview over a bytearray, or list
        self._side: Dict[Key, Any] = {}

    def _slot(self, key, grow: bool = False):
        """`key`'s column slot, (column, nonce), or (None, 0) when it has
        none; with `grow`, a column first grows to hold a nonce that lies
        within `_WINDOW` past its end."""
        try:
            origin, nonce = key
            column = self._columns.get(origin)
            size = 0 if column is None else len(column)
            if 0 <= nonce < size:
                return column, nonce
            if not (grow and size <= nonce < size + _WINDOW):
                return None, 0
        except (TypeError, ValueError):  # None, or not a pair
            return None, 0
        length = max(nonce + 1, size + (size >> 3), 16)
        if self._format is None:
            grown = [self._fill] * length
        else:
            grown = memoryview(self._empty * length).cast(self._format)
        if size:
            grown[:size] = column
        self._columns[origin] = grown
        return grown, nonce

    def get(self, key, default=None):
        try:  # `_slot` inline: this is the hot path
            origin, nonce = key
            if nonce >= 0:
                value = self._columns[origin][nonce]
                if value != self._fill:
                    return value
        except (TypeError, ValueError, KeyError, IndexError):  # no pair, no column, past its end
            pass
        return self._side.get(key, default) if self._side else default

    def __getitem__(self, key):
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key, _ABSENT) is not _ABSENT

    def __setitem__(self, key, value) -> None:
        fill = self._fill
        try:  # the hot path: the key's slot exists and can hold the value
            origin, nonce = key
            if nonce >= 0 and value != fill:
                self._columns[origin][nonce] = value
                if self._side:
                    self._side.pop(key, None)
                return
        except (TypeError, ValueError, KeyError, IndexError):
            pass
        column, nonce = self._slot(key, grow=value != fill)
        if column is not None:
            try:
                if value != fill:
                    column[nonce] = value
                    if self._side:
                        self._side.pop(key, None)
                    return
            except (TypeError, ValueError):  # outside `fmt`
                pass
            column[nonce] = fill
        self._side[key] = value

    def __delitem__(self, key) -> None:
        column, nonce = self._slot(key)
        if column is not None and column[nonce] != self._fill:
            column[nonce] = self._fill
        else:
            del self._side[key]

    def __iter__(self) -> Iterator[Key]:
        fill = self._fill
        for origin in sorted(self._columns):
            for nonce, value in enumerate(self._columns[origin]):
                if value != fill:
                    yield origin, nonce
        yield from list(self._side)

    def __len__(self) -> int:
        return sum(1 for _ in self)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    key: Key
    stage: str
    time: int
    chain: int
    verdict: str = "ok"
    gas: Optional[int] = None


class TraceLog:
    """The event log, kept as one `bytearray` of fixed-width records of
    machine integers (32 bytes each), one per event: the key's row, the
    stage, the tick, the chain, the verdict and the gas. Stage and verdict
    text is stored once, as an index into a table of names. `record` takes
    an event's fields, and a `TraceEvent` is built only when an event is
    read. (`struct` is loaded by the package anyway; the `array` module
    would cost about 0.13 MB of RSS to load.)

    The per-key index is filled as events are recorded: each key's row holds,
    for every pipeline stage, the position of its latest accepted (`"ok"`)
    event, or -1, in one flat array; beside it, the position of the key's
    latest rejection in flight. Rows are numbered in first-traced order; a
    `NonceTable` maps each key to its row, and each row's key is packed as
    two u64 fields (a key they cannot hold, such as None, is kept aside by
    row), so the index keeps no Python object per key."""

    def __init__(self):
        self._events = bytearray()  # one _EVENT record per event
        self._names: List[str] = [*PIPELINE_STAGES, "ok"]
        self._codes: Dict[str, int] = {name: i for i, name in enumerate(self._names)}
        self._keys = bytearray()  # per row: its key, one _KEY record
        self._odd_keys: Dict[int, Key] = {}  # row -> a key _KEY cannot pack, such as None
        self._rows = NonceTable("i")  # key -> row, numbered in first-traced order
        self._positions = bytearray()  # one _ROW per row
        self._rejected: Dict[Key, int] = {}  # key -> position of its latest rejection in flight
        self.events = EventSequence(self)

    def _code(self, name: str) -> int:
        code = self._codes[name] = len(self._names)
        self._names.append(name)
        return code

    def record(
        self,
        key: Key,
        stage: str,
        time: int,
        chain: int,
        verdict: str = "ok",
        gas: Optional[int] = None,
        once: bool = False,
    ) -> None:
        """Append an event from its fields; an accepted event must name a
        pipeline stage. With `once`, an event at a stage `key` has already
        reached is not logged (its tick, taken by the caller, stays spent).
        The key's row is looked up once, for both."""
        codes = self._codes
        stage_code = codes.get(stage)
        if stage_code is None:
            stage_code = self._code(stage)
        accepted = verdict == "ok"
        if accepted and stage_code >= _WIDTH:  # the pipeline stages hold codes 0 to _WIDTH - 1
            raise ValueError(f"an accepted event must name a pipeline stage, not {stage!r}")
        row = self._rows.get(key, -1)
        if row < 0:
            row = self._rows[key] = len(self._positions) // _ROW.size
            try:
                self._keys += _KEY.pack(*key)
            except (TypeError, struct.error):
                self._odd_keys[row] = key
                self._keys += _KEY.pack(0, 0)
            self._positions += _EMPTY_ROW
        elif once and stage_code < _WIDTH:
            if _POSITION.unpack_from(self._positions, (row * _WIDTH + stage_code) * _POSITION.size)[0] >= 0:
                return
        verdict_code = codes.get(verdict)
        if verdict_code is None:
            verdict_code = self._code(verdict)
        position = len(self._events) // _EVENT.size
        self._events += _EVENT.pack(row, stage_code, time, chain, verdict_code, _NO_GAS if gas is None else gas)
        if accepted:
            _POSITION.pack_into(self._positions, (row * _WIDTH + stage_code) * _POSITION.size, position)
        else:
            positions = _ROW.unpack_from(self._positions, row * _ROW.size)
            if positions[_CONFIRM_DC] < 0 and max(positions) >= 0:
                self._rejected[key] = position  # the key is in flight

    def __len__(self) -> int:
        return len(self._events) // _EVENT.size

    def _event(self, position: int) -> TraceEvent:
        return self._as_event(*_EVENT.unpack_from(self._events, position * _EVENT.size))

    def _as_event(self, row: int, stage: int, time: int, chain: int, verdict: int, gas: int) -> TraceEvent:
        names = self._names
        return TraceEvent(
            key=self._key(row),
            stage=names[stage],
            time=time,
            chain=chain,
            verdict=names[verdict],
            gas=None if gas == _NO_GAS else gas,
        )

    def _key(self, row: int) -> Key:
        odd = self._odd_keys
        return odd[row] if odd and row in odd else _KEY.unpack_from(self._keys, row * _KEY.size)

    def _row_keys(self) -> List[Key]:
        """Each row's key, in row order."""
        odd = self._odd_keys
        return [odd.get(row, key) for row, key in enumerate(_KEY.iter_unpack(self._keys))]

    def _records(self) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """The fields of each event logged before the first read, in order.
        They are unpacked from copies of 4096 records at a time, so the log
        may grow meanwhile."""
        events, chunk = self._events, _EVENT.size * 4096
        end = len(events)
        for start in range(0, end, chunk):
            yield from _EVENT.iter_unpack(events[start : min(start + chunk, end)])

    def _stage_positions(self, key: Key) -> Iterable[Tuple[str, int]]:
        row = self._rows.get(key, -1)
        if row < 0:
            return ()
        return zip(PIPELINE_STAGES, _ROW.unpack_from(self._positions, row * _ROW.size))

    def has_stage(self, key: Key, stage: str) -> bool:
        """Whether `key` has an accepted event at pipeline stage `stage`."""
        row = self._rows.get(key, -1)
        if row < 0:
            return False
        return _POSITION.unpack_from(self._positions, (row * _WIDTH + _STAGE_INDEX[stage]) * _POSITION.size)[0] >= 0

    def stages_of(self, key: Key) -> Dict[str, TraceEvent]:
        """The latest accepted event of each stage `key` reached."""
        return {stage: self._event(position) for stage, position in self._stage_positions(key) if position >= 0}

    def stage_ticks(self, key: Key) -> Dict[str, int]:
        """The tick of the latest accepted event of each stage `key` reached."""
        events = self._events
        return {
            stage: _TIME.unpack_from(events, position * _EVENT.size + _TIME_OFFSET)[0]
            for stage, position in self._stage_positions(key)
            if position >= 0
        }

    def rejection_of(self, key: Key) -> Optional[TraceEvent]:
        """The latest rejection of `key` logged after its first accepted
        event and before its accepted `confirm_dc`, if any."""
        position = self._rejected.get(key)
        return None if position is None else self._event(position)

    def keys_at(self, stage: str) -> List[Key]:
        """Keys with an accepted event at pipeline stage `stage`, in first-traced order."""
        index = _STAGE_INDEX[stage]
        return [
            self._key(row) for row, positions in enumerate(_ROW.iter_unpack(self._positions)) if positions[index] >= 0
        ]

    def completed_keys(self) -> List[str]:
        """Keys with an accepted final confirmation, as sorted `"o:n"` strings."""
        return sorted(map(ctx_key_str, self.keys_at("confirm_dc")))


class EventSequence:
    """A log's events in order, each built when it is read: a sequence with
    `len`, indexing, slicing and iteration, equal to a list or tuple of the
    same events."""

    __slots__ = ("_log",)

    def __init__(self, log: TraceLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._log._event(i) for i in range(*index.indices(len(self)))]
        position = index + len(self) if index < 0 else index
        if not 0 <= position < len(self):
            raise IndexError("event index out of range")
        return self._log._event(position)

    def __iter__(self) -> Iterator[TraceEvent]:
        log = self._log
        return (log._as_event(*fields) for fields in log._records())

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventSequence, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


# The line `json.dumps(row, sort_keys=True)` writes for an event's row
# {"ctx", "stage", "time", "chain", "verdict", "gas"}.
_EVENT_LINE = '{"chain": %d, "ctx": "%s", "gas": %s, "stage": %s, "time": %d, "verdict": %s}\n'


class _Quoted(dict):
    """Each string's JSON encoding, made on first use."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = json.dumps(text)
        return quoted


def event_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Each event as its `trace.jsonl` line, one at a time, so no whole file
    is built in memory; a log's `events` are read straight from its packed
    records, with no `TraceEvent` built."""
    quoted = _Quoted()
    if isinstance(events, EventSequence):
        log = events._log
        ctx = [ctx_key_str(key) for key in log._row_keys()]  # per row
        names = [quoted[name] for name in log._names]
        for row, stage, time, chain, verdict, gas in log._records():
            yield _EVENT_LINE % (chain, ctx[row], "null" if gas == _NO_GAS else "%d" % gas, names[stage], time, names[verdict])
        return
    for e in events:
        key, gas = e.key, e.gas
        yield _EVENT_LINE % (
            e.chain,
            "?:?" if key is None else "%d:%d" % key,
            "null" if gas is None else "%d" % gas,
            quoted[e.stage],
            e.time,
            quoted[e.verdict],
        )
