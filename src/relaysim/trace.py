"""Pipeline trace records: one JSON-lines row per relay event.

Events carry the transaction key as the `(origin chain id, origin nonce)`
tuple, or `None` for an event that names no transaction; the `"o:n"` form
exists only in serialized artifacts (`ctx_key_str`, `event_lines`).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

Key = Optional[Tuple[int, int]]


def ctx_key_str(key: Key) -> str:
    return "?:?" if key is None else f"{key[0]}:{key[1]}"


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
    text is stored once, as an index into a table of names. A `TraceEvent`
    is built only when an event is read. (`struct` is loaded by the package
    anyway; the `array` module would cost about 0.13 MB of RSS to load.)

    The per-key index is filled as events are recorded: each key's row holds,
    for every pipeline stage, the position of its latest accepted (`"ok"`)
    event, or -1, in one flat array; beside it, the position of the key's
    latest rejection in flight."""

    def __init__(self):
        self._events = bytearray()  # one _EVENT record per event
        self._names: List[str] = [*PIPELINE_STAGES, "ok"]
        self._codes: Dict[str, int] = {name: i for i, name in enumerate(self._names)}
        self._keys: List[Key] = []  # per row: its key
        self._rows: Dict[Key, int] = {}
        self._positions = bytearray()  # one _ROW per row
        self._rejected: Dict[Key, int] = {}  # key -> position of its latest rejection in flight
        self.events = EventSequence(self)

    def _code(self, name: str) -> int:
        code = self._codes[name] = len(self._names)
        self._names.append(name)
        return code

    def record(self, event: TraceEvent) -> None:
        """Append `event`; an accepted event must name a pipeline stage."""
        key, stage, verdict, gas = event.key, event.stage, event.verdict, event.gas
        codes = self._codes
        stage_code = codes.get(stage)
        if stage_code is None:
            stage_code = self._code(stage)
        verdict_code = codes.get(verdict)
        if verdict_code is None:
            verdict_code = self._code(verdict)
        accepted = verdict == "ok"
        if accepted and stage_code >= _WIDTH:  # the pipeline stages hold codes 0 to _WIDTH - 1
            raise ValueError(f"an accepted event must name a pipeline stage, not {stage!r}")
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(self._keys)
            self._keys.append(key)
            self._positions += _EMPTY_ROW
        position = len(self._events) // _EVENT.size
        self._events += _EVENT.pack(row, stage_code, event.time, event.chain, verdict_code, _NO_GAS if gas is None else gas)
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
            key=self._keys[row],
            stage=names[stage],
            time=time,
            chain=chain,
            verdict=names[verdict],
            gas=None if gas == _NO_GAS else gas,
        )

    def _records(self) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """The fields of each event logged before the first read, in order.
        They are unpacked from copies of 4096 records at a time, so the log
        may grow meanwhile."""
        events, chunk = self._events, _EVENT.size * 4096
        end = len(events)
        for start in range(0, end, chunk):
            yield from _EVENT.iter_unpack(events[start : min(start + chunk, end)])

    def _stage_positions(self, key: Key) -> Iterable[Tuple[str, int]]:
        row = self._rows.get(key)
        if row is None:
            return ()
        return zip(PIPELINE_STAGES, _ROW.unpack_from(self._positions, row * _ROW.size))

    def has_stage(self, key: Key, stage: str) -> bool:
        """Whether `key` has an accepted event at pipeline stage `stage`."""
        row = self._rows.get(key)
        if row is None:
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

    def completed_keys(self) -> List[str]:
        """Keys with an accepted final confirmation, as sorted `"o:n"` strings."""
        return sorted(ctx_key_str(k) for k in self._rows if self.has_stage(k, "confirm_dc"))


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
        ctx = [ctx_key_str(key) for key in log._keys]  # per row
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
