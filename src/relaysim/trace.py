"""Pipeline trace records: one JSON-lines row per relay event.

Events carry the transaction key as the `(origin chain id, origin nonce)`
tuple, or `None` for an event that names no transaction; the `"o:n"` form
exists only in serialized artifacts (`ctx_key_str`, `event_lines`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

PIPELINE_STAGES = (
    "commit_sc",
    "confirm_sc",
    "prove_sc",
    "confirm_rc",
    "prove_rc",
    "verify_dc",
    "confirm_dc",
)

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
    """The event log, with an index of each key's accepted (`"ok"`) events
    by stage and of its latest rejection in flight, filled as events are
    recorded."""

    def __init__(self):
        self.events: List[TraceEvent] = []
        self._accepted: Dict[Key, Dict[str, TraceEvent]] = {}
        self._rejected: Dict[Key, TraceEvent] = {}

    def record(self, event: TraceEvent) -> None:
        stages = self.stages_of(event.key)
        self.events.append(event)
        if event.verdict == "ok":
            self._accepted.setdefault(event.key, {})[event.stage] = event
        elif stages and "confirm_dc" not in stages:  # the key is in flight
            self._rejected[event.key] = event

    def for_key(self, key: Key) -> List[TraceEvent]:
        return [e for e in self.events if e.key == key]

    def stages_of(self, key: Key) -> Mapping[str, TraceEvent]:
        """The latest accepted event of each stage `key` reached."""
        return self._accepted.get(key, {})

    def rejection_of(self, key: Key) -> Optional[TraceEvent]:
        """The latest rejection of `key` logged after its first accepted
        event and before its accepted `confirm_dc`, if any."""
        return self._rejected.get(key)

    def completed_keys(self) -> List[str]:
        """Keys with an accepted final confirmation, as sorted `"o:n"` strings."""
        return sorted(ctx_key_str(k) for k, stages in self._accepted.items() if "confirm_dc" in stages)


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
    is built in memory."""
    quoted = _Quoted()
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
