"""Pipeline trace records: one JSON-lines row per relay event.

Events carry the transaction key as the `(origin chain id, origin nonce)`
tuple, or `None` for an event that names no transaction; the `"o:n"` form
exists only in serialized artifacts (`ctx_key_str`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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

    def to_dict(self) -> Dict:
        return {
            "ctx": ctx_key_str(self.key),
            "stage": self.stage,
            "time": self.time,
            "chain": self.chain,
            "verdict": self.verdict,
            "gas": self.gas,
        }


class TraceLog:
    """The event log, with an index of each key's accepted (`"ok"`) events
    by stage and of its latest rejection in flight, filled as events are
    recorded."""

    def __init__(self):
        self.events: List[TraceEvent] = []
        self._accepted: Dict[Key, Dict[str, TraceEvent]] = {}
        self._rejected: Dict[Key, TraceEvent] = {}

    def record(self, event: TraceEvent, once: bool = False) -> bool:
        """Append `event` and return True. With `once`, drop it instead and
        return False when an accepted event of its (key, stage) is logged."""
        stages = self.stages_of(event.key)
        if once and event.stage in stages:
            return False
        self.events.append(event)
        if event.verdict == "ok":
            self._accepted.setdefault(event.key, {})[event.stage] = event
        elif stages and "confirm_dc" not in stages:  # the key is in flight
            self._rejected[event.key] = event
        return True

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

    def write(self, path) -> None:
        """Write the log as JSON lines, one event at a time."""
        write_jsonl(path, (e.to_dict() for e in self.events))


def write_jsonl(path, rows: Iterable[Dict]) -> None:
    """Write each row as one key-sorted JSON line as it is encoded, so no
    whole file is built in memory."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        for row in rows:
            fh.write(encode(row) + "\n")
