"""Trace log: the per-key index of accepted stages and of the latest
rejection in flight against a rescan of the event log, the records the log
keeps against the events it was given, and the `"o:n"` form keys take in
artifacts."""

import json

import pytest

from hypothesis import given, settings, strategies as st

from relaysim.trace import PIPELINE_STAGES, NonceTable, TraceEvent, TraceLog, ctx_key_str, event_lines

_keys = st.none() | st.tuples(st.integers(0, 3), st.integers(0, 12))
_rows = st.lists(
    st.tuples(
        _keys,
        st.sampled_from(PIPELINE_STAGES),
        st.sampled_from(("ok", "reject:merkle-fail", "reject:epoch-gap")),
        st.integers(0, 2**64 - 1),
        st.none() | st.integers(-(2**63) + 1, 2**63 - 1),
        st.booleans(),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_index_matches_a_rescan_of_the_log(rows):
    """Every event is logged, except one recorded `once` at a stage its key
    has already reached, and read back equal from the packed records, in
    order, by index, slice and iteration, and as `trace.jsonl` lines;
    `stages_of`, `stage_ticks`, `has_stage`, `rejection_of` and
    `completed_keys` equal a rescan of `events`."""
    log = TraceLog()
    kept = []
    for time, (key, stage, verdict, chain, gas, once) in enumerate(rows):
        reached = any(e.key == key and e.stage == stage and e.verdict == "ok" for e in kept)
        if not (once and reached):
            kept.append(TraceEvent(key=key, stage=stage, time=time, chain=chain, verdict=verdict, gas=gas))
        log.record(key, stage, time, chain, verdict, gas, once)
    assert log.events == kept and kept == log.events and len(log.events) == len(kept)
    assert list(log.events) == kept and log.events[1::2] == kept[1::2]
    assert [log.events[i] for i in range(-len(kept), 0)] == kept
    assert list(event_lines(log.events)) == list(event_lines(kept))
    for key in {row[0] for row in rows}:
        rescan = {e.stage: e for e in log.events if e.key == key and e.verdict == "ok"}
        assert dict(log.stages_of(key)) == rescan
        assert log.stage_ticks(key) == {stage: e.time for stage, e in rescan.items()}
        assert [log.has_stage(key, stage) for stage in PIPELINE_STAGES] == [s in rescan for s in PIPELINE_STAGES]
        in_flight = None  # latest rejection after a first acceptance, before confirm_dc
        for i, e in enumerate(log.events):
            earlier = [x for x in log.events[:i] if x.key == key and x.verdict == "ok"]
            if e.key == key and e.verdict != "ok" and earlier:
                if all(x.stage != "confirm_dc" for x in earlier):
                    in_flight = e
        assert log.rejection_of(key) == in_flight
    assert log.completed_keys() == sorted(
        {ctx_key_str(e.key) for e in log.events if e.stage == "confirm_dc" and e.verdict == "ok"}
    )


def test_completed_keys_are_sorted_artifact_strings():
    """Callers compare `completed_keys()` with `f"{origin}:{nonce}"` strings,
    so it returns those, sorted as strings; rejected confirmations are not
    completions."""
    log = TraceLog()
    for time, key in enumerate([(2, 1), (1, 10), (1, 2), None, (2, 1)]):
        log.record(key, "confirm_dc", time, 3)
    log.record((3, 3), "confirm_dc", 9, 3, verdict="reject:merkle-fail")
    assert log.completed_keys() == ["1:10", "1:2", "2:1", "?:?"]
    assert [json.loads(line)["ctx"] for line in event_lines(log.events)] == ["2:1", "1:10", "1:2", "?:?", "2:1", "3:3"]


def test_an_accepted_event_names_a_pipeline_stage():
    """The per-key index has a slot per pipeline stage, so an accepted event
    at any other stage is refused before it is logged; a rejection may
    name any stage."""
    log = TraceLog()
    with pytest.raises(ValueError, match="pipeline stage"):
        log.record((1, 1), "update_rc", 1, 100)
    log.record(None, "update_rc", 2, 100, verdict="reject:epoch-gap")
    assert len(log.events) == 1 and log.events[0].stage == "update_rc"
    assert not log.has_stage((1, 1), "commit_sc") and log.stages_of((1, 1)) == {}


def test_a_read_sees_the_events_logged_before_it_began():
    """Iterating `events` or streaming `event_lines` reads the events logged
    before the read began, across the 4096-record chunks it unpacks, while
    the log keeps growing."""
    log = TraceLog()
    for i in range(5000):
        log.record((1, i), "commit_sc", i, 1, gas=i)
    seen = []
    lines = event_lines(log.events)
    for i, event in enumerate(log.events):
        if i % 1000 == 0:
            seen.append(next(lines))
            log.record((2, i), "confirm_sc", i, 2)
        assert event == TraceEvent(key=(1, i), stage="commit_sc", time=i, chain=1, gas=i)
    assert i == 4999 and len(log.events) == 5005
    assert len(seen) + sum(1 for _ in lines) == 5000


def test_trace_event_has_no_instance_dict():
    assert not hasattr(TraceEvent(key=(1, 1), stage="commit_sc", time=1, chain=1), "__dict__")


# stage and verdict text with quotes, backslashes, control characters and
# non-ASCII characters, each of which JSON escapes
_texts = st.text(alphabet=st.sampled_from('"\\\x00\x1f\x7f\n\té€😀ok:-_') | st.characters(), max_size=12)
_wide_keys = st.none() | st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
_events = st.builds(
    TraceEvent,
    key=_wide_keys,
    stage=_texts,
    time=st.integers(0, 2**64),
    chain=st.integers(0, 2**64),
    verdict=_texts,
    gas=st.none() | st.integers(-(2**70), 2**70),
)


@given(st.lists(_events, max_size=4))
def test_event_lines_equal_sorted_json_dumps(events):
    """Each `trace.jsonl` line is the key-sorted `json.dumps` of its event's
    row, whatever text the stage and verdict hold."""
    rows = [
        {
            "ctx": "?:?" if e.key is None else f"{e.key[0]}:{e.key[1]}",
            "stage": e.stage,
            "time": e.time,
            "chain": e.chain,
            "verdict": e.verdict,
            "gas": e.gas,
        }
        for e in events
    ]
    assert list(event_lines(events)) == [json.dumps(row, sort_keys=True) + "\n" for row in rows]


# Keys as the runs make them and as forgers make them: dense and sparse
# nonces per origin (a destination sees every other nonce of an origin),
# nonces within and beyond a column's growth window, the None key, and
# forged nonces that must grow no column.
_table_keys = st.none() | st.tuples(
    st.integers(0, 3),
    st.integers(0, 40)
    | st.integers(0, 100).map(lambda n: 2 * n + 1)
    | st.sampled_from((-1, 4095, 4200, 8300, 999_999_999, 2**64 - 1)),
)
_TABLES = {
    "i": (-1, st.integers(-(2**31) - 2, 2**31 + 1)),
    "B": (0, st.integers(-1, 256)),
    None: (None, st.none() | st.integers(-5, 5) | st.text(max_size=2)),
}


@pytest.mark.parametrize("fmt", list(_TABLES), ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nonce_table_equals_a_dict(fmt, data):
    """A `NonceTable` reads, writes and deletes as a plain dict does, keys
    in any order, values its columns cannot hold included; each origin's
    column keys iterate in nonce order, and a column grows only for nonces
    stored within its window, by an eighth of its length at a time."""
    fill, values = _TABLES[fmt]
    table, oracle = NonceTable(fmt, fill), {}
    grown: dict = {}  # origin -> the largest nonce stored within the window of its column
    ops = st.tuples(st.sampled_from(("set", "set", "del", "pop")), _table_keys, values)
    for op, key, value in data.draw(st.lists(ops, max_size=60)):
        if op == "set":
            size = len(table._columns.get(key[0], ())) if key is not None else 0
            if key is not None and size <= key[1] < size + 4096:
                grown[key[0]] = max(grown.get(key[0], 0), key[1])
            table[key] = oracle[key] = value
        elif op == "del":
            if key in oracle:
                del table[key], oracle[key]
            else:
                with pytest.raises(KeyError):
                    del table[key]
        else:
            assert table.pop(key, "gone") == oracle.pop(key, "gone")
        assert (key in table) == (key in oracle) and table.get(key, "gone") == oracle.get(key, "gone")
    assert dict(table) == oracle and len(table) == len(oracle) == len(list(table))
    held = [(o, n) for o in sorted(table._columns) for n, v in enumerate(table._columns[o]) if v != fill]
    assert list(table)[: len(held)] == held  # the column keys come first, in (origin, nonce) order
    for origin, column in table._columns.items():
        assert len(column) <= max(16, grown[origin] + 1 + (grown[origin] >> 3))


def test_a_forged_nonce_grows_no_column():
    """Nonces far past a column's end, None and negative nonces go to the
    side dict: they allocate no dense storage, before or after a column
    exists."""
    table = NonceTable()
    for key in ((1, 999_999_999), (1, 2**64 - 1), (2, 2**64 - 1), None, (1, -1), (3, 4096)):
        table[key] = 7
    assert table._columns == {} and len(table) == 6
    table[(1, 3)] = 8
    table[(1, 20 + 4096)] = 9
    assert {o: len(c) for o, c in table._columns.items()} == {1: 16}
    assert dict(table) == {(1, 3): 8, (1, 999_999_999): 7, (1, 2**64 - 1): 7, (2, 2**64 - 1): 7,
                           None: 7, (1, -1): 7, (3, 4096): 7, (1, 4116): 9}


@settings(max_examples=100, deadline=None)
@given(st.lists(_table_keys, max_size=40))
def test_rows_are_numbered_in_first_traced_order(keys):
    """Whatever the keys, in whatever order, the trace numbers its rows in
    first-traced order: `keys_at` and the `trace.jsonl` lines give the keys
    back as they were first traced."""
    log = TraceLog()
    for time, key in enumerate(keys):
        log.record(key, "commit_sc", time, 1)
    assert log.keys_at("commit_sc") == list(dict.fromkeys(keys))
    assert [e.key for e in log.events] == keys
    assert [json.loads(line)["ctx"] for line in event_lines(log.events)] == [ctx_key_str(k) for k in keys]
