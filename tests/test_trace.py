"""Trace log: the per-key index of accepted stages and of the latest
rejection in flight against a rescan of the event log, the records the log
keeps against the events it was given, and the `"o:n"` form keys take in
artifacts."""

import json

import pytest

from hypothesis import given, settings, strategies as st

from relaysim.trace import PIPELINE_STAGES, TraceEvent, TraceLog, ctx_key_str, event_lines

_keys = st.none() | st.tuples(st.integers(0, 3), st.integers(0, 12))
_rows = st.lists(
    st.tuples(
        _keys,
        st.sampled_from(PIPELINE_STAGES),
        st.sampled_from(("ok", "reject:merkle-fail", "reject:epoch-gap")),
        st.integers(0, 2**64 - 1),
        st.none() | st.integers(-(2**63) + 1, 2**63 - 1),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_index_matches_a_rescan_of_the_log(rows):
    """Every event is logged and read back equal from the packed records, in
    order, by index, slice and iteration, and as `trace.jsonl` lines;
    `stages_of`, `stage_ticks`, `has_stage`, `rejection_of` and
    `completed_keys` equal a rescan of `events`."""
    log = TraceLog()
    kept = []
    for time, (key, stage, verdict, chain, gas) in enumerate(rows):
        event = TraceEvent(key=key, stage=stage, time=time, chain=chain, verdict=verdict, gas=gas)
        kept.append(event)
        log.record(event)
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
        log.record(TraceEvent(key=key, stage="confirm_dc", time=time, chain=3))
    log.record(TraceEvent(key=(3, 3), stage="confirm_dc", time=9, chain=3, verdict="reject:merkle-fail"))
    assert log.completed_keys() == ["1:10", "1:2", "2:1", "?:?"]
    assert [json.loads(line)["ctx"] for line in event_lines(log.events)] == ["2:1", "1:10", "1:2", "?:?", "2:1", "3:3"]


def test_an_accepted_event_names_a_pipeline_stage():
    """The per-key index has a slot per pipeline stage, so an accepted event
    at any other stage is refused before it is logged; a rejection may
    name any stage."""
    log = TraceLog()
    with pytest.raises(ValueError, match="pipeline stage"):
        log.record(TraceEvent(key=(1, 1), stage="update_rc", time=1, chain=100))
    log.record(TraceEvent(key=None, stage="update_rc", time=2, chain=100, verdict="reject:epoch-gap"))
    assert len(log.events) == 1 and log.events[0].stage == "update_rc"
    assert not log.has_stage((1, 1), "commit_sc") and log.stages_of((1, 1)) == {}


def test_a_read_sees_the_events_logged_before_it_began():
    """Iterating `events` or streaming `event_lines` reads the events logged
    before the read began, across the 4096-record chunks it unpacks, while
    the log keeps growing."""
    log = TraceLog()
    for i in range(5000):
        log.record(TraceEvent(key=(1, i), stage="commit_sc", time=i, chain=1, gas=i))
    seen = []
    lines = event_lines(log.events)
    for i, event in enumerate(log.events):
        if i % 1000 == 0:
            seen.append(next(lines))
            log.record(TraceEvent(key=(2, i), stage="confirm_sc", time=i, chain=2))
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
