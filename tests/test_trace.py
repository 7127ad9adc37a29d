"""Trace log: the per-key index of accepted stages and of the latest
rejection in flight against a rescan of the event log, the `once` rule, and
the `"o:n"` form keys take in artifacts."""

from hypothesis import given, settings, strategies as st

from relaysim.trace import PIPELINE_STAGES, TraceEvent, TraceLog, ctx_key_str

_keys = st.none() | st.tuples(st.integers(0, 3), st.integers(0, 12))
_rows = st.lists(
    st.tuples(
        _keys,
        st.sampled_from(PIPELINE_STAGES),
        st.sampled_from(("ok", "reject:merkle-fail", "reject:epoch-gap")),
        st.booleans(),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_index_matches_a_rescan_of_the_log(rows):
    """A `once` event is dropped exactly when an accepted event of the same
    (key, stage) is already logged; a rejection never blocks a later accepted
    event. `stages_of`, `rejection_of` and `completed_keys` equal a rescan
    of `events`."""
    log = TraceLog()
    kept, dropped, expected_dropped = [], [], []
    for time, (key, stage, verdict, once) in enumerate(rows):
        event = TraceEvent(key=key, stage=stage, time=time, chain=0, verdict=verdict)
        if once and any(e.key == key and e.stage == stage and e.verdict == "ok" for e in kept):
            expected_dropped.append(event)
        else:
            kept.append(event)
        if not log.record(event, once=once):
            dropped.append(event)
    assert log.events == kept
    assert dropped == expected_dropped
    for key in {row[0] for row in rows}:
        rescan = {e.stage: e for e in log.events if e.key == key and e.verdict == "ok"}
        assert dict(log.stages_of(key)) == rescan
        assert log.for_key(key) == [e for e in kept if e.key == key]
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
    assert [e.to_dict()["ctx"] for e in log.events] == ["2:1", "1:10", "1:2", "?:?", "2:1", "3:3"]


def test_trace_event_has_no_instance_dict():
    assert not hasattr(TraceEvent(key=(1, 1), stage="commit_sc", time=1, chain=1), "__dict__")
