"""The verdicts of `tools/bench_pairs.py` on synthetic pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [0.60, 0.62, 0.55, 0.58, 0.66, 0.57, 0.61, 0.59, 0.63, 0.56]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread():
    change = [a - 0.1 for a in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert (v["b_wins"], v["b_losses"], v["gain"], v["within_bound"]) == (10, 0, True, True)
    assert v["a_quartiles"] == pytest.approx([0.5725, 0.6175])  # inclusive method
    assert v["a_iqr"] == pytest.approx(0.045) and v["b_median"] == pytest.approx(v["a_median"] - 0.1)

    # eight wins in ten: the gain is not met, however far apart the medians
    eight = change[:8] + PARENT[8:]
    assert verdict(PARENT, eight, "lower", 0.25)["b_wins"] == 8
    assert not verdict(PARENT, eight, "lower", 0.25)["gain"]
    # nine wins and a tie: ties count for neither side, nine in ten is enough
    nine = change[:9] + PARENT[9:]
    v = verdict(PARENT, nine, "lower", 0.25)
    assert (v["b_wins"], v["b_losses"], v["gain"]) == (9, 0, True)


def test_winning_every_pair_by_less_than_the_parent_spread_is_no_gain():
    v = verdict(PARENT, [a - 0.01 for a in PARENT], "lower", 0.25)
    assert v["b_wins"] == 10 and v["a_iqr"] > 0.01 and not v["gain"]


def test_higher_is_better_and_the_regression_bound():
    higher = [a * 2 for a in PARENT]
    assert verdict(PARENT, higher, "higher", 0.1)["gain"]
    assert not verdict(PARENT, higher, "lower", 0.1)["gain"]
    assert not verdict(PARENT, higher, "lower", 0.1)["within_bound"]
    slightly_worse = [a * 1.05 for a in PARENT]
    assert verdict(PARENT, slightly_worse, "lower", 0.1)["within_bound"]
    assert not verdict(PARENT, slightly_worse, "lower", 0.04)["within_bound"]
    assert verdict([5.0], [4.0], "lower", 0.1)["a_quartiles"] == [5.0, 5.0]
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9], "lower", 0.1)


def _run(counts, digests, value=1.0):
    """A `run_benchmark` result of one repetition, for one metric `m`."""
    return {"metrics": {"m": {"value": value}}, "correct": True, "attempted": 4, "failed": 0,
            "detail": {"counts": counts, "digests": digests, "repetitions": [{}]}}


def test_the_sides_agree_only_where_counts_and_digests_are_equal():
    a = _run({"pairings": 2, "gas_total": 10}, {"trace.jsonl": "ab"})
    assert bench_pairs.disagreements(a, _run(dict(a["detail"]["counts"]), {"trace.jsonl": "ab"}, 2.0)) == []
    b = _run({"pairings": 3, "gas_total": 10, "extra": 0}, {"trace.jsonl": "cd"})
    assert bench_pairs.disagreements(a, b) == ["counts.extra", "counts.pairings", "digests.trace.jsonl"]
    assert bench_pairs.disagreements(b, a) == ["counts.extra", "counts.pairings", "digests.trace.jsonl"]


def test_the_report_says_whether_every_pair_agrees(tmp_path, monkeypatch, capsys):
    """`--out` holds `agree` and each pair's differing keys; a pair whose
    digests differ makes `agree` false, and the keys are printed."""
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
    (tmp_path / "a" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "m", "better": "lower", "bound": 0.25}]})
    )
    runs = {"a": _run({"pairings": 2}, {"trace.jsonl": "ab"})}

    def fake(checkout, workload, seed, seconds):
        if checkout.name == "a" or seed == 1:
            return runs["a"]
        return _run({"pairings": 2}, {"trace.jsonl": "cd"})

    monkeypatch.setattr(bench_pairs, "run_benchmark", fake)
    argv = ["--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"), "--workload", "w", "--seconds", "1"]
    out = tmp_path / "out.json"
    assert bench_pairs.main(argv + ["--pairs", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["agree"] and report["pairs"][0]["differ"] == []
    assert bench_pairs.main(argv + ["--pairs", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert not report["agree"] and [p["differ"] for p in report["pairs"]] == [[], ["digests.trace.jsonl"]]
    assert "seed 2: digests.trace.jsonl" in capsys.readouterr().out
