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


def test_a_memory_gain_needs_a_shift_beyond_the_layout_floor(tmp_path, monkeypatch, capsys):
    """In MB, a shift must clear 0.1 MB beside the parent's spread: 0.02 MB
    in every pair is no gain, though it clears a spread of 0.015 MB. The
    tool takes each metric's unit from `BENCHMARK.json`."""
    parent = [28.83, 28.82, 28.84, 28.83, 28.83, 28.82, 28.84, 28.83, 28.82, 28.84]
    small = verdict(parent, [a - 0.02 for a in parent], "lower", 0.1, "MB")
    assert small["b_wins"] == 10 and small["a_iqr"] < 0.02 and not small["gain"]
    assert verdict(parent, [a - 0.02 for a in parent], "lower", 0.1, "s")["gain"]  # no floor in seconds
    assert verdict(parent, [a - 0.15 for a in parent], "lower", 0.1, "MB")["gain"]
    assert verdict(parent, [a + 0.15 for a in parent], "higher", 0.1, "MB")["gain"]

    for side in ("a", "b"):
        (tmp_path / side).mkdir()
    (tmp_path / "a" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "m", "unit": "MB", "better": "lower", "bound": 0.1}]}))
    monkeypatch.setattr(bench_pairs, "run_benchmark", lambda checkout, workload, seed, seconds:
                        _run({}, {}, parent[seed - 1] - 0.02 * (checkout.name == "b")))
    out = tmp_path / "out.json"
    argv = ["--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"), "--workload", "w", "--seconds", "1"]
    assert bench_pairs.main(argv + ["--pairs", "10", "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdicts"]["m"]
    assert v["b_wins"] == 10 and not v["gain"]
    capsys.readouterr()


def test_fewer_than_ten_pairs_meet_no_gain(tmp_path, monkeypatch, capsys):
    """Five wins in five pairs by far more than the parent's spread meet no
    gain: the rule needs at least ten pairs, and the tool prints `too few
    pairs` instead of a gain verdict; the regression bound is still judged."""
    v = verdict(PARENT[:5], [a - 0.1 for a in PARENT[:5]], "lower", 0.25)
    assert (v["b_wins"], v["gain"], v["within_bound"]) == (5, False, True)
    assert verdict(PARENT[:9], [a - 0.1 for a in PARENT[:9]], "lower", 0.25)["gain"] is False

    for side in ("a", "b"):
        (tmp_path / side).mkdir()
    (tmp_path / "a" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "m", "unit": "s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run_benchmark", lambda checkout, workload, seed, seconds:
                        _run({}, {}, PARENT[seed - 1] - 0.1 * (checkout.name == "b")))
    argv = ["--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"), "--workload", "w", "--seconds", "1"]
    assert bench_pairs.main(argv + ["--pairs", "5"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("w m:"))
    assert "B wins 5 of 5, too few pairs, within bound" in line
    assert bench_pairs.main(argv + ["--pairs", "10"]) == 0
    assert "B wins 10 of 10, gain met, within bound" in capsys.readouterr().out


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved(tmp_path, monkeypatch, capsys):
    """When A's interquartile range exceeds the bound's share of A's median,
    a median within the bound is `unresolved`; it is resolved only when
    every B run beats every A run. A median outside the bound stays outside."""
    wide = [1.0, 1.5, 0.8, 1.2, 0.7, 1.4, 0.9, 1.3, 1.1, 0.6]
    v = verdict(wide, list(wide), "lower", 0.25)
    assert v["a_iqr"] > 0.25 * v["a_median"] and v["within_bound"] and v["unresolved"]
    assert not verdict(PARENT, list(PARENT), "lower", 0.25)["unresolved"]  # a spread inside the bound
    below = [0.55] * 10  # every run beats A's best
    assert not verdict(wide, below, "lower", 0.25)["unresolved"]
    worse = verdict(wide, below, "higher", 0.25)
    assert worse["unresolved"] and not worse["within_bound"]  # printed as outside the bound
    assert verdict(wide, [1.6] * 10, "higher", 0.25)["unresolved"] is False
    assert verdict(wide, [0.59] + [1.6] * 9, "higher", 0.25)["unresolved"]  # one B run loses to A

    for side in ("a", "b"):
        (tmp_path / side).mkdir()
    (tmp_path / "a" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "m", "unit": "s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run_benchmark", lambda checkout, workload, seed, seconds:
                        _run({}, {}, wide[seed - 1] * (1.2 if checkout.name == "b" else 1)))
    argv = ["--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"), "--workload", "w", "--seconds", "1"]
    assert bench_pairs.main(argv + ["--pairs", "10"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("w m:"))
    assert line.endswith("B wins 0 of 10, gain not met, unresolved")


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
