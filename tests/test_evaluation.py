import json
import random

import pytest

from iconclassify.errors import ManifestParseError
from iconclassify.evaluation import (
    LevelComparison,
    MatchType,
    PredictionRow,
    aggregate,
    build_report,
    classify_match,
    compare,
    evaluate_pair,
    hierarchical_metrics,
    level_accuracy,
    read_predictions_csv,
    render_report_text,
    truncation_report,
    weighted_score,
)
from iconclassify.taxonomy import parse_code

from conftest import random_code_text


def _pair(pred: str, gt: str):
    return parse_code(pred), parse_code(gt)


# ---------------------------------------------------------------- compare

def test_compare_shallow_prediction():
    c = compare(*_pair("71H14", "71H1442"))
    assert (c.matched, c.pred_levels, c.gt_levels) == (5, 5, 7)


def test_compare_identical_codes():
    c = compare(*_pair("73D231", "73D231"))
    assert (c.matched, c.pred_levels, c.gt_levels) == (6, 6, 6)


def test_compare_disjoint_codes():
    c = compare(*_pair("111", "731111"))
    assert (c.matched, c.pred_levels, c.gt_levels) == (0, 3, 6)


def test_level_comparison_validates():
    with pytest.raises(ValueError):
        LevelComparison(matched=0, pred_levels=0, gt_levels=1)
    with pytest.raises(ValueError):
        LevelComparison(matched=3, pred_levels=2, gt_levels=5)
    with pytest.raises(ValueError):
        LevelComparison(matched=-1, pred_levels=2, gt_levels=2)


# ---------------------------------------------------------------- metrics

def test_metrics_shallow_but_correct_prediction():
    precision, recall, f1 = hierarchical_metrics(compare(*_pair("71H14", "71H1442")))
    assert precision == 1.0
    assert recall == pytest.approx(5 / 7)
    assert f1 == pytest.approx(5 / 6)  # 2*(5/7)/(12/7)


def test_metrics_perfect_and_zero():
    assert hierarchical_metrics(LevelComparison(4, 4, 4)) == (1.0, 1.0, 1.0)
    assert hierarchical_metrics(LevelComparison(0, 3, 6)) == (0.0, 0.0, 0.0)


def test_metrics_partial():
    precision, recall, f1 = hierarchical_metrics(LevelComparison(2, 4, 6))
    assert precision == 0.5
    assert recall == pytest.approx(1 / 3)
    assert f1 == pytest.approx(0.4)


# ---------------------------------------------------------------- match typing

@pytest.mark.parametrize(
    "m,p,g,expected",
    [
        (4, 4, 4, MatchType.FULL),
        (6, 7, 6, MatchType.EXTRA),
        (3, 3, 5, MatchType.PARTIAL_A),
        (2, 4, 6, MatchType.PARTIAL_B),
        (5, 6, 6, MatchType.PARTIAL_C),
        (2, 8, 5, MatchType.PARTIAL_C),
        (0, 3, 6, MatchType.NO_MATCH),
        (0, 6, 3, MatchType.NO_MATCH),
        (1, 1, 1, MatchType.FULL),
        (1, 1, 9, MatchType.PARTIAL_A),
    ],
)
def test_classify_match_cases(m, p, g, expected):
    assert classify_match(LevelComparison(m, p, g)) is expected


def test_classify_match_from_codes():
    assert classify_match(compare(*_pair("71H14", "71H1442"))) is MatchType.PARTIAL_A
    assert classify_match(compare(*_pair("71H1442", "71H14"))) is MatchType.EXTRA


def test_match_enum_value_is_base_score():
    assert [mt.value for mt in MatchType] == [90, 100, 85, 70, 60, 0]
    assert MatchType.PARTIAL_B.value == 70


def _if_chain_match(m, p, g):
    """The match table as an if-chain of every condition in full: the reference classify_match is checked against."""
    if m == p == g:
        return MatchType.FULL
    if m == g and p > g:
        return MatchType.EXTRA
    if m == 0:
        return MatchType.NO_MATCH
    if p < g and m == p:
        return MatchType.PARTIAL_A
    if p < g and 0 < m < p:
        return MatchType.PARTIAL_B
    if p >= g and 0 < m < p:
        return MatchType.PARTIAL_C
    raise AssertionError(f"no match type for M={m}, P={p}, G={g}")


def test_classify_match_is_total():
    # every geometrically possible (M, P, G) with 1-9 levels maps to the type the full if-chain gives it
    cases = [(m, p, g) for p in range(1, 10) for g in range(1, 10) for m in range(0, min(p, g) + 1)]
    assert len(cases) == 366
    assert [classify_match(LevelComparison(*case)) for case in cases] == [_if_chain_match(*case) for case in cases]


# ---------------------------------------------------------------- weighted score

def test_weighted_partial_a_examples():
    # 85 scaled by matched/ground-truth depth
    assert weighted_score(LevelComparison(3, 3, 5)) == pytest.approx(51.0)
    assert weighted_score(compare(*_pair("71H14", "71H1442"))) == pytest.approx(85 * 5 / 7)


def test_weighted_terminal_types():
    assert weighted_score(LevelComparison(4, 4, 4)) == 100.0
    assert weighted_score(LevelComparison(3, 5, 3)) == 90.0
    assert weighted_score(LevelComparison(0, 4, 4)) == 0.0


def test_weighted_floors():
    # tiny ratios fall back to half the base score
    assert weighted_score(LevelComparison(1, 1, 5)) == 42.5   # 85/5 = 17 -> floor
    assert weighted_score(LevelComparison(1, 2, 9)) == 35.0   # 70/18 -> floor
    assert weighted_score(LevelComparison(1, 9, 9)) == 30.0   # 60/81 -> floor


def test_weighted_partial_b_and_c_scaling():
    assert weighted_score(LevelComparison(4, 5, 6)) == pytest.approx(70 * (4 / 6) * (4 / 5))
    assert weighted_score(LevelComparison(5, 6, 6)) == pytest.approx(60 * (5 / 6) * (5 / 6))


def _weighted_reference(c: LevelComparison) -> float:
    """The score stated case by case, with an early return per terminal type."""
    match = classify_match(c)
    m, p, g = c.matched, c.pred_levels, c.gt_levels
    if match is MatchType.FULL:
        return 100.0
    if match is MatchType.EXTRA:
        return 90.0
    if match is MatchType.NO_MATCH:
        return 0.0
    if match is MatchType.PARTIAL_A:
        raw = match.value * (m / g)
    else:
        raw = match.value * (m / g) * (m / p)
    return max(raw, match.value / 2)


def test_weighted_score_equals_the_case_by_case_formula_bit_for_bit():
    for p in range(1, 13):
        for g in range(1, 13):
            for m in range(0, min(p, g) + 1):
                c = LevelComparison(m, p, g)
                assert weighted_score(c).hex() == _weighted_reference(c).hex(), c


def test_weighted_score_bounds_everywhere():
    for p in range(1, 10):
        for g in range(1, 10):
            for m in range(0, min(p, g) + 1):
                c = LevelComparison(m, p, g)
                w = weighted_score(c)
                assert 0.0 <= w <= 100.0
                match = classify_match(c)
                if match in (MatchType.PARTIAL_A, MatchType.PARTIAL_B, MatchType.PARTIAL_C):
                    assert w >= match.value / 2
                    assert w <= match.value


def test_weighted_partial_a_monotone_in_matched():
    for g in range(2, 10):
        scores = [weighted_score(LevelComparison(m, m, g)) for m in range(1, g)]
        assert scores == sorted(scores)


def test_metrics_match_random_code_pairs():
    # independent oracle: recompute M, P, G straight from the segment tuples
    rng = random.Random(20240818)
    for _ in range(300):
        a = parse_code(random_code_text(rng))
        b = parse_code(random_code_text(rng))
        m = 0
        for sa, sb in zip(a.segments, b.segments):
            if sa != sb:
                break
            m += 1
        c = compare(a, b)
        assert (c.matched, c.pred_levels, c.gt_levels) == (m, len(a.segments), len(b.segments))
        precision, recall, _ = hierarchical_metrics(c)
        assert precision == pytest.approx(m / len(a.segments))
        assert recall == pytest.approx(m / len(b.segments))


# ---------------------------------------------------------------- aggregation

def test_aggregate_means_and_counts():
    pairs = [_pair("73D231", "73D231"), _pair("111", "731111")]  # full, 100; no match, 0
    records = [evaluate_pair(image_id, *pair) for image_id, pair in zip("ab", pairs)]
    summary = aggregate(records)
    assert summary["count"] == 2
    assert summary["avg_weighted"] == 50.0
    assert summary["avg_precision"] == 0.5
    counts = build_report("demo", [PredictionRow(i, *pair) for i, pair in zip("ab", pairs)])["match_counts"]
    assert counts["full"] == 1
    assert counts["no_match"] == 1
    assert sum(counts.values()) == 2
    assert set(counts) == {
        "full", "extra", "partial_a", "partial_b", "partial_c", "no_match",
    }


def test_aggregate_single_record():
    pair = _pair("71H14", "71H1442")
    summary = aggregate([evaluate_pair("a", *pair)])
    assert summary["avg_weighted"] == pytest.approx(85 * 5 / 7)
    assert summary["avg_recall"] == pytest.approx(5 / 7)
    assert build_report("one", [PredictionRow("a", *pair)])["match_counts"]["partial_a"] == 1


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_evaluate_pair_carries_group():
    rec = evaluate_pair("img", *_pair("73D2", "73D231"), group="set-b")
    assert rec.group == "set-b"
    assert rec.match_type is MatchType.PARTIAL_A
    assert rec.weighted == pytest.approx(max(85 * 4 / 6, 42.5))


# ---------------------------------------------------------------- level accuracy

def _ten_records():
    pairs = [
        ("73D231", "73D231"),  # matched 6
        ("73D23", "73D231"),   # 5
        ("73D2", "73D231"),    # 4
        ("73D", "73D231"),     # 3
        ("73", "73D231"),      # 2
        ("7", "73D231"),       # 1
        ("11", "73D231"),      # 0
        ("71B32", "71B32"),    # 5
        ("71B3", "71B33"),     # 4
        ("71H14", "71H1442"),  # 5
    ]
    return [evaluate_pair(f"img{i}", *_pair(p, g)) for i, (p, g) in enumerate(pairs)]


def test_level_accuracy_hand_counted_table():
    rows = level_accuracy(_ten_records(), max_level=9)
    assert [r["objects"] for r in rows] == [9, 8, 7, 6, 4, 1, 0, 0, 0]
    assert [r["percent"] for r in rows] == [90.0, 80.0, 70.0, 60.0, 40.0, 10.0, 0.0, 0.0, 0.0]
    assert [r["level"] for r in rows] == list(range(1, 10))


def test_level_accuracy_is_non_increasing():
    rows = level_accuracy(_ten_records())
    objects = [r["objects"] for r in rows]
    assert objects == sorted(objects, reverse=True)


def test_level_accuracy_exact_matches_only():
    rows = level_accuracy([evaluate_pair("a", *_pair("73D", "73D"))], max_level=3)
    assert [(r["level"], r["objects"], r["percent"]) for r in rows] == [
        (1, 1, 100.0), (2, 1, 100.0), (3, 1, 100.0),
    ]


def test_level_accuracy_rejects_empty():
    with pytest.raises(ValueError):
        level_accuracy([])


# ---------------------------------------------------------------- truncation

def _deep_pairs():
    return [
        _pair("73D231", "73D231"),
        _pair("71H1442", "71H14"),
        _pair("71B32", "71B33"),
    ]


def test_truncation_k0_equals_untruncated():
    pairs = _deep_pairs()
    rows = truncation_report(pairs, max_k=4)
    p, r, f = 0.0, 0.0, 0.0
    for pred, gt in pairs:
        precision, recall, f1 = hierarchical_metrics(compare(pred, gt))
        p, r, f = p + precision, r + recall, f + f1
    n = len(pairs)
    assert rows[0]["k"] == 0
    assert rows[0]["precision"] == pytest.approx(p / n)
    assert rows[0]["recall"] == pytest.approx(r / n)
    assert rows[0]["f1"] == pytest.approx(f / n)


def test_truncation_avg_levels_steps_down_by_one():
    # every prediction is at least 5 levels deep, so each k removes
    # exactly one level on average
    rows = truncation_report(_deep_pairs(), max_k=4)
    start = rows[0]["avg_levels"]
    assert [r["avg_levels"] for r in rows] == pytest.approx([start - k for k in range(5)])


def test_truncation_recall_never_increases():
    rows = truncation_report(_deep_pairs(), max_k=4)
    recalls = [r["recall"] for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_truncation_can_repair_a_wrong_tail():
    # last level wrong: cutting it turns a partly-wrong prediction into a
    # clean shallow one, so precision jumps to 1
    rows = truncation_report([_pair("73D232", "73D231")], max_k=1)
    assert rows[0]["precision"] == pytest.approx(5 / 6)
    assert rows[1]["precision"] == 1.0
    assert rows[1]["recall"] == pytest.approx(5 / 6)


def test_truncation_floors_at_one_level():
    rows = truncation_report([_pair("73", "73D231")], max_k=4)
    assert [r["avg_levels"] for r in rows] == [2.0, 1.0, 1.0, 1.0, 1.0]


def test_truncation_rejects_empty():
    with pytest.raises(ValueError):
        truncation_report([], max_k=4)


# ---------------------------------------------------------------- predictions csv

def test_read_predictions_csv(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "image_id,predicted_code,ground_truth_code,group\n"
        "img001,71B32,71B32,set-a\n"
        "img002,73D2,73D231,\n"
    )
    rows = read_predictions_csv(path)
    assert len(rows) == 2
    assert rows[0].predicted == parse_code("71B32")
    assert rows[1].ground_truth == parse_code("73D231")
    assert rows[0].group == "set-a"
    assert rows[1].group is None


def test_read_predictions_csv_requires_columns(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("image_id,predicted\nx,y\n")
    with pytest.raises(ManifestParseError, match="ground_truth_code"):
        read_predictions_csv(path)


def test_read_predictions_csv_rejects_incomplete_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "image_id,predicted_code,ground_truth_code\n"
        "img001,71B32,71B32\n"
        "img002,,73D231\n"
    )
    with pytest.raises(ManifestParseError, match="line 3"):
        read_predictions_csv(path)


def test_read_predictions_csv_missing_file(tmp_path):
    with pytest.raises(ManifestParseError, match="not found"):
        read_predictions_csv(tmp_path / "nope.csv")


# ---------------------------------------------------------------- reports

def _report_rows(grouped: bool = True) -> list[PredictionRow]:
    pairs = [
        _pair("73D231", "73D231"),
        _pair("71H14", "71H1442"),
        _pair("111", "731111"),
        _pair("71B32", "71B33"),
    ]
    groups = ["set-a", "set-a", "set-b", "set-b"] if grouped else [None] * 4
    return [
        PredictionRow(f"img{i}", pred, gt, g)
        for i, ((pred, gt), g) in enumerate(zip(pairs, groups))
    ]


def test_build_report_structure():
    rows = _report_rows()
    report = build_report("demo-method", rows, max_level=7, max_k=2)
    assert report["label"] == "demo-method"
    assert report["count"] == 4
    assert set(report["summary"]) == {"avg_weighted", "avg_precision", "avg_recall", "avg_f1"}
    assert len(report["level_accuracy"]) == 7
    assert len(report["truncation"]) == 3
    assert sorted(report["groups"]) == ["set-a", "set-b"]
    assert report["groups"]["set-a"]["count"] == 2
    assert report["config"] == {"label": "demo-method", "max_level": 7, "max_k": 2}
    # deterministic serialization
    a = json.dumps(report, sort_keys=True)
    b = json.dumps(build_report("demo-method", rows, max_level=7, max_k=2), sort_keys=True)
    assert a == b


def test_build_report_values_are_pinned():
    report = build_report("demo-method", _report_rows(), max_level=7, max_k=2)
    level_rows = [(1, 3, 75.0), (2, 3, 75.0), (3, 3, 75.0), (4, 3, 75.0), (5, 2, 50.0), (6, 1, 25.0), (7, 0, 0.0)]
    assert report == {
        "label": "demo-method",
        "count": 4,
        "summary": {"avg_weighted": 49.77857142857143, "avg_precision": 0.7,
                    "avg_recall": 0.6285714285714286, "avg_f1": 0.6583333333333333},
        "match_counts": {"extra": 0, "full": 1, "partial_a": 1, "partial_b": 0,
                         "partial_c": 1, "no_match": 1},
        "level_accuracy": [{"level": lv, "objects": n, "percent": pc} for lv, n, pc in level_rows],
        "truncation": [
            {"k": 0, "precision": 0.7, "recall": 0.6285714285714286, "f1": 0.6583333333333333,
             "avg_levels": 4.75},
            {"k": 1, "precision": 0.75, "recall": 0.5511904761904762, "f1": 0.6313131313131313,
             "avg_levels": 3.75},
            {"k": 2, "precision": 0.75, "recall": 0.42380952380952375, "f1": 0.5375,
             "avg_levels": 2.75},
        ],
        "groups": {
            "set-a": {"count": 2, "avg_weighted": 80.35714285714286, "avg_precision": 1.0,
                      "avg_recall": 0.8571428571428572, "avg_f1": 0.9166666666666666},
            "set-b": {"count": 2, "avg_weighted": 19.200000000000003, "avg_precision": 0.4,
                      "avg_recall": 0.4, "avg_f1": 0.4000000000000001},
        },
        "config": {"label": "demo-method", "max_level": 7, "max_k": 2},
    }


def test_build_report_optional_sections():
    report = build_report("demo", _report_rows(grouped=False))
    assert "groups" not in report
    assert report["config"] == {"label": "demo", "max_level": 9, "max_k": 4}


def test_render_report_text_sections():
    rows = _report_rows()
    text = render_report_text(build_report("demo-method", rows))
    for header in ("== Summary ==", "== Match types ==", "== Accuracy by level ==",
                   "== Truncation sweep ==", "== Groups =="):
        assert header in text
    assert "demo-method" in text
    avg = sum(evaluate_pair(r.image_id, r.predicted, r.ground_truth).weighted for r in rows) / len(rows)
    assert f"{avg:.5f}" in text
    assert text.endswith("\n")


def test_golden_predictions_rescore_to_the_golden_report_byte_for_byte(fixtures_dir):
    # every mean sums left to right, so the bytes are the same on every Python (sum() is not from 3.12)
    golden = fixtures_dir / "golden" / "rag-vector-page-basic"
    report = build_report("rag-vector/page/basic", read_predictions_csv(golden / "predictions.csv"),
                          max_level=9, max_k=4)
    assert (json.dumps(report, indent=2, sort_keys=True) + "\n").encode() == (golden / "report.json").read_bytes()
    assert render_report_text(report).encode() == (golden / "report.txt").read_bytes()


def test_render_report_text_without_groups():
    text = render_report_text(build_report("demo", _report_rows(grouped=False)))
    assert "== Groups ==" not in text
