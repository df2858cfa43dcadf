"""Hierarchical evaluation of predicted Iconclass codes.

A prediction is compared to ground truth level by level: M leading levels
agree, the prediction has P levels, the truth has G. Everything else
(precision/recall/F1, match typing, weighted scores, level accuracy,
truncation sweeps) is derived from those three counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import MalformedCodeError, ManifestParseError
from .taxonomy import IconclassCode, common_depth, iter_csv, parse_code, truncate_code


class MatchType(Enum):
    """Prediction-vs-truth relationship; the enum value is the base score.
    Members are declared in the order the report lists them."""

    EXTRA = 90
    FULL = 100
    PARTIAL_A = 85  # too shallow, but every predicted level correct
    PARTIAL_B = 70  # too shallow and partly wrong
    PARTIAL_C = 60  # deep enough (or deeper), partly wrong
    NO_MATCH = 0


@dataclass(frozen=True)
class LevelComparison:
    matched: int
    pred_levels: int
    gt_levels: int

    def __post_init__(self):
        if self.pred_levels < 1 or self.gt_levels < 1:
            raise ValueError("codes have at least one level")
        if not 0 <= self.matched <= min(self.pred_levels, self.gt_levels):
            raise ValueError(
                f"matched {self.matched} out of range for "
                f"P={self.pred_levels}, G={self.gt_levels}"
            )


def compare(pred: IconclassCode, gt: IconclassCode) -> LevelComparison:
    return LevelComparison(
        matched=common_depth(pred, gt),
        pred_levels=pred.levels,
        gt_levels=gt.levels,
    )


def hierarchical_metrics(c: LevelComparison) -> tuple[float, float, float]:
    """(precision, recall, f1): correct levels over predicted levels,
    correct levels over ground-truth levels, and their harmonic mean
    (0 when both are 0)."""
    precision = c.matched / c.pred_levels
    recall = c.matched / c.gt_levels
    if precision + recall == 0:
        return precision, recall, 0.0
    f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def classify_match(c: LevelComparison) -> MatchType:
    m, p, g = c.matched, c.pred_levels, c.gt_levels
    if m == g:
        return MatchType.FULL if p == g else MatchType.EXTRA
    if m == 0:
        return MatchType.NO_MATCH
    if m == p:  # m <= min(p, g) and m != g, so p < g
        return MatchType.PARTIAL_A
    return MatchType.PARTIAL_B if p < g else MatchType.PARTIAL_C


def weighted_score(c: LevelComparison) -> float:
    """Base score scaled by how much of the hierarchy was matched, with a
    floor at half the base score for partial matches."""
    match = classify_match(c)
    m, p, g = c.matched, c.pred_levels, c.gt_levels
    raw = match.value * (m / g)
    if match not in (MatchType.EXTRA, MatchType.PARTIAL_A):
        # partly wrong predictions also pay for their incorrect levels
        raw *= m / p
    return max(raw, match.value / 2)


@dataclass(frozen=True)
class EvalRecord:
    image_id: str
    comparison: LevelComparison
    precision: float
    recall: float
    f1: float
    match_type: MatchType
    weighted: float
    group: Optional[str] = None


def evaluate_pair(
    image_id: str,
    pred: IconclassCode,
    gt: IconclassCode,
    group: Optional[str] = None,
) -> EvalRecord:
    c = compare(pred, gt)
    precision, recall, f1 = hierarchical_metrics(c)
    return EvalRecord(
        image_id=image_id,
        comparison=c,
        precision=precision,
        recall=recall,
        f1=f1,
        match_type=classify_match(c),
        weighted=weighted_score(c),
        group=group,
    )


def _mean(values: Sequence[float]) -> float:
    """Sum left to right from 0.0, then divide. `sum()` of floats compensates
    its rounding from Python 3.12 on, so it would change the report's bits."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def aggregate(records: Sequence[EvalRecord]) -> dict:
    """The count and the arithmetic means of the per-image metrics, as the
    report prints them for a method or a group."""
    if not records:
        raise ValueError("cannot aggregate zero records")
    return {
        "count": len(records),
        "avg_weighted": _mean([r.weighted for r in records]),
        "avg_precision": _mean([r.precision for r in records]),
        "avg_recall": _mean([r.recall for r in records]),
        "avg_f1": _mean([r.f1 for r in records]),
    }


def level_accuracy(records: Sequence[EvalRecord], max_level: int = 9) -> list[dict]:
    """For each level, how many records matched at least that deep."""
    if not records:
        raise ValueError("cannot compute level accuracy for zero records")
    total = len(records)
    rows = []
    for level in range(1, max_level + 1):
        objects = sum(1 for r in records if r.comparison.matched >= level)
        rows.append({"level": level, "objects": objects, "percent": 100.0 * objects / total})
    return rows


def truncation_report(
    pairs: Sequence[tuple[IconclassCode, IconclassCode]],
    max_k: int = 4,
) -> list[dict]:
    """Re-evaluate after chopping k trailing levels off each prediction,
    for k = 0..max_k. Truncation never goes below one level."""
    if not pairs:
        raise ValueError("cannot build a truncation report for zero pairs")
    rows = []
    for k in range(max_k + 1):
        cuts = [truncate_code(pred, k) for pred, _ in pairs]
        metrics = [hierarchical_metrics(compare(cut, gt)) for cut, (_, gt) in zip(cuts, pairs)]
        precision, recall, f1 = (_mean(column) for column in zip(*metrics))
        avg = _mean([cut.levels for cut in cuts])
        rows.append({"k": k, "precision": precision, "recall": recall, "f1": f1, "avg_levels": avg})
    return rows


@dataclass(frozen=True)
class PredictionRow:
    image_id: str
    predicted: IconclassCode
    ground_truth: IconclassCode
    group: Optional[str] = None


def read_predictions_csv(path: Union[str, Path]) -> list[PredictionRow]:
    """Read the classifier's CSV projection. Header is required; every row
    needs a well-formed prediction and ground truth, and a unique image_id."""
    rows: dict[str, PredictionRow] = {}
    for line_no, rec in iter_csv(path, ("image_id", "predicted_code", "ground_truth_code")):
        image_id = (rec.get("image_id") or "").strip()
        predicted = (rec.get("predicted_code") or "").strip()
        gt = (rec.get("ground_truth_code") or "").strip()
        if not image_id or not predicted or not gt:
            raise ManifestParseError(f"line {line_no}: {path}: incomplete prediction row")
        if image_id in rows:
            raise ManifestParseError(f"line {line_no}: {path}: duplicate image_id {image_id!r}")
        try:
            codes = parse_code(predicted), parse_code(gt)
        except MalformedCodeError as exc:
            raise ManifestParseError(f"line {line_no}: {path}: {image_id}: {exc}") from exc
        group = (rec.get("group") or "").strip() or None
        rows[image_id] = PredictionRow(image_id, *codes, group)
    return list(rows.values())


def build_report(label: str, rows: Sequence[PredictionRow], max_level: int = 9, max_k: int = 4) -> dict:
    """Score every prediction row and assemble the JSON-ready report for one method run."""
    records = [evaluate_pair(r.image_id, r.predicted, r.ground_truth, r.group) for r in rows]
    pairs = [(r.predicted, r.ground_truth) for r in rows]
    summary = aggregate(records)
    count = summary.pop("count")
    report = {
        "label": label,
        "count": count,
        "summary": summary,
        "match_counts": {mt.name.lower(): sum(r.match_type is mt for r in records) for mt in MatchType},
        "level_accuracy": level_accuracy(records, max_level),
        "truncation": truncation_report(pairs, max_k),
        "config": {"label": label, "max_level": max_level, "max_k": max_k},
    }
    groups = sorted({r.group for r in records if r.group})
    if groups:
        report["groups"] = {g: aggregate([r for r in records if r.group == g]) for g in groups}
    return report


_MEANS_HEADER = f"{'count':>6}{'weighted':>11}{'precision':>11}{'recall':>9}{'f1':>9}"


def _means_cells(count: int, means: dict) -> str:
    """The count and avg_* columns under _MEANS_HEADER."""
    return (
        f"{count:>6}{means['avg_weighted']:>11.5f}{means['avg_precision']:>11.4f}"
        f"{means['avg_recall']:>9.4f}{means['avg_f1']:>9.4f}"
    )


def render_report_text(report: dict) -> str:
    """Aligned plain-text tables mirroring the JSON report."""
    lines = []
    lines.append("== Summary ==")
    lines.append(f"{'method':<34}{_MEANS_HEADER}")
    lines.append(f"{report['label']:<34}{_means_cells(report['count'], report['summary'])}")
    lines.append("")
    lines.append("== Match types ==")
    names = [mt.name.lower() for mt in MatchType]
    counts = report["match_counts"]
    lines.append("".join(f"{n:>11}" for n in names))
    lines.append("".join(f"{counts[n]:>11}" for n in names))
    lines.append("")
    lines.append("== Accuracy by level ==")
    lines.append(f"{'level':>5}{'objects':>9}{'percent':>9}")
    for row in report["level_accuracy"]:
        lines.append(f"{row['level']:>5}{row['objects']:>9}{row['percent']:>9.2f}")
    lines.append("")
    lines.append("== Truncation sweep ==")
    lines.append(f"{'k':>2}{'precision':>11}{'recall':>9}{'f1':>9}{'avg_levels':>12}")
    for row in report["truncation"]:
        lines.append(
            f"{row['k']:>2}{row['precision']:>11.4f}{row['recall']:>9.4f}"
            f"{row['f1']:>9.4f}{row['avg_levels']:>12.2f}"
        )
    if "groups" in report:
        lines.append("")
        lines.append("== Groups ==")
        lines.append(f"{'group':<20}{_MEANS_HEADER}")
        for g, agg in sorted(report["groups"].items()):
            lines.append(f"{g:<20}{_means_cells(agg['count'], agg)}")
    return "\n".join(lines) + "\n"
