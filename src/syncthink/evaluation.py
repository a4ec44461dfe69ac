"""Benchmark samples, answer normalization, and scoring.

Scoring is exact match on normalized answers.  Normalization is purely
string-level: numeric answers keep their last number with commas,
currency and units stripped; multiple-choice answers reduce to one
uppercase letter found in answer-indicative positions; freeform answers
keep the last non-empty line, case-folded, whitespace-collapsed, and
without trailing sentence punctuation.  parse_answer is idempotent on
its own output for every kind.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, replace

from . import jsonl
from .errors import ConfigurationError, ScoringError, UndefinedRateError
from .policy import POLICIES

TASK_KINDS = ("numeric", "multiple_choice", "freeform")

# report rows follow the canonical policy order
_POLICY_RANK = {policy: i for i, policy in enumerate(POLICIES)}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")
_CHOICE_PHRASE = re.compile(
    r"(?i)\b(?:answer|option|choice)\b\s*(?:is|:)?\s*\**[\(\[]?([A-Za-z])[\)\]]?\b"
)
_CHOICE_PAREN = re.compile(r"[\(\[]([A-Za-z])[\)\]]")
_CHOICE_BARE = re.compile(r"\b([A-Z])\b")
_TRAILING_PUNCT = re.compile(r"[.?!,;:]+$")


@dataclass(frozen=True)
class Sample:
    sample_id: str
    question: str
    gold: str
    task_kind: str = "freeform"
    dataset: str = ""

    def __post_init__(self) -> None:
        if self.task_kind not in TASK_KINDS:
            raise ConfigurationError(
                f"task_kind must be one of {TASK_KINDS}, got {self.task_kind!r}"
            )
        if not self.sample_id:
            raise ConfigurationError("sample_id must be non-empty")


def load_dataset(path: str, dataset: str | None = None) -> tuple[list[Sample], list[tuple[int, str]]]:
    """Read samples from JSONL; malformed lines are reported, not fatal.

    Returns (samples, errors) where each error is (line number, message).
    """
    if dataset is None:
        stem = path.replace("\\", "/").rsplit("/", 1)[-1]
        dataset = stem.rsplit(".", 1)[0]
    samples: list[Sample] = []
    errors: list[tuple[int, str]] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                errors.append((lineno, f"invalid JSON: {exc}"))
                continue
            if not isinstance(obj, dict):
                errors.append((lineno, "expected a JSON object"))
                continue
            missing = [k for k in ("id", "question", "gold") if k not in obj]
            if missing:
                errors.append((lineno, f"missing fields: {', '.join(missing)}"))
                continue
            sample_id = str(obj["id"])
            if sample_id in seen:
                errors.append((lineno, f"duplicate id {sample_id!r}"))
                continue
            try:
                sample = Sample(
                    sample_id=sample_id,
                    question=str(obj["question"]),
                    gold=str(obj["gold"]),
                    task_kind=str(obj.get("task_kind", "freeform")),
                    dataset=dataset,
                )
            except ConfigurationError as exc:
                errors.append((lineno, str(exc)))
                continue
            seen.add(sample_id)
            samples.append(sample)
    return samples, errors


def _canonical_number(text: str) -> str:
    sign = ""
    if text[0] in "+-":
        sign = "-" if text[0] == "-" else ""
        text = text[1:]
    if "." in text:
        int_part, frac_part = text.split(".", 1)
    else:
        int_part, frac_part = text, ""
    int_part = int_part.lstrip("0") or "0"
    frac_part = frac_part.rstrip("0")
    value = int_part + ("." + frac_part if frac_part else "")
    if value.strip("0.") == "":
        return "0"
    return sign + value


def parse_answer(text: str, task_kind: str) -> str:
    """Normalize raw model output to a comparable answer string.

    Returns "" when no answer can be extracted.
    """
    if task_kind not in TASK_KINDS:
        raise ConfigurationError(
            f"task_kind must be one of {TASK_KINDS}, got {task_kind!r}"
        )
    if task_kind == "numeric":
        matches = _NUMBER.findall(text.replace(",", ""))
        if not matches:
            return ""
        return _canonical_number(matches[-1])
    if task_kind == "multiple_choice":
        stripped = text.strip()
        if len(stripped) == 1 and stripped.isalpha():
            return stripped.upper()
        for pattern in (_CHOICE_PHRASE, _CHOICE_PAREN, _CHOICE_BARE):
            found = pattern.findall(text)
            if found:
                return found[-1].upper()
        return ""
    # freeform
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return ""
    collapsed = " ".join(lines[-1].split()).casefold()
    return _TRAILING_PUNCT.sub("", collapsed)


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    policy: str
    n: int
    n_incomplete: int
    top1: float
    mean_reasoning_tokens: float
    mean_answer_tokens: float
    mean_total_tokens: float
    mean_total_time: float
    objective: float
    efficiency: float | None


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[ReportRow, ...]
    alpha_cost: float = 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def score(records, samples, *, alpha_cost: float = 0.0) -> BenchmarkReport:
    """Exact-match scoring of records against samples, per dataset x policy.

    Every record must name a known sample.  Incomplete records count in
    the denominator (a failed run is a wrong answer) but stay out of the
    token and time means.
    """
    records = list(records)
    if not records:
        raise ScoringError("no records to score")
    index: dict[str, Sample] = {}
    for sample in samples:
        if sample.sample_id in index:
            raise ScoringError(f"duplicate sample id {sample.sample_id!r}")
        index[sample.sample_id] = sample
    unknown = sorted({r.sample_id for r in records if r.sample_id not in index})
    if unknown:
        raise ScoringError(f"records reference unknown samples: {', '.join(unknown)}")

    groups: dict[tuple[str, str], list] = {}
    for record in records:
        sample = index[record.sample_id]
        groups.setdefault((sample.dataset, record.policy), []).append(record)

    rows: list[ReportRow] = []
    for (dataset, policy), group in groups.items():
        n = len(group)
        complete = [r for r in group if r.complete]
        matches = 0
        for record in group:
            if not record.complete:
                continue
            sample = index[record.sample_id]
            gold_norm = parse_answer(sample.gold, sample.task_kind)
            if gold_norm and record.normalized_answer == gold_norm:
                matches += 1
        top1 = 100.0 * matches / n
        mean_total = _mean([float(r.total_tokens) for r in complete])
        rows.append(
            ReportRow(
                dataset=dataset,
                policy=policy,
                n=n,
                n_incomplete=n - len(complete),
                top1=top1,
                mean_reasoning_tokens=_mean([float(r.reasoning_tokens) for r in complete]),
                mean_answer_tokens=_mean([float(r.answer_tokens) for r in complete]),
                mean_total_tokens=mean_total,
                mean_total_time=_mean([r.t_total for r in complete]),
                objective=top1 - alpha_cost * mean_total,
                efficiency=None,
            )
        )

    rows.sort(key=lambda r: (r.dataset, _POLICY_RANK.get(r.policy, len(POLICIES)), r.policy))

    # efficiency relative to the no-reasoning policy in the same dataset
    by_dataset_base = {row.dataset: row for row in rows if row.policy == "none"}
    final_rows: list[ReportRow] = []
    for row in rows:
        base = by_dataset_base.get(row.dataset)
        efficiency = None
        if base is not None and row.policy != "none":
            try:
                efficiency = efficiency_rate(
                    row.top1, row.mean_total_tokens, base.top1, base.mean_total_tokens
                )
            except UndefinedRateError:
                efficiency = None
        final_rows.append(replace(row, efficiency=efficiency))
    return BenchmarkReport(rows=tuple(final_rows), alpha_cost=alpha_cost)


def efficiency_rate(
    accuracy: float, tokens: float, base_accuracy: float, base_tokens: float
) -> float:
    """Accuracy points gained per 100 extra tokens over the baseline."""
    extra = tokens - base_tokens
    if extra <= 0:
        raise UndefinedRateError(
            f"no extra token spend over the baseline ({tokens} vs {base_tokens})"
        )
    return 100.0 * (accuracy - base_accuracy) / extra


_CSV_COLUMNS = (
    "dataset",
    "policy",
    "n",
    "n_incomplete",
    "top1",
    "mean_reasoning_tokens",
    "mean_answer_tokens",
    "mean_total_tokens",
    "mean_total_time",
    "objective",
    "efficiency",
    "alpha_cost",
)


def emit_report(report: BenchmarkReport, path: str) -> None:
    """Write the report as CSV; read_report reads it back losslessly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in report.rows:
            writer.writerow(
                [
                    row.dataset,
                    row.policy,
                    row.n,
                    row.n_incomplete,
                    jsonl.format_float(row.top1),
                    jsonl.format_float(row.mean_reasoning_tokens),
                    jsonl.format_float(row.mean_answer_tokens),
                    jsonl.format_float(row.mean_total_tokens),
                    jsonl.format_float(row.mean_total_time),
                    jsonl.format_float(row.objective),
                    "" if row.efficiency is None else jsonl.format_float(row.efficiency),
                    jsonl.format_float(report.alpha_cost),
                ]
            )


def read_report(path: str) -> BenchmarkReport:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        alpha = 0.0
        for rec in reader:
            alpha = float(rec["alpha_cost"])
            rows.append(
                ReportRow(
                    dataset=rec["dataset"],
                    policy=rec["policy"],
                    n=int(rec["n"]),
                    n_incomplete=int(rec["n_incomplete"]),
                    top1=float(rec["top1"]),
                    mean_reasoning_tokens=float(rec["mean_reasoning_tokens"]),
                    mean_answer_tokens=float(rec["mean_answer_tokens"]),
                    mean_total_tokens=float(rec["mean_total_tokens"]),
                    mean_total_time=float(rec["mean_total_time"]),
                    objective=float(rec["objective"]),
                    efficiency=float(rec["efficiency"]) if rec["efficiency"] else None,
                )
            )
    return BenchmarkReport(rows=tuple(rows), alpha_cost=alpha)
