"""VOT-grounded evaluation of predicted plosive realizations.

Realization classes follow the voicing x spread-glottis grid plus two special
cases: AmbiguousAspirated (tenuis plosive followed by a homorganic voiceless
continuant, e.g. [kx]) and Null (wrong active articulator or manner). Null
predictions are excluded from VoicingAcc/Asp%/Ten% denominators.

Strict mode counts ambiguous realizations as tenuis; lenient mode counts them
as aspirated. Percentages are kept at full precision internally and rounded
to one decimal only when rendered.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyDenominator, PhonaugError, ZeroBaseline
from .inventory import ASPIRATION, Inventory, phonation_of, tokenize_ipa

VOICED_PHONEMES = ("b", "d", "g")
VOICELESS_PHONEMES = ("p", "t", "k")
ALL_PHONEMES = VOICED_PHONEMES + VOICELESS_PHONEMES

POA_GROUP_OF = {"p": "bilabial", "b": "bilabial",
                "t": "alveolar", "d": "alveolar",
                "k": "velar", "g": "velar"}
POA_GROUPS = ("bilabial", "alveolar", "velar")


class Realization(enum.Enum):
    VOICED = "voiced"
    TENUIS = "tenuis"
    ASPIRATED = "aspirated"
    AMBIGUOUS_ASPIRATED = "ambiguous_aspirated"
    NULL = "null"


@dataclass(frozen=True)
class EvalInstance:
    utt_id: str
    target_phoneme: str
    vot_ms: float
    predicted_onset: str
    model_tag: str = "OTHER"

    def __post_init__(self):
        if self.target_phoneme not in ALL_PHONEMES:
            raise PhonaugError(f"target phoneme must be one of {ALL_PHONEMES}, "
                               f"got {self.target_phoneme!r}")

    @classmethod
    def from_obj(cls, obj: dict) -> "EvalInstance":
        return cls(obj["utt_id"], obj["phoneme"], float(obj["vot_ms"]),
                   obj["onset"], obj.get("model", "OTHER"))


@dataclass(frozen=True)
class Classified:
    instance: EvalInstance
    realization: Realization


@dataclass(frozen=True)
class ClassifierConfig:
    """Admissible places per target phoneme and homorganic voiceless
    continuants (both user-editable data, defaults packaged)."""

    poa_groups: dict[str, frozenset[str]]
    continuants: dict[str, frozenset[str]]

    @classmethod
    def from_obj(cls, obj: dict) -> "ClassifierConfig":
        return cls({k: frozenset(v) for k, v in obj["poa_groups"].items()},
                   {k: frozenset(v) for k, v in obj["continuants"].items()})

    @classmethod
    def load(cls, path: str | Path) -> "ClassifierConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_obj(json.load(f))

    @classmethod
    def default(cls) -> "ClassifierConfig":
        data = resources.files("phonaug.data").joinpath("continuants.json").read_text("utf-8")
        return cls.from_obj(json.loads(data))


def classify_prediction(inst: EvalInstance, inventory: Inventory | None = None,
                        config: ClassifierConfig | None = None,
                        hard_errors: bool = False) -> Realization:
    """Assign exactly one realization class to a predicted onset."""
    inv = inventory or Inventory.default()
    cfg = config or ClassifierConfig.default()
    try:
        phones = tokenize_ipa(inst.predicted_onset, inv)
    except PhonaugError:
        if hard_errors:
            raise
        return Realization.NULL
    if not phones:
        return Realization.NULL
    first = phones[0]
    admissible = cfg.poa_groups[inst.target_phoneme]
    if first.features.place not in admissible:
        return Realization.NULL
    if first.features.manner not in ("plosive", "affricate"):
        return Realization.NULL
    if ASPIRATION in first.diacritics:
        return Realization.ASPIRATED
    phn = phonation_of(first)
    if not phn.voiced and not phn.spread_glottis and first.features.manner == "plosive":
        if len(phones) > 1 and phones[1].base in cfg.continuants[inst.target_phoneme]:
            return Realization.AMBIGUOUS_ASPIRATED
    if phn.voiced:
        return Realization.VOICED
    return Realization.TENUIS


def classify_all(instances: Iterable[EvalInstance], inventory: Inventory | None = None,
                 config: ClassifierConfig | None = None,
                 hard_errors: bool = False) -> list[Classified]:
    inv = inventory or Inventory.default()
    cfg = config or ClassifierConfig.default()
    return [Classified(i, classify_prediction(i, inv, cfg, hard_errors)) for i in instances]


def _non_null(items: Sequence[Classified]) -> list[Classified]:
    return [c for c in items if c.realization is not Realization.NULL]


def voicing_acc(items: Sequence[Classified]) -> float:
    """Percent of non-Null /b d g/ instances where predicted voicing agrees
    with the VOT sign (vot_ms < 0 means voiced; 0 counts as voiceless)."""
    pool = [c for c in _non_null(items) if c.instance.target_phoneme in VOICED_PHONEMES]
    if not pool:
        raise EmptyDenominator("no non-Null /b d g/ instances")
    correct = sum(
        1 for c in pool
        if (c.realization is Realization.VOICED) == (c.instance.vot_ms < 0))
    return 100.0 * correct / len(pool)


def asp_pct(items: Sequence[Classified], mode: str = "strict") -> float:
    """Aspiration percentage over non-Null /p t k/ instances."""
    _check_mode(mode)
    pool = [c for c in _non_null(items) if c.instance.target_phoneme in VOICELESS_PHONEMES]
    if not pool:
        raise EmptyDenominator("no non-Null /p t k/ instances")
    hits = {Realization.ASPIRATED}
    if mode == "lenient":
        hits.add(Realization.AMBIGUOUS_ASPIRATED)
    return 100.0 * sum(1 for c in pool if c.realization in hits) / len(pool)


def ten_pct(items: Sequence[Classified], mode: str = "strict") -> float:
    """Tenuis (conflation-class) percentage over all six phonemes, non-Null."""
    _check_mode(mode)
    pool = _non_null(items)
    if not pool:
        raise EmptyDenominator("no non-Null instances")
    hits = {Realization.TENUIS}
    if mode == "strict":
        hits.add(Realization.AMBIGUOUS_ASPIRATED)
    return 100.0 * sum(1 for c in pool if c.realization in hits) / len(pool)


def null_pct(items: Sequence[Classified]) -> float:
    if not items:
        return 0.0
    return 100.0 * sum(1 for c in items if c.realization is Realization.NULL) / len(items)


def _check_mode(mode: str) -> None:
    if mode not in ("strict", "lenient"):
        raise PhonaugError(f"mode must be 'strict' or 'lenient', got {mode!r}")


def relative_change(before: float, after: float) -> float:
    """Signed relative change in percent."""
    if before <= 0:
        raise ZeroBaseline(f"baseline must be positive, got {before}")
    return 100.0 * (after - before) / before


def mcnemar_exact(bm: Sequence[bool], tm: Sequence[bool]) -> float:
    """Two-sided exact (binomial) McNemar p-value over paired correct-flags.

    With no discordant pairs the p-value is 1.0 by convention; otherwise
    p = min(1, 2 * P(X <= min(b, c))) for X ~ Binomial(b + c, 1/2).
    """
    if len(bm) != len(tm):
        raise PhonaugError("paired outcome vectors must have equal length")
    b = sum(1 for x, y in zip(bm, tm) if x and not y)
    c = sum(1 for x, y in zip(bm, tm) if y and not x)
    n = b + c
    if n == 0:
        return 1.0
    k = min(b, c)
    # an integer ratio stays exact for any n; in floats, 0.5 ** n is subnormal
    # past n = 1022 and 2.0 * tail overflows near n = 1026
    p = 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(p, 1.0)


# -- reporting ----------------------------------------------------------------


@dataclass
class MetricsReport:
    """One row of the results table; None marks an empty denominator (N/A)."""

    voicing_acc: float | None
    asp_strict: float | None
    asp_lenient: float | None
    ten_strict: float | None
    ten_lenient: float | None
    null_pct: float
    n_instances: int
    n_null: int

    def to_obj(self) -> dict:
        def r(x):
            return None if x is None else round(x, 1)
        return {
            "voicing_acc": r(self.voicing_acc),
            "asp_strict": r(self.asp_strict),
            "asp_lenient": r(self.asp_lenient),
            "ten_strict": r(self.ten_strict),
            "ten_lenient": r(self.ten_lenient),
            "null_pct": r(self.null_pct),
            "n_instances": self.n_instances,
            "n_null": self.n_null,
        }


def compute_report(items: Sequence[Classified]) -> MetricsReport:
    def safe(fn, *args):
        try:
            return fn(items, *args)
        except EmptyDenominator:
            return None

    return MetricsReport(
        voicing_acc=safe(voicing_acc),
        asp_strict=safe(asp_pct, "strict"),
        asp_lenient=safe(asp_pct, "lenient"),
        ten_strict=safe(ten_pct, "strict"),
        ten_lenient=safe(ten_pct, "lenient"),
        null_pct=null_pct(items),
        n_instances=len(items),
        n_null=sum(1 for c in items if c.realization is Realization.NULL),
    )


def report(items: Sequence[Classified], groups: Sequence[str] = POA_GROUPS,
           ) -> dict[str, dict[str, MetricsReport]]:
    """Per-model overall and per-PoA-group reports, deterministically keyed."""
    by_model: dict[str, list[Classified]] = {}
    for c in sorted(items, key=lambda c: (c.instance.model_tag, c.instance.utt_id)):
        by_model.setdefault(c.instance.model_tag, []).append(c)
    out: dict[str, dict[str, MetricsReport]] = {}
    for model in sorted(by_model):
        rows = {"all": compute_report(by_model[model])}
        for group in groups:
            subset = [c for c in by_model[model]
                      if POA_GROUP_OF[c.instance.target_phoneme] == group]
            if subset:
                rows[group] = compute_report(subset)
        out[model] = rows
    return out


def format_report(reports: dict[str, dict[str, MetricsReport]]) -> str:
    """Fixed-layout text table: one section per PoA group, one row per model."""

    def cell(strict: float | None, lenient: float | None = None) -> str:
        if strict is None:
            return "N/A"
        s = f"{strict:.1f}"
        if lenient is not None:
            s += f" ({lenient:.1f})"
        return s

    sections: dict[str, list[str]] = {}
    for model, rows in reports.items():
        for group, rep in rows.items():
            sections.setdefault(group, []).append(
                f"{model:<6}{cell(rep.voicing_acc):>12}"
                f"{cell(rep.asp_strict, rep.asp_lenient):>16}"
                f"{cell(rep.ten_strict, rep.ten_lenient):>16}"
                f"{cell(rep.null_pct):>8}")
    header = f"{'':<6}{'VoicingAcc':>12}{'Asp%':>16}{'Ten%':>16}{'NULL':>8}"
    lines = []
    for group in sorted(sections):
        lines.append(f"== {group} ==")
        lines.append(header)
        lines.extend(sections[group])
        lines.append("")
    return "\n".join(lines)


def boxplot_rows(items: Sequence[Classified]) -> list[dict]:
    """Tukey boxplot stats of vot_ms per (model, PoA group, realization class).

    min/max are whisker ends (most extreme values within 1.5*IQR of the
    quartiles); values beyond the fences are listed as outliers.
    """
    import numpy as np  # deferred: the only numpy user, kept off CLI start-up

    buckets: dict[tuple[str, str, str], list[float]] = {}
    for c in items:
        key = (c.instance.model_tag, POA_GROUP_OF[c.instance.target_phoneme],
               c.realization.value)
        buckets.setdefault(key, []).append(c.instance.vot_ms)
    rows = []
    for (model, group, cls), values in sorted(buckets.items()):
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        lo_fence = q1 - 1.5 * (q3 - q1)
        hi_fence = q3 + 1.5 * (q3 - q1)
        inside = [v for v in values if lo_fence <= v <= hi_fence]
        outliers = sorted(v for v in values if v < lo_fence or v > hi_fence)
        rows.append({
            "model": model, "group": group, "class": cls,
            "min": min(inside), "q1": float(q1), "median": float(med),
            "q3": float(q3), "max": max(inside), "outliers": outliers,
        })
    return rows


def boxplot_csv(rows: list[dict]) -> str:
    lines = ["group,class,min,q1,median,q3,max,outliers"]
    for r in rows:
        group = f"{r['model']}/{r['group']}" if r.get("model") else r["group"]
        outliers = ";".join(f"{v:g}" for v in r["outliers"])
        lines.append(f"{group},{r['class']},{r['min']:g},{r['q1']:g},"
                     f"{r['median']:g},{r['q3']:g},{r['max']:g},{outliers}")
    return "\n".join(lines) + "\n"
