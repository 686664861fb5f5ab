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
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyDenominator, PhonaugError, ZeroBaseline
from .inventory import ASPIRATION, Inventory, Phone, phonation_of, tokenize_ipa

VOICED_PHONEMES = ("b", "d", "g")
VOICELESS_PHONEMES = ("p", "t", "k")
ALL_PHONEMES = VOICED_PHONEMES + VOICELESS_PHONEMES

POA_GROUP_OF = {"p": "bilabial", "b": "bilabial",
                "t": "alveolar", "d": "alveolar",
                "k": "velar", "g": "velar"}
POA_GROUPS = ("bilabial", "alveolar", "velar")
# the required fields of an instance line
INSTANCE_FIELDS = {"utt_id": str, "phoneme": str, "vot_ms": (int, float), "onset": str}


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
        if not isinstance(self.utt_id, str):  # the significance test sorts utt_ids
            raise TypeError(f"utt_id must be a string, not {self.utt_id!r}")
        if self.target_phoneme not in ALL_PHONEMES:
            raise PhonaugError(f"target phoneme must be one of {ALL_PHONEMES}, "
                               f"got {self.target_phoneme!r}")
        if not math.isfinite(self.vot_ms):
            # NaN compares false with everything: it would score as voiceless
            # and leave the boxplot quartiles undefined
            raise PhonaugError(f"{self.utt_id}: vot_ms must be finite, got {self.vot_ms!r}")

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


# The part of a tokenized onset that decides its realization: the first phone
# and the base of the second (None when there is none), or None when the onset
# does not tokenize or is empty.
_Head = tuple[Phone, str | None] | None


def _onset_head(onset: str, inv: Inventory, hard_errors: bool) -> _Head:
    """Tokenize an onset down to its head; tokenizer errors give None unless
    hard_errors is set."""
    try:
        phones = tokenize_ipa(onset, inv)
    except PhonaugError:
        if hard_errors:
            raise
        return None
    if not phones:
        return None
    return phones[0], phones[1].base if len(phones) > 1 else None


def _realize(head: _Head, target_phoneme: str, cfg: ClassifierConfig) -> Realization:
    """The realization class of an onset head for one target phoneme."""
    if head is None:
        return Realization.NULL
    first, next_base = head
    if first.features.place not in cfg.poa_groups[target_phoneme]:
        return Realization.NULL
    if first.features.manner not in ("plosive", "affricate"):
        return Realization.NULL
    if ASPIRATION in first.diacritics:
        return Realization.ASPIRATED
    phn = phonation_of(first)
    if not phn.voiced and not phn.spread_glottis and first.features.manner == "plosive":
        if next_base in cfg.continuants[target_phoneme]:
            return Realization.AMBIGUOUS_ASPIRATED
    if phn.voiced:
        return Realization.VOICED
    return Realization.TENUIS


def classify_prediction(inst: EvalInstance, inventory: Inventory | None = None,
                        config: ClassifierConfig | None = None,
                        hard_errors: bool = False) -> Realization:
    """Assign exactly one realization class to a predicted onset."""
    inv = inventory or Inventory.default()
    cfg = config or ClassifierConfig.default()
    return _realize(_onset_head(inst.predicted_onset, inv, hard_errors),
                    inst.target_phoneme, cfg)


def classify_all(instances: Iterable[EvalInstance], inventory: Inventory | None = None,
                 config: ClassifierConfig | None = None,
                 hard_errors: bool = False) -> list[Classified]:
    """classify_prediction over many instances, tokenizing each distinct onset once."""
    inv = inventory or Inventory.default()
    cfg = config or ClassifierConfig.default()
    heads: dict[str, _Head] = {}
    out = []
    for i in instances:
        onset = i.predicted_onset
        if onset not in heads:
            heads[onset] = _onset_head(onset, inv, hard_errors)
        out.append(Classified(i, _realize(heads[onset], i.target_phoneme, cfg)))
    return out


# -- metrics ------------------------------------------------------------------
#
# Every metric is a share of a tally: instance counts keyed by
# (model_tag, target_phoneme, realization, vot_ms < 0), which is all any metric
# reads, so a report is one pass over the instances.

_Tally = dict[tuple[str, str, Realization, bool], int]

_ASP_HITS = {"strict": frozenset({Realization.ASPIRATED}),
             "lenient": frozenset({Realization.ASPIRATED,
                                   Realization.AMBIGUOUS_ASPIRATED})}
_TEN_HITS = {"strict": frozenset({Realization.TENUIS, Realization.AMBIGUOUS_ASPIRATED}),
             "lenient": frozenset({Realization.TENUIS})}


def _tally(items: Iterable[Classified]) -> _Tally:
    return Counter((c.instance.model_tag, c.instance.target_phoneme, c.realization,
                    c.instance.vot_ms < 0) for c in items)


def _voicing_correct(realization: Realization, voicing_lead: bool) -> bool:
    """Predicted voicing agrees with the VOT sign (vot_ms < 0 means voiced;
    0 counts as voiceless)."""
    return (realization is Realization.VOICED) == voicing_lead


def _share(t: _Tally, phonemes: Sequence[str], hit, what: str) -> float:
    """Percent of the non-Null tallied instances of `phonemes` for which
    hit(realization, voicing_lead) holds."""
    pool = hits = 0
    for (_, phoneme, realization, lead), k in t.items():
        if realization is not Realization.NULL and phoneme in phonemes:
            pool += k
            if hit(realization, lead):
                hits += k
    if not pool:
        raise EmptyDenominator(f"no non-Null {what}instances")
    return 100.0 * hits / pool


def _voicing_acc(t: _Tally) -> float:
    return _share(t, VOICED_PHONEMES, _voicing_correct, "/b d g/ ")


def _asp_pct(t: _Tally, mode: str) -> float:
    _check_mode(mode)
    hits = _ASP_HITS[mode]
    return _share(t, VOICELESS_PHONEMES, lambda r, _: r in hits, "/p t k/ ")


def _ten_pct(t: _Tally, mode: str) -> float:
    _check_mode(mode)
    hits = _TEN_HITS[mode]
    return _share(t, ALL_PHONEMES, lambda r, _: r in hits, "")


def _n_null(t: _Tally) -> int:
    return sum(k for (_, _, realization, _), k in t.items() if realization is Realization.NULL)


def _null_pct(t: _Tally) -> float:
    n = sum(t.values())
    return 100.0 * _n_null(t) / n if n else 0.0


def voicing_acc(items: Sequence[Classified]) -> float:
    """Percent of non-Null /b d g/ instances where predicted voicing agrees
    with the VOT sign (vot_ms < 0 means voiced; 0 counts as voiceless)."""
    return _voicing_acc(_tally(items))


def asp_pct(items: Sequence[Classified], mode: str = "strict") -> float:
    """Aspiration percentage over non-Null /p t k/ instances."""
    return _asp_pct(_tally(items), mode)


def ten_pct(items: Sequence[Classified], mode: str = "strict") -> float:
    """Tenuis (conflation-class) percentage over all six phonemes, non-Null."""
    return _ten_pct(_tally(items), mode)


def null_pct(items: Sequence[Classified]) -> float:
    return _null_pct(_tally(items))


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


def _report_row(t: _Tally) -> MetricsReport:
    def safe(fn, *args):
        try:
            return fn(t, *args)
        except EmptyDenominator:
            return None

    return MetricsReport(
        voicing_acc=safe(_voicing_acc),
        asp_strict=safe(_asp_pct, "strict"),
        asp_lenient=safe(_asp_pct, "lenient"),
        ten_strict=safe(_ten_pct, "strict"),
        ten_lenient=safe(_ten_pct, "lenient"),
        null_pct=_null_pct(t),
        n_instances=sum(t.values()),
        n_null=_n_null(t),
    )


def compute_report(items: Sequence[Classified]) -> MetricsReport:
    return _report_row(_tally(items))


def report(items: Sequence[Classified], groups: Sequence[str] = POA_GROUPS,
           ) -> dict[str, dict[str, MetricsReport]]:
    """Per-model overall and per-PoA-group reports, deterministically keyed."""
    t = _tally(items)
    out: dict[str, dict[str, MetricsReport]] = {}
    for model in sorted({key[0] for key in t}):
        mine = {key: k for key, k in t.items() if key[0] == model}
        rows = {"all": _report_row(mine)}
        for group in groups:
            subset = {key: k for key, k in mine.items() if POA_GROUP_OF[key[1]] == group}
            if subset:
                rows[group] = _report_row(subset)
        out[model] = rows
    return out


def paired_voicing_significance(items: Iterable[Classified], models: Sequence[str]) -> dict:
    """Exact McNemar test of voicing correctness between the two models named,
    paired by utt_id over the non-Null /b d g/ instances both models have."""
    flags: dict[str, dict[str, bool]] = {m: {} for m in models}
    for c in items:
        inst = c.instance
        if inst.target_phoneme not in VOICED_PHONEMES:
            continue
        if c.realization is Realization.NULL:
            continue
        flags[inst.model_tag][inst.utt_id] = _voicing_correct(c.realization, inst.vot_ms < 0)
    shared = sorted(set(flags[models[0]]) & set(flags[models[1]]))
    a = [flags[models[0]][u] for u in shared]
    b = [flags[models[1]][u] for u in shared]
    return {"models": list(models), "n_pairs": len(shared), "p_value": mcnemar_exact(a, b)}


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


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """The 25th, 50th and 75th percentiles of finite values, equal bit for bit
    to numpy.percentile(values, [25, 50, 75]) with its default linear method.

    One exception: where both -0.0 and 0.0 occur, a zero quartile takes its
    sign from a stable sort, while numpy's partition leaves equal values in no
    defined order.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        # numpy takes the last value with weight 1 here: x - 0.0 * 0.0 keeps -0.0
        return xs[0], xs[0], xs[0]
    out = []
    for q in (0.25, 0.5, 0.75):
        h = (n - 1) * q  # for quarters, equal to numpy's older n*q + (1-q) - 1
        lo = math.floor(h)
        t = h - lo
        a, b = xs[lo], xs[lo + 1]
        # numpy's lerp: interpolate from the nearer end
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)


def boxplot_rows(items: Sequence[Classified]) -> list[dict]:
    """Tukey boxplot stats of vot_ms per (model, PoA group, realization class).

    min/max are whisker ends (most extreme values within 1.5*IQR of the
    quartiles); values beyond the fences are listed as outliers.
    """
    buckets: dict[tuple[str, str, str], list[float]] = {}
    for c in items:
        key = (c.instance.model_tag, POA_GROUP_OF[c.instance.target_phoneme],
               c.realization.value)
        buckets.setdefault(key, []).append(c.instance.vot_ms)
    rows = []
    for (model, group, cls), values in sorted(buckets.items()):
        q1, med, q3 = quartiles(values)
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
