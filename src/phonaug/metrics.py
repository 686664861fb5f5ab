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
import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from contextlib import closing
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import io
from .errors import EmptyDenominator, PhonaugError, ZeroBaseline, checked_make
from .inventory import ASPIRATION, PLACES, TENUIS, Inventory, Phone
from .io import (
    MODEL_TAGS, POA_GROUP_OF, POA_GROUPS, TARGET_PHONEMES, VOICED_PHONEMES, VOICELESS_PHONEMES,
)

# the fields of an instance line
INSTANCE_FIELDS = {"utt_id": io.STRING, "phoneme": io.STRING, "vot_ms": io.NUMBER,
                   "onset": io.STRING, "model": io.Optional(io.STRING)}
# No VOT lasts 1000 s. Below this bound on |vot_ms| every quartile, fence and
# whisker of a boxplot is finite; NaN, which compares false with everything, and
# infinity fail it too.
MAX_ABS_VOT_MS = 1e6


class Realization(enum.Enum):
    VOICED = "voiced"
    TENUIS = "tenuis"
    ASPIRATED = "aspirated"
    AMBIGUOUS_ASPIRATED = "ambiguous_aspirated"
    NULL = "null"

    # members are singletons, equal only to themselves: hash them by identity,
    # in C, where Enum hashes the name through a Python-level call
    __hash__ = object.__hash__


# The members, for the code that runs once per instance: in Python 3.11, a
# read such as Realization.NULL goes through EnumType's __getattr__ hook, which
# makes it several times slower than a module global.
_VOICED, _TENUIS, _ASPIRATED, _AMBIGUOUS, _NULL = (
    Realization.VOICED, Realization.TENUIS, Realization.ASPIRATED,
    Realization.AMBIGUOUS_ASPIRATED, Realization.NULL)


class _InstanceFields(NamedTuple):
    utt_id: str
    target_phoneme: str
    vot_ms: float
    predicted_onset: str
    model_tag: str = "OTHER"


class EvalInstance(_InstanceFields):
    """One instance line, checked when it is built: a target phoneme of
    TARGET_PHONEMES, a vot_ms of magnitude under MAX_ABS_VOT_MS and a model tag of
    MODEL_TAGS. An immutable tuple record: `evaluate` builds one only for a line
    that fails these checks, so that it raises their message (see
    `Evaluation.read`)."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, utt_id: str, target_phoneme: str, vot_ms: float, predicted_onset: str,
                model_tag: str = "OTHER") -> "EvalInstance":
        if target_phoneme not in TARGET_PHONEMES:
            raise PhonaugError(f"{io.shown_id(utt_id)}: target phoneme must be one of "
                               f"{TARGET_PHONEMES}, got {io.shown(target_phoneme)}")
        if not -MAX_ABS_VOT_MS < vot_ms < MAX_ABS_VOT_MS:
            raise PhonaugError(f"{io.shown_id(utt_id)}: vot_ms must be finite and under "
                               f"{MAX_ABS_VOT_MS:.0f} ms in magnitude, got {io.shown(vot_ms)}")
        if model_tag not in MODEL_TAGS:
            # a mistyped tag would be reported as a model of its own
            raise PhonaugError(f"{io.shown_id(utt_id)}: unknown model tag {io.shown(model_tag)}")
        return tuple.__new__(cls, (utt_id, target_phoneme, vot_ms, predicted_onset, model_tag))

    @classmethod
    def from_obj(cls, obj: dict) -> "EvalInstance":
        return cls(obj["utt_id"], obj["phoneme"], float(obj["vot_ms"]),
                   obj["onset"], obj.get("model", "OTHER"))


class Classified(NamedTuple):
    instance: EvalInstance
    realization: Realization


class ClassifierConfig(NamedTuple):
    """Admissible places per target phoneme and homorganic voiceless
    continuants (both user-editable data, defaults packaged)."""

    poa_groups: dict[str, frozenset[str]]
    continuants: dict[str, frozenset[str]]

    @classmethod
    def load(cls, path: str | Path) -> "ClassifierConfig":
        names = ("poa_groups", "continuants")
        rows = dict.fromkeys(TARGET_PHONEMES, io.ListOf(io.STRING))

        def from_obj(obj):
            for p in TARGET_PHONEMES:  # a misspelt place would score every onset Null
                for place in obj["poa_groups"][p]:
                    if place not in PLACES:
                        raise io.FieldError(f"field 'poa_groups.{p}' names no place: {place!r}")
            return cls(*({p: frozenset(obj[n][p]) for p in TARGET_PHONEMES} for n in names))

        return io.read_json(path, from_obj, dict.fromkeys(names, rows))

    @classmethod
    def default(cls) -> "ClassifierConfig":
        return cls.load(io.DATA / "continuants.json")


def _realize(head: tuple[Phone, str | None] | None, target_phoneme: str,
             cfg: ClassifierConfig) -> Realization:
    """The realization class of an onset head, as `Inventory.head` reads it, for one
    target phoneme: None (no phone) is Null."""
    if head is None:
        return _NULL
    first, next_base = head
    if first.place not in cfg.poa_groups[target_phoneme]:
        return _NULL
    manner = first.manner
    if manner not in ("plosive", "affricate"):
        return _NULL
    if ASPIRATION in first.diacritics:
        return _ASPIRATED
    phn = first.phonation
    if phn is TENUIS and manner == "plosive":
        if next_base in cfg.continuants[target_phoneme]:
            return _AMBIGUOUS
    if phn.voiced:
        return _VOICED
    return _TENUIS


def classify_prediction(inst: EvalInstance, inventory: Inventory | None = None,
                        config: ClassifierConfig | None = None) -> Realization:
    """Assign exactly one realization class to a predicted onset."""
    inv = inventory or Inventory.default()
    cfg = config or ClassifierConfig.default()
    return _realize(inv.head(inst.predicted_onset), inst.target_phoneme, cfg)


def classify_all(instances: Iterable[EvalInstance], inventory: Inventory | None = None,
                 config: ClassifierConfig | None = None) -> list[Classified]:
    """classify_prediction over many instances, reading each distinct onset once."""
    inv = inventory or Inventory.default()
    cfg = config or ClassifierConfig.default()
    heads = {}
    out = []
    for i in instances:
        onset = i.predicted_onset
        if onset not in heads:
            heads[onset] = inv.head(onset)
        out.append(Classified(i, _realize(heads[onset], i.target_phoneme, cfg)))
    return out


# -- metrics ------------------------------------------------------------------
#
# Every metric is read off `Evaluation`'s cells, the instance counts per
# (model, target phoneme, realization) with vot_ms >= 0 and with vot_ms < 0:
# `_row` reads one table row off any set of cells, in one pass.


def _defined(share: float | None, what: str) -> float:
    if share is None:
        raise EmptyDenominator(f"no non-Null {what}instances")
    return share


def voicing_acc(items: Iterable[Classified]) -> float:
    """Percent of non-Null /b d g/ instances where predicted voicing agrees
    with the VOT sign (vot_ms < 0 means voiced; 0 counts as voiceless)."""
    return _defined(Evaluation(items).row().voicing_acc, "/b d g/ ")


def asp_pct(items: Iterable[Classified], mode: str = "strict") -> float:
    """Aspiration percentage over non-Null /p t k/ instances."""
    _check_mode(mode)
    row = Evaluation(items).row()
    return _defined(row.asp_strict if mode == "strict" else row.asp_lenient, "/p t k/ ")


def ten_pct(items: Iterable[Classified], mode: str = "strict") -> float:
    """Tenuis (conflation-class) percentage over all six phonemes, non-Null."""
    _check_mode(mode)
    row = Evaluation(items).row()
    return _defined(row.ten_strict if mode == "strict" else row.ten_lenient, "")


def null_pct(items: Iterable[Classified]) -> float:
    return Evaluation(items).row().null_pct


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
    p = min(1, 2 * P(X <= min(b, c))) for X ~ Binomial(b + c, 1/2). The tail is
    summed in exact integers from one running binomial coefficient,
    C(n, i) = C(n, i - 1) * (n - i + 1) // i: one step per term, so the number of
    steps is linear in the discordant pairs.
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
    term = tail = 1  # C(n, 0)
    for i in range(1, k + 1):
        term = term * (n - i + 1) // i  # C(n, i), exact: i divides the product
        tail += term
    return min(2 * tail / 2 ** n, 1.0)


# -- reporting ----------------------------------------------------------------


class MetricsReport(NamedTuple):
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
        """Each field by its name, a percentage rounded to one decimal."""
        return {k: round(v, 1) if type(v) is float else v for k, v in self._asdict().items()}


def _pct(hits: int, pool: int) -> float | None:
    return 100.0 * hits / pool if pool else None


def _row(cells: Iterable[tuple[str, Realization, list]]) -> MetricsReport:
    """One row of the results table, read off (phoneme, realization, [count
    with vot_ms >= 0, count with vot_ms < 0, ...]) cells. Null counts towards
    null_pct only. Strict mode counts an ambiguous realization as tenuis,
    lenient mode as aspirated."""
    bdg: Counter[Realization] = Counter()
    ptk: Counter[Realization] = Counter()
    bdg_correct = 0
    for phoneme, realization, cell in cells:
        voiced = phoneme in VOICED_PHONEMES
        (bdg if voiced else ptk)[realization] += cell[0] + cell[1]
        if voiced and realization is not Realization.NULL:
            # predicted voicing agrees with the VOT sign: vot_ms < 0 means voiced
            bdg_correct += cell[realization is Realization.VOICED]
    n_null = bdg.pop(Realization.NULL, 0) + ptk.pop(Realization.NULL, 0)
    pool = bdg + ptk
    n = pool.total() + n_null
    asp, amb, ten = Realization.ASPIRATED, Realization.AMBIGUOUS_ASPIRATED, Realization.TENUIS
    return MetricsReport(
        voicing_acc=_pct(bdg_correct, bdg.total()),
        asp_strict=_pct(ptk[asp], ptk.total()),
        asp_lenient=_pct(ptk[asp] + ptk[amb], ptk.total()),
        ten_strict=_pct(pool[ten] + pool[amb], pool.total()),
        ten_lenient=_pct(pool[ten], pool.total()),
        null_pct=100.0 * n_null / n if n else 0.0,
        n_instances=n, n_null=n_null,
    )


class Evaluation:
    """Everything `evaluate` reports, accumulated one classified instance at a
    time. Of the instances it keeps only the counts behind the metrics, the
    vot_ms values per (model, PoA group, realization) for the boxplots, and
    one dict per model from each utt_id to the voicing-correct flag of a kept
    non-Null /b d g/ instance, or None: `read` refuses a second utt_id by it,
    and `significance` pairs the models by it."""

    def __init__(self, classified: Iterable[tuple[EvalInstance, Realization]] = ()):
        # (model, phoneme, realization) -> [count with vot_ms >= 0, count with
        # vot_ms < 0, the vot_ms list of its boxplot bucket]: one lookup per
        # instance
        self._cells: dict[tuple[str, str, Realization], list] = {}
        # (model, PoA group, realization value) -> vot_ms in arrival order:
        # where -0.0 and 0.0 both occur, the order decides a zero's sign
        self._vots: dict[tuple[str, str, str], list[float]] = {}
        self._voicing: defaultdict[str, dict[str, bool | None]] = defaultdict(dict)
        self.update((i.model_tag, i.utt_id, i.target_phoneme, i.vot_ms, r) for i, r in classified)

    def read(self, path: str | Path, inventory: Inventory, config: ClassifierConfig,
             group: str | None = None) -> Iterator[tuple[str, str, str, float, Realization]]:
        """Each instance of PoA `group` (all when None) in the file at `path`, as a
        (model, utt_id, phoneme, vot_ms, realization) row for `update`. A line fails as
        io.parse_records(path, EvalInstance.from_obj, INSTANCE_FIELDS) fails on it, but
        no EvalInstance is built for a line that passes. Each instance, kept or not,
        must first be its model's only one with its utt_id: see `significance`."""
        number, limit, voicing, heads = io.NUMBER, MAX_ABS_VOT_MS, self._voicing, {}
        head = inventory.head
        with closing(io.read_jsonl(path)) as objs:
            for n, obj in enumerate(objs, start=1):
                # INSTANCE_FIELDS and EvalInstance's checks, inline: a phoneme of
                # TARGET_PHONEMES and a tag of MODEL_TAGS are strings already
                utt_id, phoneme, onset = obj.get("utt_id"), obj.get("phoneme"), obj.get("onset")
                vot, model = obj.get("vot_ms"), obj.get("model", "OTHER")
                # an int compares with a float exactly, and none inside the limit
                # overflows float(): vot_ms is tested as read, then converted
                if not (type(utt_id) is str and type(onset) is str
                        and type(vot) in number and -limit < vot < limit
                        and phoneme in TARGET_PHONEMES and model in MODEL_TAGS):
                    # parse_record raises it: a field's itself, any other by EvalInstance
                    utt_id, phoneme, vot, onset, model = io.parse_record(
                        path, n, obj, EvalInstance.from_obj, INSTANCE_FIELDS)
                else:
                    vot = float(vot)
                seen = voicing[model]
                if utt_id in seen:
                    raise PhonaugError(
                        f"{path}: {io.shown_id(utt_id)}: more than one {model} instance")
                seen[utt_id] = None
                if group is not None and POA_GROUP_OF[phoneme] != group:
                    continue
                if onset not in heads:
                    heads[onset] = head(onset)
                yield model, utt_id, phoneme, vot, _realize(heads[onset], phoneme, config)

    def update(self, rows: Iterable[tuple[str, str, str, float, Realization]]) -> None:
        """Tally each (model, utt_id, phoneme, vot_ms, realization) row."""
        cells, vots, voicing = self._cells, self._vots, self._voicing
        for model, utt_id, phoneme, vot, realization in rows:
            lead = vot < 0
            cell = cells.get((model, phoneme, realization))
            if cell is None:
                bucket = vots.setdefault((model, POA_GROUP_OF[phoneme], realization.value), [])
                cell = cells[model, phoneme, realization] = [0, 0, bucket]
            cell[lead] += 1
            cell[2].append(vot)
            if realization is not _NULL and phoneme in VOICED_PHONEMES:
                voicing[model][utt_id] = (realization is _VOICED) == lead  # as in _row

    def row(self) -> MetricsReport:
        """One row over every instance, of all models together."""
        return _row((phoneme, realization, cell)
                    for (_, phoneme, realization), cell in self._cells.items())

    def report(self) -> dict[str, dict[str, MetricsReport]]:
        """Per-model overall and per-PoA-group reports, deterministically keyed."""
        # model -> PoA group -> its (phoneme, realization, cell) cells
        by_model: defaultdict[str, defaultdict[str, list]] = defaultdict(lambda: defaultdict(list))
        for (model, phoneme, realization), cell in self._cells.items():
            by_model[model][POA_GROUP_OF[phoneme]].append((phoneme, realization, cell))
        out: dict[str, dict[str, MetricsReport]] = {}
        for model in sorted(by_model):
            groups = by_model[model]
            rows = {"all": _row(c for cells in groups.values() for c in cells)}
            rows.update((g, _row(groups[g])) for g in POA_GROUPS if g in groups)
            out[model] = rows
        return out

    def significance(self, models: Sequence[str]) -> dict:
        """Exact McNemar test of voicing correctness between the two models
        named, paired by utt_id over the non-Null /b d g/ instances both
        models have."""
        first, second = (self._voicing.get(m, {}) for m in models[:2])
        a, b = [], []  # the two flags of each utt_id that has one in both models
        for utt_id, flag in first.items():
            if flag is not None and (other := second.get(utt_id)) is not None:
                a.append(flag)
                b.append(other)
        return {"models": list(models), "n_pairs": len(a), "p_value": mcnemar_exact(a, b)}

    def texts(self) -> tuple[str, str, str]:
        """The three outputs of `evaluate`: the text table, with a McNemar line when
        there are two models, the JSON report and the boxplot CSV."""
        reports = self.report()
        payload: dict = {"models": {m: {g: r.to_obj() for g, r in rows.items()}
                                    for m, rows in reports.items()}}
        text = format_report(reports)
        if len(reports) == 2:
            sig = payload["significance"] = self.significance(sorted(reports))
            text += (f"McNemar exact (voicing, {sig['models'][0]} vs {sig['models'][1]}): "
                     f"p = {sig['p_value']:.6g} on {sig['n_pairs']} pairs\n")
        return text, io.dump_json(payload), boxplot_csv(self.boxplot_rows())

    def boxplot_rows(self) -> list[dict]:
        """Tukey boxplot stats of vot_ms per (model, PoA group, realization class).

        min/max are whisker ends (most extreme values within 1.5*IQR of the
        quartiles); values beyond the fences are listed as outliers.
        """
        rows = []
        for (model, group, cls), values in sorted(self._vots.items()):
            # one stable sort: equal values keep their arrival order, so where -0.0 and
            # 0.0 tie, each end below is the zero that min() and max() would return
            xs = sorted(values)
            q1, med, q3 = _sorted_quartiles(xs)
            lo = bisect_left(xs, q1 - 1.5 * (q3 - q1))
            hi = bisect_right(xs, q3 + 1.5 * (q3 - q1))
            rows.append({
                "model": model, "group": group, "class": cls,
                "min": xs[lo], "q1": float(q1), "median": float(med), "q3": float(q3),
                "max": xs[bisect_left(xs, xs[hi - 1], lo, hi)], "outliers": xs[:lo] + xs[hi:],
            })
        return rows


def report(items: Iterable[Classified]) -> dict[str, dict[str, MetricsReport]]:
    """Per-model overall and per-PoA-group reports, deterministically keyed."""
    return Evaluation(items).report()


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
    return _sorted_quartiles(sorted(values))


def _sorted_quartiles(xs: list[float]) -> tuple[float, float, float]:
    """quartiles of the values `xs`, sorted in ascending order."""
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


def boxplot_rows(items: Iterable[Classified]) -> list[dict]:
    """Tukey boxplot stats of vot_ms per (model, PoA group, realization class)."""
    return Evaluation(items).boxplot_rows()


def boxplot_csv(rows: list[dict]) -> str:
    lines = ["group,class,min,q1,median,q3,max,outliers"]
    for r in rows:
        outliers = ";".join(f"{v:g}" for v in r["outliers"])
        lines.append(f"{r['model']}/{r['group']},{r['class']},{r['min']:g},{r['q1']:g},"
                     f"{r['median']:g},{r['q3']:g},{r['max']:g},{outliers}")
    return "\n".join(lines) + "\n"
