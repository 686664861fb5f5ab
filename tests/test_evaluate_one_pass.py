"""The one-pass evaluate path against list-based and numpy references: tallied
metrics, per-onset classification memo, plain-Python quartiles, the paired
significance predicate, the streamed command's outputs, the JSONL line parser,
the VOT bound of the input contract, and each fault of an instance line, which the
one-pass reader reports as parse_records of EvalInstance does."""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from clirun import invoke
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phonaug
import phonaug.inventory as inventory_module
from phonaug import (
    ClassifierConfig, Classified, EvalInstance, Inventory, Realization, asp_pct,
    classify_all, classify_prediction, mcnemar_exact, null_pct, report, ten_pct, tokenize_ipa,
    voicing_acc,
)
from phonaug.errors import EmptyDenominator, PhonaugError
from phonaug.io import DATA, MalformedLine, parse_records, read_jsonl
from phonaug.metrics import (
    INSTANCE_FIELDS, POA_GROUP_OF, POA_GROUPS, VOICED_PHONEMES, VOICELESS_PHONEMES, Evaluation,
    MetricsReport, _realize, boxplot_csv, format_report, quartiles,
)

INV = Inventory.default()
CFG = ClassifierConfig.default()
PHONEMES = "bdgptk"
MODELS = ("BM", "TM", "OTHER")

# -- tally-based metrics vs a list-based oracle -------------------------------

NULL = Realization.NULL


def oracle_voicing_acc(items):
    pool = [c for c in items if c.realization is not NULL
            and c.instance.target_phoneme in VOICED_PHONEMES]
    if not pool:
        raise EmptyDenominator("no non-Null /b d g/ instances")
    correct = sum(1 for c in pool
                  if (c.realization is Realization.VOICED) == (c.instance.vot_ms < 0))
    return 100.0 * correct / len(pool)


def oracle_asp_pct(items, mode):
    pool = [c for c in items if c.realization is not NULL
            and c.instance.target_phoneme in VOICELESS_PHONEMES]
    if not pool:
        raise EmptyDenominator("no non-Null /p t k/ instances")
    hits = {Realization.ASPIRATED}
    if mode == "lenient":
        hits.add(Realization.AMBIGUOUS_ASPIRATED)
    return 100.0 * sum(1 for c in pool if c.realization in hits) / len(pool)


def oracle_ten_pct(items, mode):
    pool = [c for c in items if c.realization is not NULL]
    if not pool:
        raise EmptyDenominator("no non-Null instances")
    hits = {Realization.TENUIS}
    if mode == "strict":
        hits.add(Realization.AMBIGUOUS_ASPIRATED)
    return 100.0 * sum(1 for c in pool if c.realization in hits) / len(pool)


def oracle_null_pct(items):
    if not items:
        return 0.0
    return 100.0 * sum(1 for c in items if c.realization is NULL) / len(items)


def oracle_row(items):
    def safe(fn, *args):
        try:
            return fn(items, *args)
        except EmptyDenominator:
            return None

    return MetricsReport(
        voicing_acc=safe(oracle_voicing_acc),
        asp_strict=safe(oracle_asp_pct, "strict"),
        asp_lenient=safe(oracle_asp_pct, "lenient"),
        ten_strict=safe(oracle_ten_pct, "strict"),
        ten_lenient=safe(oracle_ten_pct, "lenient"),
        null_pct=oracle_null_pct(items),
        n_instances=len(items),
        n_null=sum(1 for c in items if c.realization is NULL),
    )


def oracle_report(items):
    out = {}
    for model in sorted({c.instance.model_tag for c in items}):
        mine = [c for c in items if c.instance.model_tag == model]
        rows = {"all": oracle_row(mine)}
        for group in POA_GROUPS:
            subset = [c for c in mine if POA_GROUP_OF[c.instance.target_phoneme] == group]
            if subset:
                rows[group] = oracle_row(subset)
        out[model] = rows
    return out


classified_items = st.lists(
    st.builds(
        lambda i, model, phoneme, realization, vot: Classified(
            EvalInstance(f"u{i}", phoneme, vot, "k", model), realization),
        st.integers(0, 30),
        st.sampled_from(MODELS),
        st.sampled_from(PHONEMES),
        st.sampled_from(list(Realization)),
        st.sampled_from([-30.0, -0.5, -0.0, 0.0, 0.5, 45.0]),
    ),
    max_size=80,
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except EmptyDenominator:
        return "N/A"


@settings(max_examples=300, deadline=None)
@given(classified_items)
def test_tallied_metrics_equal_list_oracle(items):
    assert outcome(voicing_acc, items) == outcome(oracle_voicing_acc, items)
    for mode in ("strict", "lenient"):
        assert outcome(asp_pct, items, mode) == outcome(oracle_asp_pct, items, mode)
        assert outcome(ten_pct, items, mode) == outcome(oracle_ten_pct, items, mode)
    assert null_pct(items) == oracle_null_pct(items)
    assert Evaluation(items).row() == oracle_row(items)


@settings(max_examples=300, deadline=None)
@given(classified_items)
def test_tallied_report_equals_list_oracle(items):
    # empty groups have no row; empty denominators are None (N/A) cells
    assert report(items) == oracle_report(items)


def test_metric_mode_checked_before_denominator():
    with pytest.raises(PhonaugError, match="mode"):
        asp_pct([], "loose")
    with pytest.raises(PhonaugError, match="mode"):
        ten_pct([], "loose")


# -- significance uses the same voicing predicate as the tally -----------------


present = st.one_of(st.none(), st.sampled_from(list(Realization)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(present, present, st.sampled_from(PHONEMES),
                          st.sampled_from([-12.0, -0.0, 0.0, 20.0])), max_size=40))
def test_paired_significance_equals_oracle(rows):
    # one row per utterance: each model's realization, or None when it has no instance
    items = [Classified(EvalInstance(f"u{n}", phoneme, vot, "b", model), realization)
             for n, (bm, tm, phoneme, vot) in enumerate(rows)
             for model, realization in (("BM", bm), ("TM", tm)) if realization is not None]
    paired = [r for r in rows if r[2] in VOICED_PHONEMES
              and r[0] not in (None, NULL) and r[1] not in (None, NULL)]
    a = [(bm is Realization.VOICED) == (vot < 0) for bm, _, _, vot in paired]
    b = [(tm is Realization.VOICED) == (vot < 0) for _, tm, _, vot in paired]
    assert Evaluation(items).significance(["BM", "TM"]) == {
        "models": ["BM", "TM"], "n_pairs": len(paired), "p_value": mcnemar_exact(a, b)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["BM", "TM"]), st.integers(0, 5),
                          st.sampled_from(PHONEMES)), max_size=20),
       st.sampled_from([None, *POA_GROUPS]))
def test_read_refuses_a_second_utt_id_per_model_outside_the_group_too(rows, group):
    keys = [(model, f"u{n}") for model, n, _ in rows]
    repeated = next((k for j, k in enumerate(keys) if k in keys[:j]), None)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "in.jsonl"
        # an int vot_ms is read as the float it converts to, as EvalInstance holds it
        path.write_text("".join(json.dumps({"utt_id": utt_id, "phoneme": phoneme,
                                            "vot_ms": 5 if model == "BM" else 5.0,
                                            "onset": "b", "model": model}) + "\n"
                                for (model, utt_id), (_, _, phoneme) in zip(keys, rows)),
                        encoding="utf-8")
        kept = Evaluation().read(path, INV, CFG, group)
        if repeated is None:
            assert [(m, u, p, repr(v)) for m, u, p, v, _ in kept] == [
                (model, utt_id, phoneme, "5.0")
                for (model, utt_id), (_, _, phoneme) in zip(keys, rows)
                if group is None or POA_GROUP_OF[phoneme] == group]
        else:
            with pytest.raises(PhonaugError) as failure:
                list(kept)
            model, utt_id = repeated
            assert str(failure.value) == f"{path}: {utt_id}: more than one {model} instance"


# -- one classification per distinct onset -------------------------------------

# onset pieces: bases, diacritics, ʰ/ʱ, both tie bars, ASCII and other
# whitespace, code points the inventory does not know, and precomposed letters
# that NFD splits
ONSET_PIECES = sorted(INV.base_features)[:60] + sorted(INV.diacritics) + [
    "ʰ", "ʱ", "͡", "͜", " ", "\t", "\u3000", "x", "h", "a", "#", "!", "1", "g", "é", "ç"]
onsets = st.lists(st.sampled_from(ONSET_PIECES), max_size=5).map("".join)


def oracle_head(onset):
    """The head of an onset read off the general tokenizer: its first phone
    and the base of its second, or None where it raises or finds no phone."""
    try:
        phones = tokenize_ipa(onset, INV)
    except PhonaugError:
        return None
    if not phones:
        return None
    return phones[0], phones[1].base if len(phones) > 1 else None


@settings(max_examples=1000, deadline=None)
@given(onsets)
@example("k͡x ʰ")
@example(" \t")
@example("t͡sʰ͡x")
def test_onset_head_equals_tokenizer_head(onset):
    assert INV.head(onset) == oracle_head(onset)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PHONEMES), onsets), max_size=30))
def test_classify_all_equals_per_instance_classification(pairs):
    xs = [EvalInstance(f"u{n}", phoneme, 5.0, onset) for n, (phoneme, onset) in enumerate(pairs)]
    expected = [Classified(x, classify_prediction(x, INV, CFG)) for x in xs]
    assert classify_all(xs, INV, CFG) == expected


def counting_heads(monkeypatch) -> list[str]:
    """The onsets that metrics reads heads of from now on, one entry per read."""
    calls = []
    original = Inventory.head

    def counting(inv, onset):
        calls.append(onset)
        return original(inv, onset)

    monkeypatch.setattr(Inventory, "head", counting)
    return calls


REPEATED = [("k", "kʰa"), ("g", "kʰa"), ("k", "#"), ("t", "#"), ("b", "ba"), ("k", "kʰa")]


def test_classify_all_tokenizes_each_distinct_onset_once(monkeypatch):
    calls = counting_heads(monkeypatch)
    xs = [EvalInstance(f"u{n}", p, 5.0, o) for n, (p, o) in enumerate(REPEATED)]
    classify_all(xs, INV, CFG)
    assert sorted(calls) == sorted({"kʰa", "#", "ba"})


def test_evaluate_reads_each_distinct_onset_once(monkeypatch, tmp_path):
    calls = counting_heads(monkeypatch)
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps({"utt_id": f"u{n}", "phoneme": p, "vot_ms": 5.0,
                                        "onset": o, "model": model}) + "\n"
                            for n, (p, o) in enumerate(REPEATED) for model in ("BM", "TM")),
                    encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix",
                     str(tmp_path / "rep")])
    assert result.exit_code == 0, result.output
    assert sorted(calls) == sorted({"kʰa", "#", "ba"})


def test_evaluate_reads_heads_without_the_tokenizer(monkeypatch, tmp_path):
    calls = []
    original = inventory_module.tokenize_ipa
    monkeypatch.setattr(inventory_module, "tokenize_ipa",
                        lambda *args: calls.append(args) or original(*args))
    # a copy of the packaged inventory loads as a new Inventory, with no phone memoised
    inventory = tmp_path / "inventory.json"
    inventory.write_text(DATA.joinpath("inventory.json").read_text("utf-8"), encoding="utf-8")
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps({"utt_id": f"u{n}", "phoneme": p, "vot_ms": 5.0,
                                        "onset": o, "model": model}) + "\n"
                            for n, (p, o) in enumerate(REPEATED) for model in ("BM", "TM")),
                    encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep"),
                     "--inventory", str(inventory)])
    assert result.exit_code == 0, result.output
    assert calls == []
    assert result.stdout == invoke(["evaluate", str(path), "--out-prefix",
                                    str(tmp_path / "packaged")]).stdout


def test_evaluate_builds_no_record_on_valid_input(monkeypatch, tmp_path):
    built = []
    original = EvalInstance.__new__

    def counting(cls, *args):
        built.append(args)
        return original(cls, *args)

    monkeypatch.setattr(EvalInstance, "__new__", counting)
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps({"utt_id": f"u{n}", "phoneme": p, "vot_ms": 5.0 - n,
                                        "onset": o, "model": model}) + "\n"
                            for n, (p, o) in enumerate(REPEATED) for model in ("BM", "TM")),
                    encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep")])
    assert result.exit_code == 0, result.output
    assert built == []
    EvalInstance.from_obj({"utt_id": "u1", "phoneme": "k", "vot_ms": 5, "onset": "k"})
    assert len(built) == 1  # the count sees a record that is built


# -- quartiles: bit-identical to numpy's default linear percentile -------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def samples(draw):
    """Up to several thousand values drawn from a small pool, so ties are common."""
    pool = draw(st.lists(finite, min_size=1, max_size=40))
    n = draw(st.integers(1, 5000))
    rnd = draw(st.randoms(use_true_random=False))
    return [rnd.choice(pool) for _ in range(n)]


def bits(x: float) -> bytes:
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


def signed_zero_mix(values) -> bool:
    zeros = {math.copysign(1.0, v) for v in values if v == 0.0}
    return len(zeros) == 2


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(finite, min_size=1, max_size=300), samples(),
                 st.lists(finite, min_size=1, max_size=1)))
def test_quartiles_match_numpy_bit_for_bit(values):
    np = pytest.importorskip("numpy")
    expected = [float(x) for x in np.percentile(values, [25, 50, 75])]
    # numpy's partition leaves equal elements in no defined order, so where
    # -0.0 and 0.0 both occur a quartile may take either sign of zero
    canon = (lambda x: x + 0.0) if signed_zero_mix(values) else (lambda x: x)
    assert [bits(canon(x)) for x in quartiles(values)] == [bits(canon(x)) for x in expected]


def test_quartiles_single_value_keeps_its_sign():
    assert [bits(x) for x in quartiles([-0.0])] == [bits(-0.0)] * 3
    assert quartiles([42.0]) == (42.0, 42.0, 42.0)


# -- the streamed command against list-based oracles ---------------------------


def oracle_significance(items, models):
    """Evaluation.significance as a pass over a list of Classified."""
    flags = {m: {} for m in models}
    for c in items:
        inst = c.instance
        if inst.target_phoneme not in VOICED_PHONEMES:
            continue
        if c.realization is Realization.NULL:
            continue
        flags[inst.model_tag][inst.utt_id] = \
            (c.realization is Realization.VOICED) == (inst.vot_ms < 0)
    shared = sorted(set(flags[models[0]]) & set(flags[models[1]]))
    a = [flags[models[0]][u] for u in shared]
    b = [flags[models[1]][u] for u in shared]
    return {"models": list(models), "n_pairs": len(shared), "p_value": mcnemar_exact(a, b)}


def oracle_boxplot_rows(items):
    """boxplot_rows as a pass over a list of Classified."""
    buckets = {}
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


# vot_ms pools for one boxplot bucket: few distinct values, so that whisker ends repeat;
# zeros of both signs, which fall at the min, at the max, or on a fence (q1 = 3 and q3 =
# 5 put the low fence at 0.0, q1 = -5 and q3 = -3 the high one); and outliers both sides
BOX_POOLS = [[-0.0, 0.0, 1.0, 2.0], [-2.0, -1.0, -0.0, 0.0], [-0.0, 0.0, 3.0, 5.0, 40.0],
             [-40.0, -5.0, -3.0, -0.0, 0.0], [-60.0, -0.0, 0.0, 0.5, 60.0], [-0.0, 0.0]]
bucket_values = st.one_of(
    st.sampled_from(BOX_POOLS).flatmap(lambda pool: st.lists(st.sampled_from(pool),
                                                             min_size=1, max_size=40)),
    st.builds(lambda v, n: [v] * n, st.sampled_from([-0.0, 0.0, 12.5]), st.integers(1, 4)),
    st.lists(st.floats(-100, 100), min_size=1, max_size=40))


@settings(max_examples=500, deadline=None)
@given(st.lists(bucket_values, min_size=1, max_size=4))
@example([[-5.0, -0.0, 0.0]])
@example([[0.0, -0.0, 3.0, 3.0, 5.0, 5.0]])
def test_boxplot_rows_equal_the_two_pass_oracle(buckets):
    # one bucket per value list: a (model, PoA group, realization) of its own
    keys = [(m, p, r) for m in ("BM", "TM") for p in "bgt" for r in (Realization.VOICED, NULL)]
    items = [Classified(EvalInstance(f"u{n}", phoneme, v, "k", model), realization)
             for (model, phoneme, realization), values in zip(keys, buckets)
             for n, v in enumerate(values)]
    assert boxplot_csv(Evaluation(items).boxplot_rows()) == boxplot_csv(oracle_boxplot_rows(items))


def oracle_outputs(objs, group):
    """The .txt, .json and _boxplot.csv of `evaluate`, built from lists."""
    instances = [EvalInstance.from_obj(o) for o in objs]
    if group:
        instances = [i for i in instances if POA_GROUP_OF[i.target_phoneme] == group]
    items = [Classified(i, _realize(oracle_head(i.predicted_onset), i.target_phoneme, CFG))
             for i in instances]
    reports = oracle_report(items)
    payload = {"models": {m: {g: r.to_obj() for g, r in rows.items()}
                          for m, rows in reports.items()}}
    text = format_report(reports)
    models = sorted(reports)
    if len(models) == 2:
        sig = payload["significance"] = oracle_significance(items, models)
        text += (f"McNemar exact (voicing, {models[0]} vs {models[1]}): "
                 f"p = {sig['p_value']:.6g} on {sig['n_pairs']} pairs\n")
    return (text, json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            boxplot_csv(oracle_boxplot_rows(items)))


# onsets that come out Null for every target (no tokenization, empty, a vowel,
# a nasal) and onsets that realize some of the targets
NULL_ONSETS = ["", "#", "1", "a", "m", "ʰ", "ə"]
ONSETS = NULL_ONSETS + ["ka", "kʰa", "kx", "ɡa", "ɡʱ", "pa", "b", "tʰ", "d̥", "t͡s", "cç"]


@st.composite
def instance_files(draw):
    """Instance objects of one, two or three models, each (model, utt_id) once,
    in the order drawn; some sets are mostly or only Null."""
    models = draw(st.sampled_from([("TM",), ("BM", "TM"), ("BM", "OTHER", "TM")]))
    pool = draw(st.sampled_from([NULL_ONSETS, ONSETS, None]))
    if pool is None:  # a few onsets of the tokenizer property's strategy
        pool = draw(st.lists(onsets, min_size=1, max_size=6))
    keys = draw(st.lists(st.tuples(st.sampled_from(models), st.integers(0, 12)),
                         unique=True, max_size=40))
    return [{"utt_id": f"u{n:02d}", "model": model, "phoneme": draw(st.sampled_from(PHONEMES)),
             "vot_ms": draw(st.sampled_from([-25.0, -1.5, -0.0, 0.0, 3.0, 3.0, 60.0])),
             "onset": draw(st.sampled_from(pool))} for model, n in keys]


@settings(max_examples=150, deadline=None)
@given(instance_files(), st.sampled_from([None, *POA_GROUPS]))
def test_evaluate_outputs_equal_list_oracle(objs, group):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "instances.jsonl"
        path.write_text("".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objs),
                        encoding="utf-8")
        args = ["evaluate", str(path), "--out-prefix", f"{d}/rep"]
        result = invoke(args + (["--group", group] if group else []))
        assert result.exit_code == 0, result.output
        got = tuple(Path(f"{d}/rep{suffix}").read_text(encoding="utf-8")
                    for suffix in (".txt", ".json", "_boxplot.csv"))
    assert got == oracle_outputs(objs, group)


# -- the JSONL line parser equals json.loads on the stripped line -------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
# Unicode whitespace that str.strip() removes, but a JSON parser does not skip
SPACES = ["", " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1c", "\x85", "\u2028"]
# any code point a text file line can hold: no surrogate, no \n or \r
line_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                    max_size=12)


@st.composite
def jsonl_lines(draw):
    body = draw(st.one_of(json_values.map(lambda v: json.dumps(v, ensure_ascii=False)),
                          json_values.map(json.dumps), line_text))
    prefix = draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(SPACES))
    suffix = draw(st.sampled_from(SPACES)) + draw(
        st.sampled_from(["", "", "x", "}", ",1", " {}", "\ufeff", "\u00a0."]))
    return prefix + body + suffix


@settings(max_examples=500, deadline=None)
@given(jsonl_lines())
@example('\ufeff{"a": 1}')  # loads: Unexpected UTF-8 BOM
@example('{"a": 1} {"b": 2}')  # loads: Extra data
@example('{"a": 1}\u00a0x')
@example("[1, 2]")
@example(" \u3000 ")
def test_read_jsonl_equals_json_loads_of_stripped_line(line):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "in.jsonl"
        path.write_bytes(line.encode("utf-8") + b"\n")
        try:
            got = repr(list(read_jsonl(path)))
        except MalformedLine as e:
            got = str(e)
    stripped = line.strip()
    if not stripped:
        assert got == "[]"
        return
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError as e:
        assert got == f"{path}:1: invalid JSON ({e.msg})"
        return
    assert got == (repr([obj]) if isinstance(obj, dict)
                   else f"{path}:1: expected a JSON object")


# -- VOT bound contract ----------------------------------------------------------


@given(st.text(min_size=1, max_size=12), st.sampled_from(PHONEMES),
       st.one_of(st.floats(), st.sampled_from([1e6, -1e6, math.nextafter(1e6, 0),
                                               math.nextafter(-1e6, 0)])))
def test_eval_instance_accepts_exactly_vot_under_a_million_ms(utt_id, phoneme, vot):
    if math.isfinite(vot) and abs(vot) < 1e6:
        assert EvalInstance(utt_id, phoneme, vot, "k").vot_ms == vot
        return
    with pytest.raises(PhonaugError) as err:
        EvalInstance(utt_id, phoneme, vot, "k")
    assert str(err.value) == (f"{utt_id}: vot_ms must be finite and under 1000000 ms in "
                              f"magnitude, got {vot!r}")


@pytest.mark.parametrize("model", ["tm", "", "BM ", "RM\u0301"])
def test_eval_instance_rejects_unknown_model_tag(model):
    with pytest.raises(PhonaugError) as err:
        EvalInstance("u1", "k", 5.0, "kʰ", model)
    assert str(err.value) == f"u1: unknown model tag {model!r}"


def test_eval_instance_is_an_immutable_hashable_record():
    x = EvalInstance("u1", "k", 5.0, "kʰ")
    assert x.model_tag == "OTHER"
    assert x == EvalInstance("u1", "k", 5.0, "kʰ", "OTHER")
    assert hash(x) == hash(EvalInstance("u1", "k", 5.0, "kʰ", "OTHER"))
    assert EvalInstance.from_obj({"utt_id": "u1", "phoneme": "k", "vot_ms": 5,
                                  "onset": "kʰ"}) == x
    with pytest.raises(AttributeError):
        x.vot_ms = 6.0
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(PhonaugError, match="u1: unknown model tag 'tm'"):
        x._replace(model_tag="tm")
    assert x._replace(vot_ms=-3.0) == EvalInstance("u1", "k", -3.0, "kʰ")


# a value of each field whose JSON type the field does not take
ILL_TYPED = {"utt_id": [None, 7, 2.5, True, ["u1"], {}],
             "phoneme": [None, 1, False, ["k"], {"k": 1}],
             "vot_ms": [None, "5", True, False, [5], {}],
             "onset": [None, 0, -1.5, True, ["k"], {}],
             "model": [None, 1, True, ["BM"], {}]}


def ill_typed(obj, draw):
    field = draw(st.sampled_from(sorted(ILL_TYPED)))
    obj[field] = draw(st.sampled_from(ILL_TYPED[field]))


# the faults of one line, each a function of the line's object and `draw`
FAULTS = [
    ill_typed,
    lambda obj, draw: obj.pop(draw(st.sampled_from(["utt_id", "phoneme", "vot_ms", "onset"]))),
    lambda obj, draw: obj.update(vot_ms=True),
    lambda obj, draw: obj.update(vot_ms=draw(st.sampled_from([1, -1])) * 10 ** 399),  # 400 digits
    lambda obj, draw: obj.update(vot_ms=draw(st.sampled_from([math.nan, math.inf, -math.inf]))),
    lambda obj, draw: obj.update(vot_ms=draw(st.sampled_from([1e6, -1e6, 10 ** 6, 1e308]))),
    lambda obj, draw: obj.update(phoneme=draw(st.sampled_from(["x", "B", "ph", "", "ɡ"]))),
    lambda obj, draw: obj.update(model=draw(st.sampled_from(["tm", "", "BM "]))),
]


@st.composite
def faulty_instance_files(draw):
    """The objects of a valid instance file, some without a model, with one fault: a
    fault of FAULTS in one line, or a line that repeats an earlier (model, utt_id)."""
    objs = [{"utt_id": f"u{n}", "phoneme": draw(st.sampled_from(PHONEMES)),
             "vot_ms": draw(st.sampled_from([-20, -0.0, 0, 4.5])),
             "onset": draw(st.sampled_from(ONSETS)),
             **({"model": model} if model else {})}
            for n, model in enumerate(draw(st.lists(st.sampled_from(["BM", "TM", None]),
                                                    min_size=1, max_size=8)))]
    fault = draw(st.sampled_from([*FAULTS, None]))
    k = draw(st.integers(0, len(objs) - 1))
    if fault is None:  # a repeat, of any phoneme, so inside or outside --group
        objs.insert(draw(st.integers(k + 1, len(objs))),
                    {**objs[k], "phoneme": draw(st.sampled_from(PHONEMES))})
    else:
        fault(objs[k], draw)
    return objs


def layered_error(path: str) -> str | None:
    """The error of the layered reader of an instance file: parse_records of
    EvalInstance.from_obj, then each (model, utt_id) once."""
    seen = set()
    try:
        with closing(parse_records(path, EvalInstance.from_obj, INSTANCE_FIELDS)) as instances:
            for inst in instances:
                if (inst.model_tag, inst.utt_id) in seen:
                    raise PhonaugError(f"{path}: {inst.utt_id}: more than one "
                                       f"{inst.model_tag} instance")
                seen.add((inst.model_tag, inst.utt_id))
    except PhonaugError as e:
        return str(e)
    return None


@settings(max_examples=300, deadline=None)
@given(faulty_instance_files(), st.sampled_from([None, *POA_GROUPS]))
def test_evaluate_fails_on_a_fault_as_the_layered_reader_does(objs, group):
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/instances.jsonl"
        Path(path).write_text("".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objs),
                              encoding="utf-8")
        expected = layered_error(path)
        assert expected is not None
        result = invoke(["evaluate", path, "--out-prefix", f"{d}/rep"]
                        + (["--group", group] if group else []))
        assert result.exit_code == 1
        assert result.output == f"Error: {expected}\n"
        assert os.listdir(d) == ["instances.jsonl"]


@pytest.mark.parametrize("vot", ["NaN", "Infinity", "-Infinity"])
def test_evaluate_rejects_non_finite_vot(tmp_path, vot):
    lines = [
        '{"utt_id": "u1", "phoneme": "k", "vot_ms": 30.0, "onset": "kʰ"}',
        f'{{"utt_id": "u2", "phoneme": "g", "vot_ms": {vot}, "onset": "ɡ"}}',
    ]
    path = tmp_path / "instances.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = invoke(["evaluate", str(path), "--out-prefix",
                     str(tmp_path / "rep")])
    assert result.exit_code == 1
    assert "u2: vot_ms must be finite" in result.output
    assert not (tmp_path / "rep.json").exists()


# -- evaluate runs without numpy -------------------------------------------------


def test_evaluate_does_not_load_numpy(tmp_path):
    objs = []
    for n in range(30):
        for model, onset in (("BM", "ka"), ("TM", "ɡa" if n % 2 else "kʰa")):
            objs.append({"utt_id": f"u{n:02d}", "phoneme": "gk"[n % 2],
                         "vot_ms": float(n - 10), "onset": onset, "model": model})
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    prefix = tmp_path / "rep"
    code = ("import sys\n"
            "from phonaug.cli import main\n"
            "main(sys.argv[1:], standalone_mode=False)\n"
            "sys.exit(3 if 'numpy' in sys.modules else 0)\n")
    src = str(Path(phonaug.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, "evaluate", str(path), "--out-prefix", str(prefix)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "numpy was imported"
    assert "significance" in json.loads(prefix.with_suffix(".json").read_text())
    assert (tmp_path / "rep_boxplot.csv").read_text().count("\n") > 1
