"""Realization classification, metric arithmetic and report plumbing.

The frozen fixtures below were constructed by brute-force integer search so
their class counts reproduce the published result rows exactly at one decimal;
see test_acceptance.py for the search constraints.
"""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phonaug import (
    ClassifierConfig, Classified, EvalInstance, Inventory, Realization, asp_pct,
    classify_prediction, mcnemar_exact, null_pct, relative_change,
    ten_pct, voicing_acc,
)
from phonaug.errors import EmptyDenominator, PhonaugError, ZeroBaseline
from phonaug.metrics import boxplot_rows, format_report, report

INV = Inventory.default()
CFG = ClassifierConfig.default()


def inst(phoneme, onset, vot=10.0, model="TM", uid=None):
    return EvalInstance(uid or f"u{random.getrandbits(32):08x}", phoneme, vot, onset, model)


@pytest.mark.parametrize("phoneme, onset, expected", [
    ("k", "kʰ", Realization.ASPIRATED),
    ("k", "kxa", Realization.AMBIGUOUS_ASPIRATED),
    ("k", "kha", Realization.AMBIGUOUS_ASPIRATED),
    ("k", "ma", Realization.NULL),
    ("k", "ka", Realization.TENUIS),
    ("k", "ɡa", Realization.VOICED),
    ("g", "k", Realization.TENUIS),
    ("b", "b", Realization.VOICED),
    ("t", "ʈ", Realization.NULL),          # retroflex is not dental/alveolar
    ("d", "t̪a", Realization.TENUIS),      # dental bridge keeps it admissible
    ("p", "t", Realization.NULL),          # wrong articulator
    ("t", "sa", Realization.NULL),         # wrong manner
    ("t", "t͡sa", Realization.TENUIS),     # affricate with matching place
    ("k", "c", Realization.TENUIS),        # palatal admissible for velars
])
def test_classify(phoneme, onset, expected):
    assert classify_prediction(inst(phoneme, onset), INV, CFG) == expected


def test_classify_tokenization_error_is_null_by_default():
    assert classify_prediction(inst("k", "#"), INV, CFG) is Realization.NULL


def test_classify_total_single_class():
    rng = random.Random(3)
    onsets = ["kʰ", "kx", "ka", "ɡa", "ma", "ba", "pʰa", "ta", "da", "xa", "t͡sa"]
    for _ in range(500):
        got = classify_prediction(inst(rng.choice("bdgptk"), rng.choice(onsets)), INV, CFG)
        assert isinstance(got, Realization)


def classified(phoneme, realization, vot, model="TM"):
    onset = {
        Realization.ASPIRATED: {"p": "pʰ", "t": "tʰ", "k": "kʰ"}.get(phoneme, "tʰ"),
        Realization.AMBIGUOUS_ASPIRATED: "kx",
        Realization.TENUIS: "k",
        Realization.VOICED: "b",
        Realization.NULL: "m",
    }[realization]
    i = inst(phoneme, onset, vot, model)
    return Classified(i, realization)


def table7_tm_fixture():
    """Frozen counts reproducing VoicingAcc 83.8, Asp% 61.2 (63.6),
    Ten% 50.0 (48.4), NULL 9.6."""
    items = []
    # /p t k/: 79 aspirated, 3 ambiguous, 30 tenuis, 17 voiced (n = 129)
    items += [classified("t", Realization.ASPIRATED, 70.0) for _ in range(79)]
    items += [classified("k", Realization.AMBIGUOUS_ASPIRATED, 60.0) for _ in range(3)]
    items += [classified("p", Realization.TENUIS, 20.0) for _ in range(30)]
    items += [classified("t", Realization.VOICED, -5.0) for _ in range(17)]
    # /b d g/: 27 voiced (25 with voicing lead), 89 tenuis + 1 ambiguous
    # (73 of the 90 voiceless-class with non-negative VOT) -> 98/117 correct
    items += [classified("b", Realization.VOICED, -12.0) for _ in range(25)]
    items += [classified("b", Realization.VOICED, 8.0) for _ in range(2)]
    items += [classified("d", Realization.TENUIS, 15.0) for _ in range(73 - 1)]
    items += [classified("d", Realization.AMBIGUOUS_ASPIRATED, 15.0) for _ in range(1)]
    items += [classified("g", Realization.TENUIS, -9.0) for _ in range(17)]
    # 26 NULL spread over both phoneme sets
    items += [classified("k", Realization.NULL, 30.0) for _ in range(13)]
    items += [classified("d", Realization.NULL, 30.0) for _ in range(13)]
    return items


def r1(x):
    return round(x + 1e-9, 1)


def test_table7_tm_row():
    items = table7_tm_fixture()
    assert r1(voicing_acc(items)) == 83.8
    assert r1(asp_pct(items, "strict")) == 61.2
    assert r1(asp_pct(items, "lenient")) == 63.6
    assert r1(ten_pct(items, "strict")) == 50.0
    assert r1(ten_pct(items, "lenient")) == 48.4
    assert r1(null_pct(items)) == 9.6


def test_voicing_acc_all_correct():
    items = [classified("b", Realization.VOICED, -10.0) for _ in range(5)]
    assert voicing_acc(items) == 100.0


def test_voicing_acc_all_voiceless_predictions():
    # 30.4% of instances have voicing lead and the model predicts none voiced
    items = [classified("b", Realization.TENUIS, -10.0) for _ in range(304)]
    items += [classified("b", Realization.TENUIS, 10.0) for _ in range(696)]
    assert r1(voicing_acc(items)) == 69.6


def test_vot_zero_counts_as_voiceless():
    items = [classified("b", Realization.TENUIS, 0.0)]
    assert voicing_acc(items) == 100.0


def test_voicing_acc_empty_denominator():
    with pytest.raises(EmptyDenominator):
        voicing_acc([classified("p", Realization.TENUIS, 10.0)])


def test_asp_pct_bm_style():
    # no aspiration anywhere, 13.7% ambiguous: strict 0.0, lenient 13.7
    items = [classified("k", Realization.AMBIGUOUS_ASPIRATED, 40.0) for _ in range(137)]
    items += [classified("k", Realization.TENUIS, 30.0) for _ in range(1000 - 137)]
    assert asp_pct(items, "strict") == 0.0
    assert r1(asp_pct(items, "lenient")) == 13.7


def test_asp_pct_all_aspirated():
    items = [classified("p", Realization.ASPIRATED, 60.0) for _ in range(7)]
    assert asp_pct(items, "strict") == 100.0
    assert asp_pct(items, "lenient") == 100.0


def test_ten_pct_all_voiced():
    items = [classified("b", Realization.VOICED, -5.0) for _ in range(4)]
    assert ten_pct(items, "strict") == 0.0


def test_ten_strict_minus_lenient_is_ambiguous_share():
    rng = random.Random(17)
    classes = [Realization.VOICED, Realization.TENUIS, Realization.ASPIRATED,
               Realization.AMBIGUOUS_ASPIRATED, Realization.NULL]
    for _ in range(200):
        items = [classified(rng.choice("bdgptk"), rng.choice(classes),
                            rng.uniform(-40, 90)) for _ in range(rng.randint(1, 60))]
        non_null = [c for c in items if c.realization is not Realization.NULL]
        if not non_null:
            continue
        ambiguous = sum(1 for c in non_null
                        if c.realization is Realization.AMBIGUOUS_ASPIRATED)
        got = ten_pct(items, "strict") - ten_pct(items, "lenient")
        assert got == pytest.approx(100.0 * ambiguous / len(non_null))


def test_null_pct():
    assert null_pct([classified("k", Realization.TENUIS, 1.0)]) == 0.0
    items = [classified("k", Realization.NULL, 1.0) for _ in range(23)]
    items += [classified("k", Realization.TENUIS, 1.0) for _ in range(217)]
    assert r1(null_pct(items)) == 9.6
    assert null_pct([classified("k", Realization.NULL, 1.0)]) == 100.0


def test_monotonicity_and_null_invariance_fuzz():
    rng = random.Random(23)
    classes = [Realization.VOICED, Realization.TENUIS, Realization.ASPIRATED,
               Realization.AMBIGUOUS_ASPIRATED]
    for _ in range(1000):
        items = [classified(rng.choice("bdgptk"), rng.choice(classes),
                            rng.uniform(-40, 90)) for _ in range(rng.randint(2, 40))]
        try:
            assert asp_pct(items, "lenient") >= asp_pct(items, "strict")
        except EmptyDenominator:
            pass
        assert ten_pct(items, "lenient") <= ten_pct(items, "strict")
        # adding Null instances never moves the three metrics
        noisy = items + [classified(rng.choice("bdgptk"), Realization.NULL, 0.0)
                         for _ in range(rng.randint(1, 5))]
        for fn in (lambda x: ten_pct(x, "strict"), lambda x: ten_pct(x, "lenient")):
            assert fn(noisy) == pytest.approx(fn(items))
        try:
            assert voicing_acc(noisy) == pytest.approx(voicing_acc(items))
        except EmptyDenominator:
            pass
        try:
            assert asp_pct(noisy, "strict") == pytest.approx(asp_pct(items, "strict"))
        except EmptyDenominator:
            pass


def test_relative_change():
    assert relative_change(73.8, 50.0) == pytest.approx(-32.2, abs=0.1)
    assert relative_change(71.3, 83.8) == pytest.approx(17.5, abs=0.2)
    assert relative_change(42.0, 42.0) == 0.0
    with pytest.raises(ZeroBaseline):
        relative_change(0.0, 10.0)


def test_mcnemar_identical_vectors():
    flags = [True, False, True] * 10
    assert mcnemar_exact(flags, flags) == 1.0


def test_mcnemar_refuses_vectors_of_unequal_length():
    with pytest.raises(PhonaugError, match="paired outcome vectors must have equal length"):
        mcnemar_exact([True, False], [True])


def test_mcnemar_one_sided_discordance():
    # 12 discordant pairs all favoring the second model
    p = mcnemar_exact([False] * 12, [True] * 12)
    assert p == pytest.approx(2 * 0.5 ** 12)


def test_mcnemar_symmetric_discordance():
    bm = [True] * 6 + [False] * 6
    tm = [False] * 6 + [True] * 6
    assert mcnemar_exact(bm, tm) == 1.0


def test_mcnemar_matches_closed_form():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 40)
        bm = [rng.random() < 0.5 for _ in range(n)]
        tm = [rng.random() < 0.5 for _ in range(n)]
        b = sum(1 for x, y in zip(bm, tm) if x and not y)
        c = sum(1 for x, y in zip(bm, tm) if y and not x)
        if b + c == 0:
            assert mcnemar_exact(bm, tm) == 1.0
            continue
        k, m = min(b, c), b + c
        expected = min(1.0, 2 * sum(math.comb(m, i) for i in range(k + 1)) / 2 ** m)
        assert mcnemar_exact(bm, tm) == pytest.approx(expected)


def discordant(b, c):
    """Paired flags with b pairs favoring the first model and c the second."""
    return [True] * b + [False] * c, [False] * b + [True] * c


def test_mcnemar_many_balanced_pairs():
    # 1200 discordant pairs: the float form overflowed here
    assert mcnemar_exact(*discordant(600, 600)) == 1.0


def test_mcnemar_past_float_underflow():
    # n = 1025: 0.5 ** n is subnormal, and the float form returned 1.0
    assert mcnemar_exact(*discordant(510, 515)) == pytest.approx(0.9005797624890893,
                                                                 rel=1e-12)


def test_mcnemar_bit_identical_to_float_form_below_1023():
    rng = random.Random(1022)
    cases = [(n, k) for n in (1, 2, 3, 511, 1021, 1022) for k in (0, n // 2)]
    cases += [(n, rng.randint(0, n // 2)) for n in rng.sample(range(1, 1023), 150)]
    for n, k in cases:
        tail = sum(math.comb(n, i) for i in range(k + 1))
        assert mcnemar_exact(*discordant(k, n - k)) == min(2.0 * tail * 0.5 ** n, 1.0)


def comb_sum_p(b, c):
    """The p-value as a sum of one `math.comb` per tail term: the oracle for the
    running coefficient."""
    n, k = b + c, min(b, c)
    return 1.0 if n == 0 else min(2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n, 1.0)


@settings(max_examples=300, deadline=None)
@given(b=st.integers(0, 400), c=st.integers(0, 400), same=st.integers(0, 5),
       order=st.randoms(use_true_random=False))
def test_mcnemar_equals_the_comb_sum(b, c, same, order):
    assume(b + c <= 400)
    pairs = [(True, False)] * b + [(False, True)] * c + [(True, True), (False, False)] * same
    order.shuffle(pairs)
    bm, tm = [x for x, _ in pairs], [y for _, y in pairs]
    assert mcnemar_exact(bm, tm) == comb_sum_p(b, c)


def test_mcnemar_closed_forms_at_twenty_thousand_pairs():
    n = 20000
    assert mcnemar_exact(*discordant(n // 2, n // 2)) == 1.0
    # the tail is C(n, 0) + C(n, 1) = n + 1
    assert mcnemar_exact(*discordant(1, n - 1)) == min(1, 2 * (n + 1) / 2 ** n)


def test_mcnemar_is_fast_on_twenty_thousand_pairs():
    # a math.comb per tail term makes the cost cubic in n: tens of seconds at this n
    flags = discordant(10000, 10000)
    start = time.perf_counter()
    assert mcnemar_exact(*flags) == 1.0
    assert time.perf_counter() - start < 2.0


def velar_tm_fixture():
    """Frozen counts reproducing the velar-only TM row: VoicingAcc 91.9,
    Asp% 66.7, Ten% 52.6, NULL 5.0."""
    items = []
    # /k/: 26 aspirated, 13 tenuis (n = 39)
    items += [classified("k", Realization.ASPIRATED, 70.0) for _ in range(26)]
    items += [classified("k", Realization.TENUIS, 25.0) for _ in range(13)]
    # /g/: 10 voiced (9 leads), 27 tenuis (25 non-negative) -> 34/37 correct
    items += [classified("g", Realization.VOICED, -14.0) for _ in range(9)]
    items += [classified("g", Realization.VOICED, 6.0) for _ in range(1)]
    items += [classified("g", Realization.TENUIS, 12.0) for _ in range(25)]
    items += [classified("g", Realization.TENUIS, -3.0) for _ in range(2)]
    items += [classified("g", Realization.NULL, 0.0) for _ in range(4)]
    return items


def test_velar_only_tm_row():
    items = velar_tm_fixture()
    assert r1(voicing_acc(items)) == 91.9
    assert r1(asp_pct(items, "strict")) == 66.7
    assert r1(ten_pct(items, "strict")) == 52.6
    assert r1(null_pct(items)) == 5.0


def test_report_structure_and_na_cells():
    items = velar_tm_fixture()
    reports = report(items)
    assert set(reports) == {"TM"}
    assert set(reports["TM"]) == {"all", "velar"}
    rep = reports["TM"]["velar"]
    assert r1(rep.voicing_acc) == 91.9
    # only velars present: no bilabial/alveolar rows, never silent zeros
    text = format_report(reports)
    assert "N/A" not in text  # velar fixture has both phoneme sets
    bm_only_ptk = [classified("p", Realization.TENUIS, 9.0, model="BM")]
    text2 = format_report(report(bm_only_ptk))
    assert "N/A" in text2  # VoicingAcc has no /b d g/ instance


def test_report_order_independent():
    items = table7_tm_fixture()
    rng = random.Random(1)
    shuffled = list(items)
    rng.shuffle(shuffled)
    a = {m: {g: r.to_obj() for g, r in rows.items()} for m, rows in report(items).items()}
    b = {m: {g: r.to_obj() for g, r in rows.items()} for m, rows in report(shuffled).items()}
    assert a == b


def quartiles_oracle(values):
    """Sort-based linear interpolation, independent of numpy."""
    xs = sorted(values)
    n = len(xs)
    out = []
    for q in (0.25, 0.5, 0.75):
        h = (n - 1) * q
        lo = int(math.floor(h))
        hi = min(lo + 1, n - 1)
        out.append(xs[lo] + (h - lo) * (xs[hi] - xs[lo]))
    return out


def test_boxplot_quartiles_match_sort_oracle():
    rng = random.Random(13)
    for _ in range(100):
        values = [rng.uniform(-50, 120) for _ in range(rng.randint(1, 50))]
        items = [classified("k", Realization.TENUIS, v) for v in values]
        (row,) = boxplot_rows(items)
        q1, med, q3 = quartiles_oracle(values)
        assert row["q1"] == pytest.approx(q1)
        assert row["median"] == pytest.approx(med)
        assert row["q3"] == pytest.approx(q3)
        fence_lo, fence_hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        assert row["outliers"] == sorted(v for v in values
                                         if v < fence_lo or v > fence_hi)


def test_boxplot_single_instance_degenerate():
    (row,) = boxplot_rows([classified("k", Realization.TENUIS, 42.0)])
    assert row["min"] == row["median"] == row["max"] == 42.0
    assert row["outliers"] == []
