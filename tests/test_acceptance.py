"""Acceptance criteria, one test per criterion, one pass/fail line each.

Tolerances are pinned here and nowhere else:
  - published-value reproduction is exact at one decimal place,
  - relative changes carry +/-0.1 and +/-0.2 (rounded published inputs),
  - everything else tolerates zero violations.
"""

from __future__ import annotations

import itertools
import json
import random
import time
import unicodedata

import pytest
from clirun import invoke

from phonaug import (
    Classified, EvalInstance, FramePath, Inventory, MappingTable,
    Realization, ScenarioSpec, asp_pct, generate, greedy_collapse, match_phones,
    mcnemar_exact, null_pct, phonation_of, relative_change, serialize, ten_pct,
    tokenize_ipa, voicing_acc,
)
from phonaug.augment import augment_track
from phonaug.errors import EmptyDenominator
from phonaug.io import dump_line
from phonaug.manifest import build_onset_testset

from test_ctc import reference_collapse
from test_inventory import random_inventory_string
from test_metrics import r1, table7_tm_fixture

INV = Inventory.default()
TABLE = MappingTable.default(INV)


def report_line(n, description):
    print(f"ACCEPTANCE {n}: PASS - {description}")


def test_criterion_1_ctc_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    for labels in itertools.product("_ab", repeat=8):
        path = FramePath("u", 20.0, labels)
        if greedy_collapse(path, "_") != reference_collapse(labels, "_"):
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 1.0
    report_line(1, f"greedy collapse == naive reference on all 6561 paths in {elapsed:.2f}s")


def test_criterion_2_ipa_round_trip():
    rng = random.Random(424242)
    failures = 0
    for _ in range(10000):
        s = random_inventory_string(rng, INV)
        expected = "".join(unicodedata.normalize("NFC", s).split())
        if serialize(tokenize_ipa(s, INV)) != expected:
            failures += 1
    assert failures == 0
    report_line(2, "serialize(tokenize(s)) identity on 10000 random inventory strings")


def test_criterion_3_augmentation_law():
    spec = ScenarioSpec(seed=303, n_utterances=1200, jitter=1, drop_rate=0.15,
                        hm_aspiration_rate=0.35, hm_voicing_rate=0.2,
                        hm_breathy_rate=0.1)
    rm_tracks, hm_tracks, _ = generate(spec, INV)
    violations = 0
    for rm, hm in zip(rm_tracks, hm_tracks):
        matches = match_phones(rm, hm, TABLE)
        out = augment_track(rm, hm, matches, INV)
        matched_idx = {p.rm_index for p in matches}
        for p in matches:
            got = out.phones[p.rm_index].phone
            if got.place != p.rm_phone.phone.place:
                violations += 1
            if got.manner != p.rm_phone.phone.manner:
                violations += 1
            if phonation_of(got) != phonation_of(p.hm_phone.phone):
                violations += 1
            if p.hm_index - p.rm_index not in TABLE.window_offsets:
                violations += 1
        for i, tp in enumerate(rm.phones):
            if i not in matched_idx:
                if serialize([out.phones[i].phone]) != serialize([tp.phone]):
                    violations += 1
    assert violations == 0
    report_line(3, "RM place/manner + HM phonation on matches, identity elsewhere, "
                   "window law on 1200 utterances")


def test_criterion_4_matcher_recovery():
    spec = ScenarioSpec(seed=404, n_utterances=400, jitter=0, drop_rate=0.0)
    rm_tracks, hm_tracks, truth = generate(spec, INV)
    expected = {(t.utt_id, t.rm_index, t.hm_index) for t in truth}
    got = {(rm.utt_id, p.rm_index, p.hm_index)
           for rm, hm in zip(rm_tracks, hm_tracks)
           for p in match_phones(rm, hm, TABLE)}
    assert got == expected

    spec = ScenarioSpec(seed=404, n_utterances=400, drop_rate=1.0)
    rm_tracks, hm_tracks, truth = generate(spec, INV)
    assert truth == []
    assert all(match_phones(rm, hm, TABLE) == []
               for rm, hm in zip(rm_tracks, hm_tracks))
    report_line(4, "100% ground-truth recovery at jitter=0/drop=0; zero matches at drop=1")


def test_criterion_5_metric_arithmetic_fixture():
    items = table7_tm_fixture()
    assert r1(voicing_acc(items)) == 83.8
    assert r1(asp_pct(items, "strict")) == 61.2
    assert r1(asp_pct(items, "lenient")) == 63.6
    assert r1(ten_pct(items, "strict")) == 50.0
    assert r1(ten_pct(items, "lenient")) == 48.4
    assert r1(null_pct(items)) == 9.6
    report_line(5, "frozen fixture reproduces 83.8 / 61.2 (63.6) / 50.0 (48.4) / 9.6 "
                   "exactly at one decimal")


def test_criterion_6_relative_change():
    assert relative_change(73.8, 50.0) == pytest.approx(-32.2, abs=0.1)
    assert relative_change(71.3, 83.8) == pytest.approx(17.6, abs=0.2)
    report_line(6, "relative changes -32.2 (+/-0.1) and +17.5 (+/-0.2 of 17.6)")


def test_criterion_7_monotonicity_properties():
    rng = random.Random(707)
    classes = [Realization.VOICED, Realization.TENUIS, Realization.ASPIRATED,
               Realization.AMBIGUOUS_ASPIRATED]
    onset_for = {Realization.VOICED: "b", Realization.TENUIS: "k",
                 Realization.ASPIRATED: "kʰ", Realization.AMBIGUOUS_ASPIRATED: "kx",
                 Realization.NULL: "m"}

    def make(phoneme, realization, vot, i):
        return Classified(EvalInstance(f"u{i}", phoneme, vot, onset_for[realization]),
                          realization)

    for trial in range(1000):
        items = [make(rng.choice("bdgptk"), rng.choice(classes),
                      rng.uniform(-50, 100), i) for i in range(rng.randint(2, 30))]
        try:
            assert asp_pct(items, "lenient") >= asp_pct(items, "strict")
        except EmptyDenominator:
            pass
        assert ten_pct(items, "lenient") <= ten_pct(items, "strict")
        noisy = items + [make(rng.choice("bdgptk"), Realization.NULL, 0.0, 10_000 + i)
                         for i in range(rng.randint(1, 4))]
        assert ten_pct(noisy, "strict") == pytest.approx(ten_pct(items, "strict"))
        assert ten_pct(noisy, "lenient") == pytest.approx(ten_pct(items, "lenient"))
        for fn in (voicing_acc, lambda x: asp_pct(x, "strict"),
                   lambda x: asp_pct(x, "lenient")):
            try:
                assert fn(noisy) == pytest.approx(fn(items))
            except EmptyDenominator:
                pass
    report_line(7, "asp_lenient >= asp_strict, ten_lenient <= ten_strict, Null-invariance "
                   "on 1000 random instance sets")


def test_criterion_8_significance_sanity():
    flags = [True, False] * 20
    assert mcnemar_exact(flags, flags) == 1.0
    p = mcnemar_exact([False] * 12, [True] * 12)
    # the two-sided exact value for 12-vs-0 discordant pairs: 2 * 0.5^12
    assert p == pytest.approx(2 * 0.5 ** 12)
    assert p < 0.05
    report_line(8, f"identical vectors p=1.0; 12-vs-0 discordant p={p:.6g} < 0.05")


def test_criterion_9_onset_testset_construction():
    records = []
    i = 0
    for letter in "bdgptk":
        for _ in range(55):
            records.append({"utt_id": f"u{i:05d}", "sentence": f"{letter}eispiel satz",
                            "analyzable": True})
            i += 1
    a = build_onset_testset(records, per_phoneme_n=40, seed=99)
    b = build_onset_testset(records, per_phoneme_n=40, seed=99)
    assert len(a) == 240
    counts = {}
    for r in a:
        counts[r["phoneme"]] = counts.get(r["phoneme"], 0) + 1
    assert counts == {p: 40 for p in "bdgptk"}
    assert "".join(dump_line(r) for r in a) == "".join(dump_line(r) for r in b)
    report_line(9, "onset test set: 240 records, 40 per phoneme, byte-reproducible")


def _run_pipeline(work) -> bytes:
    """decode -> augment -> evaluate; returns concatenated output bytes."""
    work.mkdir(parents=True)

    # deterministic frame paths from synthetic tracks (jitter spaces the slots)
    rm_tracks, hm_tracks, _ = generate(
        ScenarioSpec(seed=1010, n_utterances=80, jitter=1, drop_rate=0.1), INV)

    def to_frame_paths(tracks, path):
        objs = []
        for track in tracks:
            n = track.phones[-1].end_frame + 1 if track.phones else 1
            labels = ["_"] * n
            for tp in track.phones:
                for f in range(tp.start_frame, tp.end_frame + 1):
                    labels[f] = serialize([tp.phone])
            objs.append({"utt_id": track.utt_id, "frame_ms": 20.0, "blank": "_",
                         "labels": labels})
        path.write_text("".join(dump_line(o) + "\n" for o in objs), encoding="utf-8")

    rm_paths, hm_paths = work / "rm_paths.jsonl", work / "hm_paths.jsonl"
    to_frame_paths(rm_tracks, rm_paths)
    to_frame_paths(hm_tracks, hm_paths)

    rm_file, hm_file, tm_file = work / "rm.jsonl", work / "hm.jsonl", work / "tm.jsonl"
    for args in (["decode", str(rm_paths), str(rm_file), "--model-tag", "RM"],
                 ["decode", str(hm_paths), str(hm_file), "--model-tag", "HM"]):
        result = invoke(args)
        assert result.exit_code == 0, result.output
    stats_file = work / "stats.json"
    result = invoke(["augment", str(rm_file), str(hm_file), str(tm_file),
                     "--stats-file", str(stats_file)])
    assert result.exit_code == 0, result.output

    # deterministic eval instances from the augmented plosives
    instances = []
    for line in tm_file.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        for k, ph in enumerate(obj["phones"]):
            sym = ph["symbol"]
            base = sym[0]
            if base in "ptk" or base in ("b", "d", "ɡ"):
                phoneme = {"ɡ": "g"}.get(base, base)
                vot = -15.0 if base in ("b", "d", "ɡ") else 25.0
                instances.append({"utt_id": f"{obj['utt_id']}#{k}", "phoneme": phoneme,
                                  "vot_ms": vot, "onset": sym, "model": "TM"})
                instances.append({"utt_id": f"{obj['utt_id']}#{k}", "phoneme": phoneme,
                                  "vot_ms": vot, "onset": base, "model": "BM"})
    inst_file = work / "instances.jsonl"
    inst_file.write_text("".join(dump_line(o) + "\n" for o in instances),
                         encoding="utf-8")
    result = invoke(["evaluate", str(inst_file), "--out-prefix",
                     str(work / "report")])
    assert result.exit_code == 0, result.output

    return b"".join(p.read_bytes() for p in (
        rm_file, hm_file, tm_file, stats_file, inst_file,
        work / "report.txt", work / "report.json", work / "report_boxplot.csv"))


def test_criterion_10_end_to_end_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "a")
    again = _run_pipeline(tmp_path / "b")
    assert first == again
    report_line(10, "decode -> augment -> evaluate byte-identical across reruns")
