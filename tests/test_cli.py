"""End-to-end subcommand behavior, each command run in process (tests/clirun.py)."""

from __future__ import annotations

import json
from importlib import resources

import pytest
from clirun import invoke

from phonaug import Inventory, MappingTable, ScenarioSpec, generate, serialize
from phonaug.augment import prefilter_by_aspiration
from phonaug.ctc import read_tracks
from phonaug.io import DATA, dump_line

INV = Inventory.default()


def write_lines(path, objs):
    path.write_text("".join(dump_line(o) + "\n" for o in objs), encoding="utf-8")


def count_lines(path):
    with path.open(encoding="utf-8") as f:
        return sum(1 for _ in f)


def test_decode_roundtrip_with_synth(tmp_path):
    # frame paths regenerated from synthetic tracks must decode back to them;
    # jitter=1 spaces the slots so repeated phones stay blank-separated
    rm_tracks, _, _ = generate(ScenarioSpec(seed=6, n_utterances=20, jitter=1), INV)
    objs = []
    for track in rm_tracks:
        n_frames = track.phones[-1].end_frame + 1
        labels = ["_"] * n_frames
        for tp in track.phones:
            text = serialize([tp.phone])
            for f in range(tp.start_frame, tp.end_frame + 1):
                labels[f] = text
        objs.append({"utt_id": track.utt_id, "frame_ms": 20.0, "blank": "_",
                     "labels": labels})
    in_file = tmp_path / "paths.jsonl"
    out_file = tmp_path / "tracks.jsonl"
    write_lines(in_file, objs)
    result = invoke(["decode", str(in_file), str(out_file),
                     "--model-tag", "RM"])
    assert result.exit_code == 0, result.output
    decoded = list(read_tracks(out_file, INV))
    assert [[serialize([p.phone]) for p in t.phones] for t in decoded] == \
        [[serialize([p.phone]) for p in t.phones] for t in rm_tracks]


def test_decode_all_blank(tmp_path):
    in_file = tmp_path / "paths.jsonl"
    out_file = tmp_path / "tracks.jsonl"
    write_lines(in_file, [{"utt_id": "u1", "frame_ms": 20.0, "labels": ["_", "_"]}])
    result = invoke(["decode", str(in_file), str(out_file)])
    assert result.exit_code == 0
    (track,) = read_tracks(out_file, INV)
    assert track.phones == []


def test_decode_counts_the_empty_tracks_on_stderr_only(tmp_path):
    in_file = tmp_path / "paths.jsonl"
    out_file = tmp_path / "tracks.jsonl"
    write_lines(in_file, [{"utt_id": "u2", "frame_ms": 20.0, "labels": ["_", "_", "_"]},
                          {"utt_id": "u1", "frame_ms": 20.0, "labels": ["_", "t", "a"]}])
    result = invoke(["decode", str(in_file), str(out_file)])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert result.stderr == f"decoded 2 utterances (1 empty) -> {out_file}\n"
    assert out_file.read_bytes() == (
        b'{"frame_ms":20.0,"model":"OTHER","phones":[{"end":1,"start":1,"symbol":"t"},'
        b'{"end":2,"start":2,"symbol":"a"}],"utt_id":"u1"}\n'
        b'{"frame_ms":20.0,"model":"OTHER","phones":[],"utt_id":"u2"}\n')


def test_decode_malformed_line_reports_lineno(tmp_path):
    in_file = tmp_path / "paths.jsonl"
    in_file.write_text('{"utt_id": "u1", "frame_ms": 20.0, "labels": ["a"]}\nnot json\n',
                       encoding="utf-8")
    result = invoke(["decode", str(in_file), str(tmp_path / "o.jsonl")])
    assert result.exit_code != 0
    assert ":2:" in result.output


def test_decode_rejects_duplicate_utt_id(tmp_path):
    in_file, out_file = tmp_path / "paths.jsonl", tmp_path / "tracks.jsonl"
    write_lines(in_file, [{"utt_id": u, "frame_ms": 20.0, "labels": ["t"]}
                          for u in ("u2", "u1", "u1")])
    result = invoke(["decode", str(in_file), str(out_file)])
    assert result.exit_code == 1
    assert "utterance 'u1' occurs twice" in result.output
    assert list(tmp_path.iterdir()) == [in_file]


FRAME_PATH = {"utt_id": "u1", "frame_ms": 20.0, "labels": ["t"]}
# augment reads one file as both RM and HM here, which only the OTHER tag admits
TRACK = {"utt_id": "u1", "model": "OTHER", "frame_ms": 20.0,
         "phones": [{"symbol": "t", "start": 0, "end": 1}]}
INSTANCE = {"utt_id": "u1", "phoneme": "t", "vot_ms": 30.0, "onset": "t", "model": "BM"}


@pytest.mark.parametrize("command, record, field, bad, expect", [
    pytest.param("decode", FRAME_PATH, "utt_id", None, "record 2: missing field 'utt_id'",
                 id="decode-missing"),
    pytest.param("decode", FRAME_PATH, "frame_ms", "fast",
                 "utterance 'u1': field 'frame_ms' has the wrong type: 'fast'",
                 id="decode-ill-typed"),
    pytest.param("decode", FRAME_PATH, "utt_id", 7, "record 2: field 'utt_id' has the wrong "
                 "type: 7", id="decode-numeric-utt_id"),
    pytest.param("augment", TRACK, "phones", None, "utterance 'u1': missing field 'phones'",
                 id="augment-missing"),
    pytest.param("augment", TRACK, "utt_id", 7, "record 2: field 'utt_id' has the wrong "
                 "type: 7", id="augment-numeric-utt_id"),
    pytest.param("augment", TRACK, "phones", [{"symbol": "t", "start": "x", "end": 1}],
                 "utterance 'u1': field 'phones[0].start' has the wrong type: 'x'",
                 id="augment-ill-typed-phone"),
    pytest.param("prepare", {"utt_id": "u1", "downvotes": 0}, "utt_id", None,
                 "record 2: missing field 'utt_id'", id="prepare-missing"),
    pytest.param("prepare", {"utt_id": "u1", "downvotes": 0}, "downvotes", "none",
                 "utterance 'u1': field 'downvotes' has the wrong type: 'none'",
                 id="prepare-ill-typed"),
    pytest.param("evaluate", INSTANCE, "vot_ms", None,
                 "utterance 'u1': missing field 'vot_ms'", id="evaluate-missing"),
    pytest.param("evaluate", INSTANCE, "utt_id", 7, "record 2: field 'utt_id' has the wrong "
                 "type: 7", id="evaluate-numeric-utt_id"),
    pytest.param("evaluate", INSTANCE, "vot_ms", [30],
                 "utterance 'u1': field 'vot_ms' has the wrong type: [30]",
                 id="evaluate-ill-typed"),
])
def test_missing_or_ill_typed_field_names_it(tmp_path, command, record, field,
                                             bad, expect):
    good = {**record, "utt_id": "u0"}
    broken = {k: v for k, v in record.items() if k != field}
    if bad is not None:
        broken[field] = bad
    in_file = tmp_path / "in.jsonl"
    write_lines(in_file, [good, broken])
    out = tmp_path / "out.jsonl"
    args = {
        "decode": [str(in_file), str(out)],
        "augment": [str(in_file), str(in_file), str(out)],
        "prepare": ["filter", str(in_file), str(out)],
        "evaluate": [str(in_file), "--out-prefix", str(tmp_path / "rep")],
    }[command]
    result = invoke([command, *args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    message = result.output.strip()
    assert message.startswith(f"Error: {in_file}: {expect}"), message
    assert "\n" not in message and "Traceback" not in message
    assert list(tmp_path.iterdir()) == [in_file]


def u2_track(symbol):
    return {**TRACK, "utt_id": "u2", "phones": [{"symbol": symbol, "start": 0, "end": 1}]}


@pytest.mark.parametrize("command, bad, error", [
    ("decode", {**FRAME_PATH, "utt_id": "u2", "labels": ["t", "_", "7"]},
     "u2: unknown symbol '7' (U+0037) at offset 1"),
    ("augment", u2_track("7"), "u2: unknown symbol '7' (U+0037) at offset 0"),
    ("augment", u2_track("t͡s͡ʃ"), "u2: phone carries more than one tie bar at offset 3"),
    ("augment", u2_track("ʰt"), "u2: diacritic 'ʰ' at offset 0 has no preceding base"),
], ids=["decode-unknown", "augment-unknown", "augment-chained-ties", "augment-orphan"])
def test_tokenizer_error_names_file_and_utterance(tmp_path, command, bad, error):
    in_file, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_lines(in_file, [FRAME_PATH if command == "decode" else TRACK, bad])
    args = [str(in_file), str(out)] if command == "decode" else \
        [str(in_file), str(in_file), str(out)]
    result = invoke([command, *args])
    assert result.exit_code == 1
    assert result.output == f"Error: {in_file}: {error}\n"
    assert list(tmp_path.iterdir()) == [in_file]


def test_evaluate_counts_chained_tie_bars_as_null(tmp_path):
    path = tmp_path / "instances.jsonl"
    write_lines(path, [{**INSTANCE, "onset": "t͡s͡ʃa"}, {**INSTANCE, "utt_id": "u2"}])
    result = invoke(["evaluate", str(path), "--out-prefix", str(tmp_path / "rep")])
    assert result.exit_code == 0, result.output
    row = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))["models"]["BM"]["all"]
    assert (row["n_instances"], row["n_null"]) == (2, 1)


def decode_symbols(out_file):
    return [[p.phone.text for p in t.phones] for t in read_tracks(out_file, INV)]


def test_decode_line_blank_overrides_option(tmp_path):
    in_file, out_file = tmp_path / "paths.jsonl", tmp_path / "tracks.jsonl"
    write_lines(in_file, [{"utt_id": "u1", "frame_ms": 20.0, "blank": "#",
                           "labels": ["#", "t", "#", "t"]}])
    # with --blank t the line would lose its phones and fail on "#"
    result = invoke(["decode", str(in_file), str(out_file), "--blank", "t"])
    assert result.exit_code == 0, result.output
    assert decode_symbols(out_file) == [["t", "t"]]


def test_decode_blank_option_applies_without_line_blank(tmp_path):
    in_file, out_file = tmp_path / "paths.jsonl", tmp_path / "tracks.jsonl"
    write_lines(in_file, [{"utt_id": "u1", "frame_ms": 20.0,
                           "labels": ["#", "t", "#", "t"]}])
    result = invoke(["decode", str(in_file), str(out_file), "--blank", "#"])
    assert result.exit_code == 0, result.output
    assert decode_symbols(out_file) == [["t", "t"]]
    assert invoke(["decode", str(in_file), str(out_file)]).exit_code != 0


def test_an_option_value_that_begins_with_a_dash_follows_an_equals_sign(tmp_path):
    in_file, out_file = tmp_path / "paths.jsonl", tmp_path / "tracks.jsonl"
    write_lines(in_file, [{"utt_id": "u1", "frame_ms": 20.0, "labels": ["-x", "t", "-x", "t"]}])
    result = invoke(["decode", str(in_file), str(out_file), "--blank=-x"])
    assert result.exit_code == 0, result.output
    assert decode_symbols(out_file) == [["t", "t"]]
    # as a separate word, `-x` reads as an option: a usage error
    result = invoke(["decode", str(in_file), str(out_file), "--blank", "-x"])
    assert result.exit_code == 2
    assert result.stderr.endswith("Error: argument --blank: expected one argument\n")


def test_decode_frame_ms_option_overrides_line(tmp_path):
    in_file, out_file = tmp_path / "paths.jsonl", tmp_path / "tracks.jsonl"
    write_lines(in_file, [{"utt_id": "u1", "frame_ms": 20.0, "labels": ["_", "t"]}])
    result = invoke(["decode", str(in_file), str(out_file)])
    assert result.exit_code == 0, result.output
    (track,) = read_tracks(out_file, INV)
    assert track.frame_ms == 20.0
    result = invoke(["decode", str(in_file), str(out_file),
                     "--frame-ms", "10"])
    assert result.exit_code == 0, result.output
    (track,) = read_tracks(out_file, INV)
    assert track.frame_ms == 10.0


@pytest.mark.parametrize("command, option", [
    ("decode", "--workers"), ("augment", "--workers"),
    ("prefilter-aspiration", "--workers"), ("synth", "--workers"),
    ("evaluate", "--workers"), ("evaluate", "--lenient"), ("evaluate", "--strict"),
])
def test_removed_options_are_unknown(tmp_path, command, option):
    f = tmp_path / "in.jsonl"
    f.write_text("", encoding="utf-8")
    args = {
        "decode": [str(f), str(tmp_path / "o.jsonl")],
        "augment": [str(f), str(f), str(tmp_path / "o.jsonl")],
        "prefilter-aspiration": [str(f), str(f)],
        "synth": [str(f), "--rm-out", str(tmp_path / "r"), "--hm-out", str(tmp_path / "h")],
        "evaluate": [str(f), "--out-prefix", str(tmp_path / "rep")],
    }[command]
    value = ["2"] if option == "--workers" else []
    result = invoke([command, *args, option, *value])
    assert result.exit_code == 2
    assert "No such option" in result.output and option in result.output
    assert list(tmp_path.iterdir()) == [f]


def synth_files(tmp_path, spec_overrides=None):
    spec = {"seed": 12, "n_utterances": 30, "plosive_rate": 0.6,
            "hm_aspiration_rate": 0.4, "hm_voicing_rate": 0.2,
            "hm_breathy_rate": 0.1, "jitter": 0, "drop_rate": 0.0}
    spec.update(spec_overrides or {})
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    rm, hm, truth = tmp_path / "rm.jsonl", tmp_path / "hm.jsonl", tmp_path / "truth.jsonl"
    result = invoke(["synth", str(spec_file), "--rm-out", str(rm),
                     "--hm-out", str(hm), "--truth-out", str(truth)])
    assert result.exit_code == 0, result.output
    return rm, hm, truth


def test_augment_stats_match_ground_truth(tmp_path):
    rm, hm, truth = synth_files(tmp_path)
    out = tmp_path / "tm.jsonl"
    stats_file = tmp_path / "stats.json"
    result = invoke(["augment", str(rm), str(hm), str(out),
                     "--stats-file", str(stats_file)])
    assert result.exit_code == 0, result.output
    stats = json.loads(stats_file.read_text())
    n_truth = count_lines(truth)
    assert stats["matched"] == n_truth


def test_augment_empty_inputs(tmp_path):
    rm, hm, out = tmp_path / "rm.jsonl", tmp_path / "hm.jsonl", tmp_path / "tm.jsonl"
    rm.write_text("")
    hm.write_text("")
    result = invoke(["augment", str(rm), str(hm), str(out)])
    assert result.exit_code == 0
    assert out.read_text() == ""
    assert json.loads(result.output)["matched"] == 0


def test_augment_no_breathy_flag(tmp_path):
    rm, hm, _ = synth_files(tmp_path, {"hm_breathy_rate": 0.6,
                                       "hm_aspiration_rate": 0.0,
                                       "hm_voicing_rate": 0.0})
    out = tmp_path / "tm.jsonl"
    result = invoke(["augment", str(rm), str(hm), str(out), "--no-breathy"])
    assert result.exit_code == 0, result.output
    assert "ʱ" not in out.read_text(encoding="utf-8")


def test_prefilter_aspiration_cli(tmp_path):
    rm, hm, _ = synth_files(tmp_path)
    result = invoke(["prefilter-aspiration", str(rm), str(hm)])
    assert result.exit_code == 0
    ids = result.stdout.split()
    assert ids == sorted(ids)
    assert len(ids) > 0


def test_prefilter_aspiration_counts_what_it_skips_on_stderr_only(tmp_path):
    rm, hm, _ = synth_files(tmp_path)
    lines = hm.read_text(encoding="utf-8").splitlines(keepends=True)
    short = tmp_path / "short.jsonl"  # no HM track for synth-000003 and synth-000004
    short.write_text("".join(lines[:3] + lines[5:]), encoding="utf-8")
    table = MappingTable.default(INV)
    for hm_file, missing in ((hm, 0), (short, 2)):
        selected = prefilter_by_aspiration(rm, hm_file, table, INV)
        text = "".join(f"{u}\n" for u in selected)
        line = f"selected {len(selected)} of 30 utterances ({missing} without an HM counterpart)\n"
        result = invoke(["prefilter-aspiration", str(rm), str(hm_file)])
        assert result.exit_code == 0
        assert (result.stdout, result.stderr) == (text, line)
        out = tmp_path / "selected.txt"
        result = invoke(["prefilter-aspiration", str(rm), str(hm_file),
                         "--out", str(out)])
        assert result.exit_code == 0
        assert (result.stdout, result.stderr) == ("", line)
        assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("command", ["augment", "prefilter-aspiration"])
@pytest.mark.parametrize("table, base", [("mapping", "ʔ"), ("inventory", "c")])
def test_rm_base_without_voicing_pair_fails_at_load(tmp_path, command, table, base):
    rm, hm, _ = synth_files(tmp_path)
    if table == "mapping":  # a table that covers ʔ, which has no voicing pair
        entries = [{"rm": ["t", "ʔ"], "hm": ["t", "ʔ"]}]
        data = {"window_offsets": [0, 1], "entries": entries}
    else:  # an inventory without the pair of the default RM bases c and ɟ
        data = json.loads(resources.files("phonaug.data").joinpath("inventory.json")
                          .read_text("utf-8"))
        data["voicing_pairs"].remove(["c", "ɟ"])
    table_file = tmp_path / f"{table}.json"
    table_file.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    out, stats = tmp_path / "out", tmp_path / "stats.json"
    args = [str(rm), str(hm), str(out), "--stats-file", str(stats)] if command == "augment" \
        else [str(rm), str(hm), "--out", str(out)]
    result = invoke([command, *args, f"--{table}", str(table_file)])
    assert result.exit_code == 1
    # the error names the mapping table that fails, the packaged one under --inventory
    failing = table_file if table == "mapping" else DATA / "mapping.json"
    assert result.output == (f"Error: {failing}: mapping table RM base {base!r} has no "
                             "voicing pair in the inventory\n")
    assert sorted(tmp_path.iterdir()) == before


def manifest_file(tmp_path, n=300):
    objs = []
    letters = "bdgptkmna"
    for i in range(n):
        objs.append({"utt_id": f"u{i:05d}", "language": "de",
                     "sentence": f"{letters[i % len(letters)]}ei spiel",
                     "transcription": "taka", "upvotes": 2,
                     "downvotes": i % 4 == 0 and 1 or 0, "analyzable": True})
    path = tmp_path / "manifest.jsonl"
    write_lines(path, objs)
    return path


def test_prepare_filter_sample_split(tmp_path):
    manifest = manifest_file(tmp_path)
    filtered = tmp_path / "filtered.jsonl"
    assert invoke(["prepare", "filter", str(manifest), str(filtered)]).exit_code == 0
    assert count_lines(filtered) == 225  # every fourth record is downvoted
    sampled = tmp_path / "sampled.jsonl"
    assert invoke(["prepare", "sample", str(filtered), str(sampled),
                   "--n", "200", "--seed", "4"]).exit_code == 0
    assert count_lines(sampled) == 200

    sampled2 = tmp_path / "sampled2.jsonl"
    invoke(["prepare", "sample", str(filtered), str(sampled2),
            "--n", "200", "--seed", "4"])
    assert sampled.read_bytes() == sampled2.read_bytes()

    train, valid = tmp_path / "train.jsonl", tmp_path / "valid.jsonl"
    result = invoke(["prepare", "split", str(sampled), "--fraction", "0.2",
                     "--seed", "1", "--train-out", str(train),
                     "--valid-out", str(valid)])
    assert result.exit_code == 0
    assert count_lines(valid) == 40
    assert count_lines(train) == 160


def test_prepare_onset_testset(tmp_path):
    objs = []
    i = 0
    for letter in "bdgptk":
        for _ in range(50):
            objs.append({"utt_id": f"u{i:05d}", "sentence": f"{letter}all gut",
                         "transcription": "a", "analyzable": True})
            i += 1
    manifest = tmp_path / "m.jsonl"
    write_lines(manifest, objs)
    out = tmp_path / "test.jsonl"
    result = invoke(["prepare", "onset-testset", str(manifest), str(out),
                     "--per-phoneme-n", "40", "--seed", "2"])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 240


def test_prepare_onset_testset_insufficient(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_lines(manifest, [{"utt_id": "u1", "sentence": "ball", "transcription": "a",
                            "analyzable": True}])
    result = invoke(["prepare", "onset-testset", str(manifest),
                     str(tmp_path / "o.jsonl"), "--per-phoneme-n", "40",
                     "--seed", "2"])
    assert result.exit_code != 0


def test_prepare_remap_and_clean_vocab(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_lines(manifest, [
        {"utt_id": "u1", "transcription": "gato"},
        {"utt_id": "u2", "transcription": "ta#o"},
    ])
    config = tmp_path / "remap.json"
    config.write_text(json.dumps({"remap": {"g": "ɡ"}, "exclude": ["#"]}),
                      encoding="utf-8")
    out = tmp_path / "clean.jsonl"
    report_file = tmp_path / "report.jsonl"
    result = invoke(["prepare", "remap", str(manifest), str(out),
                     "--config", str(config), "--report-file",
                     str(report_file)])
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 and "ɡato" in lines[0]
    assert report_file.exists()

    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"tokens": {"_": 0, "g": 1, "ɡ": 2, "a": 3, "t": 4, "o": 5},
                                 "blank": "_"}, ensure_ascii=False), encoding="utf-8")
    cleaned = tmp_path / "vocab_clean.json"
    result = invoke(["prepare", "clean-vocab", str(vocab), str(out),
                     str(cleaned), "--remove", "g", "--add", "ʱ"])
    assert result.exit_code == 0, result.output
    data = json.loads(cleaned.read_text(encoding="utf-8"))
    assert "g" not in data["tokens"]
    assert "ʱ" in data["tokens"]
    assert sorted(data["tokens"].values()) == list(range(len(data["tokens"])))


def eval_instances(tmp_path):
    objs = []
    for i in range(40):
        objs.append({"utt_id": f"u{i:03d}", "phoneme": "k", "vot_ms": -12.5 if i % 3 else 40.0,
                     "onset": "ɡ" if i % 3 else "kʰ", "model": "TM", "analyzable": True})
        objs.append({"utt_id": f"u{i:03d}", "phoneme": "k", "vot_ms": -12.5 if i % 3 else 40.0,
                     "onset": "k", "model": "BM", "analyzable": True})
        objs.append({"utt_id": f"b{i:03d}", "phoneme": "g", "vot_ms": -20.0,
                     "onset": "ɡa" if i % 2 else "ka", "model": "TM", "analyzable": True})
        objs.append({"utt_id": f"b{i:03d}", "phoneme": "g", "vot_ms": -20.0,
                     "onset": "ka", "model": "BM", "analyzable": True})
    path = tmp_path / "instances.jsonl"
    write_lines(path, objs)
    return path


def test_evaluate_outputs(tmp_path):
    instances = eval_instances(tmp_path)
    prefix = tmp_path / "report"
    result = invoke(["evaluate", str(instances), "--out-prefix", str(prefix)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "report.txt").exists()
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert set(payload["models"]) == {"BM", "TM"}
    assert "significance" in payload  # two models present
    csv = (tmp_path / "report_boxplot.csv").read_text(encoding="utf-8")
    assert csv.startswith("group,class,min,q1,median,q3,max,outliers")


def test_evaluate_dotted_out_prefix_keeps_every_output(tmp_path):
    instances = eval_instances(tmp_path)
    for prefix in ("eval.a", "eval.b"):
        result = invoke(["evaluate", str(instances), "--out-prefix",
                         str(tmp_path / "runs" / prefix)])
        assert result.exit_code == 0, result.output
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
        f"eval.{m}{suffix}" for m in "ab" for suffix in (".json", ".txt", "_boxplot.csv")]


def test_evaluate_single_model_omits_significance(tmp_path):
    objs = [{"utt_id": "u1", "phoneme": "k", "vot_ms": 30.0, "onset": "kʰ", "model": "TM"}]
    path = tmp_path / "one.jsonl"
    write_lines(path, objs)
    result = invoke(["evaluate", str(path), "--out-prefix",
                     str(tmp_path / "rep")])
    assert result.exit_code == 0
    payload = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))
    assert "significance" not in payload
    assert "McNemar" not in result.output


def test_evaluate_group_filter(tmp_path):
    instances = eval_instances(tmp_path)
    result = invoke(["evaluate", str(instances), "--out-prefix",
                     str(tmp_path / "velar"), "--group", "velar"])
    assert result.exit_code == 0
    text = (tmp_path / "velar.txt").read_text(encoding="utf-8")
    assert "velar" in text
    assert "bilabial" not in text
    payload = json.loads((tmp_path / "velar.json").read_text(encoding="utf-8"))
    assert all(set(rows) == {"all", "velar"} for rows in payload["models"].values())
    assert payload["significance"]["models"] == ["BM", "TM"]  # --group keeps the test


def test_pipeline_determinism_across_reruns(tmp_path):
    rm, hm, _ = synth_files(tmp_path, {"jitter": 1, "drop_rate": 0.1,
                                       "n_utterances": 60})
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"tm_{run}.jsonl"
        stats = tmp_path / f"stats_{run}.json"
        result = invoke(["augment", str(rm), str(hm), str(out),
                         "--stats-file", str(stats)])
        assert result.exit_code == 0
        outputs.append((out.read_bytes(), stats.read_bytes()))
    assert outputs[0] == outputs[1]
