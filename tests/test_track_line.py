"""`ctc.track_line` formats a track file's lines directly; its bytes must be
those of the generic encoder, `io.dump_line(ctc.track_to_obj(track))`, on every
track phonaug builds, and every track file a command writes must re-encode
through json.loads and dump_line to itself."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from clirun import invoke
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phonaug import Inventory
from phonaug.ctc import PhoneTrack, TimedPhone, track_line, track_to_obj
from phonaug.errors import PhonaugError
from phonaug.inventory import SPREAD, TIE_BARS
from phonaug.io import MODEL_TAGS, dump_line, write_jsonl

INV = Inventory.default()
BASES = sorted(INV.base_features)
SPREADS = sorted(d for d, role in INV.diacritics.items() if role in SPREAD)  # ʰ ʱ
OTHERS = sorted(d for d, role in INV.diacritics.items() if role not in SPREAD)

# what json escapes or must keep as it is: quote, backslash, the C0 controls,
# DEL, NEL and the Unicode line and paragraph separators, and non-BMP characters
AWKWARD = '"\\\x00\x08\t\n\x0c\r\x1b\x1f\x7f\x85\u2028\u2029\U0001F600\U00010348'
utt_ids = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), min_size=1)
# an int too: PhoneTrack stores a frame_ms as a float, so track_line writes one
frame_ms = st.one_of(st.sampled_from([5e-324, 0.1, 20.0, 1e22, sys.float_info.max, 20]),
                     st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
                     st.integers(1, int(sys.float_info.max)))


@st.composite
def phones(draw):
    """An inventory phone, spelled as the tokenizer's grammar admits: a base, its
    other diacritics, then a spread diacritic and a tied base in either order."""
    def part():
        return draw(st.sampled_from(BASES)) + "".join(
            draw(st.lists(st.sampled_from(OTHERS), max_size=2)))

    symbol = part()
    spread = draw(st.sampled_from(SPREADS)) if draw(st.booleans()) else ""
    tied = draw(st.sampled_from(TIE_BARS)) + part() if draw(st.booleans()) else ""
    symbol += spread + tied if draw(st.booleans()) else tied + spread
    try:
        return INV.phone(symbol)
    except PhonaugError:
        assume(False)


@st.composite
def tracks(draw):
    frames = st.integers(0, 2 ** 62)
    spans = sorted(sorted(span) for span in draw(st.lists(st.tuples(frames, frames), max_size=6)))
    timed = [TimedPhone(draw(phones()), start, end) for start, end in spans]
    return PhoneTrack(draw(utt_ids), draw(st.sampled_from(MODEL_TAGS)), timed, draw(frame_ms))


@settings(max_examples=500, deadline=None)
@given(tracks())
@example(PhoneTrack("u \x85\"\\", "TM", [TimedPhone(INV.phone("t͡sʰ"), 0, 2 ** 62)],
                    sys.float_info.max))
def test_track_line_is_the_generic_encoding(track):
    assert track_line(track) == dump_line(track_to_obj(track))


def test_an_int_frame_ms_is_kept_and_written_as_a_float():
    track = PhoneTrack("u1", "RM", [TimedPhone(INV.phone("t"), 0, 1)], 20)
    assert type(track.frame_ms) is float and track.frame_ms == 20.0
    assert track_line(track) == ('{"frame_ms":20.0,"model":"RM","phones":'
                                 '[{"end":1,"start":0,"symbol":"t"}],"utt_id":"u1"}')


def reencodes(path: Path) -> bool:
    """Whether each line of the file at `path` is dump_line of its own JSON; the file
    is split at "\\n" only, since str.splitlines also splits at U+0085 and U+2028."""
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    return lines[-1] == "" and all(dump_line(json.loads(line)) == line for line in lines[:-1])


def test_every_written_track_file_reencodes_to_itself(tmp_path):
    ids = sorted(["u1", "u ", "u\x85\x7f", 'u"\\', "u\U0001F600", "u\x1f"])
    write_jsonl(tmp_path / "paths.jsonl", [
        {"utt_id": utt_id, "frame_ms": ms, "labels": ["_", "t", "tʰ", "_", "a", "ʱ", "d͡z"]}
        for utt_id, ms in zip(ids, [10, 0.1, 1e22, 5e-324, 20.0, sys.float_info.max])])
    (tmp_path / "spec.json").write_text('{"seed": 5, "n_utterances": 30, "jitter": 1}',
                                        encoding="utf-8")
    for args in ("decode {d}/paths.jsonl {d}/decoded.jsonl --model-tag HM",
                 "synth {d}/spec.json --rm-out {d}/rm.jsonl --hm-out {d}/hm.jsonl",
                 "augment {d}/rm.jsonl {d}/hm.jsonl {d}/tm.jsonl --stats-file {d}/stats.json"):
        result = invoke(args.format(d=tmp_path).split())
        assert result.exit_code == 0, result.output
    for name in ("decoded.jsonl", "rm.jsonl", "hm.jsonl", "tm.jsonl"):
        assert reencodes(tmp_path / name), name
    assert len((tmp_path / "decoded.jsonl").read_text(encoding="utf-8").split("\n")) == 7
