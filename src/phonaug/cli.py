"""Composable pipeline subcommands over JSON Lines files.

Every subcommand is deterministic: identical inputs (and seeds) produce
byte-identical outputs. A command exits 0 on success and 1 on a hard error,
with one `Error: ...` line on stderr. A usage error (an unknown command or
option, a missing or malformed argument, an input path that does not exist,
is a directory or cannot be read) exits 2 before anything is written: stderr
holds the command's usage, then one `Error: ...` line naming the
argument. Options are matched by their full names only, never by a prefix.
What is skipped is listed where a command skips it: `augment` names each RM
utterance without an HM counterpart under `missing_counterparts` in its stats,
and `prepare remap` writes each rewrite and drop to its `--report-file`;
`prefilter-aspiration` skips such utterances and counts them on stderr. With
`--fail-missing`, `augment` fails on the first one instead, naming the HM file:
`Error: hm.jsonl: no HM counterpart for utterance 'u1'`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

from . import io
from .errors import PhonaugError


def _lazy(name: str):
    """The submodule `name`, in sys.modules under its own name, which runs on its
    first attribute access (importlib.util.LazyLoader): a command runs only the
    modules it uses."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)  # already imported, perhaps run: keep it
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


aug, ctc, inventory, manifest, metrics, synth = map(
    _lazy, ("augment", "ctc", "inventory", "manifest", "metrics", "synth"))


def _input(path: str) -> str:
    """An input file argument: it must exist, be readable and not be a directory."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"File {path!r} does not exist.")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File {path!r} is a directory.")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"File {path!r} is not readable.")
    return path


def _load(cls, path: str | None, *args):
    """The table of class `cls` in the file at `path`, or its packaged default."""
    return cls.load(path, *args) if path else cls.default(*args)


def _echo(text: str, err: bool = False, end: str = "\n") -> None:
    """Print `text` on stdout, or on stderr if `err`, and flush it, so that the
    two streams keep their order where they share one pipe."""
    print(text, end=end, file=sys.stderr if err else sys.stdout, flush=True)


class _Parser(argparse.ArgumentParser):
    """An option is matched by its full name only, and a usage error exits 2 with
    the usage and one `Error: ...` line on stderr."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"{self.format_usage()}Error: {message}\n")


# each command's name -> (its function, its add_argument calls); a group's name
# -> (its help, its own such table)
_COMMANDS: dict = {}
_PREPARE: dict = {}


def _arg(*flags, **kwargs):
    return flags, kwargs


def _command(name: str, *arguments, group: dict = _COMMANDS):
    def register(run):
        group[name] = run, arguments
        return run
    return register


def _add_commands(parser: _Parser, commands: dict, args: list[str]) -> None:
    """Add `commands` to `parser`; only the one that args[0] names, if it names one,
    since building the parsers of all commands takes about 3 ms at every start."""
    subparsers = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name in args[:1] if args and args[0] in commands else commands:
        run, arguments = commands[name]
        doc = run if isinstance(run, str) else run.__doc__
        sub = subparsers.add_parser(name, help=doc, description=doc)
        if isinstance(arguments, dict):
            _add_commands(sub, arguments, args[1:])
            continue
        sub.set_defaults(run=run, parser=sub)
        for flags, kwargs in arguments:
            sub.add_argument(*flags, **kwargs)


def main(args: list[str] | None = None, prog_name: str = "phonaug",
         standalone_mode: bool = True) -> None:
    """Run the command line `args` (default: sys.argv[1:]). A usage error exits 2.
    In standalone mode a PhonaugError exits 1 with one `Error: ...` line on
    stderr; otherwise it propagates to the caller."""
    args = sys.argv[1:] if args is None else list(args)
    parser = _Parser(prog=prog_name, description="Selective phonation augmentation pipeline.")
    _add_commands(parser, _COMMANDS, args)
    namespace, extra = parser.parse_known_args(args)
    params = vars(namespace)
    run, command = params.pop("run"), params.pop("parser")
    if extra:  # in click's words, which scripts may match
        option = next((a for a in extra if a.startswith("-")), None)
        command.error(f"No such option: {option}" if option else
                      f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                      f"({' '.join(extra)})")
    try:
        run(**params)
    except PhonaugError as e:
        if not standalone_mode:
            raise
        _echo(f"Error: {e}", err=True)
        sys.exit(1)
    except BrokenPipeError:  # stdout closed early, as by `| head`: exit 1 quietly
        if not standalone_mode:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


main.main = main  # only for perfbench/run.py, which calls main.main(..., standalone_mode=False)


@_command("decode",
          _arg("framepath_file", type=_input),
          _arg("out_file"),
          _arg("--blank", default="_", help="CTC blank token (default: %(default)s)."),
          _arg("--frame-ms", type=float, help="Override the per-line frame_ms field."),
          _arg("--model-tag", default="OTHER", choices=io.MODEL_TAGS,
               help="The tracks' model (default: %(default)s)."),
          _arg("--inventory", dest="inventory_path", type=_input))
def decode(framepath_file, out_file, blank, frame_ms, model_tag, inventory_path):
    """Collapse per-frame CTC label paths into timestamped phone tracks."""
    inv = _load(inventory.Inventory, inventory_path)

    def from_obj(obj):
        if frame_ms is not None:
            obj = {**obj, "frame_ms": frame_ms}
        path = ctc.frame_path_from_obj(obj)
        return ctc.decode_track(path, obj.get("blank", blank), inv, model_tag)

    # under --frame-ms a line's own frame_ms is neither read nor checked
    fields = {name: kind for name, kind in ctc.FRAME_PATH_FIELDS.items()
              if name != "frame_ms" or frame_ms is None}
    # frame paths come from outside phonaug, so they are sorted here, then
    # checked like every track file: each utt_id once
    tracks = sorted(io.parse_records(framepath_file, from_obj, fields), key=lambda t: t.utt_id)
    with io.replacing(out_file) as (out,):
        n = ctc.write_tracks(out, ctc.in_utt_id_order(tracks, framepath_file))
    empty = sum(not track.phones for track in tracks)  # all blank: no phone to match
    _echo(f"decoded {n} utterances ({empty} empty) -> {out_file}", err=True)


@_command("augment",
          _arg("rm_file", type=_input),
          _arg("hm_file", type=_input),
          _arg("out_file"),
          _arg("--mapping", dest="mapping_path", type=_input),
          _arg("--inventory", dest="inventory_path", type=_input),
          _arg("--no-breathy", action="store_true", help="Do not transfer breathy voice (ʱ)."),
          _arg("--fail-missing", dest="skip_missing", action="store_false",
               help="Fail on an RM utterance without an HM counterpart "
                    "(default: skip it and list it in the stats)."),
          _arg("--stats-file", help="Write AugmentationStats JSON here (default: stdout)."))
def cmd_augment(rm_file, hm_file, out_file, mapping_path, inventory_path,
                no_breathy, skip_missing, stats_file):
    """Match RM plosives to HM plosives and overwrite their phonation."""
    with io.replacing(out_file, stats_file or None) as (out, stats_out):
        inv = _load(inventory.Inventory, inventory_path)
        table = _load(aug.MappingTable, mapping_path, inv)
        stats = aug.augment_corpus(rm_file, hm_file, table, out, inv,
                                   breathy=not no_breathy, skip_missing=skip_missing)
        payload = json.dumps(stats.to_obj(), ensure_ascii=False, sort_keys=True, indent=2)
        if stats_out is not None:
            stats_out.write(payload + "\n")
    if stats_out is None:
        _echo(payload)


@_command("prefilter-aspiration",
          _arg("rm_file", type=_input),
          _arg("hm_file", type=_input),
          _arg("--mapping", dest="mapping_path", type=_input),
          _arg("--inventory", dest="inventory_path", type=_input),
          _arg("--out", dest="out_file", help="Write selected utt_ids here (default: stdout)."))
def prefilter_aspiration(rm_file, hm_file, mapping_path, inventory_path, out_file):
    """List utt_ids whose matches produce at least one aspirated phone."""
    inv = _load(inventory.Inventory, inventory_path)
    table = _load(aug.MappingTable, mapping_path, inv)
    stats = aug.AugmentationStats()
    selected = aug.prefilter_by_aspiration(rm_file, hm_file, table, inv, stats)
    text = "\n".join(selected) + ("\n" if selected else "")
    if out_file:
        with io.replacing(out_file) as (out,):
            out.write(text)
    else:
        _echo(text, end="")
    missing = len(stats.missing_counterparts)
    _echo(f"selected {len(selected)} of {stats.utterances + missing} utterances "
          f"({missing} without an HM counterpart)", err=True)


_COMMANDS["prepare"] = (
    "Manifest operations: filter, sample, split, remap, onset-testset, clean-vocab.", _PREPARE)


def _read_manifest(path) -> list[dict]:
    """The objects of a manifest's lines in file order, each utt_id once: a split
    or a sample must not hold one utterance twice."""
    records = list(io.parse_records(path, dict, manifest.SEGMENT_FIELDS))
    seen: set[str] = set()
    for record in records:
        if record["utt_id"] in seen:
            raise PhonaugError(f"{path}: utterance {record['utt_id']!r} occurs twice")
        seen.add(record["utt_id"])
    return records


def _write_jsonl(out, objs) -> None:
    """Write one JSON line per object to `out`, an output that `io.replacing` opened."""
    out.writelines([io.dump_line(obj) + "\n" for obj in objs])


@_command("filter",
          _arg("in_file", type=_input),
          _arg("out_file"),
          _arg("--max-downvotes", type=int, default=0,
               help="Keep segments with at most this many (default: %(default)s)."),
          group=_PREPARE)
def prepare_filter(in_file, out_file, max_downvotes):
    """Drop downvoted segments."""
    records = manifest.filter_downvoted(_read_manifest(in_file), max_downvotes)
    with io.replacing(out_file) as (out,):
        _write_jsonl(out, records)
    _echo(f"kept {len(records)} records", err=True)


@_command("sample",
          _arg("in_file", type=_input),
          _arg("out_file"),
          _arg("--n", type=int, required=True),
          _arg("--seed", type=int, required=True),
          group=_PREPARE)
def prepare_sample(in_file, out_file, n, seed):
    """Seeded uniform sample without replacement."""
    records = manifest.sample_segments(_read_manifest(in_file), n, seed)
    with io.replacing(out_file) as (out,):
        _write_jsonl(out, records)


@_command("split",
          _arg("in_file", type=_input),
          _arg("--fraction", type=float, required=True, help="Validation fraction."),
          _arg("--seed", type=int, required=True),
          _arg("--train-out", required=True),
          _arg("--valid-out", required=True),
          group=_PREPARE)
def prepare_split(in_file, fraction, seed, train_out, valid_out):
    """Seeded train/validation split."""
    with io.replacing(train_out, valid_out) as (train_file, valid_file):
        train, valid = manifest.split_validation(_read_manifest(in_file), fraction, seed)
        _write_jsonl(train_file, train)
        _write_jsonl(valid_file, valid)
    _echo(f"train {len(train)} / valid {len(valid)}", err=True)


@_command("remap",
          _arg("in_file", type=_input),
          _arg("out_file"),
          _arg("--config", dest="config_path", type=_input, required=True,
               help='JSON {"remap": {...}, "exclude": [...]}.'),
          _arg("--report-file"),
          _arg("--inventory", dest="inventory_path", type=_input),
          group=_PREPARE)
def prepare_remap(in_file, out_file, config_path, report_file, inventory_path):
    """Rewrite invalid transcriptions and drop the unfixable ones."""
    with io.replacing(out_file, report_file or None) as (out, report):
        remap, exclude = io.read_json(config_path, manifest.remap_config, {
            "remap": io.Optional(io.MapOf(io.STRING)),
            "exclude": io.Optional(io.ListOf(io.STRING))})
        inv = _load(inventory.Inventory, inventory_path)
        kept, rep = manifest.remap_invalid(_read_manifest(in_file), remap, exclude, inv)
        _write_jsonl(out, kept)
        if report is not None:
            _write_jsonl(report, rep)
    _echo(f"kept {len(kept)} records, {len(rep)} report entries", err=True)


@_command("onset-testset",
          _arg("in_file", type=_input),
          _arg("out_file"),
          _arg("--per-phoneme-n", type=int, default=40,
               help="Records per phoneme (default: %(default)s)."),
          _arg("--seed", type=int, required=True),
          group=_PREPARE)
def prepare_onset_testset(in_file, out_file, per_phoneme_n, seed):
    """Absolute-onset test set: sentence-initial <b d g p t k>, sampled per phoneme."""
    records = manifest.build_onset_testset(_read_manifest(in_file), per_phoneme_n, seed)
    with io.replacing(out_file) as (out,):
        _write_jsonl(out, records)
    _echo(f"wrote {len(records)} test records", err=True)


@_command("clean-vocab",
          _arg("vocab_file", type=_input),
          _arg("corpus_file", type=_input),
          _arg("out_file"),
          _arg("--remove", action="append", default=[], help="Token to remove (repeatable)."),
          _arg("--add", action="append", default=[], help="Token to add (repeatable)."),
          group=_PREPARE)
def prepare_clean_vocab(vocab_file, corpus_file, out_file, remove, add):
    """Remove unused tokens, add new ones, reassign dense ids."""
    # a vocabulary that clean-vocab wrote carries its id_map, which is not read
    tokens, blank = io.read_json(vocab_file, manifest.vocab_config, {
        "tokens": io.MapOf(io.INTEGER), "blank": io.Optional(io.STRING),
        "id_map": io.Optional(io.MapOf(io.INTEGER))})
    cleaned, id_map = manifest.clean_vocab(tokens, blank, set(remove), set(add),
                                           _read_manifest(corpus_file))
    out = {"tokens": cleaned, "blank": blank, "id_map": {str(k): v for k, v in id_map.items()}}
    with io.replacing(out_file) as (f,):
        f.write(json.dumps(out, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    _echo(f"vocabulary: {len(tokens)} -> {len(cleaned)} tokens", err=True)


@_command("synth",
          _arg("spec_file", type=_input),
          _arg("--rm-out", required=True),
          _arg("--hm-out", required=True),
          _arg("--truth-out"),
          _arg("--inventory", dest="inventory_path", type=_input))
def cmd_synth(spec_file, rm_out, hm_out, truth_out, inventory_path):
    """Generate synthetic paired RM/HM tracks with known ground truth."""
    # each utterance's lines are written as it is made; the files are renamed into
    # place once all of them are complete, and none is on a fault
    with io.replacing(rm_out, hm_out, truth_out) as (rm_file, hm_file, truth_file):
        inv = _load(inventory.Inventory, inventory_path)
        spec = synth.ScenarioSpec.load(spec_file)
        for rm, hm, truths in synth.utterances(spec, inv):
            rm_file.write(ctc.track_line(rm) + "\n")
            hm_file.write(ctc.track_line(hm) + "\n")
            if truth_file is not None:
                truth_file.writelines([synth.truth_line(t) + "\n" for t in truths])
    _echo(f"generated {spec.n_utterances} utterances", err=True)


@_command("evaluate",
          _arg("instances_file", type=_input),
          _arg("--out-prefix", required=True,
               help="Writes <prefix>.txt, <prefix>.json and <prefix>_boxplot.csv."),
          _arg("--continuants", dest="continuants_path", type=_input),
          _arg("--inventory", dest="inventory_path", type=_input),
          _arg("--group", dest="group_filter", choices=io.POA_GROUPS,
               help="Report on one PoA group only."))
def cmd_evaluate(instances_file, out_prefix, continuants_path, inventory_path,
                 group_filter):
    """Classify predictions and emit metric tables, JSON and boxplot CSV."""
    io.check_names_file(out_prefix)  # before the suffixes make it name one
    txt, json_file, csv_file = (f"{out_prefix}{suffix}"
                                for suffix in (".txt", ".json", "_boxplot.csv"))
    with io.replacing(txt, json_file, csv_file) as (txt_out, json_out, csv_out):
        inv = _load(inventory.Inventory, inventory_path)
        cfg = _load(metrics.ClassifierConfig, continuants_path)
        evaluation = metrics.Evaluation()  # one pass: each instance is tallied as it is read
        evaluation.update(evaluation.read(instances_file, inv, cfg, group_filter))
        reports = evaluation.report()

        payload: dict = {
            "models": {m: {g: r.to_obj() for g, r in rows.items()}
                       for m, rows in reports.items()},
        }
        models = sorted(reports)
        if len(models) == 2:
            payload["significance"] = evaluation.significance(models)

        text = metrics.format_report(reports)
        if "significance" in payload:
            sig = payload["significance"]
            text += (f"McNemar exact (voicing, {sig['models'][0]} vs {sig['models'][1]}): "
                     f"p = {sig['p_value']:.6g} on {sig['n_pairs']} pairs\n")
        txt_out.write(text)
        json_out.write(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
        csv_out.write(metrics.boxplot_csv(evaluation.boxplot_rows()))
    _echo(text)


if __name__ == "__main__":
    main()
