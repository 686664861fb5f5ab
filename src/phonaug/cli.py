"""Composable pipeline subcommands over JSON Lines files.

Every subcommand is deterministic: identical inputs (and seeds) produce
byte-identical outputs. A command exits 0 on success and 1 on a hard error,
with one `Error: ...` line on stderr; an OS error, such as a full disk, gives
its reason and the file it names, if any. A usage error (an unknown command or
option, a missing or malformed argument such as a `--frame-ms` that is not
positive and finite, an input path that does not exist, is a directory or
cannot be read) exits 2 before anything is read or written: stderr
holds the command's usage, then one `Error: ...` line naming the
argument. Options are matched by their full names only, never by a prefix.
What is skipped is listed where a command skips it: `augment` names each RM
utterance without an HM counterpart under `missing_counterparts` in its stats,
and `prepare remap` writes each rewrite and drop to its `--report-file`;
`prefilter-aspiration` skips such utterances and counts them on stderr. With
`--fail-missing`, `augment` fails on the first one instead, naming the HM file:
`Error: hm.jsonl: no HM counterpart for utterance 'u1'`.

`run` is the process entry, which `python -m phonaug.cli` and the `phonaug`
script call: it runs `main` without the cyclic garbage collector, since
reference counting frees every record a command makes, and freezes the heap
before the interpreter shuts down, so that its last collection does not walk
it either. A SIGTERM unwinds the command, so `io.replacing` removes its
temporary files, and then ends the process by SIGTERM as before. `main` called
in-process leaves the caller's collector and signal handlers as they were.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import os
import signal
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


def _frame_ms(text: str) -> float:
    """A --frame-ms argument: a positive, finite number of milliseconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"frame_ms must be positive and finite, got {value!r}")
    return value


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
    A PhonaugError or an OSError propagates to the caller unchanged, unless in
    standalone mode, where it exits 1: a BrokenPipeError (stdout closed early)
    quietly, any other with one `Error: ...` line on stderr, which gives an
    OSError's reason and the file it names, if any."""
    args = sys.argv[1:] if args is None else list(args)
    parser = _Parser(prog=prog_name, description="Selective phonation augmentation pipeline.")
    _add_commands(parser, _COMMANDS, args)
    namespace, extra = parser.parse_known_args(args)
    params = vars(namespace)
    run, command = params.pop("run"), params.pop("parser")
    # before Python 3.13, `--seed=--` or a positional `--` gives [], and no type runs
    for action in command._actions:
        if params.get(action.dest) == [] and action.default != []:
            name = action.option_strings[0] if action.option_strings else action.dest
            command.error(f"argument {name}: expected one argument")
    if extra:  # in click's words, which scripts may match
        option = next((a for a in extra if a.startswith("-")), None)
        command.error(f"No such option: {option}" if option else
                      f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                      f"({' '.join(extra)})")
    try:
        run(**params)
    except (PhonaugError, OSError) as e:  # an OSError: a full disk, a size limit, a read fault
        if not standalone_mode:
            raise
        if isinstance(e, BrokenPipeError):  # stdout closed early, as by `| head`: say nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        elif isinstance(e, PhonaugError):
            _echo(f"Error: {e}", err=True)
        else:
            where = "" if e.filename is None else f"{e.filename}: "
            _echo(f"Error: {where}{e.strerror or e}", err=True)
        sys.exit(1)


main.main = main  # only for perfbench/run.py, which calls main.main(..., standalone_mode=False)


class _Terminated(BaseException):
    """A SIGTERM, raised in the main thread as SIGINT's KeyboardInterrupt is."""


def _terminate(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one must not cut the unwinding
    raise _Terminated


def run() -> None:
    """Run `main()` as the command's own process: see the module docstring."""
    gc.disable()
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:  # an inherited SIG_IGN stays
        signal.signal(signal.SIGTERM, _terminate)
    try:
        main()
    except _Terminated:  # unwound: the temporary files are gone
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
    finally:
        gc.freeze()


@_command("decode",
          _arg("framepath_file", type=_input),
          _arg("out_file"),
          _arg("--blank", default="_", help="CTC blank token (default: %(default)s)."),
          _arg("--frame-ms", type=_frame_ms, help="Override the per-line frame_ms field."),
          _arg("--model-tag", default="OTHER", choices=io.MODEL_TAGS,
               help="The tracks' model (default: %(default)s)."),
          _arg("--inventory", dest="inventory_path", type=_input))
def decode(framepath_file, out_file, blank, frame_ms, model_tag, inventory_path):
    """Collapse per-frame CTC label paths into timestamped phone tracks."""
    inv = _load(inventory.Inventory, inventory_path)
    with io.replacing(out_file) as (out,):
        n, empty = ctc.decode_file(framepath_file, out, blank, frame_ms, model_tag, inv)
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
        payload = io.dump_json(stats.to_obj())
        if stats_out is not None:
            stats_out.write(payload)
    if stats_out is None:
        _echo(payload, end="")


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


@_command("filter",
          _arg("in_file", type=_input),
          _arg("out_file"),
          _arg("--max-downvotes", type=int, default=0,
               help="Keep segments with at most this many (default: %(default)s)."),
          group=_PREPARE)
def prepare_filter(in_file, out_file, max_downvotes):
    """Drop downvoted segments."""
    records = manifest.filter_downvoted(manifest.read_records(in_file), max_downvotes)
    with io.replacing(out_file) as (out,):
        io.write_lines(out, records)
    _echo(f"kept {len(records)} records", err=True)


@_command("sample",
          _arg("in_file", type=_input),
          _arg("out_file"),
          _arg("--n", type=int, required=True),
          _arg("--seed", type=int, required=True),
          group=_PREPARE)
def prepare_sample(in_file, out_file, n, seed):
    """Seeded uniform sample without replacement."""
    records = manifest.sample_segments(manifest.read_records(in_file), n, seed)
    with io.replacing(out_file) as (out,):
        io.write_lines(out, records)


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
        train, valid = manifest.split_validation(manifest.read_records(in_file), fraction, seed)
        io.write_lines(train_file, train)
        io.write_lines(valid_file, valid)
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
        remap, exclude = manifest.remap_config(config_path)
        inv = _load(inventory.Inventory, inventory_path)
        kept, rep = manifest.remap_invalid(manifest.read_records(in_file), remap, exclude, inv)
        io.write_lines(out, kept)
        if report is not None:
            io.write_lines(report, rep)
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
    records = manifest.build_onset_testset(manifest.read_records(in_file), per_phoneme_n, seed)
    with io.replacing(out_file) as (out,):
        io.write_lines(out, records)
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
    tokens, blank = manifest.vocab_config(vocab_file)
    cleaned, id_map = manifest.clean_vocab(tokens, blank, set(remove), set(add),
                                           manifest.read_records(corpus_file))
    with io.replacing(out_file) as (out,):
        manifest.write_vocab(out, cleaned, blank, id_map)
    _echo(f"vocabulary: {len(tokens)} -> {len(cleaned)} tokens", err=True)


@_command("synth",
          _arg("spec_file", type=_input),
          _arg("--rm-out", required=True),
          _arg("--hm-out", required=True),
          _arg("--truth-out"),
          _arg("--inventory", dest="inventory_path", type=_input))
def cmd_synth(spec_file, rm_out, hm_out, truth_out, inventory_path):
    """Generate synthetic paired RM/HM tracks with known ground truth."""
    with io.replacing(rm_out, hm_out, truth_out) as outs:
        inv = _load(inventory.Inventory, inventory_path)
        spec = synth.ScenarioSpec.load(spec_file)
        synth.write(spec, inv, *outs)
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
    with io.replacing(*(out_prefix + s for s in (".txt", ".json", "_boxplot.csv"))) as outs:
        inv = _load(inventory.Inventory, inventory_path)
        cfg = _load(metrics.ClassifierConfig, continuants_path)
        evaluation = metrics.Evaluation()  # one pass: each instance is tallied as it is read
        evaluation.update(evaluation.read(instances_file, inv, cfg, group_filter))
        texts = evaluation.texts()
        for out, text in zip(outs, texts):
            out.write(text)
    _echo(texts[0])


if __name__ == "__main__":
    run()
