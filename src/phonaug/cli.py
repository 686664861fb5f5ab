"""Composable pipeline subcommands over JSON Lines files.

Every subcommand is deterministic: identical inputs (and seeds) produce
byte-identical outputs. Hard errors exit nonzero with a diagnostic on stderr.
What is skipped is listed where a command skips it: `augment` names each RM
utterance without an HM counterpart under `missing_counterparts` in its stats,
and `prepare remap` writes each rewrite and drop to its `--report-file`;
`prefilter-aspiration` skips such utterances and lists none of them.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from collections import defaultdict
from contextlib import closing
from pathlib import Path

import click

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

# shared by every argument and option: each click.Path() searches the file system
# for its gettext translations
_EXISTING = click.Path(exists=True)
_PATH = click.Path()


def _load(cls, path: str | None, *args):
    """The table of class `cls` in the file at `path`, or its packaged default."""
    return cls.load(path, *args) if path else cls.default(*args)


class _Commands(click.Group):
    """A PhonaugError from any subcommand exits 1 with one `Error: ...` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PhonaugError as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Commands)
def main():
    """Selective phonation augmentation pipeline."""


@main.command()
@click.argument("framepath_file", type=_EXISTING)
@click.argument("out_file", type=_PATH)
@click.option("--blank", default="_", show_default=True, help="CTC blank token.")
@click.option("--frame-ms", type=float, default=None,
              help="Override the per-line frame_ms field.")
@click.option("--model-tag", default="OTHER", show_default=True,
              type=click.Choice(io.MODEL_TAGS))
@click.option("--inventory", "inventory_path", type=_EXISTING)
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
    n = ctc.write_tracks(out_file, ctc.in_utt_id_order(tracks, framepath_file))
    click.echo(f"decoded {n} utterances -> {out_file}", err=True)


@main.command(name="augment")
@click.argument("rm_file", type=_EXISTING)
@click.argument("hm_file", type=_EXISTING)
@click.argument("out_file", type=_PATH)
@click.option("--mapping", "mapping_path", type=_EXISTING)
@click.option("--inventory", "inventory_path", type=_EXISTING)
@click.option("--no-breathy", is_flag=True, help="Do not transfer breathy voice (ʱ).")
@click.option("--skip-missing/--fail-missing", default=True, show_default=True,
              help="Skip RM utterances without an HM counterpart.")
@click.option("--stats-file", type=_PATH, default=None,
              help="Write AugmentationStats JSON here (default: stdout).")
def cmd_augment(rm_file, hm_file, out_file, mapping_path, inventory_path,
                no_breathy, skip_missing, stats_file):
    """Match RM plosives to HM plosives and overwrite their phonation."""
    io.check_outputs(out_file, stats_file)
    inv = _load(inventory.Inventory, inventory_path)
    table = _load(aug.MappingTable, mapping_path, inv)
    stats = aug.augment_corpus(rm_file, hm_file, table, out_file, inv,
                               breathy=not no_breathy, skip_missing=skip_missing)
    payload = json.dumps(stats.to_obj(), ensure_ascii=False, sort_keys=True, indent=2)
    if stats_file:
        io.write_text(stats_file, payload + "\n")
    else:
        click.echo(payload)


@main.command(name="prefilter-aspiration")
@click.argument("rm_file", type=_EXISTING)
@click.argument("hm_file", type=_EXISTING)
@click.option("--mapping", "mapping_path", type=_EXISTING)
@click.option("--inventory", "inventory_path", type=_EXISTING)
@click.option("--out", "out_file", type=_PATH, default=None,
              help="Write selected utt_ids here (default: stdout).")
def prefilter_aspiration(rm_file, hm_file, mapping_path, inventory_path, out_file):
    """List utt_ids whose matches produce at least one aspirated phone."""
    inv = _load(inventory.Inventory, inventory_path)
    table = _load(aug.MappingTable, mapping_path, inv)
    selected = aug.prefilter_by_aspiration(rm_file, hm_file, table, inv)
    text = "\n".join(selected) + ("\n" if selected else "")
    if out_file:
        io.write_text(out_file, text)
    else:
        click.echo(text, nl=False)


@main.group()
def prepare():
    """Manifest operations: filter, sample, split, remap, onset-testset, clean-vocab."""


def _read_manifest(path) -> list[manifest.SegmentRecord]:
    """The records of a manifest in file order, each utt_id once: a split or a
    sample must not hold one utterance twice."""
    records = list(io.parse_records(path, manifest.SegmentRecord.from_obj,
                                    manifest.SEGMENT_FIELDS))
    seen: set[str] = set()
    for record in records:
        if record.utt_id in seen:
            raise PhonaugError(f"{path}: utterance {record.utt_id!r} occurs twice")
        seen.add(record.utt_id)
    return records


def _write_manifest(path, records) -> None:
    io.write_jsonl(path, (r.to_obj() for r in records))


@prepare.command(name="filter")
@click.argument("in_file", type=_EXISTING)
@click.argument("out_file", type=_PATH)
@click.option("--max-downvotes", type=int, default=0, show_default=True)
def prepare_filter(in_file, out_file, max_downvotes):
    """Drop downvoted segments."""
    records = manifest.filter_downvoted(_read_manifest(in_file), max_downvotes)
    _write_manifest(out_file, records)
    click.echo(f"kept {len(records)} records", err=True)


@prepare.command(name="sample")
@click.argument("in_file", type=_EXISTING)
@click.argument("out_file", type=_PATH)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, required=True)
def prepare_sample(in_file, out_file, n, seed):
    """Seeded uniform sample without replacement."""
    _write_manifest(out_file, manifest.sample_segments(_read_manifest(in_file), n, seed))


@prepare.command(name="split")
@click.argument("in_file", type=_EXISTING)
@click.option("--fraction", type=float, required=True, help="Validation fraction.")
@click.option("--seed", type=int, required=True)
@click.option("--train-out", type=_PATH, required=True)
@click.option("--valid-out", type=_PATH, required=True)
def prepare_split(in_file, fraction, seed, train_out, valid_out):
    """Seeded train/validation split."""
    io.check_outputs(train_out, valid_out)
    train, valid = manifest.split_validation(_read_manifest(in_file), fraction, seed)
    _write_manifest(train_out, train)
    _write_manifest(valid_out, valid)
    click.echo(f"train {len(train)} / valid {len(valid)}", err=True)


@prepare.command(name="remap")
@click.argument("in_file", type=_EXISTING)
@click.argument("out_file", type=_PATH)
@click.option("--config", "config_path", type=_EXISTING, required=True,
              help='JSON {"remap": {...}, "exclude": [...]}.')
@click.option("--report-file", type=_PATH, default=None)
@click.option("--inventory", "inventory_path", type=_EXISTING)
def prepare_remap(in_file, out_file, config_path, report_file, inventory_path):
    """Rewrite invalid transcriptions and drop the unfixable ones."""
    io.check_outputs(out_file, report_file)
    remap, exclude = io.read_json(config_path, manifest.remap_config, {
        "remap": io.Optional(io.MapOf(io.STRING)), "exclude": io.Optional(io.ListOf(io.STRING))})
    inv = _load(inventory.Inventory, inventory_path)
    kept, rep = manifest.remap_invalid(_read_manifest(in_file), remap, exclude, inv)
    _write_manifest(out_file, kept)
    if report_file:
        io.write_jsonl(report_file, rep)
    click.echo(f"kept {len(kept)} records, {len(rep)} report entries", err=True)


@prepare.command(name="onset-testset")
@click.argument("in_file", type=_EXISTING)
@click.argument("out_file", type=_PATH)
@click.option("--per-phoneme-n", type=int, default=40, show_default=True)
@click.option("--seed", type=int, required=True)
def prepare_onset_testset(in_file, out_file, per_phoneme_n, seed):
    """Absolute-onset test set: sentence-initial <b d g p t k>, sampled per phoneme."""
    records = manifest.build_onset_testset(_read_manifest(in_file), per_phoneme_n, seed)
    _write_manifest(out_file, records)
    click.echo(f"wrote {len(records)} test records", err=True)


@prepare.command(name="clean-vocab")
@click.argument("vocab_file", type=_EXISTING)
@click.argument("corpus_file", type=_EXISTING)
@click.argument("out_file", type=_PATH)
@click.option("--remove", multiple=True, help="Token to remove (repeatable).")
@click.option("--add", multiple=True, help="Token to add (repeatable).")
def prepare_clean_vocab(vocab_file, corpus_file, out_file, remove, add):
    """Remove unused tokens, add new ones, reassign dense ids."""
    def from_obj(raw):
        ids = raw["tokens"]
        if len(set(ids.values())) < len(ids):
            raise io.FieldError("field 'tokens' gives two tokens one id")
        return manifest.VocabSpec(sorted(ids, key=ids.get),  # tokens in id order
                                  raw.get("blank", "_"), set(remove), set(add)), ids

    # a vocabulary that clean-vocab wrote carries its id_map, which is not read
    vocab, ids = io.read_json(vocab_file, from_obj, {"tokens": io.MapOf(io.INTEGER),
                                                     "blank": io.Optional(io.STRING),
                                                     "id_map": io.Optional(io.MapOf(io.INTEGER))})
    cleaned, id_map = manifest.clean_vocab(vocab, _read_manifest(corpus_file))
    out = cleaned.to_obj()
    # clean_vocab numbers the tokens by position; the map is keyed by the file's ids
    out["id_map"] = {str(ids[vocab.tokens[k]]): v for k, v in sorted(id_map.items())}
    io.write_text(out_file, json.dumps(out, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    click.echo(f"vocabulary: {len(vocab.tokens)} -> {len(cleaned.tokens)} tokens", err=True)


@main.command(name="synth")
@click.argument("spec_file", type=_EXISTING)
@click.option("--rm-out", type=_PATH, required=True)
@click.option("--hm-out", type=_PATH, required=True)
@click.option("--truth-out", type=_PATH, default=None)
@click.option("--inventory", "inventory_path", type=_EXISTING)
def cmd_synth(spec_file, rm_out, hm_out, truth_out, inventory_path):
    """Generate synthetic paired RM/HM tracks with known ground truth."""
    io.check_outputs(rm_out, hm_out, truth_out)
    inv = _load(inventory.Inventory, inventory_path)
    spec = synth.ScenarioSpec.load(spec_file)
    rm_tracks, hm_tracks, truth = synth.generate(spec, inv)
    ctc.write_tracks(rm_out, rm_tracks)
    ctc.write_tracks(hm_out, hm_tracks)
    if truth_out:
        io.write_jsonl(truth_out, (t.to_obj() for t in truth))
    click.echo(f"generated {len(rm_tracks)} utterances", err=True)


def _checked_instances(instances, group: str | None):
    """The instances of PoA `group` (all when None). Every instance, kept or
    not, is first checked to be its model's only one with its utt_id: the
    significance test pairs the models' instances by utt_id."""
    # one set of utt_id strings per model: a key tuple per instance costs
    # several times more, mostly in cyclic GC
    utt_ids: defaultdict[str, set[str]] = defaultdict(set)
    for inst in instances:
        seen = utt_ids[inst.model_tag]
        if inst.utt_id in seen:
            raise PhonaugError(f"{inst.utt_id}: more than one {inst.model_tag} instance")
        seen.add(inst.utt_id)
        if group is None or io.POA_GROUP_OF[inst.target_phoneme] == group:
            yield inst


@main.command(name="evaluate")
@click.argument("instances_file", type=_EXISTING)
@click.option("--out-prefix", type=_PATH, required=True,
              help="Writes <prefix>.txt, <prefix>.json and <prefix>_boxplot.csv.")
@click.option("--continuants", "continuants_path", type=_EXISTING)
@click.option("--inventory", "inventory_path", type=_EXISTING)
@click.option("--group", "group_filter", type=click.Choice(io.POA_GROUPS),
              default=None, help="Report on one PoA group only.")
def cmd_evaluate(instances_file, out_prefix, continuants_path, inventory_path,
                 group_filter):
    """Classify predictions and emit metric tables, JSON and boxplot CSV."""
    txt, json_file, csv_file = (f"{out_prefix}{suffix}"
                                for suffix in (".txt", ".json", "_boxplot.csv"))
    io.check_outputs(txt, json_file, csv_file)
    inv = _load(inventory.Inventory, inventory_path)
    cfg = _load(metrics.ClassifierConfig, continuants_path)
    # one pass: read, check, classify and tally each instance as it arrives
    evaluation = metrics.Evaluation()
    with closing(io.parse_records(instances_file, metrics.EvalInstance.from_obj,
                                  metrics.INSTANCE_FIELDS)) as instances:
        evaluation.update(metrics.realizations(
            _checked_instances(instances, group_filter), inv, cfg))
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
    csv = metrics.boxplot_csv(evaluation.boxplot_rows())

    Path(out_prefix).parent.mkdir(parents=True, exist_ok=True)
    io.write_text(txt, text)
    io.write_text(json_file, json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
                  + "\n")
    io.write_text(csv_file, csv)
    click.echo(text)


if __name__ == "__main__":
    main()
