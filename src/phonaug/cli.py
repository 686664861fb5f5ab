"""Composable pipeline subcommands over JSON Lines files.

Every subcommand is deterministic: identical inputs (and seeds) produce
byte-identical outputs. Hard errors exit nonzero with a diagnostic on stderr;
skip policies emit machine-readable skip reports.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path

import click

from . import augment as aug
from . import ctc, io, manifest, metrics, synth
from .errors import PhonaugError
from .inventory import Inventory


def _load_inventory(path: str | None) -> Inventory:
    return Inventory.load(path) if path else Inventory.default()


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PhonaugError as e:
            raise click.ClickException(str(e)) from e
    return wrapper


@click.group()
def main():
    """Selective phonation augmentation pipeline."""


@main.command()
@click.argument("framepath_file", type=click.Path(exists=True))
@click.argument("out_file", type=click.Path())
@click.option("--blank", default="_", show_default=True, help="CTC blank token.")
@click.option("--frame-ms", type=float, default=None,
              help="Override the per-line frame_ms field.")
@click.option("--model-tag", default="OTHER", show_default=True,
              type=click.Choice(ctc.MODEL_TAGS))
@click.option("--inventory", "inventory_path", type=click.Path(exists=True))
@handle_errors
def decode(framepath_file, out_file, blank, frame_ms, model_tag, inventory_path):
    """Collapse per-frame CTC label paths into timestamped phone tracks."""
    inv = _load_inventory(inventory_path)

    def from_obj(obj):
        if frame_ms is not None:
            obj = {**obj, "frame_ms": frame_ms}
        path = ctc.frame_path_from_obj(obj)
        return ctc.decode_track(path, obj.get("blank", blank), inv, model_tag)

    # frame paths come from outside phonaug, so they are sorted here, then
    # checked like every track file: each utt_id once
    tracks = sorted(io.parse_records(framepath_file, from_obj, ctc.FRAME_PATH_FIELDS),
                    key=lambda t: t.utt_id)
    n = ctc.write_tracks(out_file, ctc.in_utt_id_order(tracks, framepath_file))
    click.echo(f"decoded {n} utterances -> {out_file}", err=True)


@main.command(name="augment")
@click.argument("rm_file", type=click.Path(exists=True))
@click.argument("hm_file", type=click.Path(exists=True))
@click.argument("out_file", type=click.Path())
@click.option("--mapping", "mapping_path", type=click.Path(exists=True))
@click.option("--inventory", "inventory_path", type=click.Path(exists=True))
@click.option("--no-breathy", is_flag=True, help="Do not transfer breathy voice (ʱ).")
@click.option("--skip-missing/--fail-missing", default=True, show_default=True,
              help="Skip RM utterances without an HM counterpart.")
@click.option("--stats-file", type=click.Path(), default=None,
              help="Write AugmentationStats JSON here (default: stdout).")
@handle_errors
def cmd_augment(rm_file, hm_file, out_file, mapping_path, inventory_path,
                no_breathy, skip_missing, stats_file):
    """Match RM plosives to HM plosives and overwrite their phonation."""
    inv = _load_inventory(inventory_path)
    table = aug.MappingTable.load(mapping_path, inv) if mapping_path \
        else aug.MappingTable.default(inv)
    stats = aug.augment_corpus(rm_file, hm_file, table, out_file, inv,
                               breathy=not no_breathy, skip_missing=skip_missing)
    payload = json.dumps(stats.to_obj(), ensure_ascii=False, sort_keys=True, indent=2)
    if stats_file:
        Path(stats_file).write_text(payload + "\n", encoding="utf-8")
    else:
        click.echo(payload)


@main.command(name="prefilter-aspiration")
@click.argument("rm_file", type=click.Path(exists=True))
@click.argument("hm_file", type=click.Path(exists=True))
@click.option("--mapping", "mapping_path", type=click.Path(exists=True))
@click.option("--inventory", "inventory_path", type=click.Path(exists=True))
@click.option("--out", "out_file", type=click.Path(), default=None,
              help="Write selected utt_ids here (default: stdout).")
@handle_errors
def prefilter_aspiration(rm_file, hm_file, mapping_path, inventory_path, out_file):
    """List utt_ids whose matches produce at least one aspirated phone."""
    inv = _load_inventory(inventory_path)
    table = aug.MappingTable.load(mapping_path, inv) if mapping_path \
        else aug.MappingTable.default(inv)
    selected = aug.prefilter_by_aspiration(rm_file, hm_file, table, inv)
    text = "\n".join(selected) + ("\n" if selected else "")
    if out_file:
        Path(out_file).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@main.group()
def prepare():
    """Manifest operations: filter, sample, split, remap, onset-testset, clean-vocab."""


def _read_manifest(path) -> list[manifest.SegmentRecord]:
    return list(io.parse_records(path, manifest.SegmentRecord.from_obj, {"utt_id": str}))


def _write_manifest(path, records) -> None:
    io.write_jsonl(path, (r.to_obj() for r in records))


@prepare.command(name="filter")
@click.argument("in_file", type=click.Path(exists=True))
@click.argument("out_file", type=click.Path())
@click.option("--max-downvotes", type=int, default=0, show_default=True)
@handle_errors
def prepare_filter(in_file, out_file, max_downvotes):
    """Drop downvoted segments."""
    records = manifest.filter_downvoted(_read_manifest(in_file), max_downvotes)
    _write_manifest(out_file, records)
    click.echo(f"kept {len(records)} records", err=True)


@prepare.command(name="sample")
@click.argument("in_file", type=click.Path(exists=True))
@click.argument("out_file", type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, required=True)
@handle_errors
def prepare_sample(in_file, out_file, n, seed):
    """Seeded uniform sample without replacement."""
    _write_manifest(out_file, manifest.sample_segments(_read_manifest(in_file), n, seed))


@prepare.command(name="split")
@click.argument("in_file", type=click.Path(exists=True))
@click.option("--fraction", type=float, required=True, help="Validation fraction.")
@click.option("--seed", type=int, required=True)
@click.option("--train-out", type=click.Path(), required=True)
@click.option("--valid-out", type=click.Path(), required=True)
@handle_errors
def prepare_split(in_file, fraction, seed, train_out, valid_out):
    """Seeded train/validation split."""
    train, valid = manifest.split_validation(_read_manifest(in_file), fraction, seed)
    _write_manifest(train_out, train)
    _write_manifest(valid_out, valid)
    click.echo(f"train {len(train)} / valid {len(valid)}", err=True)


@prepare.command(name="remap")
@click.argument("in_file", type=click.Path(exists=True))
@click.argument("out_file", type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), required=True,
              help='JSON {"remap": {...}, "exclude": [...]}.')
@click.option("--report-file", type=click.Path(), default=None)
@click.option("--inventory", "inventory_path", type=click.Path(exists=True))
@handle_errors
def prepare_remap(in_file, out_file, config_path, report_file, inventory_path):
    """Rewrite invalid transcriptions and drop the unfixable ones."""
    with open(config_path, encoding="utf-8") as f:
        cfg = json.load(f)
    inv = _load_inventory(inventory_path)
    kept, rep = manifest.remap_invalid(_read_manifest(in_file), cfg.get("remap", {}),
                                       cfg.get("exclude", []), inv)
    _write_manifest(out_file, kept)
    if report_file:
        io.write_jsonl(report_file, rep)
    click.echo(f"kept {len(kept)} records, {len(rep)} report entries", err=True)


@prepare.command(name="onset-testset")
@click.argument("in_file", type=click.Path(exists=True))
@click.argument("out_file", type=click.Path())
@click.option("--per-phoneme-n", type=int, default=40, show_default=True)
@click.option("--seed", type=int, required=True)
@handle_errors
def prepare_onset_testset(in_file, out_file, per_phoneme_n, seed):
    """Absolute-onset test set: sentence-initial <b d g p t k>, sampled per phoneme."""
    records = manifest.build_onset_testset(_read_manifest(in_file), per_phoneme_n, seed)
    _write_manifest(out_file, records)
    click.echo(f"wrote {len(records)} test records", err=True)


@prepare.command(name="clean-vocab")
@click.argument("vocab_file", type=click.Path(exists=True))
@click.argument("corpus_file", type=click.Path(exists=True))
@click.argument("out_file", type=click.Path())
@click.option("--remove", multiple=True, help="Token to remove (repeatable).")
@click.option("--add", multiple=True, help="Token to add (repeatable).")
@handle_errors
def prepare_clean_vocab(vocab_file, corpus_file, out_file, remove, add):
    """Remove unused tokens, add new ones, reassign dense ids."""
    with open(vocab_file, encoding="utf-8") as f:
        raw = json.load(f)
    tokens = [t for t, _ in sorted(raw["tokens"].items(), key=lambda kv: kv[1])]
    vocab = manifest.VocabSpec(tokens, raw.get("blank", "_"), set(remove), set(add))
    cleaned, id_map = manifest.clean_vocab(vocab, _read_manifest(corpus_file))
    out = cleaned.to_obj()
    out["id_map"] = {str(k): v for k, v in sorted(id_map.items())}
    Path(out_file).write_text(
        json.dumps(out, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    click.echo(f"vocabulary: {len(tokens)} -> {len(cleaned.tokens)} tokens", err=True)


@main.command(name="synth")
@click.argument("spec_file", type=click.Path(exists=True))
@click.option("--rm-out", type=click.Path(), required=True)
@click.option("--hm-out", type=click.Path(), required=True)
@click.option("--truth-out", type=click.Path(), default=None)
@click.option("--inventory", "inventory_path", type=click.Path(exists=True))
@handle_errors
def cmd_synth(spec_file, rm_out, hm_out, truth_out, inventory_path):
    """Generate synthetic paired RM/HM tracks with known ground truth."""
    inv = _load_inventory(inventory_path)
    spec = synth.ScenarioSpec.load(spec_file)
    rm_tracks, hm_tracks, truth = synth.generate(spec, inv)
    ctc.write_tracks(rm_out, rm_tracks)
    ctc.write_tracks(hm_out, hm_tracks)
    if truth_out:
        io.write_jsonl(truth_out, (t.to_obj() for t in truth))
    click.echo(f"generated {len(rm_tracks)} utterances", err=True)


def _read_instances(path) -> list[metrics.EvalInstance]:
    """Eval instances, at most one per (model, utt_id): the significance test
    pairs the models' instances by utt_id."""
    instances = list(io.parse_records(path, metrics.EvalInstance.from_obj,
                                      metrics.INSTANCE_FIELDS))
    # one set of existing utt_id strings per model: a key tuple per instance
    # costs several times more, mostly in cyclic GC
    utt_ids: defaultdict[str, set[str]] = defaultdict(set)
    for inst in instances:
        seen = utt_ids[inst.model_tag]
        if inst.utt_id in seen:
            raise PhonaugError(f"{inst.utt_id}: more than one {inst.model_tag} instance")
        seen.add(inst.utt_id)
    return instances


@main.command(name="evaluate")
@click.argument("instances_file", type=click.Path(exists=True))
@click.option("--out-prefix", type=click.Path(), required=True,
              help="Writes <prefix>.txt, <prefix>.json and <prefix>_boxplot.csv.")
@click.option("--continuants", "continuants_path", type=click.Path(exists=True))
@click.option("--inventory", "inventory_path", type=click.Path(exists=True))
@click.option("--group", "group_filter", type=click.Choice(metrics.POA_GROUPS),
              default=None, help="Report on one PoA group only.")
@handle_errors
def cmd_evaluate(instances_file, out_prefix, continuants_path, inventory_path,
                 group_filter):
    """Classify predictions and emit metric tables, JSON and boxplot CSV."""
    inv = _load_inventory(inventory_path)
    cfg = metrics.ClassifierConfig.load(continuants_path) if continuants_path \
        else metrics.ClassifierConfig.default()
    instances = _read_instances(instances_file)
    if group_filter:
        instances = [i for i in instances
                     if metrics.POA_GROUP_OF[i.target_phoneme] == group_filter]
    classified = metrics.classify_all(instances, inv, cfg)
    reports = metrics.report(classified)

    payload: dict = {
        "models": {m: {g: r.to_obj() for g, r in rows.items()}
                   for m, rows in reports.items()},
    }
    models = sorted(reports)
    if len(models) == 2:
        payload["significance"] = metrics.paired_voicing_significance(classified, models)

    text = metrics.format_report(reports)
    if "significance" in payload:
        sig = payload["significance"]
        text += (f"McNemar exact (voicing, {sig['models'][0]} vs {sig['models'][1]}): "
                 f"p = {sig['p_value']:.6g} on {sig['n_pairs']} pairs\n")

    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    prefix.with_suffix(".txt").write_text(text, encoding="utf-8")
    prefix.with_suffix(".json").write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    csv = metrics.boxplot_csv(metrics.boxplot_rows(classified))
    Path(str(prefix) + "_boxplot.csv").write_text(csv, encoding="utf-8")
    click.echo(text)


if __name__ == "__main__":
    main()
