#!/usr/bin/env python3
"""phonaug benchmark: runs the `phonaug` CLI from this checkout's src/.

    python3 perfbench/run.py --workload corpus --seed 3 --seconds 30 --trace 0

Workloads (BENCHMARK.json records why each was chosen):
  corpus          synth -> augment --stats-file -> prefilter-aspiration
  decode-long     decode of RM and HM frame paths stretched over many 10 ms frames
  evaluate-mixed  evaluate of paired BM/TM instances over a wide onset space

Each CLI command runs as a child process, one at a time (a closed loop of one
client), and the workload repeats until --seconds have passed. Timings are
medians over those repetitions, rescaled to a nominal host speed by a reference
job (see REFERENCE_S); peak RSS and CPU time come from each child's own rusage
(os.wait4), never from the machine.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs the
same commands again in this process with phonaug's library calls wrapped by
perfbench/tracer.py, and prints the per-layer metrics; it also runs them
untraced in this process, so the difference is the tracing overhead.

Correctness gate: every output of every command is hashed. The outputs of the
default seed must match perfbench/digests.json, so each run with another seed
first runs the default seed once. `decode-long` outputs must also equal the
tracks the generator stretched; later repetitions must repeat the first one
byte for byte; in-process (traced) outputs must equal the CLI's. A failed
command or a mismatch counts as a failed operation and fails the run
("correct": false, exit code 1).

The last line of standard output is the JSON result; the lines before it are a
readable summary. Inputs, results and traces go to .bench_out/ in the checkout.
Maintainers re-record the digests with --record-digests after a change that is
meant to alter output bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter
from typing import Callable

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
RUN_LIMIT_S = 165.0  # a run must end within 180 s

# Times are rescaled to a nominal host speed: the fixed job perfbench/reference.py
# runs between repetitions, and a repetition's times are multiplied by
# REFERENCE_S / (mean wall time of the reference runs before and after it).
# REFERENCE_S is that job's typical time on a 2-vCPU x86_64 host with
# Python 3.11. Raw times are kept in the results file and the summary.
REFERENCE_S = 0.7

# utterances (corpus, decode-long) or utterances of paired instances (evaluate-mixed)
SIZES = {
    "full": {"corpus": 3000, "decode-long": 4000, "evaluate-mixed": 30000},
    "tiny": {"corpus": 30, "decode-long": 30, "evaluate-mixed": 200},
}
COMMANDS = ("synth", "augment", "prefilter", "decode", "evaluate")


@dataclass(frozen=True)
class Command:
    name: str  # one of COMMANDS
    args: tuple  # arguments after `phonaug`
    outputs: tuple[str, ...]  # file names in the output directory


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int, int], dict[str, bytes]]  # inputs; returns known outputs
    commands: Callable[[Path, Path], list[Command]]  # (input dir, output dir)
    items_per_utt: int


def _prepare_corpus(d: Path, seed: int, n: int) -> dict[str, bytes]:
    (d / "spec.json").write_text(json.dumps(gen.corpus_spec(seed, n)), encoding="utf-8")
    return {}


def _corpus(i: Path, o: Path) -> list[Command]:
    rm, hm = o / "rm.jsonl", o / "hm.jsonl"
    return [
        Command("synth", ("synth", i / "spec.json", "--rm-out", rm, "--hm-out", hm,
                          "--truth-out", o / "truth.jsonl"),
                ("rm.jsonl", "hm.jsonl", "truth.jsonl")),
        Command("augment", ("augment", rm, hm, o / "tm.jsonl", "--stats-file", o / "stats.json"),
                ("tm.jsonl", "stats.json")),
        Command("prefilter", ("prefilter-aspiration", rm, hm, "--out", o / "prefilter.txt"),
                ("prefilter.txt",)),
    ]


def _decode(i: Path, o: Path) -> list[Command]:
    return [Command("decode", ("decode", i / f"{t}_paths.jsonl", o / f"{t}.jsonl",
                               "--model-tag", t.upper()), (f"{t}.jsonl",))
            for t in ("rm", "hm")]


def _prepare_instances(d: Path, seed: int, n: int) -> dict[str, bytes]:
    gen.write_instances(d, seed, n)
    return {}


def _evaluate(i: Path, o: Path) -> list[Command]:
    return [Command("evaluate", ("evaluate", i / "instances.jsonl", "--out-prefix", o / "report"),
                    ("report.txt", "report.json", "report_boxplot.csv"))]


WORKLOADS = {
    "corpus": Workload(_prepare_corpus, _corpus, 1),
    "decode-long": Workload(gen.write_frame_paths, _decode, 2),
    "evaluate-mixed": Workload(_prepare_instances, _evaluate, 2),
}


# -- operations -------------------------------------------------------------------


class Ops:
    """Attempted and failed operations: a command run plus its output check."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Child:
    returncode: int
    wall_s: float
    user_s: float
    sys_s: float
    rss_mb: float
    stderr: str

    @property
    def problem(self) -> str:
        """'' if the child exited 0, else its exit status and last stderr line."""
        if self.returncode == 0:
            return ""
        lines = self.stderr.strip().splitlines()
        return f"exit status {self.returncode}: {lines[-1] if lines else ''}"


def run_child(argv: list[str], deadline: float) -> Child:
    """Run one child to completion; rusage is the child's own (os.wait4)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(os.devnull, "wb") as null, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=null, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode("utf-8", "replace")[-400:]
    return Child(proc.returncode, wall, usage.ru_utime, usage.ru_stime,
                 usage.ru_maxrss / 1024.0, message)


def reference_s(ops: Ops) -> float:
    """Wall time of one run of perfbench/reference.py."""
    child = run_child([sys.executable, str(HERE / "reference.py")], ops.deadline)
    ops.record(not child.problem, f"reference job: {child.problem}")
    return child.wall_s


def clear(out: Path, names) -> None:
    """Remove a command's previous outputs, so that a stale file cannot pass."""
    for n in names:
        (out / n).unlink(missing_ok=True)


def digests(out: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names if (out / n).is_file()}


def mismatch(got: dict[str, str], names, refs: list[dict[str, str]]) -> str:
    """Why a command's outputs fail the gate, or '' if they pass."""
    missing = sorted(set(names) - set(got))
    if missing:
        return f"missing outputs {missing}"
    bad = sorted({n for ref in refs for n, h in got.items() if n in ref and ref[n] != h})
    return f"output differs from the reference: {bad}" if bad else ""


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    rss_mb: float
    per_command: dict  # name -> {"wall_s", "user_s", "sys_s"}, summed over its runs
    child_walls: list[float]
    digests: dict[str, str]


def cli_iteration(cmds: list[Command], out: Path, refs: list[dict],
                  ops: Ops) -> Iteration | None:
    """Run the workload's commands once; None if one failed to run."""
    out.mkdir(parents=True, exist_ok=True)
    per = defaultdict(lambda: defaultdict(float))
    rss = 0.0
    walls: list[float] = []
    all_digests: dict[str, str] = {}
    for cmd in cmds:
        clear(out, cmd.outputs)
        child = run_child([sys.executable, "-m", "phonaug.cli", *map(str, cmd.args)],
                          ops.deadline)
        got = digests(out, cmd.outputs)
        problem = child.problem or mismatch(got, cmd.outputs, refs)
        if not ops.record(not problem, f"phonaug {cmd.args[0]}: {problem}") and child.problem:
            return None
        all_digests.update(got)
        per[cmd.name]["wall_s"] += child.wall_s
        per[cmd.name]["user_s"] += child.user_s
        per[cmd.name]["sys_s"] += child.sys_s
        rss = max(rss, child.rss_mb)
        walls.append(child.wall_s)
    return Iteration(sum(walls), sum(p["user_s"] + p["sys_s"] for p in per.values()), rss,
                     {k: dict(v) for k, v in per.items()}, walls, all_digests)


def median(xs):
    return statistics.median(xs) if xs else 0.0


# -- environment ------------------------------------------------------------------


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    machine = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "numpy": version("numpy"),
               "click": version("click"), "machine": platform.machine(),
               "system": platform.system()}
    env_id = hashlib.sha256(json.dumps(machine, sort_keys=True).encode()).hexdigest()[:12]
    return {**machine, "env_id": env_id, "git_commit": commit,
            "source_sha256": source.hexdigest(), "seed": seed}


# -- input properties ---------------------------------------------------------------


def _tracks(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def input_properties(name: str, inputs: Path, out: Path, n: int) -> dict[str, float]:
    """Properties of the generated inputs that the program's behaviour depends on."""
    props = dict.fromkeys(("input.distinct_symbol_ratio", "input.frames_per_phone",
                           "input.null_share", "input.truth_match_share"), 0.0)
    if n == 0:
        return props
    if name in ("corpus", "decode-long"):
        if name == "corpus":
            tracks = _tracks(out / "rm.jsonl") + _tracks(out / "hm.jsonl")
            phones = [p for t in tracks for p in t["phones"]]
            frames = sum(p["end"] - p["start"] + 1 for p in phones)
            rm_plosives = sum(1 for t in tracks[:len(tracks) // 2] for p in t["phones"]
                              if p["symbol"] in gen.RM_PLOSIVES)
            truth = len(_tracks(out / "truth.jsonl"))
            props["input.truth_match_share"] = truth / rm_plosives if rm_plosives else 0.0
        else:
            paths = _tracks(inputs / "rm_paths.jsonl") + _tracks(inputs / "hm_paths.jsonl")
            phones = [p for t in _tracks(out / "rm.jsonl") + _tracks(out / "hm.jsonl")
                      for p in t["phones"]]
            frames = sum(len(p["labels"]) for p in paths)
        props["input.distinct_symbol_ratio"] = len({p["symbol"] for p in phones}) / len(phones)
        props["input.frames_per_phone"] = frames / len(phones)
    else:
        onsets = [o["onset"] for o in _tracks(inputs / "instances.jsonl")]
        props["input.distinct_symbol_ratio"] = len(set(onsets)) / len(onsets)
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["models"]
        props["input.null_share"] = (sum(r["all"]["n_null"] for r in rows.values())
                                     / sum(r["all"]["n_instances"] for r in rows.values()))
    return props


def match_quality(out: Path) -> tuple[float, float]:
    """Precision and recall of augment.match_phones against synth's ground truth."""
    from phonaug import Inventory, MappingTable, match_phones
    from phonaug.ctc import read_tracks

    inv = Inventory.default()
    table = MappingTable.default(inv)
    truth = {(t["utt_id"], t["rm_index"], t["hm_index"]) for t in _tracks(out / "truth.jsonl")}
    pairs = set()
    for rm, hm in zip(read_tracks(out / "rm.jsonl", inv), read_tracks(out / "hm.jsonl", inv)):
        pairs.update((rm.utt_id, p.rm_index, p.hm_index) for p in match_phones(rm, hm, table))
    hits = len(pairs & truth)
    return (hits / len(pairs) if pairs else 0.0, hits / len(truth) if truth else 0.0)


# -- the run ---------------------------------------------------------------------------


class Run:
    def __init__(self, name: str, seed: int, seconds: int, size: str):
        self.name, self.seed, self.seconds, self.size = name, seed, seconds, size
        self.workload = WORKLOADS[name]
        self.n = SIZES[size][name]
        self.ops = Ops(monotonic() + RUN_LIMIT_S)
        self.work = OUT / "work" / f"{name}-s{seed}-p{os.getpid()}"
        self.items = self.n * self.workload.items_per_utt

    def prepared(self, tag: str, seed: int, n: int) -> tuple[Path, Path, dict[str, str]]:
        inputs, out = self.work / tag / "in", self.work / tag / "out"
        inputs.mkdir(parents=True)
        known = self.workload.prepare(inputs, seed, n)
        return inputs, out, {k: hashlib.sha256(v).hexdigest() for k, v in known.items()}

    def commands(self, inputs: Path, out: Path) -> list[Command]:
        return self.workload.commands(inputs, out)

    def empty_commands(self) -> tuple[list[Command], Path]:
        """The workload's commands on empty input, after one warm-up round that
        compiles bytecode into the checkout."""
        inputs, out, _ = self.prepared("empty", self.seed, 0)
        cmds = self.commands(inputs, out)
        cli_iteration(cmds, out, [], self.ops)
        return cmds, out

    def references(self, expected: dict) -> tuple[list[dict], Path, Path]:
        """Run the default seed once against the recorded digests (unless this run
        uses it), then generate this run's inputs; returns the references its
        outputs must match."""
        if self.seed != DEFAULT_SEED:
            inputs, out, known = self.prepared("gate", DEFAULT_SEED, self.n)
            cli_iteration(self.commands(inputs, out), out, [expected, known], self.ops)
        inputs, out, known = self.prepared("run", self.seed, self.n)
        refs = [known, expected if self.seed == DEFAULT_SEED else {}]
        return [r for r in refs if r], inputs, out

    def time_up(self, start: float) -> bool:
        return (perf_counter() - start >= self.seconds or self.ops.failed
                or monotonic() > self.ops.deadline - 30)


def measure(run: Run, expected: dict) -> tuple[dict, dict, dict]:
    """--trace 0: end-to-end metrics and summary extras (name -> (value, samples)),
    and the raw samples.

    Each repetition of the workload is followed by one of its commands, in
    turn, on empty input, so the set-up samples span the run as the others do,
    and then by the reference job that rescales both."""
    empty, empty_out = run.empty_commands()
    refs, inputs, out = run.references(expected)
    rows: list[dict] = []
    before = reference_s(run.ops)
    start = perf_counter()
    while not run.time_up(start) or not rows:
        it = cli_iteration(run.commands(inputs, out), out, refs, run.ops)
        idle = it and cli_iteration([empty[len(rows) % len(empty)]], empty_out, [], run.ops)
        if not idle:
            break
        refs = refs or [it.digests]  # no known outputs for this seed: later runs repeat
        after = reference_s(run.ops)
        scale = REFERENCE_S / ((before + after) / 2)
        before = after
        rows.append({"scale": scale, "wall_s": it.wall_s, "cpu_s": it.cpu_s,
                     "rss_mb": it.rss_mb, "per_command": it.per_command,
                     "setup_s": idle.child_walls})
    if not rows:
        return {}, {}, {}
    n = len(rows)

    def rescaled(key):
        return median([r[key] * r["scale"] for r in rows])

    setup = [w * r["scale"] for r in rows for w in r["setup_s"]]
    wall = rescaled("wall_s")
    metrics = {
        "setup_s": (median(setup), len(setup)),
        "wall_s": (wall, n),
        "items_per_s": (run.items / wall, n),
        "peak_rss_mb": (max(r["rss_mb"] for r in rows), n),
    }
    extras = {f"{c}_s": (median([r["per_command"][c]["wall_s"] * r["scale"] for r in rows]), n)
              for c in rows[0]["per_command"]}
    extras["utts_per_s" if run.name != "evaluate-mixed" else "instances_per_s"] = \
        metrics["items_per_s"]
    extras["cpu_s"] = (rescaled("cpu_s"), n)
    extras["raw_wall_s"] = (median([r["wall_s"] for r in rows]), n)
    extras["reference_scale"] = (median([r["scale"] for r in rows]), n)
    extras.update({k: (v, 1) for k, v in input_properties(run.name, inputs, out, run.n).items()})
    if run.name == "corpus":
        precision, recall = match_quality(out)
        extras["match_precision"] = (precision, 1)
        extras["match_recall"] = (recall, 1)
    return metrics, extras, {"iterations": rows}


def traced(run: Run, expected: dict) -> tuple[dict, dict, dict]:
    """--trace 1: per-layer metrics (name -> (value, samples)), no extras, and the
    spans."""
    probe = import_probe(run)
    refs, inputs, out = run.references(expected)
    lib_out = run.work / "run" / "lib"
    cmds, lib_cmds = run.commands(inputs, out), run.commands(inputs, lib_out)
    samples: dict[str, list[float]] = defaultdict(list)
    spans: list[dict] = []  # every traced repetition's, all under one trace id
    start = perf_counter()
    while not run.time_up(start) or not samples:
        it = cli_iteration(cmds, out, refs, run.ops)
        if it is None:
            break
        refs = refs or [it.digests]
        for c in COMMANDS:
            for k in ("wall_s", "user_s", "sys_s"):
                samples[f"cli.{c}.{k}"].append(it.per_command.get(c, {}).get(k, 0.0))
        untraced = lib_iteration(lib_cmds, lib_out, it.digests, run.ops, None)
        mark = len(spans)
        t = tracer.Tracer(f"{run.name}-s{run.seed}", spans)
        with tracer.instrument(t):
            traced_wall = lib_iteration(lib_cmds, lib_out, it.digests, run.ops, t)
        if untraced is None or traced_wall is None:
            break
        samples["trace.untraced_wall_s"].append(untraced)
        samples["trace.traced_wall_s"].append(traced_wall)
        samples["trace.overhead_s"].append(traced_wall - untraced)
        samples["trace.spans"].append(len(spans) - mark)
        for k, v in layer_metrics(t).items():
            samples[k].append(v)
    if not samples:
        return {}, {}, {}
    metrics = {k: (median(v), len(v)) for k, v in samples.items()}
    metrics.update(probe)
    metrics.update({k: (v, 1) for k, v in input_properties(run.name, inputs, out, run.n).items()})
    precision, recall = match_quality(out) if run.name == "corpus" else (0.0, 0.0)
    metrics["augment.match_precision"] = (precision, 1)
    metrics["augment.match_recall"] = (recall, 1)
    return metrics, {}, {"spans": spans}


def import_probe(run: Run) -> dict:
    """cli.import_s and the first Inventory.default() call, in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import phonaug.cli; "
            "u = time.perf_counter(); from phonaug.inventory import Inventory; "
            "Inventory.default(); print(u - t, time.perf_counter() - u)")
    imports, loads = [], []
    for _ in range(5):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                             timeout=max(1.0, run.ops.deadline - monotonic()))
        if run.ops.record(res.returncode == 0,
                          f"import probe: exit status {res.returncode}: {res.stderr[-300:]}"):
            a, b = map(float, res.stdout.split())
            imports.append(a)
            loads.append(b)
    return {"cli.import_s": (median(imports), len(imports)),
            "inventory.Inventory.default.s": (median(loads), len(loads))}


def lib_iteration(cmds: list[Command], out: Path, cli_digests: dict, ops: Ops,
                  trace: tracer.Tracer | None) -> float | None:
    """Run the commands in this process through phonaug.cli; their outputs must
    equal the CLI children's. Returns the wall time, None on failure."""
    from phonaug.cli import main as cli_main

    out.mkdir(parents=True, exist_ok=True)
    gc.collect()
    wall = 0.0
    for cmd in cmds:
        args = [str(a) for a in cmd.args]
        clear(out, cmd.outputs)
        sink = io.StringIO()
        span = trace.command(cmd.name) if trace else contextlib.nullcontext()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
                cli_main.main(args=args, prog_name="phonaug", standalone_mode=False)
        except Exception as e:  # a failing command is a failed operation, not a crash
            ops.record(False, f"in-process phonaug {args[0]}: {e!r}")
            return None
        wall += perf_counter() - start
        problem = mismatch(digests(out, cmd.outputs), cmd.outputs, [cli_digests])
        ops.record(not problem, f"in-process phonaug {args[0]}: {problem}")
    return wall


TRACED_FUNCS = (
    "inventory.tokenize_ipa", "inventory.with_phonation", "inventory.serialize",
    "io.read_jsonl", "io.write_jsonl",
    "ctc.greedy_collapse", "ctc.decode_track", "ctc.track_from_obj", "ctc.track_to_obj",
    "augment.match_phones", "augment.augment_track",
    "metrics.EvalInstance.from_obj", "metrics.classify_all", "metrics.report",
    "metrics.boxplot_rows", "metrics.mcnemar_exact", "synth.generate",
)
COUNTS = (
    "io.read_jsonl.lines", "io.read_jsonl.mb", "io.write_jsonl.lines", "io.write_jsonl.mb",
    "ctc.greedy_collapse.frames", "ctc.greedy_collapse.runs",
    "augment.match_phones.rm_plosives", "augment.match_phones.pairs",
    "augment.augment_track.transfers", "augment.augment_track.no_counterpart",
    "metrics.classify_all.instances", "metrics.classify_all.null",
    "synth.generate.utts", "synth.generate.phones",
    "python.gc.s", "python.gc.collections", *(f"python.gc.{c}.s" for c in COMMANDS),
)
LAYERS = ("cli", "io", "inventory", "ctc", "augment", "metrics", "synth")


def layer_metrics(t: tracer.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; self times throughout."""
    m = {f"{f}.s": t.self_s.get(f, 0.0) for f in TRACED_FUNCS}
    m.update({c: float(t.counts.get(c, 0)) for c in COUNTS})
    m.update({f"{layer}.self_s": t.layer_self_s.get(layer, 0.0) for layer in LAYERS})
    for f in ("inventory.tokenize_ipa", "inventory.with_phonation", "inventory.serialize"):
        m[f"{f}.calls"] = float(t.calls.get(f, 0))
    calls = t.calls.get("inventory.tokenize_ipa", 0)
    m["inventory.tokenize_ipa.distinct_ratio"] = (
        len(t.distinct["inventory.tokenize_ipa"]) / calls if calls else 0.0)
    plosives = m["augment.match_phones.rm_plosives"]
    m["augment.match_phones.match_yield"] = (
        m["augment.match_phones.pairs"] / plosives if plosives else 0.0)
    for f in ("augment.augment_corpus", "augment.prefilter_by_aspiration"):
        m[f"{f}.self_s"] = t.self_s.get(f, 0.0)
    return m


# -- entry point ---------------------------------------------------------------------------


def record_digests(name: str, size: str) -> None:
    run = Run(name, DEFAULT_SEED, 0, size)
    try:
        inputs, out, known = run.prepared("record", DEFAULT_SEED, run.n)
        it = cli_iteration(run.commands(inputs, out), out, [known], run.ops)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if it is None or run.ops.failed:
        raise SystemExit("recording failed: " + "; ".join(run.ops.errors))
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table.setdefault(size, {})[name] = dict(sorted(it.digests.items()))
    table["default_seed"] = DEFAULT_SEED
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(it.digests)} digests for {name} ({size})")


def summary(run: Run, env: dict, trace: int, metrics: dict, extras: dict, units: dict) -> None:
    print(f"phonaug benchmark: workload={run.name} seed={run.seed} size={run.size} "
          f"trace={trace} items={run.items}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':<44}{'value':>16}  {'unit':<8}{'n':>4}")
    rows = list(metrics.items()) + list(extras.items())
    for name, (value, n) in rows:
        print(f"{name:<44}{value:>16.6g}  {units.get(name, ''):<8}{n:>4}")
    print(f"{'fail_ratio':<44}{run.ops.failed:>10}/{run.ops.attempted:<5}  {'ratio':<8}"
          f"{run.ops.attempted:>4}")


EXTRA_UNITS = {"cpu_s": "s", "raw_wall_s": "s", "reference_scale": "ratio",
               "synth_s": "s", "augment_s": "s", "prefilter_s": "s", "decode_s": "s",
               "evaluate_s": "s", "utts_per_s": "1/s", "instances_per_s": "1/s",
               "match_precision": "ratio", "match_recall": "ratio"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; 'tiny' is for the smoke test")
    ap.add_argument("--record-digests", action="store_true",
                    help="write the default seed's output digests to perfbench/digests.json")
    args = ap.parse_args(argv)

    if not (SRC / "phonaug" / "cli.py").is_file():
        print(f"error: phonaug sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.record_digests:
        record_digests(args.workload, args.size)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.size][args.workload]
    run = Run(args.workload, args.seed, args.seconds, args.size)
    env = environment(args.seed)
    try:
        metrics, extras, raw = (traced if args.trace else measure)(run, expected)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not metrics:
        print("error: no measurement completed: " + "; ".join(run.ops.errors), file=sys.stderr)
        return 1
    missing = {m["name"] for m in section} ^ set(metrics)
    if missing:
        raise SystemExit(f"metrics and BENCHMARK.json disagree: {sorted(missing)}")

    correct = run.ops.failed == 0
    result = {"correct": correct, "attempted": run.ops.attempted, "failed": run.ops.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in section}}
    stem = f"{run.name}-s{run.seed}-{'trace' if args.trace else 'e2e'}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(
        {"workload": run.name, "size": run.size, "seconds": run.seconds, "env": env,
         "result": result, "samples": {k: v[1] for k, v in metrics.items()},
         "extras": {k: v[0] for k, v in extras.items()},
         "iterations": raw.get("iterations", []),
         "errors": run.ops.errors}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / "traces").mkdir(exist_ok=True)
        (OUT / "traces" / f"{stem}.json").write_text(json.dumps(
            {"trace": f"{run.name}-s{run.seed}", "env": env, "spans": raw["spans"]}) + "\n",
            encoding="utf-8")
    summary(run, env, args.trace, metrics, extras, units)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
