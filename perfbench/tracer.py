"""In-memory tracing of phonaug's library calls, installed from outside.

`instrument` rebinds phonaug's functions, in every phonaug module that holds a
reference to them, to wrappers that report to a `Tracer`; leaving the context
restores the originals. No file of the program changes.

Calls made once per command (augment_corpus, classify_all, write_jsonl, ...)
become spans with name, start, end and parent. Hot calls made per record
(tokenize_ipa, with_phonation, greedy_collapse, track_from_obj, ...) are
aggregated into call counts and summed time instead. Every timed call, span or
not, is a frame on one stack, so each call's self time (its duration minus the
time of the traced calls it made) is exact, and the self times of a layer add
up to the time spent in that module's own code.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, trace_id: str, spans: list[dict]):
        self.trace_id = trace_id
        self.spans = spans  # appended to; shared by the tracers of one workload run
        self.stack: list[list] = []  # [name, layer, start, child_time, span_index, counted]
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.layer_self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.stage = ""
        self._gc_start = 0.0

    def enter(self, name: str, layer: str, span: bool, counted: bool = True) -> None:
        start = perf_counter()
        index = None
        if span:
            parent = next((f[4] for f in reversed(self.stack) if f[4] is not None), None)
            index = len(self.spans)
            self.spans.append({"trace": self.trace_id, "id": index,
                               "parent": parent,
                               "name": name, "start": start, "end": None})
        self.stack.append([name, layer, start, 0.0, index, counted])

    def exit(self) -> None:
        end = perf_counter()
        name, layer, start, child, index, counted = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        self.calls[name] += counted
        self.self_s[name] += duration - child
        self.layer_self_s[layer] += duration - child
        if index is not None:
            self.spans[index]["end"] = end

    @contextlib.contextmanager
    def bookkeeping(self):
        """Time spent counting outputs is hidden from the enclosing frame."""
        start = perf_counter()
        try:
            yield
        finally:
            if self.stack:
                self.stack[-1][3] += perf_counter() - start

    def in_frame(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1][0] == name

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            elapsed = perf_counter() - self._gc_start
            self.counts["python.gc.s"] += elapsed
            self.counts["python.gc.collections"] += 1
            self.counts[f"python.gc.{self.stage}.s"] += elapsed

    @contextlib.contextmanager
    def command(self, stage: str):
        """A span for one CLI command run in-process; GC time is booked to it."""
        self.stage = stage
        gc.callbacks.append(self.gc_callback)
        self.enter(f"cli.{stage}", "cli", True)
        try:
            yield
        finally:
            self.exit()
            gc.callbacks.remove(self.gc_callback)


# -- wrappers -----------------------------------------------------------------


def _wrap(tracer: Tracer, fn, name: str, layer: str, span: bool, after=None, error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, layer, span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            tracer.exit()
            if error is not None:
                with tracer.bookkeeping():
                    error(args, e)
            raise
        tracer.exit()
        if after is not None:
            with tracer.bookkeeping():
                after(args, result)
        return result
    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str, layer: str, on_start, on_item):
    """Time only the work inside the generator, one frame per item pulled."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.bookkeeping():
            on_start(args)
        it = fn(*args, **kwargs)
        try:
            while True:
                tracer.enter(name, layer, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                with tracer.bookkeeping():
                    on_item(item)
                yield item
        finally:
            it.close()
    return wrapper


def _wrap_writer(tracer: Tracer, fn, name: str, layer: str, after):
    """A span for a writer whose input is a lazy iterable: the time spent
    producing the records belongs to the caller that built the iterable, not
    to the writer, so each pull is booked to the caller's frame."""
    traced = _wrap(tracer, fn, name, layer, True, after)

    @functools.wraps(fn)
    def wrapper(path, objs, *args, **kwargs):
        caller = tracer.stack[-1][:2] if tracer.stack else ("", "")

        def pulled():
            it = iter(objs)
            while True:
                tracer.enter(*caller, False, counted=False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item
        return traced(path, pulled(), *args, **kwargs)
    return wrapper


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _hooks(tracer: Tracer, modules: dict) -> list[tuple]:
    """(owner, attribute, name, layer, span, after, error) for every traced call."""
    count = tracer.counts
    augment, metrics = modules["augment"], modules["metrics"]

    def tokenize(args, result):
        tracer.distinct["inventory.tokenize_ipa"].add(args[0])

    def with_phonation_error(args, e):
        if isinstance(e, modules["errors"].NoVoicingCounterpart) \
                and tracer.in_frame("augment.augment_track"):
            count["augment.augment_track.no_counterpart"] += 1
            count["augment.augment_track.transfers"] -= 1

    def collapse(args, result):
        count["ctc.greedy_collapse.frames"] += len(args[0].labels)
        count["ctc.greedy_collapse.runs"] += len(result)

    def match(args, result):
        count["augment.match_phones.rm_plosives"] += sum(
            1 for tp in args[0].phones if args[2].rm_covered(tp.phone.base))
        count["augment.match_phones.pairs"] += len(result)

    def augment_track(args, result):
        count["augment.augment_track.transfers"] += len(args[2])

    def classify(args, result):
        count["metrics.classify_all.instances"] += len(result)
        count["metrics.classify_all.null"] += sum(
            1 for c in result if c.realization is metrics.Realization.NULL)

    def generate(args, result):
        count["synth.generate.utts"] += len(result[0])
        count["synth.generate.phones"] += sum(len(t.phones) for t in result[0])

    inventory, ctc, synth = modules["inventory"], modules["ctc"], modules["synth"]
    spans = [  # once per command
        (inventory.Inventory, "default", None),
        (augment, "augment_corpus", None),
        (augment, "prefilter_by_aspiration", None),
        (augment.MappingTable, "default", None),
        (metrics.ClassifierConfig, "default", None),
        (metrics, "classify_all", classify),
        (metrics, "report", None),
        (metrics, "format_report", None),
        (metrics, "boxplot_rows", None),
        (metrics, "boxplot_csv", None),
        (metrics, "mcnemar_exact", None),
        (synth, "generate", generate),
    ]
    hot = [  # once per record
        (inventory, "tokenize_ipa", tokenize),
        (inventory, "with_phonation", None),
        (inventory, "serialize", None),
        (ctc, "greedy_collapse", collapse),
        (ctc, "decode_track", None),
        (ctc, "track_from_obj", None),
        (ctc, "track_to_obj", None),
        (augment, "match_phones", match),
        (augment, "augment_track", augment_track),
        (metrics.EvalInstance, "from_obj", None),
    ]
    errors = {"with_phonation": with_phonation_error}
    out = []
    for span, entries in ((True, spans), (False, hot)):
        for owner, attr, after in entries:
            module = owner.__module__ if isinstance(owner, type) else owner.__name__
            layer = module.split(".")[-1]
            name = f"{layer}.{owner.__name__ + '.' if isinstance(owner, type) else ''}{attr}"
            out.append((owner, attr, name, layer, span, after, errors.get(attr)))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route phonaug's calls through `tracer` for the duration of the block."""
    import phonaug.cli  # noqa: F401  (loads every module the commands use)

    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("phonaug.")}
    package_modules = [mod for name, mod in sys.modules.items()
                       if name == "phonaug" or name.startswith("phonaug.")]
    restore: list[tuple] = []

    def rebind(original, wrapper):
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    try:
        for owner, attr, name, layer, span, after, error in _hooks(tracer, modules):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapped = _wrap(tracer, original.__func__, name, layer, span, after, error)
                restore.append((owner, attr, original))
                setattr(owner, attr, classmethod(wrapped))
            else:
                original = getattr(owner, attr)
                rebind(original, _wrap(tracer, original, name, layer, span, after, error))

        io_mod = modules["io"]

        def read_start(args):
            tracer.counts["io.read_jsonl.mb"] += _file_mb(args[0])

        def read_item(item):
            tracer.counts["io.read_jsonl.lines"] += 1

        def write_after(args, result):
            tracer.counts["io.write_jsonl.lines"] += result
            tracer.counts["io.write_jsonl.mb"] += _file_mb(args[0])

        original_write = io_mod.write_jsonl
        rebind(original_write, _wrap_writer(tracer, original_write, "io.write_jsonl", "io",
                                            write_after))

        original_read = io_mod.read_jsonl
        rebind(original_read, _wrap_generator(tracer, original_read, "io.read_jsonl", "io",
                                              read_start, read_item))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
