"""phonaug: selective phonation augmentation for phonetic transcription corpora.

Aligns timestamped phone predictions from a reference model and a helper
model, selectively overwrites phonation (voicing/aspiration/breathiness) to
produce augmented training transcriptions, and evaluates plosive realizations
with VOT-grounded metrics.

Importing the package runs none of the library modules. Each public name in
`_EXPORTS` is read from its module on first use (PEP 562), so `from phonaug
import match_phones` runs `phonaug.augment` and what it imports, and nothing
else.
"""

from importlib import import_module

_EXPORTS = {
    "augment": (
        "AugmentationStats", "MappingTable", "MatchPair", "augment_corpus", "augment_track",
        "match_phones", "prefilter_by_aspiration",
    ),
    "ctc": ("FramePath", "PhoneTrack", "TimedPhone", "decode_track", "greedy_collapse"),
    "errors": ("PhonaugError",),
    "inventory": (
        "ASPIRATED", "BREATHY_VOICED", "TENUIS", "VOICED", "Inventory", "Phonation", "Phone",
        "phonation_of", "serialize", "tokenize_ipa", "with_phonation",
    ),
    "manifest": (
        "build_onset_testset", "clean_vocab", "filter_downvoted", "remap_invalid",
        "sample_segments", "split_validation",
    ),
    "metrics": (
        "ClassifierConfig", "Classified", "EvalInstance", "MetricsReport", "Realization",
        "asp_pct", "classify_all", "classify_prediction", "mcnemar_exact", "null_pct",
        "relative_change", "report", "ten_pct", "voicing_acc",
    ),
    "synth": ("ScenarioSpec", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)  # what `from phonaug import *` reads
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)

