"""Exception hierarchy shared by all phonaug modules, and the checked records' `_make`."""

from __future__ import annotations


class PhonaugError(Exception):
    """Base class for all phonaug errors."""


def checked_make(cls, iterable):
    """`_make` for a NamedTuple whose `__new__` checks: namedtuple's skips __new__."""
    return cls(*iterable)


def in_context(error: PhonaugError, where: object) -> PhonaugError:
    """The same error, its message prefixed with where it happened; its class
    and fields stay, so handlers that catch a subclass still do."""
    error.args = (f"{where}: {error}",)
    return error


class UnknownSymbol(PhonaugError):
    """A code point is neither a base symbol, a diacritic, nor whitespace."""

    def __init__(self, char: str, offset: int):
        self.char = char
        self.offset = offset
        super().__init__(f"unknown symbol {char!r} (U+{ord(char):04X}) at offset {offset}")


class OrphanDiacritic(PhonaugError):
    """A diacritic or tie bar appeared without a preceding base symbol."""

    def __init__(self, char: str, offset: int):
        self.char = char
        self.offset = offset
        super().__init__(f"diacritic {char!r} at offset {offset} has no preceding base")


class NotSinglePhone(PhonaugError):
    """A symbol that must spell exactly one phone spells none or several."""

    def __init__(self, symbol: str):
        from .io import shown  # io imports this module

        self.symbol = symbol
        super().__init__(f"{shown(symbol)} is not a single phone")


class NoVoicingCounterpart(PhonaugError):
    """The base symbol has no registered voicing pair, so phonation cannot be rewritten."""


class UtteranceMismatch(PhonaugError):
    """Two tracks that must describe the same recording carry different utt_ids."""


class MissingCounterpart(PhonaugError):
    """An utterance in the reference corpus has no helper-model counterpart."""


class InsufficientSegments(PhonaugError):
    """A sample was requested that is larger than the manifest."""


class InsufficientInstances(PhonaugError):
    """A phoneme bucket is too small to fill the requested test-set quota."""

    def __init__(self, phoneme: str, have: int, need: int):
        self.phoneme = phoneme
        self.have = have
        self.need = need
        super().__init__(f"phoneme /{phoneme}/: have {have} usable instances, need {need}")


class RemoveInUse(PhonaugError):
    """A vocabulary token marked for removal still occurs in the corpus."""


class EmptyDenominator(PhonaugError):
    """A metric was requested over an empty instance set."""


class ZeroBaseline(PhonaugError):
    """Relative change is undefined for a zero 'before' value."""
