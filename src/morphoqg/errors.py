"""Exception hierarchy shared across the toolkit.

Two broad families matter for the CLI exit codes: ``DataError`` covers
malformed or out-of-contract input (exit code 2), ``RuntimeFailure``
covers computational failures such as shape mismatches or divergence
(exit code 3).

Every text file the toolkit reads or writes goes through ``read_text``
and ``write_text``, so a missing, unreadable or unwritable file is a
``FileError`` and a file that is not UTF-8 is a ``ParseError``; both are
data errors.
"""


class MorphoQGError(Exception):
    """Base class for all toolkit errors."""


class DataError(MorphoQGError):
    """Invalid or malformed input data."""


class RuntimeFailure(MorphoQGError):
    """Computation failed at run time."""


# -- morphology ---------------------------------------------------------

class UnknownRuleError(MorphoQGError):
    """No inflection rule or irregular entry applies to the input."""


class ParseError(DataError):
    """Malformed row in a data file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateKeyError(DataError):
    """Conflicting entries for the same lookup key."""


# -- codec --------------------------------------------------------------

class EmptyInputError(DataError):
    """An operation received an empty token sequence."""


class CutoffExceeded(DataError):
    """Input sequence longer than the configured cutoff length."""


class DanglingTransError(DataError):
    """A transformation action with no preceding word to modify."""


# -- files ------------------------------------------------------------

class FileError(DataError):
    """A required file could not be read or written."""


def read_text(path: str, what: str) -> str:
    r"""The whole of the UTF-8 text file ``path``; ``what`` names it in errors.

    Line endings are read as for ``open``: ``\r\n`` and ``\r`` become ``\n``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8: {exc}") from None


def write_text(path: str, text: str, what: str) -> None:
    r"""Write ``text`` to ``path`` as UTF-8; ``\n`` is written as is on every platform.

    Text that cannot be encoded (a lone surrogate from a JSON escape) is
    a ``ParseError`` and leaves the file untouched.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"cannot write {what} {path}: {exc}") from None
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise FileError(f"cannot write {what} {path}: {exc}") from None


# -- numeric core / model -----------------------------------------------

class ShapeMismatch(RuntimeFailure):
    """Operands with incompatible shapes."""

    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class IndexOutOfVocab(RuntimeFailure):
    """An embedding lookup index is outside the table."""


class DivergenceError(RuntimeFailure):
    """Training loss became non-finite."""


# -- metrics ------------------------------------------------------------

class LengthMismatch(DataError):
    """Candidate and reference lists differ in length."""
