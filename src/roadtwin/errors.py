"""Exception taxonomy shared by all roadtwin modules, and the input reads.

The CLI maps these onto exit codes: input/format problems exit with 2,
domain problems (valid input, undefined result) with 3, and anything
else with 4.  Every input file is read through :func:`read_bytes`,
:func:`source_bytes` or :func:`read_text`, so an unreadable or non-UTF-8
file is an input error.
"""
import os


class RoadTwinError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4


class InputError(RoadTwinError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class ParseError(InputError):
    """Unparseable input bytes (XML, CSV, JSON)."""


class FormatError(InputError):
    """Structurally valid file whose content violates the expected schema."""


class StructuralError(InputError):
    """Cross-record inconsistency, e.g. a way referencing a missing node."""


class ArgumentError(InputError):
    """API misuse: bad dimensions, unknown identifiers, out-of-range values."""


class DomainError(RoadTwinError):
    """Input is well-formed but the requested quantity is undefined on it."""

    exit_code = 3


class SnapError(DomainError):
    """No road edge within the snap threshold of a sensor position."""


class AvailabilityError(DomainError):
    """Requested date is absent or incomplete in the source series."""


def read_bytes(path, what: str) -> bytes:
    """The bytes of the file at ``path``; ``InputError`` if it cannot be read.

    ``what`` names the file in the message: ``cannot read {what}: ...``.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def source_bytes(source, what: str) -> bytes:
    """``source`` itself when it is bytes, else the bytes of the file at
    the path ``source`` (see :func:`read_bytes`).

    Any other type is an ``ArgumentError`` naming ``what``.
    """
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, os.PathLike)):
        return read_bytes(source, what)
    raise ArgumentError(f"unsupported {what} source type: {type(source).__name__}")


def utf8_text(data: bytes, name: str) -> str:
    """``data`` decoded as UTF-8; ``ParseError`` naming ``name`` and the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not valid UTF-8 at byte {exc.start}: {exc.reason}") from exc


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``, its newlines untranslated."""
    return utf8_text(read_bytes(path, what), str(path))
