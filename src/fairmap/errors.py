"""Exception hierarchy shared across the package, and the one refusal of
bytes that are not UTF-8."""


class FairmapError(Exception):
    """Base class for all package-specific errors."""


class EmptyDatasetError(FairmapError):
    """Dataset has no records (possibly after ingestion filters)."""


class MissingOutcomeError(FairmapError):
    """An operation requiring outcome labels met a record without one."""


class UnknownVariableError(FairmapError, KeyError):
    """A variable name is not part of the schema."""


class SupportMismatchError(FairmapError):
    """Two distributions do not live on the same support."""


class ZeroReferenceError(FairmapError, ZeroDivisionError):
    """Ratio distance asked for with a zero reference probability."""


class MissingBudgetError(FairmapError):
    """No distortion budget defined for a positive-mass input cell."""


class InvalidParamsError(FairmapError, ValueError):
    """Parameters outside their mathematical domain."""


class LengthMismatchError(FairmapError):
    """Paired datasets/records do not align."""


class NumericalBreakdownError(FairmapError):
    """A HiGHS solve ended in a status the LP rules out (numerical failure)."""


class ProvenanceMismatchError(FairmapError):
    """An artifact's provenance record does not match the configuration or
    the training data in use, or an artifact has more than one."""


class SchemaMismatchError(FairmapError):
    """Data or artifact does not conform to the configured schema."""


class ConfigError(FairmapError):
    """Pipeline configuration is malformed or inconsistent."""


def decode_utf8(data: bytes, path: str, error: type) -> str:
    """``data`` (the bytes of the file at ``path``) decoded as UTF-8; bytes
    that are not UTF-8 raise ``error`` naming the file and the offset of
    the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} ({data[exc.start]:#04x}) is not "
                    f"UTF-8 ({exc.reason})") from exc
