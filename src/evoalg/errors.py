"""Exception hierarchy with stable machine-readable codes for the CLI."""


class EvoAlgError(Exception):
    code = "error"


class FieldMismatch(EvoAlgError):
    code = "field-mismatch"


class DivisionByZero(EvoAlgError, ZeroDivisionError):
    code = "division-by-zero"


class NonPrimeModulus(EvoAlgError):
    code = "non-prime-modulus"


class ShapeMismatch(EvoAlgError):
    code = "shape-mismatch"


class NonSquareMatrix(EvoAlgError):
    code = "non-square-matrix"


class AlgebraMismatch(EvoAlgError):
    code = "algebra-mismatch"


class NotANaturalBasis(EvoAlgError):
    code = "not-a-natural-basis"


class ZeroVector(EvoAlgError):
    code = "zero-vector"


class NotOrthogonal(EvoAlgError):
    code = "not-orthogonal"


class NotNaturalVector(EvoAlgError):
    code = "not-natural-vector"


class NotExtendable(EvoAlgError):
    code = "not-extendable"


class Degenerate(EvoAlgError):
    code = "degenerate"


class NotPerfect(EvoAlgError):
    code = "not-perfect"


class DimensionTooLarge(EvoAlgError):
    code = "dimension-too-large"


class AnswerTooLarge(EvoAlgError):
    """The answer would exceed a fixed cap on its size."""
    code = "answer-too-large"


class SamplingExhausted(EvoAlgError):
    code = "sampling-exhausted"


class UnreadableFile(EvoAlgError):
    """An input file cannot be opened or is not UTF-8 text."""
    code = "unreadable-file"


class UnwritableOutput(EvoAlgError):
    """Standard output refused the report (a closed pipe, a full device)."""
    code = "unwritable-output"


class InvalidArgument(EvoAlgError):
    """An argument is outside the range the operation accepts."""
    code = "invalid-argument"


class IndexOutOfRange(EvoAlgError):
    code = "index-out-of-range"


class SelfCheckFailed(EvoAlgError):
    """An internal consistency check on a computed result did not hold."""
    code = "self-check-failed"


class ParseError(EvoAlgError):
    code = "parse-error"

    def __init__(self, message, line=None):
        super().__init__(message + ("" if line is None else f" (line {line})"))
        self.line = line
