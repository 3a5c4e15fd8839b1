"""Exception types shared across the package."""


class CsembError(Exception):
    """Base class for errors raised by csemb."""


class InputFormatError(CsembError):
    """An input file could not be parsed."""


class DivergenceError(CsembError):
    """A matrix iteration grew a column beyond what ||S|| <= 1 allows.

    Almost always means the operand's spectral norm exceeds 1; rescale the
    matrix (divide it by ``estimate_spectral_norm``) and retry.
    """


class OracleCapError(CsembError):
    """A dense-oracle operation was requested above the desk-scale cap."""


class OracleError(CsembError):
    """The dense eigensolver failed its residual acceptance check."""
