"""Exception types shared across the package.

Errors split into two families: certificates (CertificateError: the input
lacks the property being tested, and the exception carries the witness) and
everything else (usage, input, precision limits, solver faults). NotBalanced,
NotUniform and InconsistentConstants come from the verdicts' comparisons.
ResidualTooLarge claims less: the canonical map of float input, evaluated
in floats, misses the roots of unity by more than the tolerance; no error
bound is applied to that residual yet, so it does not prove that the input
is not a GL2 image of them (ROADMAP item 25). Exact input never gets it:
exact input that passes the verdicts is exactly an image of U_3, so its
residual above the tolerance is a precision limit (ValueError).
Each CLI command catches the certificates it can meet and reports them, so
exit code 1 always comes with a report on stdout that names the certificate.
Every other error, and a certificate that escapes a command, exits 2.

Only errors that some caller tells apart get a class here: the certificates
NotBalanced, NotUniform, InconsistentConstants and ResidualTooLarge, whose
names the canon report prints; DuplicateArgument, which check catches;
SingularFrame; BudgetExceeded; ConfigFileError. A bad argument (mixed
modes, a zero vector, a size of the wrong parity, a root solver that gives
up) is a plain ValueError, which the CLI maps to exit 2 like every
BalcfgError.
"""

from __future__ import annotations


class BalcfgError(Exception):
    """Base class for every error raised by this package."""


class DuplicateArgument(BalcfgError):
    """Two members share a polar argument, so strict ordering is impossible.

    A float precision limit (ARGUMENT_TIE_TOL), not a certificate: a GL2
    image of a uniform configuration can squeeze arguments below it."""


class CertificateError(BalcfgError):
    """Base for verdict failures that carry a concrete witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotBalanced(CertificateError):
    """Some determinant multiset is not symmetric around 0."""


class NotUniform(CertificateError):
    """Some pair of members is linearly dependent."""


class InconsistentConstants(CertificateError):
    """det(v_k, v_{k+1}) or det(v_k, v_{k+n}) is not constant in k."""


class SingularFrame(BalcfgError):
    """The would-be frame vectors are linearly dependent."""


class ResidualTooLarge(CertificateError):
    """The canonical map of float input, evaluated in floats, misses the
    roots of unity by more than the residual tolerance."""


class BudgetExceeded(BalcfgError):
    """The requested enumeration is larger than the configured budget."""


class ConfigFileError(BalcfgError):
    """A configuration file is malformed; message carries field context."""
