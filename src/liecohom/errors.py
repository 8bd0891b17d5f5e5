"""Exception hierarchy shared by all modules.

Structural problems (malformed tables, bad input files) are kept distinct
from mathematical domain failures (non-closed twisting form, algebra not
solvable or not triangularizable over the rationals) so that the command
line can map them to different exit codes.
"""


class LieCohomError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(LieCohomError):
    """Malformed input: wrong lengths, indices out of range, bad rationals."""


class JacobiError(LieCohomError):
    """Structure constants violate the Jacobi identity.

    Carries the full validation report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class ComputationDomainError(LieCohomError):
    """The requested computation is not defined for this input."""


class NonClosedFormError(ComputationDomainError):
    """A twisting one-form was required to be closed but is not."""


class NotSolvableError(ComputationDomainError):
    """An operation requiring a solvable Lie algebra got a non-solvable one."""


class NotTriangularizableError(ComputationDomainError):
    """The adjoint action cannot be triangularized over the rationals.

    Raised when some characteristic polynomial met during the flag
    construction has no rational root (irrational or complex eigenvalues).
    """


def _require_types(*pairs) -> None:
    """StructureError unless every (value, type) pair matches: each public
    query checks its arguments here before it reads any attribute of them."""
    if not all(isinstance(value, kind) for value, kind in pairs):
        raise StructureError("expected " + " and ".join(f"a {k.__name__}" for _, k in pairs)
                             + ", got " + " and ".join(type(v).__name__ for v, _ in pairs))
