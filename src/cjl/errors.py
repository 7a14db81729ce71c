"""Exception types shared across the package.

Every error that a caller may want to catch programmatically carries a
machine-readable payload:

* ``ValidationError.path`` is a JSON-pointer-ish string locating the bad
  field in the input document (empty when the input was built in code).
* ``AxiomError.witness`` is a dict naming the violated identity and the
  basis indices at which it fails.
* ``ResourceLimitError.budget`` is the step budget that was exhausted.
"""

from __future__ import annotations


class CjlError(Exception):
    """Base class for all package errors."""


class ValidationError(CjlError):
    """Malformed input: bad JSON shape, bad dimensions, bad field element."""

    def __init__(self, message: str, path: str = ""):
        self.message = message
        self.path = path
        super().__init__(message)

    def __str__(self):
        # the path may be filled in after the raise (``field.located``)
        return self.message + (f" (at {self.path})" if self.path else "")


class RingMismatchError(ValidationError):
    """Operands belong to different coefficient rings."""


class AxiomError(ValidationError):
    """A structure failed one of its defining identities.

    ``witness`` names the identity and the indices at which it breaks,
    e.g. ``{"axiom": "jacobi", "at": (0, 0, 0, 1, 1, 0)}``: the Jacobi
    identity fails for basis vectors 0 and 1 of degree 0 acting on basis
    vector 0 of degree 1, as ``(i, a, j, b, k, c)``.
    """

    def __init__(self, message: str, witness: dict | None = None):
        self.witness = dict(witness) if witness else {}
        super().__init__(message)


class NotLocalError(ValidationError):
    """A quotient algebra is finite-dimensional but not local."""


class NotFiniteError(ValidationError):
    """A quotient algebra is not finite-dimensional over the ground field."""


class ResourceLimitError(CjlError):
    """A symbolic computation exceeded its step budget.

    Raised instead of looping for an unbounded time; the budget is taken
    from the ``CJL_STEP_BUDGET`` environment variable when set.
    """

    def __init__(self, message: str, budget: int):
        self.budget = budget
        super().__init__(f"{message} (step budget {budget} exhausted)")


class InternalCheckError(CjlError):
    """An internal invariant failed.

    This is never a user error: it means a bug in the package itself, and
    the message says which invariant broke.  The command line reports it
    as a JSON error object with exit code 4.
    """
