"""Exception types shared across the package.

Every validation error derives from :class:`AlgebraError`; callers that
want a single catch-all (the CLI maps them to exit code 2) can use the
base class.  :class:`InternalInconsistencyError` is deliberately outside
that hierarchy: it signals a bug or corrupted data, not bad input.
"""

from __future__ import annotations


class AlgebraError(ValueError):
    """Base class for invalid input to a constructor or operation."""


class NotClosedError(AlgebraError):
    """Cayley table entry out of range."""

    def __init__(self, row: int, col: int, value: int, order: int):
        self.witness = (row, col, value)
        super().__init__(
            f"table[{row}][{col}] = {value} is outside [0, {order})"
        )


class NotAssociativeError(AlgebraError):
    def __init__(self, triple: tuple[int, int, int]):
        self.witness = triple
        a, b, c = triple
        super().__init__(f"({a}*{b})*{c} != {a}*({b}*{c})")


class NoIdentityError(AlgebraError):
    pass


class NoInverseError(AlgebraError):
    def __init__(self, element: int):
        self.witness = element
        super().__init__(f"element {element} has no two-sided inverse")


class UnknownSpecError(AlgebraError):
    pass


class SizeLimitExceededError(AlgebraError):
    pass


class IndexOutOfRangeError(AlgebraError):
    pass


class NotSubgroupError(AlgebraError):
    pass


class NotNormalError(AlgebraError):
    def __init__(self, witness: tuple[int, int] | None = None, msg: str | None = None):
        self.witness = witness
        if msg is None:
            msg = "subgroup is not normal"
            if witness is not None:
                g, h = witness
                msg += f" (conjugate of {h} by {g} escapes the subgroup)"
        super().__init__(msg)


class NotATransversalError(AlgebraError):
    pass


class MalformedTablesError(AlgebraError):
    def __init__(self, location: str, msg: str):
        self.location = location
        super().__init__(f"{location}: {msg}")


class NoSolutionError(AlgebraError):
    pass


class MultipleSolutionsError(AlgebraError):
    pass


class NoAmbientError(AlgebraError):
    pass


class ShapeMismatchError(AlgebraError):
    pass


class NotComposableError(AlgebraError):
    pass


class NotPrimeError(AlgebraError):
    pass


class NotMonicError(AlgebraError):
    pass


class NotIrreducibleError(AlgebraError):
    def __init__(self, factor: list[int]):
        self.factor = factor
        super().__init__(f"reducible: divisible by {factor} (coefficients, ascending)")


class InternalInconsistencyError(RuntimeError):
    """A structural guarantee was violated; indicates a bug, not bad input."""
