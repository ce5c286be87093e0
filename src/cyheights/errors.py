"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: a failed theorem check
exits 1, invalid input 2, budget exhaustion 3, and an internal check
failure (or any other unexpected exception) 4.
"""


class InputError(ValueError):
    """The caller supplied arguments outside an operation's domain."""


class BudgetError(RuntimeError):
    """A configured size or enumeration budget would be exceeded.

    The message always names the budget so scripts can tell which knob
    to raise.
    """


class InternalCheckError(RuntimeError):
    """An exactness assertion failed; this signals a bug, not bad input."""
