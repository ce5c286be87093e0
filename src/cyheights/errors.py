"""Exception taxonomy shared across the package, and the one size check.

The CLI maps these onto its exit-code contract: a failed theorem check
exits 1, invalid input 2, budget exhaustion 3, and an internal check
failure (or any other unexpected exception) 4.
"""


class InputError(ValueError):
    """The caller supplied arguments outside an operation's domain."""


class BudgetError(RuntimeError):
    """A configured size or enumeration budget would be exceeded.

    The message names the budget, which is mostly an option to raise.
    No option raises the `kummer` point-count budget, the `survey`
    sieve's table size or the primality bound of is_prime, a proof limit.
    """


def check_budget(count: int | None, budget: int, what: str) -> None:
    """BudgetError if count exceeds the budget; what is the message, with
    {} for the count.  None is a count that is never formed: a power of two
    below it already exceeds the budget."""
    if count is None:
        raise BudgetError(what.format(f"more than {budget}"))
    if count > budget:
        raise BudgetError(what.format(count) + f" > {budget}")


class InternalCheckError(RuntimeError):
    """An exactness assertion failed; this signals a bug, not bad input."""
