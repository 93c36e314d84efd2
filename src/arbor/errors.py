"""Exception types shared across the package, and the budget guard that
raises :class:`BudgetExceededError`."""
from __future__ import annotations

import os
from typing import Optional, Sequence

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "ARBOR_BUDGET"


class ConstraintError(ValueError):
    """An input violates a structural constraint (signals caller misuse)."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured object budget."""

    def __init__(self, message, total=None):
        super().__init__(message)
        self.total = total


class MalformedPathError(ValueError):
    """A lattice path fails validation; ``index`` locates the offending step."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def resolve_budget(budget: Optional[int] = None) -> int:
    """Effective enumeration budget: explicit value, else $ARBOR_BUDGET, else default."""
    if budget is not None:
        if budget < 1:
            raise ConstraintError(f"budget must be >= 1, got {budget}")
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConstraintError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ConstraintError(f"{BUDGET_ENV_VAR} must be >= 1, got {value}")
        return value
    return DEFAULT_BUDGET


def check_budget(action: str, bounds: Sequence[tuple[int, str]],
                 budget: Optional[int] = None) -> None:
    """Refuse up front when ``action`` would go past the budget.  ``bounds``
    holds (amount, phrase) pairs in check order; the first amount over the
    budget raises ``<action> would <phrase % amount>, budget is <limit>``,
    with that amount as the error's ``total``.

    A census bounds the objects it enumerates, then the nodes it places:
    every walk places all the nodes of an object, so the node count bounds
    its memory even at t=1, where each size has a single tree.
    """
    limit = resolve_budget(budget)
    for amount, phrase in bounds:
        if amount > limit:
            raise BudgetExceededError(
                f"{action} would {phrase % amount}, budget is {limit}", total=amount)
