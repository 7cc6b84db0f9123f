"""Exception hierarchy shared by all modules, and the Meter of work budgets.

The CLI maps these onto exit codes: InputError -> 2 (bad input),
ComputationRefused and EngineError -> 1 (computation refused / internal
inconsistency). Everything derives from AsmtreeError.
"""


class AsmtreeError(Exception):
    pass


class InputError(AsmtreeError, ValueError):
    """Malformed parameters, JSON, or out-of-range arguments."""


class ComputationRefused(AsmtreeError, RuntimeError):
    """A guard rejected the computation (caps, connectivity, empty graph)."""


class CapExceeded(ComputationRefused):
    pass


class Meter:
    """A work budget: charge(units) adds to `work` and raises CapExceeded
    with the one-line `refusal` once `work` passes `limit`."""

    def __init__(self, limit: int, refusal: str):
        self.work, self.limit, self.refusal = 0, limit, refusal

    def charge(self, units: int) -> None:
        self.work += units
        if self.work > self.limit:
            raise CapExceeded(self.refusal)


class DisconnectedGraph(ComputationRefused):
    pass


class LeadingCoefficientZero(ComputationRefused):
    """The leading recurrence polynomial vanishes at a needed index."""

    def __init__(self, index: int):
        super().__init__(f"leading polynomial vanishes at index {index}")
        self.index = index


class NoConvergentExponent(ComputationRefused):
    """No candidate polynomial exponent yields a convergent constant."""


class EngineError(AsmtreeError, RuntimeError):
    """Internal inconsistency; signals a bug, not bad input."""
