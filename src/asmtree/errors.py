"""Exception hierarchy shared by all modules, and the Meter of the work budget.

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


# The one work budget of every route, in units of work of about 1-12 us
# (see README, Caps); read each time a Meter is built.
WORK_BUDGET = 1_000_000


class Meter:
    """The work budget of one call: charge(steps) adds to `work` and raises
    CapExceeded with the one-line `refusal` once `work` passes `limit`,
    WORK_BUDGET units of `per_unit` steps each. `need` names the work."""

    def __init__(self, need: str, per_unit: int = 1):
        self.work, self.limit = 0, WORK_BUDGET * per_unit
        self.refusal = f"{need} over {WORK_BUDGET:.2g} units of work, the cap"

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
