"""Exceptions raised by the Petri-net performance IR engine."""


class PetriError(Exception):
    """Base class for all Petri-net engine errors."""


class DefinitionError(PetriError):
    """The net is structurally ill-formed (duplicate names, bad arcs, ...)."""


class KeyRuleError(DefinitionError):
    """Dispatch keys break a rule head-keyed dispatch rests on.

    :attr:`violations` lists ``(transition, message)`` pairs, one per
    finding, so tools can point at each offending transition.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        super().__init__("; ".join(message for _, message in violations))
        self.violations = violations


class SimulationError(PetriError):
    """The simulation reached an invalid state (e.g. negative delay)."""


class DeadlockError(SimulationError):
    """No transition is enabled but tokens remain and work was expected.

    Raised only when the caller asked :class:`repro.petri.simulate.Simulator`
    to treat starvation as an error (``on_deadlock="raise"``).
    """


class DeadlineError(SimulationError):
    """The run exceeded its ``max_time`` watchdog budget.

    Raised only when the caller asked :class:`repro.petri.simulate.Simulator`
    to treat the deadline as an error (``on_deadline="raise"``).  The
    partial :class:`~repro.petri.simulate.SimResult` accumulated up to
    the deadline is attached as :attr:`result`.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class AnalysisError(PetriError):
    """A static-analysis pass could not produce a trustworthy result
    (e.g. a bounded cycle search was truncated with ``on_truncate="raise"``)."""


class CapacityError(PetriError):
    """A token was forced into a place beyond its declared capacity."""


class DslError(PetriError):
    """A ``.pnet`` DSL document could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
