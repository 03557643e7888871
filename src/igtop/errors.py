"""Exception taxonomy and the number rule of input checks, shared across
the package."""

import math


class IgtopError(Exception):
    """Base class for package errors."""


class ConfigError(IgtopError):
    """Invalid user input: problem parameters, config files, CLI arguments.

    Accepts one message or a list of them, so callers can validate
    everything first and report all problems at once. ``problems`` keeps
    the individual messages.
    """

    def __init__(self, problems="invalid configuration"):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = [str(p) for p in problems]
        super().__init__("; ".join(self.problems))


class NumericalError(IgtopError):
    """Numerical failure at runtime (singular systems, non-converged steps).
    From the optimization loop it carries its ``iteration`` and ``design``."""

    iteration = None
    design = None


class SolverError(NumericalError):
    """Linear solve failed or produced an unusable solution."""


class MmaStepError(NumericalError):
    """MMA subproblem did not reach the required KKT residual."""


def finite_number(kind, x) -> bool:
    """Whether ``x`` is a finite number of ``kind`` (``numbers.Integral`` or
    ``numbers.Real``); a bool is no number here."""
    return isinstance(x, kind) and not isinstance(x, bool) \
        and -math.inf < x < math.inf
