"""Exception hierarchy shared across the toolkit, and the CLI's table of outcomes.

Each class carries the exit code and the line prefix with which the CLI
reports it: one `<prefix>: <message>` line on stdout, then that exit code.
"""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""

    exit_code = 1
    prefix = "error"


class InputError(ToolkitError, ValueError):
    """Malformed or out-of-contract input, or an unmet precondition."""

    exit_code = 2
    prefix = "input error"


class HypothesisError(ToolkitError):
    """A mathematical hypothesis required by a check is not met."""

    exit_code = 2
    prefix = "hypothesis not met"


class NumericalError(ToolkitError):
    """A numerical invariant or internal cross-check failed."""

    exit_code = 1
    prefix = "numerical failure"


class SolverError(ToolkitError):
    """An iterative solve failed to converge or left the admissible branch."""

    exit_code = 3
    prefix = "solver failure"
