"""Exception hierarchy shared by all modules.

Every domain error carries a short machine-readable ``code`` so CLI reports
can name the failing check without parsing messages, and the CLI's
``exit_code``: 2 for input format, 3 for budgets, 1 for the rest.
"""

from __future__ import annotations


class JsnormError(Exception):
    """Base class for all package errors."""

    code = "error"
    exit_code = 1


class InputFormatError(JsnormError):
    """A file or payload does not match its documented schema."""

    code = "input-format"
    exit_code = 2


class ResourceLimitError(JsnormError):
    """A configured budget (atoms, members, pairs, nodes) was exceeded."""

    code = "resource-limit"
    exit_code = 3

    def __init__(self, message: str, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report


class UnknownMemberError(JsnormError):
    code = "unknown-member"


class GroundMismatchError(JsnormError):
    code = "ground-mismatch"


class InvalidEnvelopeError(JsnormError):
    code = "invalid-envelope"


class DecompositionError(JsnormError):
    """Condition (b) failed for a pair needed by a larger computation."""

    code = "condition-b-failure"

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


class InvalidComboError(JsnormError):
    code = "invalid-combo"


class InvalidEpsilonError(JsnormError):
    code = "invalid-epsilon"


class MissingStratumError(JsnormError):
    code = "missing-stratum"


class InvalidPartitionError(JsnormError):
    code = "invalid-partition"


class UncoveredGammaError(JsnormError):
    code = "uncovered-gamma"


class EmptySupportError(JsnormError):
    code = "empty-support"


class IndexOutOfRangeError(JsnormError):
    code = "index-out-of-range"
