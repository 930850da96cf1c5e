"""Exception types raised by the library.

There are two kinds of failure, under one base class DivgaError:

- ConfigError, a ValueError: bad input or configuration (a genome
  spec, a gene vector, a run or selection setting, an experiment name,
  an unpicklable fitness), raised before or instead of the work it
  would spoil;
- FitnessEvaluationError, a RuntimeError: the user fitness raised or
  returned a non-number mid-run; it carries the index of the failing
  individual and the history collected so far.
"""


class DivgaError(Exception):
    """Base class for all library errors."""


class ConfigError(DivgaError, ValueError):
    """An input or configuration value is out of its legal domain."""


class FitnessEvaluationError(DivgaError, RuntimeError):
    """The user fitness function raised or returned a non-numeric value.

    Attributes:
        index: position of the offending individual in the evaluated batch.
        partial_record: run history collected before the failure, if any.
    """

    def __init__(self, message, index=None, partial_record=None):
        super().__init__(message)
        self.index = index
        self.partial_record = partial_record
