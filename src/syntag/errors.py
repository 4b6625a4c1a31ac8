"""Exception types shared across the toolkit.

Every error raised on purpose by this package derives from SyntagError, so
callers can catch one base class at the CLI boundary and map it to an exit
code. The subclasses split along the lines that matter operationally:
bad user input (parsing, trees, label schemes, file formats), API misuse
(contract and state violations), and runtime numerical failure.
"""


class SyntagError(Exception):
    """Base class for all errors raised deliberately by syntag."""


class DimensionError(SyntagError):
    """Shapes passed to a tensor op are incompatible.

    The message always names the offending shapes.
    """


class ContractError(SyntagError):
    """A documented precondition of an API call was violated."""


class StateError(SyntagError):
    """An object was used in an order its lifecycle does not allow.

    Example: calling backward twice on the same tape.
    """


class ParseError(SyntagError):
    """A corpus or embedding file could not be parsed.

    Messages carry the 1-based line number of the offending input line.
    """


class TreeValidationError(SyntagError):
    """A sentence's head column does not encode a single rooted tree."""


class SchemeError(SyntagError):
    """A label sequence violates its declared chunking scheme."""


class FormatError(SyntagError):
    """A checkpoint, config, vocabulary map or embedding file is malformed."""


class DataIntegrityError(SyntagError):
    """Two data artifacts that must align with each other do not."""


class NumericalError(SyntagError):
    """A numerical guard tripped: a non-finite loss or gradient, or a
    failed gradient audit.

    ``epoch``, ``batch`` and ``parameter`` locate the failure when known,
    and the message names whichever are set.
    """

    def __init__(self, message, epoch=None, batch=None, parameter=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.parameter = parameter

    def __str__(self):
        where = [f"{key} {value!r}" for key, value in
                 (("epoch", self.epoch), ("batch", self.batch),
                  ("parameter", self.parameter)) if value is not None]
        text = super().__str__()
        return f"{text} at {', '.join(where)}" if where else text
