"""Exception hierarchy for the verification toolkit."""


class PlecticError(Exception):
    """Base class for all toolkit errors."""


class DivisionByZero(PlecticError):
    pass


class PrecisionExhausted(PlecticError):
    """An operation cannot certify a single digit of its result."""


class NotAUnit(PlecticError):
    pass


class NotMultiplicativeReduction(PlecticError):
    pass


class ShapeMismatch(PlecticError):
    pass


class DegreeTooLow(PlecticError):
    pass


class RankDeficient(PlecticError):
    pass


class NotProportional(PlecticError):
    pass


class WorkLimitExceeded(PlecticError):
    """An operation past `grpalg.WORK_LIMIT` steps, refused before it runs."""


class ParseError(PlecticError):
    pass


class ValidationError(PlecticError):
    pass
