"""Exception hierarchy shared by all modules.

Every error raised on purpose derives from PartransError so the CLI can
map it to exit status 2.
"""


class PartransError(Exception):
    pass


class ConfigError(PartransError):
    """Malformed configuration document (bad JSON, bad field, bad shape)."""

    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location


class DimensionMismatch(ConfigError):
    pass


class ModelError(PartransError):
    """Operation needs model data that is absent or inconsistent."""


class UnknownPoint(ModelError):
    def __init__(self, name):
        super().__init__(f"unknown point name {name!r}")
        self.name = name


class UnknownAutomorphism(ModelError):
    def __init__(self, name):
        super().__init__(f"unknown automorphism name {name!r}")
        self.name = name


class HeckeOutOfRange(PartransError):
    def __init__(self, point, mult, rank):
        super().__init__(
            f"Hecke multiplicity {mult} at {point!r} outside [0, {rank - 1}]"
        )
        self.point = point
        self.mult = mult


class NotGeneric(PartransError):
    """A weight system sits on a wall; carries one witness wall."""

    def __init__(self, witness):
        super().__init__(f"weight system is not generic: {witness}")
        self.witness = witness


class NotInvertible(PartransError):
    def __init__(self, det):
        super().__init__(f"id + r*M has determinant {det}, expected +1 or -1")
        self.det = det


class EnumerationCapExceeded(PartransError):
    """An enumeration of `count` elements would pass `cap`; `what` names
    the elements enumerated, such as "walls" or "hecke sectors"."""

    def __init__(self, count, cap, what):
        super().__init__(f"enumeration of {count} elements exceeds cap {cap} ({what})")
        self.count = count
        self.cap = cap
        self.what = what


def charge(count, cap, what):
    """EnumerationCapExceeded when count passes cap: the one comparison of
    an enumeration's size with its cap, made before it is built."""
    if count > cap:
        raise EnumerationCapExceeded(count, cap, what)


class ShapeMismatch(PartransError):
    pass


class ExtendedCompositionError(PartransError):
    """Pushing a nontrivial Jacobian automorphism through a
    degree-moving basic transformation has no defined normal form."""


class ResultTooLarge(PartransError):
    """Evaluating an expression passed `bound`: by default, it built an
    integer of more than `bound` digits; `message` names any other bound."""

    def __init__(self, bound, message=None):
        super().__init__(message or f"evaluation built an integer of more than {bound} digits")
        self.bound = bound


class ParseError(PartransError):
    def __init__(self, message, pos):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos
