"""Exception types shared across the package."""


class PathError(ValueError):
    """A step word is not a valid Dyck path."""


class NonBinaryCharacter(PathError):
    """The path text contains a character other than 0, 1 or blank."""


class UnbalancedCounts(PathError):
    """The numbers of north (0) and east (1) steps differ."""


class PrefixViolation(PathError):
    """Some prefix contains more east steps than north steps."""


class PatternViolation(ValueError):
    """An input permutation fails a pattern-avoidance precondition."""

    pattern: tuple[int, ...] = ()

    def __init__(self, word=None):
        name = "".join(map(str, self.pattern))
        detail = f": {list(word)}" if word is not None else ""
        super().__init__(f"permutation does not avoid {name}{detail}")


class NotAvoiding231(PatternViolation):
    pattern = (2, 3, 1)


class NotAvoiding132(PatternViolation):
    pattern = (1, 3, 2)


class NotAvoiding312(PatternViolation):
    pattern = (3, 1, 2)


class NotAvoiding321(PatternViolation):
    pattern = (3, 2, 1)


class CeilingExceeded(RuntimeError):
    """A stream, an enumerating oracle or a ``verify`` bar exceeds the ceiling."""

    def __init__(self, n, max_n):
        super().__init__(f"n={n} exceeds the enumeration ceiling {max_n}")
        self.n = n
        self.max_n = max_n


class NegativeExponent(ValueError):
    """A Laurent substitution would produce a negative exponent."""


class NoAssignment(ValueError):
    """No nonnegative shift assignment matches the target monomial multiset."""
