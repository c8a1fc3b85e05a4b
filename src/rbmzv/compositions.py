"""Compositions, the index of every object here: a composition is a
nonempty tuple of positive ints, and zeta(s) converges exactly when s is
admissible (first part >= 2).  This module imports nothing from the
package, so the numeric layer checks its inputs without loading a
symbolic module."""

Composition = tuple


class InadmissibleError(ValueError):
    """Raised when a divergent (s1 = 1) composition is used numerically."""


def check_composition(s):
    if not s or any(not isinstance(p, int) or p < 1 for p in s):
        raise ValueError(f"not a composition: {s!r}")


def is_admissible(s: Composition) -> bool:
    return s[0] >= 2


def require_admissible(s: Composition):
    check_composition(s)
    if not is_admissible(s):
        raise InadmissibleError(f"composition {s} is divergent (first part < 2)")


def weight(s: Composition) -> int:
    return sum(s)


def parse_composition(text: str) -> Composition:
    try:
        s = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed composition {text!r}") from None
    check_composition(s)
    return s


def composition_str(s: Composition) -> str:
    return ",".join(str(p) for p in s)
