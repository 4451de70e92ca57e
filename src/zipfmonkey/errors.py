"""Shared exception types, and how an error message quotes its input."""


def quote(text: str) -> str:
    """repr(text), or past 80 characters the repr of the first 80 and the length,
    so that an error about one line of input does not repeat all of it."""
    return repr(text) if len(text) <= 80 else f"{text[:80]!r}... ({len(text)} characters)"


class ResourceGuardError(RuntimeError):
    """An enumeration would exceed its configured node budget."""


class BoundViolationError(RuntimeError):
    """A computed envelope constant failed at some event interval."""
