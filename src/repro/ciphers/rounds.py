"""The one check every cipher applies to a reduced round count."""

from __future__ import annotations

__all__ = ["check_rounds"]


def check_rounds(rounds: object, full: int) -> int:
    """``rounds`` if it is an integer in ``[1, full]``, else ``ValueError``.

    ``bool`` is refused although it subclasses ``int``: ``rounds=True``
    would otherwise build a one-round cipher.
    """
    if not isinstance(rounds, int) or isinstance(rounds, bool):
        raise ValueError(f"rounds must be an integer, got {rounds!r}")
    if not 1 <= rounds <= full:
        raise ValueError(f"rounds must be in [1, {full}]: {rounds}")
    return rounds
