"""Exception types shared across the package, and output_file, through
which every file the package writes maps an OS failure to InputError
(create_output opens one early, before the work that fills it).

The CLI maps these onto process exit codes: InputError -> 2,
CapacityError -> 3.  InvariantError signals an internal consistency
violation (e.g. a probability vector that breaks monotonicity mid-way
through a coupling construction) and is always a bug or bad input data,
never an expected runtime condition.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, TextIO


class FlipDynError(Exception):
    """Base class for package-specific errors."""


class InputError(FlipDynError):
    """Malformed or out-of-domain input (bad file, bad parameter combination)."""


class CapacityError(FlipDynError):
    """Request exceeds a hard resource cap (state space too large, step cap hit)."""


class InvariantError(FlipDynError):
    """An internal invariant was violated; indicates a bug or inconsistent data."""


@contextlib.contextmanager
def output_file(path: str, newline: Optional[str] = None) -> Iterator[TextIO]:
    """path opened for writing; an OSError while opening, writing or
    closing it is an InputError ("cannot write ...")."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from None


def create_output(path: Optional[str]) -> None:
    """Create (or truncate) path, if given, before the work that fills it,
    so that an unwritable path fails at once rather than after the work."""
    if path:
        with output_file(path):
            pass
