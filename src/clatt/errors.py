"""The one exception type for faults in what the user supplied.

``InputError`` means the input is at fault: a config field, a graph, node
table, clustering or checkpoint file, or data that cannot support the
requested run. ``clatt`` reports it and exits 2. The typed errors of the
other modules (``ConfigError``, ``GraphFormatError``, ``CheckpointError``,
``DegenerateClusteringError``, ``TrainingDiverged``) derive from it. A bare
``ValueError`` or ``RuntimeError`` marks a broken internal invariant and
exits 3. ``read_text`` reads a user-supplied text file so that bytes which do
not decode are an InputError too; ``check_count`` refuses a loop bound that
the config would refuse.
"""

from __future__ import annotations

import io
import numbers

__all__ = ["InputError", "read_text", "check_count"]


class InputError(ValueError):
    """The input is at fault; the message names which input and why."""


def read_text(path) -> io.StringIO:
    """The text of a user-supplied file, as a stream that splits lines the way
    ``open(path, newline="")`` does. One leading byte-order mark (U+FEFF) is
    dropped: left in, it would glue itself to the first cell or id. Bytes the
    locale encoding cannot decode raise InputError naming the file."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not a text file: {e}") from None
    return io.StringIO(text.removeprefix("\ufeff"), newline="")


def check_count(name: str, value, minimum: int) -> int:
    """``value`` when it is an integer of at least ``minimum``; otherwise an
    InputError naming ``name``, the bound the config sets for that count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
