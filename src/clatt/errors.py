"""The one exception type for faults in what the user supplied.

``InputError`` means the input is at fault: a config field, a graph, node
table, clustering or checkpoint file, or data that cannot support the
requested run. ``clatt`` reports it and exits 2. The typed errors of the
other modules (``ConfigError``, ``GraphFormatError``, ``CheckpointError``,
``DegenerateClusteringError``, ``TrainingDiverged``) derive from it. A bare
``ValueError`` or ``RuntimeError`` marks a broken internal invariant and
exits 3. ``read_text`` reads the lines of a user-supplied text file so that
bytes which do not decode are an InputError too; ``check_count`` refuses a
loop bound that the config would refuse.
"""

from __future__ import annotations

import io
import numbers
from collections.abc import Iterator
from itertools import chain

__all__ = ["InputError", "read_text", "check_count"]


class InputError(ValueError):
    """The input is at fault; the message names which input and why."""


# characters read_text takes from the open file at a time: about 1.3 MB while
# a chunk is split (the text and an io.StringIO of it, 4 bytes a character).
# A file of this size or less is read in one chunk and split in C, as fast as
# reading it whole; a Python generator yielding each line cost 3.5 % of
# loading the 142 KB benchmark edge list.
READ_CHUNK_CHARS = 1 << 18


def read_text(path) -> Iterator[str]:
    """The lines of a user-supplied file, split the way ``open(path,
    newline="")`` splits them and read from the open file as they are
    iterated, READ_CHUNK_CHARS characters and the rest of their last line
    at a time. One leading byte-order mark (U+FEFF) is dropped: left in, it
    would glue itself to the first cell or id. Bytes the locale encoding
    cannot decode raise InputError naming the file when iteration reaches
    them."""
    return chain.from_iterable(_line_chunks(path))


def _line_chunks(path):
    """read_text's chunks of whole lines, each as an io.StringIO."""
    with open(path, newline="") as fh:
        try:
            text = (fh.read(READ_CHUNK_CHARS) + fh.readline()).removeprefix("\ufeff")
            while text:
                yield io.StringIO(text, newline="")
                text = fh.read(READ_CHUNK_CHARS) + fh.readline()
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not a text file: {e}") from None


def check_count(name: str, value, minimum: int) -> int:
    """``value`` when it is an integer of at least ``minimum``; otherwise an
    InputError naming ``name``, the bound the config sets for that count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
