"""Crash-safe output files: every file the package writes appears whole or
not at all."""

import csv
import os
import sys
from contextlib import contextmanager, nullcontext, suppress


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file next to path for writing; path is replaced by it
    only once the block has completed.

    If the block raises, the temporary file is deleted and path keeps its
    previous content.  The temporary name ends in ``.tmp``, so no reader of
    the package's output files takes a left-over one for an output.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows):
    """A header and rows as CSV; no path or "-" writes to stdout."""
    with (nullcontext(sys.stdout) if path in (None, "", "-")
          else atomic_open(path, "w", newline="")) as f:
        csv.writer(f).writerows([header, *rows])
