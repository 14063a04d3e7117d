"""All-or-nothing file writes.

`atomic_write` writes into a temp file beside the target and moves it over the
target with `os.replace` only once the writer finished. A writer that fails
part-way leaves an existing file at the path as it was and no temp file
behind. The temp file is not fsynced: the guarantee covers a failed write, not
a power cut.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temp file for writing; on a clean exit it replaces `path`.

    `mode` and `open_kwargs` go to `open`.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        # the temp file is missing when `open` itself failed
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
