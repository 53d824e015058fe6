"""The package's source stays within a pinned line count.

Deleting code beats adding it: a change that makes ``src/crsbench/*.py``
longer than ``MAX_LINES`` fails here, and one that needs the lines raises the
pin and says why in CHANGES.md. A change that shortens the source lowers it.
"""

from pathlib import Path

import crsbench

SRC = Path(crsbench.__file__).resolve().parent
MAX_LINES = 3880


def test_the_source_holds_at_most_the_pinned_line_count():
    lines = {path.name: len(path.read_bytes().splitlines()) for path in sorted(SRC.glob("*.py"))}
    assert sum(lines.values()) <= MAX_LINES, (
        f"src/crsbench holds {sum(lines.values())} lines, more than the pinned {MAX_LINES}: {lines}")
