"""The trace file format and its one parser, without numpy.

A v2 trace file is the line TRACE_FORMAT_LINE, a ``# `` line holding the
run's metadata as a JSON object, a header naming TRACE_COLUMNS, then
NEAREST_COLUMNS if the run had a union, and one comma-separated row per
iterate.  ``recovery_engine.RecoveryTrace`` writes it and reads it through
``parse_trace``; ``analyze`` reads it here alone, so it loads no numpy.
"""

import json
import math
from dataclasses import dataclass, field

TRACE_FORMAT_LINE = "# projdiff-trace v2"

# A trace's columns in file order: TRACE_COLUMNS, then NEAREST_COLUMNS if it has them.
TRACE_COLUMNS = ("n", "sigma", "mse", "residual", "frontier_gap", "weight_entropy")
NEAREST_COLUMNS = ("nearest", "dist_nearest", "dist_second")


@dataclass
class TraceColumns:
    """A trace's columns, one entry per row, and its metadata.

    ``parse_trace`` fills the columns with lists: ints in ``n`` and
    ``nearest``, floats elsewhere, and (dist_nearest, dist_second) pairs in
    ``subspace_distances``.  ``recovery_engine.RecoveryTrace`` holds the
    same columns as arrays.  ``nearest`` and ``subspace_distances`` are None
    for a trace without the nearest-component columns.
    """

    n: list
    sigma: list
    mse: list
    residual: list
    frontier_gap: list
    weight_entropy: list
    nearest: list = None
    subspace_distances: list = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.n)

    @property
    def final_mse(self) -> float:
        return float(self.mse[-1])


def parse_trace(path) -> TraceColumns:
    """The columns and metadata of the v2 trace file at ``path``.

    Raises ValueError, naming the path and the fault, for a file that is not
    a v2 trace, for malformed data rows (a field that is no number, a row
    of the wrong width, no rows), for a column n that does not count 0, 1,
    2, ..., and for a column nearest that holds no component index.  Each
    field is stripped of whitespace as ``str.strip`` strips it and read as
    float() reads it, but only ASCII without ``_``: the rules of numpy's
    text reader, which read traces before.  Empty lines are skipped.
    """
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if lines and lines[0] == "# projdiff-trace v1":
        raise ValueError(f"{path}: a v1 trace, no longer read; rerun simulate to write v2")
    if not lines or lines[0] != TRACE_FORMAT_LINE:
        raise ValueError(f"{path}: not a trace file (missing format line)")
    if len(lines) < 3 or not lines[1].startswith("# "):
        raise ValueError(f"{path}: missing metadata line")
    metadata = json.loads(lines[1][2:])
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: metadata line is not a JSON object")
    header = lines[2].split(",")
    if header not in (list(TRACE_COLUMNS), list(TRACE_COLUMNS + NEAREST_COLUMNS)):
        raise ValueError(f"{path}: unexpected columns {header}")
    rows = [line for line in lines[3:] if line]
    fields = [row.split(",") for row in rows]
    columns = list(zip(*fields))
    # float() would also read non-ASCII digits and digits grouped with "_"
    # (1_0), which numpy's reader refused.  Only \x1f and non-ASCII
    # whitespace need the strip here: float() strips the rest itself, and
    # the writer puts no whitespace in a row.
    block = ",".join(rows)
    if not block.isascii() or "\x1f" in block:
        columns = [[text.strip() for text in column] for column in columns]
        block = ",".join(",".join(column) for column in columns)
    try:
        if (not rows or any(len(row) != len(header) for row in fields) or "_" in block
                or not block.isascii()):
            raise ValueError
        values = [list(map(float, column)) for column in columns]
    except ValueError:
        raise ValueError(f"{path}: malformed data rows") from None
    n = values[0]
    for row, value in enumerate(n):
        if value != row:
            raise ValueError(f"{path}: malformed data rows: column n holds {value!r}, "
                             f"not an iteration number: data row {row} must hold n = {row}")
    nearest = pairs = None
    if len(header) > len(TRACE_COLUMNS):
        nearest = values[len(TRACE_COLUMNS)]
        if not all(0 <= value < 2**31 and value == math.floor(value) for value in nearest):
            raise ValueError(f"{path}: malformed data rows: column nearest holds a non-index")
        nearest = list(map(int, nearest))
        pairs = list(zip(*values[len(TRACE_COLUMNS) + 1:]))
    return TraceColumns(list(range(len(n))), *values[1:len(TRACE_COLUMNS)], nearest=nearest,
                        subspace_distances=pairs, metadata=metadata)
