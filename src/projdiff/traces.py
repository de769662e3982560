"""The trace, its v2 file format and the format's one writer and reader, without numpy.

A v2 trace file is the line TRACE_FORMAT_LINE, a ``# `` line holding the
run's metadata as a JSON object, a header naming TRACE_COLUMNS, then
NEAREST_COLUMNS if the run had a union, and one comma-separated row per
iterate.  ``RecoveryTrace.write_csv`` writes it and ``parse_trace`` reads
it, for ``simulate`` and ``analyze`` alike.  ``analyze`` imports this
module on its start-up path, so it loads only ``json``, ``math`` and
``os``: no numpy, and no ``dataclasses``, whose import of ``inspect`` costs
more than the module itself.  ``write_atomically`` is the one temp-file
writer, for traces and for analyze's reports.
"""

import json
import math
import os

TRACE_FORMAT_LINE = "# projdiff-trace v2"

# A trace's columns in file order: TRACE_COLUMNS, then NEAREST_COLUMNS if it has them.
TRACE_COLUMNS = ("n", "sigma", "mse", "residual", "frontier_gap", "weight_entropy")
NEAREST_COLUMNS = ("nearest", "dist_nearest", "dist_second")


def _values(column) -> list:
    """A column as a list: an array's ``tolist()``, which is faster to walk than the array."""
    return column.tolist() if hasattr(column, "tolist") else column


def write_atomically(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; a reader never sees a partly written file there.

    The text is encoded before any file is opened, so a text that UTF-8
    cannot hold raises UnicodeEncodeError and leaves ``path`` as it was.
    """
    data = text.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"  # not *.csv, so analyze never picks it up
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class RecoveryTrace:
    """Per-iteration record of a recovery run, one entry per row in each column.

    Row n, n its index, holds the iterate x_n together with the schedule
    value sigma_n consumed by the step that produces x_{n+1}; the final row
    is the last iterate.  Columns that need unavailable context (mse without
    x_true, weight entropy without a mixture prior) hold NaN.  ``nearest``
    and ``subspace_distances`` (distance pairs) are None without a union, and
    ``iterates`` (rows, d) unless recorded.  ``metadata`` is a new empty
    dict unless given.  ``run_recoveries`` fills the columns with arrays;
    ``read_csv`` gives lists, which ``np.asarray`` makes arrays.
    """

    def __init__(self, sigma, mse, residual, frontier_gap, weight_entropy, nearest=None,
                 subspace_distances=None, metadata=None, iterates=None):
        self.sigma = sigma
        self.mse = mse
        self.residual = residual
        self.frontier_gap = frontier_gap
        self.weight_entropy = weight_entropy
        self.nearest = nearest
        self.subspace_distances = subspace_distances
        self.metadata = {} if metadata is None else metadata
        self.iterates = iterates

    @property
    def n_rows(self) -> int:
        return len(self.sigma)

    @property
    def n(self) -> range:
        return range(self.n_rows)

    @property
    def final_mse(self) -> float:
        return float(self.mse[-1])

    def write_csv(self, path) -> None:
        """Write the trace; a reader never sees a partly written file at ``path``."""
        names = TRACE_COLUMNS + (NEAREST_COLUMNS if self.nearest is not None else ())
        columns = [_values(getattr(self, name)) for name in TRACE_COLUMNS[1:]]
        if self.nearest is not None:
            columns += [_values(self.nearest), *zip(*_values(self.subspace_distances))]
        row_format = ",".join("%d" if name in ("n", "nearest") else "%.17g"
                              for name in names) + "\n"
        header = [TRACE_FORMAT_LINE, "# " + json.dumps(self.metadata, sort_keys=True),
                  ",".join(names)]
        write_atomically(path, "\n".join(header) + "\n" + "".join(
            row_format % row for row in zip(self.n, *columns, strict=True)))

    @classmethod
    def read_csv(cls, path) -> "RecoveryTrace":
        """The trace at ``path``, as ``parse_trace`` reads it: its columns are lists."""
        return parse_trace(path)


def parse_trace(path) -> RecoveryTrace:
    """The trace in the v2 file at ``path``: lists of floats, ints in ``nearest``.

    Raises ValueError, naming the path and the fault, for a file that is not
    a v2 trace, for a metadata line that is no JSON object (one nested too
    deeply to decode included) or that holds a lone surrogate, for malformed
    data rows (a field that is no number, a row of the wrong width, no
    rows), for a column n that does not count 0, 1, 2, ..., and for a column
    nearest that holds no component index.  Each field is stripped of
    whitespace as ``str.strip`` strips it and read as float() reads it, but
    only ASCII without ``_``: the rules of numpy's text reader, which read
    traces before.  Empty lines are skipped.
    """
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if lines and lines[0] == "# projdiff-trace v1":
        raise ValueError(f"{path}: a v1 trace, no longer read; rerun simulate to write v2")
    if not lines or lines[0] != TRACE_FORMAT_LINE:
        raise ValueError(f"{path}: not a trace file (missing format line)")
    if len(lines) < 3 or not lines[1].startswith("# "):
        raise ValueError(f"{path}: missing metadata line")
    try:
        metadata = json.loads(lines[1][2:])
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: metadata line is not JSON: {exc}") from None
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: metadata line is not a JSON object")
    # An escape such as \ud800 decodes to a lone surrogate, which no UTF-8
    # file, analyze's reports included, can hold.
    if "\\u" in lines[1]:
        try:
            json.dumps(metadata, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}: metadata line holds a lone surrogate escape "
                             f"(\\ud800 to \\udfff), which UTF-8 cannot encode") from None
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
    for row, value in enumerate(values[0]):
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
    return RecoveryTrace(*values[1:len(TRACE_COLUMNS)], nearest=nearest,
                         subspace_distances=pairs, metadata=metadata)
