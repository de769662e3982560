"""Plain-text serialisation of model sets and priors.

The formats are line oriented and diff friendly.  Floats are written with 17
significant digits, which round-trips IEEE doubles exactly.

    union d=<d> K=<K>        header, then K blocks:
    subspace r=<r>           each followed by r rows of d basis entries
                             (row j is the j-th basis vector)
    pi <K values>            optional trailing row turns a union into a prior

    box d=<d>                followed by a lower row and an upper row
"""

import numpy as np

from .convex_prior import BoxSet
from .lrgmm_prior import LrGmmPrior
from .model_sets import UnionOfSubspaces


def _format_row(values) -> str:
    return " ".join(format(float(v), ".17g") for v in values)


def _parse_row(line: str, expected: int, where: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != expected:
        raise ValueError(f"{where}: expected {expected} values, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _parse_header(line: str, keyword: str, fields) -> dict:
    parts = line.split()
    if not parts or parts[0] != keyword:
        raise ValueError(f"expected '{keyword}' header, got {line!r}")
    if len(parts) != 1 + len(fields):
        raise ValueError(f"{keyword} header needs fields {fields}, got {line!r}")
    out = {}
    for part, name in zip(parts[1:], fields):
        prefix = name + "="
        if not part.startswith(prefix):
            raise ValueError(f"{keyword} header: expected {name}=<int>, got {part!r}")
        out[name] = int(part[len(prefix):])
    return out


def union_to_text(union: UnionOfSubspaces) -> str:
    lines = [f"union d={union.ambient_dim} K={union.n_components}"]
    for k, rank in enumerate(union.ranks):
        lines.append(f"subspace r={rank}")
        lines.extend(_format_row(column) for column in union.basis(k).T)
    return "\n".join(lines) + "\n"


def prior_to_text(prior: LrGmmPrior) -> str:
    return union_to_text(prior.union) + "pi " + _format_row(prior.pi) + "\n"


def box_to_text(box: BoxSet) -> str:
    return "\n".join(
        [f"box d={box.ambient_dim}", _format_row(box.lower), _format_row(box.upper)]
    ) + "\n"


def _lines_of(text: str) -> list:
    return [line for line in text.splitlines() if line.strip()]


def union_from_text(text: str):
    """Parse a union; returns (union, pi_or_None) to accommodate prior files."""
    lines = _lines_of(text)
    if not lines:
        raise ValueError("empty model text")
    header = _parse_header(lines[0], "union", ["d", "K"])
    d, n_comp = header["d"], header["K"]
    bases = []
    pos = 1
    for k in range(n_comp):
        if pos >= len(lines):
            raise ValueError(f"union: missing subspace block {k}")
        sub_header = _parse_header(lines[pos], "subspace", ["r"])
        r = sub_header["r"]
        pos += 1
        if pos + r > len(lines):
            raise ValueError(f"subspace {k}: expected {r} basis rows")
        basis = np.empty((d, r))
        for j in range(r):
            basis[:, j] = _parse_row(lines[pos + j], d, f"subspace {k} row {j}")
        pos += r
        bases.append(basis)
    pi = None
    if pos < len(lines):
        parts = lines[pos].split(None, 1)
        if parts[0] != "pi" or len(parts) != 2:
            raise ValueError(f"unexpected trailing line {lines[pos]!r}")
        pi = _parse_row(parts[1], n_comp, "pi row")
        pos += 1
    if pos != len(lines):
        raise ValueError(f"{len(lines) - pos} unexpected trailing lines")
    return UnionOfSubspaces(bases), pi


def box_from_text(text: str) -> BoxSet:
    lines = _lines_of(text)
    if len(lines) != 3:
        raise ValueError(f"box text needs exactly 3 lines, got {len(lines)}")
    d = _parse_header(lines[0], "box", ["d"])["d"]
    lower = _parse_row(lines[1], d, "box lower row")
    upper = _parse_row(lines[2], d, "box upper row")
    return BoxSet(lower, upper)


def load_model(path):
    """Load a model file, dispatching on its header keyword.

    A file that cannot be read raises OSError, and text that is not a model
    raises ValueError.
    """
    with open(path, "r") as fh:
        text = fh.read()
    lines = _lines_of(text)
    if not lines:
        raise ValueError("empty model file")
    keyword = lines[0].split()[0]
    if keyword == "union":
        union, pi = union_from_text(text)
        return union if pi is None else LrGmmPrior(union, pi)
    if keyword == "box":
        return box_from_text(text)
    raise ValueError(f"unknown model header {lines[0]!r}")


def save_model(path, obj) -> None:
    if isinstance(obj, LrGmmPrior):
        text = prior_to_text(obj)
    elif isinstance(obj, UnionOfSubspaces):
        text = union_to_text(obj)
    elif isinstance(obj, BoxSet):
        text = box_to_text(obj)
    else:
        raise TypeError(f"cannot serialise {type(obj)!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
