"""The one CSV/JSON codec behind every file the package writes or reads.

CSV: a header line, then one line per row, each ending in a newline. Float
cells are ``repr`` of the float, which reads back bit-exactly; text cells (a
trailing disturbance kind or skip reason, a leading parameter name or epoch)
pass through unchanged. Blank lines are skipped on reading. A bad row raises
``ConfigError("<path>:<line>: ...")``; an empty file or undecodable JSON
raises ``ConfigError("<path>: ...")``. JSON is written with ``indent=1``,
sorted keys and a trailing newline. All files are UTF-8.
"""

from __future__ import annotations

import json
from itertools import groupby

import numpy as np

from .dynamics import ConfigError


def csv_text(header, columns) -> str:
    """CSV text of ``columns`` in header order: float arrays (n,) or (n, k),
    and text sequences of n strings."""
    cells = []
    for text, group in groupby(map(np.asarray, columns), lambda c: c.dtype.kind in "OSU"):
        if text:
            cells += [col.tolist() for col in group]
        else:
            block = np.column_stack(list(group)).astype(float).tolist()
            cells.append([",".join(map(repr, row)) for row in block])
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def write_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(header, columns))


def read_csv(path):
    """(header, (n, k - 1) float block, last field of each row); every row
    has the header's k fields, all floats but the last."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().split("\n"), 1) if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty file, expected a header line")
    header = lines[0][1].split(",")
    rows, text = [], []
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}:{no}: expected {len(header)} fields, got {len(parts)}")
        try:
            rows.append(list(map(float, parts[:-1])))
        except ValueError as err:
            raise ConfigError(f"{path}:{no}: {err}") from None
        text.append(parts[-1])
    block = np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)
    return header, block, text


def require_keys(doc, where: str, keys) -> None:
    """Raise ``ConfigError`` naming the first of ``keys`` that ``doc`` lacks."""
    missing = [key for key in keys if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise ConfigError(f"{where} is missing key {missing[0]!r}")


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ConfigError(f"{path}: cannot decode JSON: {err}") from err
