"""Small shared helpers."""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .errors import MalformedTablesError

# Cells per block in first_failure: each mask, and each intp temporary
# behind it, holds at most this many entries (512 KiB of intp) whenever
# one leading index fits. Not 2^18: freed 2 MiB temporaries go back to
# the kernel and are page-faulted in again for every block, which made
# check_field_tables and reconstruct_field at GF(128) 1.4-2.5x slower
# (41,703 minor faults instead of 1,120).
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict. Frozen, so that one instance can stand for
    every passed check of a report."""

    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


@dataclass
class Report:
    """Named checks, each with its first counterexample.

    to_dict() gives info's keys, "overall", and the checks under the
    key section.
    """

    checks: dict[str, CheckResult]
    section: str = "checks"
    info: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def failing(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.ok]

    def to_dict(self) -> dict:
        return {
            **self.info,
            "overall": self.overall,
            self.section: {k: v.to_dict() for k, v in self.checks.items()},
        }


def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical JSON form used by every writer here.

    The bytes are exactly json.dumps(obj, sort_keys=True, indent=2)
    followed by a newline: sorted keys, two-space indent. Loading a file
    and re-saving it must reproduce the bytes exactly, so all
    serialization goes through this one function. The value must be
    acyclic.

    json.dumps encodes in pure Python whenever indent is set, so here
    dicts and lists are walked in Python and the rest is handed to the
    C encoder: a non-empty list of plain ints (a table row) in one call
    whose item separator carries the newline and indent, every other
    leaf on its own. A 2-D integer np.ndarray (a table) is written as
    its tolist() would be, one join per row: when its values lie in
    [0, size], each cell's text is read from an array of str(0), ...,
    str(max) made for that table, a block of rows at a time; else its
    rows go through the row encoder. Any other array raises TypeError,
    as json.dumps does. Keys are sorted on their original values and a
    non-str key is written as json writes it.
    """
    chunks: list[str] = []
    _dump(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


_encode_leaf = json.JSONEncoder().encode


@functools.lru_cache(maxsize=32)
def _row_encoder(newline_indent: str) -> json.JSONEncoder:
    return json.JSONEncoder(separators=("," + newline_indent, ": "))


def _dump(obj: Any, nl: str, out: Callable[[str], Any]) -> None:
    """Write obj's indented JSON through out; nl is the newline and the
    indent of the line obj starts on."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = nl + "  "
        if set(map(type, obj)) == {int}:
            out("[" + inner + _row_encoder(inner).encode(obj)[1:-1] + nl + "]")
            return
        sep = "[" + inner
        for value in obj:
            out(sep)
            sep = "," + inner
            _dump(value, inner, out)
        out(nl + "]")
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.dtype.kind not in "iu":
            raise TypeError("Object of type ndarray is not JSON serializable")
        top = int(obj.max()) if obj.size else -1
        if not 0 <= top <= obj.size or obj.min() < 0:
            _dump(obj.tolist(), nl, out)
            return
        tokens = np.array(list(map(str, range(top + 1))), dtype=object)
        inner, deeper = nl + "  ", nl + "    "
        cells = ("," + deeper).join
        # about 4,096 cells' texts at a time: a whole 256 x 256 table's
        # at once raised the peak RSS of writing it by 1 MB
        step = max(1, 4096 // obj.shape[1])
        out("[" + inner)
        out(("," + inner).join([
            "[" + deeper + cells(row) + inner + "]" for lo in range(0, len(obj), step)
            for row in tokens[obj[lo:lo + step]].tolist()]))
        out(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if isinstance(key, (int, float)) or key is None:
                key = _encode_leaf(key)
            elif not isinstance(key, str):
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            out(sep + _encode_leaf(key) + ": ")
            sep = "," + inner
            _dump(value, inner, out)
        out(nl + "}")
    else:
        out(_encode_leaf(obj))


def tables_to_lists(obj: Any) -> Any:
    """obj with each array in it, in dicts at any depth, as its tolist()."""
    if isinstance(obj, dict):
        return {key: tables_to_lists(value) for key, value in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def fields_equal(a: Any, b: Any) -> bool:
    """a == b for dataclass instances whose fields may hold arrays: of
    one class, and every compared field equal, arrays by value."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name))
                            for f in fields(a) if f.compare))


def as_int(value: Any, location: str) -> int:
    """value as a Python int. A bool, or anything but a Python or numpy
    integer, raises MalformedTablesError at location."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise MalformedTablesError(location, f"value {value!r} is not an integer")


def row_count(table: Any) -> int:
    """len(table) for rows or an array of at least one dimension, else 0:
    read_table refuses such a table."""
    return len(table) if isinstance(table, (list, tuple)) or np.ndim(table) else 0


def read_table(table: Any, name: str, shape: tuple[int, int], vrange: int,
               copy: bool = True) -> tuple[np.ndarray | None, tuple | None]:
    """The one reader of integer tables: table, given as rows or as an
    integer array, as (array, None) or (None, fault).

    array is a plain intp array, never a subclass, of the given shape
    with values in [0, vrange): a new one, or with copy off a view of
    table where that needs no conversion. A table or row that is not a
    sequence, or a cell that is not an integer (a float, a bool, a
    string), raises MalformedTablesError at the first one in row-major
    order. Then a fault is (None, None, k) for k rows where shape asks
    for another count, else the first in row-major order of (i, None, k)
    for row i of another length k and (i, j, v) for a value v outside
    [0, vrange). A 2-D integer array is checked as an array, never
    turned into rows; any other array is read as its tolist().
    """
    nrows, ncols = shape
    if isinstance(table, np.ndarray) and table.ndim == 2 and table.dtype.kind in "iu":
        rows = np.asarray(table)  # a subclass's own indexing plays no part
        good = len(rows) if rows.shape[1] == ncols else 0
    else:
        table = table.tolist() if isinstance(table, np.ndarray) else table
        if not isinstance(table, (list, tuple)):
            raise MalformedTablesError(name, "not a sequence of rows")
        rows = []
        for i, row in enumerate(table):
            if not isinstance(row, (list, tuple)):
                raise MalformedTablesError(f"{name}[{i}]", "row is not a sequence")
            rows.append(row if set(map(type, row)) <= {int} else
                        [as_int(v, f"{name}[{i}][{j}]") for j, v in enumerate(row)])
        good = next((i for i, row in enumerate(rows) if len(row) != ncols), len(rows))
    if len(rows) != nrows:
        return None, (None, None, len(rows))
    try:
        arr = np.asarray(rows[:good], dtype=np.intp)
    except OverflowError:  # a Python int past intp is out of range anyway
        i, j = next((i, j) for i, row in enumerate(rows[:good])
                    for j, v in enumerate(row) if not 0 <= v < vrange)
    else:
        # read as unsigned, a negative value is past 2^63: one compare
        # checks both bounds
        bad = arr.view(np.uintp) >= vrange
        if not bad.any():
            if good < nrows:
                return None, (good, None, len(rows[good]))
            # a view of table is copied only once it is known good
            return (arr.copy() if copy and arr.base is not None else arr).reshape(shape), None
        i, j = divmod(int(bad.argmax()), ncols)
    return None, (i, j, int(rows[i][j]))


def int_table(table: Any, name: str, shape: tuple[int, int], vrange: int,
              copy: bool = True) -> np.ndarray:
    """read_table's array; a fault raises MalformedTablesError at name,
    name[i] or name[i][j]."""
    arr, fault = read_table(table, name, shape, vrange, copy)
    if fault is None:
        return arr
    i, j, v = fault
    if i is None:
        raise MalformedTablesError(name, f"expected {shape[0]} rows, got {v}")
    if j is None:
        raise MalformedTablesError(f"{name}[{i}]", f"expected {shape[1]} columns, got {v}")
    raise MalformedTablesError(f"{name}[{i}][{j}]", f"value {v} outside [0, {vrange})")


def first_failure(
    shape: tuple[int, ...],
    checks: Sequence[tuple[str, Callable[[slice], np.ndarray]]],
) -> tuple[str, tuple[int, ...]] | None:
    """The first failing check of a nested loop, as (name, indices).

    shape is the extent of the loop nest, outermost first. Each check is
    (name, mask_of); mask_of(rows) returns a boolean mismatch mask over
    the leading indices in the slice rows and the next d - 1 loop
    indices, for a check at depth d. The answer is the failure that the
    loops would meet first: indices in scan order, a shallower check
    before the deeper loop at the same prefix, and checks at the same
    indices in listed order. Leading indices go in blocks of at most
    BLOCK_CELLS cells of the deepest loop (one index per block when a
    single one spans more), and the scan stops at the first block that
    fails.
    """
    depth = len(shape)
    step = max(1, BLOCK_CELLS // max(1, math.prod(shape[1:])))
    for lo in range(0, shape[0], step):
        rows = slice(lo, min(lo + step, shape[0]))
        best = None
        for k, (name, mask_of) in enumerate(checks):
            mask = mask_of(rows)
            if not mask.any():
                continue
            at = np.unravel_index(int(mask.argmax()), mask.shape)
            at = (int(at[0]) + lo,) + tuple(int(i) for i in at[1:])
            key = at + (-1,) * (depth - len(at)) + (k,)
            if best is None or key < best[0]:
                best = (key, name, at)
        if best is not None:
            return best[1], best[2]
    return None


def first_failure_on(
    shape: tuple[int, ...],
    checks: Sequence[tuple[str, Callable]],
    gens: Callable[[], Sequence[int] | None],
) -> tuple[str, tuple[int, ...]] | None:
    """first_failure over shape of checks given as (name, mask_of), where
    mask_of(cols) is the first_failure mask with the last index over the
    columns cols only, all of them for None.

    Past one block, if gens() gives a set G, the checks are first scanned
    with the last index over G, and a pass there is a pass: the caller
    proves that the last arguments at which every check holds are closed
    under operations that reach all of them from G. Otherwise, or if
    that scan fails, the full scan runs and gives the witness.
    """
    if math.prod(shape) > BLOCK_CELLS:
        g = gens()
        if g is not None and first_failure(
                shape[:-1] + (len(g),),
                [(name, mask_of(g)) for name, mask_of in checks]) is None:
            return None
    return first_failure(shape, [(name, mask_of(None)) for name, mask_of in checks])


def first_mismatch(lhs: np.ndarray, rhs) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with lhs[i, j] != rhs[i, j],
    rhs broadcast to the shape of the 2-D lhs; None if they agree."""
    rhs = np.broadcast_to(rhs, lhs.shape)
    failure = first_failure(lhs.shape, [("", lambda r: lhs[r] != rhs[r])])
    return None if failure is None else failure[1]
