"""Small shared helpers."""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

# Cells per block in first_failure: each mask, and each intp temporary
# behind it, holds at most this many entries (512 KiB of intp) whenever
# one leading index fits. Not 2^18: freed 2 MiB temporaries go back to
# the kernel and are page-faulted in again for every block, which made
# check_field_tables and reconstruct_field at GF(128) 1.4-2.5x slower
# (41,703 minor faults instead of 1,120).
BLOCK_CELLS = 1 << 16


@dataclass
class CheckResult:
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

    Sorted keys, two-space indent, trailing newline.  Loading a file and
    re-saving it must reproduce the bytes exactly, so all serialization
    goes through this one function.
    """
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def as_int_matrix(rows: Any, name: str = "table") -> list[list[int]]:
    """Coerce a nested sequence or an array to list-of-list-of-int,
    rejecting junk."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if not isinstance(rows, (list, tuple)):
        raise TypeError(f"{name} must be a sequence of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise TypeError(f"{name} row {i} is not a sequence")
        out.append([int(v) for v in row])
    return out


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


def first_mismatch(lhs: np.ndarray, rhs) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with lhs[i, j] != rhs[i, j],
    rhs broadcast to the shape of the 2-D lhs; None if they agree."""
    rhs = np.broadcast_to(rhs, lhs.shape)
    failure = first_failure(lhs.shape, [("", lambda r: lhs[r] != rhs[r])])
    return None if failure is None else failure[1]
