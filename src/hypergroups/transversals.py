"""Right transversals and the unique H x M factorization.

A right transversal to H in G meets every right coset Ha exactly once,
so each x in G factors uniquely as x = alpha * a with alpha in H and a
a representative. decompose() is the innermost operation of the
standard construction and uses the O(1) coset lookup, not a scan.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass

import numpy as np

from ._util import as_int
from .errors import AlgebraError, InternalInconsistencyError, NotATransversalError
from .groups import CosetDecomposition, FiniteGroup, Subgroup, right_cosets

# When |H|^[G:H] explodes, sweeps draw this many transversals.
DEFAULT_SAMPLE_CAP = 10_000


@dataclass
class Transversal:
    group: FiniteGroup
    subgroup: Subgroup
    # one representative per right coset, ordered by coset index; the
    # identity's coset is coset 0
    reps: tuple[int, ...]
    decomposition: CosetDecomposition

    def __repr__(self) -> str:
        return f"Transversal({list(self.reps)} in {self.group.name})"


@dataclass
class Decomposition:
    h_part: int
    m_part: int


def _cosets(group: FiniteGroup, h: Subgroup) -> CosetDecomposition:
    if h.parent is not group:
        # allow structurally identical parents (e.g. reloaded groups)
        if not np.array_equal(h.parent.table, group.table):
            raise NotATransversalError("subgroup belongs to a different group")
    return right_cosets(group, h)


def is_right_transversal(group: FiniteGroup, h: Subgroup, candidate) -> bool:
    """True iff candidate meets every right coset of H exactly once."""
    return _meets_each_coset_once(_cosets(group, h), list(candidate))


def _meets_each_coset_once(dec: CosetDecomposition, members: list) -> bool:
    return (all(0 <= x < len(dec.coset_of) for x in members)
            and sorted(dec.coset_of[x] for x in members) == list(range(len(dec.cosets))))


def make_transversal(group: FiniteGroup, h: Subgroup, reps) -> Transversal:
    """Validate reps as a transversal and order them by coset index."""
    members = [as_int(x, "transversal") for x in reps]
    dec = _cosets(group, h)
    if not _meets_each_coset_once(dec, members):
        raise NotATransversalError(
            f"{members} does not meet every right coset of "
            f"{{{','.join(map(str, h.elements))}}} exactly once"
        )
    return Transversal(group=group, subgroup=h, decomposition=dec,
                       reps=tuple(sorted(members, key=dec.coset_of.__getitem__)))


def transversal_count(group: FiniteGroup, h: Subgroup) -> int:
    index = group.order // len(h.elements)
    return len(h.elements) ** index


def enumerate_transversals(
    group: FiniteGroup, h: Subgroup, limit: int | None = None
) -> list[Transversal]:
    """All transversals as the Cartesian product over cosets of their
    members, lexicographic; |H|^[G:H] in total, stopping at limit."""
    dec = _cosets(group, h)
    out: list[Transversal] = []
    for reps in itertools.product(*dec.cosets):
        if limit is not None and len(out) >= limit:
            break
        out.append(
            Transversal(group=group, subgroup=h, reps=tuple(reps), decomposition=dec)
        )
    return out


def transversal_at(group: FiniteGroup, h: Subgroup, index: int) -> Transversal:
    """The index-th transversal in enumeration order (mixed-radix decode,
    first coset most significant)."""
    return _transversal_at(group, h, _cosets(group, h), index)


def _transversal_at(group: FiniteGroup, h: Subgroup, dec: CosetDecomposition,
                    index: int) -> Transversal:
    """transversal_at with the right cosets dec of h already made."""
    total = transversal_count(group, h)
    if not 0 <= index < total:
        raise NotATransversalError(f"transversal index {index} out of range")
    # decode big-endian: leftmost coset varies slowest
    reps = []
    for coset in reversed(dec.cosets):
        index, d = divmod(index, len(h.elements))
        reps.append(coset[d])
    return Transversal(group=group, subgroup=h, reps=tuple(reversed(reps)),
                       decomposition=dec)


def sample_transversals(
    group: FiniteGroup,
    h: Subgroup,
    cap: int = DEFAULT_SAMPLE_CAP,
    seed: int = 0,
) -> list[Transversal]:
    """All transversals when the count fits the cap, otherwise a fixed-
    seed sample of cap distinct ones, in enumeration order. A cap below
    1 raises AlgebraError: every subgroup has a transversal."""
    if cap < 1:
        raise AlgebraError(f"transversal cap {cap} is below 1")
    total = transversal_count(group, h)
    if total <= cap:
        return list(enumerate_transversals(group, h))
    rng = random.Random(seed)
    if total <= sys.maxsize:
        picks = rng.sample(range(total), cap)
    else:  # range() has no length past sys.maxsize; draw until distinct
        picks = set()
        while len(picks) < cap:
            picks.add(rng.randrange(total))
    dec = _cosets(group, h)
    return [_transversal_at(group, h, dec, i) for i in sorted(picks)]


def decompose(t: Transversal, x: int) -> Decomposition:
    """The unique (alpha, a) with x = alpha * a, as parent-group indices."""
    g = t.group
    if not 0 <= x < g.order:
        raise NotATransversalError(f"element {x} outside [0, {g.order})")
    a = t.reps[t.decomposition.coset_of[x]]
    alpha = g.mul(x, g.inverse[a])
    if not t.subgroup.contains(alpha):
        raise InternalInconsistencyError(
            f"decompose({x}) produced h-part {alpha} outside the subgroup"
        )
    return Decomposition(h_part=alpha, m_part=a)


def neutral_decomposition(t: Transversal) -> tuple[int, int]:
    """(theta, o) with e = theta * o; o is the identity-coset rep."""
    d = decompose(t, t.group.identity)
    return d.h_part, d.m_part


def inverse_decomposition(t: Transversal, a: int) -> tuple[int, int]:
    """Decompose a^{-1} for a rep a; the (h-part, m-part) pair."""
    if a not in t.reps:
        raise NotATransversalError(f"{a} is not a representative")
    d = decompose(t, t.group.inverse[a])
    return d.h_part, d.m_part
