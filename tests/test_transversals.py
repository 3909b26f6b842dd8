"""Transversal layer: recognition, enumeration, sampling, and the
unique factorization x = alpha * a.

The factorization oracle below finds the (alpha, a) pair by exhaustive
scan and asserts uniqueness, independently of decompose()'s O(1) coset
lookup.
"""

import itertools
import random
import sys
from unittest import mock

import pytest

from hypergroups import (
    InternalInconsistencyError,
    NotATransversalError,
    check_normal_case,
    cyclic_group,
    decompose,
    dihedral_group,
    enumerate_subgroups,
    enumerate_transversals,
    group_from_spec,
    inverse_decomposition,
    is_right_transversal,
    make_transversal,
    neutral_decomposition,
    sample_transversals,
    subgroup_from_elements,
    symmetric_group,
    transversal_at,
    transversal_count,
)
from hypergroups import transversals

import loop_oracles

# --------------------------------------------------------------------
# oracles


def oracle_is_transversal(group, h_elements, members):
    """Coset-incidence count with cosets rebuilt from scratch."""
    cosets = {frozenset(group.table[x][a] for x in h_elements)
              for a in range(group.order)}
    members = list(members)
    if len(members) != len(set(members)):
        return False
    hits = {c: 0 for c in cosets}
    for a in members:
        for c in cosets:
            if a in c:
                hits[c] += 1
    return all(v == 1 for v in hits.values())


def oracle_decompose(group, h_elements, reps, x):
    """The unique (alpha, a) in H x reps with alpha*a = x, by scan."""
    pairs = [
        (alpha, a)
        for alpha in h_elements
        for a in reps
        if group.table[alpha][a] == x
    ]
    assert len(pairs) == 1, f"factorization of {x} not unique: {pairs}"
    return pairs[0]


# --------------------------------------------------------------------
# recognition


class TestRecognition:
    def test_whole_group_is_transversal_of_trivial_subgroup(self):
        g = symmetric_group(3)
        h = subgroup_from_elements(g, [0])
        assert is_right_transversal(g, h, range(6))

    def test_identity_alone_for_full_subgroup(self):
        g = symmetric_group(3)
        h = subgroup_from_elements(g, list(range(6)))
        assert is_right_transversal(g, h, [0])
        assert is_right_transversal(g, h, [4])

    def test_z6_examples(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        assert is_right_transversal(g, h, [0, 1, 2])
        assert not is_right_transversal(g, h, [0, 3, 1])  # 0,3 share a coset
        assert not is_right_transversal(g, h, [0, 1])
        assert not is_right_transversal(g, h, [0, 1, 2, 4])

    def test_three_characterizations_agree(self):
        # exhaustive over every subset of the group, every subgroup
        for g in (cyclic_group(6), symmetric_group(3)):
            for h in enumerate_subgroups(g):
                for r in range(1 << g.order):
                    cand = [x for x in range(g.order) if (r >> x) & 1]
                    direct = is_right_transversal(g, h, cand)
                    assert direct == oracle_is_transversal(g, h.elements, cand)
                    assert direct == loop_oracles.bijection_characterization(
                        g, h, cand)
                    assert direct == loop_oracles.section_characterization(
                        g, h, cand)


# --------------------------------------------------------------------
# enumeration and sampling


class TestEnumeration:
    def test_count_z6(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        assert transversal_count(g, h) == 8  # |H|^[G:H] = 2^3
        ts = enumerate_transversals(g, h)
        assert len(ts) == 8
        assert len({t.reps for t in ts}) == 8
        for t in ts:
            assert oracle_is_transversal(g, h.elements, t.reps)

    def test_lexicographic_order_and_limit(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        ts = enumerate_transversals(g, h)
        assert ts[0].reps == (0, 1, 2)
        assert ts[-1].reps == (3, 4, 5)
        reps = [t.reps for t in ts]
        assert reps == sorted(reps)
        assert [t.reps for t in enumerate_transversals(g, h, limit=3)] == reps[:3]

    def test_transversal_at_matches_enumeration(self):
        g = symmetric_group(3)
        for h in enumerate_subgroups(g):
            ts = enumerate_transversals(g, h)
            for i, t in enumerate(ts):
                assert transversal_at(g, h, i).reps == t.reps
        with pytest.raises(NotATransversalError):
            transversal_at(g, enumerate_subgroups(g)[1], 99)

    def test_sampling_under_cap_returns_all(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        assert [t.reps for t in sample_transversals(g, h, cap=100)] == [
            t.reps for t in enumerate_transversals(g, h)
        ]

    def test_sampling_over_cap_is_deterministic_and_distinct(self):
        g = dihedral_group(8)  # order 16
        h = subgroup_from_elements(g, [0, 8])
        assert transversal_count(g, h) == 2 ** 8
        s1 = sample_transversals(g, h, cap=40, seed=0)
        s2 = sample_transversals(g, h, cap=40, seed=0)
        assert len(s1) == 40
        assert [t.reps for t in s1] == [t.reps for t in s2]
        assert len({t.reps for t in s1}) == 40
        s3 = sample_transversals(g, h, cap=40, seed=1)
        assert [t.reps for t in s3] != [t.reps for t in s1]

    def test_sampling_past_sys_maxsize(self):
        # Z256 over {0, 128}: 2^128 transversals, more than range() can
        # count; the draw must still be distinct and reproducible
        g = cyclic_group(256)
        h = subgroup_from_elements(g, [0, 128])
        assert transversal_count(g, h) > sys.maxsize
        s1 = sample_transversals(g, h, cap=5, seed=0)
        assert [t.reps for t in s1] == [
            t.reps for t in sample_transversals(g, h, cap=5, seed=0)
        ]
        assert len({t.reps for t in s1}) == 5
        assert all(is_right_transversal(g, h, t.reps) for t in s1)
        report = check_normal_case(g, h, transversal_cap=5)
        assert report.overall and report.info["transversals_checked"] == 5

    def test_sampling_below_sys_maxsize_keeps_the_seeded_draw(self):
        # the same picks as random.sample, the draw used before the
        # large-count path existed
        g = dihedral_group(8)
        h = subgroup_from_elements(g, [0, 8])
        picks = sorted(random.Random(3).sample(range(2 ** 8), 10))
        assert [t.reps for t in sample_transversals(g, h, cap=10, seed=3)] == [
            transversal_at(g, h, i).reps for i in picks
        ]

    @pytest.mark.parametrize("spec, cap", [("D8", 7), ("Z2xQ8", 7), ("Z256", 3)])
    def test_sampling_makes_the_cosets_once(self, spec, cap):
        # every draw shares one coset decomposition, and the draws are
        # those of transversal_at, which makes its own
        g = group_from_spec(spec)
        subgroups = (enumerate_subgroups(g) if g.order <= 24
                     else [subgroup_from_elements(g, [0, 128])])
        for h in subgroups:
            with mock.patch.object(transversals, "right_cosets",
                                   wraps=transversals.right_cosets) as spy:
                drawn = sample_transversals(g, h, cap=cap, seed=1)
            assert spy.call_count == 1
            assert all(t.decomposition is drawn[0].decomposition for t in drawn)
            total = transversal_count(g, h)
            if cap < total <= sys.maxsize:
                picks = sorted(random.Random(1).sample(range(total), cap))
                assert [t.reps for t in drawn] == [
                    transversal_at(g, h, i).reps for i in picks]

    def test_make_transversal_reorders_and_validates(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [2, 0, 1])
        assert t.reps == (0, 1, 2)  # coset order: {0,3}, {1,4}, {2,5}
        t2 = make_transversal(g, h, [3, 1, 2])
        assert t2.reps == (3, 1, 2)
        with pytest.raises(NotATransversalError):
            make_transversal(g, h, [0, 3, 1])


# --------------------------------------------------------------------
# factorization


class TestDecompose:
    def test_frozen_values_z6(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [0, 1, 2])
        d = decompose(t, 4)
        assert (d.h_part, d.m_part) == (3, 1)  # 4 = 3 + 1
        d = decompose(t, 3)
        assert (d.h_part, d.m_part) == (3, 0)  # 3 = 3 + 0
        d = decompose(t, 2)
        assert (d.h_part, d.m_part) == (0, 2)

    def test_matches_scan_oracle_exhaustively(self):
        for spec in ("Z6", "S3", "Z12", "D4", "Q8", "Z2xS3"):
            g = group_from_spec(spec)
            for h in enumerate_subgroups(g):
                for t in enumerate_transversals(g, h, limit=5):
                    for x in range(g.order):
                        d = decompose(t, x)
                        assert (d.h_part, d.m_part) == oracle_decompose(
                            g, h.elements, t.reps, x
                        )
                        # recomposition is the identity
                        assert g.table[d.h_part][d.m_part] == x

    def test_rejects_out_of_range(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [0, 1, 2])
        with pytest.raises(NotATransversalError):
            decompose(t, 6)

    def test_neutral_decomposition(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [0, 1, 2])
        assert neutral_decomposition(t) == (0, 0)  # e = e * 0
        t2 = make_transversal(g, h, [3, 1, 2])
        assert neutral_decomposition(t2) == (3, 3)  # e = 3 * 3 in Z6

    def test_inverse_decomposition(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [0, 1, 2])
        assert inverse_decomposition(t, 1) == (3, 2)  # -1 = 5 = 3 + 2
        assert inverse_decomposition(t, 2) == (3, 1)  # -2 = 4 = 3 + 1
        assert inverse_decomposition(t, 0) == (0, 0)
        with pytest.raises(NotATransversalError):
            inverse_decomposition(t, 5)  # 5 is not a representative
