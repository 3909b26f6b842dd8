"""Morphisms of hypergroups over groups: verification, composition,
isomorphism search.

The relabeling oracle below manufactures isomorphic copies with a known
certificate, so find_isomorphism can be tested against ground truth in
both directions. A brute-force search over all (f0, f1) pairs serves as
the completeness oracle at tiny sizes.
"""

import itertools

import pytest

from hypergroups import (
    HgMorphism,
    NotComposableError,
    ShapeMismatchError,
    SizeLimitExceededError,
    compose,
    cyclic_group,
    enumerate_transversals,
    find_isomorphism,
    functor_group,
    group_from_spec,
    hypergroup_from_tables,
    identity_morphism,
    invert_isomorphism,
    is_group_quasigroup,
    make_transversal,
    standard_construction,
    subgroup_from_elements,
    symmetric_group,
    verify_morphism,
)

# --------------------------------------------------------------------
# oracles and helpers


def relabel(hg, pm, ph):
    """The isomorphic copy of hg along f1 = pm (on M) and f0 = ph (an
    automorphism of H); returns (copy, expected morphism hg -> copy)."""
    m, hn = hg.m_size, hg.h.order
    inv_pm = [0] * m
    for i, v in enumerate(pm):
        inv_pm[v] = i
    inv_ph = [0] * hn
    for i, v in enumerate(ph):
        inv_ph[v] = i
    phi = [[pm[hg.phi[inv_pm[a]][inv_ph[al]]] for al in range(hn)]
           for a in range(m)]
    psi = [[ph[hg.psi[inv_pm[a]][inv_ph[al]]] for al in range(hn)]
           for a in range(m)]
    xi = [[pm[hg.xi[inv_pm[a]][inv_pm[b]]] for b in range(m)]
          for a in range(m)]
    lam = [[ph[hg.lam[inv_pm[a]][inv_pm[b]]] for b in range(m)]
           for a in range(m)]
    copy = hypergroup_from_tables(m, hg.h, phi, psi, xi, lam, pm[hg.o])
    return copy, HgMorphism(source=hg, target=copy, f0=list(ph), f1=list(pm))


def brute_isomorphisms(hg1, hg2):
    """All (f0, f1) pairs by filtering every bijection pair."""
    out = []
    for f0 in itertools.permutations(range(hg1.h.order)):
        for f1 in itertools.permutations(range(hg1.m_size)):
            m = HgMorphism(source=hg1, target=hg2, f0=list(f0), f1=list(f1))
            if verify_morphism(m).ok:
                out.append((list(f0), list(f1)))
    return out


def s3_pair():
    g = symmetric_group(3)
    h = subgroup_from_elements(g, [0, 1])
    ts = enumerate_transversals(g, h)
    return [standard_construction(g, h, t) for t in ts]


def z6_hg(reps=(0, 1, 2)):
    g = cyclic_group(6)
    h = subgroup_from_elements(g, [0, 3])
    return standard_construction(g, h, make_transversal(g, h, list(reps)))


# --------------------------------------------------------------------
# verification


class TestVerifyMorphism:
    def test_identity_passes(self):
        for hg in (z6_hg(), *s3_pair()[:2]):
            assert verify_morphism(identity_morphism(hg)).ok

    def test_failure_witness_replays(self):
        # identity maps between two structurally different hypergroups
        hgs = s3_pair()
        src = next(h for h in hgs if not is_group_quasigroup(h))
        dst = next(h for h in hgs if is_group_quasigroup(h))
        m = HgMorphism(source=src, target=dst,
                       f0=[0, 1], f1=[0, 1, 2])
        rep = verify_morphism(m)
        assert not rep.ok
        w = rep.witness
        if rep.failed == "phi_square":
            a, al = w
            assert m.f1[src.phi[a][al]] != dst.phi[m.f1[a]][m.f0[al]]
        elif rep.failed == "psi_square":
            a, al = w
            assert m.f0[src.psi[a][al]] != dst.psi[m.f1[a]][m.f0[al]]
        elif rep.failed == "xi_square":
            a, b = w
            assert m.f1[src.xi[a][b]] != dst.xi[m.f1[a]][m.f1[b]]
        elif rep.failed == "lam_square":
            a, b = w
            assert m.f0[src.lam[a][b]] != dst.lam[m.f1[a]][m.f1[b]]
        else:
            al, be = w
            assert m.f0[src.h.mul(al, be)] != dst.h.mul(m.f0[al], m.f0[be])

    def test_f0_must_be_homomorphism(self):
        hg = z6_hg()  # H = Z2
        # swap on Z2 maps identity to non-identity: not a homomorphism
        m = HgMorphism(source=hg, target=hg, f0=[1, 0], f1=[0, 1, 2])
        rep = verify_morphism(m)
        assert not rep.ok and rep.failed == "f0_homomorphism"

    def test_shape_checks(self):
        hg = z6_hg()
        with pytest.raises(ShapeMismatchError):
            verify_morphism(HgMorphism(hg, hg, f0=[0], f1=[0, 1, 2]))
        with pytest.raises(ShapeMismatchError):
            verify_morphism(HgMorphism(hg, hg, f0=[0, 1], f1=[0, 1, 5]))

    def test_to_json(self):
        m = identity_morphism(z6_hg())
        assert m.to_json() == {"f0": [0, 1], "f1": [0, 1, 2]}


class TestCompose:
    def test_identity_laws(self):
        hg1 = z6_hg()
        copy, iso = relabel(hg1, [1, 2, 0], [0, 1])
        assert verify_morphism(iso).ok
        left = compose(identity_morphism(hg1), iso)
        right = compose(iso, identity_morphism(copy))
        assert left.f0 == iso.f0 and left.f1 == iso.f1
        assert right.f0 == iso.f0 and right.f1 == iso.f1

    def test_associativity(self):
        hg = z6_hg()
        c1, m1 = relabel(hg, [1, 2, 0], [0, 1])
        c2, m2_ = relabel(c1, [2, 0, 1], [0, 1])
        c3, m3 = relabel(c2, [0, 2, 1], [0, 1])
        lhs = compose(compose(m1, m2_), m3)
        rhs = compose(m1, compose(m2_, m3))
        assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1

    def test_rejects_mismatched(self):
        hg1, hg2 = s3_pair()[:2]
        with pytest.raises(NotComposableError):
            compose(identity_morphism(hg1), identity_morphism(hg2))

    def test_composite_verifies(self):
        hg = z6_hg()
        c1, m1 = relabel(hg, [2, 0, 1], [0, 1])
        c2, m2_ = relabel(c1, [1, 0, 2], [0, 1])
        comp = compose(m1, m2_)
        assert verify_morphism(comp).ok


# --------------------------------------------------------------------
# isomorphism search


class TestFindIsomorphism:
    def test_recovers_relabelings(self):
        hg = z6_hg()
        for pm in itertools.permutations(range(3)):
            copy, planted = relabel(hg, list(pm), [0, 1])
            found = find_isomorphism(hg, copy)
            assert found is not None
            assert verify_morphism(found).ok

    def test_matches_brute_force_existence(self):
        hgs = s3_pair()
        for i in range(len(hgs)):
            for j in range(len(hgs)):
                fast = find_isomorphism(hgs[i], hgs[j])
                slow = brute_isomorphisms(hgs[i], hgs[j])
                assert (fast is not None) == (len(slow) > 0), (i, j)
                if fast is not None:
                    assert [fast.f0, fast.f1] in [list(p) for p in slow]

    def test_group_vs_nongroup_not_isomorphic(self):
        hgs = s3_pair()
        grp = next(h for h in hgs if is_group_quasigroup(h))
        non = next(h for h in hgs if not is_group_quasigroup(h))
        assert find_isomorphism(grp, non) is None

    def test_different_lam_profiles_not_isomorphic(self):
        # same xi (Z3) but lam differs in a way no H-automorphism fixes
        hg1 = z6_hg((0, 1, 2))
        hg2 = z6_hg((0, 4, 2))
        assert any(v != 0 for row in hg1.lam for v in row)
        assert all(v == 0 for row in hg2.lam for v in row)
        assert find_isomorphism(hg1, hg2) is None
        assert len(brute_isomorphisms(hg1, hg2)) == 0

    def test_size_mismatch(self):
        assert find_isomorphism(z6_hg(), functor_group(cyclic_group(4))) is None

    def test_size_cap(self):
        big = functor_group(group_from_spec("Z32"))
        with pytest.raises(SizeLimitExceededError):
            find_isomorphism(big, big)

    def test_self_isomorphism_is_identity_for_rigid_case(self):
        hg = z6_hg()
        found = find_isomorphism(hg, hg)
        assert found is not None and verify_morphism(found).ok


class TestInvert:
    def test_round_trip(self):
        hg = z6_hg()
        copy, iso = relabel(hg, [2, 0, 1], [0, 1])
        inv = invert_isomorphism(iso)
        assert verify_morphism(inv).ok
        fwd = compose(iso, inv)
        assert fwd.f1 == list(range(3)) and fwd.f0 == [0, 1]
        back = compose(inv, iso)
        assert back.f1 == list(range(3))

    def test_rejects_non_bijection(self):
        hg = z6_hg()
        squash = HgMorphism(hg, hg, f0=[0, 1], f1=[0, 0, 0])
        with pytest.raises(ShapeMismatchError):
            invert_isomorphism(squash)
