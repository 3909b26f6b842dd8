"""Classification: standard-construction sweeps, abstract enumeration,
catalog dedup, universality probes, CSV/JSON export.

The dedup oracle below partitions a list of hypergroups by pairwise
isomorphism search with no invariant prefilter; the orbit keys of both
sweep_standard and enumerate_abstract must produce the identical
partition.
"""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    AlgebraError,
    HgMorphism,
    InternalInconsistencyError,
    SizeLimitExceededError,
    builtin_groups,
    enumerate_subgroups,
    find_isomorphism,
    group_from_spec,
    group_isomorphism,
    group_isomorphisms,
    hypergroup_from_json,
    hypergroup_from_tables,
    make_transversal,
    right_cosets,
    sample_transversals,
    standard_construction,
    subgroup_from_elements,
    verify_axioms,
    verify_morphism,
)
from hypergroups import classify, morphisms
from hypergroups.classify import (
    Catalog,
    _lambda_candidates,
    _phi_candidates,
    _psi_candidates,
    _xi_candidates,
    catalog_csv,
    enumerate_abstract,
    export_catalog,
    sweep_standard,
    universality_probe,
)
from hypergroups.cli import run

import loop_oracles


def oracle_partition(hypergroups):
    """Class id per input, by linear scan against earlier representatives."""
    reps = []
    ids = []
    for hg in hypergroups:
        for rid, rep in enumerate(reps):
            if find_isomorphism(hg, rep) is not None:
                ids.append(rid)
                break
        else:
            ids.append(len(reps))
            reps.append(hg)
    return ids


class TestCatalogDedup:
    def test_matches_oracle_on_sweep4(self):
        cat = sweep_standard(4)
        hgs = [e.hypergroup for e in cat.entries]
        assert [e.class_id for e in cat.entries] == oracle_partition(hgs)

    def test_matches_oracle_on_a_seeded_sample(self):
        cat = sweep_standard(12, transversal_cap=3, seed=7)
        hgs = [e.hypergroup for e in cat.entries]
        assert [e.class_id for e in cat.entries] == oracle_partition(hgs)

    def test_matches_oracle_on_abstract(self):
        for m, spec in ((3, "Z2"), (2, "Z3"), (3, "Z3")):
            cat = enumerate_abstract(m, group_from_spec(spec))
            hgs = [e.hypergroup for e in cat.entries]
            assert [e.class_id for e in cat.entries] == oracle_partition(hgs), (m, spec)

    def test_certificates_verify(self):
        cat = sweep_standard(6)
        for entry in cat.entries:
            if entry.iso_to_rep is None:
                assert entry.hypergroup is cat.class_reps[entry.class_id]
            else:
                iso = entry.iso_to_rep
                assert verify_morphism(iso).ok
                assert sorted(iso.f1) == list(range(len(iso.f1)))
                assert sorted(iso.f0) == list(range(len(iso.f0)))
                assert entry.iso_to_rep.source is entry.hypergroup
                assert entry.iso_to_rep.target is cat.class_reps[entry.class_id]

    def test_reps_pairwise_nonisomorphic(self):
        reps = sweep_standard(4).class_reps
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert find_isomorphism(reps[i], reps[j]) is None, (i, j)


class TestSweep:
    def test_counts_frozen(self):
        for n, n_entries, n_classes in [(2, 4, 4), (4, 34, 18),
                                        (6, 104, 49), (8, 701, 137)]:
            cat = sweep_standard(n)
            assert (len(cat.entries), cat.n_classes) == (n_entries, n_classes)

    def test_all_entries_satisfy_axioms(self):
        cat = sweep_standard(6)
        for entry in cat.entries:
            assert verify_axioms(entry.hypergroup).overall, entry.provenance

    def test_order_two_all_group_quasigroups(self):
        cat = sweep_standard(2)
        assert all(k[2] for k in cat.stats())
        assert {e.hypergroup.m_size for e in cat.entries} == {1, 2}

    def test_z6_index_two_transversals_split(self):
        # 8 transversals of the order-3 subgroup quotient situation in Z6;
        # the quotient groups all agree but the full structures split
        cat = sweep_standard(6)
        tagged = [e for e in cat.entries
                  if e.provenance.startswith("standard:Z6:H=0,3:")]
        assert len(tagged) == 8
        assert len({e.class_id for e in tagged}) == 6

    def test_nonassociative_multiplication_appears_at_order_six(self):
        stats = sweep_standard(6).stats()
        assert any(k[0] == 3 and k[1] == 2 and not k[2] for k in stats)
        # and never for |M| <= 2
        assert all(k[2] for k in stats if k[0] <= 2)

    def test_determinism(self):
        a = catalog_csv(sweep_standard(6))
        b = catalog_csv(sweep_standard(6))
        assert a == b

    def test_seeded_sampling_changes_with_seed_only_past_cap(self):
        # cap of 2 forces sampling nearly everywhere
        a = catalog_csv(sweep_standard(4, transversal_cap=2, seed=0))
        b = catalog_csv(sweep_standard(4, transversal_cap=2, seed=0))
        c = catalog_csv(sweep_standard(4, transversal_cap=2, seed=1))
        assert a == b
        assert a != c

    def test_order_cap(self):
        with pytest.raises(SizeLimitExceededError):
            sweep_standard(25)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_transversal_cap_below_one(self, cap, capsys):
        with pytest.raises(AlgebraError, match=f"transversal cap {cap} is below 1"):
            sweep_standard(4, transversal_cap=cap)
        capsys.readouterr()
        assert run(["classify", "--max-order", "4", "--transversal-cap", str(cap)]) == 2
        assert capsys.readouterr().err == f"error: transversal cap {cap} is below 1\n"

    def test_provenance_format(self):
        cat = sweep_standard(2)
        assert cat.entries[0].provenance == "standard:E:H=0:M=0"


class TestAbstract:
    @pytest.mark.parametrize("m,spec,entries,classes", [
        (1, "E", 1, 1),
        (2, "E", 1, 1),
        (3, "E", 1, 1),
        (2, "Z2", 4, 4),
        (3, "Z2", 16, 12),
        (3, "Z3", 27, 10),
    ])
    def test_counts_frozen(self, m, spec, entries, classes):
        cat = enumerate_abstract(m, group_from_spec(spec))
        assert (len(cat.entries), cat.n_classes) == (entries, classes)

    def test_trivial_h_forces_group(self):
        # with |H| = 1 the multiplication must be associative
        for m in (1, 2, 3):
            cat = enumerate_abstract(m, group_from_spec("E"))
            assert all(k[2] for k in cat.stats())

    def test_all_entries_satisfy_axioms(self):
        cat = enumerate_abstract(3, group_from_spec("Z3"))
        for entry in cat.entries:
            assert verify_axioms(entry.hypergroup).overall

    def test_neutral_always_zero(self):
        cat = enumerate_abstract(3, group_from_spec("Z2"))
        assert all(e.hypergroup.o == 0 for e in cat.entries)

    def test_size_caps(self):
        with pytest.raises(SizeLimitExceededError):
            enumerate_abstract(4, group_from_spec("E"))
        with pytest.raises(SizeLimitExceededError):
            enumerate_abstract(2, group_from_spec("Z4"))

    @pytest.mark.parametrize("m", [0, -1, 4])
    def test_m_outside_one_to_three(self, m, capsys):
        message = f"abstract enumeration needs |M| in 1..3, not {m}"
        with pytest.raises(SizeLimitExceededError, match=re.escape(message)):
            enumerate_abstract(m, group_from_spec("E"))
        capsys.readouterr()
        assert run(["classify", "--abstract", "--m", str(m), "--h", "E"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_determinism(self):
        h = group_from_spec("Z2")
        assert catalog_csv(enumerate_abstract(3, h)) == catalog_csv(
            enumerate_abstract(3, h)
        )


class TestLambdaPruning:
    @pytest.mark.parametrize("m,spec", [
        (2, "Z2"), (2, "Z3"), (3, "E"), (3, "Z2"), (3, "Z3"),
    ])
    def test_same_tables_as_unpruned_search(self, m, spec):
        h = group_from_spec(spec)
        for xi in _xi_candidates(m):
            for phi in _phi_candidates(h, m):
                for psi in _psi_candidates(h, phi, m):
                    args = (h, xi, phi, psi, m)
                    assert list(_lambda_candidates(*args)) == list(
                        loop_oracles.lambda_candidates(*args)), args


class TestUniversality:
    def test_all_m3_h_z2_classes_realized_by_order_six(self):
        ab = enumerate_abstract(3, group_from_spec("Z2"))
        rep = universality_probe(ab, sweep_standard(6))
        assert rep.all_matched
        assert rep.unmatched() == []
        assert all(m["standard_class"] is not None for m in rep.matches)

    def test_unmatched_reported_not_raised(self):
        ab = enumerate_abstract(2, group_from_spec("Z2"))
        rep = universality_probe(ab, sweep_standard(2))
        assert not rep.all_matched
        assert rep.unmatched() == [0, 1, 2, 3]
        d = rep.to_dict()
        assert d["all_matched"] is False
        assert len(d["matches"]) == 4


class TestExport:
    def test_csv_shape(self):
        cat = sweep_standard(4)
        text = catalog_csv(cat)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["class_id", "m_size", "h_order", "xi_is_group",
                           "xi_commutative", "provenance"]
        assert len(rows) == len(cat.entries) + 1
        for row in rows[1:]:
            assert row[3] in ("true", "false")
            assert row[4] in ("true", "false")
        assert rows[1] == ["0", "1", "1", "true", "true", "standard:E:H=0:M=0"]

    def test_export_files(self, tmp_path):
        cat = sweep_standard(4)
        written = export_catalog(cat, tmp_path / "out")
        assert written == [f"class_{i:04d}.json" for i in range(cat.n_classes)] + [
            "entries.csv"
        ]
        assert (tmp_path / "out" / "entries.csv").read_text() == catalog_csv(cat)
        # representative files round-trip and end with a newline
        for i, rep in enumerate(cat.class_reps):
            raw = (tmp_path / "out" / f"class_{i:04d}.json").read_text()
            assert raw.endswith("\n")
            back = hypergroup_from_json(json.loads(raw))
            assert back.xi.tolist() == rep.xi.tolist()
            assert back.lam.tolist() == rep.lam.tolist()

    def test_export_byte_identical_across_runs(self, tmp_path):
        export_catalog(sweep_standard(4), tmp_path / "a")
        export_catalog(sweep_standard(4), tmp_path / "b")
        for name in (tmp_path / "a").iterdir():
            assert name.read_bytes() == (tmp_path / "b" / name.name).read_bytes()


def searches_only_when_a_certificate_is_read(build):
    """build() makes a catalog with no isomorphism search, and reading one
    entry's iso_to_rep runs exactly one, between it and its representative."""
    with mock.patch.object(classify, "find_isomorphism",
                           wraps=morphisms.find_isomorphism) as search, \
            mock.patch.object(morphisms, "group_isomorphisms",
                              wraps=morphisms.group_isomorphisms) as h_isos:
        cat = build()
        assert not search.called and not h_isos.called
        entry = next(e for e in cat.entries
                     if e.hypergroup is not cat.class_reps[e.class_id])
        iso = entry.iso_to_rep
        assert entry.iso_to_rep is iso
        assert search.call_count == 1
        assert search.call_args.args == (entry.hypergroup,
                                         cat.class_reps[entry.class_id])
    assert all(e.iso_to_rep is None for e in cat.entries
               if e.hypergroup is cat.class_reps[e.class_id])


class TestInsertDirect:
    def test_duplicate_goes_to_same_class(self):
        from hypergroups import cyclic_group, subgroup_from_elements
        from hypergroups import standard_construction, enumerate_transversals

        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        ts = enumerate_transversals(g, h)
        cat = Catalog()
        e1 = cat.insert(standard_construction(g, h, ts[0]), "p1", "key")
        e2 = cat.insert(standard_construction(g, h, ts[0]), "p2", "key")
        assert e1.class_id == e2.class_id == 0
        assert cat.n_classes == 1
        assert e1.iso_to_rep is None
        assert e2.iso_to_rep is not None
        assert verify_morphism(e2.iso_to_rep).ok

    def test_sweep_searches_only_when_a_certificate_is_read(self):
        searches_only_when_a_certificate_is_read(lambda: sweep_standard(8))

    def test_abstract_searches_only_when_a_certificate_is_read(self):
        searches_only_when_a_certificate_is_read(
            lambda: enumerate_abstract(3, group_from_spec("Z3")))

    def test_certificates_equal_fresh_searches(self):
        # a certificate found on first read is the one a search of its
        # own finds, in either kind of catalog
        for cat in (sweep_standard(12), sweep_standard(16, 4, 5),
                    enumerate_abstract(3, group_from_spec("Z3"))):
            for entry in cat.entries:
                if entry.iso_to_rep is None:
                    continue
                fresh = find_isomorphism(entry.hypergroup, cat.class_reps[entry.class_id])
                assert (entry.iso_to_rep.f0, entry.iso_to_rep.f1) == (fresh.f0, fresh.f1)

    def test_a_failing_construction_stops_the_sweep(self):
        # the batch reports the first failing entry as the sweep always did
        real = classify.standard_constructions
        seen = []

        def broken(g, h, ts):
            hgs = real(g, h, ts)
            if g.name == "D4" and len(hgs) > 5 and not seen:
                xi = hgs[5].xi.tolist()
                xi[1][1] = (xi[1][1] + 1) % hgs[5].m_size
                hgs[5] = dataclasses.replace(hgs[5], xi=xi)
                seen.append((h, ts[5], verify_axioms(hgs[5]).failing()))
            return hgs

        with mock.patch.object(classify, "standard_constructions", broken), \
                pytest.raises(InternalInconsistencyError) as ei:
            sweep_standard(8)
        h, t, failing = seen[0]
        assert str(ei.value) == (f"standard construction failed axioms {failing} for "
                                 f"G=D4, H={list(h.elements)}, M={list(t.reps)}")

def burnside_classes(max_order):
    """The classes of an exhaustive sweep_standard(max_order), counted by
    Burnside's lemma with no catalog: they are the Aut(G)-orbits on pairs
    (H, T), summed over the builtin G up to isomorphism, and the orbits
    of one G number the mean over sigma in Aut(G), here listed by
    group_isomorphisms, of the pairs sigma fixes. sigma fixes (H, T) iff
    sigma(H) = H and sigma(T) = T. sigma then permutes the right cosets
    of H, and a fixed T takes, on each cycle of cosets, some x of its
    first coset with sigma^k(x) = x, k the cycle's length, and the
    images of x on the rest. All the sigma fixing H are walked at once,
    for j = 1, ..., m, as sigma^j on G and on the m cosets."""
    total = 0
    seen = []
    for g in builtin_groups(max_order):
        if any(group_isomorphism(g, other) is not None for other in seen):
            continue
        seen.append(g)
        auts = np.array(loop_oracles.automorphisms(g), dtype=np.uint8)
        fixed = 0
        for h in enumerate_subgroups(g):
            inside = np.zeros(g.order, dtype=bool)
            inside[list(h.elements)] = True
            sigma = auts[inside[auts[:, list(h.elements)]].all(axis=1)]
            dec = right_cosets(g, h)
            cosets, m = np.array(dec.cosets), len(dec.cosets)
            perm = np.array(dec.coset_of, dtype=np.uint8)[sigma[:, cosets[:, 0]]]
            counts = np.zeros(perm.shape, dtype=np.uint8)
            closed = np.zeros(perm.shape, dtype=bool)
            least = perm
            power, perm_power = sigma, perm
            for _ in range(m):
                closes = (perm_power == np.arange(m)) & ~closed
                counts[closes] = (power[:, cosets] == cosets).sum(axis=2, dtype=np.uint8)[closes]
                closed |= closes
                least = np.minimum(least, perm_power)
                power = np.take_along_axis(sigma, power, axis=1)
                perm_power = np.take_along_axis(perm, perm_power, axis=1)
            assert closed.all()
            fixed += int(np.where(least == np.arange(m), counts, 1)
                         .prod(axis=1, dtype=np.int64).sum())
        assert fixed % len(auts) == 0
        total += fixed // len(auts)
    return total


class TestOrbitKeys:
    def test_burnside_count_equals_the_sweep(self):
        # the order-16 catalog holds 42,136 hypergroups; a child process
        # builds them, so that this one stays small for the tests that
        # read the peak memory of the children they start
        code = ("from hypergroups.classify import sweep_standard\n"
                "print([sweep_standard(n).n_classes for n in (8, 12, 16)])\n")
        env = dict(os.environ)
        src = str(Path(classify.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        swept = json.loads(proc.stdout)
        assert [burnside_classes(n) for n in (8, 12, 16)] == swept == [137, 457, 1543]

    def test_isomorphic_builtins_share_a_class(self):
        # Z2xZ12 comes first by name, so it is Z4xZ6's canonical builtin
        g12, g6 = group_from_spec("Z2xZ12"), group_from_spec("Z4xZ6")
        with mock.patch.object(classify, "automorphisms",
                               wraps=classify.automorphisms) as auts:
            canonical = classify._canonical_bases(builtin_groups(24))
            name12, maps12 = canonical(g12)
            name6, maps6 = canonical(g6)
        assert name12 == name6 == "Z2xZ12"
        # Aut is listed once, and only for the group mapped onto
        assert [call.args[0].name for call in auts.call_args_list] == ["Z2xZ12"]
        f = group_isomorphism(g6, g12)
        h6 = next(h for h in enumerate_subgroups(g6) if h.order == 4)
        ts6 = sample_transversals(g6, h6, cap=3, seed=2)
        h12 = subgroup_from_elements(g12, [f[x] for x in h6.elements])
        ts12 = [make_transversal(g12, h12, [f[x] for x in t.reps]) for t in ts6]
        keys = ([(name12, *k) for k in classify._orbit_keys(
                    maps12, h12.elements, np.array([t.reps for t in ts12]))]
                + [(name6, *k) for k in classify._orbit_keys(
                    maps6, h6.elements, np.array([t.reps for t in ts6]))])
        hgs = ([standard_construction(g12, h12, t) for t in ts12]
               + [standard_construction(g6, h6, t) for t in ts6])
        cat = Catalog()
        entries = [cat.insert(hg, str(i), key)
                   for i, (hg, key) in enumerate(zip(hgs, keys))]
        for e12, e6 in zip(entries[:3], entries[3:]):
            assert e6.class_id == e12.class_id
            iso = e6.iso_to_rep
            assert iso.source is e6.hypergroup
            assert iso.target is cat.class_reps[e6.class_id]
            assert verify_morphism(iso).ok
        # equal keys exactly where an isomorphism exists
        for a, b in itertools.combinations(range(6), 2):
            assert (keys[a] == keys[b]) == (find_isomorphism(hgs[a], hgs[b]) is not None)


@st.composite
def transported(draw):
    """A standard construction with 4 <= |G| <= 12 and |M| > 1, and its
    image under a random (f0, f1): f0 an automorphism of H, f1 a
    permutation of M."""
    g = draw(st.sampled_from(builtin_groups(12)[3:]))
    h = draw(st.sampled_from(enumerate_subgroups(g)[:-1]))
    t = sample_transversals(g, h, cap=1, seed=draw(st.integers(0, 2**16)))[0]
    hg = standard_construction(g, h, t)
    m, hn = hg.m_size, hg.h.order
    f0 = draw(st.sampled_from(list(group_isomorphisms(hg.h, hg.h))))
    f1 = draw(st.permutations(range(m)))
    phi, psi = [[0] * hn for _ in range(m)], [[0] * hn for _ in range(m)]
    xi, lam = [[0] * m for _ in range(m)], [[0] * m for _ in range(m)]
    for a in range(m):
        for al in range(hn):
            phi[f1[a]][f0[al]] = f1[hg.phi[a][al]]
            psi[f1[a]][f0[al]] = f0[hg.psi[a][al]]
        for b in range(m):
            xi[f1[a]][f1[b]] = f1[hg.xi[a][b]]
            lam[f1[a]][f1[b]] = f0[hg.lam[a][b]]
    image = hypergroup_from_tables(m, hg.h, phi, psi, xi, lam, f1[hg.o])
    return (g, h, t), hg, image, list(f0), list(f1)


def abstract_key(hg, canonical):
    """The orbit key enumerate_abstract files hg under."""
    group, h_elements, reps = classify._ambient(hg, "test")
    base, maps = canonical(group)
    return (base, *classify._orbit_keys(maps, h_elements, reps)[0])


class TestInvariantKey:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=transported())
    def test_equal_on_isomorphic_copies(self, case):
        # the abstract orbit key of a transported copy, whose o need not
        # be 0, equals the original's, and both equal the sweep's key of
        # the triple the original was built from
        (g, h, t), hg, image, f0, f1 = case
        assert verify_morphism(HgMorphism(hg, image, f0, f1)).ok
        canonical = classify._canonical_bases(builtin_groups(12))
        key = abstract_key(hg, canonical)
        assert abstract_key(image, canonical) == key
        base, maps = canonical(g)
        assert key == (base, *classify._orbit_keys(maps, h.elements,
                                                   np.array([t.reps]))[0])
        iso = find_isomorphism(hg, image)
        assert iso is not None and verify_morphism(iso).ok


class TestAmbient:
    @pytest.mark.parametrize("m,spec", [(m, spec) for m in (1, 2, 3)
                                        for spec in ("E", "Z2", "Z3")])
    def test_every_small_entry_is_its_ambient_construction(self, m, spec):
        # the product table is a group, H_A a subgroup and T_A a right
        # transversal of it, and the standard construction of
        # (A, H_A, T_A) is isomorphic to the entry
        for entry in enumerate_abstract(m, group_from_spec(spec)).entries:
            hg = entry.hypergroup
            group, h_elements, reps = classify._ambient(hg, entry.provenance)
            assert group.order == m * hg.h.order
            rebuilt = standard_construction(
                group, subgroup_from_elements(group, h_elements), reps[0].tolist())
            iso = find_isomorphism(hg, rebuilt)
            assert iso is not None and verify_morphism(iso).ok, entry.provenance

    def test_a_product_that_is_no_group_raises(self):
        def no_group(phi, psi, xi, lam, ht):
            return np.zeros((len(ht) * len(xi),) * 2, dtype=np.intp)

        with mock.patch.object(classify, "_product_table", no_group), \
                pytest.raises(InternalInconsistencyError) as ei:
            enumerate_abstract(2, group_from_spec("Z2"))
        assert str(ei.value).startswith(
            "abstract:m2:H=Z2:#0 passes verify_axioms but its product table is not a group")


class TestFrozenOutputs:
    """Digests of classify output, frozen so that cutting the catalog's
    work cannot change a byte of it or a certificate."""

    def test_export_tree(self, tmp_path):
        out = tmp_path / "out"
        assert run(["classify", "--max-order", "8", "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "2bf01d0ff67d7797fa9908fec8fb97eba640688c47d0dea6258410fae3d59219")

    def test_class_ids_and_certificates(self):
        entries = sweep_standard(8).entries
        certificates = [
            [e.class_id,
             None if e.iso_to_rep is None else [e.iso_to_rep.f0, e.iso_to_rep.f1]]
            for e in entries
        ]
        assert len(entries) == 701
        assert hashlib.sha256(json.dumps(certificates).encode()).hexdigest() == (
            "63ffb0495dc6e3f6622be7d9bb8c877453ae6263a92930863ea8c6f01cd4df56")


def certificate_digest(catalog):
    """sha256 of each entry's [class_id, [f0, f1]], None for a representative."""
    certificates = [
        [e.class_id,
         None if e.iso_to_rep is None else [e.iso_to_rep.f0, e.iso_to_rep.f1]]
        for e in catalog.entries
    ]
    return hashlib.sha256(json.dumps(certificates).encode()).hexdigest()


class TestFrozenAbstractOutputs:
    """Digests of the abstract catalogs, frozen so that a change of how
    abstract entries are classified cannot change a byte of the CSV, an
    export, a certificate or a universality match."""

    @pytest.mark.parametrize("m,spec,csv_sha256,certificates_sha256", [
        (1, "Z3", "876349b5248409a84fd265e036fa2c77b14973a8843c55420dab7b85d949f9a3",
         "32f193bbf0a11b8168c48286af84d55c8dc046724982754096437797305b056d"),
        (2, "Z2", "e57dcc958f4f91c19bdf90119b607b3ce159c9d92d84c256024bace43668f9c0",
         "b5fcd37698e0796bcf094df4dafb0c5b5dfdafe55682b689031cfe510b86a048"),
        (2, "Z3", "fe81a7473c76765e419c5209a6b3d2f5beccec3d114f93badbcc1d61cadf38e4",
         "4d7b2090d101d856bd16115f832d57b77826297d8b9b244b7e884d2fe9339a8d"),
        (3, "Z2", "47deb5510605fb9c3cb59234917ebea871a2d6905a80131cb9865737f847f262",
         "a0532d382149f1bfd336236fbb0835761beb2f9c62fa11bd009d166bcd584a5a"),
        (3, "Z3", "1e72e50aa78c07a8ee1bf4715b731ca9c9679ebc85f512f635ddd282c1db0c28",
         "70f30570c8125667ea85bdb8717d72ee71c6a4f9c9525136ba0f3e23afde84c4"),
    ])
    def test_csv_and_certificates(self, m, spec, csv_sha256, certificates_sha256):
        cat = enumerate_abstract(m, group_from_spec(spec))
        assert hashlib.sha256(catalog_csv(cat).encode()).hexdigest() == csv_sha256
        assert certificate_digest(cat) == certificates_sha256

    def test_export_tree(self, tmp_path):
        out = tmp_path / "out"
        export_catalog(enumerate_abstract(3, group_from_spec("Z3")), out)
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "f8e01e0a3eaac2a8c163dc3a6def9e8d428549e8ecb1bd213bad6e7708ec58a9")

    def test_universality_matches(self):
        rep = universality_probe(enumerate_abstract(3, group_from_spec("Z2")),
                                 sweep_standard(6))
        standard = [22, 23, 36, 34, 35, 37, 39, 38, 24, 25, 26, 27]
        assert rep.to_dict() == {"all_matched": True, "matches": [
            {"abstract_class": i, "matched": True, "standard_class": s}
            for i, s in enumerate(standard)]}
        rep = universality_probe(enumerate_abstract(2, group_from_spec("Z2")),
                                 sweep_standard(2))
        assert rep.to_dict() == {"all_matched": False, "matches": [
            {"abstract_class": i, "matched": False, "standard_class": None}
            for i in range(4)]}
