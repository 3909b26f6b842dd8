"""Classification: standard-construction sweeps, abstract enumeration,
catalog dedup, universality probes, CSV/JSON export.

The dedup oracle below partitions a list of hypergroups by pairwise
isomorphism search with no invariant prefilter; Catalog.insert must
produce the identical partition.
"""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
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
    _invariant_key,
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
        cat = enumerate_abstract(3, group_from_spec("Z2"))
        hgs = [e.hypergroup for e in cat.entries]
        assert [e.class_id for e in cat.entries] == oracle_partition(hgs)

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


class TestInsertDirect:
    def test_duplicate_goes_to_same_class(self):
        from hypergroups import cyclic_group, subgroup_from_elements
        from hypergroups import standard_construction, enumerate_transversals

        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        ts = enumerate_transversals(g, h)
        cat = Catalog()
        e1 = cat.insert(standard_construction(g, h, ts[0]), "p1")
        e2 = cat.insert(standard_construction(g, h, ts[0]), "p2")
        assert e1.class_id == e2.class_id == 0
        assert e1.iso_to_rep is None
        assert e2.iso_to_rep is not None
        assert verify_morphism(e2.iso_to_rep).ok

    def test_element_keys_computed_once_per_entry(self):
        # the search reuses the keys the bucket key was made from, and a
        # representative's keys are kept, not recomputed for every call
        with mock.patch.object(classify, "_element_keys",
                               wraps=morphisms._element_keys) as keys, \
                mock.patch.object(morphisms, "_element_keys") as search_keys, \
                mock.patch.object(classify, "find_isomorphism",
                                  wraps=morphisms.find_isomorphism) as search:
            cat = enumerate_abstract(3, group_from_spec("Z3"))
        assert keys.call_count == len(cat.entries) == 27
        assert search.call_count > len(cat.entries) - cat.n_classes
        assert not search_keys.called

    def test_sweep_searches_only_when_a_certificate_is_read(self):
        with mock.patch.object(classify, "find_isomorphism",
                               wraps=morphisms.find_isomorphism) as search, \
                mock.patch.object(classify, "group_isomorphisms") as h_isos:
            cat = sweep_standard(8)
            assert not search.called
            entry = next(e for e in cat.entries
                         if e.hypergroup is not cat.class_reps[e.class_id])
            iso = entry.iso_to_rep
            assert entry.iso_to_rep is iso
            assert search.call_count == 1
            assert search.call_args.args == (entry.hypergroup,
                                             cat.class_reps[entry.class_id])
        assert not h_isos.called
        assert all(e.iso_to_rep is None for e in cat.entries
                   if e.hypergroup is cat.class_reps[e.class_id])

    def test_certificates_equal_fresh_searches(self):
        # the shared H-isomorphism lists hand every search the f0s, in
        # the order, that a search of its own would walk
        for cat in (sweep_standard(12), sweep_standard(16, 4, 5)):
            for entry in cat.entries:
                if entry.iso_to_rep is None:
                    continue
                fresh = find_isomorphism(entry.hypergroup, cat.class_reps[entry.class_id])
                assert (entry.iso_to_rep.f0, entry.iso_to_rep.f1) == (fresh.f0, fresh.f1)

    def test_h_isomorphisms_searched_once_per_pair(self):
        with mock.patch.object(classify, "group_isomorphisms",
                               wraps=classify.group_isomorphisms) as runs:
            cat = enumerate_abstract(3, group_from_spec("Z3"))
        pairs = [(run.args[0].table, run.args[1].table) for run in runs.call_args_list]
        assert len(pairs) == len(set(pairs)) == len(cat._h_isos)
        assert len(pairs) < len(cat.entries) - cat.n_classes

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
        bases = {}
        name12, maps12 = classify._canonical_isomorphisms(g12, bases)
        name6, maps6 = classify._canonical_isomorphisms(g6, bases)
        assert name12 == name6 == "Z2xZ12" and len(bases[24]) == 1
        f = group_isomorphism(g6, g12)
        h6 = next(h for h in enumerate_subgroups(g6) if h.order == 4)
        ts6 = sample_transversals(g6, h6, cap=3, seed=2)
        h12 = subgroup_from_elements(g12, [f[x] for x in h6.elements])
        ts12 = [make_transversal(g12, h12, [f[x] for x in t.reps]) for t in ts6]
        keys = ([(name12, *k) for k in classify._orbit_keys(maps12, h12, ts12)]
                + [(name6, *k) for k in classify._orbit_keys(maps6, h6, ts6)])
        hgs = ([standard_construction(g12, h12, t) for t in ts12]
               + [standard_construction(g6, h6, t) for t in ts6])
        cat = Catalog()
        entries = [cat.insert_keyed(hg, str(i), key)
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


class TestIsomorphismList:
    def test_listed_lazily_in_order(self):
        h = group_from_spec("Z2xZ2xZ2xZ2")   # |Aut| = 20,160
        isos = classify._Isomorphisms(h, h)
        first = list(itertools.islice(isos, 3))
        assert first == list(itertools.islice(group_isomorphisms(h, h), 3))
        assert len(isos._found) == 3
        assert list(itertools.islice(isos, 5))[:3] == first
        assert len(isos._found) == 5
        h = group_from_spec("S3")
        assert list(classify._Isomorphisms(h, h)) == list(group_isomorphisms(h, h))

    def test_a_raising_run_raises_on_every_walk(self):
        def runs(h1, h2):
            yield [0, 1]
            yield [1, 0]
            raise SizeLimitExceededError("run cut short")

        isos = classify._Isomorphisms(None, None)
        with mock.patch.object(classify, "group_isomorphisms", runs):
            for _ in range(3):
                walked = []
                with pytest.raises(SizeLimitExceededError):
                    for f0 in isos:
                        walked.append(f0)
                assert walked == [[0, 1], [1, 0]]

    def test_catalog_insert_keeps_raising(self):
        # |H| = 256 is past group_isomorphisms' bound
        h = group_from_spec("x".join(["Z2"] * 8))
        hg = hypergroup_from_tables(1, h, [[0] * 256], [list(range(256))], [[0]],
                                    [[0]], 0)
        cat = Catalog()
        cat.insert(hg, "first")
        for _ in range(3):
            with pytest.raises(SizeLimitExceededError):
                cat.insert(hg, "again")


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
    return hg, image, list(f0), list(f1)


class TestInvariantKey:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=transported())
    def test_equal_on_isomorphic_copies(self, case):
        hg, image, f0, f1 = case
        assert verify_morphism(HgMorphism(hg, image, f0, f1)).ok
        assert (_invariant_key(hg, morphisms._element_keys(hg))
                == _invariant_key(image, morphisms._element_keys(image)))
        iso = find_isomorphism(hg, image)
        assert iso is not None and verify_morphism(iso).ok


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
