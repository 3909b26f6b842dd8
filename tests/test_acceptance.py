"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line
each (run with -s to see them alongside the pytest verdicts).

Each test computes its verdict first, prints the line, then asserts, so
the printed record always matches the pytest outcome.
"""

import contextlib
import io
import random
import time

from hypergroups import (
    HgMorphism,
    check_derived_identities,
    check_normal_case,
    compose,
    cyclic_group,
    enumerate_subgroups,
    enumerate_transversals,
    field_isomorphism,
    frobenius,
    functor_field,
    functor_field_on_hom,
    functor_group,
    functor_group_on_hom,
    functor_vector_space,
    functor_vector_space_on_map,
    group_from_spec,
    group_isomorphisms,
    hypergroup_from_tables,
    identity_morphism,
    is_group_quasigroup,
    is_normal,
    lemma_solve,
    make_field,
    quasigroup_divide,
    reconstruct_field,
    standard_construction,
    standard_constructions,
    subgroup_from_elements,
    symmetric_group,
    verify_axioms,
    verify_axioms_batch,
    verify_morphism,
)
from hypergroups.classify import sweep_standard
from hypergroups.cli import run as cli_run
from hypergroups.groups import builtin_groups
from hypergroups.transversals import sample_transversals


def _line(n: int, ok: bool, msg: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {msg}")


def _sweep(max_order: int):
    for group in builtin_groups(max_order):
        for h in enumerate_subgroups(group):
            for t in sample_transversals(group, h, cap=10_000, seed=0):
                yield group, h, t


def test_criterion_1_standard_construction_always_verifies():
    # one batch per (G, H), as sweep_standard builds and checks them
    t0 = time.time()
    n = 0
    failures = 0
    for group in builtin_groups(16):
        for h in enumerate_subgroups(group):
            ts = sample_transversals(group, h, cap=10_000, seed=0)
            reports = verify_axioms_batch(standard_constructions(group, h, ts))
            failures += sum(not report.overall for report in reports)
            n += len(reports)
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed <= 60.0
    _line(1, ok, f"{n} constructions over builtin groups of order <= 16, "
                 f"{failures} axiom failures, {elapsed:.1f}s (budget 60s)")
    assert ok


def test_criterion_2_solver_agreement_and_companion():
    # lemma_solve asserts the companion identity internally and raises on
    # violation, so running it everywhere covers both halves
    t0 = time.time()
    pairs = 0
    mismatches = 0
    for group, h, t in _sweep(12):
        hg = standard_construction(group, h, t)
        for a in range(hg.m_size):
            for b in range(hg.m_size):
                x1 = lemma_solve(hg, a, b)
                x2 = quasigroup_divide(hg, a, b)
                if x1 != x2 or hg.xi[x1][a] != b:
                    mismatches += 1
                pairs += 1
    ok = mismatches == 0
    _line(2, ok, f"lemma_solve == quasigroup_divide on {pairs} equations "
                 f"(|G| <= 12 exhaustive), companion condition asserted at "
                 f"every call, {mismatches} discrepancies, "
                 f"{time.time() - t0:.1f}s")
    assert ok


def test_criterion_3_derived_identities():
    t0 = time.time()
    n = 0
    bad = []
    for group, h, t in _sweep(12):
        hg = standard_construction(group, h, t)
        report = check_derived_identities(hg)
        if not report.overall:
            bad.append((group.name, h.elements, t.reps))
        n += 1
    ok = not bad
    _line(3, ok, f"all 9 derived identities hold on {n} constructions "
                 f"(|G| <= 12 exhaustive), {len(bad)} failures, "
                 f"{time.time() - t0:.1f}s")
    assert ok, bad[:3]


def test_criterion_4_normal_subgroups():
    t0 = time.time()
    reports = 0
    transversals = 0
    bad = []
    for group in builtin_groups(16):
        for h in enumerate_subgroups(group):
            if not is_normal(h):
                continue
            r = check_normal_case(group, h, transversal_cap=10_000, seed=0)
            if not r.overall:
                bad.append((group.name, h.elements))
            reports += 1
            transversals += r.info["transversals_checked"]
    # index-2 subgroups always yield a group quasigroup
    index2 = 0
    for group in builtin_groups(16):
        for h in enumerate_subgroups(group):
            if group.order // len(h.elements) != 2:
                continue
            for t in enumerate_transversals(group, h):
                if not is_group_quasigroup(standard_construction(group, h, t)):
                    bad.append(("index2", group.name, h.elements, t.reps))
                index2 += 1
    ok = not bad
    _line(4, ok, f"{reports} normal subgroups ({transversals} transversals): "
                 f"phi trivial, (M, xi) a group isomorphic to the quotient, "
                 f"transversals pairwise isomorphic; {index2} index-2 "
                 f"transversals all group quasigroups; {len(bad)} failures, "
                 f"{time.time() - t0:.1f}s")
    assert ok, bad[:3]


def test_criterion_5_nonassociative_exists_at_m3_not_below():
    witness = None
    small_violations = []
    for group, h, t in _sweep(6):
        hg = standard_construction(group, h, t)
        assoc = is_group_quasigroup(hg)
        if hg.m_size <= 2 and not assoc:
            small_violations.append((group.name, h.elements, t.reps))
        if hg.m_size == 3 and not assoc and witness is None and group.order == 6:
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        if hg.xi[hg.xi[a][b]][c] != hg.xi[a][hg.xi[b][c]]:
                            witness = (group.name, list(h.elements),
                                       list(t.reps), (a, b, c))
                            break
                    if witness:
                        break
                if witness:
                    break
    ok = witness is not None and not small_violations
    _line(5, ok, f"non-associative |M| = 3 instance found: {witness}; "
                 f"|M| <= 2 instances all associative "
                 f"({len(small_violations)} violations)")
    assert ok


def test_criterion_6_functor_suite():
    t0 = time.time()
    bad = []

    for spec in ("E", "Z2", "Z3", "Z4", "Z2xZ2", "S3"):
        if not verify_axioms(functor_group(group_from_spec(spec))).overall:
            bad.append(("group", spec))
    for q, dims in ((2, (1, 2, 3)), (3, (1, 2)), (4, (1,))):
        for d in dims:
            if not verify_axioms(functor_vector_space(make_field(q), d)).overall:
                bad.append(("vs", q, d))
    for q in (2, 3, 4, 5, 7, 8, 9):
        if not verify_axioms(functor_field(make_field(q))).overall:
            bad.append(("field", q))

    z6, z3, z2 = cyclic_group(6), cyclic_group(3), cyclic_group(2)
    group_homs = [
        (z6, z3, [x % 3 for x in range(6)]),
        (z6, z2, [x % 2 for x in range(6)]),
        (symmetric_group(3), z2, [0, 1, 1, 0, 0, 1]),
    ]
    n_group = 0
    for src, dst, f in group_homs:
        assert len(set(f)) > 1 and f != list(range(len(f)))  # nontrivial
        if verify_morphism(functor_group_on_hom(src, dst, f)).ok:
            n_group += 1
        else:
            bad.append(("group-hom", src.name, dst.name))

    gf3 = make_field(3)
    linear_maps = [
        ([[1, 1], [0, 1]], 2, 2),
        ([[2, 0], [0, 2]], 2, 2),
        ([[1, 2]], 2, 1),
    ]
    n_vs = 0
    for matrix, sd, dd in linear_maps:
        mor = functor_vector_space_on_map(gf3, matrix, sd, dd)
        assert mor.f1 != list(range(len(mor.f1)))  # nontrivial
        if verify_morphism(mor).ok:
            n_vs += 1
        else:
            bad.append(("vs-map", matrix))

    n_field = 0
    for q in (4, 8, 9):
        f = make_field(q)
        fr = frobenius(f)
        assert fr != list(range(q))  # nontrivial
        if verify_morphism(functor_field_on_hom(f, f, fr)).ok:
            n_field += 1
        else:
            bad.append(("frobenius", q))

    ok = not bad and n_group >= 3 and n_vs >= 3 and n_field >= 3
    _line(6, ok, f"all 16 functor images verify; morphism squares hold for "
                 f"{n_group} group homs, {n_vs} linear maps, {n_field} field "
                 f"homs (>= 3 each, all nontrivial), {time.time() - t0:.1f}s")
    assert ok, bad


def test_criterion_7_field_round_trip_and_diagnostics():
    t0 = time.time()
    bad = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        inp = make_field(q)
        r = reconstruct_field(functor_field(inp))
        if not (r.ok and r.field.q == q
                and field_isomorphism(r.field, inp) is not None
                and r.is_field_hypergroup):
            bad.append(("round-trip", q, r.status))
    r = reconstruct_field(functor_group(cyclic_group(3)))
    if not (r.status == "NotAdditivelyClosed" and r.witness == (1, 1)):
        bad.append(("functor_group(Z3)", r.status, r.witness))
    r = reconstruct_field(functor_vector_space(make_field(3), 2))
    if not (r.ok and r.field.q == 3 and r.is_field_hypergroup is False):
        bad.append(("functor_vs(GF(3),2)", r.status, r.is_field_hypergroup))
    elapsed = time.time() - t0
    ok = not bad and elapsed <= 5.0
    _line(7, ok, f"round-trips for q in {{2,3,4,5,7,8,9}}; functor_group(Z3) "
                 f"-> NotAdditivelyClosed (1,1); functor_vector_space(GF(3),2)"
                 f" -> scalar field GF(3) with is_field_hypergroup=False; "
                 f"{elapsed:.1f}s (budget 5s)")
    assert ok, bad


def _random_relabel(hg, rng, h_autos):
    """A random isomorphic copy with its certificate morphism."""
    m, hn = hg.m_size, hg.h.order
    p1 = list(range(m))
    rng.shuffle(p1)
    p0 = list(rng.choice(h_autos))
    inv1 = [p1.index(i) for i in range(m)]
    inv0 = [p0.index(i) for i in range(hn)]
    target = hypergroup_from_tables(
        m, hg.h,
        [[p1[hg.phi[inv1[a]][inv0[al]]] for al in range(hn)] for a in range(m)],
        [[p0[hg.psi[inv1[a]][inv0[al]]] for al in range(hn)] for a in range(m)],
        [[p1[hg.xi[inv1[a]][inv1[b]]] for b in range(m)] for a in range(m)],
        [[p0[hg.lam[inv1[a]][inv1[b]]] for b in range(m)] for a in range(m)],
        p1[hg.o],
    )
    return HgMorphism(source=hg, target=target, f0=p0, f1=p1), target


def _same_morphism(a, b):
    return (a.f0 == b.f0 and a.f1 == b.f1
            and a.source is b.source and a.target is b.target)


def test_criterion_8_category_laws():
    rng = random.Random(0)
    pool = [rep for rep in sweep_standard(6).class_reps if rep.m_size <= 4]
    autos = {}
    zn = {n: functor_group(cyclic_group(n)) for n in (3, 6, 12)}
    checked = 0
    bad = []
    for chain in range(100):
        if chain % 2 == 0:
            a_obj = pool[rng.randrange(len(pool))]
            key = id(a_obj.h)
            if key not in autos:
                autos[key] = [list(p) for p in group_isomorphisms(a_obj.h, a_obj.h)]
            u, b_obj = _random_relabel(a_obj, rng, autos[key])
            v, c_obj = _random_relabel(b_obj, rng, autos[key])
            w, _ = _random_relabel(c_obj, rng, autos[key])
        else:
            # quotient-style chain Z12 -> Z6 -> Z3 -> Z3, random multipliers
            t1, t2, t3 = (rng.randrange(1, 6), rng.randrange(1, 3),
                          rng.randrange(1, 3))
            u = functor_group_on_hom(cyclic_group(12), cyclic_group(6),
                                     [(x * t1) % 6 for x in range(12)])
            v = functor_group_on_hom(cyclic_group(6), cyclic_group(3),
                                     [(x * t2) % 3 for x in range(6)])
            w = functor_group_on_hom(cyclic_group(3), cyclic_group(3),
                                     [(x * t3) % 3 for x in range(3)])
            u = HgMorphism(source=zn[12], target=zn[6], f0=u.f0, f1=u.f1)
            v = HgMorphism(source=zn[6], target=zn[3], f0=v.f0, f1=v.f1)
            w = HgMorphism(source=zn[3], target=zn[3], f0=w.f0, f1=w.f1)
        for mor in (u, v, w):
            if not verify_morphism(mor).ok:
                bad.append((chain, "not a morphism"))
        lhs = compose(compose(u, v), w)
        rhs = compose(u, compose(v, w))
        if not _same_morphism(lhs, rhs):
            bad.append((chain, "associativity"))
        if not _same_morphism(compose(identity_morphism(u.source), u), u):
            bad.append((chain, "left identity"))
        if not _same_morphism(compose(u, identity_morphism(u.target)), u):
            bad.append((chain, "right identity"))
        checked += 1
    ok = not bad and checked == 100
    _line(8, ok, f"associativity and identity laws hold on {checked} "
                 f"composable verified-morphism chains (seed 0), "
                 f"{len(bad)} violations")
    assert ok, bad[:3]


def test_criterion_9_classification_determinism(tmp_path):
    t0 = time.time()
    outs = []
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_run(["classify", "--max-order", "8", "--out", str(d)])
        assert code == 0
        outs.append(buf.getvalue())
    identical = outs[0] == outs[1]
    files1 = sorted(p.name for p in dirs[0].iterdir())
    files2 = sorted(p.name for p in dirs[1].iterdir())
    identical = identical and files1 == files2 and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in files1
    )
    cat = sweep_standard(8)
    entries_ok = all(verify_axioms(e.hypergroup).overall for e in cat.entries)
    certs_ok = True
    for e in cat.entries:
        if e.iso_to_rep is None:
            certs_ok = certs_ok and e.hypergroup is cat.class_reps[e.class_id]
        else:
            certs_ok = certs_ok and verify_morphism(e.iso_to_rep).ok and (
                sorted(e.iso_to_rep.f1) == list(range(e.hypergroup.m_size)))
    ok = identical and entries_ok and certs_ok
    _line(9, ok, f"classify --max-order 8 twice: stdout and {len(files1)} "
                 f"exported files byte-identical={identical}; "
                 f"{len(cat.entries)} entries verify={entries_ok}; dedup "
                 f"certificates verify={certs_ok}; {time.time() - t0:.1f}s")
    assert ok


def test_criterion_10_mutation_sensitivity():
    g = symmetric_group(3)
    h = subgroup_from_elements(g, [0, 1])
    t = enumerate_transversals(g, h)[0]
    base = standard_construction(g, h, t)
    assert verify_axioms(base).overall
    ht = base.h.table.tolist()

    # (axiom, table, row, col, new value, expected witness); A0 is the
    # composition clause of P2
    mutations = [
        ("P1", "xi", 1, 2, 2, (0, 1, 2)),
        ("P2", "phi", 0, 1, 1, (0, 1, 1)),
        ("P3", "psi", 0, 1, 0, (1,)),
        ("A1", "psi", 1, 0, 1, (1, 0, 0)),
        ("A2", "xi", 0, 1, 0, (0, 1, 1)),
        ("A3", "lam", 0, 1, 1, (0, 1, 1)),
        ("A4", "xi", 0, 1, 2, (0, 1, 1)),
        ("A5", "lam", 0, 0, 1, (0, 0, 1)),
    ]
    bad = []
    for axiom, tb, i, j, v, expected in mutations:
        tabs = {k: getattr(base, k).tolist()
                for k in ("phi", "psi", "xi", "lam")}
        assert tabs[tb][i][j] != v
        tabs[tb][i][j] = v
        hg = hypergroup_from_tables(base.m_size, base.h, tabs["phi"],
                                    tabs["psi"], tabs["xi"], tabs["lam"],
                                    base.o)
        chk = verify_axioms(hg).checks[axiom]
        if chk.ok or chk.witness != expected:
            bad.append((axiom, chk.ok, chk.witness))
            continue
        phi, psi, xi, lam = hg.phi, hg.psi, hg.xi, hg.lam
        w = chk.witness
        if axiom == "P1":
            x1, x2, a = w
            replay = x1 != x2 and xi[x1][a] == xi[x2][a]
        elif axiom == "P2":
            a, al, be = w
            replay = phi[phi[a][al]][be] != phi[a][ht[al][be]]
        elif axiom == "P3":
            replay = w[0] not in [psi[hg.o][al] for al in range(hg.h.order)]
        elif axiom == "A1":
            a, al, be = w
            replay = psi[a][ht[al][be]] != ht[psi[a][al]][psi[phi[a][al]][be]]
        elif axiom == "A2":
            a, b, al = w
            replay = phi[xi[a][b]][al] != xi[phi[a][psi[b][al]]][phi[b][al]]
        elif axiom == "A3":
            a, b, al = w
            replay = (ht[lam[a][b]][psi[xi[a][b]][al]]
                      != ht[psi[a][psi[b][al]]]
                          [lam[phi[a][psi[b][al]]][phi[b][al]]])
        elif axiom == "A4":
            a, b, c = w
            replay = xi[xi[a][b]][c] != xi[phi[a][lam[b][c]]][xi[b][c]]
        else:
            a, b, c = w
            replay = (ht[lam[a][b]][lam[xi[a][b]][c]]
                      != ht[psi[a][lam[b][c]]]
                          [lam[phi[a][lam[b][c]]][xi[b][c]]])
        if not replay:
            bad.append((axiom, "witness does not replay", w))
    ok = not bad
    _line(10, ok, f"8 documented single-entry mutations (P1, P2/A0, P3, "
                  f"A1-A5) each caught with the expected witness, every "
                  f"witness replayed against its defining relation; "
                  f"{len(bad)} problems")
    assert ok, bad
