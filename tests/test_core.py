"""Hypergroup core: standard construction, axiom verification, solving,
derived identities, normal case, serialization.

Two independent routes are kept in play throughout: a scan-based oracle
rebuilds the structural tables straight from the defining
factorizations, and a plain triple-loop oracle re-evaluates every axiom
that the vectorized checker reports on. Frozen literals were computed
by hand from the Z6 / S3 examples and are re-derived here by those
oracles on every run.
"""

import copy
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import types
import zlib
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypergroups
from hypergroups import (
    AXIOM_NAMES,
    IDENTITY_NAMES,
    AlgebraError,
    FiniteGroup,
    IndexOutOfRangeError,
    InternalInconsistencyError,
    MalformedTablesError,
    MultipleSolutionsError,
    NoAmbientError,
    NoSolutionError,
    NotATransversalError,
    NotNormalError,
    ShapeMismatchError,
    builtin_groups,
    check_derived_identities,
    check_normal_case,
    compose,
    cyclic_group,
    enumerate_subgroups,
    enumerate_transversals,
    functor_field,
    functor_vector_space,
    group_from_spec,
    hypergroup_from_json,
    hypergroup_from_tables,
    hypergroup_to_json,
    identity_morphism,
    is_group_quasigroup,
    is_normal,
    lemma_solve,
    make_field,
    make_transversal,
    quasigroup_divide,
    quotient_group,
    sample_transversals,
    standard_construction,
    standard_constructions,
    subgroup_from_elements,
    symmetric_group,
    trivial_group,
    verify_axioms,
    verify_axioms_batch,
)
from hypergroups import _util, core
from hypergroups._util import canonical_dumps
from hypergroups.classify import _phi_candidates, _psi_candidates, _xi_candidates
from hypergroups.groups import CosetDecomposition, light_associative

import loop_oracles

# --------------------------------------------------------------------
# oracles


def scan_decompose(rows, h_elements, reps, x):
    """The unique (alpha, a) with alpha*a = x in the table rows, by scan."""
    pairs = [
        (alpha, a)
        for alpha in h_elements
        for a in reps
        if rows[alpha][a] == x
    ]
    assert len(pairs) == 1
    return pairs[0]


def oracle_standard_tables(group, h, t):
    """phi, psi, xi, lam rebuilt from the factorizations
    a*alpha = psi(a,alpha)*phi(a,alpha) and a*b = lam(a,b)*xi(a,b),
    with the H- and M-parts found by exhaustive scan."""
    hel = list(h.elements)
    reps = list(t.reps)
    m, hn = len(reps), len(hel)
    hidx = {x: i for i, x in enumerate(hel)}
    midx = {x: i for i, x in enumerate(reps)}
    rows = group.table.tolist()
    phi = [[0] * hn for _ in range(m)]
    psi = [[0] * hn for _ in range(m)]
    for i, a in enumerate(reps):
        for j, al in enumerate(hel):
            alpha2, a2 = scan_decompose(rows, hel, reps, rows[a][al])
            phi[i][j] = midx[a2]
            psi[i][j] = hidx[alpha2]
    xi = [[0] * m for _ in range(m)]
    lam = [[0] * m for _ in range(m)]
    for i, a in enumerate(reps):
        for k, b in enumerate(reps):
            alpha2, c = scan_decompose(rows, hel, reps, rows[a][b])
            xi[i][k] = midx[c]
            lam[i][k] = hidx[alpha2]
    return phi, psi, xi, lam


def results(report):
    return {k: (c.ok, c.witness, c.detail) for k, c in report.checks.items()}


def all_small_hypergroups(max_order):
    for spec in ("E", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3",
                 "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8",
                 "Z9", "Z3xZ3", "Z10", "D5", "Z12", "Z2xZ6", "D6", "Z2xS3"):
        g = group_from_spec(spec)
        if g.order > max_order:
            continue
        for h in enumerate_subgroups(g):
            for t in enumerate_transversals(g, h, limit=6):
                yield g, h, t


def with_cell(hg, name, i, j, v):
    """hg with cell (i, j) of one table set to v: a new hypergroup, made
    by dataclasses.replace so the tables are checked again."""
    table = getattr(hg, name).tolist()
    table[i][j] = v
    return replace(hg, **{name: table})


def a3_links(hg):
    """The A3 instances as links (c1, c2, t, s) between lam cells: A3 at
    (a, b, al) says lam[c1] * t = s * lam[c2] for c1 = (a, b),
    c2 = (a', phi[b][al]), a' = phi[a][psi[b][al]], t = psi[xi[a][b]][al]
    and s = psi[a][psi[b][al]]; {cell: the links at it}."""
    phi, psi, xi = hg.phi.tolist(), hg.psi.tolist(), hg.xi.tolist()
    links = {}
    for a, b, al in itertools.product(range(hg.m_size), range(hg.m_size),
                                      range(hg.h.order)):
        link = ((a, b), (phi[a][psi[b][al]], phi[b][al]),
                psi[xi[a][b]][al], psi[a][psi[b][al]])
        links.setdefault(link[0], []).append(link)
        links.setdefault(link[1], []).append(link)
    return links


def a3_force(hg, links, lam, cell, value):
    """Set lam[cell] = value and the unset (-1) cells A3 links to it, in
    place; False when a link fails."""
    ht, hinv = hg.h.table.tolist(), hg.h.inverse
    lam[cell[0]][cell[1]] = value
    todo = [cell]
    while todo:
        for (a1, b1), (a2, b2), t, s in links.get(todo.pop(), ()):
            v1, v2 = lam[a1][b1], lam[a2][b2]
            if v1 >= 0 and v2 >= 0:
                if ht[v1][t] != ht[s][v2]:
                    return False
            elif v1 >= 0:
                lam[a2][b2] = ht[hinv[s]][ht[v1][t]]
                todo.append((a2, b2))
            else:
                lam[a1][b1] = ht[ht[s][v2]][hinv[t]]
                todo.append((a1, b1))
    return True


def a3_respecting_mutant(hg, cell, value):
    """hg with lam[cell] = value and the cells A3 links to cell forced to
    agree, so A3 still holds; None when the forcing meets a conflict."""
    links = a3_links(hg)
    lam = hg.lam.tolist()
    component, todo = {cell}, [cell]
    while todo:
        for c1, c2, _, _ in links.get(todo.pop(), ()):
            for c in (c1, c2):
                if c not in component:
                    component.add(c)
                    todo.append(c)
    for a, b in component:
        lam[a][b] = -1
    return replace(hg, lam=lam) if a3_force(hg, links, lam, cell, value) else None


def every_a3_lam(hg):
    """Every lam table with which hg satisfies A3."""
    links = a3_links(hg)
    cells = list(itertools.product(range(hg.m_size), repeat=2))

    def search(lam):
        cell = next((c for c in cells if lam[c[0]][c[1]] < 0), None)
        if cell is None:
            yield lam
            return
        for value in range(hg.h.order):
            trial = [row[:] for row in lam]
            if a3_force(hg, links, trial, cell, value):
                yield from search(trial)

    yield from search([[-1] * hg.m_size for _ in range(hg.m_size)])


def z6_example():
    g = cyclic_group(6)
    h = subgroup_from_elements(g, [0, 3])
    t = make_transversal(g, h, [0, 1, 2])
    return g, h, t, standard_construction(g, h, t)


# --------------------------------------------------------------------
# standard construction


class TestStandardConstruction:
    def test_z6_frozen_tables(self):
        g, h, t, hg = z6_example()
        # 1+2 = 3 = 3*0 in Z6: M-part index 0, H-part 3 (subgroup index 1)
        assert hg.xi.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert hg.lam.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 1]]
        assert hg.phi.tolist() == [[0, 0], [1, 1], [2, 2]]  # abelian: trivial
        assert hg.psi.tolist() == [[0, 1], [0, 1], [0, 1]]
        assert hg.o == 0
        assert hg.xi[1][2] == 0
        assert hg.lam[1][2] == 1
        assert hg.ambient.h_to_parent[1] == 3

    def test_matches_scan_oracle(self):
        for g, h, t in all_small_hypergroups(8):
            hg = standard_construction(g, h, t)
            phi, psi, xi, lam = oracle_standard_tables(g, h, t)
            label = (g.name, h.elements, t.reps)
            assert hg.phi.tolist() == phi, label
            assert hg.psi.tolist() == psi, label
            assert hg.xi.tolist() == xi, label
            assert hg.lam.tolist() == lam, label
            assert hg.o == 0  # identity coset is always coset 0

    def test_raw_reps_accepted(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        hg1 = standard_construction(g, h, [0, 1, 2])
        hg2 = standard_construction(g, h, make_transversal(g, h, [0, 1, 2]))
        assert hg1.xi.tolist() == hg2.xi.tolist()
        assert hg1.lam.tolist() == hg2.lam.tolist()

    def test_rejects_non_transversal(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        with pytest.raises(NotATransversalError):
            standard_construction(g, h, [0, 3, 1])

    def test_rejects_foreign_transversal(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [0, 1, 2])
        g2 = symmetric_group(3)
        h2 = subgroup_from_elements(g2, [0, 1])
        with pytest.raises(NotATransversalError):
            standard_construction(g2, h2, t)

    def test_trivial_cases(self):
        g = symmetric_group(3)
        # H = G: M is a single point
        h = subgroup_from_elements(g, list(range(6)))
        hg = standard_construction(g, h, [0])
        assert hg.m_size == 1 and verify_axioms(hg).overall
        # H = {e}: M = G and xi is the group table
        h = subgroup_from_elements(g, [0])
        hg = standard_construction(g, h, list(range(6)))
        assert hg.xi.tolist() == g.table.tolist()
        assert all(v == 0 for row in hg.lam.tolist() for v in row)


# --------------------------------------------------------------------
# axiom verification


class TestVerifyAxioms:
    def test_names_and_order(self):
        assert AXIOM_NAMES == ("P1", "P2", "P3", "A1", "A2", "A3", "A4", "A5")
        _, _, _, hg = z6_example()
        assert tuple(verify_axioms(hg).checks) == AXIOM_NAMES

    def test_constructions_pass_and_match_loop_oracle(self):
        for g, h, t in all_small_hypergroups(8):
            hg = standard_construction(g, h, t)
            report = verify_axioms(hg)
            assert report.overall, (g.name, h.elements, t.reps,
                                    report.failing())
            assert results(report) == loop_oracles.verify_axioms(hg)

    def test_vectorized_verdicts_match_loop_oracle_on_mutations(self):
        # mutate every entry of every table once; the two routes must
        # agree axiom by axiom on verdict, witness and detail
        _, _, _, hg = z6_example()
        tables = ("phi", "psi", "xi", "lam")
        # value ranges: phi and xi take values in M, psi and lam in H
        sizes = {"phi": 3, "psi": 2, "xi": 3, "lam": 2}
        for tname in tables:
            base = getattr(hg, tname)
            for i in range(len(base)):
                for j in range(len(base[0])):
                    for v in range(sizes[tname]):
                        if v == base[i][j]:
                            continue
                        mutated = with_cell(hg, tname, i, j, v)
                        got = results(verify_axioms(mutated))
                        expect = loop_oracles.verify_axioms(mutated)
                        assert got == expect, (tname, i, j, v)

    def test_one_cell_mutations_of_a_non_normal_case(self):
        # S4 over a subgroup of order 3 (not normal, |M| = 8): every cell
        # of every table moved to one other value, each mutant evaluated
        # in full at the default block, alone and in one batch
        g = symmetric_group(4)
        h = next(s for s in enumerate_subgroups(g) if s.order == 3)
        assert not is_normal(h)
        hg = standard_construction(g, h, sample_transversals(g, h, cap=1)[0])
        assert (hg.m_size, hg.h.order) == (8, 3) and core._items_per_block(8, 3)
        mutants = [with_cell(hg, name, i, j, (v + 1 + (i + j) % 2) % vrange)
                   for name, vrange in (("phi", 8), ("psi", 3), ("xi", 8), ("lam", 3))
                   for (i, j), v in np.ndenumerate(getattr(hg, name))]
        assert len(mutants) == 2 * 8 * 3 + 2 * 8 * 8
        expected = [loop_oracles.verify_axioms(x) for x in mutants]
        assert [results(verify_axioms(x)) for x in mutants] == expected
        assert [results(r) for r in verify_axioms_batch(mutants)] == expected
        # every axiom fails on some mutant, and only A5 on all of them
        assert [name for name in AXIOM_NAMES
                if {e[name][0] for e in expected} != {True, False}] == ["A5"]

    def test_p1_neutral_witness(self):
        _, _, _, hg = z6_example()
        hg = with_cell(hg, "xi", 0, 1, 0)
        rep = verify_axioms(hg)
        assert not rep.checks["P1"].ok
        assert rep.checks["P1"].witness == (0, 1)

    def test_p1_column_witness(self):
        _, _, _, hg = z6_example()
        hg = with_cell(hg, "xi", 1, 1, 0)  # column 1 becomes (1, 0, 0)
        rep = verify_axioms(hg)
        assert not rep.checks["P1"].ok
        x1, x2, a = rep.checks["P1"].witness
        assert a == 1 and hg.xi[x1][a] == hg.xi[x2][a] and x1 != x2

    def test_p2_unit_witness(self):
        _, _, _, hg = z6_example()
        hg = with_cell(hg, "phi", 2, 0, 0)
        rep = verify_axioms(hg)
        assert rep.checks["P2"].witness == (2,)

    def test_p3_witness(self):
        _, _, _, hg = z6_example()
        hg = with_cell(hg, "psi", 0, 1, 0)  # image of psi[o] loses 1
        rep = verify_axioms(hg)
        assert not rep.checks["P3"].ok
        assert rep.checks["P3"].witness == (1,)

    def test_failing_list(self):
        _, _, _, hg = z6_example()
        hg = with_cell(hg, "xi", 0, 1, 0)
        rep = verify_axioms(hg)
        assert "P1" in rep.failing() and not rep.overall

    def test_malformed_shapes(self):
        g, h, t, hg = z6_example()
        phi = hg.phi.tolist()
        phi[1] = [1]  # ragged
        with pytest.raises(MalformedTablesError):
            replace(hg, phi=phi)
        with pytest.raises(MalformedTablesError) as ei:
            hypergroup_from_tables(
                3, hg.h, hg.phi, hg.psi,
                [[0, 1, 2], [1, 2, 0], [2, 0, 9]], hg.lam, 0,
            )
        assert "xi[2][2]" in str(ei.value)

    def test_report_to_dict(self):
        _, _, _, hg = z6_example()
        d = verify_axioms(hg).to_dict()
        assert d["overall"] is True
        assert set(d["axioms"]) == set(AXIOM_NAMES)

    @pytest.mark.parametrize("table, row, cells, location, message", [
        ("phi", 1, [1], "phi[1]", "expected 2 columns, got 1"),
        ("lam", 0, [0, -1, 0], "lam[0][1]", "value -1 outside [0, 2)"),
        ("psi", 2, [0, 2 ** 70], "psi[2][1]",
         f"value {2 ** 70} outside [0, 2)"),
    ])
    def test_malformed_cell_messages(self, table, row, cells, location, message):
        _, _, _, hg = z6_example()
        rows = getattr(hg, table).tolist()
        rows[row] = cells
        with pytest.raises(MalformedTablesError) as ei:
            replace(hg, **{table: rows})
        assert (ei.value.location, str(ei.value)) == (
            location, f"{location}: {message}")

    def test_malformed_first_fault_in_row_order(self):
        # a bad value before a ragged row is reported first, and the
        # row count before either
        _, _, _, hg = z6_example()
        xi = hg.xi.tolist()
        xi[0] = [0, 1, 5]
        xi[1] = [1]
        with pytest.raises(MalformedTablesError, match=r"^xi\[0\]\[2\]: "):
            replace(hg, xi=xi)
        xi[0] = [0, 1, 2]
        with pytest.raises(MalformedTablesError, match=r"^xi\[1\]: expected 3 columns"):
            replace(hg, xi=xi)
        xi.append([0, 1, 2])
        with pytest.raises(MalformedTablesError, match=r"^xi: expected 3 rows, got 4$"):
            replace(hg, xi=xi)
        with pytest.raises(MalformedTablesError,
                           match=r"^o: value 3 outside \[0, 3\)$"):
            replace(hg, o=3)

    def test_tables_edited_after_a_verify_are_reread(self):
        g = symmetric_group(3)
        h = subgroup_from_elements(g, [0, 1])
        hg = standard_construction(g, h, enumerate_transversals(g, h)[0])
        assert verify_axioms(hg).overall
        # the tables are read-only, so a verified hypergroup stays verified
        with pytest.raises(ValueError, match="read-only"):
            hg.xi[1, 1], hg.xi[2, 1] = hg.xi[2, 1], hg.xi[1, 1]
        assert verify_axioms(hg).overall
        xi = hg.xi.tolist()
        xi[1][1], xi[2][1] = xi[2][1], xi[1][1]
        swapped = replace(hg, xi=xi)
        report = verify_axioms(swapped)
        fresh = hypergroup_from_tables(hg.m_size, hg.h, hg.phi, hg.psi,
                                       xi, hg.lam, hg.o)
        assert not report.overall
        assert {"A2", "A4", "A5"} <= set(report.failing())
        assert results(report) == results(verify_axioms(fresh))
        assert results(report) == loop_oracles.verify_axioms(swapped)

    @pytest.mark.skipif(sys.platform == "win32", reason="needs resource")
    def test_memory_bounded_at_m_256(self):
        # whole-cube temporaries at |M| = 256 would take 128 MiB each
        assert verify_z2_power_in_child(8, timeout=120) <= 128 * 1024

    @pytest.mark.skipif(sys.platform == "win32", reason="needs resource")
    def test_memory_and_time_bounded_at_m_512(self):
        # the cubic A4/A5 scans alone take seconds here; the product
        # table on H x M decides them
        assert verify_z2_power_in_child(9, timeout=60) <= 128 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM")
    def test_child_peak_excludes_the_starting_process(self):
        # the helper runs under a process that first touches 200 MiB: the
        # peak it reports is the child's alone, not that high-water mark
        code = (
            "import resource, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "ballast = bytearray(b'\\x01') * (200 * 2**20)\n"
            "from test_core import verify_z2_power_in_child\n"
            "print(verify_z2_power_in_child(4, timeout=60))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        child_kib, own_kib = map(int, proc.stdout.split())
        assert own_kib >= 200 * 1024
        assert child_kib <= 128 * 1024


def child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(hypergroups.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def verify_z2_power_in_child(k, timeout):
    """Peak RSS in KiB of a fresh interpreter that checks that Z2^k over
    the trivial subgroup passes verify_axioms, within timeout seconds.
    On Linux that is the child's VmHWM: its ru_maxrss starts from the
    high-water mark of the process that started it, which survives fork
    and exec. Elsewhere it is ru_maxrss."""
    code = (
        "import resource, sys\n"
        "from hypergroups import (group_from_spec, standard_construction,\n"
        "    subgroup_from_elements, verify_axioms)\n"
        f"g = group_from_spec('x'.join(['Z2'] * {k}))\n"
        "hg = standard_construction(g, subgroup_from_elements(g, [0]),\n"
        f"                           list(range({2 ** k})))\n"
        "print(verify_axioms(hg).overall)\n"
        "if sys.platform.startswith('linux'):\n"
        "    with open('/proc/self/status') as status:\n"
        "        print(status.read().split('VmHWM:')[1].split()[0])\n"
        "else:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print(peak // 1024 if sys.platform == 'darwin' else peak)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    overall, peak_kib = proc.stdout.split()
    assert overall == "True"
    return int(peak_kib)


@st.composite
def verify_inputs(draw):
    """A standard construction, half the time with one table entry
    changed to another in-range value."""
    g = group_from_spec(draw(st.sampled_from(
        ["Z4", "Z2xZ2", "Z6", "S3", "D4", "Q8", "Z2xZ4", "Z8"])))
    h = draw(st.sampled_from(enumerate_subgroups(g)))
    hg = standard_construction(
        g, h, draw(st.sampled_from(enumerate_transversals(g, h, limit=6))))
    if draw(st.booleans()):
        name = draw(st.sampled_from(["phi", "psi", "xi", "lam"]))
        rows, cols = getattr(hg, name).shape
        limit = hg.m_size if name in ("phi", "xi") else hg.h.order
        hg = with_cell(hg, name, draw(st.integers(0, rows - 1)),
                       draw(st.integers(0, cols - 1)),
                       draw(st.integers(0, limit - 1)))
    return hg


class TestVerifyAgainstLoops:
    # small blocks split every scan into many, so witnesses are found
    # past block boundaries and in blocks other than the first
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(hg=verify_inputs(), block=st.sampled_from([1, 7, 64]))
    def test_results_match_loops(self, hg, block):
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            report = verify_axioms(hg)
        assert results(report) == loop_oracles.verify_axioms(hg)


@functools.cache
def subgroups_of(spec):
    g = group_from_spec(spec)
    return g, enumerate_subgroups(g)


# --------------------------------------------------------------------
# batches per (G, H)


class TestStandardConstructions:
    @pytest.mark.parametrize("block", [_util.BLOCK_CELLS, 64])
    def test_equal_one_at_a_time(self, block):
        # at block 64 every (G, H) with |M| > 1 is built in several chunks
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            for g in builtin_groups(12):
                for h in enumerate_subgroups(g):
                    ts = sample_transversals(g, h)
                    singles = [standard_construction(g, h, t) for t in ts]
                    for k in (0, 1, len(ts)):
                        assert standard_constructions(g, h, ts[:k]) == singles[:k]

    def test_reps_and_transversals_mix(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [0, 1, 2])
        assert (standard_constructions(g, h, [t, [3, 4, 2], (0, 1, 5)])
                == [standard_construction(g, h, r) for r in (t, [3, 4, 2], [0, 1, 5])])

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_a_foreign_transversal_at_any_position(self, position):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        ts = sample_transversals(g, h)[:3]
        foreign = make_transversal(symmetric_group(3), subgroup_from_elements(
            symmetric_group(3), [0, 1]), [0, 2, 4])
        with pytest.raises(NotATransversalError):
            standard_constructions(g, h, ts[:position] + [foreign] + ts[position:])
        with pytest.raises(NotATransversalError):
            standard_constructions(g, h, ts[:position] + [[0, 3, 1]] + ts[position:])
        dec = ts[0].decomposition
        other_cosets = replace(ts[0], decomposition=CosetDecomposition(
            h, dec.cosets, tuple((c + 1) % 3 for c in dec.coset_of)))
        with pytest.raises(NotATransversalError):
            standard_constructions(g, h, ts[:position] + [other_cosets] + ts[position:])

    def test_an_h_part_outside_h(self):
        # Z6 with every element declared its own inverse: 1 * 1 = 2 is
        # taken for the h-part of 1, and 2 is not in {0, 3}
        z6 = cyclic_group(6)
        g = FiniteGroup(6, z6.table, 0, list(range(6)), "Z6'")
        h = subgroup_from_elements(g, [0, 3])
        for call in (lambda: standard_construction(g, h, [0, 1, 2]),
                     lambda: standard_constructions(g, h, sample_transversals(g, h))):
            with pytest.raises(InternalInconsistencyError,
                               match="h-part outside the subgroup"):
                call()

    @staticmethod
    def batch_items(max_order=12, seed=None):
        """(G, H, the transversals, their standard_constructions) for each
        (G, H) with |G| <= max_order: every transversal, or, with a
        seed, three sampled ones of each (G, H) with |G| = max_order."""
        for g in builtin_groups(max_order):
            if seed is not None and g.order != max_order:
                continue
            for h in enumerate_subgroups(g):
                ts = (enumerate_transversals(g, h) if seed is None
                      else sample_transversals(g, h, cap=3, seed=seed))
                yield g, h, ts, standard_constructions(g, h, ts)

    @pytest.mark.parametrize("max_order, seed", [(12, None), (16, 5)])
    def test_items_equal_checked_tables_and_own_them(self, max_order, seed):
        count = 0
        for g, h, ts, hgs in self.batch_items(max_order, seed):
            assert len(hgs) == len(ts)
            for t, hg in zip(ts, hgs):
                assert hg == hypergroup_from_tables(
                    len(t.reps), h.as_group(), *oracle_standard_tables(g, h, t), 0,
                    ambient=core.Ambient(group=g, subgroup=h, transversal=t))
                for name in TABLES:
                    table = getattr(hg, name)
                    assert table.dtype == np.intp and not table.flags.writeable
                    assert table.base is None and table.flags.owndata
            # arrays that each own their memory share it only if they
            # are the same array
            tables = [getattr(hg, name) for hg in hgs for name in TABLES]
            assert len(set(map(id, tables))) == len(tables)
            count += len(hgs)
        assert count == (2690 if seed is None else 578)

    @pytest.mark.parametrize("block", [_util.BLOCK_CELLS, 64])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_an_h_part_outside_h_in_one_item_of_a_batch(self, position, block):
        # Z6 with 4 declared its own inverse (it is 2): the h-part of
        # 4 * 0 = 4 is taken as 4 * 4 = 2, not in {0, 3}, so only the
        # transversals with the representative 4 fail
        z6 = cyclic_group(6)
        g = FiniteGroup(6, z6.table, 0, [0, 5, 4, 3, 4, 1], "Z6'")
        h = subgroup_from_elements(g, [0, 3])
        ts = enumerate_transversals(g, h)
        good = [t for t in ts if 4 not in t.reps]
        bad = next(t for t in ts if 4 in t.reps)
        batch = {"first": [bad] + good, "middle": good[:2] + [bad] + good[2:],
                 "last": good + [bad]}[position]
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            assert len(standard_constructions(g, h, good)) == len(good) == 4
            with pytest.raises(InternalInconsistencyError,
                               match="^factorization produced an h-part outside the subgroup$"):
                standard_constructions(g, h, batch)

    @pytest.mark.parametrize("value", [3, 6, -1, -3])
    def test_a_coset_index_out_of_range(self, value):
        # a hand-made decomposition of Z6 by {0, 3} whose index of 5 is
        # outside [0, 3): refused before any table is gathered
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        ts = sample_transversals(g, h)
        dec = ts[0].decomposition
        wrong = CosetDecomposition(h, dec.cosets, dec.coset_of[:5] + (value,))
        moved = [replace(t, decomposition=wrong) for t in ts]
        for call in (lambda: standard_construction(g, h, moved[0]),
                     lambda: standard_constructions(g, h, moved)):
            with pytest.raises(InternalInconsistencyError, match=r"outside \[0, 3\)"):
                call()


@st.composite
def batch_inputs(draw):
    """The standard constructions of some transversals of one (G, H),
    one of them with one cell of phi, psi, xi or lam changed."""
    g, subgroups = subgroups_of(draw(st.sampled_from(
        ["Z4", "Z2xZ2", "Z6", "S3", "D4", "Q8", "Z2xZ4", "Z8", "D6", "Z12"])))
    h = draw(st.sampled_from(subgroups))
    ts = sample_transversals(g, h, cap=draw(st.integers(1, 12)),
                             seed=draw(st.integers(0, 3)))
    hgs = standard_constructions(g, h, ts)
    i = draw(st.integers(0, len(hgs) - 1))
    name = draw(st.sampled_from(TABLES))
    rows, cols = getattr(hgs[i], name).shape
    limit = hgs[i].m_size if name in ("phi", "xi") else hgs[i].h.order
    hgs[i] = with_cell(hgs[i], name, draw(st.integers(0, rows - 1)),
                       draw(st.integers(0, cols - 1)), draw(st.integers(0, limit - 1)))
    return hgs


class TestVerifyAxiomsBatch:
    # at 16 and 256 cells the chunks of small |M| split the batch; at 1
    # (and past |M| = 6 at 256) every item goes through verify_axioms
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(hgs=batch_inputs(), block=st.sampled_from([1, 16, 256]))
    def test_reports_match_one_at_a_time(self, hgs, block):
        expected = [verify_axioms(hg).to_dict() for hg in hgs]
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            reports = verify_axioms_batch(hgs)
        assert [report.to_dict() for report in reports] == expected
        for hg, report in zip(hgs, reports):
            assert results(report) == loop_oracles.verify_axioms(hg)

    def test_failures_take_witnesses_from_their_masks(self):
        # items within the block never re-enter verify_axioms: a failing
        # item's witnesses come from its own masks
        g = group_from_spec("D4")
        h = subgroup_from_elements(g, [0, 4])
        hgs = standard_constructions(g, h, sample_transversals(g, h))
        hgs[3] = with_cell(hgs[3], "lam", 1, 2, 1 - hgs[3].lam[1, 2])
        hgs[9] = with_cell(hgs[9], "xi", 0, 1, 0)
        with mock.patch.object(core, "verify_axioms", wraps=core.verify_axioms) as spy:
            reports = verify_axioms_batch(hgs)
        assert spy.call_count == 0
        assert [i for i, r in enumerate(reports) if not r.overall] == [3, 9]
        for i in (3, 9):
            assert results(reports[i]) == loop_oracles.verify_axioms(hgs[i])
        assert reports[0].to_dict() == verify_axioms(hgs[0]).to_dict()
        assert reports[0] is not reports[1]
        assert reports[0].checks["P1"] is not reports[1].checks["P1"]

    def test_items_past_the_block_go_one_at_a_time(self):
        # |M| = 8 over E: the |M|^3 cube spans two blocks, the others fit
        # one, and Light's test decides A4 and A5 on these passing items
        g = group_from_spec("Z2xZ2xZ2")
        h = subgroup_from_elements(g, [0])
        hgs = standard_constructions(g, h, sample_transversals(g, h)) * 3
        scan = mock.Mock(wraps=_util.first_failure)
        with mock.patch.object(_util, "BLOCK_CELLS", 8 ** 3 - 1), \
                mock.patch.object(core, "_scan_axioms", wraps=core._scan_axioms) as scanned, \
                mock.patch.object(_util, "first_failure", scan), \
                mock.patch.object(core, "first_failure", scan):
            reports = verify_axioms_batch(hgs)
        assert [call.args[0] for call in scanned.call_args_list] == hgs
        # no scan covers the |M|^3 cube: A4 and A5 are never scanned in full
        assert {(tuple(name for name, _ in c.args[1]), c.args[0])
                for c in scan.call_args_list} == {
            (("P2", "A1"), (8, 1, 1)), (("A2", "A3"), (8, 8, 1))}
        assert all(r.overall for r in reports)

    def test_block_splitting_the_cubes(self):
        # |M| = 3 over |H| = 4 at 27 cells: the |M|^3 cube fits the block,
        # the |M||H|^2 one does not, so both entry points scan
        g = group_from_spec("D6")
        h = subgroup_from_elements(g, [0, 3, 6, 9])
        hg = standard_construction(g, h, sample_transversals(g, h, cap=1)[0])
        hgs = [hg] + [with_cell(hg, name, i, j, v) for name in TABLES
                      for i, j in np.ndindex(getattr(hg, name).shape)
                      for v in range(4 if name in ("psi", "lam") else 3)
                      if v != getattr(hg, name)[i, j]]
        with mock.patch.object(_util, "BLOCK_CELLS", 27):
            assert 3 ** 3 == _util.BLOCK_CELLS < 3 * 4 * 4
            assert core._items_per_block(3, 4) == 0
            singles = [verify_axioms(x) for x in hgs]
            batch = verify_axioms_batch(hgs)
        expected = [loop_oracles.verify_axioms(x) for x in hgs]
        assert expected[0] == {name: (True, None, "") for name in AXIOM_NAMES}
        assert sum(all(ok for ok, _, _ in e.values()) for e in expected) < len(hgs) // 2
        assert [results(r) for r in singles] == expected
        assert [results(r) for r in batch] == expected

    def test_empty_and_mixed_batches(self):
        assert verify_axioms_batch([]) == []
        g = group_from_spec("S3")
        subgroups = enumerate_subgroups(g)
        by_order = {h.order: standard_constructions(g, h, sample_transversals(g, h))
                    for h in subgroups}
        with pytest.raises(ShapeMismatchError):
            verify_axioms_batch(by_order[2][:1] + by_order[3][:1])
        hg = by_order[2][0]
        with pytest.raises(ShapeMismatchError):
            verify_axioms_batch([hg, replace(hg, o=1)])
        other_h = FiniteGroup(2, hg.h.table, 1, [0, 1], "H")
        with pytest.raises(ShapeMismatchError):
            verify_axioms_batch([hg, replace(hg, h=other_h)])


@st.composite
def identity_inputs(draw):
    """Two to four standard constructions of one (G, H) with |G| <= 24,
    of distinct transversals where there are enough: the first as built,
    each other one with one or two cells of phi, psi, xi or lam changed,
    or not; and a quarter of the time one or two cells of the H table
    they share changed, so that H need not be a group."""
    g, subgroups = subgroups_of(draw(st.sampled_from(
        ["Z4", "S3", "D4", "Q8", "Z2xZ4", "D5", "Z12", "D6", "Z2xS3", "Z2xD4",
         "Z16", "Z3xS3", "Z2xQ8", "S4", "D8", "Z4xZ6"])))
    h = draw(st.sampled_from(subgroups))
    k = draw(st.integers(2, 4))
    ts = sample_transversals(g, h, cap=k, seed=draw(st.integers(0, 3)))
    # H = G or H = 1 has one transversal, built again for each item
    hgs = standard_constructions(g, h, [ts[i % len(ts)] for i in range(k)])
    m, hn = hgs[0].m_size, h.order
    h_table = h.as_group().table.tolist()
    for _ in range(draw(st.integers(1, 2)) if draw(st.integers(0, 3)) == 0 else 0):
        h_table[draw(st.integers(0, hn - 1))][draw(st.integers(0, hn - 1))] = draw(
            st.integers(0, hn - 1))
    h_group = FiniteGroup(hn, h_table, h.as_group().identity, list(h.as_group().inverse), "H")
    out = []
    for i, hg in enumerate(hgs):
        tables = {name: getattr(hg, name).tolist() for name in TABLES}
        for _ in range(draw(st.integers(0, 2)) if i else 0):
            name = draw(st.sampled_from(TABLES))
            row = tables[name][draw(st.integers(0, m - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.integers(0, (m if name in ("phi", "xi") else hn) - 1))
        out.append(hypergroup_from_tables(m, h_group, o=hg.o, **tables))
    return out


# the masks of loop_oracles.axiom_masks that are the M- and H-parts of
# facts (2), (4) and (5), and the one of each cubic check by its name in
# the first failures of core (A0 decides P2)
IDENTITY_PARTS = (("A0", "A1"), ("A2", "A3"), ("A4", "A5"))
MASK_OF = {"P2": "A0", "A1": "A1", "A2": "A2", "A3": "A3", "A4": "A4", "A5": "A5"}


class TestProductIdentities:
    """One block is decided by the three identities of the product on
    H x M (verify_axioms' facts (2), (4) and (5)), with (ga, c) encoded
    as ga*|M| + c."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(hgs=identity_inputs())
    def test_parts_are_the_masks_and_the_count_decides(self, hgs):
        m, hn = hgs[0].m_size, hgs[0].h.order
        masks = [loop_oracles.axiom_masks(hg) for hg in hgs]
        parts = list(core._Stack(hgs).products())
        for (lhs, rhs), names in zip(parts, IDENTITY_PARTS):
            assert lhs.shape == rhs.shape and lhs.min() >= 0 and lhs.max() < hn * m
            for part, name in zip((lhs % m != rhs % m, lhs // m != rhs // m), names):
                assert np.array_equal(part, np.stack([mask[name] for mask in masks]))
        # the witnesses are the first failing cells of the masks, and the
        # count decides
        found = core._block_failures(core._Stack(hgs))
        assert [{name: at for name, at in f.items() if name in MASK_OF} for f in found] == [
            {name: tuple(np.argwhere(mask[of])[0].tolist())
             for name, of in MASK_OF.items() if mask[of].any()} for mask in masks]
        assert [core._block_failures(core._Stack([hg]))[0] for hg in hgs] == found
        expected = [loop_oracles.verify_axioms(hg) for hg in hgs]
        assert [not f for f in found] == [all(ok for ok, _, _ in e.values()) for e in expected]
        # one chunk of k > 1 items, the first of them unchanged
        assert core._items_per_block(m, hn) >= len(hgs) > 1
        assert [results(report) for report in verify_axioms_batch(hgs)] == expected
        assert [results(verify_axioms(hg)) for hg in hgs] == expected

    def test_a_failure_of_p3_alone_is_found(self):
        # (M, xi) = Z3 with H = Z2 acting trivially and psi = lam = eps
        # passes every check but P3: the image of psi[o] is {eps}
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        good = standard_construction(g, h, [0, 1, 2])
        bad = hypergroup_from_tables(3, good.h, [[0, 0], [1, 1], [2, 2]], np.zeros((3, 2), int),
                                     cyclic_group(3).table, np.zeros((3, 3), int), 0)
        p3 = (False, (1,), "1 not in the image of psi[0]")
        assert loop_oracles.verify_axioms(bad) == {
            name: p3 if name == "P3" else (True, None, "") for name in AXIOM_NAMES}
        assert core._block_failures(core._Stack([bad])) == [{"image": (1,)}]
        assert core._block_failures(core._Stack([good, bad, good])) == [{}, {"image": (1,)}, {}]
        assert [results(r) for r in verify_axioms_batch([good, bad, good])] == [
            loop_oracles.verify_axioms(x) for x in (good, bad, good)]

    def test_a_passed_report_shares_one_frozen_result(self):
        g = group_from_spec("S3")
        h = subgroup_from_elements(g, [0, 1])
        first, second = (verify_axioms(hg) for hg in standard_constructions(
            g, h, sample_transversals(g, h)[:2]))
        assert first.to_dict() == second.to_dict() == {
            "overall": True, "axioms": {name: {"ok": True, "witness": None, "detail": ""}
                                        for name in AXIOM_NAMES}}
        # one frozen result stands for every passed check of a report
        assert len({id(check) for check in first.checks.values()}) == 1
        assert first.checks["P1"] is not second.checks["P1"]
        with pytest.raises(AttributeError):
            first.checks["P1"].ok = False


def normal_pairs(max_order):
    return [(g, h) for g in builtin_groups(max_order)
            for h in enumerate_subgroups(g) if is_normal(h)]


def mutated_constructions(pattern):
    """standard_constructions with each hypergroup changed as the entry
    of pattern that the CRC of its transversal's reps picks says, the
    same in a batch as alone: "phi" sets phi[|M|-1][0] to 0, "relabel"
    swaps the labels 1 and 2 of xi (a group, the quotient's table unless
    that swap is an automorphism), "cyclic" puts the table of Z_|M| in
    xi, and "break" moves xi[|M|-1][|M|-1] on by one (no longer a
    group); None leaves it."""
    real = core.standard_constructions

    def mutate(hg, how):
        m, xi = hg.m_size, hg.xi
        if how == "phi" and m > 1:
            return with_cell(hg, "phi", m - 1, 0, 0)
        if how == "relabel" and m > 2:
            p = np.arange(m)
            p[[1, 2]] = [2, 1]
            return replace(hg, xi=p[xi[p][:, p]])
        if how == "cyclic":
            return replace(hg, xi=(np.arange(m)[:, None] + np.arange(m)) % m)
        if how == "break" and m > 1:
            return with_cell(hg, "xi", m - 1, m - 1, (xi[m - 1, m - 1] + 1) % m)
        return hg

    def constructions(*args):
        return [mutate(hg, pattern[zlib.crc32(repr(hg.ambient.m_to_parent).encode())
                                   % len(pattern)])
                for hg in real(*args)]
    return constructions


class TestNormalCaseBatch:
    @pytest.mark.parametrize("spec", [g.name for g in builtin_groups(16)])
    def test_reports_match_one_at_a_time(self, spec):
        for g, h in normal_pairs(16):
            if g.name == spec:
                assert (check_normal_case(g, h).to_dict()
                        == loop_oracles.check_normal_case(g, h).to_dict())

    @pytest.mark.parametrize("pattern", [
        ("relabel", None, "cyclic", "break", "phi"),
        ("cyclic", None),
        ("break", "relabel", None),
        (None, "break", "cyclic"),
        ("relabel",),
    ])
    def test_failures_match_one_at_a_time(self, pattern):
        # the oracle builds through standard_construction, which reads
        # the patched standard_constructions too
        with mock.patch.object(core, "standard_constructions",
                               mutated_constructions(pattern)):
            for g, h in normal_pairs(8):
                assert (check_normal_case(g, h, transversal_cap=12, seed=2).to_dict()
                        == loop_oracles.check_normal_case(
                            g, h, transversal_cap=12, seed=2).to_dict()), (g, h)

    def test_group_checks_run_on_mismatches_only(self):
        g = group_from_spec("Z8")
        h = subgroup_from_elements(g, [0, 4])
        with mock.patch.object(core, "group_from_cayley_table",
                               wraps=core.group_from_cayley_table) as validated, \
                mock.patch.object(core, "group_isomorphism",
                                  wraps=core.group_isomorphism) as compared:
            assert check_normal_case(g, h).overall
            assert validated.call_count == compared.call_count == 0
            # Z4 with 1 and 2 swapped: a group, not the quotient's table
            with mock.patch.object(core, "standard_constructions",
                                   mutated_constructions(("relabel",))):
                report = check_normal_case(g, h)
        n = report.info["transversals_checked"]
        assert report.overall and validated.call_count == n
        # each xi against the quotient, and each after the first against it
        assert compared.call_count == 2 * n - 1


@st.composite
def generator_scan_inputs(draw):
    """A standard construction with |G| <= 24, or the image of GF(q) with
    q <= 32 or of a vector space of at most 32 vectors, with one or two
    cells changed (in phi, psi, xi, lam or the table of H), with two
    cells of a column of xi off row o swapped, which keeps P1, or with
    lam changed on one A3 component by a3_respecting_mutant, which keeps
    P1-P3 and A0-A3 and mostly breaks A4 or A5."""
    kind = draw(st.sampled_from(["standard", "standard", "field", "vector space"]))
    if kind == "standard":
        g, subgroups = subgroups_of(draw(st.sampled_from(
            ["S3", "D4", "Q8", "Z2xZ4", "D5", "Z12", "D6", "Z2xS3", "Z2xD4",
             "Z16", "Z3xS3", "Z2xQ8", "S4", "D8", "Z4xZ6"])))
        h = draw(st.sampled_from(subgroups))
        hg = standard_construction(g, h, draw(st.sampled_from(
            sample_transversals(g, h, cap=3, seed=0))))
    elif kind == "field":
        hg = functor_field(make_field(draw(st.sampled_from(
            [4, 5, 7, 8, 9, 11, 13, 16, 25, 32]))))
    else:
        q, dim = draw(st.sampled_from(
            [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2)]))
        hg = functor_vector_space(make_field(q), dim)
    m, hn = hg.m_size, hg.h.order
    mutation = draw(st.sampled_from(["none", "cells", "xi swap", "A3 component"]))
    if mutation == "A3 component":
        cell = (draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)))
        return a3_respecting_mutant(hg, cell, draw(st.integers(0, hn - 1))) or hg
    tables = {name: getattr(hg, name).tolist() for name in ("phi", "psi", "xi", "lam")}
    if mutation == "xi swap" and m > 2:
        xi, b = tables["xi"], draw(st.integers(0, m - 1))
        x, y = draw(st.lists(st.sampled_from([x for x in range(m) if x != hg.o]),
                             min_size=2, max_size=2, unique=True))
        xi[x][b], xi[y][b] = xi[y][b], xi[x][b]
    h_table = hg.h.table.tolist()
    for _ in range(draw(st.integers(1, 2)) if mutation == "cells" else 0):
        name = draw(st.sampled_from(["phi", "psi", "xi", "lam", "h"]))
        table = h_table if name == "h" else tables[name]
        row = draw(st.integers(0, len(table) - 1))
        table[row][draw(st.integers(0, len(table[row]) - 1))] = draw(
            st.integers(0, (m if name in ("phi", "xi") else hn) - 1))
    h = FiniteGroup(order=hn, table=h_table, identity=hg.h.identity,
                    inverse=list(hg.h.inverse), name="H")
    return hypergroup_from_tables(m, h, o=hg.o, **tables)


class TestGeneratorScans:
    """Past one block each cubic relation is first scanned over
    generators of its last argument; the report must not change."""

    # blocks this small run the generator scans on every input here
    @settings(max_examples=250, derandomize=True, deadline=None, database=None)
    @given(hg=generator_scan_inputs(), block=st.sampled_from([1, 16, 256]))
    def test_results_match_loops(self, hg, block):
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            report = verify_axioms(hg)
        assert results(report) == loop_oracles.verify_axioms(hg)

    # the scans read the parts of the identities on a block of leading a,
    # with the last argument over all of its range or over generators
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(hg=st.one_of(identity_inputs().flatmap(st.sampled_from), generator_scan_inputs()),
           data=st.data())
    def test_parts_are_the_masks_on_blocks_and_columns(self, hg, data):
        masks = loop_oracles.axiom_masks(hg)
        stack = core._Stack([hg])
        m = hg.m_size
        for n, names in zip((2, 4, 5), IDENTITY_PARTS):
            lo = data.draw(st.integers(0, m - 1))
            rows = slice(lo, data.draw(st.integers(lo + 1, m)))
            n_cols = masks[names[0]].shape[2]
            cols = data.draw(st.none() | st.lists(st.integers(0, n_cols - 1), min_size=1,
                                                  max_size=3, unique=True))
            at = slice(None) if cols is None else cols
            for part, name in zip(core._parts(stack, n, rows, cols), names):
                assert np.array_equal(part, masks[name][rows][..., at]), (n, name)

    @pytest.mark.parametrize("image,n_gens", [
        (lambda: functor_field(make_field(9)), 1),
        (lambda: functor_vector_space(make_field(4), 2), 2),
        (lambda: functor_vector_space(make_field(3), 3), 3),
    ])
    def test_generators_of_m(self, image, n_gens):
        # the maps x -> [x, s] and x -> x^be reach M from S: one vector
        # per dimension of a vector space, found greedily from 1
        hg = image()
        m = hg.m_size
        with mock.patch.object(_util, "BLOCK_CELLS", 1):
            scans = generator_scans(hg)
        assert scans[-1] == (("A4", "A5"), (m, m, n_gens))

    @pytest.mark.parametrize("m,spec", [(4, "E"), (2, "Z2"), (3, "Z2"), (2, "Z3")])
    def test_every_small_table_passing_p1_to_a3(self, m, spec):
        # o = 0, the xi, phi and psi of the abstract search, and every lam
        # that A3 allows: the verdict of the generator scan (or over E,
        # of Light's test on the product table) is the full scans'
        h = group_from_spec(spec)
        tables = fallbacks = 0
        for xi in _xi_candidates(m):
            for phi in _phi_candidates(h, m):
                for psi in _psi_candidates(h, phi, m):
                    base = hypergroup_from_tables(m, h, phi, psi, xi,
                                                  [[h.identity] * m] * m, 0)
                    if not verify_axioms(base).checks["A2"].ok:
                        continue
                    for lam in every_a3_lam(base):
                        hg = replace(base, lam=lam)
                        with mock.patch.object(_util, "BLOCK_CELLS", 1):
                            got = results(verify_axioms(hg))
                        assert got == loop_oracles.verify_axioms(hg)
                        tables += 1
                        fallbacks += not (got["A4"][0] and got["A5"][0])
        assert tables > fallbacks > 0

    def test_non_group_h_scans_in_full(self):
        # the closure arguments need H to be a group
        hg = functor_field(make_field(8))
        table = hg.h.table.tolist()
        table[3][4], table[3][5] = table[3][5], table[3][4]
        h = FiniteGroup(order=7, table=table, identity=0,
                        inverse=list(hg.h.inverse), name="H")
        bad = replace(hg, h=h)
        with mock.patch.object(_util, "BLOCK_CELLS", 1):
            assert core._group_generators(np.asarray(table), 0) is None
            assert generator_scans(bad) == []
            assert results(verify_axioms(bad)) == loop_oracles.verify_axioms(bad)

    def test_monoid_h_scans_in_full(self):
        # H = {eps, e} with e absorbing is an associative monoid with
        # identity but no group; on M = Z8 with trivial actions and lam
        # eps exactly at (a, 0), a != 0, P1-P3 and A0-A4 hold and A5
        # holds at c = 1 but fails at (1, 0, 0). S = {1} would miss it
        m = 8
        h = FiniteGroup(order=2, table=[[0, 1], [1, 1]], identity=0,
                        inverse=[0, 1], name="H")
        hg = hypergroup_from_tables(
            m, h, phi=[[a, a] for a in range(m)], psi=[[0, 1]] * m,
            xi=[[(a + b) % m for b in range(m)] for a in range(m)],
            lam=[[0 if b == 0 and a else 1 for b in range(m)] for a in range(m)],
            o=0)
        assert core._group_generators(h.table, 0) is None
        with mock.patch.object(_util, "BLOCK_CELLS", m * m):
            assert (2 * m) ** 2 > _util.BLOCK_CELLS < m ** 3
            got = results(verify_axioms(hg))
            assert generator_scans(hg) == []
        assert got == loop_oracles.verify_axioms(hg)
        assert [name for name, (ok, _, _) in got.items() if not ok] == ["A5"]
        assert got["A5"][1] == (1, 0, 0)

    @pytest.mark.parametrize("spec,h,t,cell,axiom", [
        # A2 holds on B = {0, 1} of H, not on the column 3 that breaks A0
        ("Z2xZ4", [0, 2, 5, 7], [7, 1], ("phi", 0, 3, 1), "A2"),
        ("Z2xZ4", [0, 1, 2, 3], [3, 4], ("phi", 1, 2, 0), "A3"),
        ("Q8", [0, 1, 2, 3], [3, 4], ("phi", 0, 2, 1), "A4"),
        ("Q8", [0, 1, 2, 3], [3, 4], ("psi", 1, 2, 0), "A5"),
    ])
    def test_reduced_scans_wait_for_earlier_checks(self, spec, h, t, cell, axiom):
        # on each mutant the generator scan of axiom passes, but one of
        # the checks its closure argument needs fails first, so only the
        # full scan finds that axiom's failure
        g = group_from_spec(spec)
        hg = with_cell(standard_construction(g, subgroup_from_elements(g, h), t), *cell)
        with mock.patch.object(_util, "BLOCK_CELLS", 1):
            got = results(verify_axioms(hg))
        assert got == loop_oracles.verify_axioms(hg)
        assert not got[axiom][0]

    def test_a_part_that_passes_on_generators_is_not_scanned_again(self):
        # one cell of lam changed on GF(9)'s image: A3 fails and A2, which
        # reads no lam, holds; once the scan of both names A3, A2 is
        # settled over generators alone, not by a full scan of its own
        hg = functor_field(make_field(9))
        bad = with_cell(hg, "lam", 4, 5, (int(hg.lam[4, 5]) + 1) % 8)
        with mock.patch.object(_util, "BLOCK_CELLS", 1):
            report, scans, _ = axiom_scans(bad)
        assert results(report) == loop_oracles.verify_axioms(bad)
        assert report.checks["A2"].ok and not report.checks["A3"].ok
        full = [names for names, shape in scans if shape == cube(bad, names[0])]
        assert ("A2", "A3") in full and ("A2",) not in full
        b = core._group_generators(bad.h.table, bad.h.identity)
        assert [shape for names, shape in scans if names == ("A2",)] == [(9, 9, len(b))]

    def test_a1_scan_waits_for_a0(self):
        # H = Z3 with B = {0, 1}; A1 holds at every beta in B, and fails
        # only where A0 fails too
        h = group_from_spec("Z3")
        hg = hypergroup_from_tables(
            3, h, phi=[[0, 0, 0], [1, 0, 2], [2, 0, 1]],
            psi=[[0, 1, 2], [0, 0, 1], [0, 2, 0]],
            xi=[[(a + b) % 3 for b in range(3)] for a in range(3)],
            lam=[[0] * 3] * 3, o=0)
        with mock.patch.object(_util, "BLOCK_CELLS", 1):
            got = results(verify_axioms(hg))
        assert got == loop_oracles.verify_axioms(hg)
        assert not got["P2"][0] and got["A1"][:2] == (False, (1, 1, 2))


@st.composite
def shortcut_inputs(draw):
    """A standard construction over |H| = 1, or |H| = 2 with |M| >= 5,
    sometimes with one cell changed: anywhere, or in the column of the
    identity of H, where it breaks phi(a, eps) = a or psi(a, eps) = eps."""
    g = group_from_spec(draw(st.sampled_from(
        ["Z4", "S3", "D4", "Q8", "Z2xZ4", "Z8", "D5", "Z12", "D6", "Z2xS3",
         "Z2xD4", "Z16"])))
    h = draw(st.sampled_from([h for h in enumerate_subgroups(g)
                              if h.order == 1 or h.order == 2 <= g.order // 5]))
    hg = standard_construction(
        g, h, draw(st.sampled_from(sample_transversals(g, h, cap=4, seed=0))))
    kind = draw(st.sampled_from(["none", "any", "identity column"]))
    if kind != "none":
        name = draw(st.sampled_from(
            ["phi", "psi", "xi", "lam"] if kind == "any" else ["phi", "psi"]))
        rows, cols = getattr(hg, name).shape
        col = (draw(st.integers(0, cols - 1)) if kind == "any"
               else hg.h.identity)
        limit = hg.m_size if name in ("phi", "xi") else hg.h.order
        hg = with_cell(hg, name, draw(st.integers(0, rows - 1)), col,
                       draw(st.integers(0, limit - 1)))
    return hg


def fixes_units(hg):
    """phi(a, eps) = a and psi(a, eps) = eps for every a."""
    eps = hg.h.identity
    return bool((hg.phi[:, eps] == np.arange(hg.m_size)).all()
                and (hg.psi[:, eps] == eps).all())


def product_table(hg):
    return core._product_table(hg.phi, hg.psi, hg.xi, hg.lam,
                               hg.h.table)


def cube(hg, name):
    """The shape of the full scan of an axiom."""
    m, hn = hg.m_size, hg.h.order
    return {"P2": (m, hn, hn), "A1": (m, hn, hn),
            "A2": (m, m, hn), "A3": (m, m, hn)}.get(name, (m, m, m))


def axiom_scans(hg):
    """(report, (names, shape) of each first_failure scan verify_axioms
    ran, whether it ran Light's test)."""
    scan = mock.Mock(wraps=_util.first_failure)
    with mock.patch.object(_util, "first_failure", scan), \
            mock.patch.object(core, "first_failure", scan), \
            mock.patch.object(core, "light_associative",
                              wraps=light_associative) as light:
        report = verify_axioms(hg)
    return (report, [(tuple(name for name, _ in c.args[1]), c.args[0])
                     for c in scan.call_args_list], light.called)


def scanned_axioms(hg):
    """(report, the axioms verify_axioms ran a full first_failure scan
    for, whether it ran Light's test)."""
    report, scans, light_ran = axiom_scans(hg)
    full = [name for names, shape in scans if shape == cube(hg, names[0])
            for name in names]
    return report, list(dict.fromkeys(full)), light_ran


def generator_scans(hg):
    """(names, shape) of each scan verify_axioms ran with the last index
    over generators only."""
    return [(names, shape) for names, shape in axiom_scans(hg)[1]
            if shape != cube(hg, names[0])]


class TestProductShortcut:
    """A4 and A5 are associativity, on triples from M, of the product
    on H x M; once it passes Light's test the cubic scans are skipped."""

    # BLOCK_CELLS = (|H||M|)^2 < |M|^3 takes the shortcut at these sizes
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(hg=shortcut_inputs())
    def test_results_match_loops(self, hg):
        m, hn = hg.m_size, hg.h.order
        block = (hn * m) ** 2
        assert m ** 3 > block
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            report, _, light_ran = scanned_axioms(hg)
        assert light_ran == fixes_units(hg)
        assert results(report) == loop_oracles.verify_axioms(hg)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(hg=shortcut_inputs())
    def test_light_pass_implies_a4_and_a5(self, hg):
        if fixes_units(hg) and light_associative(product_table(hg)):
            expect = loop_oracles.verify_axioms(hg)
            assert expect["A4"][0] and expect["A5"][0]

    def test_product_table_of_a_construction_is_the_group(self):
        # (alpha, a) at alpha * |M| + a stands for alpha * a in G
        for g, h, t in all_small_hypergroups(12):
            hg = standard_construction(g, h, t)
            gt = g.table
            elem = gt[np.asarray(h.elements)[:, None],
                      np.asarray(t.reps)[None, :]].ravel()
            assert (elem[product_table(hg)] == gt[elem[:, None], elem]).all()
            assert light_associative(product_table(hg))

    def test_z2_8_skips_the_cubic_scans(self):
        g = group_from_spec("x".join(["Z2"] * 8))
        hg = standard_construction(g, subgroup_from_elements(g, [0]),
                                   list(range(256)))
        report, scanned, light_ran = scanned_axioms(hg)
        assert report.overall and light_ran
        assert scanned == ["P2", "A1", "A2", "A3"]
        # a changed cell fails Light's test, and the scans give the witness
        mutant = with_cell(hg, "xi", 200, 7, int(hg.xi[200, 8]))
        report, scanned, light_ran = scanned_axioms(mutant)
        assert light_ran and scanned[-2:] == ["A4", "A5"]
        with mock.patch.object(core, "light_associative", return_value=False):
            assert results(report) == results(verify_axioms(mutant))
        assert not report.checks["A4"].ok

    def test_scans_run_past_the_table_budget(self):
        # |H| = 5 and |M| = 64: the 320^2 product table exceeds
        # max(BLOCK_CELLS, |M|^2), so A4 and A5 are scanned with c over
        # the generators S only; a mutant that fails there is scanned in
        # full and gets the same report as without the generator scan
        g = group_from_spec("Z5x" + "x".join(["Z2"] * 6))
        hg = standard_construction(
            g, subgroup_from_elements(g, [0, 64, 128, 192, 256]), list(range(64)))
        assert 64 ** 3 > _util.BLOCK_CELLS
        assert (5 * 64) ** 2 > max(_util.BLOCK_CELLS, 64 ** 2)
        report, scanned, light_ran = scanned_axioms(hg)
        assert report.overall and not light_ran
        assert scanned == ["P2", "A1", "A2", "A3"]
        assert [names for names, _ in generator_scans(hg)] == [("A4", "A5")]
        mutant = a3_respecting_mutant(hg, (9, 17), 1)
        report, scanned, _ = scanned_axioms(mutant)
        assert scanned == ["P2", "A1", "A2", "A3", "A4", "A5"]
        assert not report.checks["A5"].ok
        with mock.patch.object(core, "_group_generators", return_value=None):
            assert results(report) == results(verify_axioms(mutant))

    @pytest.mark.parametrize("q", [125, 128])
    def test_field_images_scan_generators_only(self, q):
        # no full A1-A5 scan runs on the benchmark's fields; S = {1}
        hg = functor_field(make_field(q))
        report, scanned, light_ran = scanned_axioms(hg)
        assert report.overall and not light_ran and scanned == []
        m, hn = q, q - 1
        scans = generator_scans(hg)
        assert [names for names, _ in scans] == [("P2", "A1"), ("A2", "A3"), ("A4", "A5")]
        assert scans[-1][1] == (m, m, 1)
        assert all(math.prod(shape) * 20 < m * hn * hn for _, shape in scans)


# --------------------------------------------------------------------
# solving


class TestSolving:
    def test_divide_frozen(self):
        _, _, _, hg = z6_example()
        # xi column 1 is (1, 2, 0); the x with xi[x][1] = 0 is 2
        assert quasigroup_divide(hg, 1, 0) == 2

    def test_divide_by_scan(self):
        for g, h, t in all_small_hypergroups(8):
            hg = standard_construction(g, h, t)
            for a in range(hg.m_size):
                for b in range(hg.m_size):
                    x = quasigroup_divide(hg, a, b)
                    assert hg.xi[x][a] == b
                    assert [y for y in range(hg.m_size)
                            if hg.xi[y][a] == b] == [x]

    def test_lemma_solve_equals_divide(self):
        for g, h, t in all_small_hypergroups(8):
            hg = standard_construction(g, h, t)
            for a in range(hg.m_size):
                for b in range(hg.m_size):
                    assert lemma_solve(hg, a, b) == quasigroup_divide(hg, a, b)

    def test_lemma_solve_requires_ambient(self):
        _, _, _, hg = z6_example()
        bare = hypergroup_from_tables(
            hg.m_size, hg.h, hg.phi, hg.psi, hg.xi, hg.lam, hg.o
        )
        with pytest.raises(NoAmbientError):
            lemma_solve(bare, 0, 1)
        assert quasigroup_divide(bare, 0, 1) == 1  # divide needs no ambient

    def test_solve_range_checks(self):
        _, _, _, hg = z6_example()
        with pytest.raises(IndexOutOfRangeError):
            lemma_solve(hg, 3, 0)
        with pytest.raises(IndexOutOfRangeError):
            quasigroup_divide(hg, 0, -1)

    def test_divide_on_broken_tables(self):
        _, _, _, hg = z6_example()
        hg = with_cell(hg, "xi", 1, 1, 0)  # column 1 now (1, 0, 0): 0 twice, 2 never
        with pytest.raises(MultipleSolutionsError):
            quasigroup_divide(hg, 1, 0)
        with pytest.raises(NoSolutionError):
            quasigroup_divide(hg, 1, 2)


# --------------------------------------------------------------------
# derived identities


class TestDerivedIdentities:
    def test_names(self):
        assert len(IDENTITY_NAMES) == 9

    def test_all_pass_on_constructions(self):
        for g, h, t in all_small_hypergroups(8):
            hg = standard_construction(g, h, t)
            rep = check_derived_identities(hg)
            assert rep.overall, (g.name, h.elements, t.reps,
                                 [k for k, v in rep.checks.items() if not v.ok])
            assert set(rep.checks) == set(IDENTITY_NAMES)

    def test_right_mult_by_neutral_meaning(self):
        # [a, o] = phi[a][theta^{-1}] , checked directly on Z6 with a
        # transversal whose theta is nontrivial
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        t = make_transversal(g, h, [3, 1, 2])
        hg = standard_construction(g, h, t)
        amb = hg.ambient
        # theta is a standalone H-index; here it names parent element 3
        assert amb.theta != hg.h.identity
        assert amb.h_to_parent[amb.theta] == 3
        th_inv_idx = hg.h.inverse[amb.theta]
        for a in range(hg.m_size):
            assert hg.xi[a][hg.o] == hg.phi[a][th_inv_idx]
            assert hg.lam[a][hg.o] == hg.psi[a][th_inv_idx]

    def test_requires_ambient(self):
        _, _, _, hg = z6_example()
        bare = hypergroup_from_tables(
            hg.m_size, hg.h, hg.phi, hg.psi, hg.xi, hg.lam, hg.o
        )
        with pytest.raises(NoAmbientError):
            check_derived_identities(bare)


# --------------------------------------------------------------------
# group quasigroups and the normal case


@st.composite
def xi_mutations(draw):
    """A standard construction with |G| <= 24 and |M| > 1, and an xi for
    it as lists: its own, with one entry changed (in range or not), or
    an associative table that is not Latin: a left or right projection
    or a constant."""
    g = draw(st.sampled_from(builtin_groups(24)[1:]))
    h = draw(st.sampled_from(enumerate_subgroups(g)[:-1]))
    t = sample_transversals(g, h, cap=1, seed=draw(st.integers(0, 2**16)))[0]
    hg = standard_construction(g, h, t)
    m = hg.m_size
    xi = hg.xi.tolist()
    kind = draw(st.sampled_from(
        ["keep", "cell", "out_of_range", "left", "right", "constant"]))
    if kind in ("cell", "out_of_range"):
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        xi[a][b] = draw(st.integers(0, m - 1) if kind == "cell"
                        else st.sampled_from([-1, m]))
    elif kind != "keep":
        k = draw(st.integers(0, m - 1))
        xi = [[{"left": a, "right": b, "constant": k}[kind] for b in range(m)]
              for a in range(m)]
    return hg, xi


def outcome(f, hg, xi):
    """f of hg with its xi replaced, or the type and message of the
    error that building or checking raised (an out-of-range xi raises
    MalformedTablesError when replace builds the hypergroup)."""
    try:
        return f(replace(hg, xi=xi))
    except (AlgebraError, InternalInconsistencyError) as exc:
        return type(exc), str(exc)


class TestGroupQuasigroup:
    def test_z6_gives_group(self):
        _, _, _, hg = z6_example()
        assert is_group_quasigroup(hg)

    def test_s3_nonnormal_gives_non_group(self):
        g = symmetric_group(3)
        h = subgroup_from_elements(g, [0, 1])
        flags = [
            is_group_quasigroup(standard_construction(g, h, t))
            for t in enumerate_transversals(g, h)
        ]
        assert False in flags  # some transversal breaks associativity

    def test_non_quasigroup_is_not_group(self):
        h = trivial_group()
        hg = hypergroup_from_tables(
            2, h, [[0], [1]], [[0], [0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], 0
        )
        # xi constant: associative but P1 fails; not a group
        assert not is_group_quasigroup(hg)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=xi_mutations())
    def test_matches_group_table_oracle(self, case):
        assert outcome(is_group_quasigroup, *case) == outcome(
            loop_oracles.is_group_quasigroup, *case)

    def test_normal_case_z6(self):
        g = cyclic_group(6)
        rep = check_normal_case(g, subgroup_from_elements(g, [0, 3]))
        assert rep.overall
        assert rep.info["transversals_checked"] == 8
        assert set(rep.checks) == {
            "phi_trivial", "xi_is_group", "isomorphic_to_quotient",
            "transversals_pairwise_isomorphic",
        }

    def test_normal_case_s3(self):
        g = symmetric_group(3)
        rep = check_normal_case(g, subgroup_from_elements(g, [0, 3, 4]))
        assert rep.overall and rep.info["transversals_checked"] == 9

    def test_normal_case_rejects_non_normal(self):
        g = symmetric_group(3)
        with pytest.raises(NotNormalError):
            check_normal_case(g, subgroup_from_elements(g, [0, 1]))


# --------------------------------------------------------------------
# frozen report dumps

TABLES = ("phi", "psi", "xi", "lam")


def broken_normal_case(g, h):
    """check_normal_case with every check made to fail: phi edited in
    each construction, every second xi group refused, and no group
    isomorphism found. The quotient is replaced by a stand-in with its
    name whose table no xi equals, so every transversal takes the path
    that validates its xi as a group."""
    calls = itertools.count()

    def edited(*args):
        return [with_cell(hg, "phi", hg.m_size - 1, 0, 0)
                for hg in standard_constructions(*args)]

    def every_second(table):
        if next(calls) % 2:
            raise AlgebraError("refused")
        return hypergroups.group_from_cayley_table(table)

    def unmatched_quotient(group, h):
        q = quotient_group(group, h)
        return types.SimpleNamespace(name=q.name, table=np.full(q.table.shape, -1))

    with mock.patch.object(hypergroups.core, "standard_constructions", edited), \
            mock.patch.object(hypergroups.core, "quotient_group", unmatched_quotient), \
            mock.patch.object(hypergroups.core, "group_from_cayley_table",
                              every_second), \
            mock.patch.object(hypergroups.core, "group_isomorphism",
                              lambda *args: None):
        return check_normal_case(g, h)


def report_dumps(kind, spec):
    """canonical_dumps of the to_dict() of every report in one case:
    check_normal_case on each normal subgroup of the group, capped,
    uncapped and broken, or check_derived_identities ("identities") or
    verify_axioms ("axioms") on the first four transversals of each
    subgroup, unedited and with cell (|M|-1, 0) of each table set to 0."""
    g = group_from_spec(spec)
    if kind == "normal":
        dicts = [report.to_dict()
                 for h in enumerate_subgroups(g) if is_normal(h)
                 for report in (check_normal_case(g, h, transversal_cap=3, seed=1),
                                check_normal_case(g, h, seed=1),
                                broken_normal_case(g, h))]
    else:
        check = check_derived_identities if kind == "identities" else verify_axioms
        dicts = []
        for h in enumerate_subgroups(g):
            for t in enumerate_transversals(g, h, limit=4):
                hg = standard_construction(g, h, t)
                dicts.append(check(hg).to_dict())
                dicts += [check(with_cell(hg, name, hg.m_size - 1, 0, 0)).to_dict()
                          for name in TABLES]
    return canonical_dumps(dicts)


# sha256 of report_dumps, taken before the named-check report classes
# were merged into one Report; the "axioms" ones before the batch and
# single axiom checks were merged into one set of masks
FROZEN_REPORTS = {
    ("axioms", "S3"):
        "154a60ac53563c6c0d3491869f9f21c8007f92bc05bf56c153ccb3702bb24931",
    ("axioms", "D4"):
        "8c889368dc6156e61d213acf9a3b1c7fd2032ab69ae8d3f84c883901d9d97365",
    ("identities", "S3"):
        "8ed2a1dd0a2890eb1318a8e025758253c82980847d9c15db6338f51bb640e709",
    ("identities", "D4"):
        "b32ce8f8eecdbec350b574da37de834d8ecdc21a49098b18cd7dd56ea2efdcce",
    ("normal", "S3"):
        "e84980007cd984805cd92e80ee16e2ba01f98a4a914494add82774a57751d794",
    ("normal", "D4"):
        "e22113ad213dcb809956672e93e8b5ae6480354062d5d9a2388bda1fb2b49261",
}


@pytest.mark.parametrize("kind, spec", sorted(FROZEN_REPORTS))
def test_frozen_report_dumps(kind, spec):
    digest = hashlib.sha256(report_dumps(kind, spec).encode()).hexdigest()
    assert digest == FROZEN_REPORTS[kind, spec]


# --------------------------------------------------------------------
# the stored table form


class TestStoredTables:
    def test_in_place_writes_raise(self):
        _, _, _, hg = z6_example()
        made = [
            hg,
            hypergroup_from_json(hypergroup_to_json(hg)),
            hypergroup_from_tables(hg.m_size, hg.h, hg.phi.tolist(),
                                   hg.psi.tolist(), hg.xi.tolist(),
                                   hg.lam.tolist(), hg.o),
            with_cell(hg, "lam", 1, 2, 0),
        ]
        for other in made:
            for name in TABLES:
                table = getattr(other, name)
                assert table.dtype == np.intp and not table.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = table[0, 0] + 1
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = table[-1]
        assert hg.xi[0, 0] == 0 and hg == made[1]

    @pytest.mark.parametrize("copy_of", [
        copy.copy, copy.deepcopy, lambda hg: pickle.loads(pickle.dumps(hg)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_checked_and_read_only(self, copy_of):
        _, _, _, hg = z6_example()
        for original in (hg, replace(hg, ambient=None)):
            other = copy_of(original)
            assert other == original and other is not original
            for name in TABLES:
                assert not getattr(other, name).flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    getattr(other, name)[0, 1] = 0
            assert verify_axioms(other).overall

    @pytest.mark.parametrize("row_type", [list, tuple])
    def test_row_input_is_copied(self, row_type):
        _, _, _, hg = z6_example()
        rows = {name: [row_type(row) for row in getattr(hg, name).tolist()]
                for name in TABLES}
        made = hypergroup_from_tables(hg.m_size, hg.h, *(rows[name] for name in TABLES),
                                      hg.o)
        for name in TABLES:
            if row_type is list:
                rows[name][0][0] = rows[name][0][0] + 1
            rows[name][1] = row_type([0] * len(rows[name][1]))
            rows[name].append(rows[name][0])
        assert made == replace(hg, ambient=None)

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("edit", ["none", "range", "negative", "past_intp", "columns",
                                      "rows"])
    def test_an_array_is_validated_as_its_rows(self, table, edit):
        # an integer array is read as one, never turned into rows, and
        # stored as a plain array: RowlessArray's tolist() raises
        _, _, _, hg = z6_example()
        arr = np.array(getattr(hg, table), dtype=np.uint64 if edit == "past_intp" else np.int64)
        if edit in ("range", "negative", "past_intp"):
            arr[2, 1] = {"range": 3, "negative": -1, "past_intp": 2 ** 63}[edit]
        arr = {"columns": arr[:, :1], "rows": arr[:2]}.get(edit, arr)
        outcomes = []
        for value in (arr.tolist(), arr.view(loop_oracles.RowlessArray)):
            try:
                made = replace(hg, **{table: value})
                outcomes.append([getattr(made, name).tolist() for name in TABLES])
            except MalformedTablesError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (edit == "none") == isinstance(outcomes[0], list)

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    def test_matrix_tables_are_stored_as_arrays(self):
        # np.matrix tables were stored as matrices, and verify_axioms then
        # raised ValueError
        _, _, _, hg = z6_example()
        for edited in (hg, with_cell(hg, "xi", 1, 2, 0)):
            made = hypergroup_from_tables(
                hg.m_size, hg.h, *(np.matrix(getattr(edited, name)) for name in TABLES), hg.o)
            assert all(type(getattr(made, name)) is np.ndarray for name in TABLES)
            assert verify_axioms(made).to_dict() == verify_axioms(
                replace(edited, ambient=None)).to_dict()

    def test_array_input_is_copied(self):
        _, _, _, hg = z6_example()
        xi = np.array(hg.xi)  # a writeable copy, owned by the caller
        made = hypergroup_from_tables(hg.m_size, hg.h, hg.phi, hg.psi, xi,
                                      hg.lam, hg.o)
        xi[0, 1] = 0
        assert made.xi.tolist() == hg.xi.tolist()

    @pytest.mark.parametrize("table, rows, location, message", [
        ("phi", [[0, 0], [1], [2, 2]], "phi[1]", "expected 2 columns, got 1"),
        ("xi", [[0, 1, 2], [1, 2, 0], [2, 0, 3]], "xi[2][2]",
         "value 3 outside [0, 3)"),
        ("lam", [[0, 0, 0], [0, 0, 1]], "lam", "expected 3 rows, got 2"),
        ("psi", np.array([[0, 1], [0, 2], [0, 1]]), "psi[1][1]",
         "value 2 outside [0, 2)"),
        ("xi", np.zeros((3, 2), dtype=np.int64), "xi[0]",
         "expected 3 columns, got 2"),
    ])
    def test_replace_checks_like_hypergroup_from_tables(
            self, table, rows, location, message):
        _, _, _, hg = z6_example()
        tables = {name: getattr(hg, name) for name in TABLES}
        tables[table] = rows
        with pytest.raises(MalformedTablesError) as built:
            hypergroup_from_tables(hg.m_size, hg.h, o=hg.o, **tables)
        with pytest.raises(MalformedTablesError) as replaced:
            replace(hg, **{table: rows})
        expected = (location, f"{location}: {message}")
        assert (built.value.location, str(built.value)) == expected
        assert (replaced.value.location, str(replaced.value)) == expected

    def test_value_equality(self):
        _, _, _, hg = z6_example()
        _, _, _, again = z6_example()
        assert hg == again and hg is not again
        assert with_cell(hg, "lam", 1, 2, 0) != hg
        assert replace(hg, ambient=None) != hg
        assert hg != "Z6"
        # compose accepts a target equal, not identical, to the source
        assert compose(identity_morphism(hg), identity_morphism(again)).f1 == [0, 1, 2]

    def test_witnesses_and_answers_are_python_ints(self):
        _, _, _, hg = z6_example()
        assert type(quasigroup_divide(hg, 1, 0)) is int
        assert type(lemma_solve(hg, 1, 0)) is int
        for cell in (("xi", 0, 1, 0), ("xi", 1, 1, 0), ("phi", 2, 0, 0),
                     ("psi", 0, 1, 0), ("lam", 1, 2, 0)):
            report = verify_axioms(with_cell(hg, *cell))
            assert not report.overall
            for check in report.checks.values():
                assert check.witness is None or all(
                    type(w) is int for w in check.witness), (cell, check)


# --------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_round_trip_bytes(self):
        _, _, _, hg = z6_example()
        blob = canonical_dumps(hypergroup_to_json(hg))
        again = canonical_dumps(
            hypergroup_to_json(hypergroup_from_json(json.loads(blob)))
        )
        assert blob == again

    def test_round_trip_preserves_ambient(self):
        _, _, _, hg = z6_example()
        hg2 = hypergroup_from_json(hypergroup_to_json(hg))
        assert hg2.ambient is not None
        assert hg2.ambient.theta == hg.ambient.theta
        assert hg2.ambient.m_to_parent == hg.ambient.m_to_parent
        assert lemma_solve(hg2, 1, 0) == 2

    def test_round_trip_without_ambient(self):
        _, _, _, hg = z6_example()
        bare = hypergroup_from_tables(
            hg.m_size, hg.h, hg.phi, hg.psi, hg.xi, hg.lam, hg.o
        )
        data = hypergroup_to_json(bare)
        assert "ambient" not in data
        hg2 = hypergroup_from_json(data)
        assert hg2.ambient is None and hg2.xi.tolist() == hg.xi.tolist()

    def test_every_written_file_loads_unchanged(self):
        # the ambient checks accept every file the library writes
        for g, h, t in all_small_hypergroups(8):
            hg = standard_construction(g, h, t)
            blob = canonical_dumps(hypergroup_to_json(hg))
            assert hypergroup_from_json(json.loads(blob)) == hg

    def test_an_ambient_that_is_not_the_tables_is_refused(self):
        # H = {0, 3} of Z6 is Z2 on [[0, 1], [1, 0]], and |M| = 3
        _, _, _, hg = z6_example()
        swap = [3, 1, 2, 0, 4, 5]   # Z6 with 0 and 3 relabelled
        z6 = cyclic_group(6).table.tolist()
        relabelled = [[swap[z6[swap[a]][swap[b]]] for b in range(6)] for a in range(6)]
        for ambient in (
                # |H| = 1, so its table is not h's
                {"group": {"table": [[0]]}, "subgroup": [0], "transversal": [0]},
                # H = {0, 2} of Z4 is h, but the transversal has 2 elements
                {"group": {"table": cyclic_group(4).table.tolist()}, "subgroup": [0, 2],
                 "transversal": [0, 1]},
                # {0, 3} is Z2 with its identity at 1: [[1, 0], [0, 1]]
                {"group": {"table": relabelled}, "subgroup": [0, 3],
                 "transversal": [0, 1, 2]}):
            data = {**hypergroup_to_json(hg), "ambient": ambient}
            with pytest.raises(MalformedTablesError) as ei:
                hypergroup_from_json(data)
            assert ei.value.location == "ambient"

    def test_json_fields(self):
        _, _, _, hg = z6_example()
        data = hypergroup_to_json(hg)
        assert set(data) == {
            "m_size", "h", "phi", "psi", "xi", "lam", "o", "ambient",
        }
        assert set(data["ambient"]) == {"group", "subgroup", "transversal"}
