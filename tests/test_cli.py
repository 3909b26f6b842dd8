"""Command-line interface: every subcommand, all four exit codes,
JSON output parseability, and byte-determinism of repeated calls.

Most tests drive run() in-process and read stdout through capsys; one
test runs the console entry point that pyproject.toml declares in a
fresh interpreter, as the installer-generated wrapper would, so it needs
no install.
"""

import copy
import hashlib
import json
import os
import resource
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import hypergroups
from hypergroups import (
    HgMorphism,
    InternalInconsistencyError,
    cyclic_group,
    enumerate_transversals,
    functor_field,
    group_from_spec,
    hypergroup_from_json,
    hypergroup_to_json,
    make_field,
    right_cosets,
    standard_construction,
    subgroup_closure,
    verify_morphism,
)
from hypergroups.cli import main, run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _child_env():
    """The environment of a fresh interpreter that runs the same
    hypergroups this test imported."""
    src = str(Path(hypergroups.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _console_script():
    """The declared `hypergroups` console-script entry point: from
    pyproject.toml, or, without tomllib, from an installed distribution."""
    if tomllib is not None:
        with PYPROJECT.open("rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["hypergroups"]
        return EntryPoint(name="hypergroups", value=value,
                          group="console_scripts")
    (ep,) = entry_points(group="console_scripts", name="hypergroups")
    return ep


@pytest.fixture
def z6_file(tmp_path):
    """Z6 over {0,3} with transversal (0,1,2), written by the CLI itself."""
    out = tmp_path / "z6.json"
    assert run(["hg", "construct", "--group", "Z6", "--subgroup", "3",
                "--transversal", "0,1,2", "-o", str(out)]) == 0
    return out


@pytest.fixture
def z6_alt_file(tmp_path):
    out = tmp_path / "z6alt.json"
    assert run(["hg", "construct", "--group", "Z6", "--subgroup", "3",
                "--transversal", "0,4,2", "-o", str(out)]) == 0
    return out


class TestGroup:
    def test_info_text(self, capsys):
        assert run(["group", "info", "Z6"]) == 0
        out = capsys.readouterr().out
        assert "order 6" in out and "abelian" in out

    def test_info_json(self, capsys):
        assert run(["--format", "json", "group", "info", "S3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 6 and data["abelian"] is False
        assert sorted(data["element_orders"]) == [1, 2, 2, 2, 3, 3]

    def test_subgroups(self, capsys):
        assert run(["--format", "json", "group", "subgroups", "S3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["subgroups"]) == 6
        assert sum(1 for r in data["subgroups"] if r["normal"]) == 3

    def test_subgroups_text(self, capsys):
        assert run(["group", "subgroups", "S3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "6 subgroups of S3",
            "  {0} order 1 index 6 (normal)",
            "  {0,1} order 2 index 3 (not normal)",
            "  {0,2} order 2 index 3 (not normal)",
            "  {0,5} order 2 index 3 (not normal)",
            "  {0,3,4} order 3 index 2 (normal)",
            "  {0,1,2,3,4,5} order 6 index 1 (normal)",
        ]

    def test_group_from_file(self, tmp_path, capsys):
        f = tmp_path / "k4.json"
        f.write_text(json.dumps({"name": "K4", "table": cyclic_group(4).table.tolist()}))
        assert run(["group", "info", str(f)]) == 0
        assert "order 4" in capsys.readouterr().out

    def test_bad_spec_is_exit_2(self, capsys):
        assert run(["group", "info", "Q99"]) == 2
        assert "error" in capsys.readouterr().err


class TestConstructVerify:
    def test_construct_then_verify(self, z6_file, capsys):
        assert run(["hg", "verify", str(z6_file)]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out

    def test_construct_auto_transversal(self, tmp_path, capsys):
        out = tmp_path / "auto.json"
        assert run(["hg", "construct", "--group", "S3", "--subgroup", "1",
                    "--transversal", "auto", "-o", str(out)]) == 0
        assert run(["hg", "verify", str(out)]) == 0

    def test_construct_verbose_note(self, tmp_path, capsys):
        out = tmp_path / "z6.json"
        assert run(["-v", "hg", "construct", "--group", "Z6", "--subgroup", "3",
                    "--transversal", "0,1,2", "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "constructed |M|=3, |H|=2\n")
        assert out.exists()

    def test_construct_to_stdout(self, capsys):
        assert run(["hg", "construct", "--group", "Z4", "--subgroup", "2",
                    "--transversal", "0,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m_size"] == 2

    def test_verify_json_format(self, z6_file, capsys):
        assert run(["--format", "json", "hg", "verify", str(z6_file)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overall"] is True
        assert set(data["axioms"]) == {"P1", "P2", "P3", "A1", "A2",
                                       "A3", "A4", "A5"}

    def test_verify_failure_is_exit_1(self, z6_file, tmp_path, capsys):
        data = json.loads(z6_file.read_text())
        data["xi"][1][2] = 1  # break the column-permutation property
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run(["hg", "verify", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_not_a_transversal_is_exit_2(self, capsys):
        assert run(["hg", "construct", "--group", "Z6", "--subgroup", "3",
                    "--transversal", "0,1,4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, capsys):
        assert run(["hg", "verify", "/nonexistent/file.json"]) == 2

    def test_malformed_json_is_exit_2(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("not json at all")
        assert run(["hg", "verify", str(f)]) == 2

    def test_wrong_keys_is_exit_2(self, tmp_path):
        f = tmp_path / "short.json"
        f.write_text(json.dumps({"m_size": 2}))
        assert run(["hg", "verify", str(f)]) == 2

    def test_non_integer_subgroup_is_exit_2(self, capsys):
        assert main(["hg", "construct", "--group", "Z6", "--subgroup", "a",
                     "--transversal", "0,1,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err

    def test_non_integer_value_in_json_is_exit_2(self, z6_file, tmp_path, capsys):
        data = json.loads(z6_file.read_text())
        data["o"] = "x"
        bad = tmp_path / "bad_o.json"
        bad.write_text(json.dumps(data))
        assert main(["hg", "verify", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == "error: o: value 'x' is not an integer\n"


class TestSolve:
    def test_divide(self, z6_file, capsys):
        assert run(["--format", "json", "hg", "solve", str(z6_file),
                    "--a", "1", "--b", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"a": 1, "b": 0, "method": "divide", "x": 2}

    def test_lemma_agrees(self, z6_file, capsys):
        assert run(["--format", "json", "hg", "solve", str(z6_file),
                    "--a", "1", "--b", "0", "--lemma"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "lemma" and data["x"] == 2

    def test_out_of_range_is_exit_2(self, z6_file, capsys):
        assert run(["hg", "solve", str(z6_file), "--a", "9", "--b", "0"]) == 2


class TestIso:
    def test_isomorphic_pair(self, z6_file, tmp_path, capsys):
        # relabel M by a rotation, H untouched: an isomorphic copy
        hg = hypergroup_from_json(json.loads(z6_file.read_text()))
        perm = [1, 2, 0]
        inv = [perm.index(i) for i in range(3)]
        other = hypergroup_to_json(hg)
        phi, psi, xi, lam = (other[k] for k in ("phi", "psi", "xi", "lam"))
        other["o"] = perm[hg.o]
        other["phi"] = [[perm[phi[inv[a]][al]] for al in range(2)]
                        for a in range(3)]
        other["psi"] = [[psi[inv[a]][al] for al in range(2)]
                        for a in range(3)]
        other["xi"] = [[perm[xi[inv[a]][inv[b]]] for b in range(3)]
                       for a in range(3)]
        other["lam"] = [[lam[inv[a]][inv[b]] for b in range(3)]
                        for a in range(3)]
        other.pop("ambient", None)
        f2 = tmp_path / "relabeled.json"
        f2.write_text(json.dumps(other))
        assert run(["--format", "json", "hg", "iso", str(z6_file), str(f2)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["isomorphic"] is True and data["f1"] == perm

    def test_non_isomorphic_is_exit_1(self, z6_file, z6_alt_file, capsys):
        assert run(["hg", "iso", str(z6_file), str(z6_alt_file)]) == 1
        assert "not isomorphic" in capsys.readouterr().out

    def test_non_isomorphic_json(self, z6_file, z6_alt_file, capsys):
        assert run(["--format", "json", "hg", "iso", str(z6_file), str(z6_alt_file)]) == 1
        assert capsys.readouterr().out == '{\n  "isomorphic": false\n}\n'


class TestMorphism:
    def test_identity_morphism(self, z6_file, tmp_path, capsys):
        mf = tmp_path / "mor.json"
        mf.write_text(json.dumps({"f0": [0, 1], "f1": [0, 1, 2]}))
        assert run(["hg", "morphism", str(z6_file), str(z6_file), str(mf)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_bad_morphism_is_exit_1(self, z6_file, tmp_path, capsys):
        # f0 collapsing H breaks the lambda square; confirm via the
        # library first, then through the CLI
        hg = hypergroup_from_json(json.loads(z6_file.read_text()))
        mor = HgMorphism(source=hg, target=hg, f0=[0, 0], f1=[0, 1, 2])
        assert not verify_morphism(mor).ok
        mf = tmp_path / "mor.json"
        mf.write_text(json.dumps({"f0": [0, 0], "f1": [0, 1, 2]}))
        assert run(["hg", "morphism", str(z6_file), str(z6_file), str(mf)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("maps, message", [
        ({"f0": [False, True], "f1": [0, 1, 2]}, "error: f0[0]: value False is not an integer"),
        ({"f0": [0, 1], "f1": [0, 1.0, 2]}, "error: f1[1]: value 1.0 is not an integer"),
        ({"f0": [0, 1], "f1": [0, 1, 3]}, "error: f1 value outside the target M"),
    ])
    def test_malformed_maps_are_exit_2(self, z6_file, tmp_path, capsys, maps, message):
        # a bool map passed as 0 and 1, where a bool in a hypergroup file
        # is refused
        mf = tmp_path / "mor.json"
        mf.write_text(json.dumps(maps))
        assert run(["hg", "morphism", str(z6_file), str(z6_file), str(mf)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")


class TestFunctorCommands:
    def test_functor_group(self, tmp_path):
        out = tmp_path / "fg.json"
        assert run(["functor", "group", "Z3", "-o", str(out)]) == 0
        assert run(["hg", "verify", str(out)]) == 0

    def test_functor_vs(self, tmp_path, capsys):
        out = tmp_path / "vs.json"
        assert run(["functor", "vs", "GF(3)", "2", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["m_size"] == 9 and len(data["psi"][0]) == 2

    def test_functor_field(self, tmp_path):
        out = tmp_path / "ff.json"
        assert run(["functor", "field", "GF(4)", "-o", str(out)]) == 0
        assert run(["hg", "verify", str(out)]) == 0

    def test_functor_field_custom_modulus(self, capsys):
        assert run(["functor", "field", "GF(8;x^3+x^2+1)"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m_size"] == 8

    def test_bad_field_spec_is_exit_2(self, capsys):
        assert run(["functor", "field", "GF(6)"]) == 2


class TestReconstruct:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "ff9.json"
        run(["functor", "field", "GF(9)", "-o", str(out)])
        assert run(["--format", "json", "reconstruct-field", str(out)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "ok"
        assert data["field"] == "GF(9;x^2+1)"
        assert data["is_field_hypergroup"] is True

    def test_diagnostic_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "fg3.json"
        run(["functor", "group", "Z3", "-o", str(out)])
        assert run(["reconstruct-field", str(out)]) == 1
        assert "NotAdditivelyClosed" in capsys.readouterr().out

    def test_size_cap_is_exit_2(self, tmp_path, capsys):
        # past |k| = 512 make_field refuses k; that is no diagnostic
        out = tmp_path / "ff9.json"
        assert run(["functor", "field", "GF(9)", "-o", str(out)]) == 0
        cap = hypergroups.SizeLimitExceededError("field order 9 exceeds cap 8")
        with mock.patch("hypergroups.functors.make_field", side_effect=cap):
            assert run(["reconstruct-field", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: field order 9 exceeds cap 8\n")


class TestClassify:
    def test_sweep_text(self, capsys):
        assert run(["classify", "--max-order", "4"]) == 0
        out = capsys.readouterr().out
        assert "classes: 18" in out and "entries: 34" in out
        assert "class_id,m_size,h_order" in out

    def test_sweep_json(self, capsys):
        assert run(["--format", "json", "classify", "--max-order", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_classes"] == 18 and data["n_entries"] == 34

    def test_abstract(self, capsys):
        assert run(["--format", "json", "classify", "--abstract",
                    "--m", "3", "--h", "Z2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_classes"] == 12

    def test_export(self, tmp_path, capsys):
        d = tmp_path / "cat"
        assert run(["classify", "--max-order", "2", "--out", str(d)]) == 0
        assert (d / "entries.csv").exists()
        assert sorted(p.name for p in d.glob("class_*.json")) == [
            "class_0000.json", "class_0001.json",
            "class_0002.json", "class_0003.json",
        ]

    def test_export_verbose_note(self, tmp_path, capsys):
        d = tmp_path / "cat"
        assert run(["-v", "classify", "--max-order", "2", "--out", str(d)]) == 0
        assert capsys.readouterr().err == f"wrote 5 files to {d}\n"

    def test_missing_mode_is_exit_2(self, capsys):
        assert run(["classify"]) == 2

    def test_abstract_needs_m_and_h(self, capsys):
        assert run(["classify", "--abstract", "--m", "3"]) == 2


class TestFieldCommand:
    def test_field_ok(self, capsys):
        assert run(["field", "GF(25)"]) == 0
        out = capsys.readouterr().out
        assert "order 25" in out and "characteristic 5" in out

    def test_field_json(self, capsys):
        assert run(["--format", "json", "field", "GF(8)"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overall"] is True

    @pytest.mark.parametrize("spec", ["GF(4;x^2000000)", "GF(4;x^5000)",
                                      "GF(4;x^" + "9" * 5000 + ")"])
    def test_huge_modulus_degree_is_exit_2(self, spec, capsys):
        # 2^2000000 was past what str() writes, and GF(4;x^5000) printed
        # a 1,505-digit order
        assert run(["field", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: polynomial degree exceeds 9, the most for a field of order <= 512\n")


class TestExitCodesAndDeterminism:
    def test_help_is_exit_0(self, capsys):
        assert run(["--help"]) == 0
        assert "hypergroups" in capsys.readouterr().out

    def test_no_args_is_exit_2(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand_is_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_internal_error_is_exit_3(self, z6_file, monkeypatch, capsys):
        import hypergroups.cli as climod

        def boom(hg):
            raise InternalInconsistencyError("forced")

        monkeypatch.setattr(climod, "verify_axioms", boom)
        assert run(["hg", "verify", str(z6_file)]) == 3
        assert "internal inconsistency" in capsys.readouterr().err

    def test_parser_built_once_per_process(self, capsys):
        # run() reuses one parser; its answers are those of a new
        # build_parser() each time, for --help, usage errors and commands
        import hypergroups.cli as climod

        argvs = [["--help"], ["hg", "--help"], [], ["frobnicate"],
                 ["classify", "--max-order", "x"], ["group", "info", "Z6"],
                 ["--format", "json", "group", "subgroups", "S3"]]
        fresh = []
        for argv in argvs:
            climod._parser.cache_clear()
            fresh.append((run(argv), capsys.readouterr()))
        with mock.patch.object(climod, "build_parser", wraps=climod.build_parser) as built:
            climod._parser.cache_clear()
            for _ in range(2):
                assert [(run(argv), capsys.readouterr()) for argv in argvs] == fresh
        assert built.call_count == 1
        assert climod.build_parser() is not climod.build_parser()

    def test_repeat_invocations_byte_identical(self, capsys):
        run(["--format", "json", "classify", "--max-order", "4"])
        first = capsys.readouterr().out
        run(["--format", "json", "classify", "--max-order", "4"])
        assert capsys.readouterr().out == first

    def test_main_default_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["hypergroups", "group", "info", "E"])
        assert main() == 0

    @pytest.mark.skipif(
        tomllib is None
        and not entry_points(group="console_scripts", name="hypergroups"),
        reason="no tomllib to read pyproject.toml and no installed "
               "hypergroups distribution",
    )
    def test_console_script(self):
        ep = _console_script()
        code = (f"import sys; from {ep.module} import {ep.attr}; "
                f"sys.exit({ep.attr}())")
        proc = subprocess.run(
            [sys.executable, "-c", code, "group", "info", "Z6"],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert "order 6" in proc.stdout

    def test_json_outputs_end_with_newline(self, capsys):
        run(["--format", "json", "group", "info", "Z2"])
        assert capsys.readouterr().out.endswith("\n")


class TestExtremeNumbers:
    """Numbers that no table or bound can hold exit 2 with a message:
    never a traceback, never a hang."""

    @staticmethod
    def _edited(tmp_path, where, token):
        s3 = tmp_path / "s3.json"
        assert run(["hg", "construct", "--group", "S3", "--subgroup", "1",
                    "--transversal", "auto", "-o", str(s3)]) == 0
        data = json.loads(s3.read_text())
        if where in ("m_size", "o"):
            data[where] = "TOKEN"
        elif where == "cell":
            data["xi"][0][0] = "TOKEN"
        else:
            data["ambient"][where][1] = "TOKEN"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"TOKEN"', token))
        return str(s3), str(bad)

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e400"])
    @pytest.mark.parametrize(
        "where", ["m_size", "o", "cell", "subgroup", "transversal"])
    def test_hypergroup_file(self, tmp_path, capsys, where, token):
        s3, bad = self._edited(tmp_path, where, token)
        for argv in (["hg", "verify", bad],
                     ["hg", "solve", bad, "--a", "1", "--b", "0"],
                     ["hg", "iso", bad, s3],
                     ["reconstruct-field", bad]):
            capsys.readouterr()
            assert run(argv) == 2, argv
            assert "is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["Infinity", "NaN"])
    def test_group_and_morphism_files(self, tmp_path, z6_file, capsys, token):
        group = tmp_path / "g.json"
        group.write_text('{"table": [[0, 1], [1, %s]]}' % token)
        morphism = tmp_path / "m.json"
        morphism.write_text('{"f0": [0, 0], "f1": [0, %s, 2]}' % token)
        for argv in (["group", "info", str(group)],
                     ["hg", "morphism", str(z6_file), str(z6_file), str(morphism)]):
            capsys.readouterr()
            assert run(argv) == 2, argv
            assert "is not a finite number" in capsys.readouterr().err

    def test_deeply_nested_file(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["hg", "verify", str(deep)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["99999999999999999999", "10000"])
    def test_huge_vector_space_dimension(self, dim):
        # a child under a time and an address-space limit, so that taking
        # q ** dim first can neither hang the suite nor eat the memory
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = _child_env()
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "hypergroups.cli", "functor", "vs", "GF(3)", dim],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=limit_memory,
        )
        assert proc.returncode == 2
        assert "exceeds bound 512" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestNonIntegerValues:
    """A table cell, m_size or o must be an integer and not a bool: a
    float is not truncated, true is not 1; the first such value exits 2."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["xi"][1].__setitem__(1, d["xi"][1][1] + 0.5),
         "xi[1][1]: value 0.5 is not an integer"),
        (lambda d: d["xi"][2].__setitem__(0, d["xi"][2][0] + 0.5),
         "xi[2][0]: value 2.5 is not an integer"),
        (lambda d: d["lam"][1].__setitem__(2, True),
         "lam[1][2]: value True is not an integer"),
        (lambda d: d.__setitem__("o", 0.0), "o: value 0.0 is not an integer"),
        (lambda d: d.__setitem__("m_size", 3.0),
         "m_size: value 3.0 is not an integer"),
        (lambda d: d["h"]["table"][0].__setitem__(1, 1.0),
         "table[0][1]: value 1.0 is not an integer"),
    ])
    def test_hypergroup_file(self, tmp_path, capsys, edit, message):
        s3 = tmp_path / "s3.json"
        assert run(["hg", "construct", "--group", "S3", "--subgroup", "1",
                    "--transversal", "auto", "-o", str(s3)]) == 0
        data = json.loads(s3.read_text())
        assert (data["xi"][1][1], data["xi"][2][0], data["lam"][1][2]) == (0, 2, 1)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["hg", "verify", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_group_file(self, tmp_path, capsys):
        group = tmp_path / "g.json"
        group.write_text('{"table": [[0, 1], [1, 0.0]]}')
        assert run(["group", "info", str(group)]) == 2
        assert capsys.readouterr().err == (
            "error: table[1][1]: value 0.0 is not an integer\n")


class TestMalformedRowsAndTokens:
    """A row that is not a list and a text token that is not an integer
    are data errors: exit 2 with a one-line message, no traceback."""

    @pytest.mark.parametrize("name, text, message", [
        ("g.json", '{"table": [1, 2]}', "table[0]: row is not a sequence"),
        ("g.json", '{"table": 7}', "table: not a sequence of rows"),
        ("g.txt", "2\n0 1\n1 x\n", "token 'x' is not an integer"),
        ("g.txt", "2.0\n0 1\n1 0\n", "token '2.0' is not an integer"),
    ])
    def test_group_file(self, tmp_path, capsys, name, text, message):
        group = tmp_path / name
        group.write_text(text)
        assert run(["group", "info", str(group)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_hypergroup_file(self, z6_file, tmp_path):
        data = json.loads(z6_file.read_text())
        data["xi"][1] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "hypergroups.cli", "hg", "verify", str(bad)],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: xi[1]: row is not a sequence\n"


class TestAmbientEntries:
    """A hypergroup file's ambient must be the triple its tables came
    from, with integer entries: otherwise `hg solve --lemma` exits 2 with
    one line, where it raised an IndexError or read 2.5 as 2."""

    @pytest.mark.parametrize("edit, message", [
        (lambda amb: amb.update(group={"table": [[0]]}, subgroup=[0], transversal=[0]),
         "ambient: the subgroup is not h or the transversal has not m_size elements"),
        (lambda amb: amb.update(transversal=[0, 2.5, 4]),
         "transversal: value 2.5 is not an integer"),
        (lambda amb: amb.update(transversal=[True, 2, 4]),
         "transversal: value True is not an integer"),
        (lambda amb: amb.update(subgroup=[0, 1.0]), "subgroup: value 1.0 is not an integer"),
    ])
    def test_lemma_solve(self, tmp_path, capsys, edit, message):
        s3 = tmp_path / "s3.json"
        assert run(["hg", "construct", "--group", "S3", "--subgroup", "1",
                    "--transversal", "auto", "-o", str(s3)]) == 0
        data = json.loads(s3.read_text())
        assert (data["ambient"]["subgroup"], data["ambient"]["transversal"]) == (
            [0, 1], [0, 2, 4])
        assert run(["hg", "solve", str(s3), "--a", "1", "--b", "0", "--lemma"]) == 0
        edit(data["ambient"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["hg", "solve", str(bad), "--a", "1", "--b", "0", "--lemma"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _first_construction(spec, generators):
    g = group_from_spec(spec)
    h = subgroup_closure(g, generators)
    return standard_construction(g, h, enumerate_transversals(g, h, limit=1)[0])


# the files the fuzzer mutates: one with an ambient for `hg solve
# --lemma`, one field image for reconstruct-field
FUZZ_BASES = {"s3": hypergroup_to_json(_first_construction("S3", [1])),
              "gf4": hypergroup_to_json(functor_field(make_field(4)))}

# ambients of other constructions, each valid on its own
FUZZ_AMBIENTS = [hypergroup_to_json(_first_construction(spec, gens))["ambient"]
                 for spec, gens in (("E", []), ("Z4", [2]), ("Z6", [3]), ("S3", [3]))]

FUZZ_COMMANDS = [["hg", "verify"], ["hg", "solve", "--a", "1", "--b", "0"],
                 ["hg", "solve", "--a", "1", "--b", "0", "--lemma"],
                 ["hg", "iso"], ["reconstruct-field"]]

# values for a leaf: of the wrong type, or integers small, negative or huge
WRONG_LEAVES = st.one_of(
    st.text(max_size=3), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.integers(-3, 9), st.integers(2 ** 63 - 1, 2 ** 70),
    st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.sampled_from(["table", "name", "group"]), st.integers(0, 3),
                    max_size=2))


def _json_paths(obj, path=()):
    """The path of every value in obj, obj's own () first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated_files(draw):
    """(base name, text): a FUZZ_BASES file cut short, with a key
    dropped, a value swapped for one of the wrong type, an ambient list
    made longer or shorter, or the ambient of another construction."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    data = copy.deepcopy(FUZZ_BASES[name])
    kind = draw(st.sampled_from(["truncate", "drop", "leaf", "resize", "ambient"]))
    if kind == "ambient":
        data["ambient"] = draw(st.sampled_from(FUZZ_AMBIENTS))
        return name, json.dumps(data)
    if kind == "truncate":
        text = json.dumps(data)
        return name, text[:draw(st.integers(0, len(text) - 1))]
    paths = list(_json_paths(data))[1:]
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(data, path[:-1])[path[-1]]
    elif kind == "leaf":
        path = draw(st.sampled_from(paths))
        _at(data, path[:-1])[path[-1]] = draw(WRONG_LEAVES)
    else:
        lists = [p for p in paths if p[0] == "ambient" and isinstance(_at(data, p), list)]
        target = _at(data, draw(st.sampled_from(lists))) if lists else data.setdefault(
            "ambient", [])
        if target and draw(st.booleans()):
            del target[draw(st.integers(0, len(target) - 1))]
        else:
            target.append(copy.deepcopy(target[0]) if target and draw(st.booleans())
                          else draw(st.integers(-1, 7)))
    return name, json.dumps(data)


@pytest.fixture(scope="class")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzzedFiles:
    """Mutated hypergroup files through the CLI, in process: each call
    answers with exit 0, 1, 2 or 3 and raises nothing."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=mutated_files(), command=st.sampled_from(FUZZ_COMMANDS))
    def test_exit_code_contract(self, fuzz_dir, case, command):
        name, text = case
        bad, base = fuzz_dir / "bad.json", fuzz_dir / "base.json"
        bad.write_text(text)
        base.write_text(json.dumps(FUZZ_BASES[name]))
        files = [str(bad), str(base)] if command == ["hg", "iso"] else [str(bad)]
        argv = command[:2] + files + command[2:] if command[0] == "hg" else command + files
        assert run(argv) in (0, 1, 2, 3)


def _frozen_calls(tmp_path):
    """{name: argv} of CLI calls whose exit code and stdout are frozen.

    The inputs are written by the CLI and edited as JSON lists, so they
    do not depend on how the library stores its tables: an S3 hypergroup
    over {0,1} with two xi cells of one column swapped (A2, A4 and A5
    fail with witnesses), a relabelled copy of the unedited one, the Z6
    example, a certificate that collapses H, and the group functor image
    of Z3, which is no field.
    """
    def construct(name, *argv):
        path = tmp_path / name
        assert run(["hg", "construct", *argv, "-o", str(path)]) == 0
        return json.loads(path.read_text()), str(path)

    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    s3, s3_file = construct("s3.json", "--group", "S3", "--subgroup", "1",
                            "--transversal", "auto")
    _, z6_file = construct("z6.json", "--group", "Z6", "--subgroup", "3",
                           "--transversal", "0,1,2")
    swapped = json.loads(json.dumps(s3))
    xi = swapped["xi"]
    xi[1][1], xi[2][1] = xi[2][1], xi[1][1]
    swapped_file = write("swapped.json", swapped)
    neutral = json.loads(json.dumps(s3))
    neutral["xi"][0][1] = 0  # the left neutral row and column 1 break
    neutral_file = write("neutral.json", neutral)
    perm = [2, 0, 1]
    inv = [perm.index(i) for i in range(3)]
    relabelled = {
        "m_size": 3, "h": s3["h"], "o": perm[s3["o"]],
        "phi": [[perm[s3["phi"][inv[a]][al]] for al in range(2)] for a in range(3)],
        "psi": [[s3["psi"][inv[a]][al] for al in range(2)] for a in range(3)],
        "xi": [[perm[s3["xi"][inv[a]][inv[b]]] for b in range(3)] for a in range(3)],
        "lam": [[s3["lam"][inv[a]][inv[b]] for b in range(3)] for a in range(3)],
    }
    relabelled_file = write("relabelled.json", relabelled)
    collapse_file = write("collapse.json", {"f0": [0, 0], "f1": [0, 1, 2]})
    fg3_file = str(tmp_path / "fg3.json")
    assert run(["functor", "group", "Z3", "-o", fg3_file]) == 0
    return {
        "verify_text": ["hg", "verify", swapped_file],
        "verify_json": ["--format", "json", "hg", "verify", swapped_file],
        "verify_neutral_text": ["hg", "verify", neutral_file],
        "solve_divide": ["--format", "json", "hg", "solve", z6_file,
                         "--a", "1", "--b", "0"],
        "solve_lemma": ["--format", "json", "hg", "solve", z6_file,
                        "--a", "1", "--b", "0", "--lemma"],
        "iso_relabelled": ["--format", "json", "hg", "iso", s3_file,
                           relabelled_file],
        "morphism_text": ["hg", "morphism", z6_file, z6_file, collapse_file],
        "morphism_json": ["--format", "json", "hg", "morphism", z6_file,
                          z6_file, collapse_file],
        "reconstruct_text": ["reconstruct-field", fg3_file],
        "field_json": ["--format", "json", "field", "GF(8)"],
        "field_text": ["field", "GF(4;x^2+x+1)"],
    }


# (exit code, sha256 of stdout) of each call in _frozen_calls, taken
# when the tables were still stored as lists; the field calls were
# added before the field checks moved into the shared Report
FROZEN_CLI = {
    "field_json": (0, "d01f5f66c66a08337ded0aeb820438dbaddb2348a941099fffb2d2d5399f7b78"),
    "field_text": (0, "d9f4170cf86746ef4e993d0157392863f7bec134fe8b150ae0bc141dcbb0f5a8"),
    "iso_relabelled": (0, "aa792ae22dccf49a791157da878fa37f6b1cceaaee7fde8ab88500fded48ff63"),
    "morphism_json": (1, "cf62485de3a58c97f968705228e64bc43e82368e433d6e35fa490ffb86798e3d"),
    "morphism_text": (1, "4ec9dfa01a26375bbcc5e179d08d6239683d67317af6cffacff97b4946b38af8"),
    "reconstruct_text": (1, "bf89e770d079c2f85c94ceccac5b990cf65a87cd31cf06a1a9f690ca1c85cfe6"),
    "solve_divide": (0, "b3d4beb7179bf99036d095cda5a06b0bdb831ea0807d81fab2530e34c1441d5b"),
    "solve_lemma": (0, "9b35a319906d0f8dea4e05dd2b39abbb5169e0af6356be5f1e061d00e6451ccd"),
    "verify_json": (1, "73afd4a19295ce8d739655ddb27a41b018db7cddccb9ef630fb7278d545537e6"),
    "verify_neutral_text": (1, "7118117edc6aba49be2153995f8805f943d1d2ab71ef61d59ee22f948a0c786b"),
    "verify_text": (1, "292de99a7d1de92be26f8c803eeae4a99de5d34b0e1dbce6e79a888df60ba648"),
}


class TestFrozenCliOutputs:
    @pytest.mark.parametrize("name", sorted(FROZEN_CLI))
    def test_exit_code_and_stdout(self, name, tmp_path, capsys):
        argv = _frozen_calls(tmp_path)[name]
        capsys.readouterr()
        code = run(argv)
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == FROZEN_CLI[name]


# (exit code, sha256) of each call of the field pipeline, in this order,
# taken while the field tables were built from a product cube as lists;
# functor_file hashes the file that "functor field -o" writes (its
# stdout is empty), every other call hashes stdout
FROZEN_FIELD_PIPELINE = {
    "GF(125;x^3+3x+2)": {
        "field_text": (0, "9c99f6118a1e08d229cd47d89ea5e7969eaaa25a18ed2c618b35918eab2c8941"),
        "field_json": (0, "d01f5f66c66a08337ded0aeb820438dbaddb2348a941099fffb2d2d5399f7b78"),
        "functor_file": (0, "8b46077cc74cd417b9ca7df401e5905a34fe58d21bb8a89918dde1b98fe4dc0d"),
        "verify_json": (0, "139bb864f7c85cd5bf3f8c2e086510ee3be9a42b9c935a34d768666c3a0a9627"),
        "reconstruct_text": (0, "64aada7450655406833eb7dc7aca7dff9a4b4782b39ae15f932162d58884be85"),
        "reconstruct_json": (0, "37ad44ea3419b8ec9c5d0577dffd053a2847329a22dc9dce0c8b5e8164e45329"),
    },
    "GF(128;x^7+x+1)": {
        "field_text": (0, "a6c73d920b29697b860f4510a01061edb70e7602cdca8611f7b30401af1fddb0"),
        "field_json": (0, "d01f5f66c66a08337ded0aeb820438dbaddb2348a941099fffb2d2d5399f7b78"),
        "functor_file": (0, "018fc631462232a5c8b72665ddad9dea7ed61bb20acac1a8ea03bb5981a8a6cc"),
        "verify_json": (0, "139bb864f7c85cd5bf3f8c2e086510ee3be9a42b9c935a34d768666c3a0a9627"),
        "reconstruct_text": (0, "312273271f734bc9c20af7820ce11d4f9460dfc833601121863e568c6b09b03a"),
        "reconstruct_json": (0, "0325e44d84d741d64e2f4ce1b3e73a4fb5455e8ed63034562177776c487d016c"),
    },
    "GF(256)": {
        "field_text": (0, "e90a8049862ebaf241d3d16dfa1b0e6c040b48f539bb7b71f581d7e753af729d"),
        "field_json": (0, "d01f5f66c66a08337ded0aeb820438dbaddb2348a941099fffb2d2d5399f7b78"),
        "functor_file": (0, "1d01058c6d5483c6831d7b5eb9b9c7ac26f2c6e7ee729f4fc2bf6f1695c8bf61"),
        "verify_json": (0, "139bb864f7c85cd5bf3f8c2e086510ee3be9a42b9c935a34d768666c3a0a9627"),
        "reconstruct_text": (0, "f18a64944d5013b28e66a95980f1992b7cfd7f71d4f7874678253a6625fddc15"),
        "reconstruct_json": (0, "d6f332319991b0379470dbeedcb860b1534e18897497c44c398f647c98b2f4ab"),
    },
}


class TestFrozenFieldPipeline:
    @pytest.mark.parametrize("spec", sorted(FROZEN_FIELD_PIPELINE))
    def test_exit_codes_and_digests(self, spec, tmp_path, capsys):
        path = tmp_path / "ff.json"
        calls = {
            "field_text": ["field", spec],
            "field_json": ["--format", "json", "field", spec],
            "functor_file": ["functor", "field", spec, "-o", str(path)],
            "verify_json": ["--format", "json", "hg", "verify", str(path)],
            "reconstruct_text": ["reconstruct-field", str(path)],
            "reconstruct_json": ["--format", "json", "reconstruct-field", str(path)],
        }
        got = {}
        for name, argv in calls.items():
            capsys.readouterr()
            code = run(argv)
            out = capsys.readouterr().out.encode()
            if name == "functor_file":
                assert out == b""
                out = path.read_bytes()
            got[name] = (code, hashlib.sha256(out).hexdigest())
        assert got == FROZEN_FIELD_PIPELINE[spec]


def _least_coset_reps(spec, gens):
    group = group_from_spec(spec)
    return ",".join(str(min(c)) for c in right_cosets(group, subgroup_closure(group, gens)).cosets)


# (exit code, sha256) of the file each call writes with -o (stdout for
# group_info, which has no -o), taken while the writers still turned
# every table into lists of ints: the |M| = 256 file of GF(2)^8 over the
# trivial subgroup, with its 256 x 256 ambient table, and the |M| = 128
# file over a non-normal subgroup of order 2
FROZEN_WRITES = {
    "construct_z2_8": (0, "197ae41918c7272be8706f14bda22add177c16434ee8b907b1bc72cee1a248bf"),
    "construct_d8xz16": (0, "8161d34818d27264574cc0dc9c80c4fe9ac99d2fde8105f004da42ad8aa6ee8c"),
    "functor_group_z3": (0, "b28ece2b9070a2058f8345cf90a4314e9dfc39777df63c08c3d31e8d24fc91bb"),
    "group_info": (0, "0b24e99775f5f4f8c2bad6533200ad89c6324eedaaba64bbe9014c27406e2cab"),
}


class TestFrozenWrites:
    @pytest.mark.parametrize("name", sorted(FROZEN_WRITES))
    def test_exit_code_and_bytes(self, name, tmp_path, capsys):
        path = tmp_path / "out.json"
        argv = {
            "construct_z2_8": ["hg", "construct", "--group", "x".join(["Z2"] * 8),
                               "--subgroup", "", "--transversal", "auto"],
            "construct_d8xz16": ["hg", "construct", "--group", "D8xZ16", "--subgroup", "128",
                                 "--transversal", _least_coset_reps("D8xZ16", [128])],
            "functor_group_z3": ["functor", "group", "Z3"],
            "group_info": ["--format", "json", "group", "info", "D4"],
        }[name]
        capsys.readouterr()
        if name == "group_info":
            code = run(argv)
            out = capsys.readouterr().out.encode()
        else:
            code = run(argv + ["-o", str(path)])
            assert capsys.readouterr().out == ""
            out = path.read_bytes()
        assert (code, hashlib.sha256(out).hexdigest()) == FROZEN_WRITES[name]
