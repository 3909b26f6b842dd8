"""Command-line interface: every subcommand, all four exit codes,
JSON output parseability, and byte-determinism of repeated calls.

Most tests drive run() in-process and read stdout through capsys; one
test runs the console entry point that pyproject.toml declares in a
fresh interpreter, as the installer-generated wrapper would, so it needs
no install.
"""

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

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import hypergroups
from hypergroups import (
    HgMorphism,
    InternalInconsistencyError,
    cyclic_group,
    hypergroup_from_json,
    hypergroup_to_json,
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

    def test_group_from_file(self, tmp_path, capsys):
        f = tmp_path / "k4.json"
        f.write_text(json.dumps({"name": "K4", "table": cyclic_group(4).table}))
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
