"""The four workloads: inputs made from the seed, one pass of fixed work,
and the checks on every output.

A workload's constructor is its set-up: it makes every input from the
seed. `run_pass` then does the fixed work once, timing each operation
through `Pass.op` and checking the output after the clock stops. The
library is reached only through module attributes looked up at call
time, so a Tracer installed later sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from pathlib import Path

from hypergroups import (classify, cli, core, errors, fields, functors, groups,
                         morphisms, transversals)

# construct_verify: the acceptance sweep of criterion 1 (every builtin
# group up to order 16, every subgroup), with a transversal cap below 256
# so the seed picks which transversals are drawn.
CV_MAX_ORDER = 16
CV_CAP = 32

# classify: a seeded sweep, both abstract enumerations, and one
# exhaustive sweep whose counts and exported bytes are frozen.
CL_SEEDED_ORDER = 16
CL_SEEDED_CAP = 4
CL_ABSTRACT = (("Z2", 12), ("Z3", 10))
CL_EXHAUSTIVE_ORDER = 12
CL_EXHAUSTIVE_CLASSES = 457
CL_EXHAUSTIVE_ENTRIES = 2690
# sha256 over (file name, bytes) of the exhaustive export, in name order.
CL_EXHAUSTIVE_DIGEST = "99580f7ca8bb463a82657f7bdf8d2f7e289d18e1916ca1d6035c5d5f0a40d7c6"

# verify_large: (a) |M| = 256 over trivial H, (b) |M| = 128 over the
# non-normal H = <128> of order 2 in D8xZ16.
VL_ABELIAN = "x".join(["Z2"] * 8)
VL_GROUP_B = "D8xZ16"
VL_GENERATOR_B = 128

# field: (p, degree) of GF(125) and GF(128).
FIELD_ORDERS = ((5, 3), (2, 7))


class OperationFailed(Exception):
    """An output check failed; the operation counts as failed."""


class Pass:
    """Times the operations of one pass and counts their failures."""

    def __init__(self, tracer=None, first_op: int = 0):
        self.tracer = tracer
        self.times: list[float] = []
        self.failures: list[str] = []
        self.facts: dict[str, object] = {}
        self._next_op = first_op

    def op(self, label: str, fn, *args, check=None):
        """Run fn(*args) as one timed operation, then check(result)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self._next_op
        self._next_op += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising operation is a failed one
            self.times.append(time.perf_counter() - start)
            self._fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.op = None
        self.times.append(time.perf_counter() - start)
        if check is not None:
            try:
                check(result)
            except OperationFailed as exc:
                self._fail(label, str(exc))
            except Exception as exc:  # malformed output fails the check too
                self._fail(label, f"check raised {type(exc).__name__}: {exc}")
        return result

    def _fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    @property
    def wall(self) -> float:
        return sum(self.times)


def expect(cond: bool, why: str) -> None:
    if not cond:
        raise OperationFailed(why)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`hypergroups.cli.run` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def expect_exit_0(result) -> dict | None:
    code, out = result
    expect(code == 0, f"exit code {code}")
    return json.loads(out) if out.lstrip().startswith("{") else None


def tree_digest(directory: Path) -> tuple[str, int]:
    """sha256 over (name, bytes) of the files in a directory, and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class Capture:
    """Keeps the last value a CLI-side library call returned.

    Replaces the attribute `cli` resolves and calls through the defining
    module's current attribute, so a Tracer installed later still sees
    the call.
    """

    def __init__(self, module, name: str):
        self._value = None
        self._name = name
        self._original = getattr(cli, name)

        def capture(*args, **kwargs):
            self._value = getattr(module, name)(*args, **kwargs)
            return self._value
        setattr(cli, name, capture)

    def take(self):
        """The value the last call returned; each call's value is taken once."""
        value, self._value = self._value, None
        expect(value is not None, f"the CLI made no {self._name} call")
        return value

    def restore(self) -> None:
        setattr(cli, self._name, self._original)


def check_certificates(catalog) -> None:
    """Every non-representative entry carries an isomorphism onto its
    class representative that verify_morphism accepts."""
    for entry in catalog.entries:
        rep = catalog.class_reps[entry.class_id]
        iso = entry.iso_to_rep
        if iso is None:
            expect(rep is entry.hypergroup, f"{entry.provenance}: no certificate")
            continue
        expect(iso.source is entry.hypergroup and iso.target is rep,
               f"{entry.provenance}: certificate between the wrong pair")
        report = morphisms.verify_morphism(iso)
        expect(report.ok, f"{entry.provenance}: certificate fails {report.failed}")


class ConstructVerify:
    """Tens of thousands of tiny calls (|M| <= 16): per-call overhead of
    standard_construction and verify_axioms dominates."""

    def __init__(self, seed: int, workdir: Path):
        self.triples = [
            (g, h, t)
            for g in groups.builtin_groups(CV_MAX_ORDER)
            for h in groups.enumerate_subgroups(g)
            for t in transversals.sample_transversals(g, h, cap=CV_CAP, seed=seed)
        ]

    @staticmethod
    def _construct_verify(g, h, t):
        return core.verify_axioms(core.standard_construction(g, h, t))

    @staticmethod
    def _check(report) -> None:
        expect(report.overall, f"axioms fail: {report.failing()}")

    def run_pass(self, p: Pass) -> None:
        for g, h, t in self.triples:
            p.op(g.name, self._construct_verify, g, h, t, check=self._check)
        p.facts["ops"] = len(self.triples)

    def close(self) -> None:
        pass


class Classify:
    """Isomorphism dedup dominates; the catalog export is the write side
    of JSON I/O."""

    def __init__(self, seed: int, workdir: Path):
        self.seeded_dir = workdir / "seeded"
        self.exhaustive_dir = workdir / "exhaustive"
        self.seeded_argv = [
            "--seed", str(seed), "--format", "json", "classify",
            "--max-order", str(CL_SEEDED_ORDER),
            "--transversal-cap", str(CL_SEEDED_CAP), "--out", str(self.seeded_dir),
        ]
        self.seeded_entries = sum(
            min(CL_SEEDED_CAP, transversals.transversal_count(g, h))
            for g in groups.builtin_groups(CL_SEEDED_ORDER)
            for h in groups.enumerate_subgroups(g)
        )
        self.exhaustive_argv = [
            "--format", "json", "classify", "--max-order", str(CL_EXHAUSTIVE_ORDER),
            "--out", str(self.exhaustive_dir),
        ]
        self.sweeps = Capture(classify, "sweep_standard")
        self.abstracts = Capture(classify, "enumerate_abstract")

    def _seeded(self, p: Pass) -> None:
        shutil.rmtree(self.seeded_dir, ignore_errors=True)

        def check(result):
            summary = expect_exit_0(result)
            expect(summary["n_entries"] == self.seeded_entries,
                   f"{summary['n_entries']} entries, expected {self.seeded_entries}")
            check_certificates(self.sweeps.take())
            digest, size = tree_digest(self.seeded_dir)
            p.facts.update({"seeded.classes": summary["n_classes"],
                            "seeded.entries": summary["n_entries"],
                            "seeded.export_bytes": size,
                            "seeded.export_sha256": digest})
        p.op("classify seeded", run_cli, self.seeded_argv, check=check)

    def _abstract(self, p: Pass, h: str, classes: int) -> None:
        def check(result):
            summary = expect_exit_0(result)
            expect(summary["n_classes"] == classes,
                   f"{summary['n_classes']} classes over {h}, expected {classes}")
            check_certificates(self.abstracts.take())
            p.facts[f"abstract.{h}.entries"] = summary["n_entries"]
        argv = ["--format", "json", "classify", "--abstract", "--m", "3", "--h", h]
        p.op(f"classify abstract {h}", run_cli, argv, check=check)

    def _exhaustive(self, p: Pass) -> None:
        shutil.rmtree(self.exhaustive_dir, ignore_errors=True)

        def check(result):
            summary = expect_exit_0(result)
            expect(summary["n_classes"] == CL_EXHAUSTIVE_CLASSES
                   and summary["n_entries"] == CL_EXHAUSTIVE_ENTRIES,
                   f"{summary['n_classes']} classes, {summary['n_entries']} "
                   f"entries, expected {CL_EXHAUSTIVE_CLASSES}, {CL_EXHAUSTIVE_ENTRIES}")
            check_certificates(self.sweeps.take())
            digest, size = tree_digest(self.exhaustive_dir)
            expect(digest == CL_EXHAUSTIVE_DIGEST,
                   f"exhaustive export differs from the frozen one ({digest})")
            p.facts["exhaustive.export_bytes"] = size
        p.op("classify exhaustive", run_cli, self.exhaustive_argv, check=check)

    def run_pass(self, p: Pass) -> None:
        self._seeded(p)
        for h, classes in CL_ABSTRACT:
            self._abstract(p, h, classes)
        self._exhaustive(p)

    def close(self) -> None:
        self.sweeps.restore()
        self.abstracts.restore()


class VerifyLarge:
    """A few huge calls: verify_axioms builds |M|^3 temporaries and the
    ambient group's validation |G|^3 ones. The read side of JSON I/O."""

    def __init__(self, seed: int, workdir: Path):
        g = groups.group_from_spec(VL_GROUP_B)
        h = groups.subgroup_closure(g, [VL_GENERATOR_B])
        if h.order != 2 or groups.is_normal(h):
            raise RuntimeError(f"<{VL_GENERATOR_B}> in {VL_GROUP_B} should be "
                               f"a non-normal subgroup of order 2")
        rng = random.Random(seed)
        reps = [rng.choice(coset) for coset in groups.right_cosets(g, h).cosets]
        self.files = {"a": workdir / "a.json", "b": workdir / "b.json"}
        self.construct = {
            "a": ["hg", "construct", "--group", VL_ABELIAN, "--subgroup", "",
                  "--transversal", "auto", "-o", str(self.files["a"])],
            "b": ["hg", "construct", "--group", VL_GROUP_B,
                  "--subgroup", str(VL_GENERATOR_B),
                  "--transversal", ",".join(map(str, reps)),
                  "-o", str(self.files["b"])],
        }

    def run_pass(self, p: Pass) -> None:
        for key in ("a", "b"):
            path = self.files[key]

            def written(result, path=path, key=key):
                expect_exit_0(result)
                p.facts[f"{key}.json_bytes"] = path.stat().st_size

            def verified(result):
                report = expect_exit_0(result)
                expect(report["overall"], f"axioms fail: {report['axioms']}")
            p.op(f"construct {key}", run_cli, self.construct[key], check=written)
            p.op(f"verify {key}", run_cli, ["--format", "json", "hg", "verify", str(path)],
                 check=verified)

    def close(self) -> None:
        pass


class Field:
    """The only workload that uses `fields` and `functors`; their pure-
    Python q^3 loops dominate it."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.fields = []
        for p, m in FIELD_ORDERS:
            while True:  # the seed draws monic candidates until one is irreducible
                modulus = [rng.randrange(p) for _ in range(m)] + [1]
                try:
                    f = fields.make_extension_field(p, modulus)
                except errors.NotIrreducibleError:
                    continue
                break
            spec = f"GF({f.q};{fields.format_poly(modulus)})"
            self.fields.append((spec, f.q, workdir / f"ff{f.q}.json"))
        self.reconstructions = Capture(functors, "reconstruct_field")

    def _check_reconstruction(self, result, q: int) -> None:
        report = expect_exit_0(result)
        expect(report["status"] == "ok", f"reconstruction: {report['status']}")
        rec = self.reconstructions.take()
        iso, canon = rec.iso_to_canonical, rec.field
        expect(canon.q == q and sorted(iso) == list(range(q)),
               "iso_to_canonical is not a bijection onto GF(q)")
        add, mul = rec.add_table, rec.mul_table
        for a in range(q):
            for b in range(q):
                expect(iso[add[a][b]] == canon.add[iso[a]][iso[b]]
                       and iso[mul[a][b]] == canon.mul[iso[a]][iso[b]],
                       f"iso_to_canonical is not a field map at ({a}, {b})")

    def run_pass(self, p: Pass) -> None:
        for spec, q, path in self.fields:
            def overall(result):
                report = expect_exit_0(result)
                expect(report["overall"], f"checks fail: {report}")

            def written(result, path=path, q=q):
                expect_exit_0(result)
                p.facts[f"ff{q}.json_bytes"] = path.stat().st_size

            p.op(f"field {spec}", run_cli, ["--format", "json", "field", spec], check=overall)
            p.op(f"functor {spec}", run_cli, ["functor", "field", spec, "-o", str(path)],
                 check=written)
            p.op(f"verify {spec}", run_cli, ["--format", "json", "hg", "verify", str(path)],
                 check=overall)
            p.op(f"reconstruct {spec}", run_cli,
                 ["--format", "json", "reconstruct-field", str(path)],
                 check=lambda result, q=q: self._check_reconstruction(result, q))

    def close(self) -> None:
        self.reconstructions.restore()


WORKLOADS = {
    "construct_verify": ConstructVerify,
    "classify": Classify,
    "verify_large": VerifyLarge,
    "field": Field,
}
