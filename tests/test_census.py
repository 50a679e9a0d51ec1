"""Tests for the reach census (``benchmarks/census.py``).

The census's phases run whole benches and take minutes, so these tests
drive its parts on a small fake source tree: the function universe it
counts, the verdict grammar, the test-id lookup, the bench stand-ins, and
the ``--check`` gate with the phases replaced by a fixed reached set.
"""

from __future__ import annotations

import importlib.util
import json
import os
import textwrap
import types
from pathlib import Path

import pytest

from repro.storage.io_stats import IOCounter

ROOT = Path(__file__).resolve().parents[1]


def _load_census():
    path = ROOT / "benchmarks" / "census.py"
    spec = importlib.util.spec_from_file_location("repro_reach_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()

MODULE = '''\
import abc
from typing import Protocol


def top():
    def inner():
        return 1

    return inner()


class Shape(abc.ABC):
    @abc.abstractmethod
    def area(self):
        ...

    def describe(self):
        return "shape"


class Sized(Protocol):
    def size(self) -> int:
        ...


class Box:
    @property
    def width(self):
        return 1

    @width.setter
    def width(self, value):
        pass
'''

TEST_MODULE = '''\
import pytest


def test_top():
    pass


class TestBox:
    @pytest.mark.parametrize("n", [1, 2])
    def test_width(self, n):
        pass
'''

MOD = "src/pkg/mod.py"
GUARD = "tests/test_mod.py::test_top"


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    """A fake repository root with one source module and one test module."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(TEST_MODULE)
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "SRC", tmp_path / "src")
    monkeypatch.setattr(census, "VERDICTS", tmp_path / "verdicts.txt")
    return tmp_path


def _write_verdicts(tree, *lines):
    (tree / "verdicts.txt").write_text("\n".join(lines) + "\n")


class TestFunctionUniverse:
    def test_nested_functions_carry_the_locals_qualname(self, tree):
        functions = census.defined_functions()
        assert (MOD, "top") in functions
        assert (MOD, "top.<locals>.inner") in functions

    def test_abstract_methods_and_protocol_members_are_not_counted(self, tree):
        functions = census.defined_functions()
        assert (MOD, "Shape.describe") in functions
        assert (MOD, "Shape.area") not in functions
        assert (MOD, "Sized.size") not in functions

    def test_property_getter_and_setter_share_one_span(self, tree):
        functions = census.defined_functions()
        first, last = functions[(MOD, "Box.width")]
        lines = MODULE.splitlines()
        assert lines[first - 1].strip() == "def width(self):"
        assert lines[last - 1].strip() == "pass"
        assert [key for key in functions if key[1].startswith("Box.")] == [
            (MOD, "Box.width")
        ]

    def test_keys_match_the_qualnames_the_hook_records(self):
        functions = census.defined_functions()
        code = IOCounter.record_dictionary.__code__
        key = (str(Path(code.co_filename).relative_to(ROOT)), code.co_qualname)
        assert key == ("src/repro/storage/io_stats.py", "IOCounter.record_dictionary")
        assert key in functions
        first, last = functions[key]
        assert first <= code.co_firstlineno <= last


class TestUnreachedLines:
    def test_nested_def_lines_count_for_the_innermost_def(self, tree):
        functions = census.defined_functions()
        first, last = functions[(MOD, "top.<locals>.inner")]
        total, missed = census.unreached_lines(
            functions, {(MOD, "top.<locals>.inner")}
        )
        assert missed == last - first + 1
        covered = set()
        for start, stop in functions.values():
            covered.update(range(start, stop + 1))
        assert total == len(covered)

    def test_an_unreached_outer_def_does_not_claim_a_reached_inner_one(self, tree):
        functions = census.defined_functions()
        outer_first, outer_last = functions[(MOD, "top")]
        inner_first, inner_last = functions[(MOD, "top.<locals>.inner")]
        _, missed = census.unreached_lines(functions, {(MOD, "top")})
        outer = outer_last - outer_first + 1
        assert missed == outer - (inner_last - inner_first + 1)

    def test_nothing_unreached_misses_nothing(self, tree):
        functions = census.defined_functions()
        total, missed = census.unreached_lines(functions, set())
        assert missed == 0
        assert total > 0


class TestVerdictGrammar:
    @pytest.mark.parametrize(
        "line",
        [
            f"{MOD}::top  exercised: fleet_mixed",
            f"{MOD}::top  guarded: {GUARD} — paper §4.3 fill",
            f"{MOD}::top  guarded: {GUARD} -- the fallback contract",
        ],
    )
    def test_well_formed_lines_parse(self, line):
        match = census.VERDICT.match(line)
        assert match is not None
        assert match["key"] == f"{MOD}::top"

    @pytest.mark.parametrize(
        "line",
        [
            f"{MOD}::top",
            f"{MOD}::top  deleted",
            f"{MOD}::top  guarded: {GUARD}",
            f"{MOD}  exercised: fleet_mixed",
        ],
    )
    def test_malformed_lines_do_not_parse(self, line):
        assert census.VERDICT.match(line) is None

    def test_guarded_verdict_names_its_test_and_reason(self):
        match = census.VERDICT.match(f"{MOD}::top  guarded: {GUARD} — why")
        assert match["test"] == GUARD
        assert match["why"] == "why"
        assert match["run"] is None


class TestReadVerdicts:
    def test_missing_file_means_no_verdicts(self, tree):
        assert census.read_verdicts() == ({}, [])

    def test_comments_and_blank_lines_are_skipped(self, tree):
        _write_verdicts(
            tree,
            "# a comment",
            "",
            f"{MOD}::top  exercised: fleet_mixed",
            f"{MOD}::Box.width  guarded: {GUARD} — the setter path",
        )
        verdicts, errors = census.read_verdicts()
        assert errors == []
        assert set(verdicts) == {(MOD, "top"), (MOD, "Box.width")}

    def test_malformed_line_reports_its_number(self, tree):
        _write_verdicts(tree, "# header", f"{MOD}::top  unknown")
        verdicts, errors = census.read_verdicts()
        assert verdicts == {}
        assert len(errors) == 1
        assert "verdicts.txt:2: malformed verdict" in errors[0]

    def test_duplicate_verdict_is_an_error(self, tree):
        line = f"{MOD}::top  exercised: fleet_mixed"
        _write_verdicts(tree, line, line)
        _, errors = census.read_verdicts()
        assert errors == [f"verdicts.txt:2: duplicate {MOD}::top"]

    def test_guard_naming_a_missing_test_is_an_error(self, tree):
        missing = "tests/test_mod.py::test_gone"
        _write_verdicts(tree, f"{MOD}::top  guarded: {missing} — why")
        _, errors = census.read_verdicts()
        assert errors == [f"verdicts.txt:1: no such test {missing}"]


class TestTestExists:
    @pytest.mark.parametrize(
        "test_id",
        [
            "tests/test_mod.py::test_top",
            "tests/test_mod.py::TestBox::test_width",
            "tests/test_mod.py::TestBox::test_width[1]",
        ],
    )
    def test_existing_ids(self, tree, test_id):
        assert census._test_exists(test_id)

    @pytest.mark.parametrize(
        "test_id",
        [
            "tests/test_mod.py::test_gone",
            "tests/test_missing.py::test_top",
            "tests/test_mod.py",
            "tests/test_mod.py::TestBox::test_top",
            "tests/test_mod.py::TestBox::test_width::extra",
        ],
    )
    def test_missing_ids(self, tree, test_id):
        assert not census._test_exists(test_id)


class TestBenchStandIns:
    def test_benchmark_calls_the_function(self):
        benchmark = census.StandInBenchmark()
        assert benchmark(lambda a, b=0: a + b, 2, b=3) == 5

    def test_pedantic_ignores_timing_options(self):
        benchmark = census.StandInBenchmark()
        result = benchmark.pedantic(
            lambda a, b: a * b, args=(4,), kwargs={"b": 5}, rounds=7, iterations=3
        )
        assert result == 20

    @pytest.mark.parametrize(
        "mark, skipped",
        [
            (pytest.mark.skip(reason="off"), True),
            (pytest.mark.skipif(True, reason="off"), True),
            (pytest.mark.skipif(False, reason="on"), False),
            (None, False),
        ],
    )
    def test_skip_marks(self, mark, skipped):
        def bench():
            pass

        if mark is not None:
            bench = mark(bench)
        assert census._skipped(bench) is skipped

    def test_bench_tests_finds_functions_and_methods(self):
        module = types.ModuleType("bench_fake")

        def test_alpha():
            pass

        class TestGroup:
            def test_beta(self):
                pass

            def helper(self):
                pass

        module.test_alpha = test_alpha
        module.TestGroup = TestGroup
        module.helper = lambda: None
        found = dict(census._bench_tests(module))
        assert sorted(found) == ["TestGroup.test_beta", "test_alpha"]
        assert found["test_alpha"] is test_alpha
        assert found["TestGroup.test_beta"].__func__ is TestGroup.test_beta


class TestFixtureResolver:
    @staticmethod
    def _resolver(tmp_path):
        calls = []
        conftest = types.ModuleType("conftest")

        @pytest.fixture(scope="session")
        def lab():
            calls.append("lab")
            return {"scale": 0.1}

        @pytest.fixture()
        def bundle(lab):
            return ("bundle", lab["scale"])

        @pytest.fixture()
        def resource():
            yield "open"

        conftest.lab, conftest.bundle, conftest.resource = lab, bundle, resource
        resolver = census.FixtureResolver(conftest, tmp_path)
        resolver.module = types.ModuleType("bench_fake")
        return resolver, calls

    def test_fixtures_resolve_through_their_arguments_once(self, tmp_path):
        resolver, calls = self._resolver(tmp_path)
        assert resolver.resolve("bundle") == ("bundle", 0.1)
        assert resolver.resolve("lab") is resolver.resolve("lab")
        assert calls == ["lab"]

    def test_yield_fixture_resolves_to_its_value(self, tmp_path):
        resolver, _ = self._resolver(tmp_path)
        assert resolver.resolve("resource") == "open"

    def test_module_fixture_shadows_the_conftest(self, tmp_path):
        resolver, calls = self._resolver(tmp_path)

        @pytest.fixture()
        def lab():
            return {"scale": 0.5}

        resolver.module.lab = lab
        assert resolver.resolve("bundle") == ("bundle", 0.5)
        assert calls == []

    def test_builtin_names(self, tmp_path):
        resolver, _ = self._resolver(tmp_path)
        assert isinstance(resolver.resolve("benchmark"), census.StandInBenchmark)
        scratch = resolver.resolve("tmp_path")
        assert scratch.is_dir() and scratch.parent == tmp_path
        assert resolver.resolve("tmp_path") != scratch
        request = resolver.resolve("request")
        assert request.getfixturevalue("lab") == {"scale": 0.1}

    def test_unknown_fixture_raises(self, tmp_path):
        resolver, _ = self._resolver(tmp_path)
        with pytest.raises(LookupError):
            resolver.resolve("nope")

    def test_arguments_skip_self(self, tmp_path):
        resolver, _ = self._resolver(tmp_path)

        class TestBench:
            def test_run(self, benchmark, lab):
                pass

        benchmark, lab = resolver.arguments(TestBench.test_run)
        assert isinstance(benchmark, census.StandInBenchmark)
        assert lab == {"scale": 0.1}


class TestRecorder:
    def test_flush_writes_only_src_functions(self, tmp_path):
        recorder = census.Recorder(tmp_path)
        recorder.codes.add(IOCounter.record_block.__code__)
        recorder.codes.add(_load_census.__code__)  # a test file, not src/
        recorder.flush()
        written = json.loads((tmp_path / f"reached-{os.getpid()}.json").read_text())
        assert written == [["src/repro/storage/io_stats.py", "IOCounter.record_block"]]
        assert not list(tmp_path.glob("*.tmp"))


class TestCheckGate:
    @staticmethod
    def _run(monkeypatch, capsys, reached, *argv):
        reached = {(MOD, name) for name in reached}
        monkeypatch.setattr(census, "run_phases", lambda out_dir: (reached, {}))
        code = census.main(list(argv))
        return code, capsys.readouterr().out

    ALL = ("top", "top.<locals>.inner", "Shape.describe", "Box.width")

    def test_everything_reached_passes(self, tree, monkeypatch, capsys):
        code, out = self._run(monkeypatch, capsys, self.ALL, "--check")
        assert code == 0
        assert '"unreached": 0' in out

    def test_unreached_function_without_verdict_fails(
        self, tree, monkeypatch, capsys
    ):
        reached = [name for name in self.ALL if name != "Box.width"]
        code, out = self._run(monkeypatch, capsys, reached, "--check")
        assert code == 1
        assert f"census: no verdict for {MOD}::Box.width" in out

    def test_without_check_a_missing_verdict_is_only_reported(
        self, tree, monkeypatch, capsys
    ):
        reached = [name for name in self.ALL if name != "Box.width"]
        code, out = self._run(monkeypatch, capsys, reached)
        assert code == 0
        assert f"census: no verdict for {MOD}::Box.width" in out

    def test_verdict_covers_an_unreached_function(self, tree, monkeypatch, capsys):
        _write_verdicts(tree, f"{MOD}::Box.width  guarded: {GUARD} — why")
        reached = [name for name in self.ALL if name != "Box.width"]
        code, out = self._run(monkeypatch, capsys, reached, "--check")
        assert code == 0
        assert '"missing_verdicts": 0' in out

    def test_verdict_for_a_deleted_function_fails(self, tree, monkeypatch, capsys):
        _write_verdicts(tree, f"{MOD}::gone  exercised: fleet_mixed")
        code, out = self._run(monkeypatch, capsys, self.ALL, "--check")
        assert code == 1
        assert f"does not exist: {MOD}::gone" in out

    def test_json_lists_the_unreached_functions(
        self, tree, monkeypatch, capsys, tmp_path
    ):
        report = tmp_path / "census.json"
        self._run(monkeypatch, capsys, ["top"], "--json", str(report))
        document = json.loads(report.read_text())
        assert document["functions"] == 4
        assert document["reached"] == 1
        assert document["unreached_functions"] == [
            f"{MOD}::Box.width",
            f"{MOD}::Shape.describe",
            f"{MOD}::top.<locals>.inner",
        ]


class TestCheckedInVerdicts:
    def test_every_line_parses_and_every_guard_exists(self):
        verdicts, errors = census.read_verdicts()
        assert errors == []
        assert verdicts

    def test_every_verdict_names_an_existing_function(self):
        verdicts, _ = census.read_verdicts()
        functions = census.defined_functions()
        assert sorted(set(verdicts) - set(functions)) == []
