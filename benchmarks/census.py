"""Reach census: which ``src/`` functions the benchmark and the benches enter.

    python benchmarks/census.py [--check] [--json FILE]

Every ``src/`` function entered is recorded with a profile hook
(``sys.monitoring`` where the interpreter has it, else ``sys.setprofile``
plus ``threading.setprofile``; forked fleet workers are hooked too) while
three phases run, each in its own interpreter:

* ``ledger`` -- ``benchmarks/ledger/run.py --quick``: all four workloads,
  untraced and traced;
* ``paper`` -- every ``bench_table*`` / ``bench_fig*`` / ``bench_ablation*``
  test, called directly with a stand-in ``benchmark`` object and fixtures
  resolved by name (no pytest session);
* ``smoke`` -- the CI smoke benches (serving, fleet, partition pruning,
  stream soak, feedback loop, workload statistics) in their smoke
  configurations, plus ``examples/forge_demo.py``.

Abstract methods and ``Protocol`` members are not counted: nobody enters
their bodies.  A function nobody enters needs a line in
``benchmarks/census_verdicts.txt``::

    src/repro/pkg/mod.py::Class.method  exercised: <workload or CI job>
    src/repro/pkg/mod.py::function  guarded: <test id> — <why it stays>

``exercised`` names a run the census does not hook; ``guarded`` names the
test that keeps the path honest and why the path stays.  A path with
neither verdict is deleted rather than listed.  ``--check`` exits 1 when an
unreached function has no verdict, when a verdict names a function that no
longer exists, or when a guarding test id does not exist.  A bench that
fails under the hook is reported, not fatal: the census measures reach, and
the smoke soak's retrain-landing assertions depend on machine speed.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import json
import multiprocessing.util
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = ROOT / "benchmarks"
TESTS = ROOT / "tests"
VERDICTS = BENCH_DIR / "census_verdicts.txt"

PHASES = ("ledger", "paper", "smoke")
PAPER_BENCH = re.compile(r"bench_(table\d|fig\d|ablation)\w*\.py$")
#: CI smoke benches and the environment switch that selects their smoke mode
SMOKE_BENCHES = {
    "bench_serving_throughput.py": "SERVING_BENCH_SMOKE",
    "bench_fleet_throughput.py": "FLEET_BENCH_SMOKE",
    "bench_partition_scaling.py": "PARTITION_BENCH_SMOKE",
    "bench_stream_soak.py": "STREAM_BENCH_SMOKE",
    "bench_feedback_loop.py": "FEEDBACK_BENCH_SMOKE",
    "bench_table5_workload_stats.py": "WORKLOAD_BENCH_SMOKE",
}
VERDICT = re.compile(
    r"^(?P<key>\S+::\S+)\s+(?:exercised:\s*(?P<run>\S.*)"
    r"|guarded:\s*(?P<test>\S+)\s+(?:--|—)\s+(?P<why>\S.*))$"
)


# ----------------------------------------------------------------------
# The hook (runs inside each phase's interpreter)
# ----------------------------------------------------------------------
class Recorder:
    """Collects the code objects entered under ``src/`` in this process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.prefix = str(SRC) + os.sep
        self.codes: set = set()

    def install(self) -> None:
        codes = self.codes
        monitoring = getattr(sys, "monitoring", None)
        if monitoring is not None:
            tool = monitoring.PROFILER_ID
            monitoring.use_tool_id(tool, "repro-census")
            disable = monitoring.DISABLE

            def on_start(code, offset):
                codes.add(code)
                return disable

            start_event = monitoring.events.PY_START
            monitoring.register_callback(tool, start_event, on_start)
            monitoring.set_events(tool, start_event)
        else:

            def on_event(frame, event, arg):
                if event == "call":
                    codes.add(frame.f_code)

            sys.setprofile(on_event)
            threading.setprofile(on_event)
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # A forked fleet worker may die by SIGKILL, so it flushes on a timer
        # as well as at a clean exit.
        def flush_forever() -> None:
            while True:
                time.sleep(0.5)
                self.flush()

        threading.Thread(target=flush_forever, daemon=True).start()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def names(self) -> list[list]:
        return sorted(
            {
                (
                    str(Path(code.co_filename).relative_to(ROOT)),
                    code.co_qualname,
                )
                for code in list(self.codes)
                if code.co_filename.startswith(self.prefix)
            }
        )

    def flush(self) -> None:
        path = self.out_dir / f"reached-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.names()))
        tmp.replace(path)


class StandInBenchmark:
    """The slice of pytest-benchmark's fixture the benches use."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_):
        return fn(*args, **(kwargs or {}))


class StandInRequest:
    def __init__(self, resolve):
        self.getfixturevalue = resolve


class FixtureResolver:
    """Resolves a bench's fixture arguments by name, caching each value."""

    def __init__(self, conftest, tmp_root: Path):
        self.conftest = conftest
        self.tmp_root = tmp_root
        self.cache: dict[tuple[int, str], object] = {}
        self.module = None

    def _fixture(self, name: str):
        for owner in (self.module, self.conftest):
            candidate = getattr(owner, name, None)
            if candidate is None:
                continue
            wrapped = getattr(candidate, "_get_wrapped_function", None)
            if wrapped is not None:
                return wrapped()
            legacy = getattr(candidate, "__pytest_wrapped__", None)
            if legacy is not None:
                return legacy.obj
        raise LookupError(f"no fixture named {name!r}")

    def resolve(self, name: str):
        if name == "benchmark":
            return StandInBenchmark()
        if name == "tmp_path":
            return Path(tempfile.mkdtemp(dir=self.tmp_root))
        if name == "request":
            return StandInRequest(self.resolve)
        # Session fixtures (the conftest's lab) are shared across modules.
        owner = self.conftest if not hasattr(self.module, name) else self.module
        key = (id(owner), name)
        if key not in self.cache:
            fn = self._fixture(name)
            value = fn(*self.arguments(fn))
            if inspect.isgenerator(value):
                value = next(value)  # a yield fixture; its teardown is skipped
            self.cache[key] = value
        return self.cache[key]

    def arguments(self, fn) -> list:
        params = list(inspect.signature(fn).parameters)
        if params and params[0] == "self":
            params = params[1:]
        return [self.resolve(p) for p in params]


def _bench_tests(module):
    for name, obj in vars(module).items():
        if name.startswith("test_") and inspect.isfunction(obj):
            yield name, obj
        elif name.startswith("Test") and inspect.isclass(obj):
            instance = obj()
            for attr in sorted(vars(obj)):
                if attr.startswith("test_"):
                    yield f"{name}.{attr}", getattr(instance, attr)


def _skipped(test) -> bool:
    """A ``skip`` mark, or a ``skipif`` mark whose condition holds."""
    return any(
        mark.name == "skip" or (mark.name == "skipif" and mark.args[0])
        for mark in getattr(test, "pytestmark", [])
    )


def run_benches(files: list[str], tmp_root: Path) -> list[str]:
    """Call every test of ``files`` directly; return the failures."""
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    os.chdir(BENCH_DIR)
    import conftest
    import pytest

    resolver = FixtureResolver(conftest, tmp_root)
    failures = []
    for file in files:
        resolver.module = importlib.import_module(Path(file).stem)
        for name, test in _bench_tests(resolver.module):
            start = time.perf_counter()
            try:
                if _skipped(test):
                    raise pytest.skip.Exception("skip mark")
                test(*resolver.arguments(test))
                outcome = "ok"
            except pytest.skip.Exception:
                outcome = "skipped"
            except Exception as exc:  # a failing bench still reaches code
                traceback.print_exc()
                outcome = f"FAILED {type(exc).__name__}: {exc}"
                failures.append(f"{file}::{name}: {outcome}")
            print(
                f"census: {file}::{name} {outcome} "
                f"({time.perf_counter() - start:.1f} s)",
                flush=True,
            )
    return failures


def child(phase: str, out_dir: Path) -> int:
    recorder = Recorder(out_dir)
    recorder.install()
    failures: list[str] = []
    try:
        if phase == "ledger":
            sys.argv = [str(BENCH_DIR / "ledger" / "run.py"), "--quick"]
            try:
                runpy.run_path(sys.argv[0], run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    failures.append(f"ledger --quick exited {exc.code}")
        elif phase == "paper":
            benches = BENCH_DIR.glob("bench_*.py")
            files = sorted(p.name for p in benches if PAPER_BENCH.match(p.name))
            failures += run_benches(files, out_dir)
        elif phase == "smoke":
            for variable in SMOKE_BENCHES.values():
                os.environ[variable] = "1"
            failures += run_benches(sorted(SMOKE_BENCHES), out_dir)
            demo = ROOT / "examples" / "forge_demo.py"
            sys.path.insert(0, str(demo.parent))
            sys.argv = [str(demo), str(out_dir / "forge-store")]
            runpy.run_path(str(demo), run_name="__main__")
        else:
            raise SystemExit(f"census: unknown phase {phase!r}")
    finally:
        recorder.flush()
    for failure in failures:
        print(f"census: {failure}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# The universe of functions and the verdicts (runs in the parent)
# ----------------------------------------------------------------------
def _is_stub(node, owner) -> bool:
    """An abstract method or a Protocol member: a body nobody enters."""
    decorators = [ast.unparse(d) for d in node.decorator_list]
    if any(d.endswith("abstractmethod") for d in decorators):
        return True
    bases = [ast.unparse(b) for b in getattr(owner, "bases", [])]
    return any(b.endswith("Protocol") for b in bases)


def defined_functions() -> dict[tuple[str, str], tuple[int, int]]:
    """(path, qualname) -> (first line, last line) for every def in src/,
    abstract methods and Protocol members excluded."""
    functions: dict[tuple[str, str], tuple[int, int]] = {}

    def walk(node, prefix: str, path: str) -> None:
        for child_node in ast.iter_child_nodes(node):
            if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stub(child_node, node):
                    continue
                qualname = prefix + child_node.name
                span = (child_node.lineno, child_node.end_lineno)
                first, last = functions.get((path, qualname), span)
                functions[(path, qualname)] = (
                    min(first, span[0]),
                    max(last, span[1]),
                )
                walk(child_node, qualname + ".<locals>.", path)
            elif isinstance(child_node, ast.ClassDef):
                walk(child_node, prefix + child_node.name + ".", path)
            else:
                walk(child_node, prefix, path)

    for file in sorted(SRC.rglob("*.py")):
        path = str(file.relative_to(ROOT))
        walk(ast.parse(file.read_text()), "", path)
    return functions


def unreached_lines(functions, unreached: set) -> tuple[int, int]:
    """(lines inside any def, lines whose innermost def is unreached)."""
    total = missed = 0
    by_file: dict[str, list] = {}
    for (path, qualname), span in functions.items():
        by_file.setdefault(path, []).append((span, (path, qualname)))
    for entries in by_file.values():
        innermost: dict[int, tuple] = {}
        # Wider spans first, so nested defs overwrite their enclosing def.
        for (first, last), key in sorted(entries, key=lambda e: e[0][0] - e[0][1]):
            for line in range(first, last + 1):
                innermost[line] = key
        total += len(innermost)
        missed += sum(1 for key in innermost.values() if key in unreached)
    return total, missed


def read_verdicts() -> tuple[dict[tuple[str, str], str], list[str]]:
    verdicts: dict[tuple[str, str], str] = {}
    errors: list[str] = []
    if not VERDICTS.exists():
        return verdicts, errors
    for number, line in enumerate(VERDICTS.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = VERDICT.match(line)
        if match is None:
            errors.append(f"{VERDICTS.name}:{number}: malformed verdict: {line}")
            continue
        path, qualname = match["key"].split("::", 1)
        if (path, qualname) in verdicts:
            errors.append(f"{VERDICTS.name}:{number}: duplicate {match['key']}")
        verdicts[(path, qualname)] = line
        test = match["test"]
        if test is not None and not _test_exists(test):
            errors.append(f"{VERDICTS.name}:{number}: no such test {test}")
    return verdicts, errors


def _test_exists(test_id: str) -> bool:
    file, _, rest = test_id.partition("::")
    path = ROOT / file
    if not path.is_file() or not rest:
        return False
    tree = ast.parse(path.read_text())
    node = tree
    for part in rest.split("::"):
        part = part.split("[", 1)[0]
        children = {
            c.name: c
            for c in ast.iter_child_nodes(node)
            if isinstance(c, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if part not in children:
            return False
        node = children[part]
    return True


def run_phases(out_dir: Path) -> tuple[set, dict[str, float]]:
    seconds: dict[str, float] = {}
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for phase in PHASES:
        phase_dir = out_dir / phase
        phase_dir.mkdir()
        start = time.perf_counter()
        print(f"census: phase {phase} ...", flush=True)
        command = [sys.executable, str(Path(__file__).resolve())]
        command += ["--child", phase, "--out-dir", str(phase_dir)]
        done = subprocess.run(command, env=env, cwd=ROOT)
        seconds[phase] = round(time.perf_counter() - start, 1)
        if done.returncode != 0:
            raise SystemExit(f"census: phase {phase} exited {done.returncode}")
    reached = set()
    for file in out_dir.rglob("reached-*.json"):
        reached.update(tuple(name) for name in json.loads(file.read_text()))
    return reached, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="exit 1 on a missing or stale verdict"
    )
    parser.add_argument(
        "--json", type=Path, help="write the summary and the unreached functions here"
    )
    parser.add_argument("--child", choices=PHASES, help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.out_dir)

    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        reached, seconds = run_phases(Path(tmp))
    functions = defined_functions()
    unreached = {key for key in functions if key not in reached}
    total_lines, missed_lines = unreached_lines(functions, unreached)
    verdicts, errors = read_verdicts()
    missing = sorted(unreached - set(verdicts))
    for key in sorted(set(verdicts) - set(functions)):
        errors.append(f"verdict for a function that does not exist: {'::'.join(key)}")
    # Reach of a few timing-dependent paths varies between runs, so a
    # verdict for a function this run happened to enter is only reported.
    for key in sorted(set(verdicts) & reached):
        print(f"census: note: this run entered {'::'.join(key)}, which has a verdict")
    summary = {
        "functions": len(functions),
        "reached": len(functions) - len(unreached),
        "unreached": len(unreached),
        "function_lines": total_lines,
        "unreached_lines": missed_lines,
        "verdicts": len(verdicts),
        "missing_verdicts": len(missing),
        "phase_seconds": seconds,
    }
    print(json.dumps(summary, indent=2))
    if args.json:
        unreached_names = ["::".join(key) for key in sorted(unreached)]
        document = dict(summary, unreached_functions=unreached_names)
        args.json.write_text(json.dumps(document, indent=2) + "\n")
    for key in missing:
        print(f"census: no verdict for {'::'.join(key)}")
    for error in errors:
        print(f"census: {error}")
    return 1 if args.check and (missing or errors) else 0


if __name__ == "__main__":
    sys.exit(main())
