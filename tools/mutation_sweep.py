"""Mutation sweep: which guarded refusals in `src/mvkit` does a test need?

A guard is an `if ...: raise ...` statement with no else branch, or a call
`_expect(condition, message)`.  Each guard is neutralized alone (the `if`
test becomes `False`, the `_expect` condition `True`) in a temporary copy of
the repository, and the tier-1 suite runs on that copy with `-x`.  A mutant
the suite fails is killed; a mutant it passes survives, so no test pins that
guard.  Only the module under `src/mvkit` changes; the tests are copied as
they are.

    python tools/mutation_sweep.py                          # every module
    python tools/mutation_sweep.py finite.py cli.py

Prints one line per guard (the outcome, module:line and the guard's first
source line), then the counts; exits 1 when a mutant survives.  The
unmutated copy runs first and must pass.  A mutant costs up to one tier-1
run, and one mutant runs per CPU, so a sweep of a few dozen guards takes
minutes.  Each run may use MEMORY_MB of address space, so a mutant that
drops a size cap fails with a MemoryError instead of exhausting the machine,
and TIMEOUT_S seconds, past which the mutant counts as killed.  Uses only the standard library; tier-1
does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvkit"
MEMORY_MB = 3072
TIMEOUT_S = 600
# tier-1 with -x, under the address-space limit the run sets on itself
TIER1 = [sys.executable, "-c", "import resource, sys, pytest; "
         f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_MB << 20}, {MEMORY_MB << 20})); "
         "sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider']))"]


def guards(source: str):
    """(line, start, end, replacement) for each guard of `source`, sorted by
    line: bytes start:end of the UTF-8 source are the guard's condition, and
    `replacement` neutralizes it.  ast column offsets count UTF-8 bytes."""
    starts = [0]
    for line in source.encode("utf-8").splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and not node.orelse and len(node.body) == 1 \
                and isinstance(node.body[0], ast.Raise):
            condition, replacement = node.test, b"False"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_expect" and node.args:
            condition, replacement = node.args[0], b"True"
        else:
            continue
        start = starts[condition.lineno - 1] + condition.col_offset
        end = starts[condition.end_lineno - 1] + condition.end_col_offset
        found.append((node.lineno, start, end, replacement))
    return sorted(found)


def mutated(source: str, guard) -> bytes:
    _, start, end, replacement = guard
    data = source.encode("utf-8")
    return data[:start] + replacement + data[end:]


def passes(module: str | None, text: bytes | None) -> bool:
    """Whether tier-1 passes on a fresh copy of the repository, with
    src/mvkit/`module` replaced by `text` (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = pathlib.Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if module is not None:
            (copy / "src" / "mvkit" / module).write_bytes(text)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        try:
            result = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return result.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module file names under src/mvkit (default: all)")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(p.name for p in PACKAGE.glob("*.py"))
    if not passes(None, None):
        print("the unmutated copy fails tier-1; nothing to sweep", file=sys.stderr)
        return 2
    mutants = []
    for module in modules:
        source = (PACKAGE / module).read_text(encoding="utf-8")
        lines = source.splitlines()
        for guard in guards(source):
            mutants.append((module, guard[0], lines[guard[0] - 1].strip(), mutated(source, guard)))
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        outcomes = pool.map(lambda m: passes(m[0], m[3]), mutants)
        survivors = 0
        for (module, line, text, _), survived in zip(mutants, outcomes):
            survivors += survived
            print(f"{'SURVIVED' if survived else 'killed  '} {module}:{line}  {text}", flush=True)
    print(f"{len(mutants)} guards: {len(mutants) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
