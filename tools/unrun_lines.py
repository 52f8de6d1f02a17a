"""Run tier-1 under the stdlib ``trace`` and list the lines of ``src/molfuse`` it never runs.

Usage, from the repository root::

    PYTHONPATH=src python tools/unrun_lines.py

It exits 1 if a test fails or a line of ``src/molfuse`` goes unrun, apart
from ``tensor._keep_freed_memory``'s fallback for a C library without
``mallopt``, found by its text (the ``except`` clause marked
``# no mallopt`` and the line under it).  Files under the interpreter's
prefix (the standard library and site-packages) are not traced; the rest
takes about 80 s on a 2-vCPU host.

``python -m trace --ignore-dir`` caches each ignore decision by the file's
base name, so once it has ignored a site-packages ``errors.py`` or
``__init__.py`` it skips ``molfuse/errors.py`` and ``molfuse/__init__.py``
as well, and reports nothing for them.  Here the decision is keyed by the
whole path.  The executable lines of a file come from the private
``trace._find_executable_linenos``, the function behind ``--missing``.
"""

import sys
import trace
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "molfuse"
FALLBACK = "# no mallopt"


def main() -> int:
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.base_prefix])
    ignored = tracer.ignore.names
    tracer.ignore.names = lambda filename, modulename: ignored(filename, filename)
    scope = {"pytest": pytest}
    tracer.runctx("status = pytest.main(['-q', '-p', 'no:cacheprovider'])", scope, scope)
    run = {(Path(name).resolve(), line) for name, line in tracer.results().counts}
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        # Line 0, the module's own entry in the line table, is no source line.
        for line in sorted(trace._find_executable_linenos(str(path)).keys() - {0}):
            fallback = FALLBACK in text[line - 1] or FALLBACK in text[line - 2]
            if (path, line) not in run and not fallback:
                unrun.append(f"{path.relative_to(PACKAGE.parent)}:{line}: {text[line - 1].strip()}")
    print("\n".join(unrun) or "every line of src/molfuse ran, but the mallopt fallback")
    return 1 if scope["status"] or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
