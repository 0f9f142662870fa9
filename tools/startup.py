"""Run one hessalg command line in this process and report its start-up.

Prints the milliseconds from the start of `import hessalg.cli` to the end
of the command, then the hessalg modules that ran, and exits with the
command's exit code; the command's own output is discarded. A command
line that ends in `--help` is only parsed.

The package registers its modules with importlib.util.LazyLoader, and
`python -X importtime` does not list a module that a LazyLoader runs, so
this is the way to see what a command runs. A registered module that has
not run keeps the LazyLoader's module class, and reading any attribute
of a module runs it, so the check is `type(m) is types.ModuleType`.

    PYTHONPATH=src python -B tools/startup.py poset --n 4 --x jordan:0^4 --p 2,3
"""

import contextlib
import io
import sys
import time
import types

start = time.perf_counter()
import hessalg.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = hessalg.cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help, or a usage error
        code = exc.code
print("%.1f ms" % (1e3 * (time.perf_counter() - start)), *sorted(
    name for name, m in sys.modules.items()
    if name.split(".")[0] == "hessalg" and type(m) is types.ModuleType))
sys.exit(code)
