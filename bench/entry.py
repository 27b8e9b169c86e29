"""Child process of the benchmark: one `hodge-residue` invocation, timed.

Run from the root of a checkout::

    python3 bench/entry.py verify --suite lemmas --seed 0
    python3 bench/entry.py --setup-only

The child imports ``hodge_residue.cli`` from ``src/`` (the console script's
entry point), calls ``main`` with the given arguments and leaves the report
on stdout untouched.  Its own measurements go to stderr as the last line,
prefixed with ``MARKER``:

* ``ready``: ``time.monotonic()`` once the CLI is imported, to be compared
  with the parent's clock reading taken just before the process was started
  (``CLOCK_MONOTONIC`` is shared by all processes);
* ``verify_s``: wall time of ``main`` alone;
* ``cpu_s``: user plus system CPU time of this process, all threads, during
  ``main``;
* ``peak_rss_kb``: peak resident set size of this process.

The exit code is the CLI's own; a check that raises makes it 1 (with the
traceback on stderr), and the measurements are still written.  With
``--setup-only`` the child stops once the CLI is imported.

``MARKER`` and ``run_cli`` are shared with ``run.py`` and ``replay.py``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

MARKER = "BENCH-ENTRY "


def run_cli(argv: list) -> int:
    """``hodge-residue <argv>`` in this process; the exit code it gives.

    An exception out of the CLI (a check that raises) gives exit code 1, its
    traceback on stderr.
    """
    from hodge_residue.cli import main as cli_main

    try:
        cli_main(args=argv, prog_name="hodge-residue", standalone_mode=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def _report(fields: dict) -> None:
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(fields) + "\n")
    sys.stderr.flush()


def main(argv: list) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hodge_residue.cli  # noqa: F401  (the set-up being timed)

    ready = time.monotonic()
    if argv == ["--setup-only"]:
        _report({"ready": ready})
        return 0
    cpu0 = time.process_time()
    t0 = time.monotonic()
    code = run_cli(argv)
    t1 = time.monotonic()
    cpu1 = time.process_time()
    _report({
        "ready": ready,
        "verify_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
