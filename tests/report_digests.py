"""SHA-256 of the three reference ``verify`` reports.

The reports are those the change log and the roadmap quote digests of:

* ``verify all`` (the packaged config and seed);
* ``verify all --seed 404 --replicates 20000``;
* ``verify covariance --seed 7919``.

Each is written as a CSV report to a temporary directory, and one line
``<sha256>  verify <arguments>`` is printed per report.  The script only
prints: it compares nothing, because the bits of a report are not yet
known to agree across machines.  Run with ``src`` on ``PYTHONPATH``::

    python tests/report_digests.py

A run with a failing case is still printed, and the exit status is 0
unless a run raised.  Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from poisson_chaos.cli import main

REFERENCE_RUNS = (
    ["all"],
    ["all", "--seed", "404", "--replicates", "20000"],
    ["covariance", "--seed", "7919"],
)


def report_digest(args: list[str], path: Path) -> str:
    """The sha256 of the report ``verify <args>`` writes to a new ``path``."""
    with contextlib.redirect_stdout(io.StringIO()):
        main([*args, "--report", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for n, args in enumerate(REFERENCE_RUNS):
            digest = report_digest(args, Path(tmp) / f"report-{n}.csv")
            print(f"{digest}  verify {' '.join(args)}", flush=True)


if __name__ == "__main__":
    run()
