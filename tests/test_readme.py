"""The README's code runs as written, and its suite list is the registry."""

import re
from pathlib import Path

from poisson_chaos.suites import suite_names

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert isinstance(namespace["value"], float)
    assert isinstance(namespace["approx"], float)


def test_suite_list_is_the_registry():
    # the README's "Suites:" paragraph names every registered suite, in order
    paragraph = README.read_text(encoding="utf-8").split("\nSuites: ", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`(\w+)`", paragraph) == suite_names()
