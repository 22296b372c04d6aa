"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper: it runs
the experiment (once — these are system experiments, not
micro-timings), prints the same rows/series the paper reports, writes
them to ``benchmarks/results/<name>.txt``, and asserts the *shape*
the paper claims (who wins, rough factors, where knees fall).

Scaling: by default experiments are moderately scaled down so the
whole suite runs in minutes; set ``REPRO_BENCH_FULL=1`` for
paper-scale parameters.
"""

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


class ResultSink:
    """Collects experiment output and writes it to the results
    directory (stdout is captured by pytest) — both the printable
    table (``<name>.txt``) and a machine-readable companion
    (``<name>.json``) carrying the same rows plus any scalar metrics
    and :class:`repro.obs.RunReport` manifests the benchmark attached,
    so runs can be compared across commits without screen-scraping."""

    def __init__(self, name: str):
        self.name = name
        self.lines = []
        self.metrics = {}
        self.reports = []

    def row(self, text: str) -> None:
        self.lines.append(text)
        print(text)

    def metric(self, key: str, value) -> None:
        """Record one machine-readable scalar for the JSON report."""
        self.metrics[key] = value

    def attach_report(self, report) -> None:
        """Attach a full RunReport manifest to the JSON report."""
        self.reports.append(report)

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.name}.txt"
        path.write_text("\n".join(self.lines) + "\n")
        payload = {
            "name": self.name,
            "rows": self.lines,
            "metrics": self.metrics,
            "reports": [report.to_dict() for report in self.reports],
        }
        json_path = RESULTS_DIR / f"{self.name}.json"
        json_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


#: Whether a test's call phase passed (set by the report hook below).
_CALL_PASSED = pytest.StashKey[bool]()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.when == "call":
        item.stash[_CALL_PASSED] = report.passed


@pytest.fixture
def sink(request):
    """The test's :class:`ResultSink`. It is written only when the test
    passed: a failed shape assertion leaves the committed table as it
    was, rather than replacing it with the rows that failed."""
    result = ResultSink(request.node.name)
    yield result
    if request.node.stash.get(_CALL_PASSED, False):
        result.flush()
