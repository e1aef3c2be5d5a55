"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure via the experiment
registry, times it with pytest-benchmark (single round - these are
experiment reproductions, not micro-benchmarks), prints the regenerated
rows, and archives them under ``benchmarks/results/`` so the output
survives pytest's capture.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.registry import EXPERIMENTS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def run_experiment(benchmark, results_dir, capsys):
    """Run one experiment id under the benchmark timer and archive it."""

    def runner(experiment_id: str, **kwargs):
        report = benchmark.pedantic(
            lambda: EXPERIMENTS.run(experiment_id, **kwargs),
            rounds=1,
            iterations=1,
        )
        text = str(report)
        (results_dir / f"{experiment_id}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)
        return report

    return runner
