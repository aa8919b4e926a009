"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures at
laptop scale and prints the rows it produced (README.md's "Running
experiments" section has the runner targets that make them at other
scales).  Benchmarks run each experiment exactly once —
they are end-to-end experiment drivers, not microbenchmarks.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def experiment(benchmark):
    def _run(fn, *args, **kwargs):
        result = run_once(benchmark, fn, *args, **kwargs)
        if hasattr(result, "print"):
            print()
            result.print()
        return result

    return _run
