import importlib.util
import sys
from pathlib import Path

import pytest

from battery import build_cases, run_case


@pytest.fixture(scope="session")
def battery_results():
    """Oracle runs of the full 60-case grid, cached for the whole session."""
    cases = build_cases()
    return [run_case(c) for c in cases]


@pytest.fixture
def bench_workloads(monkeypatch):
    """`perfbench/workloads.py`, whose seeded inputs some tests reuse."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads
