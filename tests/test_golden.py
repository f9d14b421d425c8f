"""The benchmark's golden outputs, checked on every test run.

``perfbench/golden.py`` pins the Mapper graphs, the extended persistence
diagrams (also as written to ``diagram.csv`` by ``softmapper build``) and
the loss values of fixed inputs for each benchmark workload.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import env  # noqa: E402

env.bootstrap()

import golden  # noqa: E402


@pytest.mark.parametrize("workload", sorted(golden.CASES))
def test_golden_outputs_match(workload, tmp_path):
    assert golden.check(workload, tmp_path) == [[] for _ in golden.CASES[workload]]
