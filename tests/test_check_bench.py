"""``scripts/check_bench.py``: the multitenant_parallel rules."""

import copy
import importlib.util
import os

import pytest


def _load_check_bench():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "scripts", "check_bench.py")
    spec = importlib.util.spec_from_file_location("check_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ARTIFACT = {
    "bench": "multitenant_parallel",
    "cases": [{"mode": "serialized", "wall_clock": 3.0},
              {"mode": "serialized", "wall_clock": 2.0},
              {"mode": "concurrent:fifo", "wall_clock": 3.5},
              {"mode": "concurrent:fifo", "wall_clock": 2.5}],
    "comparisons": [{"policy": "fifo", "max_concurrent": 0,
                     "serialized_wall_clock": 5.0,
                     "concurrent_wall_clock": 3.5,
                     "improvement": 0.3, "max_in_flight": 2,
                     "total_queue_wait": 0.0}],
    "headline_improvement": 0.3,
}


class TestSerializedBaselineRule:
    @pytest.fixture(scope="class")
    def check(self):
        return _load_check_bench().check_parallel_comparisons

    def test_back_to_back_baseline_passes(self, check):
        assert check(ARTIFACT, 0.1) == []

    def test_baseline_padded_past_its_cases_fails(self, check):
        padded = copy.deepcopy(ARTIFACT)
        # A polling loop that rounds each migration up to a 5 s step.
        padded["comparisons"][0]["serialized_wall_clock"] = 10.0
        failures = check(padded, 0.1)
        assert len(failures) == 1
        assert "not the sum" in failures[0]
