"""Smoke test for ``scripts/bench.py``'s section registry (PR 10).

Imports the bench harness as a module and asserts every ``--sections``
name maps to a live callable, the full-tune dependency set is closed,
and the selector parses/rejects correctly -- so a typo in a section
name or a renamed benchmark function fails tier-1, not a nightly
bench run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", REPO / "scripts" / "bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_harness"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("bench_harness", None)


class TestSectionRegistry:
    def test_every_section_is_a_callable(self, bench):
        assert bench.SECTIONS, "registry must not be empty"
        for name, fn in bench.SECTIONS.items():
            assert callable(fn), f"section {name!r} is not callable"

    def test_expected_sections_present(self, bench):
        expected = {
            "dp_microbench", "full_tune", "regression_gate",
            "compile_cache", "fault_injection",
            "sessions", "artifact_cache", "batched_tuning",
            "service_throughput", "multi_objective", "planning_throughput",
            "evaluator_throughput", "scaling", "pytest",
        }
        assert set(bench.SECTIONS) == expected

    def test_full_tune_dependents_are_registered(self, bench):
        assert bench.NEEDS_FULL_TUNE <= set(bench.SECTIONS)
        assert "full_tune" not in bench.NEEDS_FULL_TUNE


class TestSectionSelector:
    def test_parse_selects_named_sections(self, bench):
        assert bench._parse_sections("scaling") == {"scaling"}
        assert bench._parse_sections("scaling, compile_cache") == {
            "scaling", "compile_cache",
        }

    def test_dependents_pull_in_full_tune(self, bench):
        for name in bench.NEEDS_FULL_TUNE:
            assert "full_tune" in bench._parse_sections(name)

    def test_unknown_section_rejected(self, bench):
        with pytest.raises(SystemExit, match="unknown section"):
            bench._parse_sections("scaling,warp_drive")

    def test_baseline_chain_starts_at_bench9(self, bench):
        assert bench._newest_baseline().name in {
            f"BENCH_{n}.json" for n in range(1, 10)
        }
