"""Resource accounting: footprints, budgets, tiers, and the tier ILP."""

import pickle

import pytest

from repro.db.hardware import HardwareSpec
from repro.db.resources import (
    DEFAULT_TIERS,
    HardwareTier,
    ResourceBudget,
    ResourceFootprint,
    cheapest_feasible_tier,
    parse_budget,
)
from repro.errors import ConfigurationError

GB = 1024**3

SMALL = ResourceFootprint(peak_memory_bytes=4 * GB, disk_bytes=50 * GB)
HUGE = ResourceFootprint(peak_memory_bytes=200 * GB, disk_bytes=4096 * GB)


class TestResourceBudget:
    def test_admits_and_violation_agree(self):
        budget = ResourceBudget(max_memory_bytes=8 * GB, max_disk_bytes=100 * GB)
        assert budget.admits(SMALL)
        assert budget.violation(SMALL) == ""
        assert not budget.admits(HUGE)

    def test_memory_violation_reported_first_and_deterministically(self):
        budget = ResourceBudget(max_memory_bytes=8 * GB, max_disk_bytes=100 * GB)
        fat = ResourceFootprint(peak_memory_bytes=32 * GB, disk_bytes=2000 * GB)
        assert budget.violation(fat) == (
            "peak memory 32GB exceeds budget 8GB"
        )

    def test_disk_violation_message(self):
        budget = ResourceBudget(max_disk_bytes=100 * GB)
        fat = ResourceFootprint(peak_memory_bytes=1, disk_bytes=200 * GB)
        assert budget.violation(fat) == (
            "disk footprint 200GB exceeds budget 100GB"
        )

    def test_uncapped_resource_never_violates(self):
        assert ResourceBudget(max_memory_bytes=512 * GB).admits(
            ResourceFootprint(peak_memory_bytes=1, disk_bytes=10**18)
        )

    def test_budget_must_cap_something(self):
        with pytest.raises(ConfigurationError):
            ResourceBudget()

    def test_caps_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ResourceBudget(max_memory_bytes=0)
        with pytest.raises(ConfigurationError):
            ResourceBudget(max_disk_bytes=-1)

    def test_picklable_for_process_workers(self):
        # Budgets ride inside LambdaTuneOptions to process-pool jobs.
        budget = ResourceBudget(max_memory_bytes=8 * GB)
        assert pickle.loads(pickle.dumps(budget)) == budget

    def test_describe_round_trips_through_parse(self):
        budget = ResourceBudget(max_memory_bytes=8 * GB, max_disk_bytes=100 * GB)
        assert budget.describe() == "ram=8GB,disk=100GB"
        assert parse_budget(budget.describe()) == budget


class TestParseBudget:
    def test_full_form(self):
        budget = parse_budget("ram=8GB,disk=100GB")
        assert budget.max_memory_bytes == 8 * GB
        assert budget.max_disk_bytes == 100 * GB

    def test_single_component_and_whitespace(self):
        assert parse_budget(" ram = 512MB ") == ResourceBudget(
            max_memory_bytes=512 * 1024**2
        )

    @pytest.mark.parametrize(
        "text", ["", "cpu=4", "ram", "ram=8GB,ram=4GB", "ram=banana"]
    )
    def test_malformed_specs_raise_typed_error(self, text):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            parse_budget(text)


class TestHardwareTiers:
    def test_ladder_is_price_sorted_and_monotone(self):
        costs = [tier.monthly_cost for tier in DEFAULT_TIERS]
        assert costs == sorted(costs)
        rams = [tier.hardware.memory_bytes for tier in DEFAULT_TIERS]
        assert rams == sorted(rams)

    def test_tier_budget_reflects_its_hardware(self):
        tier = DEFAULT_TIERS[0]
        budget = tier.budget()
        assert budget.max_memory_bytes == tier.hardware.memory_bytes
        assert budget.max_disk_bytes == tier.disk_bytes

    def test_paper_hardware_is_on_the_ladder(self):
        # The paper's p3.2xlarge: 61 GB RAM, 8 cores.
        assert any(
            tier.hardware == HardwareSpec(61.0, 8) for tier in DEFAULT_TIERS
        )


class TestCheapestFeasibleTier:
    METHODS = ["auto", "branch_bound", "greedy"]

    @pytest.mark.parametrize("method", METHODS)
    def test_small_footprint_lands_on_small(self, method):
        tier = cheapest_feasible_tier(SMALL, method=method)
        assert tier is not None and tier.name == "small"

    @pytest.mark.parametrize("method", METHODS)
    def test_nothing_fits_returns_none(self, method):
        assert cheapest_feasible_tier(HUGE, method=method) is None

    def test_all_backends_agree_across_the_ladder(self):
        probes = [
            ResourceFootprint(peak_memory_bytes=m * GB, disk_bytes=d * GB)
            for m, d in [(1, 1), (12, 50), (12, 400), (40, 50), (100, 50)]
        ]
        for footprint in probes:
            picks = {
                method: getattr(
                    cheapest_feasible_tier(footprint, method=method),
                    "name",
                    None,
                )
                for method in self.METHODS
            }
            assert len(set(picks.values())) == 1, (footprint, picks)

    def test_memory_and_disk_both_constrain(self):
        # Fits small's RAM but not its disk: the disk pushes it up.
        footprint = ResourceFootprint(
            peak_memory_bytes=4 * GB, disk_bytes=200 * GB
        )
        tier = cheapest_feasible_tier(footprint)
        assert tier.name == "medium"

    def test_custom_ladder_and_empty_ladder(self):
        solo = (HardwareTier("only", HardwareSpec(8.0, 2), 100 * GB, 5.0),)
        assert cheapest_feasible_tier(SMALL, tiers=solo).name == "only"
        assert cheapest_feasible_tier(SMALL, tiers=()) is None
