"""Backend correctness: scipy vs branch-and-bound vs exhaustive search."""

import itertools
import os
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import (
    ILPModel,
    solve_greedy,
    solve_with_branch_bound,
    solve_with_scipy,
)


def exhaustive_optimum(model: ILPModel) -> float:
    """Brute-force optimal objective over all binary assignments."""
    best = 0.0
    n = model.variable_count
    for bits in itertools.product((0, 1), repeat=n):
        values = list(bits)
        if model.is_feasible(values):
            best = max(best, model.objective_value(values))
    return best


def knapsack_model(weights, values, capacity) -> ILPModel:
    model = ILPModel()
    indices = [
        model.add_variable(f"x{i}", value) for i, value in enumerate(values)
    ]
    model.add_constraint(
        {index: float(weights[i]) for i, index in enumerate(indices)},
        float(capacity),
    )
    return model


class TestKnownInstances:
    def test_simple_knapsack(self):
        model = knapsack_model([2, 3, 4], [3.0, 4.0, 5.0], 5)
        for solve in (solve_with_scipy, solve_with_branch_bound):
            solution = solve(model)
            assert solution.objective == pytest.approx(7.0)  # items 0 and 1

    def test_all_fit(self):
        model = knapsack_model([1, 1], [1.0, 1.0], 10)
        assert solve_with_branch_bound(model).objective == pytest.approx(2.0)

    def test_nothing_fits(self):
        model = knapsack_model([10, 10], [5.0, 5.0], 1)
        assert solve_with_scipy(model).objective == 0.0
        assert solve_with_branch_bound(model).objective == 0.0

    def test_negative_objective_left_unselected(self):
        model = ILPModel()
        model.add_variable("bad", -5.0)
        model.add_variable("good", 2.0)
        for solve in (solve_with_scipy, solve_with_branch_bound, solve_greedy):
            solution = solve(model)
            assert solution.values == [0, 1]

    def test_dependency_constraint(self):
        # y requires x: y - x <= 0; only y has value, x has cost via budget.
        model = ILPModel()
        x = model.add_variable("x", 0.0)
        y = model.add_variable("y", 10.0)
        model.add_constraint({y: 1.0, x: -1.0}, 0.0)
        model.add_constraint({x: 3.0, y: 1.0}, 4.0)
        for solve in (solve_with_scipy, solve_with_branch_bound):
            solution = solve(model)
            assert solution.values == [1, 1]

    def test_dependency_with_tight_budget_blocks_both(self):
        model = ILPModel()
        x = model.add_variable("x", 0.0)
        y = model.add_variable("y", 10.0)
        model.add_constraint({y: 1.0, x: -1.0}, 0.0)
        model.add_constraint({x: 3.0, y: 1.0}, 2.0)
        for solve in (solve_with_scipy, solve_with_branch_bound):
            assert solve(model).objective == 0.0

    def test_tiny_coefficient_respects_model_tolerance(self):
        # Hypothesis-found divergence: a 2^-23 coefficient against a 0.0
        # bound makes x1=1 infeasible under the model's 1e-9 tolerance,
        # yet HiGHS's default 1e-6 MIP tolerance accepted it and
        # reported objective 1.0.  Both backends must agree on 0.0 --
        # and both answers must be feasible by the model's own test.
        model = ILPModel()
        x0 = model.add_variable("x0", 0.0)
        x1 = model.add_variable("x1", 1.0)
        model.add_constraint({x0: 0.0, x1: 1.192092896e-07}, 0.0)
        for solve in (solve_with_scipy, solve_with_branch_bound):
            solution = solve(model)
            assert model.is_feasible(solution.values)
            assert solution.objective == pytest.approx(0.0, abs=1e-9)


class TestThreadedSolves:
    def test_option_warning_never_escapes_concurrent_solves(self):
        """``milp`` warns about the forwarded HiGHS options on every call,
        and scipy's ``LinearConstraint`` enters ``catch_warnings`` with an
        "error" filter.  ``catch_warnings`` swaps the process-global
        filter list, so without serialization one thread's exit can
        restore the list while another thread is still inside ``milp``:
        the warning then escapes, or is raised as an error.  A race can
        also leave the silencing filter installed for good, so the window
        is stressed in short bursts, each under a fresh recording filter
        list, with more threads than cores and a very short switch
        interval."""
        model = knapsack_model([3, 4, 5, 6], [4.0, 5.0, 6.0, 7.0], 10)
        optimum = exhaustive_optimum(model)
        threads = min(len(os.sched_getaffinity(0)) + 3, 8)
        stop = time.monotonic() + 1.5
        failures: list[BaseException] = []
        escaped: list[str] = []

        def solve_burst(barrier: threading.Barrier):
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    assert solve_with_scipy(model).objective == optimum
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            while time.monotonic() < stop and not (failures or escaped):
                barrier = threading.Barrier(threads)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    workers = [
                        threading.Thread(target=solve_burst, args=(barrier,))
                        for _ in range(threads)
                    ]
                    for worker in workers:
                        worker.start()
                    for worker in workers:
                        worker.join(timeout=60)
                        assert not worker.is_alive()
                escaped.extend(
                    str(warning.message)
                    for warning in caught
                    if "Unrecognized options detected" in str(warning.message)
                )
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        assert escaped == []


class TestGreedy:
    def test_greedy_feasible(self):
        model = knapsack_model([5, 4, 3], [10.0, 40.0, 30.0], 7)
        solution = solve_greedy(model)
        assert model.is_feasible(solution.values)
        assert not solution.optimal

    def test_greedy_reasonable_quality(self):
        model = knapsack_model([2, 3, 4], [3.0, 4.0, 5.0], 5)
        solution = solve_greedy(model)
        assert solution.objective >= 5.0  # at least one good item


@st.composite
def random_knapsack(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    values = draw(
        st.lists(st.floats(0.1, 50.0, allow_nan=False), min_size=n, max_size=n)
    )
    capacity = draw(st.integers(0, 60))
    return knapsack_model(weights, values, capacity)


@st.composite
def random_ilp(draw):
    """Knapsack plus random pairwise exclusion constraints."""
    model = draw(random_knapsack())
    n = model.variable_count
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=5,
        )
    )
    for a, b in pairs:
        if a != b:
            model.add_constraint({a: 1.0, b: 1.0}, 1.0)
    return model


class TestCrossBackendProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_ilp())
    def test_scipy_matches_exhaustive(self, model):
        assert solve_with_scipy(model).objective == pytest.approx(
            exhaustive_optimum(model), abs=1e-6
        )

    @settings(max_examples=60, deadline=None)
    @given(random_ilp())
    def test_branch_bound_matches_exhaustive(self, model):
        assert solve_with_branch_bound(model).objective == pytest.approx(
            exhaustive_optimum(model), abs=1e-6
        )

    @settings(max_examples=60, deadline=None)
    @given(random_ilp())
    def test_greedy_feasible_and_bounded(self, model):
        solution = solve_greedy(model)
        assert model.is_feasible(solution.values)
        assert solution.objective <= exhaustive_optimum(model) + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(random_ilp())
    def test_solutions_reported_feasible(self, model):
        for solve in (solve_with_scipy, solve_with_branch_bound):
            solution = solve(model)
            assert model.is_feasible(solution.values)
