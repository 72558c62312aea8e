"""Exact MILP solving via ``scipy.optimize.milp`` (HiGHS)."""

from __future__ import annotations

import threading
import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint as SciPyConstraint, milp

from repro.errors import SolverError
from repro.solver.model import FEASIBILITY_TOLERANCE, ILPModel, ILPSolution

#: HiGHS accepts MIP solutions up to a 1e-6 row violation by default --
#: three orders of magnitude looser than the model's own feasibility
#: tolerance.  A tiny positive coefficient against a tight bound then
#: lets HiGHS "improve" the objective with a point the model rejects.
#: ``scipy.optimize.milp`` forwards unrecognized options to HiGHS
#: verbatim (with a warning we silence), so the tolerances are aligned
#: at the source.
_HIGHS_OPTIONS = {
    "mip_feasibility_tolerance": FEASIBILITY_TOLERANCE,
    "primal_feasibility_tolerance": FEASIBILITY_TOLERANCE,
}

#: ``warnings.catch_warnings`` swaps the process-global filter list on
#: entry and restores it on exit, so two threads inside it at once can
#: restore each other's state.  scipy's ``LinearConstraint`` enters it
#: too, with an "error" filter: built on one thread while another is in
#: ``milp``, it either turns the silenced warning into an exception or,
#: on exit, lets it escape.  Solves hold this lock from building the
#: constraints until ``milp`` returns.
_WARNINGS_LOCK = threading.Lock()

#: Defensive ceiling on no-good cuts re-excluding any integer point that
#: still rounds to a model-infeasible assignment.  Each cut removes at
#: least one binary point, so the loop terminates regardless; in
#: practice the aligned tolerances make it a straight pass-through.
_MAX_NO_GOOD_CUTS = 16


def solve_with_scipy(model: ILPModel) -> ILPSolution:
    """Solve a binary maximization ILP exactly."""
    n = model.variable_count
    if n == 0:
        return ILPSolution(values=[], objective=0.0)

    # scipy minimizes; negate for maximization.
    costs = -np.asarray(model.objective, dtype=float)

    matrices: list[np.ndarray] = []
    uppers: list[float] = []
    model_constraints = model.constraints
    if model_constraints:
        matrix = np.zeros((len(model_constraints), n))
        for row, constraint in enumerate(model_constraints):
            for index, coefficient in constraint.coefficients.items():
                matrix[row, index] = coefficient
            uppers.append(constraint.bound)
        matrices.append(matrix)

    for _ in range(_MAX_NO_GOOD_CUTS + 1):
        with _WARNINGS_LOCK:
            constraints = []
            if matrices:
                constraints.append(
                    SciPyConstraint(
                        np.vstack(matrices), lb=-np.inf, ub=np.asarray(uppers)
                    )
                )
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", message="Unrecognized options detected"
                )
                result = milp(
                    c=costs,
                    constraints=constraints,
                    integrality=np.ones(n),
                    bounds=Bounds(lb=np.zeros(n), ub=np.ones(n)),
                    options=dict(_HIGHS_OPTIONS),
                )
        if not result.success or result.x is None:
            raise SolverError(f"MILP solve failed: {result.message}")
        values = [int(round(value)) for value in result.x]
        if model.is_feasible(values):
            return ILPSolution(
                values=values,
                objective=model.objective_value(values),
                optimal=True,
            )
        # The rounded point violates the model tolerance (HiGHS found it
        # feasible under its own arithmetic).  Exclude exactly this
        # assignment -- sum_{i in S} x_i - sum_{i not in S} x_i <= |S|-1
        # -- and re-solve; optimality over the remaining points holds.
        cut = np.array(
            [[1.0 if value else -1.0 for value in values]]
        )
        matrices.append(cut)
        uppers.append(float(sum(values) - 1))
    raise SolverError(
        "HiGHS kept returning solutions outside the model's feasibility "
        f"tolerance after {_MAX_NO_GOOD_CUTS} no-good cuts"
    )
