"""``Planner.plan_many`` one query at a time.

The array planner (``repro.db.planner_vec``) must return plan-for-plan
identical trees and bit-identical cost floats to :meth:`Planner.plan`
called per query, which is all this oracle does.
"""

from __future__ import annotations

from repro.db.planner import Planner, QueryPlan
from repro.sql.analyzer import QueryInfo


def plan_many_scalar(planner: Planner, infos: list[QueryInfo]) -> list[QueryPlan]:
    """Plan each analyzed query alone with the scalar planner."""
    return [planner.plan(info) for info in infos]
