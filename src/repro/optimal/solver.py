"""Solving the offline optimal ILP.

The paper uses CPLEX; this reproduction uses the open-source HiGHS solver
shipped with SciPy (``scipy.optimize.milp``).  SciPy is imported on first
solve, so importing :mod:`repro` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..exceptions import InfeasibleProblemError
from .ilp import ILPProblem


@dataclass
class ILPSolution:
    """Outcome of solving an :class:`~repro.optimal.ilp.ILPProblem`."""

    objective_value: float
    variable_values: np.ndarray
    is_integral: bool
    method: str


def _constraint_matrix(problem: ILPProblem):
    from scipy import sparse

    constraints = problem.constraints
    num_rows = len(constraints)
    num_cols = problem.num_variables
    if num_rows == 0:
        return None, None, None
    data, row_indices, col_indices = [], [], []
    for row_number, coefficients in enumerate(constraints.rows):
        for col, value in coefficients.items():
            row_indices.append(row_number)
            col_indices.append(col)
            data.append(value)
    matrix = sparse.csr_matrix((data, (row_indices, col_indices)), shape=(num_rows, num_cols))
    return matrix, np.asarray(constraints.lower, dtype=float), np.asarray(constraints.upper, dtype=float)


def solve_ilp(problem: ILPProblem, time_limit: Optional[float] = None) -> ILPSolution:
    """Solve the ILP exactly with HiGHS MILP."""
    if problem.num_variables == 0:
        return ILPSolution(
            objective_value=problem.objective_constant,
            variable_values=np.zeros(0),
            is_integral=True,
            method="trivial",
        )
    from scipy import optimize

    matrix, lower, upper = _constraint_matrix(problem)
    constraints = []
    if matrix is not None:
        constraints.append(optimize.LinearConstraint(matrix, lower, upper))
    bounds = optimize.Bounds(lb=0.0, ub=1.0)
    integrality = np.ones(problem.num_variables)
    options: Dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = optimize.milp(
        c=problem.objective,
        constraints=constraints,
        bounds=bounds,
        integrality=integrality,
        options=options or None,
    )
    if result.status not in (0, 1) or result.x is None:
        raise InfeasibleProblemError(f"MILP solver failed: {result.message}")
    values = np.asarray(result.x)
    rounded = np.round(values)
    return ILPSolution(
        objective_value=float(problem.objective @ rounded + problem.objective_constant),
        variable_values=rounded,
        is_integral=True,
        method="milp",
    )
