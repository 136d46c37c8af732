"""Building and solving the unit-commitment model.

The model is held as one inequality system rows @ y <= rhs over
y = [dispatch, status], with every row labeled: line limits (two rows per
line), the power balance as a <=/>= pair, and status-scaled generation
bounds.  The status unit box u in [0, 1] is not a row but a column bound,
kept with the dispatch columns' x >= 0 in `inst.bounds`.  Solving the
model as a MILP restores the binary statuses via branch and bound.
"""

from collections import Counter

import numpy as np

from ucscreen import build_uc, load_bundled_case, relax_binaries, solve_uc
from ucscreen.lp import solve_lp
from ucscreen.model import milp_problem

case = load_bundled_case("thirty_bus")
inst = build_uc(case, case.nominal_load)

print(f"{case.name}: {inst.rows.shape[0]} rows x {inst.n_cols} columns")
print("row kinds:", dict(Counter(lb.kind for lb in inst.row_labels)))
print("screening candidates (line rows):", len(inst.candidates))

solution = solve_uc(inst)
print(f"\noptimal cost: ${solution.cost:,.2f}")
print("commitment:", solution.commitment)
on = [g for g, u in enumerate(solution.commitment) if u]
print("dispatch of committed units:",
      np.round(solution.dispatch[on], 3), "MW")

# The binary relaxation bounds the MILP from below; the gap is what
# branch and bound has to close.
relaxation = solve_lp(milp_problem(relax_binaries(inst)).lp)
print(f"\nLP relaxation bound: ${relaxation.objective_value:,.2f} "
      f"(gap {100 * (solution.cost / relaxation.objective_value - 1):.2f}%)")

# Commitment matters here: turning everything on is feasible but pricier.
from ucscreen import CutSet, apply_cuts

all_on = apply_cuts(inst, CutSet(
    commitment_fixes=tuple((g, 1) for g in range(case.n_gens))))
print(f"all-units-on cost: ${solve_uc(all_on).cost:,.2f}")
