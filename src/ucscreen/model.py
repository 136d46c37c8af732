"""Single-period DC unit-commitment models in compact inequality form.

The decision vector is y = [x, u] (dispatch MW, unit status) or
y = [x, u, l] in load-range mode.  Every row coefficient lives in one
labeled row of `rows @ y <= rhs`, including the power balance, which is
encoded as a <=/>= pair so the whole model is a single inequality system.
Every column bound lives in one `bounds` array and nowhere else: x >= 0,
u lies in [0, 1], a load column in its range, and a commitment fix pins
its status to [v, v].  The bound on x is one the rows already imply
(see `_core_rows`).  Only the line-limit rows are ever screening
candidates.

Each case's instance at its nominal load is made once, with every field
checked, and kept for as long as the case lives, in a store that this
module keeps per case object (see `_CaseModels`).  `build_uc` gives it
the rhs of another load, and a load range's rebuild its own rows and
bounds, each checked; both keep its row labels and their map.  An
instance derived from another keeps what it does not change:
`relax_binaries`, a cut that only pins statuses, and `without_rows`
share the parent's checked arrays, and the last two check only what
they change, as `LpProblem.with_bounds` does.  `without_rows` makes no
label map: an instance builds its own on its first label lookup, and
the instances with the same rows of one case share one rows array,
kept in the case's store.  A derivation that changes nothing returns
the instance itself.

`solve_uc` starts the branch-and-bound root of an uncut fixed-load
instance from the optimal root of its rows at the nominal load, one
`lp.MilpReference` per case and row set, kept in the same store, and
its final fixed-commitment LP from that reference's entry for the
commitment.

Screening runs over an instance's `projection`: its region less the
status columns and the generation rows, with the dispatch bounds those
rows imply.  The projection and the tableau of its own LP, the
screen's first start, are made on first use and kept with the
instance, as its label map is.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

from ucscreen.case import GridCase
from ucscreen.lp import (
    LpProblem,
    LpUsageError,
    MilpProblem,
    MilpReference,
    check_finite,
    region_basis,
    solve_lp,
    solve_milp,
    unchecked_copy,
)

LINE_ROW_KINDS = ("line_upper", "line_lower")
GEN_ROW_KINDS = ("gen_upper", "gen_lower")


class UcInfeasibleError(RuntimeError):
    """The UC model has no feasible commitment; names the tightest aggregate."""

    def __init__(self, message: str, aggregate: str):
        super().__init__(message)
        self.aggregate = aggregate  # "capacity" or "network"


class RowLabel(NamedTuple):
    """Stable identity of a model row, e.g. line_upper(3) or balance_le.

    A named tuple, so that it hashes and compares as the tuple of its
    fields, in C: a label equals `(kind, index)`, and labels order by
    kind, then index."""

    kind: str
    index: int | None = None

    def __str__(self) -> str:
        return self.kind if self.index is None else f"{self.kind}({self.index})"

    @classmethod
    def parse(cls, text: str) -> "RowLabel":
        text = text.strip()
        if text.endswith(")") and "(" in text:
            kind, _, rest = text.partition("(")
            return cls(kind, int(rest[:-1]))
        return cls(text)

    @property
    def is_line(self) -> bool:
        return self.kind in LINE_ROW_KINDS


@dataclass(frozen=True, eq=False)
class CutSet:
    """Optional tightenings: cost bound, unit-status fixes, load range."""

    cost_bound: float | None = None
    commitment_fixes: tuple[tuple[int, int], ...] = ()
    load_range: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.cost_bound is not None and not np.isfinite(self.cost_bound):
            what = "NaN" if np.isnan(self.cost_bound) else "infinite"
            raise LpUsageError(f"cost bound is {what}")
        units = [k for k, _ in self.commitment_fixes]
        if len(set(units)) != len(units):
            raise LpUsageError("commitment fixes name a unit twice")
        for k, v in self.commitment_fixes:
            if v not in (0, 1):
                raise LpUsageError(f"commitment fix for unit {k} must be 0 or 1")
        if self.load_range is not None:
            lo, hi = (np.asarray(a, dtype=float) for a in self.load_range)
            if lo.shape != hi.shape:
                raise LpUsageError("load range bounds differ in length")
            if np.any(lo > hi) or np.any(lo < 0):
                raise LpUsageError("load range needs 0 <= lo <= hi componentwise")
            object.__setattr__(self, "load_range", (lo, hi))

    @property
    def is_empty(self) -> bool:
        return (self.cost_bound is None and not self.commitment_fixes
                and self.load_range is None)


@dataclass(frozen=True, eq=False)
class UcInstance:
    """Compact system rows @ y <= rhs, bounds[:, 0] <= y <= bounds[:, 1],
    with cost vector and row labels.  `region` is the LpProblem of those
    rows and bounds with a zero objective, checked once when the instance
    is made; an instance derived through `_with` keeps the checks of its
    parent's fields.  `projection` is the region screening runs over.
    The case's PTDF is `case.ptdf`."""

    rows: np.ndarray
    rhs: np.ndarray
    bounds: np.ndarray  # (n_cols, 2), +-inf where a column is unbounded
    cost: np.ndarray
    row_labels: tuple[RowLabel, ...]
    binary_indices: tuple[int, ...]
    case: GridCase
    load: np.ndarray | None  # fixed load; None in range mode
    cuts: CutSet = field(default_factory=CutSet)

    def __post_init__(self):
        if len(self.row_labels) != self.rows.shape[0]:
            raise LpUsageError("one label per row required")
        if len(self._row_of) != len(self.row_labels):
            raise LpUsageError("row labels must be unique")
        # Positions of these rows among the case's fixed-load rows, set on
        # the instances that `build_uc` and `without_rows` make.
        object.__setattr__(self, "_core", None)
        if self.bounds.shape != (self.rows.shape[1], 2):
            raise LpUsageError("one (lower, upper) bound pair per column required")
        for a in (self.rows, self.rhs, self.bounds, self.cost):
            a.flags.writeable = False
        # LpProblem checks the rows, rhs and bounds here, once; every LP
        # of the instance shares the checked arrays (see `lp`).
        object.__setattr__(self, "region", LpProblem(
            np.zeros(self.n_cols), self.rows, self.rhs, bounds=self.bounds))

    @property
    def n_gens(self) -> int:
        return self.case.n_gens

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]

    @property
    def range_mode(self) -> bool:
        return self.load is None

    @property
    def candidates(self) -> tuple[RowLabel, ...]:
        """Screening candidate set: the line-limit rows, in row order."""
        return tuple(lb for lb in self.row_labels if lb.is_line)

    @cached_property
    def _row_of(self) -> dict[RowLabel, int]:
        """Each label's row, built on the first lookup and kept."""
        return {lb: i for i, lb in enumerate(self.row_labels)}

    def row_index(self, label: RowLabel) -> int:
        try:
            return self._row_of[label]
        except KeyError:
            raise LpUsageError(f"no row labeled {label}") from None

    def rows_of(self, labels) -> np.ndarray:
        """Row indices of `labels`, in their order."""
        return np.array([self.row_index(lb) for lb in labels], dtype=int)

    def row(self, label: RowLabel) -> tuple[np.ndarray, float]:
        i = self.row_index(label)
        return self.rows[i], float(self.rhs[i])

    def lp(self, objective: np.ndarray, sense: str = "min") -> LpProblem:
        """LP over this instance's rows and bounds; only the objective and
        the sense are checked, the rest was when the instance was made."""
        return self.region.with_objective(objective, sense)

    @cached_property
    def projected_rows(self) -> np.ndarray:
        """Positions of the rows that `projection` keeps: every row but the
        generation rows, all 2G of which the projection needs."""
        keep = np.flatnonzero([lb.kind not in GEN_ROW_KINDS
                               for lb in self.row_labels])
        if keep.size != len(self.row_labels) - 2 * self.n_gens:
            raise LpUsageError("the projection needs both generation rows "
                               "of every unit")
        return keep

    @cached_property
    def projection(self) -> LpProblem:
        """The region's projection onto the columns other than the statuses,
        made on first access: the screening region.

        Only the generation rows x_min*u <= x <= x_max*u read a status u,
        and for u in [u_lo, u_hi] they admit some u for a given x exactly
        when x_min*u_lo <= x <= x_max*u_hi (valid as 0 <= x_min <= x_max).
        So the projection is the other rows with those bounds on x (Balas,
        2005), and every line row has the same maximum over it as over the
        region.  Its statuses are pinned at 0: no row reads them, so the
        simplex gives them no column.  Its objective, `region_basis`'s, is
        the units' costs over their mean when all are >= 0 and the mean
        > 0, else ones, and ones on load columns: `lp.Start._warm`'s
        prices, so that LP's phase 2 makes no pivot."""
        G = self.n_gens
        bounds = self.bounds.copy()
        bounds[:G] = self.bounds[G:2 * G] * [(g.x_min, g.x_max)
                                             for g in self.case.generators]
        bounds[G:2 * G] = 0.0
        cost = self.cost[:G]
        prices = np.ones(self.n_cols)
        if np.all(cost >= 0.0) and cost.mean() > 0:
            prices[:G] = cost / cost.mean()
        keep = self.projected_rows
        return LpProblem(prices, self.rows[keep], self.rhs[keep], bounds=bounds)

    @cached_property
    def region_basis(self):
        """The final tableau of `projection`'s own LP, solved on first
        access (`lp.region_basis`)."""
        return region_basis(self.projection)

    def without_rows(self, labels) -> "UcInstance":
        """The instance less the rows `labels` name, or the instance
        itself when `labels` is empty; raises LpUsageError for a label
        that names no row.  The rows left need no check: they are rows
        of this instance, with distinct labels.  Every instance with the
        case's rows at the same positions shares one rows array, kept in
        the case's store (see `_CaseModels`)."""
        if not labels:
            return self
        keep = np.ones(len(self.row_labels), dtype=bool)
        keep[self.rows_of(labels)] = False
        kept = tuple(compress(self.row_labels, keep))
        core = None if self._core is None else self._core[keep]
        rows, rhs = self.rows[keep], self.rhs[keep]
        if core is not None:
            rows = _case_models(self.case).rows.setdefault(core.tobytes(), rows)
        rows.flags.writeable = rhs.flags.writeable = False
        return self._with(rows=rows, rhs=rhs, row_labels=kept,
                          region=self.region._with(rows=rows, rhs=rhs),
                          _core=core)

    def _with(self, **fields) -> "UcInstance":
        """This instance with `fields` replaced, made without
        `__post_init__`.  The caller passes only read-only arrays that
        keep every check true, and with new rows, rhs or bounds also the
        `region` (and with new rows the `_core` positions) that goes with
        them.  The cached `projection` and `region_basis` carry over only
        when the region does, and the label map and `projected_rows` only
        when the labels do."""
        out = unchecked_copy(self, **fields)
        if "region" in fields:
            out.__dict__.pop("projection", None)
            out.__dict__.pop("region_basis", None)
        if "row_labels" in fields:
            out.__dict__.pop("_row_of", None)
            out.__dict__.pop("projected_rows", None)
        return out


def _core_rows(case: GridCase, load: np.ndarray | None):
    """Line/balance/generator rows, built as blocks, with their rhs, the
    column bounds (x >= 0, u in [0, 1], load columns free until a load
    range bounds them) and the cost; load fixed or as columns.  Their
    labels are `_core_labels`.

    The bound x >= 0 removes no point: the gen_lower rows give x >=
    x_min * u, with u >= 0 and x_min >= 0, which the parser enforces.
    Stated as a bound, it makes each dispatch column one shifted column
    of the simplex's standard form rather than a free +/- pair, and with
    the costs >= 0 it makes a cost LP's slack basis dual feasible."""
    G, L, N = case.n_gens, case.n_lines, case.n_buses
    range_mode = load is None
    ncols = 2 * G + (N if range_mode else 0)
    limits = fmax, fmin = _line_limits(case)
    xmax = np.array([g.x_max for g in case.generators])
    xmin = np.array([g.x_min for g in case.generators])
    gens = np.arange(G)
    ptdf = case.ptdf

    line_upper, line_lower = np.zeros((L, ncols)), np.zeros((L, ncols))
    line_upper[:, :G] = ptdf.entries @ case.gen_bus_matrix()
    line_lower[:, :G] = -line_upper[:, :G]
    balance = np.zeros(ncols)
    balance[:G] = 1.0
    if range_mode:
        line_upper[:, 2 * G:] = -ptdf.entries
        line_lower[:, 2 * G:] = ptdf.entries
        balance[2 * G:] = -1.0
        rhs = np.concatenate([fmax, -fmin, [0.0, 0.0], np.zeros(2 * G)])
    else:
        rhs = _load_rhs(case, limits, load)
    gen_upper, gen_lower = np.zeros((G, ncols)), np.zeros((G, ncols))
    gen_upper[gens, gens], gen_upper[gens, G + gens] = 1.0, -xmax
    gen_lower[gens, gens], gen_lower[gens, G + gens] = -1.0, xmin

    rows = np.vstack([line_upper, line_lower, balance, -balance,
                      gen_upper, gen_lower])
    bounds = np.tile([-np.inf, np.inf], (ncols, 1))
    bounds[:G] = (0.0, np.inf)
    bounds[G:2 * G] = (0.0, 1.0)
    cost = np.zeros(ncols)
    cost[:G] = [g.cost for g in case.generators]
    return rows, rhs, bounds, cost


def _core_labels(case: GridCase) -> tuple[RowLabel, ...]:
    """Labels of `_core_rows`' rows, in order, in either mode."""
    return tuple(
        [RowLabel(kind, j) for kind in LINE_ROW_KINDS
         for j in range(case.n_lines)]
        + [RowLabel("balance_le"), RowLabel("balance_ge")]
        + [RowLabel(kind, g) for kind in GEN_ROW_KINDS
           for g in range(case.n_gens)])


def _line_limits(case: GridCase) -> tuple[np.ndarray, np.ndarray]:
    """(f_max, f_min) of the case's lines."""
    return (np.array([ln.f_max for ln in case.lines]),
            np.array([ln.f_min for ln in case.lines]))


def _load_rhs(case: GridCase, limits, load: np.ndarray) -> np.ndarray:
    """The fixed-load rows' rhs at `load`: the line limits, `limits` as
    `_line_limits` gives them, shifted by the load's flows, the balance
    pair at the total load, and 0 for the generator rows.  Raises
    LpUsageError naming the load's first NaN or infinite entry, or the
    rhs entry that a finite load overflows."""
    fmax, fmin = limits
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        flow = case.ptdf.entries @ load
        total = float(np.sum(load))
        rhs = np.concatenate([fmax + flow, -fmin - flow, [total, -total],
                              np.zeros(2 * case.n_gens)])
    check_finite(load, "load")
    check_finite(rhs, "the load overflows: rhs")
    return rhs


class _CaseModels:
    """What this module derives from one case alone, kept in `_MODELS`
    for as long as the case lives.

    `nominal` is the case's instance at its nominal load, made and checked
    once.  Every fixed-load instance that `build_uc` makes is `nominal`
    with its own rhs and load, so all of them share its rows, bounds, cost,
    labels, label map and their checks; a load range's instance shares its
    labels and label map.  `nominal` is kept without its case, which is
    this store's key in `_MODELS`: a value that refers to its key would
    never be freed.  `references` holds one `MilpReference` per row set:
    the MILP of those rows at the nominal load, whose root every uncut
    MILP over the same rows starts from, and whose entry per commitment
    every such MILP's final LP starts from (see `solve_uc`).  `rows`
    holds one read-only array of `nominal`'s rows per row set, which
    every instance with those rows shares (see `without_rows`), so that
    the reference's check of a MILP's rows meets the same array.  Either
    key is the bytes of the rows' positions among `nominal`'s rows."""

    def __init__(self, case: GridCase):
        G = case.n_gens
        self.limits = _line_limits(case)
        load = np.array(case.nominal_load, dtype=float).ravel()
        load.flags.writeable = False
        rows, rhs, bounds, cost = _core_rows(case, load)
        self.nominal = UcInstance(rows, rhs, bounds, cost, _core_labels(case),
                                  tuple(range(G, 2 * G)), None, load)
        object.__setattr__(self.nominal, "_core", np.arange(rows.shape[0]))
        self.references: dict[bytes, MilpReference] = {}
        self.rows: dict[bytes, np.ndarray] = {}

    @cached_property
    def milp(self) -> MilpProblem:
        """`nominal`'s MILP, its binaries checked on first use, once per
        case (see `milp_problem`)."""
        return MilpProblem(self.nominal.lp(self.nominal.cost),
                           self.nominal.binary_indices)


# Each case's `_CaseModels`, freed with the case.
_MODELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _case_models(case: GridCase) -> _CaseModels:
    models = _MODELS.get(case)
    if models is None:
        models = _MODELS[case] = _CaseModels(case)
    return models


def build_uc(case: GridCase, load) -> UcInstance:
    """UC model at a fixed load: line limits via PTDF, balance pair and
    status-scaled generation bounds, with u in [0, 1] and marked binary.
    Only the rhs depends on the load; the rest is the case's own, checked
    once per case (see `_CaseModels`)."""
    load = np.asarray(load, dtype=float).ravel()
    if load.size != case.n_buses:
        raise LpUsageError(
            f"load has {load.size} entries for {case.n_buses} buses")
    models = _case_models(case)
    rhs = _load_rhs(case, models.limits, load)
    nominal = models.nominal
    load = load.copy()
    load.flags.writeable = rhs.flags.writeable = False
    return nominal._with(case=case, rhs=rhs, load=load,
                         region=nominal.region._with(rhs=rhs))


def relax_binaries(inst: UcInstance) -> UcInstance:
    """Binary relaxation u in [0,1]: the same rows, bounds and region,
    binary marks cleared; the instance itself when it has none."""
    if not inst.binary_indices:
        return inst
    return inst._with(binary_indices=())


def apply_cuts(inst: UcInstance, cuts: CutSet) -> UcInstance:
    """Append the cost-cut row, pin fixed statuses by their bounds, and
    turn a load range into l columns bounded by it.

    Returns a new instance.  A load range can only be applied to an
    uncut fixed-load instance (the rows are rebuilt around the l columns).
    Status fixes alone change only the bounds, so the instance they make
    keeps its parent's rows, labels and their checks.
    """
    if cuts.is_empty:
        return inst
    case = inst.case
    G = inst.n_gens

    if cuts.load_range is not None:
        if not inst.cuts.is_empty:
            raise LpUsageError("apply the load range before any other cut")
        if inst.range_mode:
            raise LpUsageError("instance is already in load-range mode")
        lo, hi = cuts.load_range
        if lo.size != case.n_buses:
            raise LpUsageError(
                f"load range has {lo.size} entries for {case.n_buses} buses")
        rows, rhs, bounds, cost = _core_rows(case, None)
        bounds[2 * G:, 0], bounds[2 * G:, 1] = lo, hi
        for a in (rows, rhs, bounds, cost):
            a.flags.writeable = False
        # The labels and their map are the fixed-load rows', checked once
        # per case; the positions of u, and so the binary marks, are
        # unchanged.
        out = _case_models(case).nominal._with(
            case=case, rows=rows, rhs=rhs, bounds=bounds, cost=cost,
            binary_indices=inst.binary_indices, load=None,
            cuts=CutSet(load_range=cuts.load_range), _core=None,
            region=LpProblem(np.zeros(rows.shape[1]), rows, rhs, bounds=bounds))
        return apply_cuts(out, CutSet(cost_bound=cuts.cost_bound,
                                      commitment_fixes=cuts.commitment_fixes))

    cost_bound = inst.cuts.cost_bound
    if cuts.cost_bound is not None and cost_bound is not None:
        raise LpUsageError(f"instance already has a cost cut at "
                           f"{cost_bound}; apply one cost bound")

    bounds = inst.bounds.copy()
    for k, v in cuts.commitment_fixes:
        if not 0 <= k < G:
            raise LpUsageError(f"commitment fix names unit {k}, have {G} units")
        bounds[G + k] = v

    merged = CutSet(cost_bound if cuts.cost_bound is None else cuts.cost_bound,
                    inst.cuts.commitment_fixes + cuts.commitment_fixes,
                    inst.cuts.load_range)
    if cuts.cost_bound is None:
        bounds.flags.writeable = False
        return inst._with(bounds=bounds, region=inst.region.with_bounds(bounds),
                          cuts=merged)
    return replace(inst, rows=np.vstack([inst.rows, inst.cost]),
                   rhs=np.append(inst.rhs, float(cuts.cost_bound)), bounds=bounds,
                   row_labels=inst.row_labels + (RowLabel("cost_cut"),), cuts=merged)


@dataclass(frozen=True, eq=False)
class UcSolution:
    commitment: tuple[int, ...]
    dispatch: np.ndarray  # MW
    cost: float


def milp_problem(inst: UcInstance) -> MilpProblem:
    """MILP form of the instance over its rows and bounds.  An instance
    with its case's nominal bounds, cost and binaries, as every load's
    from `build_uc` and `without_rows` has, takes the binaries the case's
    MILP checked once (`_CaseModels.milp`); any other is checked here."""
    lp = inst.lp(inst.cost)
    models = None if inst.case is None else _MODELS.get(inst.case)
    if models is not None:
        nominal = models.nominal
        if (inst.bounds is nominal.bounds and inst.cost is nominal.cost
                and inst.binary_indices is nominal.binary_indices):
            return models.milp._with(lp=lp)
    return MilpProblem(lp, inst.binary_indices)


def _reference(inst: UcInstance) -> MilpReference | None:
    """The branch-and-bound reference of an uncut fixed-load instance:
    the MILP of its rows at the case's nominal load, made on first use
    and kept in the case's store (see `_CaseModels`).  None for an instance
    with cuts or in range mode, whose roots solve cold."""
    if inst._core is None or not inst.cuts.is_empty:
        return None
    models = _case_models(inst.case)
    key = inst._core.tobytes()
    ref = models.references.get(key)
    if ref is None:
        rhs = models.nominal.rhs[inst._core]
        rhs.flags.writeable = False
        ref = models.references[key] = MilpReference(MilpProblem(
            inst.region._with(rhs=rhs).with_objective(inst.cost),
            inst.binary_indices))
    return ref


def solve_uc(inst: UcInstance) -> UcSolution:
    """Solve the instance as a MILP; raises UcInfeasibleError when empty.

    An uncut fixed-load instance starts its branch-and-bound root from
    the reference of its rows, the optimal root at the case's nominal
    load (see `lp.MilpReference`), so the many loads of one case skip
    most of the root's pivots.  Off the nominal load, the point and cost
    returned come from the LP with the commitment fixed, started from the
    reference's entry for that commitment: the optimal fixed LP at the
    nominal load, solved cold once.  At the nominal load that LP is cold.
    The reference and its entries are functions of the case, the rows
    and the commitment alone, so the result does not depend on which
    loads were solved before; off the nominal load its last bits may
    differ from a cold solve's."""
    G = inst.n_gens
    u_bounds = inst.bounds[G:2 * G]
    if inst.binary_indices:
        sol = solve_milp(milp_problem(inst), reference=_reference(inst))
    elif np.any(u_bounds[:, 0] < u_bounds[:, 1]):
        raise LpUsageError(
            "instance has relaxed statuses that are not fixed by cuts; "
            "solve the unrelaxed instance instead")
    else:
        sol = solve_lp(inst.lp(inst.cost))
    if sol.status != "optimal":
        aggregate = "network"
        if inst.load is not None:
            capacity = sum(g.x_max for g in inst.case.generators)
            if float(np.sum(inst.load)) > capacity:
                aggregate = "capacity"
        raise UcInfeasibleError(
            f"UC model is {sol.status}; tightest violated aggregate: {aggregate}",
            aggregate,
        )
    point = sol.point
    dispatch = point[:G].copy()
    commitment = tuple(point[G:2 * G].round().astype(int).tolist())
    return UcSolution(commitment, dispatch, float(sol.objective_value))
