"""Load/cost/commitment datasets and the KNN predictors built on them.

The dataset holds solved UC instances at loads drawn uniformly per bus
within a +-beta band around the nominal profile.  Two predictors consume
it: a KNN regressor supplying the screening cost bound (relaxed by
epsilon), and per-unit KNN classifiers supplying status fixes, gated on
perfect held-out accuracy.  An oracle mode bypasses the regressor and
derives the bound from a direct solve, for exactness testing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from ucscreen.case import GridCase
from ucscreen.lp import LpUsageError
from ucscreen.model import UcInfeasibleError, build_uc, solve_uc

TRAIN_FRACTION = 0.8   # share of a dataset's records that train the predictors
ATTEMPT_BUDGET = 100   # load draws per record before generation gives up


class DatasetError(RuntimeError):
    """Dataset generation gave up (too many infeasible samples), or a
    dataset file is malformed."""


@dataclass(eq=False)
class Dataset:
    """Solved (load, cost, commitment) records with a train/validation split.

    The first n_train records are training data, the rest validation.
    """

    loads: np.ndarray        # (n, n_buses) MW
    costs: np.ndarray        # (n,) $
    commitments: np.ndarray  # (n, n_gens) in {0, 1}
    n_train: int
    feasibility_rate: float = 1.0

    def __post_init__(self):
        n = self.loads.shape[0]
        if not (self.costs.shape == (n,) and self.commitments.shape[0] == n):
            raise LpUsageError("dataset arrays disagree on record count")
        if not 0 <= self.n_train <= n:
            raise LpUsageError("n_train out of range")

    def __len__(self) -> int:
        return self.loads.shape[0]

    @property
    def train(self):
        s = slice(0, self.n_train)
        return self.loads[s], self.costs[s], self.commitments[s]

    @property
    def validation(self):
        s = slice(self.n_train, len(self))
        return self.loads[s], self.costs[s], self.commitments[s]


@dataclass(frozen=True)
class PredictorConfig:
    """K odd to avoid vote ties; epsilon is the cost relaxation fraction."""

    k: int = 5
    epsilon: float = 0.005

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise LpUsageError(f"K must be an odd positive integer, got {self.k}")
        if not 0.0 <= self.epsilon < math.inf:
            raise LpUsageError(
                f"epsilon must be a finite number >= 0, got {self.epsilon}")


def default_k(n_gens: int) -> int:
    """5 for fleets up to 70 units, 3 beyond."""
    return 5 if n_gens <= 70 else 3


def sample_load(case: GridCase, beta: float, rng: np.random.Generator) -> np.ndarray:
    """One load draw: per-bus independent uniform in [(1-beta), (1+beta)]
    times the nominal profile."""
    base = case.nominal_load
    return rng.uniform((1.0 - beta) * base, (1.0 + beta) * base)


def generate_dataset(case: GridCase, beta: float, n: int, seed: int) -> Dataset:
    """Solve n UC instances at random in-range loads.

    Infeasible draws are discarded and redrawn from the same per-record
    stream, so record i never depends on how other records fared; the
    whole dataset is a pure function of (case, beta, n, seed).
    """
    if not 0.0 <= beta <= 1.0:
        raise LpUsageError(f"beta must be within [0, 1], got {beta}")
    N, G = case.n_buses, case.n_gens
    loads = np.empty((n, N))
    costs = np.empty(n)
    commitments = np.empty((n, G), dtype=int)
    attempts_total = 0
    for i in range(n):
        rng = np.random.default_rng((seed, i))
        for attempt in range(ATTEMPT_BUDGET):
            attempts_total += 1
            load = sample_load(case, beta, rng)
            try:
                sol = solve_uc(build_uc(case, load))
            except UcInfeasibleError:
                continue
            loads[i] = load
            costs[i] = sol.cost
            commitments[i] = sol.commitment
            break
        else:
            rate = i / max(attempts_total, 1)
            raise DatasetError(
                f"record {i}: no feasible load in {ATTEMPT_BUDGET} draws "
                f"(feasibility rate so far {rate:.3f})")
    n_train = int(round(TRAIN_FRACTION * n))
    return Dataset(loads, costs, commitments, n_train,
                   feasibility_rate=(n / attempts_total) if n else 1.0)


def _neighbor_order(train_loads: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Training indices by Euclidean distance; ties broken by record index."""
    d2 = np.sum((train_loads - load) ** 2, axis=1)
    return np.argsort(d2, kind="stable")


def cost_bound(ds: Dataset, load, cfg: PredictorConfig) -> float:
    """KNN cost estimate relaxed upward: mean of the K nearest training
    costs times (1 + epsilon)."""
    if len(ds) == 0 or ds.n_train == 0:
        raise LpUsageError("cost_bound needs a nonempty training split")
    train_loads, train_costs, _ = ds.train
    k = min(cfg.k, ds.n_train)
    order = _neighbor_order(train_loads, np.asarray(load, dtype=float))
    return float(np.mean(train_costs[order[:k]]) * (1.0 + cfg.epsilon))


def oracle_cost_bound(case: GridCase, load, epsilon: float) -> float:
    """Exact bound C*(1+epsilon) from a direct solve; epsilon > 0 keeps the
    optimum strictly inside the cut."""
    sol = solve_uc(build_uc(case, load))
    return sol.cost * (1.0 + epsilon)


def commitment_fixes(ds: Dataset, load, cfg: PredictorConfig,
                     ) -> tuple[tuple[int, int], ...]:
    """Status fixes for the given load.

    Units constant across all training records are fixed outright.  Each
    remaining unit gets a K-majority-vote classifier; only units whose
    held-out accuracy is exactly 100% contribute a fix.
    """
    if ds.n_train == 0:
        raise LpUsageError("commitment_fixes needs a training split")
    load = np.asarray(load, dtype=float)
    train_loads, _, train_u = ds.train
    val_loads, _, val_u = ds.validation
    G = train_u.shape[1]
    # The largest odd K the split allows, so that no vote ties.
    k = min(cfg.k, ds.n_train - 1 + ds.n_train % 2)

    fixes: list[tuple[int, int]] = []
    classifier_units = []
    for g in range(G):
        column = train_u[:, g]
        if np.all(column == column[0]):
            fixes.append((g, int(column[0])))
        else:
            classifier_units.append(g)

    if classifier_units and len(val_loads):
        # One neighbor ordering per validation point serves every unit.
        votes = np.empty((len(val_loads), len(classifier_units)), dtype=int)
        for i, vload in enumerate(val_loads):
            order = _neighbor_order(train_loads, vload)[:k]
            votes[i] = (train_u[order][:, classifier_units].sum(axis=0) * 2 > k)
        order = _neighbor_order(train_loads, load)[:k]
        for col, g in enumerate(classifier_units):
            if np.all(votes[:, col] == val_u[:, g]):
                pred = int(train_u[order][:, g].sum() * 2 > k)
                fixes.append((g, pred))
    return tuple(sorted(fixes))


def write_dataset_csv(ds: Dataset, path) -> None:
    """CSV with header load_1..load_N, cost, u_1..u_G; full-precision floats."""
    N = ds.loads.shape[1]
    G = ds.commitments.shape[1]
    header = ([f"load_{i + 1}" for i in range(N)] + ["cost"]
              + [f"u_{g + 1}" for g in range(G)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(ds)):
            row = ([repr(float(v)) for v in ds.loads[i]]
                   + [repr(float(ds.costs[i]))]
                   + [str(int(u)) for u in ds.commitments[i]])
            writer.writerow(row)


def read_dataset_csv(path) -> Dataset:
    """Read the CSV format back; the split marker is recomputed from the
    train fraction (the file carries records only)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 ({exc.reason} "
                           f"at byte {exc.start})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{path}: empty file, expected a CSV header")
    n_load = sum(1 for h in header if h.startswith("load_"))
    n_u = sum(1 for h in header if h.startswith("u_"))
    if header != ([f"load_{i+1}" for i in range(n_load)] + ["cost"]
                  + [f"u_{g+1}" for g in range(n_u)]):
        raise DatasetError(f"{path}: unexpected CSV header {header!r}")
    loads, costs, commitments = [], [], []
    for row in reader:
        where = f"{path}, line {reader.line_num}"
        if len(row) != len(header):
            raise DatasetError(
                f"{where}: {len(row)} cells, header has {len(header)}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise DatasetError(f"{where}: {exc}") from None
        if not all(math.isfinite(v) for v in vals):
            raise DatasetError(f"{where}: cells must be finite numbers")
        if not all(v in (0.0, 1.0) for v in vals[n_load + 1:]):
            raise DatasetError(f"{where}: commitment cells must be 0 or 1")
        loads.append(vals[:n_load])
        costs.append(vals[n_load])
        commitments.append([int(v) for v in vals[n_load + 1:]])
    n = len(loads)
    return Dataset(
        np.array(loads).reshape(n, n_load),
        np.array(costs, dtype=float),
        np.array(commitments, dtype=int).reshape(n, n_u),
        n_train=int(round(TRAIN_FRACTION * n)),
    )
