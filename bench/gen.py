"""Seeded synthetic grid cases: a ring of buses plus random chords.

Every case is feasible over the whole load box [(1-beta), (1+beta)] times
its nominal profile.  With every unit on, the proportional dispatch
x = x_max * D / X (D total load, X total capacity) meets the generation
bounds whenever (1-beta) D0 >= max(x_min/x_max) X and (1+beta) D0 <= X,
which the load scale below guarantees.  Its line flows are linear in the
load vector, f = M l, so their extremes over the box have a closed form
(each term takes the box end that maximises it); every line limit is set
at or above those extremes.  A seeded share of the lines sits just above
them, which leaves the line-flow screening pass real work to do.
"""

from __future__ import annotations

import json

import numpy as np

MIN_RATIO = (0.1, 0.3)  # x_min / x_max range per unit
LOAD_SCALE = 0.6        # nominal total load / total capacity


def ring_chord_case(seed, n_buses: int, n_chords: int, n_gens: int,
                    beta: float, tight_share: float, name: str) -> dict:
    """Case document (parse_case format) for one seeded ring-plus-chords grid."""
    if not ((1 - beta) * LOAD_SCALE >= MIN_RATIO[1]
            and (1 + beta) * LOAD_SCALE <= 1):
        raise ValueError(f"beta {beta} breaks the feasibility construction")
    rng = np.random.default_rng(seed)
    N = n_buses
    edges = [(i, (i + 1) % N) for i in range(N)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < N + n_chords:
        a, b = (int(v) for v in rng.integers(0, N, size=2))
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((min(a, b), max(a, b)))
    L = len(edges)
    susc = np.round(rng.uniform(5.0, 20.0, size=L), 3)

    gen_bus = rng.choice(N, size=n_gens, replace=False)
    x_min, x_max, cost = _fleet(n_gens)
    weights = rng.uniform(0.5, 1.5, size=N)
    load = np.round(weights / weights.sum() * LOAD_SCALE * x_max.sum(), 4)

    ptdf = _ptdf(N, edges, susc)
    gen_share = np.zeros(N)
    np.add.at(gen_share, gen_bus, x_max / x_max.sum())
    M = ptdf @ (np.outer(gen_share, np.ones(N)) - np.eye(N))
    lo, hi = (1 - beta) * load, (1 + beta) * load
    flow_hi = np.maximum(M * lo, M * hi).sum(axis=1)
    flow_lo = np.minimum(M * lo, M * hi).sum(axis=1)

    tight = np.zeros(L, dtype=bool)
    tight[rng.choice(L, size=int(round(tight_share * L)), replace=False)] = True
    margin = np.where(tight, rng.uniform(1.01, 1.05, size=L),
                      rng.uniform(1.2, 2.0, size=L))
    floor = 0.01 * x_max.mean()
    f_max = np.maximum(flow_hi, 0.0) * margin + floor
    f_min = np.minimum(flow_lo, 0.0) * margin - floor

    return {
        "name": name,
        "buses": list(range(1, N + 1)),
        "slack_bus": 1,
        "lines": [{"from": a + 1, "to": b + 1, "susceptance": float(s),
                   "f_min": round(float(lo_), 6), "f_max": round(float(hi_), 6)}
                  for (a, b), s, lo_, hi_ in zip(edges, susc, f_min, f_max)],
        "generators": [{"bus": int(b) + 1, "x_min": float(a), "x_max": float(c),
                        "cost": float(k)}
                       for b, a, c, k in zip(gen_bus, x_min, x_max, cost)],
        "nominal_load": [float(v) for v in load],
    }


def _fleet(n_gens: int):
    """Unit sizes and costs, fixed per fleet size.

    Branch-and-bound effort depends mostly on which units are marginal,
    so a fleet drawn afresh per case would swing the MILP work between
    seeds far more than the network does.  Seeds vary the topology, the
    unit placement and the load profile instead.
    """
    rng = np.random.default_rng(n_gens)
    x_max = np.round(rng.uniform(20.0, 60.0, size=n_gens), 3)
    x_min = np.round(x_max * rng.uniform(*MIN_RATIO, size=n_gens), 3)
    cost = np.round(rng.uniform(10.0, 40.0, size=n_gens), 3)
    return x_min, x_max, cost


def _ptdf(N: int, edges, susc: np.ndarray) -> np.ndarray:
    """Line-by-bus PTDF with bus 0 as slack, independent of the package."""
    inc = np.zeros((len(edges), N))
    for j, (a, b) in enumerate(edges):
        inc[j, a], inc[j, b] = 1.0, -1.0
    lap = inc.T @ (susc[:, None] * inc)
    theta = np.zeros((N, N))
    theta[1:, 1:] = np.linalg.inv(lap[1:, 1:])
    return (susc[:, None] * inc) @ theta


def write_case(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
