"""Grid case files: parsing, validation, and PTDF computation.

A case is UTF-8 JSON with top-level keys `buses`, `lines`, `generators`,
`nominal_load`, and optional `slack_bus` / `name`.  All power quantities
are MW on a common base; susceptances are p.u.  Line orientation is
from -> to as written in the file, and f_min/f_max are interpreted in
that orientation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np


class CaseFormatError(ValueError):
    """The case text violates the JSON schema; message names the path."""


class CaseValidationError(ValueError):
    """The case parses but breaks a physical or referential invariant."""


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    susceptance: float
    f_min: float
    f_max: float


@dataclass(frozen=True)
class Generator:
    bus: int
    x_min: float
    x_max: float
    cost: float


@dataclass(frozen=True, eq=False)
class GridCase:
    """Physical system description; immutable after parsing.

    Its PTDF depends on the case alone, so `ptdf` computes it on first
    use and keeps it: every model built from one case shares one matrix,
    and no model holds another.  A copy made by `dataclasses.replace`
    computes its own."""

    buses: tuple[int, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    nominal_load: np.ndarray  # MW, in `buses` order
    slack_bus: int
    name: str = ""

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    def bus_index(self, bus: int) -> int:
        return self.buses.index(bus)

    @cached_property
    def ptdf(self) -> PtdfMatrix:
        """The case's PTDF, from `compute_ptdf` on first access."""
        return compute_ptdf(self)

    def gen_bus_matrix(self) -> np.ndarray:
        """(n_buses, n_gens) incidence mapping generation onto buses."""
        B = np.zeros((self.n_buses, self.n_gens))
        for g, gen in enumerate(self.generators):
            B[self.bus_index(gen.bus), g] = 1.0
        return B


@dataclass(frozen=True, eq=False)
class PtdfMatrix:
    """Flow sensitivity to nodal injection, withdrawn at the case's slack bus.

    entries[j, n] is the MW flow induced on line j by injecting 1 MW at
    bus n (by position in the case's bus order).  The slack column is
    identically zero.
    """

    entries: np.ndarray


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise CaseFormatError(f"{path}: {msg}")


def _number(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    # json.loads accepts the NaN and Infinity literals
    if not math.isfinite(number):  # message built only on failure: hot path
        raise CaseFormatError(f"{path}: expected a finite number, got {number}")
    return number


def _integer(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            path, "expected an integer")
    return int(value)


def _object(value, path: str, required: set[str], optional: set[str] = frozenset()):
    _expect(isinstance(value, dict), path, "expected an object")
    missing = required - value.keys()
    _expect(not missing, path, f"missing key(s) {sorted(missing)}")
    unknown = value.keys() - required - optional
    _expect(not unknown, path, f"unknown key(s) {sorted(unknown)}")
    return value


_TOP_REQUIRED = {"buses", "lines", "generators", "nominal_load"}
_TOP_OPTIONAL = {"slack_bus", "name"}


def parse_case(text: str) -> GridCase:
    """Parse and validate case-file content."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"$: invalid JSON ({exc})") from exc
    _object(doc, "$", _TOP_REQUIRED, _TOP_OPTIONAL)

    raw_buses = doc["buses"]
    _expect(isinstance(raw_buses, list) and raw_buses, "buses", "expected a non-empty array")
    buses = tuple(_integer(b, f"buses[{i}]") for i, b in enumerate(raw_buses))
    n = len(buses)
    if set(buses) != set(range(1, n + 1)):
        raise CaseValidationError(f"buses must be exactly 1..{n}, got {sorted(set(buses))}")
    declared = set(buses)

    raw_lines = doc["lines"]
    _expect(isinstance(raw_lines, list), "lines", "expected an array")
    lines = []
    for i, item in enumerate(raw_lines):
        path = f"lines[{i}]"
        obj = _object(item, path, {"from", "to", "susceptance", "f_min", "f_max"})
        frm = _integer(obj["from"], f"{path}.from")
        to = _integer(obj["to"], f"{path}.to")
        susc = _number(obj["susceptance"], f"{path}.susceptance")
        fmin = _number(obj["f_min"], f"{path}.f_min")
        fmax = _number(obj["f_max"], f"{path}.f_max")
        for end, key in ((frm, "from"), (to, "to")):
            if end not in declared:
                raise CaseValidationError(f"{path}.{key}: bus {end} is not declared")
        if frm == to:
            raise CaseValidationError(f"{path}: self-loop on bus {frm}")
        if susc <= 0:
            raise CaseValidationError(f"{path}.susceptance: must be > 0, got {susc}")
        if not fmin <= 0 <= fmax:
            raise CaseValidationError(
                f"{path}: need f_min <= 0 <= f_max, got [{fmin}, {fmax}]")
        lines.append(Line(frm, to, susc, fmin, fmax))

    raw_gens = doc["generators"]
    _expect(isinstance(raw_gens, list) and raw_gens, "generators", "expected a non-empty array")
    gens = []
    for i, item in enumerate(raw_gens):
        path = f"generators[{i}]"
        obj = _object(item, path, {"bus", "x_min", "x_max", "cost"})
        bus = _integer(obj["bus"], f"{path}.bus")
        if bus not in declared:
            raise CaseValidationError(f"{path}.bus: bus {bus} is not declared")
        x_min = _number(obj["x_min"], f"{path}.x_min")
        x_max = _number(obj["x_max"], f"{path}.x_max")
        if not 0 <= x_min <= x_max:
            raise CaseValidationError(
                f"{path}: need 0 <= x_min <= x_max, got [{x_min}, {x_max}]")
        cost = _number(obj["cost"], f"{path}.cost")
        gens.append(Generator(bus, x_min, x_max, cost))

    raw_load = doc["nominal_load"]
    _expect(isinstance(raw_load, list), "nominal_load", "expected an array")
    if len(raw_load) != n:
        raise CaseValidationError(
            f"nominal_load has {len(raw_load)} entries for {n} buses")
    load = np.array([_number(v, f"nominal_load[{i}]") for i, v in enumerate(raw_load)])
    if np.any(load < 0):
        bad = int(np.nonzero(load < 0)[0][0])
        raise CaseValidationError(f"nominal_load[{bad}]: must be >= 0")

    slack = doc.get("slack_bus", min(buses))
    slack = _integer(slack, "slack_bus")
    if slack not in declared:
        raise CaseValidationError(f"slack_bus: bus {slack} is not declared")

    name = doc.get("name", "")
    _expect(isinstance(name, str), "name", "expected a string")

    _check_connected(buses, lines)
    load.flags.writeable = False
    return GridCase(buses, tuple(lines), tuple(gens), load, slack, name)


def _check_connected(buses: tuple[int, ...], lines: list[Line]) -> None:
    adj: dict[int, list[int]] = {b: [] for b in buses}
    for ln in lines:
        adj[ln.from_bus].append(ln.to_bus)
        adj[ln.to_bus].append(ln.from_bus)
    seen = {buses[0]}
    stack = [buses[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(buses):
        missing = sorted(set(buses) - seen)
        raise CaseValidationError(f"network is disconnected; unreachable buses {missing}")


def parse_case_file(path) -> GridCase:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CaseFormatError(f"{path}: not UTF-8 ({exc.reason} "
                              f"at byte {exc.start})") from None
    return parse_case(text)


def case_to_json(case: GridCase) -> str:
    """Serialize a case back to the file format (round-trips via parse_case)."""
    doc = {
        "name": case.name,
        "buses": list(case.buses),
        "slack_bus": case.slack_bus,
        "lines": [
            {"from": ln.from_bus, "to": ln.to_bus, "susceptance": ln.susceptance,
             "f_min": ln.f_min, "f_max": ln.f_max}
            for ln in case.lines
        ],
        "generators": [
            {"bus": g.bus, "x_min": g.x_min, "x_max": g.x_max, "cost": g.cost}
            for g in case.generators
        ],
        "nominal_load": [float(v) for v in case.nominal_load],
    }
    return json.dumps(doc, indent=2)


def compute_ptdf(case: GridCase) -> PtdfMatrix:
    """PTDF via one dense factorization of the reduced susceptance matrix."""
    n, L = case.n_buses, case.n_lines
    inc = np.zeros((L, n))
    susc = np.empty(L)
    for j, ln in enumerate(case.lines):
        inc[j, case.bus_index(ln.from_bus)] = 1.0
        inc[j, case.bus_index(ln.to_bus)] = -1.0
        susc[j] = ln.susceptance
    laplacian = inc.T @ (susc[:, None] * inc)
    s = case.bus_index(case.slack_bus)
    keep = np.delete(np.arange(n), s)
    reduced = laplacian[np.ix_(keep, keep)]
    theta_red = np.linalg.solve(reduced, np.eye(n - 1))
    theta = np.zeros((n, n))
    theta[np.ix_(keep, keep)] = theta_red
    entries = (susc[:, None] * inc) @ theta
    entries[:, s] = 0.0
    entries.flags.writeable = False
    return PtdfMatrix(entries)


def bundled_case_names() -> list[str]:
    """Names of the desk-scale cases shipped with the package."""
    root = resources.files("ucscreen") / "cases"
    return sorted(p.name[: -len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_bundled_case(name: str) -> GridCase:
    path = resources.files("ucscreen") / "cases" / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CaseValidationError(
            f"no bundled case named {name!r}; available: {bundled_case_names()}"
        ) from None
    return parse_case(text)
