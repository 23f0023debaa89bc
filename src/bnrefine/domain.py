"""Domain types shared across the package.

A problem domain is a fixed, totally ordered list of discrete variables.
The list position of a variable defines the ordering used everywhere:
a variable may only draw parents from variables at strictly smaller
positions.  Expert knowledge enters as per-arc prior probabilities
(0 = forbidden, 1 = mandatory, anything in between = uncertain).

Examples are plain tuples of value indices, one per variable in schema
order; ``DomainSchema.encode_rows`` validates a block of them at once and
codes it as an (n, V) integer array.  A parent configuration is its
mixed-radix code (``config_codes``, which defines it, for whole arrays);
sufficient statistics live in sparse ``CountTable`` objects, one count row
per observed code.  ``CountTable.add`` counts a block by direct index into
the dense code space when that space is small next to the block, and by
sorting the codes otherwise; either way only the observed codes are stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import inf, prod

import numpy as np

Example = tuple[int, ...]


class ConfigurationError(ValueError):
    """A schema, prior matrix, or parameter set is internally inconsistent."""


class ExampleError(ValueError):
    """An example does not conform to the schema (missing/out-of-range value)."""


@dataclass(frozen=True)
class VariableSpec:
    """A named discrete variable with an ordered list of value labels."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise ConfigurationError(f"variable name {self.name!r} is not an identifier")
        if len(self.values) < 2:
            raise ConfigurationError(f"variable {self.name!r} needs at least 2 values")
        if len(set(self.values)) != len(self.values):
            raise ConfigurationError(f"variable {self.name!r} has duplicate value labels")

    @property
    def arity(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DomainSchema:
    """Ordered variables; list position is the total ordering on variables."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ConfigurationError("variable names must be unique")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_arities", np.array([v.arity for v in self.variables]))

    def __len__(self) -> int:
        return len(self.variables)

    def position(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ConfigurationError(f"unknown variable {name!r}") from None

    def arity(self, x: int) -> int:
        return self.variables[x].arity

    def name(self, x: int) -> str:
        return self.variables[x].name

    @property
    def value_dtype(self) -> np.dtype:
        """Narrowest unsigned integer type that holds every value index."""
        return np.min_scalar_type(max((v.arity for v in self.variables), default=2) - 1)

    def predecessors(self, x: int) -> range:
        """Variables allowed to be parents of ``x`` (all earlier positions)."""
        return range(x)

    def encode_rows(self, examples) -> np.ndarray:
        """Validate a block of examples and return it as an (n, V) array.

        ``examples`` is an iterable of examples; an integer (n, V) array is
        read row by row like any other.  Every example needs one value per
        variable, each an integer index (``bool`` excluded) in
        ``[0, arity)``; one bad value rejects the whole block with an
        ``ExampleError`` naming the first one.  An
        accepted block runs no Python loop per value: the set of value types
        is checked, then the whole array against the arities.  Only a
        rejected block is walked row by row, to name its first bad value.
        """
        width = len(self.variables)
        rows = list(map(tuple, examples))
        fits = set(map(len, rows)) <= {width} and all(
            map(_is_index_type, set(map(type, chain.from_iterable(rows))))
        )
        block = np.empty((0, width), dtype=np.int64)
        if fits:
            try:
                block = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width)
            except OverflowError:  # an integer beyond int64 is out of range
                fits = False
            block = block.reshape(-1, width)
        if fits:
            fits = not ((block < 0) | (block >= self._arities)).any()  # type: ignore[attr-defined]
        if not fits:
            raise ExampleError(next(filter(None, map(self._example_fault, rows))))
        return block.astype(self.value_dtype)

    def _example_fault(self, example) -> str | None:
        """What is wrong with one example, or None: walked on the error path only."""
        if len(example) != len(self.variables):
            return f"example has {len(example)} values, schema has {len(self.variables)}"
        for x, value in enumerate(example):
            if not _is_index_type(type(value)):
                return f"value for {self.name(x)!r} is not an index: {value!r}"
            if not 0 <= value < self.arity(x):
                return (
                    f"value index {value} out of range for {self.name(x)!r} "
                    f"(arity {self.arity(x)})"
                )
        return None


def _is_index_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


@dataclass(frozen=True)
class PriorConfig:
    """Global Dirichlet concentration; split per variable and parent set."""

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.alpha < inf:  # an infinite alpha makes every score NaN
            raise ConfigurationError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class ArcPriorMatrix:
    """Expert belief that y is a parent of x, for pairs with y before x.

    Pairs absent from ``entries`` take ``default_prior``.  Probability 1
    makes the arc mandatory, 0 forbids it; anything strictly between
    leaves the arc's status to be learned.
    """

    entries: dict[tuple[int, int], float] = field(default_factory=dict)
    default_prior: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_prior <= 1.0:
            raise ConfigurationError(f"default prior {self.default_prior} outside [0,1]")
        for (y, x), p in self.entries.items():
            if y >= x:
                raise ConfigurationError(
                    f"arc prior for ({y}, {x}) violates the variable ordering"
                )
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"arc prior {p} for ({y}, {x}) outside [0,1]")

    def prior(self, y: int, x: int) -> float:
        if y >= x:
            raise ConfigurationError(f"({y}, {x}): parent must precede child")
        return self.entries.get((y, x), self.default_prior)

    def mandatory_parents(self, x: int, schema: DomainSchema) -> tuple[int, ...]:
        return tuple(y for y in schema.predecessors(x) if self.prior(y, x) == 1.0)

    def candidate_parents(self, x: int, schema: DomainSchema) -> tuple[int, ...]:
        return tuple(y for y in schema.predecessors(x) if 0.0 < self.prior(y, x) < 1.0)


class CountTable:
    """Per-value counts of one variable, one row per observed parent configuration.

    ``codes`` holds the ascending code (``config_codes``) of every observed
    configuration of the parents, whose ``arities`` the table is
    conditioned on (first parent most significant); ``cells[i]`` holds
    the count of each value of the variable under ``codes[i]``.
    Configurations never observed are absent and implicitly all-zero, so
    storage grows with the observed configurations only, whichever way
    ``add`` counted them: by direct index when the parents have few
    configurations, by sorting the codes when they have many.
    """

    __slots__ = ("arities", "codes", "cells")

    def __init__(self, m_x: int, arities: tuple[int, ...]):
        self.arities = tuple(arities)
        self.codes = np.empty(0, dtype=np.int64)
        self.cells = np.empty((0, m_x), dtype=np.int64)

    @classmethod
    def from_rows(cls, arities: tuple[int, ...], codes: np.ndarray, cells: np.ndarray) -> CountTable:
        """The table of count rows already laid out as ``add`` lays them out:
        ascending int64 ``codes``, one non-zero int64 row of ``cells`` each."""
        table = cls.__new__(cls)
        table.arities, table.codes, table.cells = arities, codes, cells
        return table

    @property
    def m_x(self) -> int:
        return self.cells.shape[1]

    @property
    def total(self) -> int:
        """The number of examples the table has absorbed."""
        return int(self.cells.sum())

    def add(self, codes: np.ndarray, values: np.ndarray) -> None:
        """Count one example per (configuration code, value) pair, as one block.

        When the dense cell space (every configuration times ``m_x``) is
        at most four times the block, or 1024 cells, laying it all out
        costs less than sorting the block: the block is counted by direct
        index into it, the old rows are added by code, and only the
        non-empty rows are kept.  Otherwise the old and new codes are
        merged by sorting, and only the observed configurations are ever
        laid out.  Both give the same table: ascending int64 codes, one
        non-zero int64 row each.
        """
        m_x, old = self.m_x, len(self.codes)
        space = prod(self.arities) * m_x
        if space <= max(4 * len(codes), 1024):
            cells = np.bincount(codes * m_x + values, minlength=space).reshape(-1, m_x)
            cells[self.codes] += self.cells
            merged = np.flatnonzero(cells.any(axis=1)).astype(np.int64, copy=False)
            self.codes, self.cells = merged, cells[merged]
            return
        merged, inverse = np.unique(np.concatenate((self.codes, codes)), return_inverse=True)
        cells = np.bincount(inverse[old:] * m_x + values, minlength=len(merged) * m_x)
        cells = cells.reshape(len(merged), m_x)
        cells[inverse[:old]] += self.cells
        self.codes, self.cells = merged, cells

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (
            self.arities == other.arities
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.cells, other.cells)
        )


def config_count(schema: DomainSchema, parents: tuple[int, ...]) -> int:
    """Number of joint configurations of a parent set (1 for the empty set)."""
    return prod(schema.arity(p) for p in parents)


def config_codes(rows: np.ndarray, parents: tuple[int, ...], schema: DomainSchema) -> np.ndarray:
    """The configuration code of each row of an (n, V) array, as an int64 vector.

    A configuration of ``parents`` is coded mixed-radix, first parent most
    significant: codes run ``0 .. |v(parents)| - 1`` in the order of
    ``itertools.product(*(range(arity) for parent in parents))``, and the
    empty parent set has the one code 0.
    """
    code = np.zeros(len(rows), dtype=np.int64)
    for p in parents:
        code = code * schema.arity(p) + rows[:, p]
    return code


@dataclass
class ConcreteNetwork:
    """One fully specified network: a parent set and a dense CPT per variable.

    ``tables[x]`` has one row per configuration of ``parents[x]`` (in the
    order of their codes, ``config_codes``) and one column per value of x.
    """

    schema: DomainSchema
    parents: tuple[tuple[int, ...], ...]
    tables: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = len(self.schema)
        if len(self.parents) != n or len(self.tables) != n:
            raise ConfigurationError("parents/tables must cover every variable")
        for x, (ps, table) in enumerate(zip(self.parents, self.tables)):
            if any(p >= x for p in ps):
                raise ConfigurationError(f"parent set of {self.schema.name(x)!r} violates ordering")
            if any(a >= b for a, b in zip(ps, ps[1:])):
                raise ConfigurationError(f"parents of {self.schema.name(x)!r} must be strictly ascending")
            expected = (config_count(self.schema, ps), self.schema.arity(x))
            if table.shape != expected:
                raise ConfigurationError(
                    f"CPT for {self.schema.name(x)!r} has shape {table.shape}, expected {expected}"
                )
            if not np.isfinite(table).all():
                raise ConfigurationError(f"CPT for {self.schema.name(x)!r} has entries that are not finite")
            if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
                raise ConfigurationError(f"CPT rows for {self.schema.name(x)!r} are not distributions")
