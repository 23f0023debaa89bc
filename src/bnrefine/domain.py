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
per observed code.  ``count_cells`` counts one block into many tables at
once: by direct index into the dense code space of each table whose space
is small next to the block, all such tables through one shared
``np.bincount``, and by sorting the codes of every other table; either way
only the observed codes are stored.  The tables of one shared count hold
views of its arrays, not copies, until the next block recounts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, count
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
        top = max((v.arity for v in self.variables), default=2) - 1
        object.__setattr__(self, "_value_dtype", np.min_scalar_type(top))

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
        return self._value_dtype  # type: ignore[attr-defined]

    def predecessors(self, x: int) -> range:
        """Variables allowed to be parents of ``x`` (all earlier positions)."""
        return range(x)

    def encode_rows(self, examples) -> np.ndarray:
        """Validate a block of examples and return it as an (n, V) array.

        ``examples`` is an iterable of examples; an integer (n, V) array is
        read row by row like any other.  Every example needs one value per
        variable, each an integer index (``bool`` excluded) in
        ``[0, arity)``; one bad example rejects the whole block with an
        ``ExampleError`` naming the first fault.  An accepted block costs
        one Python-level pass over its values, ``map(type, ...)``; a block
        of plain ``int`` passes on their count alone, and only a block
        holding another type checks each distinct type.  The conversion
        and the range check run in C: ``bytearray`` when the log is
        ``uint8`` (it takes exactly the integers 0..255, so only the upper
        bound is left to test), else ``np.fromiter`` and a test of both
        bounds, against the arities.  Only a rejected block is walked
        example by example, to name its first fault.
        """
        examples = list(examples)
        block = self._encoded(examples)
        if block is None:
            raise ExampleError(next(filter(None, map(self._example_fault, count(), examples))))
        return block

    def _encoded(self, examples: list) -> np.ndarray | None:
        """The examples as an (n, V) array of ``value_dtype``, or None if one is faulty."""
        width = len(self.variables)
        try:
            rows = list(map(tuple, examples))
        except TypeError:  # an example that is not a sequence
            return None
        if not set(map(len, rows)) <= {width}:
            return None
        flat = list(chain.from_iterable(rows))
        kinds = list(map(type, flat))
        if kinds.count(int) != len(kinds) and not all(map(_is_index_type, set(kinds))):
            return None
        dtype = self._value_dtype  # type: ignore[attr-defined]
        as_bytes = dtype == np.uint8
        try:
            if as_bytes:  # bytearray takes exactly the integers 0..255
                block = np.frombuffer(bytearray(flat), dtype)
            else:
                block = np.fromiter(flat, np.int64, len(flat))
        except (OverflowError, ValueError):  # an integer beyond the dtype is out of range
            return None
        block = block.reshape(len(rows), width)
        beyond = block >= self._arities  # type: ignore[attr-defined]
        if not as_bytes:  # a uint8 block has no value below 0
            beyond |= block < 0
        if beyond.any():
            return None
        return block.astype(dtype, copy=False)

    def _example_fault(self, position: int, example) -> str | None:
        """What is wrong with one example, or None: walked on the error path only."""
        try:
            example = tuple(example)
        except TypeError:
            return f"example {position} is not a sequence of values: {example!r}"
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
    ``count_cells`` counted them: by direct index when the parents have
    few configurations, by sorting the codes when they have many.
    """

    __slots__ = ("arities", "codes", "cells")

    def __init__(self, m_x: int, arities: tuple[int, ...]):
        self.arities = tuple(arities)
        self.codes = np.empty(0, dtype=np.int64)
        self.cells = np.empty((0, m_x), dtype=np.int64)

    @classmethod
    def from_rows(cls, arities: tuple[int, ...], codes: np.ndarray, cells: np.ndarray) -> CountTable:
        """The table of count rows already laid out as ``count_cells`` lays
        them out: ascending int64 ``codes``, one non-zero int64 row of ``cells`` each."""
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (
            self.arities == other.arities
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.cells, other.cells)
        )


def count_cells(tables: list[CountTable], cells: np.ndarray) -> None:
    """Count one block of examples into many tables at once.

    ``cells`` is an (n, len(tables)) int64 array: ``cells[i, j]`` is the
    cell of example i in ``tables[j]``, its configuration code times
    ``m_x`` plus its value.  A table whose dense cell space (every
    configuration times ``m_x``) is at most four times the block, or 1024
    cells, costs less to lay out whole than to sort the block.  All such
    tables are laid out end to end, those of one ``m_x`` together, and
    counted by one ``np.bincount``; then each run of one ``m_x`` adds its
    tables' old rows by code and keeps its non-empty rows, all with one
    call per step, however many tables it holds.  Every other table
    merges its old and new codes by sorting, so only its observed
    configurations are ever laid out.  Both give the same table: ascending
    int64 codes, one non-zero int64 row each.
    """
    n = len(cells)
    runs: dict[int, list[tuple[int, int]]] = {}  # m_x -> (index, space) of its dense tables
    sorting = []
    for j, table in enumerate(tables):
        space = prod(table.arities) * table.m_x
        if space <= max(4 * n, 1024):
            runs.setdefault(table.m_x, []).append((j, space))
        else:
            sorting.append(j)
    dense = [j for run in runs.values() for j, _ in run]
    if dense:
        # firsts[k]: the first cell of dense table k, in dense order
        firsts = [0, *accumulate(space for run in runs.values() for _, space in run)]
        block = cells if dense == list(range(len(tables))) else cells[:, dense]
        laid_out = np.bincount((block + firsts[:-1]).ravel(), minlength=firsts[-1])
        k = 0
        for m_x, run in runs.items():
            _keep_rows([tables[j] for j, _ in run], laid_out, firsts[k : k + len(run) + 1], m_x)
            k += len(run)
    for j in sorting:
        table = tables[j]
        m_x, old = table.m_x, len(table.codes)
        codes, values = np.divmod(cells[:, j], m_x)
        merged, inverse = np.unique(np.concatenate((table.codes, codes)), return_inverse=True)
        counts = np.bincount(inverse[old:] * m_x + values, minlength=len(merged) * m_x)
        counts = counts.reshape(len(merged), m_x)
        counts[inverse[:old]] += table.cells
        table.codes, table.cells = merged, counts


def _keep_rows(run: list[CountTable], laid_out: np.ndarray, firsts: list[int], m_x: int) -> None:
    """Add the old rows of a run of tables of one ``m_x``, whose new counts
    fill ``laid_out[firsts[0]:firsts[-1]]`` end to end, and store each
    table's non-empty rows as views of the run's two arrays.  A view keeps
    the whole run's rows alive while any table of the run holds it; every
    stored table is recounted into fresh arrays at the next batch
    (``engine.observe_batch``), so a run lives at most until then."""
    counts = laid_out[firsts[0] : firsts[-1]].reshape(-1, m_x)
    starts = (np.array(firsts[:-1]) - firsts[0]) // m_x  # each table's first row
    old = np.concatenate([table.codes for table in run])
    old += np.repeat(starts, [len(table.codes) for table in run])
    counts[old] += np.concatenate([table.cells for table in run])
    kept = np.flatnonzero(counts.any(axis=1))
    owner = np.searchsorted(starts, kept, side="right") - 1
    codes, cells = (kept - starts[owner]).astype(np.int64, copy=False), counts[kept]
    bounds = np.searchsorted(kept, [*starts.tolist(), len(counts)]).tolist()
    for table, a, b in zip(run, bounds, bounds[1:]):
        table.codes, table.cells = codes[a:b], cells[a:b]


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
