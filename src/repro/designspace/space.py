"""The 13-parameter microarchitectural design space of Table 1.

The paper varies 13 parameters of a superscalar out-of-order core for a
raw cross product of roughly 63 billion configurations, then filters out
points that "do not make architectural sense" (e.g. a reorder buffer
smaller than the issue queue), leaving roughly 18 billion legal points.
:class:`DesignSpace` reproduces both the grid and the filtering, computes
the exact legal-point count by factored enumeration, and converts between
:class:`~repro.designspace.configuration.Configuration` objects and the
13-element feature vectors used by the predictors.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .configuration import PARAMETER_ORDER, Configuration
from .parameters import Parameter, geometric_grid, linear_grid


def table1_parameters() -> Tuple[Parameter, ...]:
    """Build the 13 varied parameters of the paper's Table 1.

    The grids reproduce the ranges, steps and cardinalities of Table 1
    (4 x 17 x 10 x 10 x 16 x 8 x 8 x 6 x 3 x 4 x 5 x 5 x 5 which is about
    63 billion raw points) and the baseline machine encodes to the
    paper's ``x_baseline = (4, 96, 32, 48, 96, 8, 4, 16, 4, 16, 32, 32, 2)``.
    """
    return (
        Parameter("width", "Pipeline width", (2, 4, 6, 8), 4, "insns"),
        Parameter("rob_size", "Reorder buffer", linear_grid(32, 160, 8), 96, "entries"),
        Parameter("iq_size", "Issue queue", linear_grid(8, 80, 8), 32, "entries"),
        Parameter("lsq_size", "Load/store queue", linear_grid(8, 80, 8), 48, "entries"),
        Parameter("rf_size", "Register file", linear_grid(40, 160, 8), 96, "regs"),
        Parameter("rf_read_ports", "RF read ports", linear_grid(2, 16, 2), 8, "ports"),
        Parameter("rf_write_ports", "RF write ports", linear_grid(1, 8, 1), 4, "ports"),
        Parameter(
            "gshare_size",
            "Gshare predictor",
            geometric_grid(1024, 32768),
            16384,
            "entries",
            encoding_divisor=1024,
        ),
        Parameter(
            "btb_size",
            "Branch target buffer",
            geometric_grid(1024, 4096),
            4096,
            "entries",
            encoding_divisor=1024,
        ),
        Parameter("max_branches", "In-flight branches", (8, 16, 24, 32), 16, "branches"),
        Parameter("icache_kb", "L1 I-cache", geometric_grid(8, 128), 32, "KB"),
        Parameter("dcache_kb", "L1 D-cache", geometric_grid(8, 128), 32, "KB"),
        Parameter(
            "l2cache_kb",
            "L2 unified cache",
            geometric_grid(256, 4096),
            2048,
            "KB",
            encoding_divisor=1024,
        ),
    )


def meets_constraints(values):
    """The legality constraints of :class:`DesignSpace`, stated once.

    The paper names the first; the rest are the analogous "architectural
    sense" filters that leave its ~18 billion legal points.  ``values``
    holds the 13 parameters in canonical order: one configuration
    (giving a ``bool``) or 13 value columns (giving a mask).
    """
    (width, rob, iq, lsq, _rf, read_ports, write_ports, _gshare, _btb,
     _branches, icache, dcache, l2) = values
    return (
        (rob >= iq)  # issue-queue entries occupy reorder-buffer slots,
        & (rob >= lsq)  # and so do load/store-queue entries
        & (read_ports <= 2 * width)  # two operand reads per issue slot
        & (write_ports <= width)  # one result written back per slot
        & (l2 >= 8 * icache)  # the unified L2 meaningfully backs the L1s
        & (l2 >= 8 * dcache)
    )


#: Table 1's encoding divisors and smallest and largest grid values: the
#: frame of :meth:`DesignSpace.unit_cube`.
_DIVISORS, _MINIMA, _MAXIMA = np.array(
    [(p.encoding_divisor, p.minimum, p.maximum) for p in table1_parameters()],
    dtype=float,
).T


class DesignSpace:
    """The legal microarchitectural design space: 13 value grids whose
    cross product is filtered by :func:`meets_constraints`."""

    def __init__(self, parameters: Sequence[Parameter] | None = None) -> None:
        self._parameters: Tuple[Parameter, ...] = tuple(
            parameters if parameters is not None else table1_parameters()
        )
        names = tuple(p.name for p in self._parameters)
        if names != PARAMETER_ORDER:
            raise ValueError(
                "parameters must match the canonical 13-parameter order; "
                f"got {names}"
            )
        self._by_name: Dict[str, Parameter] = {p.name: p for p in self._parameters}
        # encode_many's lookup tables: each parameter's grid value ->
        # feature, the same quotient Parameter.encode computes.
        self._features_of: Tuple[Dict[int, float], ...] = tuple(
            {value: value / p.encoding_divisor for value in p.values}
            for p in self._parameters
        )
        # validate_many's grid table: parameter j's values -1 .. max + 1
        # in one flat boolean array, value v at _grid_offsets[j] + v; the
        # two ends stand for every value below and above the grid.
        ceilings = [p.maximum + 1 for p in self._parameters]
        starts = np.cumsum([0] + [c + 2 for c in ceilings])
        self._grid_table = np.zeros(starts[-1], dtype=bool)
        for start, p in zip(starts, self._parameters):
            self._grid_table[start + 1 + np.array(p.values)] = True
        self._grid_offsets = starts[:-1] + 1
        self._grid_ceilings = np.array(ceilings, dtype=float)
        self._baseline = Configuration(*(p.baseline for p in self._parameters))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        """The 13 varied parameters in canonical order."""
        return self._parameters

    @property
    def dimensions(self) -> int:
        """Number of varied parameters (13)."""
        return len(self._parameters)

    def parameter(self, name: str) -> Parameter:
        """Look a parameter up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown parameter {name!r}; known: {sorted(self._by_name)}"
            ) from None

    @property
    def raw_size(self) -> int:
        """Size of the unfiltered cross product (about 63 billion)."""
        size = 1
        for parameter in self._parameters:
            size *= parameter.cardinality
        return size

    @property
    def legal_size(self) -> int:
        """Exact number of legal points (about 18 billion).

        The constraints factor into three independent groups —
        (rob, iq, lsq), (width, read ports, write ports) and
        (icache, dcache, l2) — so the count is a product of three small
        enumerations times the cardinalities of the unconstrained
        parameters.
        """
        rob = self.parameter("rob_size").values
        iq = self.parameter("iq_size").values
        lsq = self.parameter("lsq_size").values
        window_group = sum(
            sum(1 for q in iq if q <= r) * sum(1 for s in lsq if s <= r)
            for r in rob
        )

        widths = self.parameter("width").values
        rports = self.parameter("rf_read_ports").values
        wports = self.parameter("rf_write_ports").values
        port_group = sum(
            sum(1 for rp in rports if rp <= 2 * w)
            * sum(1 for wp in wports if wp <= w)
            for w in widths
        )

        icache = self.parameter("icache_kb").values
        dcache = self.parameter("dcache_kb").values
        l2 = self.parameter("l2cache_kb").values
        cache_group = sum(
            sum(1 for c in l2 if c >= 8 * max(i, d))
            for i in icache
            for d in dcache
        )

        unconstrained = 1
        for name in ("rf_size", "gshare_size", "btb_size", "max_branches"):
            unconstrained *= self.parameter(name).cardinality
        return window_group * port_group * cache_group * unconstrained

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------
    def is_on_grid(self, config: Configuration) -> bool:
        """True if every parameter value lies on its Table 1 grid."""
        return all(
            value in p.values for p, value in zip(self._parameters, config)
        )

    def satisfies_constraints(self, config: Configuration) -> bool:
        """True if the configuration makes architectural sense."""
        return meets_constraints(config)

    def is_legal(self, config: Configuration) -> bool:
        """True if the configuration is on the grid and legal.  The grid
        test reads :meth:`encode_many`'s lookup tables, which hold a
        value exactly when :meth:`is_on_grid` does."""
        try:
            on_grid = all(map(dict.__contains__, self._features_of, config))
        except TypeError:  # an unhashable value is on no grid
            return False
        return on_grid and meets_constraints(config)

    def validate(self, config: Configuration) -> None:
        """Raise ``ValueError`` with a diagnosis if ``config`` (a
        configuration or any row of 13 values in canonical order) is
        illegal.  A plain row gets the text its configuration gets."""
        values = tuple(config)
        if len(values) != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions} values, got {len(values)}"
            )
        for parameter, value in zip(self._parameters, values):
            if value not in parameter.values:
                raise ValueError(
                    f"{parameter.name}={value!r} is off the grid "
                    f"{parameter.values}"
                )
        if not meets_constraints(values):
            raise ValueError(
                "configuration violates legality constraints: "
                f"{Configuration(*values)}"
            )

    def validate_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Validate a batch and return its (m, 13) float value matrix.

        The batch form of :meth:`validate`, over configurations or any
        rows of 13 values.  The error names the first offending row, by
        index and then parameter order: ``config[i]: `` and
        :meth:`validate`'s message for a value off its grid or a row of
        another length, else ``config[i] violates legality constraints:
        ...``.
        """
        rows = list(map(tuple, configs))
        shape = (len(rows), self.dimensions)
        try:
            values = np.array(rows)
        except ValueError:  # rows of different lengths
            values = np.empty(0)
        on_grid = values.shape == shape and values.dtype.kind in "biuf"
        if on_grid:
            values = values.astype(float)
            on_grid = self._on_grid(values)
        if not on_grid:
            # Name the first value off its grid by validate's own rule,
            # ``value in parameter.values``; a string or None lands here.
            for index, row in enumerate(rows):
                if len(row) != self.dimensions or not self.is_on_grid(row):
                    try:
                        self.validate(row)
                    except ValueError as error:
                        raise ValueError(f"config[{index}]: {error}") from None
            values = values.astype(float).reshape(shape)
        legal = meets_constraints(values.T)
        if not legal.all():
            index = int(np.argmin(legal))
            raise ValueError(
                f"config[{index}] violates legality constraints: "
                f"{Configuration(*rows[index])}"
            )
        return values

    def _on_grid(self, values: np.ndarray) -> bool:
        """True if every entry of an (m, 13) float value matrix lies on
        its parameter's grid: one gather through the grid table.  NaN
        and values below the grid read the table's low end, values
        above it the high end, and a fractional value fails the
        integrality test."""
        clipped = np.fmin(np.fmax(values, -1.0), self._grid_ceilings)
        index = clipped.astype(np.intp)
        on_grid = self._grid_table[index + self._grid_offsets]
        return bool((on_grid & (index == clipped)).all())

    # ------------------------------------------------------------------
    # Baseline and encoding
    # ------------------------------------------------------------------
    @property
    def baseline(self) -> Configuration:
        """The paper's baseline machine (Table 1, last column)."""
        return self._baseline

    def encode(self, config: Configuration) -> np.ndarray:
        """Encode one configuration as the paper's 13-element feature
        vector."""
        values = tuple(config)
        if len(values) != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions} values, got {len(values)}"
            )
        return np.array(
            [p.encode(value) for p, value in zip(self._parameters, values)],
            dtype=float,
        )

    def encode_many(self, configs: Iterable[Configuration]) -> np.ndarray:
        """Encode configurations as an (n, 13) matrix, one lookup per
        value.  Accepts any iterable — list, tuple, generator — without
        the caller having to materialise a fresh list first.
        """
        if not hasattr(configs, "__len__"):
            configs = list(configs)
        if len(configs) == 0:
            return np.empty((0, self.dimensions), dtype=float)
        # The trailing empty table refuses a 14th value (the last row's
        # only once the iterator is advanced past the count); a short
        # row leaves the iterator short.
        lookup, tables = dict.__getitem__, (*self._features_of, {})
        values = itertools.chain.from_iterable(
            map(lookup, tables, config) for config in configs
        )
        try:
            features = np.fromiter(
                values, dtype=float, count=len(configs) * self.dimensions
            )
            next(values, None)
        except (KeyError, TypeError, ValueError):
            # An off-grid or unhashable value, or a row of the wrong
            # length: encode row by row, so the first offending row
            # raises exactly what encode raises for it.
            return np.stack([self.encode(config) for config in configs])
        return features.reshape(len(configs), self.dimensions)

    def decode(self, features: Sequence[float]) -> Configuration:
        """Invert :meth:`encode`, snapping each feature to its grid."""
        if len(features) != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions} features, got {len(features)}"
            )
        return Configuration(
            *(p.decode(f) for p, f in zip(self._parameters, features))
        )

    # ------------------------------------------------------------------
    # Normalisation helpers used by the ML front end
    # ------------------------------------------------------------------
    def feature_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-feature (min, max) in encoded units, for scaling."""
        lo = np.array(
            [p.encode(p.minimum) for p in self._parameters], dtype=float
        )
        hi = np.array(
            [p.encode(p.maximum) for p in self._parameters], dtype=float
        )
        return lo, hi

    @staticmethod
    def unit_cube(values: np.ndarray) -> np.ndarray:
        """Place an (m, 13) value matrix in Table 1's unit cube, encoded
        and scaled so each grid's smallest value is 0 and its largest 1.
        Every space, restricted or not, shares Table 1's frame."""
        low = _MINIMA / _DIVISORS
        return (values / _DIVISORS - low) / (_MAXIMA / _DIVISORS - low)

    def enumerate(self, limit: int = 1_000_000):
        """Yield every legal configuration of the space, in grid order.

        Intended for *restricted* spaces (see
        :mod:`repro.designspace.restrict`) whose legal size is small
        enough to walk exhaustively; the full Table 1 space is 19
        billion points and is guarded by ``limit``.

        Args:
            limit: Raise ``ValueError`` if the legal size exceeds this,
                as a protection against accidentally iterating the full
                space.

        Yields:
            Legal :class:`Configuration` objects.
        """
        if self.legal_size > limit:
            raise ValueError(
                f"space has {self.legal_size:,} legal points, above the "
                f"enumeration limit of {limit:,}; restrict it first"
            )
        grids = [p.values for p in self._parameters]
        for values in itertools.product(*grids):
            if meets_constraints(values):
                yield Configuration(*values)

    def neighbours(self, config: Configuration) -> List[Configuration]:
        """All legal single-parameter-step neighbours of ``config``.

        Useful for local search over the space (e.g. sweet-spot hill
        climbing in the examples).
        """
        result: List[Configuration] = []
        for parameter in self._parameters:
            index = parameter.index_of(getattr(config, parameter.name))
            for step in (-1, 1):
                neighbour_index = index + step
                if 0 <= neighbour_index < parameter.cardinality:
                    candidate = config.replace(
                        **{parameter.name: parameter.values[neighbour_index]}
                    )
                    if self.satisfies_constraints(candidate):
                        result.append(candidate)
        return result
