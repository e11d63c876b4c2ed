"""Stacked ensemble inference over many identically shaped networks.

The architecture-centric predictor evaluates N ~ 25 per-program
networks at every configuration it is asked about; the hot loops
(response fitting, held-out scoring, the 5,000-candidate sweet-spot
scan) all funnel through that ensemble forward pass.  Evaluating the
networks one by one re-encodes the *same* configuration batch N times
and issues N small GEMMs — almost all of the wall time is redundant
Python-level encoding.

:class:`StackedEnsemble` removes the redundancy.  All member networks
share the one-hidden-layer (D, H) shape, so their parameters stack into
(N, D, H) / (N, H) tensors and the whole ensemble evaluates in one
batched contraction per layer::

    hidden = tanh(einsum('nmd,ndh->nmh', x, W_hidden) + b_hidden)
    output = einsum('nmh,nh->nm', hidden, w_output) + b_output

The contractions are executed with :func:`numpy.matmul` on the stacked
tensors rather than a literal ``numpy.einsum`` call: ``matmul``
dispatches each (m, D) x (D, H) slice to the same BLAS GEMM kernel the
per-model path uses, which makes the stacked result **bit-identical**
to evaluating the members one at a time (``einsum``'s own reduction
loops sum in a different order and drift in the last ulp).  The tests
assert exact equality, not closeness.

Members are duck-typed: anything with ``space``, ``program``,
``log_target`` and ``network_weights()`` (the
:class:`~repro.core.program_model.ProgramSpecificPredictor` surface)
can be stacked.  Stacking fails softly — :meth:`maybe_from_models`
returns ``None`` for heterogeneous pools (different hidden widths,
different encoding spaces, untrained members) so callers can fall back
to the per-model loop.

The matmul path is the throughput king but has one blind spot the
serving layer cannot live with: BLAS GEMM kernels pick blocking by
batch shape, so the *same* configuration evaluated inside two
different batches can differ in the last ulp.  A prediction cache —
or any service promising "the answer for config c is the answer for
config c" — needs values that are a pure function of the row.
:meth:`predict_features_invariant` provides exactly that: a slower
forward pass built only from elementwise ufuncs — an in-order sum over
the D inputs and numpy's pairwise order over the H hidden units,
written out — whose per-row result is independent of what else shares
the batch (asserted exactly by the serving tests).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry

__all__ = ["StackedEnsemble"]

#: Exponent clip shared with the per-model path: a wild extrapolation
#: in log space must not overflow ``10 ** x``.
_LOG_CLIP = 30.0


def _pairwise_sum(terms: np.ndarray, start: int, count: int) -> np.ndarray:
    """Sum ``terms[:, start:start + count]`` over axis 1 in the order of
    numpy's ``pairwise_sum``, the inner loop of ``np.add.reduce`` over
    a contiguous axis:

    * below 8 terms, in sequence from 0.0;
    * up to 128, eight accumulators over blocks of 8, combined as
      ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
      remainder in sequence;
    * above 128, the two halves split at ``count // 2`` rounded down to
      a multiple of 8, each summed recursively.

    Each "term" here is an (N, m) slice, so one ufunc call adds m
    columns at once.  The accumulators overwrite ``terms``' own slots.
    """
    if count < 8:
        total = terms[:, start] + 0.0
        for index in range(start + 1, start + count):
            total += terms[:, index]
        return total
    if count <= 128:
        blocked = start + count - count % 8
        accumulators = terms[:, start:start + 8]
        for block in range(start + 8, blocked, 8):
            accumulators += terms[:, block:block + 8]
        pairs = accumulators[:, 0::2] + accumulators[:, 1::2]
        quads = pairs[:, 0::2] + pairs[:, 1::2]
        total = quads[:, 0] + quads[:, 1]
        for index in range(blocked, start + count):
            total += terms[:, index]
        return total
    half = count // 2
    half -= half % 8
    total = _pairwise_sum(terms, start, half)
    total += _pairwise_sum(terms, start + half, count - half)
    return total


class StackedEnsemble:
    """Batched forward pass over N stacked one-hidden-layer networks.

    Instances are immutable snapshots of their member networks' weights;
    retraining a member requires restacking.  Build through
    :meth:`from_models` / :meth:`maybe_from_models` rather than the
    constructor.

    Args:
        space: The shared design space used to encode configurations.
        programs: Member names, in stacking order.
        hidden_weights: (N, D, H) stacked hidden-layer weights.
        hidden_bias: (N, H) stacked hidden-layer biases.
        output_weights: (N, H) stacked output-layer weights.
        output_bias: (N,) stacked output-layer biases.
        x_mean: (N, D) per-member input standardisation means.
        x_scale: (N, D) per-member input standardisation scales.
        y_mean: (N,) per-member target standardisation means.
        y_scale: (N,) per-member target standardisation scales.
        log_target: (N,) bool — which members predict log10(metric).
    """

    def __init__(
        self,
        space,
        programs: Sequence[str],
        hidden_weights: np.ndarray,
        hidden_bias: np.ndarray,
        output_weights: np.ndarray,
        output_bias: np.ndarray,
        x_mean: np.ndarray,
        x_scale: np.ndarray,
        y_mean: np.ndarray,
        y_scale: np.ndarray,
        log_target: np.ndarray,
    ) -> None:
        self.space = space
        self.programs: Tuple[str, ...] = tuple(programs)
        self._hidden_weights = hidden_weights
        self._hidden_bias = hidden_bias
        self._output_weights = output_weights
        self._output_bias = output_bias
        self._x_mean = x_mean
        self._x_scale = x_scale
        self._y_mean = y_mean
        self._y_scale = y_scale
        self._log_target = log_target
        members, input_dim, hidden = hidden_weights.shape
        if len(self.programs) != members:
            raise ValueError(
                f"{len(self.programs)} program names for {members} stacked "
                "networks"
            )
        self.input_dim = input_dim
        self.hidden_neurons = hidden

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_models(cls, models: Sequence) -> "StackedEnsemble":
        """Stack trained program models into one ensemble.

        Args:
            models: Trained predictors exposing ``space``, ``program``,
                ``log_target`` and ``network_weights()``.

        Raises:
            ValueError: if the pool is empty or not stackable (mixed
                hidden widths, input dimensions or encoding spaces).
            RuntimeError: if any member network is untrained.
        """
        if not models:
            raise ValueError("at least one model is required")
        space = models[0].space
        for model in models:
            if model.space is not space:
                raise ValueError(
                    "models must share one design space instance to be "
                    "encoded once; got distinct spaces"
                )
        weights = [model.network_weights() for model in models]
        shapes = {w["hidden_weights"].shape for w in weights}
        if len(shapes) != 1:
            raise ValueError(
                f"models must share one (input, hidden) network shape to "
                f"stack; got {sorted(shapes)}"
            )
        return cls(
            space=space,
            programs=[model.program for model in models],
            hidden_weights=np.stack([w["hidden_weights"] for w in weights]),
            hidden_bias=np.stack([w["hidden_bias"] for w in weights]),
            output_weights=np.stack([w["output_weights"] for w in weights]),
            output_bias=np.array(
                [float(np.asarray(w["output_bias"])) for w in weights]
            ),
            x_mean=np.stack(
                [np.asarray(w["x_mean"], dtype=float) for w in weights]
            ),
            x_scale=np.stack(
                [np.asarray(w["x_scale"], dtype=float) for w in weights]
            ),
            y_mean=np.array(
                [float(np.asarray(w["y_mean"]).reshape(())) for w in weights]
            ),
            y_scale=np.array(
                [float(np.asarray(w["y_scale"]).reshape(())) for w in weights]
            ),
            log_target=np.array(
                [bool(model.log_target) for model in models]
            ),
        )

    @classmethod
    def maybe_from_models(cls, models: Sequence) -> Optional["StackedEnsemble"]:
        """:meth:`from_models`, returning ``None`` when stacking fails.

        The soft variant callers use to keep a per-model fallback path:
        heterogeneous or untrained pools simply decline to stack.
        """
        try:
            return cls.from_models(models)
        except (ValueError, RuntimeError, AttributeError, KeyError):
            return None

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.programs)

    def predict_features(self, features: np.ndarray) -> np.ndarray:
        """(N, m) metric predictions for pre-encoded feature vectors.

        Args:
            features: (m, D) raw (unscaled) feature matrix.

        Returns:
            Row ``i`` holds member ``i``'s predictions — exactly what
            that member's own ``predict`` would return.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} features, got {features.shape[1]}"
            )
        # (N, m, D): each member standardises the shared batch itself.
        x = (features[None, :, :] - self._x_mean[:, None, :]) / (
            self._x_scale[:, None, :]
        )
        # Stacked matmul == one BLAS GEMM per member slice, so the
        # result matches the per-model path bit for bit.
        hidden = np.tanh(
            np.matmul(x, self._hidden_weights) + self._hidden_bias[:, None, :]
        )
        scaled = (
            np.matmul(hidden, self._output_weights[:, :, None])[..., 0]
            + self._output_bias[:, None]
        )
        raw = scaled * self._y_scale[:, None] + self._y_mean[:, None]
        if not self._log_target.any():
            return raw
        if self._log_target.all():
            return np.power(10.0, np.clip(raw, -_LOG_CLIP, _LOG_CLIP))
        rows = [
            np.power(10.0, np.clip(row, -_LOG_CLIP, _LOG_CLIP))
            if is_log
            else row
            for row, is_log in zip(raw, self._log_target)
        ]
        return np.stack(rows)

    def predict_features_invariant(self, features: np.ndarray) -> np.ndarray:
        """(N, m) predictions whose rows do not depend on the batch.

        The batch-composition-invariant forward pass, all N members in
        one stacked evaluation built from elementwise ufuncs only:

        * the hidden-layer contraction over D is an explicit in-order
          sum, ``((0 + x_0 w_0) + x_1 w_1) + ... + x_{D-1} w_{D-1}``;
        * the output contraction over H is :func:`_pairwise_sum`, the
          order of numpy's own ``np.add.reduce`` over a contiguous
          H-long axis, written out.

        Neither order depends on how many other rows share the call, so
        evaluating a configuration alone, inside any batch, or twice in
        the same batch yields the same bits — the property the serving
        layer's prediction cache and request coalescing are built on.

        The temporaries are (N, H, m), so every step runs m-wide inner
        loops; elementwise steps give the same bits in any layout, and
        only the two reduction orders above fix the result.

        Slower per configuration than :meth:`predict_features` (the
        contractions do not reach BLAS); use it where determinism
        across batch shapes matters more than peak throughput.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} features, got {features.shape[1]}"
            )
        members = len(self.programs)
        # (N, D, m): each member standardises the shared batch itself.
        x = (
            np.ascontiguousarray(features.T)[None, :, :]
            - self._x_mean[:, :, None]
        ) / self._x_scale[:, :, None]
        # Temporaries stay (N, H, m); the (N, D, H, m) product would be
        # D times larger and its reduction slower than this loop.
        shape = (members, self.hidden_neurons, features.shape[0])
        pre = np.zeros(shape)
        term = np.empty(shape)
        for d in range(self.input_dim):
            np.multiply(
                x[:, d, None, :], self._hidden_weights[:, d, :, None],
                out=term,
            )
            pre += term
        pre += self._hidden_bias[:, :, None]
        weighted = np.tanh(pre, out=pre)
        weighted *= self._output_weights[:, :, None]
        # np.add.reduce starts from its identity: 0.0 + the pairwise sum.
        scaled = _pairwise_sum(weighted, 0, self.hidden_neurons)
        scaled += 0.0
        scaled += self._output_bias[:, None]
        out = scaled * self._y_scale[:, None] + self._y_mean[:, None]
        if self._log_target.any():
            rows = np.where(self._log_target)[0]
            out[rows] = np.power(
                10.0, np.clip(out[rows], -_LOG_CLIP, _LOG_CLIP)
            )
        return out

    def predict(self, configs: Sequence) -> np.ndarray:
        """(N, m) metric predictions, encoding the batch exactly once.

        Each call records one ``ensemble.batch.seconds`` observation
        and bumps ``ensemble.predictions`` by N x m — the raw
        throughput signal behind ``BENCH_throughput.json``.
        """
        start = time.perf_counter()
        result = self.predict_features(self.space.encode_many(configs))
        registry = get_registry()
        registry.histogram("ensemble.batch.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("ensemble.predictions").inc(result.size)
        return result

    def log_model_matrix(self, configs: Sequence) -> np.ndarray:
        """(m, N) log10 design matrix for the combining regressor.

        Equivalent to ``log10(stack([m.predict(configs) for m in
        models], axis=1))`` — the architecture-centric model matrix —
        but with one encode and one stacked forward pass.  The result
        is C-contiguous like the stacked original: downstream GEMV
        kernels pick their summation order from the memory layout, so
        returning a transposed view would cost the last ulp.
        """
        return np.ascontiguousarray(np.log10(self.predict(configs)).T)

    def log_model_matrix_invariant(self, configs: Sequence) -> np.ndarray:
        """(m, N) log10 design matrix via the batch-invariant forward.

        The serving-grade sibling of :meth:`log_model_matrix`: every
        row is a pure function of its configuration, so the matrix for
        any sub-batch equals the corresponding rows of the matrix for
        any super-batch, bit for bit.
        """
        start = time.perf_counter()
        predictions = self.predict_features_invariant(
            self.space.encode_many(configs)
        )
        registry = get_registry()
        registry.histogram("ensemble.batch.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("ensemble.predictions").inc(predictions.size)
        return np.ascontiguousarray(np.log10(predictions).T)
