"""The (N, H, m) invariant forward pass against the (N, m, H) pass it
replaced.

``StackedEnsemble.predict_features_invariant`` used to keep its
temporaries (N, m, H) and sum the H hidden units with a last-axis
``np.add.reduce``.  It now keeps them (N, H, m) and writes numpy's
pairwise order out over axis 1.  The old pass stays here, verbatim, as
the oracle: every bit must agree, for hidden widths that reach every
branch of the pairwise order (below 8, 8 to 128 with and without a
remainder, and the recursive split above 128) and for batch sizes on
both sides of numpy's 8-wide and 64-wide loop blocks.
"""

import numpy as np
import pytest

from repro.designspace import DesignSpace
from repro.ml import StackedEnsemble
from repro.ml.ensemble import _pairwise_sum

HIDDEN = (1, 3, 7, 8, 9, 10, 16, 17, 129, 257)
ROWS = (1, 2, 63, 64, 65, 512, 4096)
MEMBERS = 5


def reference_invariant(ensemble, features):
    """The (N, m, H) pass, as it stood before the layout change."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    members = len(ensemble.programs)
    x = (features[None, :, :] - ensemble._x_mean[:, None, :]) / (
        ensemble._x_scale[:, None, :]
    )
    shape = (members, features.shape[0], ensemble.hidden_neurons)
    pre = np.zeros(shape)
    term = np.empty(shape)
    for d in range(ensemble.input_dim):
        np.multiply(
            x[:, :, d, None], ensemble._hidden_weights[:, None, d, :],
            out=term,
        )
        pre += term
    pre += ensemble._hidden_bias[:, None, :]
    weighted = np.tanh(pre, out=pre)
    weighted *= ensemble._output_weights[:, None, :]
    scaled = np.add.reduce(weighted, axis=2) + ensemble._output_bias[:, None]
    out = scaled * ensemble._y_scale[:, None] + ensemble._y_mean[:, None]
    if ensemble._log_target.any():
        rows = np.where(ensemble._log_target)[0]
        out[rows] = np.power(10.0, np.clip(out[rows], -30.0, 30.0))
    return out


def random_ensemble(hidden, seed, members=MEMBERS):
    """A stacked ensemble of seeded random weights; members alternate
    between log10 and raw targets."""
    rng = np.random.default_rng(seed)
    dim = 13
    return StackedEnsemble(
        space=DesignSpace(),
        programs=[f"p{n}" for n in range(members)],
        hidden_weights=rng.normal(0.0, 0.6, (members, dim, hidden)),
        hidden_bias=rng.normal(0.0, 0.3, (members, hidden)),
        output_weights=rng.normal(0.0, 0.5, (members, hidden)),
        output_bias=rng.normal(0.0, 0.1, members),
        x_mean=rng.uniform(1.0, 60.0, (members, dim)),
        x_scale=rng.uniform(1.0, 40.0, (members, dim)),
        y_mean=rng.normal(5.0, 1.0, members),
        y_scale=rng.uniform(0.2, 1.5, members),
        log_target=np.arange(members) % 2 == 0,
    )


def random_features(rows, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 160.0, (rows, 13))


@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.parametrize("rows", ROWS)
def test_layout_matches_the_replaced_pass_bit_for_bit(hidden, rows):
    ensemble = random_ensemble(hidden, seed=1000 + hidden)
    features = random_features(rows, seed=rows * 7 + hidden)
    assert np.array_equal(
        ensemble.predict_features_invariant(features),
        reference_invariant(ensemble, features),
    )


@pytest.mark.parametrize("hidden", (1, 8, 9, 129))
def test_batch_mates_do_not_move_a_row(hidden):
    ensemble = random_ensemble(hidden, seed=hidden)
    features = random_features(65, seed=5)
    full = ensemble.predict_features_invariant(features)
    for index in (0, 31, 64):
        alone = ensemble.predict_features_invariant(features[index:index + 1])
        assert np.array_equal(alone[:, 0], full[:, index])


@pytest.mark.parametrize("count", (1, 5, 8, 13, 16, 24, 128, 129, 136, 300))
def test_pairwise_sum_matches_add_reduce(count):
    rng = np.random.default_rng(count)
    values = rng.normal(0.0, 1.0, (3, count, 11)) * 10.0 ** rng.integers(
        -8, 8, (3, count, 11)
    )
    expected = np.add.reduce(np.moveaxis(values, 1, 2).copy(), axis=2)
    total = _pairwise_sum(values.copy(), 0, count)
    total += 0.0
    assert np.array_equal(total, expected)


def test_signed_zero_sums_like_add_reduce():
    values = np.full((2, 10, 3), -0.0)
    total = _pairwise_sum(values.copy(), 0, 10)
    total += 0.0
    expected = np.add.reduce(np.moveaxis(values, 1, 2).copy(), axis=2)
    assert np.array_equal(np.signbit(total), np.signbit(expected))


def test_empty_batch():
    ensemble = random_ensemble(10, seed=0)
    assert ensemble.predict_features_invariant(
        np.empty((0, 13))
    ).shape == (MEMBERS, 0)
