"""Tests for deterministic fault injection."""

import numpy as np
import pytest

from repro.designspace import sample_configurations
from repro.runtime import (
    FaultInjectingBackend,
    PermanentSimulationError,
    TransientSimulationError,
    VirtualClock,
)
from repro.runtime.faults import _batch_fingerprint


def _drive(backend, profile, configs, attempts):
    """Call the backend repeatedly, recording each attempt's outcome."""
    outcomes = []
    for _ in range(attempts):
        try:
            result = backend.simulate_batch(profile, configs)
        except (TransientSimulationError, PermanentSimulationError) as error:
            outcomes.append(type(error).__name__)
        else:
            finite = bool(
                np.all(np.isfinite(result.cycles))
                and np.all(np.isfinite(result.energy))
                and np.all(np.isfinite(result.ed))
                and np.all(np.isfinite(result.edd))
            )
            outcomes.append("ok" if finite else "corrupt")
    return outcomes


class TestDeterminism:
    def test_same_seed_same_fault_schedule(self, backend, tiny_suite,
                                           tiny_configs):
        profile = tiny_suite["gzip"]
        first = _drive(
            FaultInjectingBackend(backend, seed=3, transient_rate=0.5),
            profile, tiny_configs, 20,
        )
        second = _drive(
            FaultInjectingBackend(backend, seed=3, transient_rate=0.5),
            profile, tiny_configs, 20,
        )
        assert first == second
        assert "TransientSimulationError" in first  # rate 0.5 must fire

    def test_different_seeds_differ(self, backend, tiny_suite, tiny_configs):
        profile = tiny_suite["gzip"]
        schedules = {
            tuple(_drive(
                FaultInjectingBackend(backend, seed=s, transient_rate=0.5),
                profile, tiny_configs, 20,
            ))
            for s in range(4)
        }
        assert len(schedules) > 1

    def test_fault_depends_on_attempt_number(self, backend, tiny_suite,
                                             tiny_configs):
        """Transients clear on retry: the same cell eventually succeeds."""
        faulty = FaultInjectingBackend(backend, seed=0, transient_rate=0.5)
        outcomes = _drive(faulty, tiny_suite["gzip"], tiny_configs, 20)
        assert "ok" in outcomes and "TransientSimulationError" in outcomes

    def test_successful_result_is_uncorrupted(self, backend, tiny_suite,
                                              tiny_configs):
        """Whatever faults fire, a clean attempt equals the inner truth."""
        profile = tiny_suite["applu"]
        truth = backend.simulate_batch(profile, tiny_configs)
        faulty = FaultInjectingBackend(
            backend, seed=1, transient_rate=0.3, corrupt_rate=0.3
        )
        for _ in range(30):
            try:
                result = faulty.simulate_batch(profile, tiny_configs)
            except TransientSimulationError:
                continue
            if np.all(np.isfinite(result.cycles)) and np.all(
                np.isfinite(result.energy)
            ) and np.all(np.isfinite(result.ed)) and np.all(
                np.isfinite(result.edd)
            ):
                assert np.array_equal(result.cycles, truth.cycles)
                assert np.array_equal(result.edd, truth.edd)
                return
        pytest.fail("no clean attempt in 30 tries at 30% rates")


class TestFaultKinds:
    def test_zero_rates_are_transparent(self, backend, tiny_suite,
                                        tiny_configs):
        faulty = FaultInjectingBackend(backend, seed=0)
        profile = tiny_suite["gzip"]
        truth = backend.simulate_batch(profile, tiny_configs)
        result = faulty.simulate_batch(profile, tiny_configs)
        assert np.array_equal(result.cycles, truth.cycles)
        assert faulty.calls == 1
        assert faulty.injected_transients == 0

    def test_corruption_injects_nan_or_inf(self, backend, tiny_suite,
                                           tiny_configs):
        faulty = FaultInjectingBackend(backend, seed=2, corrupt_rate=1.0)
        result = faulty.simulate_batch(tiny_suite["gzip"], tiny_configs)
        arrays = np.concatenate(
            [result.cycles, result.energy, result.ed, result.edd]
        )
        assert np.any(~np.isfinite(arrays))
        assert faulty.injected_corruptions == 1

    def test_permanent_failure_persists_across_attempts(self, backend,
                                                        tiny_suite,
                                                        tiny_configs):
        faulty = FaultInjectingBackend(backend, seed=0, permanent_rate=1.0)
        for _ in range(5):
            with pytest.raises(PermanentSimulationError):
                faulty.simulate_batch(tiny_suite["gzip"], tiny_configs)

    def test_stall_advances_the_clock(self, backend, tiny_suite,
                                      tiny_configs):
        clock = VirtualClock()
        faulty = FaultInjectingBackend(
            backend, seed=0, stall_rate=1.0, stall_seconds=45.0,
            sleep=clock.sleep,
        )
        faulty.simulate_batch(tiny_suite["gzip"], tiny_configs)
        assert clock.now == pytest.approx(45.0)
        assert faulty.injected_stalls == 1

    def test_invalid_rate_rejected(self, backend):
        with pytest.raises(ValueError, match="transient_rate"):
            FaultInjectingBackend(backend, transient_rate=1.5)

    def test_reset_clears_counters(self, backend, tiny_suite, tiny_configs):
        faulty = FaultInjectingBackend(backend, seed=0, transient_rate=1.0)
        with pytest.raises(TransientSimulationError):
            faulty.simulate_batch(tiny_suite["gzip"], tiny_configs)
        faulty.reset()
        assert faulty.calls == 0 and faulty.injected_transients == 0


class TestVirtualClock:
    def test_sleep_advances(self):
        clock = VirtualClock()
        clock.sleep(2.5)
        clock.sleep(1.5)
        assert clock() == pytest.approx(4.0)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().sleep(-1.0)


class TestFingerprintPin:
    """The cell fingerprint seeds every fault decision, so a recorded
    fault schedule replays only while it stays put.  Recorded when
    ``Configuration`` was a frozen dataclass."""

    def test_fingerprint_does_not_move(self, spec_suite, space):
        configs = sample_configurations(space, 8, seed=3)
        assert _batch_fingerprint(spec_suite["gzip"], configs) == (
            "fd5f484549053d2dff7d1c7688f2435135567cb5b16068d65c2d267a8334eb65"
        )
