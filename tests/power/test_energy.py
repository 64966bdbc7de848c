"""Unit tests for phase-tagged energy accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.energy import ACCUMULATE_FROM, EnergyAccount, PhaseTag, repeat_add


class TestPhaseTag:
    def test_resilience_classification(self):
        assert PhaseTag.CHECKPOINT.is_resilience
        assert PhaseTag.RESTORE.is_resilience
        assert PhaseTag.RECONSTRUCT.is_resilience
        assert PhaseTag.EXTRA.is_resilience
        assert PhaseTag.REDUNDANT.is_resilience
        assert not PhaseTag.SOLVE.is_resilience
        assert not PhaseTag.OVERHEAD.is_resilience


class TestEnergyAccount:
    def test_charge_returns_joules(self):
        acc = EnergyAccount()
        assert acc.charge(PhaseTag.SOLVE, time_s=2.0, power_w=50.0) == pytest.approx(100.0)

    def test_totals(self):
        acc = EnergyAccount()
        acc.charge(PhaseTag.SOLVE, time_s=2.0, power_w=50.0)
        acc.charge(PhaseTag.CHECKPOINT, time_s=1.0, power_w=30.0)
        assert acc.total_time_s == pytest.approx(3.0)
        assert acc.total_energy_j == pytest.approx(130.0)

    def test_accumulation_per_tag(self):
        acc = EnergyAccount()
        acc.charge(PhaseTag.SOLVE, time_s=1.0, power_w=10.0)
        acc.charge(PhaseTag.SOLVE, time_s=1.0, power_w=20.0)
        assert acc.time(PhaseTag.SOLVE) == pytest.approx(2.0)
        assert acc.energy(PhaseTag.SOLVE) == pytest.approx(30.0)

    def test_resilience_split(self):
        acc = EnergyAccount()
        acc.charge(PhaseTag.SOLVE, time_s=10.0, power_w=100.0)
        acc.charge(PhaseTag.OVERHEAD, time_s=2.0, power_w=100.0)
        acc.charge(PhaseTag.RECONSTRUCT, time_s=1.0, power_w=50.0)
        acc.charge(PhaseTag.EXTRA, time_s=3.0, power_w=100.0)
        assert acc.solve_time_s == pytest.approx(12.0)
        assert acc.resilience_time_s == pytest.approx(4.0)
        assert acc.solve_energy_j == pytest.approx(1200.0)
        assert acc.resilience_energy_j == pytest.approx(350.0)

    def test_overlapped_energy_has_no_time(self):
        acc = EnergyAccount()
        acc.charge_energy(PhaseTag.REDUNDANT, 500.0)
        assert acc.total_time_s == 0.0
        assert acc.total_energy_j == pytest.approx(500.0)
        assert acc.resilience_energy_j == pytest.approx(500.0)

    def test_average_power(self):
        acc = EnergyAccount()
        acc.charge(PhaseTag.SOLVE, time_s=2.0, power_w=100.0)
        acc.charge(PhaseTag.CHECKPOINT, time_s=2.0, power_w=50.0)
        assert acc.average_power_w == pytest.approx(75.0)

    def test_average_power_empty(self):
        assert EnergyAccount().average_power_w == 0.0

    def test_resilience_ratio(self):
        acc = EnergyAccount()
        acc.charge(PhaseTag.SOLVE, time_s=1.0, power_w=100.0)
        acc.charge(PhaseTag.RECONSTRUCT, time_s=1.0, power_w=50.0)
        assert acc.resilience_ratio() == pytest.approx(0.5)

    def test_resilience_ratio_no_solve(self):
        assert EnergyAccount().resilience_ratio() == 0.0

    def test_merged_with(self):
        a, b = EnergyAccount(), EnergyAccount()
        a.charge(PhaseTag.SOLVE, time_s=1.0, power_w=10.0)
        b.charge(PhaseTag.SOLVE, time_s=1.0, power_w=10.0)
        b.charge(PhaseTag.EXTRA, time_s=1.0, power_w=5.0)
        m = a.merged_with(b)
        assert m.time(PhaseTag.SOLVE) == pytest.approx(2.0)
        assert m.energy(PhaseTag.EXTRA) == pytest.approx(5.0)
        # originals untouched
        assert a.time(PhaseTag.SOLVE) == pytest.approx(1.0)

    def test_rejects_negative(self):
        acc = EnergyAccount()
        with pytest.raises(ValueError):
            acc.charge(PhaseTag.SOLVE, time_s=-1.0, power_w=1.0)
        with pytest.raises(ValueError):
            acc.charge(PhaseTag.SOLVE, time_s=1.0, power_w=-1.0)
        with pytest.raises(ValueError):
            acc.charge_energy(PhaseTag.SOLVE, -1.0)


def _looped(base, inc, n):
    for _ in range(n):
        base += inc
    return base


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and zeros
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0]),
)


class TestRepeatAdd:
    """``repeat_add`` is ``n`` repetitions of ``base += inc`` bit for bit,
    on either side of the span length where it switches to C."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=300, deadline=None)
    @given(
        base=_floats,
        inc=_floats,
        n=st.one_of(
            st.integers(0, 2 * ACCUMULATE_FROM),
            st.integers(ACCUMULATE_FROM - 2, ACCUMULATE_FROM + 2),
            st.integers(0, 1500),
        ),
        scalar_type=st.sampled_from([float, np.float64]),
    )
    def test_is_the_loop_bit_for_bit(self, base, inc, n, scalar_type):
        inc = scalar_type(inc)  # callers pass numpy scalars too
        got, want = repeat_add(base, inc, n), _looped(base, inc, n)
        assert type(got) is type(want)
        assert float(got).hex() == float(want).hex()
