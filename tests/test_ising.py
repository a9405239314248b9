import math
import tracemalloc

import numpy as np
import pytest

from spinbattery import (
    IsingParams,
    asymptotic_energy,
    energy_at_times,
    energy_trace,
    ising_energy_at_times,
    resolution_bound,
)
from spinbattery import quench
from spinbattery.ed import TransverseIsing, build_hamiltonian, oracle_energy_trace
from spinbattery.ising import ising_resolution_bound
from spinbattery.xy import MAX_PARAMETER, _chain_modes

# Frozen 50-digit evaluations of the closed-form dispersion and angle pair.
FROZEN_EPS = 0.2000548234962534756  # h=0.8, N=600, q=1/2
FROZEN_SIN2T = 0.06273646219296270348  # h=0.75, N=600, q=3/2
FROZEN_COS2T = -0.99803012795782420775


def _dispersion(h, n_sites):
    """The closed-form dispersion at field h >= 0 over the full zone (row j is q = j + 1/2).

    Written as sqrt((1 - h)^2 + 4 h sin^2(k/2)), which has no cancellation
    for h >= 0; the textbook 1 + h^2 - 2 h cos k cancels near h = 1, k = 0.
    """
    k = 2.0 * np.pi * (np.arange(n_sites) + 0.5) / n_sites
    return np.sqrt((1.0 - h) ** 2 + 4.0 * h * np.sin(k / 2) ** 2)


def _ulps(actual, reference):
    """Largest |actual - reference| in units in the last place of the reference."""
    return float(np.max(np.abs(actual - reference) / np.spacing(np.abs(reference))))


def _bogoliubov_pair(h, n_sites, q):
    """Reference (sin 2theta, cos 2theta) = (sin k, h - cos k) / eps_q.

    The hypot form keeps the pair normalized even where the quadratic form
    1 + h^2 - 2 h cos k cancels.
    """
    k = 2 * math.pi * q / n_sites
    s, c = math.sin(k), h - math.cos(k)
    eps = math.hypot(s, c)
    return s / eps, c / eps


class TestIsingParams:
    def test_valid(self):
        IsingParams(0.8, 0.7, 600)

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_rejects_small_chains(self, n):
        with pytest.raises(ValueError):
            IsingParams(0.8, 0.7, n)

    def test_rejects_chains_above_the_size_cap(self):
        IsingParams(0.8, 0.7, 10**6)
        with pytest.raises(ValueError, match="n_sites must be at most 1000000"):
            IsingParams(0.8, 0.7, 10**6 + 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["h0", "h1"])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"h0": 0.8, "h1": 0.7, "n_sites": 20, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            IsingParams(**kwargs)


class TestDispersion:
    def test_zero_field_is_flat(self):
        assert np.max(np.abs(_dispersion(0.0, 4) - 1.0)) <= 1e-15

    def test_critical_field_identity(self):
        k = 2 * np.pi * (np.arange(6) + 0.5) / 6
        assert np.max(np.abs(_dispersion(1.0, 6) - 2 * np.abs(np.sin(k / 2)))) <= 1e-14

    def test_derived_value(self):
        assert _dispersion(0.8, 600)[0] == pytest.approx(FROZEN_EPS, abs=1e-14)

    @pytest.mark.parametrize("n_sites", [2, 3, 7, 600])
    def test_engine_runs_the_half_zone(self, n_sites):
        # the charging dispersion of the modes q = 1/2, ..., N/2 - 1/2, to 2 ulp
        omega = IsingParams(0.8, 0.7, n_sites).chain_modes()[1] / 2
        assert omega.size == n_sites // 2
        assert _ulps(omega, _dispersion(1.5, n_sites)[: n_sites // 2]) <= 2.0

    @pytest.mark.parametrize("n_sites", [600, 601, 10**5])
    @pytest.mark.parametrize(
        "h1",
        [0.4, np.nextafter(0.4, 0.0), np.nextafter(0.4, 1.0), 0.4 + 1e-9],
        ids=["critical", "below", "above", "above_1e-9"],
    )
    def test_critical_charger_keeps_its_precision(self, h1, n_sites):
        # h0 + h1 at and just either side of 1, where the textbook form
        # 1 + h^2 - 2 h cos k cancels at small k
        omega = IsingParams(0.6, h1, n_sites).chain_modes()[1] / 2
        assert _ulps(omega, _dispersion(0.6 + h1, n_sites)[: n_sites // 2]) <= 2.0


class TestBogoliubovAngle:
    # the reference pair that the per-mode amplitude checks rely on
    def test_zero_field(self):
        for q in (0.5, 1.5, 2.5):
            k = 2 * math.pi * q / 4
            s, c = _bogoliubov_pair(0.0, 4, q)
            assert s == pytest.approx(math.sin(k), abs=1e-14)
            assert c == pytest.approx(-math.cos(k), abs=1e-14)

    def test_zone_edge(self):
        # q = N/2 is representable for odd N and puts k exactly at pi: the
        # pair is (0, 1), so the quench leaves the mode alone, and the
        # engine's half zone (N // 2 modes, k < pi) leaves it out
        s, c = _bogoliubov_pair(0.75, 5, 2.5)
        assert s == pytest.approx(0.0, abs=1e-15)
        assert c == pytest.approx(1.0, abs=1e-15)
        amp, freq = IsingParams(0.75, 0.5, 5).chain_modes()
        omega = freq / 2
        assert omega.size == amp.size == 2
        assert _ulps(omega, _dispersion(1.25, 5)[:2]) <= 2.0

    def test_derived_pair(self):
        s, c = _bogoliubov_pair(0.75, 600, 1.5)
        assert s == pytest.approx(FROZEN_SIN2T, abs=1e-14)
        assert c == pytest.approx(FROZEN_COS2T, abs=1e-14)

    def test_normalization(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            q = int(rng.integers(0, n)) + 0.5
            h = float(rng.uniform(-2.0, 2.0))
            s, c = _bogoliubov_pair(h, n, q)
            assert s * s + c * c == pytest.approx(1.0, abs=1e-14)


class TestEnergyStored:
    def test_null_quench(self):
        p = IsingParams(0.8, 0.0, 12)
        for t in (0.0, 3.0, 50.0):
            assert ising_energy_at_times(p, np.array([t]))[0] == 0.0
        # a uniform grid runs in phase blocks, this one in blocks of one
        for times in (0.05 * np.arange(1000), [3.0, 1.0, 70.5]):
            assert np.all(ising_energy_at_times(p, times) == 0.0)

    def test_zero_at_t0(self):
        params = IsingParams(0.8, 0.7, 600)
        assert ising_energy_at_times(params, np.array([0.0]))[0] == 0.0
        assert ising_energy_at_times(params, 0.05 * np.arange(5000))[0] == 0.0

    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_matches_oracle(self, n_sites):
        params = IsingParams(0.8, 0.7, n_sites)
        times = np.linspace(0.0, 20.0, 81)
        engine = ising_energy_at_times(params, times)
        battery = build_hamiltonian(TransverseIsing(0.8), n_sites)
        charger = build_hamiltonian(TransverseIsing(1.5), n_sites)
        oracle = oracle_energy_trace(battery, charger, times)
        assert np.max(np.abs(engine - oracle.values)) <= 1e-8

    def test_beta_amplitude_equals_closed_form_per_mode(self):
        # |beta(t)|^2 from the angle pairs, times the battery dispersion and
        # the weight 2 of a mirror pair, must reproduce each half-zone mode's
        # closed-form contribution
        params = IsingParams(0.8, 0.7, 10)
        amp, freq = params.chain_modes()
        omega = freq / 2
        eps = _dispersion(params.h0, params.n_sites)
        for j in range(5):
            q = j + 0.5
            si, ci = _bogoliubov_pair(params.h0, params.n_sites, q)
            sf, cf = _bogoliubov_pair(params.h0 + params.h1, params.n_sites, q)
            sin2diff = si * cf - ci * sf
            for t in (0.3, 1.7, 9.2):
                beta2 = math.sin(omega[j] * t) ** 2 * sin2diff**2
                closed = amp[j] * (1 - math.cos(2 * omega[j] * t))
                assert 2 * eps[j] * beta2 == pytest.approx(closed, abs=1e-12)

    def test_reflection_symmetry_half_zone(self):
        # contributions at q and N - q coincide, so twice the half zone
        # rebuilds the full sum
        params = IsingParams(0.8, 0.7, 12)
        t = 4.2

        eps, om = _dispersion(0.8, 12), _dispersion(1.5, 12)

        def contrib(j):
            k = 2 * math.pi * (j + 0.5) / 12
            amp = 0.7**2 * math.sin(k) ** 2 / (2 * eps[j] * om[j] ** 2)
            return amp * (1 - math.cos(2 * om[j] * t))

        full = sum(contrib(j) for j in range(12))
        half_doubled = 2.0 * sum(contrib(j) for j in range(6))
        assert half_doubled == pytest.approx(full, abs=1e-12)
        assert ising_energy_at_times(params, np.array([t]))[0] == pytest.approx(full, abs=1e-12)

    def test_exact_upper_bound(self):
        params = IsingParams(0.8, 0.7, 30)
        bound = 2.0 * asymptotic_energy(params)
        rng = np.random.default_rng(32)
        de = ising_energy_at_times(params, rng.uniform(0.0, 200.0, size=20))
        assert np.all((0.0 <= de) & (de <= bound + 1e-12))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ising_energy_at_times(IsingParams(0.8, 0.7, 6), np.array([-1.0]))


class TestZoneEdgeMode:
    # odd N has the mode k = pi, where sin k = 0: the quench leaves it alone,
    # and its dispersion vanishes at h0 = -1 (battery) or h0 + h1 = -1
    # (charger); the engine's half zone stops below it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "n_sites,h0,h1", [(5, -1.5, 0.5), (7, -1.5, 0.5), (5, -1.0, 0.4), (7, -1.0, -0.3)]
    )
    def test_matches_oracle(self, n_sites, h0, h1):
        times = np.linspace(0.0, 20.0, 201)
        engine = ising_energy_at_times(IsingParams(h0, h1, n_sites), times)
        battery = build_hamiltonian(TransverseIsing(h0), n_sites)
        charger = build_hamiltonian(TransverseIsing(h0 + h1), n_sites)
        oracle = oracle_energy_trace(battery, charger, times)
        assert np.max(np.abs(engine - oracle.values)) <= 1e-12

    @pytest.mark.parametrize("n_sites", [7, 8])
    def test_other_modes_keep_the_closed_form(self, n_sites):
        h0, h1 = 0.8, 0.7
        k = 2.0 * np.pi * (np.arange(n_sites) + 0.5) / n_sites
        eps, omega = _dispersion(h0, n_sites), _dispersion(h0 + h1, n_sites)
        amp = h1**2 * np.sin(k) ** 2 / (2.0 * eps * omega**2)
        # a mirror pair q, N - q enters once, at twice the amplitude of q < N/2;
        # the engine rounds a b' - a' b = h1 / 2 and both norms, a few ulp
        engine = IsingParams(h0, h1, n_sites).chain_modes()[0]
        assert engine.size == n_sites // 2
        assert _ulps(engine, 2.0 * amp[: n_sites // 2]) <= 8.0


class TestAsymptotic:
    def test_null_quench(self):
        assert asymptotic_energy(IsingParams(0.8, 0.0, 20)) == 0.0

    def test_equals_windowed_time_average(self):
        params = IsingParams(0.8, 0.7, 600)
        dt = 0.5 * ising_resolution_bound(params)
        times = 50.0 + dt * np.arange(int(200.0 / dt) + 1)
        mean = float(np.mean(ising_energy_at_times(params, times)))
        e_inf = asymptotic_energy(params)
        assert abs(e_inf - mean) <= 0.005 * abs(mean)

    def test_critical_enhancement(self):
        # E_inf/N is maximal where the charging chain is critical (h0+h1=1)
        grid = np.round(np.arange(0.5, 0.9001, 0.01), 10)
        vals = {h0: asymptotic_energy(IsingParams(float(h0), 0.25, 600)) for h0 in grid}
        peak = vals[0.75]
        for h0, v in vals.items():
            if abs(h0 - 0.75) >= 0.05:
                assert peak > v


class TestTrace:
    def test_matches_pointwise(self):
        # a trace runs in phase blocks, a single time in a block of one, so
        # they agree to rounding, not bit for bit
        params = IsingParams(0.8, 0.7, 8)
        trace = energy_trace(params, 12.0, 0.05)
        pointwise = np.array([ising_energy_at_times(params, [t])[0] for t in trace.times])
        tol = 1e-12 * max(1.0, asymptotic_energy(params))
        assert np.max(np.abs(trace.values - pointwise)) <= tol

    @pytest.mark.parametrize("budget", [142, 142 * 7, 142 * 333, 142 * 1000])
    def test_mode_tiles_agree(self, monkeypatch, budget):
        # 5000 uniform times make 71 blocks of 71, so the temporaries take
        # 5 x 71 floats per mode: tiles of 1, 2 and 133 of the 300 modes, and
        # all of them at 142000 floats (the default takes them all too)
        params = IsingParams(0.8, 0.7, 600)
        times = 0.05 * np.arange(5000)
        default = ising_energy_at_times(params, times)
        monkeypatch.setattr(quench, "_TILE_ELEMENTS", budget)
        tiled = ising_energy_at_times(params, times)
        tol = 1e-12 * max(1.0, asymptotic_energy(params))
        assert np.max(np.abs(tiled - default)) <= tol

    def test_rejects_coarse_dt(self):
        params = IsingParams(0.8, 0.7, 8)
        with pytest.raises(ValueError, match="need dt <="):
            energy_trace(params, 10.0, 2.0 * ising_resolution_bound(params))

    def test_reference_trace_three_regimes(self):
        # N = 600 at h0=0.8, h1=0.7: early first maximum, flat plateau at the
        # asymptotic value, recurrence inside [280, 350]
        from spinbattery.regimes import DT_SAFETY, analyze_trace, ising_recurrence_window

        params = IsingParams(0.8, 0.7, 600)
        window = ising_recurrence_window(600)
        dt = DT_SAFETY * ising_resolution_bound(params)
        trace = energy_trace(params, window[1], dt)
        e_inf = asymptotic_energy(params)
        report = analyze_trace(trace, e_inf, window)
        assert 0.0 < report.tau_s <= 50.0
        assert 280.0 <= report.tau_r <= 350.0
        assert report.e_inf < report.e_r <= report.e_s
        mask = (trace.times >= 50.0) & (trace.times <= 250.0)
        plateau = trace.values[mask]
        assert float(np.std(plateau) / np.mean(plateau)) < 0.02


def _written_out_chain_modes(params):
    """The half-zone tables written out: x = pi (q + 1/2) / N over the N // 2
    modes, w = 2 |d'|, amp = 2 |d| sin^2 dphi and freq = 2 w."""
    n = params.n_sites
    x = np.pi * (np.arange(n // 2) + 0.5) / n
    battery = ((1.0 - params.h0) / 2, (1.0 + params.h0) / 2)
    hf = params.h0 + params.h1
    charger = ((1.0 - hf) / 2, (1.0 + hf) / 2)
    norm, norm_p, sin2_dphi = _chain_modes(*battery, *charger, params.h1 / 2, x)
    omega = 2.0 * norm_p
    return 2.0 * norm * sin2_dphi, 2.0 * omega


class TestChainModes:
    # the supplier's tables are the written-out formula bit for bit
    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 9, 101, 600, 601])
    @pytest.mark.parametrize(
        "h0, h1",
        [
            (0.8, 0.7),
            (1.0, 0.5),
            (-1.0, 0.4),
            (0.6, 0.4),
            (-1.5, 0.5),
            (0.25, -1.25),
            (0.8, 0.0),
            (1.0, 0.0),
            (MAX_PARAMETER, -MAX_PARAMETER),
            (-MAX_PARAMETER, 0.25),
            (0.25, MAX_PARAMETER),
            (MAX_PARAMETER, MAX_PARAMETER),
        ],
        ids=["generic", "critical_battery", "critical_battery_minus", "critical_charger",
             "critical_charger_minus", "critical_charger_crossing", "null_quench",
             "critical_null_quench", "max_to_zero", "max_battery", "max_quench", "max_both"],
    )
    def test_equal_the_written_out_formula(self, h0, h1, n_sites):
        params = IsingParams(h0, h1, n_sites)
        amp, freq = params.chain_modes()
        expected_amp, expected_freq = _written_out_chain_modes(params)
        assert np.array_equal(amp, expected_amp)
        assert np.array_equal(freq, expected_freq)


class TestSharedOperations:
    # the four engine operations take either parameter class, and the two
    # ising_* names are the same operations, bit for bit
    @pytest.mark.parametrize(
        "params",
        [IsingParams(0.8, 0.7, 600), IsingParams(-0.5, -0.5, 61), IsingParams(0.3, 0.0, 20),
         IsingParams(0.25, 0.75, 7)],
        ids=repr,
    )
    def test_they_equal_the_ising_names(self, params):
        times = np.concatenate([0.05 * np.arange(2000), [123.456, 7.0]])
        assert energy_at_times(params, times).tobytes() == ising_energy_at_times(
            params, times
        ).tobytes()
        assert resolution_bound(params).hex() == ising_resolution_bound(params).hex()

    def test_both_evaluator_names_take_ising_parameters(self):
        params, times = IsingParams(0.8, 0.7, 40), 0.1 * np.arange(300)
        full = energy_at_times(params, times, evaluator="full")
        assert energy_at_times(params, times, "simplified").tobytes() == full.tobytes()


def _direct(params, times):
    """The closed form mode by mode, exactly rounded over modes (math.fsum)."""
    amp, freq = params.chain_modes()
    omega = freq / 2
    return np.array([math.fsum(amp * (1.0 - np.cos(2.0 * omega * t))) for t in times])


def _tolerance(params, times):
    # the kernel and the direct sum round the phases 2 w t differently, by
    # about eps 2 w t: 1e-12 relative up to t = 10^3, growing linearly past it
    t_max = float(np.max(times, initial=0.0))
    return 1e-12 * max(1.0, asymptotic_energy(params)) * max(1.0, t_max / 1e3)


class TestPhaseBlockKernel:
    # the phase-block kernel against the direct mode sum; 64 = 8^2 uniform
    # times fill 8 blocks of 8, one more opens a 9th block and B = 9
    @pytest.mark.parametrize("length", [1, 2, 3, 63, 64, 65, 10**4])
    @pytest.mark.parametrize("start", [0.0, 280.0, 1e4])
    def test_uniform_grids_match_the_direct_sum(self, length, start):
        params = IsingParams(0.8, 0.7, 60)
        times = start + 0.05 * np.arange(length)
        if length > 1:
            assert quench._phase_block(times)[0] == math.ceil(math.sqrt(length))
        values = ising_energy_at_times(params, times)
        assert np.max(np.abs(values - _direct(params, times))) <= _tolerance(params, times)

    def test_jittered_grid_takes_blocks_of_one(self):
        params = IsingParams(0.8, 0.7, 60)
        times = 0.05 * np.arange(200) + np.random.default_rng(7).uniform(0.0, 1e-6, 200)
        assert quench._phase_block(times) == (1, 0.0)
        values = ising_energy_at_times(params, times)
        assert np.max(np.abs(values - _direct(params, times))) <= _tolerance(params, times)

    def test_grid_within_a_few_ulp_is_uniform(self):
        # the trace and sweep grids are t0 + dt * arange(T), off by rounding
        times = 280.0 + (np.pi / 88) * np.arange(1000)
        assert quench._phase_block(times) == (32, (times[-1] - times[0]) / 999)

    @pytest.mark.parametrize("h0", [0.75, -1.5, -1.0])
    def test_odd_ring(self, h0):
        # N = 7 has the uncoupled mode k = pi, left out of the half zone; its
        # battery or charging dispersion vanishes at h0 = -1 or h0 + h1 = -1
        params = IsingParams(h0, 0.5, 7)
        assert params.chain_modes()[0].size == 3
        times = 280.0 + 0.01 * np.arange(3000)
        values = ising_energy_at_times(params, times)
        assert np.max(np.abs(values - _direct(params, times))) <= _tolerance(params, times)

    def test_memory_stays_at_the_block_budget(self):
        # 200,000 modes (400,000 sites) x 1000 times: the kernel's
        # temporaries hold at most _TILE_ELEMENTS floats together (2 MB), far
        # under the 1.6 GB of a direct cosine per mode-sample
        amp, freq = IsingParams(0.8, 0.7, 400_000).chain_modes()
        times = 0.05 * np.arange(1000)
        tracemalloc.start()
        try:
            quench._phase_block_sum(times, amp, freq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * quench._TILE_ELEMENTS + 4 * 10**6


def _full_zone(params):
    """(omega, amp) of the closed form over the full zone q = 1/2, ..., N - 1/2.

    The mode k = pi of an odd ring (q = N/2), where sin k = 0 and the quench
    couples nothing, is left out.
    """
    n, hf = params.n_sites, params.h0 + params.h1
    q = np.arange(n) + 0.5
    k = 2.0 * np.pi * q[q != n / 2] / n
    eps = np.sqrt(1.0 + params.h0**2 - 2.0 * params.h0 * np.cos(k))
    omega = np.sqrt(1.0 + hf**2 - 2.0 * hf * np.cos(k))
    return omega, params.h1**2 * np.sin(k) ** 2 / (2.0 * eps * omega**2)


def _random_protocols(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h0, h1 = rng.uniform(-2.0, 2.0, size=2)
        yield float(h0), float(h1), int(rng.integers(2, 120))


class TestHalfZone:
    # the engine sums each mirror pair once; the full-zone sum, exactly
    # rounded, counts both modes of every pair
    @pytest.mark.parametrize(
        "h0, h1, n_sites",
        [
            (0.8, 0.7, 2),
            (0.8, 0.7, 3),
            (-1.0, 0.4, 3),
            (-1.5, 0.5, 2),
            (-1.0, 0.4, 7),
            (-1.5, 0.5, 9),
            (0.75, 0.5, 601),
            *_random_protocols(20, 41),
        ],
    )
    def test_matches_the_full_zone_sum(self, h0, h1, n_sites):
        params = IsingParams(h0, h1, n_sites)
        omega, amp = _full_zone(params)
        e_inf = asymptotic_energy(params)
        assert abs(e_inf - math.fsum(amp)) <= _tolerance(params, [0.0])
        for times in (0.05 * np.arange(400), 900.0 + 0.05 * np.arange(400)):
            full = [math.fsum(amp * (1.0 - np.cos(2.0 * omega * t))) for t in times]
            values = ising_energy_at_times(params, times)
            assert np.max(np.abs(values - full)) <= _tolerance(params, times)
