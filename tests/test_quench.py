import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from spinbattery import (
    QuenchProtocol,
    asymptotic_energy,
    dispersion_curves,
    energy_at_times,
    energy_trace,
    occupations_all,
    resolution_bound,
)
from spinbattery import cli, ising, quench, regimes, sums
from spinbattery.ed import DimerizedXY, build_hamiltonian, oracle_energy_trace
from spinbattery.ising import IsingParams, ising_energy_at_times
from spinbattery.quench import EQUAL_FREQ_TOL

from bloch_reference import bloch_stack, eigensystem_stack, four_column_tables
from test_sums import _neumaier

FIG2 = QuenchProtocol(1.25, 0.3, 0.6, 300)
FIG3 = QuenchProtocol(1.1, 0.2, 0.8, 300)

# Frozen from a 50-digit mpmath eigendecomposition of the two Bloch matrices
# at gamma=1.25, delta0=0.3, delta1=0.6, n_dimers=4, q=1/2 (moduli squared
# are gauge free).
FROZEN_M_ABS2 = np.array(
    [
        [9.9960018568867492e-01, 0.0, 3.99814311325080185e-04, 0.0],
        [0.0, 4.25458118842259288e-01, 0.0, 5.74541881157740712e-01],
        [3.99814311325080185e-04, 0.0, 9.9960018568867492e-01, 0.0],
        [0.0, 5.74541881157740712e-01, 0.0, 4.25458118842259288e-01],
    ]
)


def _forbid(monkeypatch, module, name):
    """Make the table builder ``module.name`` fail the test if it is called."""

    def build(*args):
        pytest.fail(f"{name} was called before the check")

    monkeypatch.setattr(module, name, build)


def _random_protocol(rng, max_dimers=9):
    return QuenchProtocol(
        gamma=float(rng.uniform(0.2, 2.5)),
        delta0=float(rng.uniform(0.0, 1.4)),
        delta1=float(rng.uniform(0.0, 1.0)),
        n_dimers=int(rng.integers(2, max_dimers)),
    )


class TestQuenchProtocol:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0, delta0=0.3, delta1=0.6, n_dimers=4),
            dict(gamma=1.0, delta0=-0.1, delta1=0.6, n_dimers=4),
            dict(gamma=1.0, delta0=0.3, delta1=-0.1, n_dimers=4),
            dict(gamma=1.0, delta0=0.3, delta1=0.6, n_dimers=1),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            QuenchProtocol(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["gamma", "delta0", "delta1", "n_dimers"])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"gamma": 1.0, "delta0": 0.3, "delta1": 0.6, "n_dimers": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            QuenchProtocol(**kwargs)


def _eigensystems(p):
    """The battery's and the charger's ``(omegas, vecs)`` from the tests-side Bloch reference."""
    return [
        eigensystem_stack(bloch_stack(p.gamma, delta, p.n_dimers))
        for delta in (p.delta0, p.delta0 + p.delta1)
    ]


def _mode_data(protocol):
    """Battery and charging bands and matching matrices M_q = V_q^dag U_q from
    the tests-side Bloch eigensystems; shapes (N, 2), (N, 2), (N, 4, 4)."""
    (omega, u), (omega_p, v) = _eigensystems(protocol)
    return omega, omega_p, np.conj(np.transpose(v, (0, 2, 1))) @ u


class TestMatchingMatrix:
    def test_null_quench_is_identity(self):
        omega, omega_p, m = _mode_data(QuenchProtocol(1.25, 0.3, 0.0, 4))
        assert np.max(np.abs(m - np.eye(4))) <= 1e-13
        assert np.array_equal(omega, omega_p)

    def test_unitarity(self):
        rng = np.random.default_rng(21)
        eye = np.eye(4)
        for _ in range(25):
            p = _random_protocol(rng)
            m = _mode_data(p)[2][int(rng.integers(0, p.n_dimers))]
            assert np.max(np.abs(m.conj().T @ m - eye)) <= 1e-12

    def test_derived_moduli(self):
        m = _mode_data(QuenchProtocol(1.25, 0.3, 0.6, 4))[2][0]
        assert np.max(np.abs(np.abs(m) ** 2 - FROZEN_M_ABS2)) <= 1e-12

    def test_band_energies_match_dispersion(self):
        p = QuenchProtocol(1.25, 0.3, 0.6, 4)
        omega, omega_p, _ = _mode_data(p)
        battery = dispersion_curves(p.gamma, p.delta0, p.n_dimers)
        charging = dispersion_curves(p.gamma, p.delta0 + p.delta1, p.n_dimers)
        assert tuple(omega[1]) == pytest.approx(tuple(battery[1]), abs=1e-12)
        assert tuple(omega_p[1]) == pytest.approx(tuple(charging[1]), abs=1e-12)


class TestOccupations:
    def test_zero_at_t0(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            p = _random_protocol(rng)
            occ = occupations_all(p, 0.0)
            assert np.max(np.abs(occ)) <= 1e-10

    def test_null_quench_stays_empty(self):
        p = QuenchProtocol(1.25, 0.3, 0.0, 4)
        for t in (0.0, 1.7, 42.0):
            n1, n2 = occupations_all(p, t)[2]
            assert abs(n1) <= 1e-10
            assert abs(n2) <= 1e-10

    def test_matrix_exponential_reference_point(self):
        # frozen from the expm evolution path at gamma=1.25, delta0=0.3,
        # delta1=0.6, n_dimers=4, q=1/2, t=1
        n1, n2 = occupations_all(QuenchProtocol(1.25, 0.3, 0.6, 4), 1.0)[0]
        assert n1 == pytest.approx(1.2898435722172930e-03, abs=1e-12)
        assert n2 == pytest.approx(1.1730845351715065e-01, abs=1e-12)

    def test_matrix_exponential_oracle(self):
        # independent evolution path: exact expm of the charging Bloch matrix
        # instead of the matching-matrix phase construction
        rng = np.random.default_rng(23)
        cases = [(QuenchProtocol(1.25, 0.3, 0.6, 4), 0, 1.0)]
        for _ in range(10):
            p = _random_protocol(rng)
            cases.append((p, int(rng.integers(0, p.n_dimers)), float(rng.uniform(0, 20))))
        for p, i, t in cases:
            u = eigensystem_stack(bloch_stack(p.gamma, p.delta0, p.n_dimers))[1][i]
            hc = bloch_stack(p.gamma, p.delta0 + p.delta1, p.n_dimers)[i]
            tm = u.conj().T @ expm(-1j * hc * t) @ u
            n1_ref = abs(tm[0, 2]) ** 2 + abs(tm[0, 3]) ** 2
            n2_ref = abs(tm[1, 2]) ** 2 + abs(tm[1, 3]) ** 2
            n1, n2 = occupations_all(p, t)[i]
            assert n1 == pytest.approx(n1_ref, abs=1e-12)
            assert n2 == pytest.approx(n2_ref, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            p = _random_protocol(rng)
            for t in rng.uniform(0.0, 50.0, size=4):
                occ = occupations_all(p, float(t))
                assert np.min(occ) >= -1e-10
                assert np.max(occ) <= 1.0 + 1e-10

    @pytest.mark.parametrize(
        "protocols",
        [
            [FIG2],
            [QuenchProtocol(1.1, 0.05, 0.8, 300), FIG3],
            [QuenchProtocol(1.0, 0.4, 0.5, 9)],
            [QuenchProtocol(0.8, 0.3, 0.5, 7)],
            [_random_protocol(np.random.default_rng(seed), max_dimers=40) for seed in range(60)],
        ],
        ids=["reference", "fig3", "gamma1", "odd", "random"],
    )
    def test_band_energies_sum_to_the_stored_energy(self, protocols):
        # the stored energy is sum_q sum_s w_s n_s(q, t) over the battery
        # bands.  The occupations run on the closed-form charging bands and
        # the energy kernel on eigh's, a few ulp of max w' apart, so their
        # phases part by about eps t max w': besides 1e-12 max(1, |dE|), the
        # bound allows 16 eps t max w' max(1, E^inf), 16 = 2 (the kernel's
        # 2 w') x 8 ulp
        rng = np.random.default_rng(26)
        for p in protocols:
            bands = dispersion_curves(p.gamma, p.delta0, p.n_dimers)
            w_max = float(np.max(dispersion_curves(p.gamma, p.delta0 + p.delta1, p.n_dimers)))
            phase_scale = 16.0 * np.finfo(float).eps * w_max * max(1.0, asymptotic_energy(p))
            for t in (0.0, 0.7, 37.0, 1e3, float(rng.uniform(0.0, 1e3))):
                de = energy_at_times(p, [t])[0]
                summed = math.fsum((bands * occupations_all(p, t)).ravel())
                assert abs(summed - de) <= 1e-12 * max(1.0, abs(de)) + phase_scale * t

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            occupations_all(QuenchProtocol(1.0, 0.3, 0.1, 4), -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e308])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            occupations_all(QuenchProtocol(1.0, 0.3, 0.1, 4), t)

    def test_phases_stay_finite_up_to_the_time_bound(self):
        # the fastest accepted frequencies at the largest accepted time; the
        # suite turns any overflow warning into an error
        p = QuenchProtocol(1e6, 5e5, 5e5, 4)
        assert np.isfinite(occupations_all(p, quench.MAX_TIME)).all()
        assert np.isfinite(energy_at_times(p, [0.0, quench.MAX_TIME])).all()
        ising_params = IsingParams(1e6, 1e6, 5)
        assert np.isfinite(ising_energy_at_times(ising_params, [0.0, quench.MAX_TIME])).all()


class TestQuadrupleSum:
    def test_printed_form_matches_engine(self):
        # the full matching-matrix sum over (s, s2, s3) with both cosine
        # families and the overall factor 2, written out literally
        def printed(protocol, i, t, s1):
            _, omega_p, m = _mode_data(protocol)
            mq, wp = m[i], omega_p[i]
            total = 0.0 + 0.0j
            for s in (0, 1):
                for s2 in (0, 1):
                    for s3 in (0, 1):
                        total += 2.0 * (
                            mq[s + 2, s1]
                            * np.conj(mq[s2 + 2, s1])
                            * np.conj(mq[s + 2, s3 + 2])
                            * mq[s2 + 2, s3 + 2]
                            * np.cos((wp[s] - wp[s2]) * t)
                            + mq[s + 2, s1]
                            * np.conj(mq[s2, s1])
                            * np.conj(mq[s + 2, s3 + 2])
                            * mq[s2, s3 + 2]
                            * np.cos((wp[s] + wp[s2]) * t)
                        )
            return total

        rng = np.random.default_rng(25)
        cases = [(QuenchProtocol(1.25, 0.3, 0.6, 6), 2, 3.0)]
        for _ in range(12):
            p = _random_protocol(rng)
            cases.append((p, int(rng.integers(0, p.n_dimers)), float(rng.uniform(0, 25))))
        for p, i, t in cases:
            occ = occupations_all(p, t)
            for s1 in (0, 1):
                z = printed(p, i, t, s1)
                assert abs(z.imag) <= 1e-12
                assert z.real == pytest.approx(occ[i, s1], abs=1e-12)


class TestEnergyStored:
    def test_zero_at_t0(self):
        assert abs(energy_at_times(FIG2, np.array([0.0]))[0]) <= 1e-10 * FIG2.n_dimers

    @pytest.mark.parametrize(
        "protocol",
        [FIG2, FIG3, QuenchProtocol(0.8, 0.3, 0.5, 7), QuenchProtocol(1e-12, 0.3, 0.6, 50)],
        ids=["fig2", "fig3", "odd", "gamma_1e-12"],
    )
    def test_exactly_zero_at_t0(self, protocol):
        # each mode's constant is minus its cosine weights, so cos(0) = 1 cancels it exactly
        assert energy_at_times(protocol, [0.0])[0] == 0.0

    @pytest.mark.parametrize("n_dimers", [6, 7, 300])
    def test_null_quench_is_exactly_zero_at_every_time(self, n_dimers):
        # delta1 = 0: sin^2 dphi = 0 at every mode, so every table entry is 0
        p = QuenchProtocol(1.4, 0.6, 0.0, n_dimers)
        assert np.all(energy_at_times(p, 0.37 * np.arange(200)) == 0.0)

    def test_null_quench_trace_is_zero(self):
        p = QuenchProtocol(1.25, 0.3, 0.0, 6)
        trace = energy_trace(p, 10.0, 0.05)
        assert np.max(np.abs(trace.values)) <= 1e-10 * p.n_dimers

    def test_matches_oracle_small_chain(self):
        p = QuenchProtocol(1.25, 0.3, 0.6, 2)
        battery = build_hamiltonian(DimerizedXY(1.25, 0.3), 4)
        charger = build_hamiltonian(DimerizedXY(1.25, 0.9), 4)
        ref = oracle_energy_trace(battery, charger, np.array([2.0])).values[0]
        assert energy_at_times(p, np.array([2.0]))[0] == pytest.approx(ref, abs=1e-8)

    def test_loose_upper_bound(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            p = _random_protocol(rng)
            bands = dispersion_curves(p.gamma, p.delta0, p.n_dimers)
            bound = 2.0 * float(np.sum(bands))
            de = energy_at_times(p, rng.uniform(0.0, 30.0, size=3))
            assert np.all((-1e-10 * p.n_dimers <= de) & (de <= bound + 1e-10))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            energy_at_times(FIG2, np.array([-0.5]))

    @pytest.mark.parametrize(
        "energy, params",
        [
            (energy_at_times, QuenchProtocol(1.25, 0.3, 0.6, 4)),
            (ising_energy_at_times, IsingParams(0.8, 0.7, 8)),
        ],
        ids=["xy", "ising"],
    )
    @pytest.mark.parametrize(
        "times, message",
        [
            ([np.nan], "times must be finite"),
            ([np.inf], "times must be finite"),
            ([1.0, -np.inf], "times must be finite"),
            ([-0.5, 1.0], "times must be >= 0"),
            (1.0, r"times must be a 1-D array, got shape \(\)"),
            ([[0.0, 1.0]], r"times must be a 1-D array, got shape \(1, 2\)"),
            ([0.0, 1e308], r"times must be finite and at most 1e\+100 in magnitude"),
        ],
    )
    def test_rejects_bad_times(self, energy, params, times, message):
        with pytest.raises(ValueError, match=message):
            energy(params, times)

    def test_rejects_unknown_evaluator(self):
        with pytest.raises(ValueError):
            energy_at_times(FIG2, np.array([1.0]), evaluator="fast")


def _exact_kernel(protocol: QuenchProtocol, times) -> np.ndarray:
    """The exact sum of a sweep row's window candidates over the tables ``energy_at_times`` runs."""
    return quench._exact_energy(*protocol.kernel_tables(times))


class TestEnergyTrace:
    def test_matches_pointwise_calls(self):
        # a trace runs in phase blocks, a single time in a block of one, so
        # they agree to rounding, not bit for bit
        p = QuenchProtocol(1.25, 0.3, 0.6, 2)
        trace = energy_trace(p, 10.0, 0.05)
        pointwise = np.array([energy_at_times(p, np.array([t]))[0] for t in trace.times])
        tol = 1e-12 * max(1.0, asymptotic_energy(p))
        assert np.max(np.abs(trace.values - pointwise)) <= tol

    @pytest.mark.parametrize(
        "times, values, message",
        [
            ([0.0, 1.0], [0.0], "times and values must have matching shapes"),
            ([0.0, 1.0, 1.0], [0.0, 0.1, 0.1], "times must be strictly ascending"),
            ([1.0, 0.0], [0.1, 0.0], "times must be strictly ascending"),
            ([0.0, np.nan, 2.0], [0.0, 0.1, 0.2], "times must be a finite 1-D array"),
            ([0.0, 1.0, np.inf], [0.0, 0.1, 0.2], "times must be a finite 1-D array"),
            ([0.0, 1.0, 2.0], [0.0, np.nan, 0.2], "values must be a finite 1-D array"),
            ([0.0, 1.0, 2.0], [0.0, -np.inf, 0.2], "values must be a finite 1-D array"),
            ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 0.1], [0.2, 0.3]], "times must be a finite 1-D"),
            ([0.0, 1.0], [[0.0, 0.1]], "values must be a finite 1-D array"),
            (1.0, 0.5, "times must be a finite 1-D array"),
        ],
        ids=["shapes", "repeated", "descending", "nan_time", "inf_time", "nan_value",
             "minus_inf_value", "2d", "2d_values", "scalar"],
    )
    def test_rejects_a_malformed_trace(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            quench.EnergyTrace(np.array(times), np.array(values), FIG2)

    @pytest.mark.parametrize(
        "energy, params, tables, size",
        [
            (energy_at_times, QuenchProtocol(1.25, 0.3, 0.6, 1000), (quench, "_bloch_bands"),
             "n_dimers=1000"),
            (ising_energy_at_times, IsingParams(0.8, 0.7, 2000), (ising, "_chain_modes"),
             r"n_sites=2000 \(1000 modes\)"),
        ],
        ids=["xy", "ising"],
    )
    def test_work_budget_is_checked_before_the_tables(
        self, monkeypatch, energy, params, tables, size
    ):
        # 1000 modes x (10^6 + 1) samples is one sample over the budget; an
        # Ising ring of 2000 sites runs 1000 modes over the half zone
        times = np.zeros(quench.MAX_MODE_SAMPLES // 1000 + 1)
        _forbid(monkeypatch, *tables)
        with pytest.raises(ValueError, match=f"{size} x 1000001 samples exceeds"):
            energy(params, times)

    def test_ising_work_budget_counts_the_half_zone(self, monkeypatch):
        # 1000 sites run 500 modes, so 1000 sites x (10^6 + 1) samples pass the
        # check and reach the per-mode arrays
        class Reached(Exception):
            pass

        def build(*args):
            raise Reached

        monkeypatch.setattr(ising, "_chain_modes", build)
        with pytest.raises(Reached):
            ising_energy_at_times(
                IsingParams(0.8, 0.7, 1000), np.zeros(quench.MAX_MODE_SAMPLES // 1000 + 1)
            )

    @pytest.mark.parametrize(
        "energy, params, tables",
        [
            (energy_at_times, QuenchProtocol(1.25, 0.3, 0.6, 50), (quench, "_bloch_bands")),
            (ising_energy_at_times, IsingParams(0.8, 0.7, 50), (ising, "_chain_modes")),
        ],
        ids=["xy", "ising"],
    )
    @pytest.mark.parametrize("times", [[np.nan], [-0.5], [[0.0, 1.0]]], ids=["nan", "neg", "2d"])
    def test_bad_times_are_rejected_before_the_tables(
        self, monkeypatch, energy, params, tables, times
    ):
        _forbid(monkeypatch, *tables)
        with pytest.raises(ValueError, match="times must"):
            energy(params, times)

    def test_grid_and_initial_value(self):
        p = QuenchProtocol(1.25, 0.3, 0.6, 40)
        trace = energy_trace(p, 5.0, 0.025)
        assert trace.times[0] == 0.0
        assert np.allclose(np.diff(trace.times), 0.025)
        assert abs(trace.values[0]) <= 1e-10 * p.n_dimers
        assert np.min(trace.values) >= -1e-10 * p.n_dimers

    def test_rejects_coarse_dt(self):
        bound = resolution_bound(FIG2)
        with pytest.raises(ValueError, match="need dt <="):
            energy_trace(FIG2, 10.0, 2.0 * bound)

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            energy_trace(FIG2, 0.0, 0.01)
        with pytest.raises(ValueError):
            energy_trace(FIG2, 10.0, -0.01)

    @pytest.mark.parametrize(
        "t_end, dt, name",
        [(np.inf, 0.01, "t_end"), (np.nan, 0.01, "t_end"), (10.0, np.nan, "dt")],
    )
    def test_rejects_non_finite_grid(self, t_end, dt, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            energy_trace(FIG2, t_end, dt)


def _four_column_sum(protocol: QuenchProtocol, times) -> np.ndarray:
    """Stored energy from every column of the matching-matrix tables, one
    ``math.fsum`` per time."""
    freqs, e_const, e_cos, e_sin = four_column_tables(protocol)

    def at(t):
        ph = freqs * t
        return math.fsum([*e_const, *(e_cos * np.cos(ph)).flat, *(e_sin * np.sin(ph)).flat])

    return np.array([at(t) for t in times])


class TestWeightlessColumns:
    # energy_at_times runs one cosine column per chain, at 2 w1' and 2 w2';
    # the matching matrices' expansion over all four columns, with the
    # cross-band ones, must agree to 1e-13 max(1, max|dE|)
    TIMES = np.concatenate([0.37 * np.arange(60), [679.14, 1e4]])

    @pytest.mark.parametrize(
        "protocol",
        [
            FIG2,
            FIG3,  # delta0 = 0.2: flat charging bands
            QuenchProtocol(1.25, 0.0, 0.6, 20),  # delta0 = 0: degenerate battery bands
            QuenchProtocol(1e-12, 0.3, 0.6, 50),  # near-degenerate charging bands
            QuenchProtocol(1e-15, 1e-15, 0.6, 20),
            QuenchProtocol(1.0, 0.4, 0.5, 9),  # gamma = 1
            QuenchProtocol(1.25, 0.3, 0.5, 12),  # charging on gamma delta' = 1
            QuenchProtocol(0.8, 0.3, 0.5, 12),  # charging on delta' = gamma
            QuenchProtocol(0.8, 0.3, 0.5, 7),  # ... with odd n
            QuenchProtocol(1.4, 0.6, 0.0, 10),  # delta1 = 0
        ],
        ids=["fig2", "fig3", "delta0_0", "gamma_1e-12", "gamma_delta0_1e-15", "gamma1",
             "gd1", "d_gamma", "d_gamma_odd", "null"],
    )
    def test_matches_the_four_column_sum(self, protocol):
        ref = _four_column_sum(protocol, self.TIMES)
        engine = energy_at_times(protocol, self.TIMES)
        assert np.max(np.abs(engine - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))


class TestEvaluators:
    @pytest.mark.parametrize("protocol", [FIG2, FIG3], ids=["fig2", "fig3"])
    def test_full_vs_simplified(self, protocol):
        times = np.linspace(0.0, 60.0, 121)
        full = energy_at_times(protocol, times, "full")
        simplified = energy_at_times(protocol, times, "simplified")
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full - simplified)) <= 1e-9 * scale

    @pytest.mark.parametrize("protocol", [FIG2, FIG3], ids=["fig2", "fig3"])
    def test_both_names_run_the_same_sum(self, protocol):
        times = np.linspace(0.0, 60.0, 121)
        assert np.array_equal(
            energy_at_times(protocol, times, "full"),
            energy_at_times(protocol, times, "simplified"),
        )

    def test_band_occupation_structure(self):
        # The upper band is weakly but not negligibly occupied: its maximal
        # occupation is ~2.6e-3 at the reference parameters (not <= 1e-8; the
        # band-diagonal structure, not single-band filling, is what holds).
        for protocol in (FIG2, FIG3):
            n1_max = 0.0
            n2_max = 0.0
            share = []
            for t in (0.5, 2.0, 10.0, 100.0):
                occ = occupations_all(protocol, t)
                n1_max = max(n1_max, float(np.max(occ[:, 0])))
                n2_max = max(n2_max, float(np.max(occ[:, 1])))
            bands = dispersion_curves(protocol.gamma, protocol.delta0, protocol.n_dimers)
            occ = occupations_all(protocol, 100.0)
            e1 = float(np.sum(bands[:, 0] * occ[:, 0]))
            e2 = float(np.sum(bands[:, 1] * occ[:, 1]))
            assert n1_max <= 5e-3
            assert n2_max >= 0.5
            assert e1 <= 0.01 * e2


class TestGaugeInvariance:
    def test_random_rephasing(self):
        # multiply eigenvector columns by arbitrary unit phases and rebuild
        # the occupations from scratch: physical outputs must not move
        rng = np.random.default_rng(27)
        for _ in range(10):
            p = _random_protocol(rng)
            i = int(rng.integers(0, p.n_dimers))
            t = float(rng.uniform(0.0, 20.0))
            (_, vecs), (omega_c, vecs_c) = _eigensystems(p)
            u = vecs[i].copy()
            v = vecs_c[i].copy()
            u *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))[None, :]
            v *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))[None, :]
            m = v.conj().T @ u
            w1p, w2p = omega_c[i]
            d = np.exp(-1j * np.array([w1p, w2p, -w1p, -w2p]) * t)
            tm = m.conj().T @ (d[:, None] * m)
            n1_ref = abs(tm[0, 2]) ** 2 + abs(tm[0, 3]) ** 2
            n2_ref = abs(tm[1, 2]) ** 2 + abs(tm[1, 3]) ** 2
            n1, n2 = occupations_all(p, t)[i]
            assert abs(n1 - n1_ref) <= 1e-10
            assert abs(n2 - n2_ref) <= 1e-10


class TestAsymptoticEnergy:
    def test_null_quench(self):
        assert asymptotic_energy(QuenchProtocol(1.0, 0.4, 0.0, 8)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_equals_windowed_time_average(self):
        dt = 0.5 * resolution_bound(FIG2)
        times = 100.0 + dt * np.arange(int(400.0 / dt) + 1)
        mean = float(np.mean(energy_at_times(FIG2, times)))
        e_inf = asymptotic_energy(FIG2)
        assert abs(e_inf - mean) <= 0.005 * abs(mean)

    def test_degenerate_charging_bands(self):
        # delta0 + delta1 = 0 collapses both charging bands onto each other;
        # the equal-frequency rule must route their cross terms into the
        # constant instead of a spurious zero-frequency oscillation
        p = QuenchProtocol(0.8, 0.0, 0.0, 6)
        assert asymptotic_energy(p) == pytest.approx(0.0, abs=1e-12)

    def test_fully_dimerized_charging_stores_nothing(self):
        # gamma = delta0 + delta1 = 1: the charging band w2' vanishes at every
        # q, so its 2 w2' column is constant and belongs to the asymptote
        p = QuenchProtocol(1.0, 0.3, 0.7, 5)
        times = np.linspace(0.0, 50.0, 101)
        assert np.max(np.abs(energy_at_times(p, times))) <= 1e-12
        assert asymptotic_energy(p) == pytest.approx(0.0, abs=1e-12)

    def test_zero_frequency_mode_enters_the_constant(self):
        # delta0 + delta1 = gamma with odd n_dimers: w2' vanishes at q = n/2
        p = QuenchProtocol(0.8, 0.3, 0.5, 5)
        dt = 0.5 * resolution_bound(p)
        times = 100.0 + dt * np.arange(int(400.0 / dt) + 1)
        mean = float(np.mean(energy_at_times(p, times)))
        assert abs(asymptotic_energy(p) - mean) <= 0.005 * abs(mean)


class TestStatelessEngines:
    # only the time kernel decomposes a Bloch stack, the charger's, once, in
    # one eigh; the asymptote and the occupations come from the closed-form
    # chains and decompose none
    @pytest.mark.parametrize(
        "call, stacks",
        [
            (lambda p: energy_at_times(p, [0.0, 1.0]), 1),
            (asymptotic_energy, 0),
            (lambda p: occupations_all(p, 1.0), 0),
        ],
        ids=["energy_at_times", "asymptotic_energy", "occupations_all"],
    )
    def test_each_call_decomposes_each_bloch_stack_once(self, monkeypatch, call, stacks):
        decomposed, solves = [], []
        original, eigh = quench._bloch_bands, np.linalg.eigh

        def counted(*args):
            decomposed.append(args)
            return original(*args)

        def counted_eigh(a, *args, **kwargs):
            solves.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(quench, "_bloch_bands", counted)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        call(QuenchProtocol(1.25, 0.3, 0.6, 6))
        assert decomposed == [(1.25, 0.3 + 0.6, 6)][:stacks]
        # the half zone: modes q = 1/2, 3/2, 5/2 of six, each with its mirror
        assert solves == [(3, 4, 4)][:stacks]

    def test_no_per_mode_table_outlives_its_call(self):
        # four fresh protocols per engine: tables kept per protocol would
        # hold ~9 MB per XY call at 20,000 dimers and ~3 MB per Ising call
        # at 200,000 sites
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for x in (0.1, 0.2, 0.3, 0.4):
                asymptotic_energy(QuenchProtocol(1.25, x, 0.6, 20_000))
                asymptotic_energy(IsingParams(x, 0.7, 200_000))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert retained <= 10**6


def _fig3_window_grid():
    """The sweep row's recurrence-window grid of the tied Fig-3 point delta0 = 0.2."""
    bound = resolution_bound(FIG3)
    window = regimes.default_recurrence_window(FIG3.n_dimers)
    return quench._uniform_times(*window, regimes.DT_SAFETY * bound, bound)


class TestHalfZoneTables:
    # kernel_tables runs the half zone: row i folds mode i with its mirror
    # n - 1 - i (k -> 2 pi - k), both at mode i's Bloch bands, and an odd n
    # keeps its k = pi mode once, so n - n // 2 rows carry every amplitude
    @pytest.mark.parametrize(
        "protocol",
        [
            QuenchProtocol(1.25, 0.3, 0.6, 2),
            QuenchProtocol(1.25, 0.3, 0.6, 3),
            QuenchProtocol(0.8, 0.3, 0.5, 7),
            QuenchProtocol(1.4, 0.6, 0.0, 10),  # delta1 = 0
            FIG2,
            QuenchProtocol(1.1, 0.2, 0.8, 301),
        ],
        ids=["n2", "n3", "odd_n", "null", "fig2", "fig3_odd"],
    )
    def test_folds_each_mirror_pair_into_one_row(self, protocol):
        n, half = protocol.n_dimers, protocol.n_dimers // 2
        times, amp, freq = protocol.kernel_tables([0.0, 1.0])
        full = protocol.chain_modes()[0]
        bands = quench._bloch_bands(protocol.gamma, protocol.delta0 + protocol.delta1, n)
        assert amp.shape == freq.shape == (n - half, 2)
        assert np.array_equal(amp[:half], full[:half] + full[::-1][:half])
        assert np.array_equal(amp[half:], full[half : n - half])
        assert np.array_equal(freq, 2.0 * bands)
        # one rounding per fold on non-negative amplitudes: the sums agree to rounding
        total = math.fsum(full.ravel())
        assert abs(math.fsum(amp.ravel()) - total) <= 2.0 * np.finfo(float).eps * total


class TestTiedWindow:
    # delta0 + delta1 = 1 makes the Fig-3 charging bands flat: five samples of
    # the delta0 = 0.2 row's window grid hold the same float maximum of the
    # row's exact sum, and the next lies 2.8e-14 below.  Which comes first
    # depends only on the bits of the kernel's frequencies; a move of them
    # changes the row's tau_r.
    TIED = [714.704, 730.412, 746.12, 777.536, 793.244]

    def test_five_samples_hold_the_exact_maximum(self):
        times = _fig3_window_grid()
        values = _exact_kernel(FIG3, times)
        tied = times[values == np.max(values)]
        assert tied == pytest.approx(self.TIED, abs=1e-3)

    def test_the_sweep_row_keeps_its_recurrence_time(self):
        (row,) = regimes.sweep_delta0(1.1, 0.8, 300, [0.2])
        assert row.tau_r == 714.7123089684378


class TestSubsetBits:
    # a sweep row runs the exact sum only on the window samples that decide
    # it, so a sample must keep its bits on any grid it is part of:
    # kernel(times[idx]) == kernel(times)[idx], for scattered and evenly
    # spaced subsets of 1 to 17 samples (SIMD tails)
    CASES = {
        "fig3_window": (FIG3, _fig3_window_grid),
        "odd_n": (QuenchProtocol(0.8, 0.3, 0.5, 7), lambda: 0.3 + 0.05 * np.arange(9000)),
        "delta1_0": (QuenchProtocol(0.5, 0.3, 0.0, 3), lambda: 0.05 * np.arange(5000)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_sample_keeps_its_bits_on_any_subset(self, case):
        protocol, grid = self.CASES[case]
        times = grid()
        whole = _exact_kernel(protocol, times).view(np.int64)
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        for size in range(1, 18):
            step = int(rng.integers(1, times.size // size))
            start = int(rng.integers(0, times.size - step * (size - 1)))
            subsets = [
                np.sort(rng.choice(times.size, size, replace=False)),
                start + step * np.arange(size),
            ]
            for idx in subsets:
                part = _exact_kernel(protocol, times[idx]).view(np.int64)
                assert np.array_equal(part, whole[idx]), (size, idx)


class TestTiledKernel:
    @pytest.mark.parametrize("kernel", [energy_at_times, _exact_kernel], ids=["energy", "exact"])
    def test_memory_does_not_grow_with_the_modes(self, kernel):
        # the whole (N, 2, T) phase table holds 393 MB at 3,000 dimers x 8,192
        # times and 160 MB at 50 dimers x 200,000 times; the phase blocks'
        # temporaries and the exact sum's chunks of times, with the floats
        # that math.fsum reads, hold a few MB whatever N and T
        for n_dimers, samples in [(3000, 8192), (50, 200_000)]:
            protocol, times = QuenchProtocol(1.25, 0.3, 0.6, n_dimers), 0.05 * np.arange(samples)
            tracemalloc.start()
            try:
                protocol.kernel_tables(times)
                tables = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                kernel(protocol, times)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= tables + 16 * 10**6, (n_dimers, samples)


def _mode_energies(times, amp, freq) -> np.ndarray:
    """(M, T): each mode's sum_s amp_s - sum_s amp_s cos(freq_s t), formed at each time
    t on its own, for kernel tables of shape (M, F) or (M,)."""
    amp, freq = amp.reshape(len(amp), -1), freq.reshape(len(freq), -1)
    const = amp[:, 0].copy()
    for s in range(1, amp.shape[1]):
        const += amp[:, s]
    columns = []
    for t in times:
        e = -amp[:, 0] * np.cos(freq[:, 0] * t)
        for s in range(1, amp.shape[1]):
            e += -amp[:, s] * np.cos(freq[:, s] * t)
        columns.append(e + const)
    return np.array(columns).T.reshape(len(amp), len(times))


def _fsum_energy(times, amp, freq) -> np.ndarray:
    """One ``math.fsum`` over the modes per time: the reference of ``_exact_energy``."""
    return np.array([math.fsum(column) for column in _mode_energies(times, amp, freq).T])


class TestExactEnergy:
    # quench._exact_energy, the sum that settles a sweep row's window
    # candidates, is each time's exactly rounded sum over the modes, on
    # either model's tables, whatever its chunks of times
    TIMES = np.concatenate([0.37 * np.arange(40), [679.14, 1e4, 1e6]])

    @pytest.mark.parametrize(
        "params",
        [
            FIG2,
            FIG3,  # flat charging bands
            QuenchProtocol(0.8, 0.3, 0.5, 7),  # odd n
            QuenchProtocol(0.5, 0.3, 0.0, 3),  # delta1 = 0
            QuenchProtocol(1e-12, 0.3, 0.6, 7),  # near-degenerate charging bands
            QuenchProtocol(0.8, 0.3, 0.5, 2),
            IsingParams(0.3, 0.4, 45),  # odd ring
            IsingParams(0.25, 0.75, 61),  # odd ring, charger on h = 1
            IsingParams(0.8, 0.7, 2),
            IsingParams(0.8, 0.7, 600),
        ],
        ids=["fig2", "fig3", "odd_n", "delta1_0", "gamma_1e-12", "n2",
             "ising45", "ising61", "ising2", "ising600"],
    )
    def test_matches_one_fsum_per_time(self, params):
        times, amp, freq = params.kernel_tables(self.TIMES)
        assert amp.ndim == (2 if isinstance(params, QuenchProtocol) else 1)
        got = quench._exact_energy(times, amp, freq)
        assert np.array_equal(got.view(np.int64), _fsum_energy(times, amp, freq).view(np.int64))

    @pytest.mark.parametrize(
        "params", [QuenchProtocol(1.25, 0.3, 0.6, 20), IsingParams(0.3, 0.4, 45)],
        ids=["xy", "ising"],
    )
    @pytest.mark.parametrize("budget", [7, 600, 2**18])
    @pytest.mark.parametrize("samples", [0, 1, 9, 10, 11, 13, 14, 21, 40])
    def test_chunks_keep_the_bits_and_the_budget(self, monkeypatch, params, budget, samples):
        # a budget of 600 floats makes chunks of 10 times for 20 dimers
        # (3 floats per mode and time) and of 13 for the 22 modes of 45 sites
        # (2 per mode and time); 7 floats make chunks of one time
        times, amp, freq = params.kernel_tables(0.3 * np.arange(samples))
        chunks = []

        def spy(values):
            chunks.append(values.shape)
            return sums.compensated_sum_axis0(values)

        monkeypatch.setattr(quench, "_TILE_ELEMENTS", budget)
        monkeypatch.setattr(quench, "compensated_sum_axis0", spy)
        got = quench._exact_energy(times, amp, freq)
        assert got.shape == (samples,)
        assert np.array_equal(got.view(np.int64), _fsum_energy(times, amp, freq).view(np.int64))
        per_time = amp.size + len(amp)
        width = max(1, budget // per_time)
        assert [m for m, _ in chunks] == [len(amp)] * len(chunks)
        widths = [min(width, samples - lo) for lo in range(0, samples, width)]
        assert [t for _, t in chunks] == widths
        assert all(t == 1 or per_time * t <= budget for _, t in chunks)

    def test_the_tied_window_matches_neumaier(self):
        # Neumaier's sum is exactly rounded on every sample of the tied Fig-3
        # window, so the exact sum keeps its bits there, and with them the
        # five samples that share the float maximum (TestTiedWindow)
        times, amp, freq = FIG3.kernel_tables(_fig3_window_grid())
        got = quench._exact_energy(times, amp, freq)
        judge = _neumaier(_mode_energies(times, amp, freq))
        assert times.size == 5603
        assert np.array_equal(got.view(np.int64), judge.view(np.int64))


def _grid(protocol, t0, t1):
    """The CLI's trace grid of ``protocol`` (half its resolution bound) on [t0, t1]."""
    dt = 0.5 * resolution_bound(protocol)
    return t0 + dt * np.arange(int((t1 - t0) / dt) + 1)


class TestTraceKernel:
    # energy_at_times runs the phase-block kernel, the exact sums to
    # rounding: within 1e-13 of the trace maximum on the CLI's trace grids,
    # with dE(0) = 0 exactly, and on every block shape of short grids
    SMALL = QuenchProtocol(1.25, 0.3, 0.6, 20)

    @pytest.mark.parametrize(
        "protocol, times",
        [
            (FIG2, _grid(FIG2, 0.0, 800.0)),  # the reference trace, 25,465 samples
            (FIG3, _grid(FIG3, 600.0, 800.0)),
            (QuenchProtocol(0.8, 0.3, 0.5, 7), 0.05 * np.arange(9000)),  # odd n
        ],
        ids=["reference", "fig3_600_800", "odd_n"],
    )
    def test_trace_grids_match_the_exact_kernel(self, protocol, times):
        values, exact = energy_at_times(protocol, times), _exact_kernel(protocol, times)
        assert np.max(np.abs(values - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert times[0] > 0.0 or values[0] == 0.0

    @pytest.mark.parametrize("samples", [0, 1, 2, 3, 5, 16, 17, 4096, 4097])
    def test_grid_lengths_match_the_exact_kernel(self, samples):
        # blocks of ceil(sqrt(T)) times: 1, 2, 2, 3, 4, 5, 64 and 65
        times = 0.5 * resolution_bound(self.SMALL) * np.arange(samples)
        values, exact = energy_at_times(self.SMALL, times), _exact_kernel(self.SMALL, times)
        assert values.shape == (samples,)
        tol = 1e-12 * max(1.0, asymptotic_energy(self.SMALL))
        assert np.max(np.abs(values - exact), initial=0.0) <= tol
        assert samples == 0 or values[0] == 0.0


def _two_chain_modes(p: QuenchProtocol):
    """(amp, freq, |d|) per mode and chain, shapes (n_dimers, 2): a reference
    that shares no code with the engine.

    The XY battery is two Ising chains with (a, b) = (1 + g d, d + g) and
    (1 - g d, d - g), d = (a cos x, b sin x) at x = pi (q + 1/2) / n for the
    battery and d' for the charger; dE(t) = sum amp [1 - cos(4 |d'| t)].
    """
    x = np.pi * (np.arange(p.n_dimers) + 0.5) / p.n_dimers
    c, s = np.cos(x)[:, None], np.sin(x)[:, None]
    sign = np.array([1.0, -1.0])
    g, d, dp = p.gamma, p.delta0, p.delta0 + p.delta1
    a, b = 1.0 + sign * g * d, d + sign * g
    ap, bp = 1.0 + sign * g * dp, dp + sign * g
    norm, normp = np.hypot(a * c, b * s), np.hypot(ap * c, bp * s)
    num = (c * s * (a * bp - ap * b)) ** 2
    amp = np.divide(num, norm * normp**2, out=np.zeros_like(num), where=norm * normp != 0)
    return amp, 4.0 * normp, norm


class TestTwoIsingChains:
    # ROADMAP item 3's identity, checked at 1e-12 max(1, max|dE|)
    TIMES = 0.37 * np.arange(100)

    @pytest.mark.parametrize(
        "protocol",
        [
            *(_random_protocol(np.random.default_rng(seed), max_dimers=40) for seed in range(8)),
            QuenchProtocol(1.0, 0.4, 0.5, 9),  # gamma = 1: every bond commutes
            QuenchProtocol(1.25, 0.3, 0.5, 12),  # charging on gamma delta' = 1
            QuenchProtocol(0.8, 0.3, 0.5, 12),  # charging on delta' = gamma
            QuenchProtocol(0.8, 0.3, 0.5, 7),  # ... with odd n: |d'| = 0 at x = pi/2
            QuenchProtocol(1.4, 0.6, 0.0, 10),  # delta1 = 0
            FIG3,  # Fig. 3, delta0 = 0.2: flat charging bands
        ],
        ids=[*(f"random{seed}" for seed in range(8)),
             "gamma1", "gd1", "d_gamma", "d_gamma_odd", "null", "fig3"],
    )
    def test_engine_is_two_ising_chains(self, protocol):
        amp, freq, norm = _two_chain_modes(protocol)
        ref = np.array([np.sum(amp * (1.0 - np.cos(freq * t))) for t in self.TIMES])
        engine = energy_at_times(protocol, self.TIMES)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(engine))))
        assert np.max(np.abs(engine - ref)) <= tol
        assert abs(asymptotic_energy(protocol) - np.sum(amp[freq > EQUAL_FREQ_TOL])) <= tol
        sin2 = np.divide(amp, norm, out=np.zeros_like(amp), where=norm != 0)
        for t in self.TIMES[::11]:
            occ = sin2 * np.sin(0.5 * freq * t) ** 2
            assert np.max(np.abs(occupations_all(protocol, t) - occ)) <= tol


def _bands_formula(gamma, delta, n_dimers):
    """A copy of the band formula behind every XY dt and time grid, operation for
    operation, so that any change to its bits shows."""
    q = np.arange(n_dimers) + 0.5
    x = np.pi * q / n_dimers
    cos2 = np.cos(x) ** 2
    sin2 = np.sin(x) ** 2
    plus = 2.0 * np.sqrt((1.0 + gamma * delta) ** 2 * cos2 + (delta + gamma) ** 2 * sin2)
    minus = 2.0 * np.sqrt((1.0 - gamma * delta) ** 2 * cos2 + (delta - gamma) ** 2 * sin2)
    return np.column_stack([plus, minus])


def _pinned_protocols():
    # the reference trace, the eight points of the Fig-3 delta0 sweep
    # 0.05..0.40 at the CLI's grid, and a seeded random scan up to the
    # parameter limits
    yield QuenchProtocol(1.25, 0.3, 0.6, 300)
    sweep = cli._make_grid(0.05, 0.05 + 7 * 0.05, 0.05)
    assert len(sweep) == 8
    for delta0 in sweep:
        yield QuenchProtocol(1.1, delta0, 0.8, 300)
    rng = np.random.default_rng(61)
    for _ in range(200):
        yield _random_protocol(rng, max_dimers=400)
    for scale in (1e-6, 1e3, 1e6):
        yield QuenchProtocol(scale, 0.5 * scale, 0.5 * scale, 9)


class TestBandBits:
    @pytest.mark.parametrize("protocol", list(_pinned_protocols()))
    def test_bands_and_resolution_bound_keep_their_bits(self, protocol):
        g, n = protocol.gamma, protocol.n_dimers
        for delta in (protocol.delta0, protocol.delta0 + protocol.delta1):
            assert np.array_equal(dispersion_curves(g, delta, n), _bands_formula(g, delta, n))
        charging = _bands_formula(g, protocol.delta0 + protocol.delta1, n)
        fmax = float(np.max(charging[:, 0] + charging[:, 1]))
        assert resolution_bound(protocol) == np.pi / (10.0 * fmax)


def _two_rule_bound(params):
    """The resolution bound by the two per-model rules the one rule replaced:
    pi / (10 max_q(w1' + w2')) over XY's charging bands, and pi / (10 * 2 max_q w_q)
    over Ising's closed-form half-zone w_q."""
    if isinstance(params, IsingParams):
        fastest = 2.0 * float(np.max(params.chain_modes()[1] / 2))
    else:
        charging = dispersion_curves(params.gamma, params.delta0 + params.delta1, params.n_dimers)
        fastest = float(np.max(charging[:, 0] + charging[:, 1]))
    return np.pi / (10.0 * fastest)


def _rule_cases():
    # the benchmark's seed-0 protocols: trace-xy, the sweep-xy and sweep-ising
    # grids at the CLI's grid, and oracle-check at 10 sites
    yield FIG2
    for delta0 in cli._make_grid(0.05, 0.05 + 7 * 0.05, 0.05):
        yield QuenchProtocol(1.1, delta0, 0.8, 300)
    for h0 in cli._make_grid(0.4, 0.4 + 30 * 0.02, 0.02):
        yield IsingParams(h0, 0.25, 600)
    yield QuenchProtocol(1.25, 0.3, 0.6, 5)
    yield IsingParams(0.8, 0.7, 10)
    # the 71 Fig-3 points, as the CLI and the acceptance suite form them
    for delta0 in cli._make_grid(0.05, 0.4, 0.005):
        yield QuenchProtocol(1.1, delta0, 0.8, 300)
    for i in range(71):
        yield QuenchProtocol(1.1, round(0.05 + 0.005 * i, 3), 0.8, 300)
    for n in (2, 3, 7):
        yield QuenchProtocol(1.25, 0.3, 0.6, n)
        yield IsingParams(0.8, 0.7, n)
    # odd rings, the last with a critical charger
    for n in (3, 5, 9, 101):
        yield IsingParams(0.8, 0.7, n)
    yield IsingParams(0.6, 0.4, 601)
    # null quenches, a vanishing anisotropy and flat charging bands
    yield QuenchProtocol(1.25, 0.3, 0.0, 300)
    yield IsingParams(0.8, 0.0, 600)
    yield QuenchProtocol(1e-12, 0.3, 0.6, 300)
    for delta0 in (0.0, 0.2, 0.25, 0.5, 0.75):
        yield QuenchProtocol(1.1, delta0, 1.0 - delta0, 300)


class TestOneResolutionRule:
    # the largest per-mode mean of the chain-mode frequencies 4 |d'| is
    # w1' + w2' for an XY mode and 2 w_q for an Ising mode, bit for bit
    @pytest.mark.parametrize("params", list(_rule_cases()))
    def test_equals_both_model_rules(self, params):
        assert resolution_bound(params) == _two_rule_bound(params)


class TestBlochEigensystems:
    # the time kernel's frequencies: its one eigensolve keeps every bit of
    # the tests-side Bloch reference's bands, at the battery's and the
    # charger's dimerization.  The tied Fig-3 window maximum (TestTiedWindow)
    # rests on these bits.
    @pytest.mark.parametrize(
        "protocol",
        [*_pinned_protocols(), QuenchProtocol(1.0, 1.0, 0.0, 2), QuenchProtocol(0.8, 0.0, 0.0, 6)],
    )
    def test_matches_the_reference_bitwise(self, protocol):
        for delta in (protocol.delta0, protocol.delta0 + protocol.delta1):
            n = protocol.n_dimers
            args = (protocol.gamma, delta, n)
            # the half zone: rows 0 .. n - n // 2 - 1, the k = pi mode of an odd n included
            ref = eigensystem_stack(bloch_stack(*args))[0][: n - n // 2]
            got = quench._bloch_bands(*args)
            assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


# E^inf frozen from a 40-digit mpmath sum of |d| sin^2 dphi over the modes,
# at the exact binary values of the inputs: XY at gamma = 1.25, delta0 = 0.3,
# n_dimers = 50 and Ising at h0 = 0.3, n_sites = 600, for quench steps
# delta1 or h1 of 1e-6 and 1e-3.
SMALL_QUENCH_E_INF = {
    ("xy", 1e-6): 4.7487075530921518607e-12,
    ("xy", 1e-3): 4.7597065402909092309e-6,
    ("ising", 1e-6): 1.5536740968831733203e-10,
    ("ising", 1e-3): 1.5539269697683894895e-4,
}


@pytest.mark.parametrize("model, step", list(SMALL_QUENCH_E_INF), ids=str)
def test_small_quench_keeps_the_asymptote_precise(model, step):
    # a b' - a' b enters in closed form (delta1 (1 - gamma)(1 + gamma) for XY,
    # h1 / 2 for Ising); formed from the rounded (a, b) pairs it cost up to
    # 2.4e-10 relative at a step of 1e-6
    if model == "xy":
        e_inf = asymptotic_energy(QuenchProtocol(1.25, 0.3, step, 50))
    else:
        e_inf = asymptotic_energy(IsingParams(0.3, step, 600))
    frozen = SMALL_QUENCH_E_INF[model, step]
    assert abs(e_inf - frozen) <= 1e-14 * frozen


class TestZeroNormModes:
    # |d| |d'| = 0 gives sin^2 dphi = 0, never 0/0: a zero-energy battery mode
    # has occupation 0, and a zero-frequency charging mode stores nothing
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "protocol",
        [
            QuenchProtocol(0.8, 0.3, 0.5, 7),  # charger on delta' = gamma: |d'| ~ 0 at x = pi/2
            QuenchProtocol(1.0, 0.3, 0.7, 7),  # charger at gamma = delta' = 1: |d'| = 0 in band 2
            QuenchProtocol(0.8, 0.8, 0.5, 7),  # battery on delta0 = gamma: |d| ~ 0 at x = pi/2
            QuenchProtocol(1.0, 1.0, 0.5, 7),  # battery at gamma = delta0 = 1: |d| = 0 in band 2
        ],
        ids=["charger_d_gamma", "charger_flat", "battery_d_gamma", "battery_flat"],
    )
    def test_zero_norm_modes_are_defined(self, tmp_path, protocol):
        battery = dispersion_curves(protocol.gamma, protocol.delta0, protocol.n_dimers)
        for t in (0.0, 1.3, 40.0):
            occ = occupations_all(protocol, t)
            assert np.isfinite(occ).all() and (occ >= 0.0).all() and (occ <= 1.0).all()
            assert np.all(occ[battery == 0.0] == 0.0)
        assert np.isfinite(asymptotic_energy(protocol))
        out = tmp_path / "snapshot.csv"
        argv = ["snapshot", "--gamma", repr(protocol.gamma), "--delta0", repr(protocol.delta0),
                "--delta1", repr(protocol.delta1), "--n-dimers", str(protocol.n_dimers),
                "--time", "3.0", "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.stat().st_size > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_dimers", [6, 7])
    def test_null_quench_is_exactly_empty(self, n_dimers):
        # delta1 = 0: d' = d, so a b' - a' b is exactly 0 at every mode
        p = QuenchProtocol(1.4, 0.6, 0.0, n_dimers)
        assert asymptotic_energy(p) == 0.0
        for t in (0.0, 1.3, 40.0):
            assert np.all(occupations_all(p, t) == 0.0)
