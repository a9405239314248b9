import numpy as np
import pytest

from spinbattery import (
    ChainParams,
    ModeIndex,
    Phase,
    bloch_hamiltonian,
    classify_phase,
    dispersion,
    ground_energy,
    mode_eigensystem,
    momentum_modes,
    spectral_gap,
)
from spinbattery.ed import DimerizedXY, build_hamiltonian, even_sector_ground_state
from spinbattery.xy import bloch_stack

# Frozen with a 50-digit mpmath evaluation of the closed-form structure
# constants at gamma=1.25, delta=0.3, n_dimers=4, q=1/2.
FROZEN_Z = -1.7949747468305832671 + 0.49497474683058326708j
FROZEN_W = -1.0062815664617709161 - 0.61871843353822908385j

# Frozen 50-digit dispersion at gamma=1.25, delta=0.3, n_dimers=4, q=3/2.
FROZEN_W1_Q32 = 3.0512539335885710625
FROZEN_W2_Q32 = 1.8193819190152814169

# Frozen 50-digit two-mode sum: ground energy at gamma=1.25, delta=0.3, Nd=2.
FROZEN_E0_ND2 = -4.5384125699780740311


def _random_params(rng):
    return ChainParams(
        gamma=float(rng.uniform(0.1, 3.0)),
        delta=float(rng.uniform(0.0, 2.5)),
        n_dimers=int(rng.integers(2, 9)),
    )


class TestChainParams:
    def test_valid(self):
        p = ChainParams(1.25, 0.3, 300)
        assert p.n_sites == 600
        assert p.energy_scale == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0, delta=0.3, n_dimers=4),
            dict(gamma=-1.0, delta=0.3, n_dimers=4),
            dict(gamma=1.0, delta=-0.1, n_dimers=4),
            dict(gamma=1.0, delta=0.3, n_dimers=1),
            dict(gamma=1.0, delta=0.3, n_dimers=4, energy_scale=2.0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ChainParams(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["gamma", "delta"])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"gamma": 1.0, "delta": 0.3, "n_dimers": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChainParams(**kwargs)


class TestModeIndex:
    def test_k(self):
        assert ModeIndex(0.5, 4).k == pytest.approx(np.pi / 4, abs=1e-15)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 4.5, 0.25])
    def test_rejects(self, q):
        with pytest.raises(ValueError):
            ModeIndex(q, 4)

    def test_momentum_modes(self):
        modes = momentum_modes(5)
        assert [m.q for m in modes] == [0.5, 1.5, 2.5, 3.5, 4.5]
        assert all(0 < m.k < 2 * np.pi for m in modes)


class TestBlochHamiltonian:
    def test_fully_dimerized(self):
        # delta = 1 switches off inter-dimer hopping: Z and W lose their
        # momentum dependence entirely.
        for q in (0.5, 1.5, 2.5):
            b = bloch_hamiltonian(ChainParams(1.0, 1.0, 3), ModeIndex(q, 3))
            assert b.zq == pytest.approx(-2.0, abs=1e-15)
            assert b.wq == pytest.approx(-2.0, abs=1e-15)

    def test_zone_edge_zero_hopping(self):
        # undimerized chain at k = pi: the two hopping phases cancel
        b = bloch_hamiltonian(ChainParams(0.7, 0.0, 3), ModeIndex(1.5, 3))
        assert abs(b.zq) < 1e-15
        assert b.wq == pytest.approx(-1.4, abs=1e-15)

    def test_derived_values(self):
        b = bloch_hamiltonian(ChainParams(1.25, 0.3, 4), ModeIndex(0.5, 4))
        assert b.zq == pytest.approx(FROZEN_Z, abs=1e-15)
        assert b.wq == pytest.approx(FROZEN_W, abs=1e-15)

    def test_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = _random_params(rng)
            q = float(rng.integers(0, p.n_dimers)) + 0.5
            b = bloch_hamiltonian(p, ModeIndex(q, p.n_dimers))
            h = b.entries
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14
            assert np.trace(h) == 0
            # A-A / B-B entries and the diagonal are structurally zero
            for i, j in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)]:
                assert h[i, j] == 0
            assert h[0, 1] == b.zq
            assert h[0, 3] == -b.wq

    def test_rejects_mismatched_mode(self):
        with pytest.raises(ValueError):
            bloch_hamiltonian(ChainParams(1.0, 0.5, 4), ModeIndex(0.5, 6))


class TestDispersion:
    def test_flat_bands(self):
        for q in (0.5, 1.5):
            w1, w2 = dispersion(ChainParams(1.0, 1.0, 2), ModeIndex(q, 2))
            assert w1 == pytest.approx(4.0, abs=1e-14)
            assert w2 == pytest.approx(0.0, abs=1e-14)

    def test_zone_center_of_reduced_variable(self):
        # pi q / Nd = pi/2 kills the cosine: bands are 2|delta +- gamma|
        w1, w2 = dispersion(ChainParams(1.25, 0.3, 3), ModeIndex(1.5, 3))
        assert w1 == pytest.approx(3.1, abs=1e-13)
        assert w2 == pytest.approx(1.9, abs=1e-13)

    def test_gap_closes_on_critical_line(self):
        n = 2000
        w1, w2 = dispersion(ChainParams(1.1, 1.0 / 1.1, n), ModeIndex(0.5, n))
        assert w2 < 10.0 / n

    def test_derived_values(self):
        w1, w2 = dispersion(ChainParams(1.25, 0.3, 4), ModeIndex(1.5, 4))
        assert w1 == pytest.approx(FROZEN_W1_Q32, abs=1e-13)
        assert w2 == pytest.approx(FROZEN_W2_Q32, abs=1e-13)

    def test_symmetry_q_to_n_minus_q(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = _random_params(rng)
            j = int(rng.integers(0, p.n_dimers))
            a = dispersion(p, ModeIndex(j + 0.5, p.n_dimers))
            b = dispersion(p, ModeIndex(p.n_dimers - j - 0.5, p.n_dimers))
            assert a[0] == pytest.approx(b[0], abs=1e-12)
            assert a[1] == pytest.approx(b[1], abs=1e-12)


def _charpoly_roots(h):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion-matrix
    roots: an eigensolver-independent path."""
    c = [1.0]
    m = np.zeros_like(h)
    for k in range(1, 5):
        m = h @ (m + c[-1] * np.eye(4))
        c.append(-np.trace(m).real / k)
    return np.sort(np.roots(c).real)


class TestModeEigensystem:
    def test_invariants(self):
        rng = np.random.default_rng(13)
        eye = np.eye(4)
        for _ in range(25):
            p = _random_params(rng)
            mode = ModeIndex(float(rng.integers(0, p.n_dimers)) + 0.5, p.n_dimers)
            spectrum = mode_eigensystem(p, mode)
            u = spectrum.eigvecs
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
            lam = np.array([spectrum.omega1, spectrum.omega2, -spectrum.omega1, -spectrum.omega2])
            h = bloch_hamiltonian(p, mode).entries
            assert np.max(np.abs(u.conj().T @ h @ u - np.diag(lam))) <= 1e-12
            assert np.max(np.abs((u * lam) @ u.conj().T - h)) <= 1e-12
            w1, w2 = dispersion(p, mode)
            assert spectrum.omega1 == pytest.approx(w1, abs=1e-12)
            assert spectrum.omega2 == pytest.approx(w2, abs=1e-12)
            assert spectrum.omega1 >= spectrum.omega2 >= 0.0

    def test_gauge_fixing(self):
        # Every eigenvector of this Bloch structure has all four moduli equal
        # to 1/2, so "largest modulus" is a four-way tie up to float noise.
        # The selected lead must be exactly real positive; it sits among the
        # entries within one ulp of the maximal modulus.
        rng = np.random.default_rng(14)
        for _ in range(15):
            p = _random_params(rng)
            mode = ModeIndex(float(rng.integers(0, p.n_dimers)) + 0.5, p.n_dimers)
            u = mode_eigensystem(p, mode).eigvecs
            for col in range(4):
                moduli = np.abs(u[:, col])
                near_max = np.nonzero(moduli >= moduli.max() * (1.0 - 1e-14))[0]
                leads = u[near_max, col]
                assert any(z.imag == 0.0 and z.real > 0.0 for z in leads)

    def test_flat_band_degenerate_case(self):
        # omega2 = 0 identically at gamma = delta = 1: the +-0 subspace is
        # degenerate but the returned basis must still be orthonormal.
        spectrum = mode_eigensystem(ChainParams(1.0, 1.0, 2), ModeIndex(0.5, 2))
        assert spectrum.omega1 == pytest.approx(4.0, abs=1e-13)
        assert spectrum.omega2 == pytest.approx(0.0, abs=1e-13)
        u = spectrum.eigvecs
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_against_characteristic_polynomial(self):
        p = ChainParams(1.25, 0.3, 4)
        mode = ModeIndex(1.5, 4)
        roots = _charpoly_roots(bloch_hamiltonian(p, mode).entries)
        spectrum = mode_eigensystem(p, mode)
        ref = np.sort([-spectrum.omega1, -spectrum.omega2, spectrum.omega2, spectrum.omega1])
        assert np.max(np.abs(roots - ref)) <= 1e-10

    def test_particle_hole_spectrum(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            p = _random_params(rng)
            vals = np.sort(np.linalg.eigvalsh(bloch_stack(p.gamma, p.delta, p.n_dimers)), axis=1)
            assert np.max(np.abs(vals + vals[:, ::-1])) <= 1e-12


class TestClassifyPhase:
    @pytest.mark.parametrize(
        "gamma,delta,expected",
        [
            (1.0, 0.5, Phase.FERROMAGNET_X),
            (0.25, 0.5, Phase.DIMER_ANTIALIGNED_Z),
            (1.0, 3.0, Phase.SPIN1_ANTIFERROMAGNET_X),
            (3.0, 0.5, Phase.DIMER_ALIGNED_Z),
        ],
    )
    def test_regions(self, gamma, delta, expected):
        phase = classify_phase(gamma, delta)
        assert phase is expected
        assert phase.region == expected.value

    def test_critical_lines(self):
        assert classify_phase(1.1, 1.0 / 1.1) is Phase.CRITICAL_GAMMA_DELTA
        assert classify_phase(2.0, 0.5) is Phase.CRITICAL_GAMMA_DELTA
        assert classify_phase(0.7, 0.7) is Phase.CRITICAL_DELTA_GAMMA
        # multicritical point: both conditions hold, gamma*delta label wins
        assert classify_phase(1.0, 1.0) is Phase.CRITICAL_GAMMA_DELTA

    def test_rejects(self):
        with pytest.raises(ValueError):
            classify_phase(0.0, 0.5)
        with pytest.raises(ValueError):
            classify_phase(-1.0, 0.5)
        with pytest.raises(ValueError):
            classify_phase(1.0, -0.5)


class TestGroundEnergy:
    def test_flat_bands(self):
        assert ground_energy(ChainParams(1.0, 1.0, 2)) == pytest.approx(-4.0, abs=1e-13)

    def test_derived_two_mode_sum(self):
        e0 = ground_energy(ChainParams(1.25, 0.3, 2))
        assert e0 == pytest.approx(FROZEN_E0_ND2, abs=1e-12)
        assert e0 < 0

    @pytest.mark.parametrize("n_sites", [4, 6, 8])
    def test_matches_even_sector_ed(self, n_sites):
        params = ChainParams(1.25, 0.3, n_sites // 2)
        ham = build_hamiltonian(DimerizedXY(1.25, 0.3), n_sites)
        psi = even_sector_ground_state(ham)
        e_ed = float(np.real(psi.conj() @ ham.matrix @ psi))
        assert ground_energy(params) == pytest.approx(e_ed, abs=1e-10)


class TestCriticalityGap:
    def test_gap_closes_only_on_boundaries(self):
        n = 2000
        # on both critical lines the minimum band energy drops below 10/Nd
        assert spectral_gap(ChainParams(1.1, 1.0 / 1.1, n)) < 10.0 / n
        assert spectral_gap(ChainParams(0.8, 0.8, n)) < 10.0 / n
        # away from them it stays of order one
        assert spectral_gap(ChainParams(1.25, 0.3, n)) > 0.3
        assert spectral_gap(ChainParams(0.5, 1.6, n)) > 0.3
