import numpy as np
import pytest

from spinbattery import (
    ChainParams,
    Phase,
    bloch_stack,
    classify_phase,
    dispersion_curves,
    eigensystem_stack,
    ground_energy,
)
from spinbattery.ed import DimerizedXY, _sector, build_hamiltonian, even_sector_ground_state
from spinbattery.xy import _bloch_entries, structure_constants

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0, delta=0.3, n_dimers=4),
            dict(gamma=-1.0, delta=0.3, n_dimers=4),
            dict(gamma=1.0, delta=-0.1, n_dimers=4),
            dict(gamma=1.0, delta=0.3, n_dimers=1),
            dict(gamma=1.0, delta=0.3, n_dimers=10**6 + 1),
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


def _eigensystem(p):
    return eigensystem_stack(bloch_stack(p.gamma, p.delta, p.n_dimers))


class TestModeIndex:
    # row i of every batched per-mode array is the mode q = i + 1/2,
    # at momentum k = 2 pi q / n_dimers
    def test_k(self):
        z, w = structure_constants(1.25, 0.3, np.pi / 4)
        assert np.max(np.abs(bloch_stack(1.25, 0.3, 4)[0] - _bloch_entries(z, w))) <= 1e-15

    def test_momentum_modes(self):
        q = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
        x = np.pi * q / 5
        w1 = 2 * np.sqrt((1 + 1.25 * 0.3) ** 2 * np.cos(x) ** 2 + (0.3 + 1.25) ** 2 * np.sin(x) ** 2)
        assert bloch_stack(1.25, 0.3, 5).shape == (5, 4, 4)
        assert np.max(np.abs(dispersion_curves(1.25, 0.3, 5)[:, 0] - w1)) <= 1e-14


class TestBlochHamiltonian:
    def test_fully_dimerized(self):
        # delta = 1 switches off inter-dimer hopping: Z and W lose their
        # momentum dependence entirely.
        h = bloch_stack(1.0, 1.0, 3)
        assert np.max(np.abs(h[:, 0, 1] - (-2.0))) <= 1e-15
        assert np.max(np.abs(-h[:, 0, 3] - (-2.0))) <= 1e-15

    def test_zone_edge_zero_hopping(self):
        # undimerized chain at k = pi (q = 3/2 of three dimers): the two
        # hopping phases cancel
        h = bloch_stack(0.7, 0.0, 3)[1]
        assert abs(h[0, 1]) < 1e-15
        assert -h[0, 3] == pytest.approx(-1.4, abs=1e-15)

    def test_derived_values(self):
        h = bloch_stack(1.25, 0.3, 4)[0]
        assert h[0, 1] == pytest.approx(FROZEN_Z, abs=1e-15)
        assert -h[0, 3] == pytest.approx(FROZEN_W, abs=1e-15)

    def test_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = _random_params(rng)
            i = int(rng.integers(0, p.n_dimers))
            h = bloch_stack(p.gamma, p.delta, p.n_dimers)[i]
            k = 2.0 * np.pi * (np.arange(p.n_dimers) + 0.5) / p.n_dimers
            z, w = (c[i] for c in structure_constants(p.gamma, p.delta, k))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14
            assert np.trace(h) == 0
            # A-A / B-B entries and the diagonal are structurally zero
            for a, b in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)]:
                assert h[a, b] == 0
            assert h[0, 1] == z
            assert h[0, 3] == -w


class TestDispersion:
    def test_flat_bands(self):
        bands = dispersion_curves(1.0, 1.0, 2)
        assert np.max(np.abs(bands[:, 0] - 4.0)) <= 1e-14
        assert np.max(np.abs(bands[:, 1])) <= 1e-14

    def test_zone_center_of_reduced_variable(self):
        # pi q / Nd = pi/2 kills the cosine: bands are 2|delta +- gamma|
        w1, w2 = dispersion_curves(1.25, 0.3, 3)[1]
        assert w1 == pytest.approx(3.1, abs=1e-13)
        assert w2 == pytest.approx(1.9, abs=1e-13)

    def test_gap_closes_on_critical_line(self):
        n = 2000
        w1, w2 = dispersion_curves(1.1, 1.0 / 1.1, n)[0]
        assert w2 < 10.0 / n

    def test_derived_values(self):
        w1, w2 = dispersion_curves(1.25, 0.3, 4)[1]
        assert w1 == pytest.approx(FROZEN_W1_Q32, abs=1e-13)
        assert w2 == pytest.approx(FROZEN_W2_Q32, abs=1e-13)

    def test_symmetry_q_to_n_minus_q(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = _random_params(rng)
            j = int(rng.integers(0, p.n_dimers))
            bands = dispersion_curves(p.gamma, p.delta, p.n_dimers)
            a, b = bands[j], bands[p.n_dimers - 1 - j]
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
            i = int(rng.integers(0, p.n_dimers))
            omegas, vecs = _eigensystem(p)
            w1, w2 = omegas[i]
            u = vecs[i]
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
            lam = np.array([w1, w2, -w1, -w2])
            h = bloch_stack(p.gamma, p.delta, p.n_dimers)[i]
            assert np.max(np.abs(u.conj().T @ h @ u - np.diag(lam))) <= 1e-12
            assert np.max(np.abs((u * lam) @ u.conj().T - h)) <= 1e-12
            bands = dispersion_curves(p.gamma, p.delta, p.n_dimers)
            assert w1 == pytest.approx(bands[i, 0], abs=1e-12)
            assert w2 == pytest.approx(bands[i, 1], abs=1e-12)
            assert w1 >= w2 >= 0.0

    def test_gauge_fixing(self):
        # Every eigenvector of this Bloch structure has all four moduli equal
        # to 1/2, so "largest modulus" is a four-way tie up to float noise.
        # The selected lead must be exactly real positive; it sits among the
        # entries within one ulp of the maximal modulus.
        rng = np.random.default_rng(14)
        for _ in range(15):
            p = _random_params(rng)
            u = _eigensystem(p)[1][int(rng.integers(0, p.n_dimers))]
            for col in range(4):
                moduli = np.abs(u[:, col])
                near_max = np.nonzero(moduli >= moduli.max() * (1.0 - 1e-14))[0]
                leads = u[near_max, col]
                assert any(z.imag == 0.0 and z.real > 0.0 for z in leads)

    def test_flat_band_degenerate_case(self):
        # omega2 = 0 identically at gamma = delta = 1: the +-0 subspace is
        # degenerate but the returned basis must still be orthonormal.
        omegas, vecs = _eigensystem(ChainParams(1.0, 1.0, 2))
        assert omegas[0, 0] == pytest.approx(4.0, abs=1e-13)
        assert omegas[0, 1] == pytest.approx(0.0, abs=1e-13)
        u = vecs[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_against_characteristic_polynomial(self):
        p = ChainParams(1.25, 0.3, 4)
        roots = _charpoly_roots(bloch_stack(p.gamma, p.delta, p.n_dimers)[1])
        w1, w2 = _eigensystem(p)[0][1]
        ref = np.sort([-w1, -w2, w2, w1])
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
        psi, m = even_sector_ground_state(ham)
        e_ed = float(np.real(psi.conj() @ _sector(ham.kind, n_sites, 0, m) @ psi))
        assert ground_energy(params) == pytest.approx(e_ed, abs=1e-10)


class TestCriticalityGap:
    def test_gap_closes_only_on_boundaries(self):
        n = 2000
        # on both critical lines the minimum band energy drops below 10/Nd
        assert dispersion_curves(1.1, 1.0 / 1.1, n).min() < 10.0 / n
        assert dispersion_curves(0.8, 0.8, n).min() < 10.0 / n
        # away from them it stays of order one
        assert dispersion_curves(1.25, 0.3, n).min() > 0.3
        assert dispersion_curves(0.5, 1.6, n).min() > 0.3
