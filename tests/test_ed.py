import numpy as np
import pytest

from spinbattery import ChainParams, ground_energy
from spinbattery.ed import (
    DegenerateGroundStateError,
    DegenerateGroundStateWarning,
    DimerizedXY,
    TransverseIsing,
    build_hamiltonian,
    even_sector_ground_state,
    oracle_energy_trace,
    parity_diagonal,
)

# Reference construction that shares no code with build_hamiltonian: every
# bond term is a Kronecker product of 2x2 operators, site 1 leftmost.
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_ID = np.eye(2)
# sy x sy = -(isy) x (isy); isy is real, so the reference stays in float64.
_ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _kron_chain(ops) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _two_site(op_a, op_b, j, n):
    """op_a at site j, op_b at site j+1 (1-based, periodic)."""
    ops = [_ID] * n
    ops[(j - 1) % n] = op_a
    ops[j % n] = op_b
    return _kron_chain(ops)


def kron_hamiltonian(kind, n_sites) -> np.ndarray:
    h = np.zeros((2**n_sites, 2**n_sites))
    if isinstance(kind, DimerizedXY):
        for j in range(1, n_sites + 1):
            bond = 1.0 - (-1.0) ** j * kind.delta
            h -= bond * (1.0 + kind.gamma) / 2.0 * _two_site(_SX, _SX, j, n_sites)
            h -= bond * (1.0 - kind.gamma) / 2.0 * (-_two_site(_ISY, _ISY, j, n_sites))
    else:
        for j in range(1, n_sites + 1):
            h += 0.5 * _two_site(_SX, _SX, j, n_sites)
            ops = [_ID] * n_sites
            ops[j - 1] = _SZ
            h += 0.5 * kind.h * _kron_chain(ops)
    return h


class TestBuildHamiltonian:
    @pytest.mark.parametrize(
        "kind, n_sites",
        [
            pytest.param(k, n, id=f"{k!r}-{n}".replace(" ", ""))
            for k, sizes in [
                (DimerizedXY(1.25, 0.3), range(2, 11, 2)),
                (DimerizedXY(0.6, 1.7), range(2, 11, 2)),
                (TransverseIsing(0.8), range(2, 11)),
                (TransverseIsing(-2.5), range(2, 11)),
            ]
            for n in sizes
        ],
    )
    def test_matches_kron_reference(self, kind, n_sites):
        # bitwise, including the doubled bond of the two-site ring
        ham = build_hamiltonian(kind, n_sites)
        assert np.array_equal(ham.matrix, kron_hamiltonian(kind, n_sites))

    def test_two_site_ising_zero_field(self):
        # two x-bonds between two sites collapse onto a single sx sx,
        # spectrum +-1 doubly degenerate
        ham = build_hamiltonian(TransverseIsing(0.0), 2)
        vals = np.sort(np.linalg.eigvalsh(ham.matrix))
        assert np.allclose(vals, [-1.0, -1.0, 1.0, 1.0], atol=1e-13)

    def test_two_site_fully_dimerized_xy(self):
        # single dimer bond of strength 2 at gamma=1: -2 sx sx, hand
        # spectrum +-2 doubly degenerate
        ham = build_hamiltonian(DimerizedXY(1.0, 1.0), 2)
        vals = np.sort(np.linalg.eigvalsh(ham.matrix))
        assert np.allclose(vals, [-2.0, -2.0, 2.0, 2.0], atol=1e-13)

    @pytest.mark.parametrize(
        "kind", [DimerizedXY(1.25, 0.3), DimerizedXY(0.6, 1.7), TransverseIsing(0.8)]
    )
    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_invariants(self, kind, n_sites):
        ham = build_hamiltonian(kind, n_sites)
        h = ham.matrix
        assert np.max(np.abs(h - h.conj().T)) <= 1e-13
        pi = parity_diagonal(n_sites)
        # [H, P] with diagonal P: commutator entries are h_ij (p_i - p_j)
        assert np.max(np.abs(h * (pi[:, None] - pi[None, :]))) <= 1e-13

    def test_rejects(self):
        with pytest.raises(ValueError):
            build_hamiltonian(TransverseIsing(1.0), 1)
        with pytest.raises(ValueError):
            build_hamiltonian(TransverseIsing(1.0), 13)
        with pytest.raises(ValueError):
            build_hamiltonian(DimerizedXY(1.0, 0.5), 5)
        with pytest.raises(TypeError):
            build_hamiltonian("ising", 4)


class TestEvenSectorGroundState:
    def test_parity_and_norm(self):
        for kind in (DimerizedXY(1.25, 0.3), TransverseIsing(0.8)):
            ham = build_hamiltonian(kind, 6)
            psi = even_sector_ground_state(ham)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            parity = np.real(psi.conj() @ (parity_diagonal(6) * psi))
            assert parity == pytest.approx(1.0, abs=1e-12)

    def test_deep_paramagnet_polarized(self):
        # large +h sz/2 favors all spins down: the last basis state dominates
        ham = build_hamiltonian(TransverseIsing(2.0), 4)
        psi = even_sector_ground_state(ham)
        assert abs(psi[-1]) ** 2 > 0.9

    def test_ground_energy_pin(self):
        # even-sector ED energy equals the momentum-space ground energy:
        # this fixes every prefactor convention at once
        ham = build_hamiltonian(DimerizedXY(1.25, 0.3), 4)
        psi = even_sector_ground_state(ham)
        e_ed = float(np.real(psi.conj() @ ham.matrix @ psi))
        assert e_ed == pytest.approx(ground_energy(ChainParams(1.25, 0.3, 2)), abs=1e-10)

    def test_degenerate_flat_band_warns(self):
        ham = build_hamiltonian(DimerizedXY(1.0, 1.0), 4)
        with pytest.warns(DegenerateGroundStateWarning):
            even_sector_ground_state(ham)

    def test_degenerate_even_sector_only_warns(self):
        # odd Ising rings at h > 0: the caller gets a state and a warning
        with pytest.warns(DegenerateGroundStateWarning, match="even-sector"):
            even_sector_ground_state(build_hamiltonian(TransverseIsing(0.8), 5))


class TestOracleTrace:
    def test_charger_equals_battery_is_flat(self):
        ham = build_hamiltonian(DimerizedXY(1.25, 0.3), 6)
        trace = oracle_energy_trace(ham, ham, np.linspace(0.0, 5.0, 11))
        assert np.max(np.abs(trace.values)) <= 1e-12

    def test_degenerate_battery_raises(self):
        battery = build_hamiltonian(TransverseIsing(0.8), 5)
        charger = build_hamiltonian(TransverseIsing(1.5), 5)
        with pytest.raises(DegenerateGroundStateError):
            oracle_energy_trace(battery, charger, np.array([0.0, 1.0]))

    def test_even_odd_degeneracy_only_warns(self):
        # even and odd minima coincide at zero field, the even one is unique
        battery = build_hamiltonian(TransverseIsing(0.0), 4)
        charger = build_hamiltonian(TransverseIsing(0.5), 4)
        with pytest.warns(DegenerateGroundStateWarning, match="even and odd"):
            trace = oracle_energy_trace(battery, charger, np.array([0.0, 1.0]))
        assert trace.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_size_mismatch(self):
        a = build_hamiltonian(TransverseIsing(0.5), 4)
        b = build_hamiltonian(TransverseIsing(1.5), 6)
        with pytest.raises(ValueError):
            oracle_energy_trace(a, b, np.array([0.0]))

    def test_conservation_laws(self):
        # evolve manually through the charger's spectral decomposition and
        # confirm what oracle_energy_trace relies on: unit norm, even parity,
        # constant charger energy, and agreement with the returned trace
        battery = build_hamiltonian(DimerizedXY(1.25, 0.3), 6)
        charger = build_hamiltonian(DimerizedXY(1.25, 0.9), 6)
        psi0 = even_sector_ground_state(battery)
        e0 = float(np.real(psi0.conj() @ battery.matrix @ psi0))
        w, qmat = np.linalg.eigh(charger.matrix)
        coeff = qmat.conj().T @ psi0
        times = np.linspace(0.0, 12.0, 25)
        trace = oracle_energy_trace(battery, charger, times)
        pi = parity_diagonal(6)
        e_charge0 = float(np.real(psi0.conj() @ charger.matrix @ psi0))
        for i, t in enumerate(times):
            psi_t = qmat @ (np.exp(-1j * w * t) * coeff)
            assert np.linalg.norm(psi_t) == pytest.approx(1.0, abs=1e-12)
            parity = float(np.real(psi_t.conj() @ (pi * psi_t)))
            assert parity == pytest.approx(1.0, abs=1e-12)
            e_charge = float(np.real(psi_t.conj() @ charger.matrix @ psi_t))
            assert e_charge == pytest.approx(e_charge0, abs=1e-12)
            de = float(np.real(psi_t.conj() @ battery.matrix @ psi_t)) - e0
            assert de == pytest.approx(trace.values[i], abs=1e-12)

    def test_ising_blocked_matches_per_time_loop(self):
        # 150 times span three GEMM blocks, the last one partial
        battery = build_hamiltonian(TransverseIsing(0.8), 6)
        charger = build_hamiltonian(TransverseIsing(1.5), 6)
        psi0 = even_sector_ground_state(battery)
        e0 = float(np.real(psi0.conj() @ battery.matrix @ psi0))
        w, qmat = np.linalg.eigh(charger.matrix)
        coeff = qmat.conj().T @ psi0
        times = np.linspace(0.0, 30.0, 150)
        trace = oracle_energy_trace(battery, charger, times)
        for i, t in enumerate(times):
            psi_t = qmat @ (np.exp(-1j * w * t) * coeff)
            de = float(np.real(psi_t.conj() @ battery.matrix @ psi_t)) - e0
            assert de == pytest.approx(trace.values[i], abs=1e-12)
