import numpy as np
import pytest

from spinbattery import ChainParams, ed, ground_energy
from spinbattery.ed import (
    DegenerateGroundStateError,
    DegenerateGroundStateWarning,
    DimerizedXY,
    TransverseIsing,
    _sector,
    build_hamiltonian,
    check_oracle_size,
    even_sector_ground_state,
    oracle_energy_trace,
)

from ed_reference import _block, embed_sector, kron_hamiltonian, parity_diagonal, sector


def _sectors(kind, n_sites, parity):
    """Every momentum sector block of one parity of the oracle."""
    length = n_sites // (2 if isinstance(kind, DimerizedXY) else 1)
    return [_sector(kind, n_sites, parity, m) for m in range(length)]


def _spectrum(kind, n_sites, parities=(0, 1)):
    """The sector blocks' eigenvalues together: the spectrum of those parities."""
    blocks = [b for p in parities for b in _sectors(kind, n_sites, p)]
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))


def _ground(ham):
    """The oracle's initial state, placed in the full 2^N space."""
    vec, m = even_sector_ground_state(ham)
    return embed_sector(vec, ham.kind, ham.n_sites, m)


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
        # each parity block of the reference the sectors are checked
        # against, bitwise, including the doubled bond of the two-site ring
        ref = kron_hamiltonian(kind, n_sites)
        even, odd = sector(n_sites, 0), sector(n_sites, 1)
        assert np.array_equal(_block(kind, n_sites, 0), ref[np.ix_(even, even)])
        assert np.array_equal(_block(kind, n_sites, 1), ref[np.ix_(odd, odd)])

    def test_two_site_ising_zero_field(self):
        # two x-bonds between two sites collapse onto a single sx sx,
        # spectrum +-1 doubly degenerate
        vals = _spectrum(TransverseIsing(0.0), 2)
        assert np.allclose(vals, [-1.0, -1.0, 1.0, 1.0], atol=1e-13)

    def test_two_site_fully_dimerized_xy(self):
        # single dimer bond of strength 2 at gamma=1: -2 sx sx, hand
        # spectrum +-2 doubly degenerate
        vals = _spectrum(DimerizedXY(1.0, 1.0), 2)
        assert np.allclose(vals, [-2.0, -2.0, 2.0, 2.0], atol=1e-13)

    @pytest.mark.parametrize(
        "kind", [DimerizedXY(1.25, 0.3), DimerizedXY(0.6, 1.7), TransverseIsing(0.8)]
    )
    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_invariants(self, kind, n_sites):
        for h in _sectors(kind, n_sites, 0) + _sectors(kind, n_sites, 1):
            assert np.max(np.abs(h - h.conj().T), initial=0.0) <= 1e-13
        # parity commutes with the full reference, which is what lets the
        # oracle work inside one block
        h = kron_hamiltonian(kind, n_sites)
        pi = parity_diagonal(n_sites)
        # [H, P] with diagonal P: commutator entries are h_ij (p_i - p_j)
        assert np.max(np.abs(h * (pi[:, None] - pi[None, :]))) <= 1e-13

    def test_rejects(self):
        with pytest.raises(ValueError):
            build_hamiltonian(TransverseIsing(1.0), 1)
        with pytest.raises(ValueError):
            build_hamiltonian(TransverseIsing(1.0), 15)
        with pytest.raises(ValueError):
            build_hamiltonian(DimerizedXY(1.0, 0.5), 5)
        with pytest.raises(TypeError):
            build_hamiltonian("ising", 4)

    @pytest.mark.parametrize(
        "kind, field",
        [
            (DimerizedXY(float("nan"), 0.3), "gamma"),
            (DimerizedXY(1.25, float("inf")), "delta"),
            (TransverseIsing(float("nan")), "h"),
        ],
    )
    def test_rejects_a_field_that_is_not_finite(self, kind, field, monkeypatch):
        # named up front, before any orbit is built, not as a LAPACK failure
        # deep inside the evolution
        monkeypatch.setattr(ed, "_orbits", lambda *args: pytest.fail("orbits were built"))
        with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
            build_hamiltonian(kind, 4)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
            check_oracle_size(kind, 4, 10)


# Points on both sides of each critical line: Ising h = +-1, XY delta =
# gamma and gamma delta = 1.
SIDES = [
    *(pytest.param(DimerizedXY(g, d), n, id=f"xy{g},{d}-{n}")
      for g, d in [(1.25, 0.3), (1.25, 0.9), (0.6, 1.5), (0.6, 1.8)] for n in range(2, 11, 2)),
    *(pytest.param(TransverseIsing(h), n, id=f"ising{h}-{n}")
      for h in (-1.5, -0.5, 0.5, 1.5) for n in range(2, 11)),
]

# Battery -> charger quenches across those lines, with a unique even ground
# state at every size listed.
PROTOCOLS = [
    *(pytest.param(DimerizedXY(1.25, 0.3), DimerizedXY(1.25, 0.9), n, id=f"xy-cross-gd-{n}")
      for n in range(4, 11, 2)),
    *(pytest.param(DimerizedXY(0.6, 0.3), DimerizedXY(0.6, 1.8), n, id=f"xy-cross-both-{n}")
      for n in range(4, 11, 2)),
    *(pytest.param(TransverseIsing(0.5), TransverseIsing(1.5), n, id=f"ising-cross-1-{n}")
      for n in range(4, 11, 2)),
    *(pytest.param(TransverseIsing(-1.5), TransverseIsing(-0.5), n, id=f"ising-cross-m1-{n}")
      for n in range(3, 11)),
]


class TestSectors:
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("kind, n_sites", SIDES)
    def test_spectra_match_block_reference(self, kind, n_sites, parity):
        # N = 2 has a single XY translation (L = 1): every orbit has period 1
        ref = np.linalg.eigvalsh(_block(kind, n_sites, parity))
        got = _spectrum(kind, n_sites, (parity,))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("kind, n_sites", SIDES)
    def test_opposite_momenta_are_complex_conjugates(self, kind, n_sites):
        # what lets even_sector_ground_state diagonalise only m <= L / 2
        for parity in (0, 1):
            blocks = _sectors(kind, n_sites, parity)
            for m in range(1, len(blocks)):
                assert np.max(np.abs(blocks[-m] - blocks[m].conj()), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("battery_kind, charger_kind, n_sites", PROTOCOLS)
    def test_trace_matches_block_evolution(self, battery_kind, charger_kind, n_sites):
        battery = build_hamiltonian(battery_kind, n_sites)
        charger = build_hamiltonian(charger_kind, n_sites)
        times = np.linspace(0.0, 30.0, 150)
        trace = oracle_energy_trace(battery, charger, times)
        h_b = _block(battery_kind, n_sites, 0)
        vals, vecs = np.linalg.eigh(h_b)
        w, qmat = np.linalg.eigh(_block(charger_kind, n_sites, 0))
        coeff = qmat.T @ vecs[:, 0]
        ref = [
            float(np.real(psi.conj() @ h_b @ psi)) - vals[0]
            for psi in (qmat @ (np.exp(-1j * w * t) * coeff) for t in times)
        ]
        assert np.max(np.abs(trace.values - ref)) <= 1e-12
        psi0 = _ground(battery)
        e0 = float(np.real(psi0.conj() @ kron_hamiltonian(battery_kind, n_sites) @ psi0))
        assert e0 == pytest.approx(vals[0], abs=1e-10)

    @pytest.mark.parametrize("n_sites", [6, 10])
    def test_ground_pair_outside_zero_momentum_raises(self, n_sites):
        # the lowest even states are a +-k pair; k = 0 alone holds a unique,
        # higher minimum that a k = 0-only oracle would have returned
        kind = DimerizedXY(0.6, 1.5)
        zero = np.linalg.eigvalsh(_sector(kind, n_sites, 0, 0))
        assert zero[1] - zero[0] > 1.0
        assert zero[0] - _spectrum(kind, n_sites, (0,))[0] > 0.3
        with pytest.raises(DegenerateGroundStateError, match="even-sector"):
            even_sector_ground_state(build_hamiltonian(kind, n_sites))


class TestEvenSectorGroundState:
    def test_parity_and_norm(self):
        for kind in (DimerizedXY(1.25, 0.3), TransverseIsing(0.8)):
            psi = _ground(build_hamiltonian(kind, 6))
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            parity = np.real(psi.conj() @ (parity_diagonal(6) * psi))
            assert parity == pytest.approx(1.0, abs=1e-12)

    def test_deep_paramagnet_polarized(self):
        # large +h sz/2 favors all spins down: the last basis state dominates
        psi = _ground(build_hamiltonian(TransverseIsing(2.0), 4))
        assert abs(psi[-1]) ** 2 > 0.9

    def test_ground_energy_pin(self):
        # even-sector ED energy equals the momentum-space ground energy:
        # this fixes every prefactor convention at once
        psi = _ground(build_hamiltonian(DimerizedXY(1.25, 0.3), 4))
        e_ed = float(np.real(psi.conj() @ kron_hamiltonian(DimerizedXY(1.25, 0.3), 4) @ psi))
        assert e_ed == pytest.approx(ground_energy(ChainParams(1.25, 0.3, 2)), abs=1e-10)

    def test_degenerate_flat_band_raises(self):
        ham = build_hamiltonian(DimerizedXY(1.0, 1.0), 4)
        with pytest.warns(DegenerateGroundStateWarning, match="even and odd"):
            with pytest.raises(DegenerateGroundStateError):
                even_sector_ground_state(ham)

    def test_degenerate_even_sector_raises(self):
        # odd Ising rings at h > 0: there is no unique state to return
        with pytest.raises(DegenerateGroundStateError, match="even-sector"):
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

    def test_initial_state_comes_from_even_sector_ground_state(self, monkeypatch):
        # one ground-state routine: the oracle calls the public one (which
        # is also what a per-function timing of it measures)
        calls = []
        real = ed.even_sector_ground_state

        def spy(ham):
            calls.append(ham)
            return real(ham)

        monkeypatch.setattr(ed, "even_sector_ground_state", spy)
        battery = build_hamiltonian(TransverseIsing(0.8), 4)
        charger = build_hamiltonian(TransverseIsing(1.5), 4)
        oracle_energy_trace(battery, charger, np.array([0.0, 1.0]))
        assert len(calls) == 1 and calls[0] is battery

    def test_rejects_size_mismatch(self):
        a = build_hamiltonian(TransverseIsing(0.5), 4)
        b = build_hamiltonian(TransverseIsing(1.5), 6)
        with pytest.raises(ValueError):
            oracle_energy_trace(a, b, np.array([0.0]))
        # the two models have different translation sectors
        with pytest.raises(ValueError):
            oracle_energy_trace(a, build_hamiltonian(DimerizedXY(1.25, 0.3), 4), np.array([0.0]))

    @pytest.mark.parametrize(
        "times, message",
        [
            ([np.nan], "times must be finite"),
            ([0.0, np.inf], "times must be finite"),
            (1.0, "times must be a 1-D array"),
            ([[0.0, 1.0]], "times must be a 1-D array"),
            ([-1e308], r"times must be finite and at most 1e\+100 in magnitude"),
        ],
    )
    def test_rejects_bad_times(self, times, message):
        battery = build_hamiltonian(TransverseIsing(0.5), 4)
        charger = build_hamiltonian(TransverseIsing(1.5), 4)
        with pytest.raises(ValueError, match=message):
            oracle_energy_trace(battery, charger, times)

    @pytest.mark.parametrize("times", [[1.0, 0.5], [0.0, 1.0, 1.0]])
    def test_time_order_is_checked_before_any_diagonalisation(self, monkeypatch, times):
        monkeypatch.setattr(ed, "check_oracle_size", lambda *a: pytest.fail("size checked"))
        monkeypatch.setattr(ed, "even_sector_ground_state", lambda h: pytest.fail("diagonalised"))
        battery = build_hamiltonian(DimerizedXY(1.25, 0.3), 8)
        charger = build_hamiltonian(DimerizedXY(1.25, 0.9), 8)
        with pytest.raises(ValueError, match="times must be strictly ascending"):
            oracle_energy_trace(battery, charger, times)

    @pytest.mark.parametrize("kind", [DimerizedXY(1.25, 0.3), TransverseIsing(0.8)])
    def test_work_budget_is_checked_before_any_diagonalisation(self, monkeypatch, kind):
        def no_sector(*args):
            raise AssertionError("a sector was built")

        monkeypatch.setattr(ed, "_sector", no_sector)
        ham = build_hamiltonian(kind, 14)
        with pytest.raises(ValueError, match="100000 samples on the 14-site oracle"):
            oracle_energy_trace(ham, ham, 0.1 * np.arange(10**5))

    def test_negative_times_evolve_backwards(self):
        # the spin Hamiltonians are real and the ground state unique, so dE(-t) = dE(t)
        battery = build_hamiltonian(DimerizedXY(1.25, 0.3), 6)
        charger = build_hamiltonian(DimerizedXY(1.25, 0.9), 6)
        values = oracle_energy_trace(battery, charger, np.array([-2.0, -1.0, 1.0, 2.0])).values
        assert np.allclose(values, values[::-1], atol=1e-12)

    def test_conservation_laws(self):
        # evolve manually through the charger's spectral decomposition and
        # confirm what oracle_energy_trace relies on: unit norm, even parity,
        # constant charger energy, and agreement with the returned trace
        battery = build_hamiltonian(DimerizedXY(1.25, 0.3), 6)
        charger = build_hamiltonian(DimerizedXY(1.25, 0.9), 6)
        h_b = kron_hamiltonian(battery.kind, 6)
        h_c = kron_hamiltonian(charger.kind, 6)
        psi0 = _ground(battery)
        e0 = float(np.real(psi0.conj() @ h_b @ psi0))
        w, qmat = np.linalg.eigh(h_c)
        coeff = qmat.conj().T @ psi0
        times = np.linspace(0.0, 12.0, 25)
        trace = oracle_energy_trace(battery, charger, times)
        pi = parity_diagonal(6)
        e_charge0 = float(np.real(psi0.conj() @ h_c @ psi0))
        for i, t in enumerate(times):
            psi_t = qmat @ (np.exp(-1j * w * t) * coeff)
            assert np.linalg.norm(psi_t) == pytest.approx(1.0, abs=1e-12)
            parity = float(np.real(psi_t.conj() @ (pi * psi_t)))
            assert parity == pytest.approx(1.0, abs=1e-12)
            e_charge = float(np.real(psi_t.conj() @ h_c @ psi_t))
            assert e_charge == pytest.approx(e_charge0, abs=1e-12)
            de = float(np.real(psi_t.conj() @ h_b @ psi_t)) - e0
            assert de == pytest.approx(trace.values[i], abs=1e-12)

    def test_ising_blocked_matches_per_time_loop(self):
        # 150 times span three GEMM blocks, the last one partial
        battery = build_hamiltonian(TransverseIsing(0.8), 6)
        charger = build_hamiltonian(TransverseIsing(1.5), 6)
        h_b = kron_hamiltonian(battery.kind, 6)
        psi0 = _ground(battery)
        e0 = float(np.real(psi0.conj() @ h_b @ psi0))
        w, qmat = np.linalg.eigh(kron_hamiltonian(charger.kind, 6))
        coeff = qmat.conj().T @ psi0
        times = np.linspace(0.0, 30.0, 150)
        trace = oracle_energy_trace(battery, charger, times)
        for i, t in enumerate(times):
            psi_t = qmat @ (np.exp(-1j * w * t) * coeff)
            de = float(np.real(psi_t.conj() @ h_b @ psi_t)) - e0
            assert de == pytest.approx(trace.values[i], abs=1e-12)
