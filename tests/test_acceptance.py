"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 7 is split: the revival energy density E^r / n_dimers is
NOT size independent at the tested sizes (the revival maximum exceeds the
plateau by an amount growing only sublinearly with size), so that single
sub-assertion fails honestly; see test_criterion_7b for the measured values.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinbattery import (
    ChainParams,
    IsingParams,
    QuenchProtocol,
    asymptotic_energy,
    energy_at_times,
    energy_trace,
    ground_energy,
    ising_energy_at_times,
    occupations_all,
    resolution_bound,
    scaling_study,
    sweep_delta0,
)
from spinbattery.ed import (
    DimerizedXY,
    TransverseIsing,
    build_hamiltonian,
    even_sector_ground_state,
    oracle_energy_trace,
)
from spinbattery.regimes import (
    DT_SAFETY,
    analyze_trace,
    default_recurrence_window,
    linear_fit,
)

from bloch_reference import bloch_stack, eigensystem_stack
from ed_reference import embed_sector, kron_hamiltonian, parity_diagonal

XY_GAMMA, XY_D0, XY_D1 = 1.25, 0.3, 0.6
ISING_H0, ISING_H1 = 0.8, 0.7


def _report(criterion: str, detail: str) -> None:
    print(f"[criterion {criterion}] PASS: {detail}")


def test_criterion_1_xy_oracle_equivalence():
    times = 0.1 * np.arange(501)
    worst = 0.0
    for n_dimers in (2, 3, 4):
        protocol = QuenchProtocol(XY_GAMMA, XY_D0, XY_D1, n_dimers)
        engine = energy_at_times(protocol, times)
        battery = build_hamiltonian(DimerizedXY(XY_GAMMA, XY_D0), 2 * n_dimers)
        charger = build_hamiltonian(DimerizedXY(XY_GAMMA, XY_D0 + XY_D1), 2 * n_dimers)
        oracle = oracle_energy_trace(battery, charger, times)
        worst = max(worst, float(np.max(np.abs(engine - oracle.values))))
    assert worst <= 1e-8
    _report("1", f"XY engine vs ED max deviation {worst:.3e} <= 1e-8")


def test_criterion_2_ising_oracle_equivalence():
    times = 0.1 * np.arange(501)
    worst = 0.0
    for n_sites in (4, 6, 8):
        params = IsingParams(ISING_H0, ISING_H1, n_sites)
        engine = ising_energy_at_times(params, times)
        battery = build_hamiltonian(TransverseIsing(ISING_H0), n_sites)
        charger = build_hamiltonian(TransverseIsing(ISING_H0 + ISING_H1), n_sites)
        oracle = oracle_energy_trace(battery, charger, times)
        worst = max(worst, float(np.max(np.abs(engine - oracle.values))))
    assert worst <= 1e-8
    _report("2", f"Ising engine vs ED max deviation {worst:.3e} <= 1e-8")


def test_criterion_3_ground_energy_pin():
    worst = 0.0
    for n_dimers in (2, 3, 4):
        ham = build_hamiltonian(DimerizedXY(XY_GAMMA, XY_D0), 2 * n_dimers)
        vec, m = even_sector_ground_state(ham)
        psi = embed_sector(vec, ham.kind, ham.n_sites, m)
        e_ed = float(np.real(psi.conj() @ kron_hamiltonian(ham.kind, ham.n_sites) @ psi))
        e_free = ground_energy(ChainParams(XY_GAMMA, XY_D0, n_dimers))
        worst = max(worst, abs(e_ed - e_free))
    assert worst <= 1e-10
    _report("3", f"even-sector ED vs band-sum ground energy, max |diff| {worst:.3e}")


def test_criterion_4_reference_trace_three_regimes():
    protocol = QuenchProtocol(XY_GAMMA, XY_D0, XY_D1, 300)
    window = default_recurrence_window(300)
    dt = DT_SAFETY * resolution_bound(protocol)
    trace = energy_trace(protocol, window[1], dt)
    report = analyze_trace(trace, asymptotic_energy(protocol), window)
    assert 0.0 < report.tau_s <= 50.0
    mask = (trace.times >= 100.0) & (trace.times <= 500.0)
    plateau = trace.values[mask]
    rel_std = float(np.std(plateau) / np.mean(plateau))
    assert rel_std < 0.02
    assert 600.0 <= report.tau_r <= 800.0
    assert abs(report.e_r - report.e_s) <= 0.25 * report.e_s
    _report(
        "4",
        f"tau_s={report.tau_s:.3f}, plateau std/mean={rel_std:.4f}, "
        f"tau_r={report.tau_r:.1f}, e_r/e_s={report.e_r / report.e_s:.3f}",
    )


@pytest.fixture(scope="module")
def fig3_sweep():
    grid = [round(0.05 + 0.005 * i, 3) for i in range(71)]
    return grid, sweep_delta0(1.1, 0.8, 300, grid, workers=2)


def test_criterion_5_dimerization_sweep(fig3_sweep):
    grid, rows = fig3_sweep
    e_s = np.array([r.e_s_per for r in rows])
    e_r = np.array([r.e_r_per for r in rows])
    e_inf = np.array([r.e_inf_per for r in rows])
    params = np.array(grid)

    assert abs(params[int(np.argmax(e_s))] - 0.200) <= 0.005
    assert abs(params[int(np.argmax(e_r))] - 0.200) <= 0.005

    # local maxima of the revival curve away from the flat-band peak sit on
    # the two critical dimerizations of the charging chain
    local_max = [
        i
        for i in range(1, len(params) - 1)
        if e_r[i] > e_r[i - 1] and e_r[i] > e_r[i + 1] and abs(params[i] - 0.2) > 0.02
    ]
    assert any(abs(params[i] - 0.1091) <= 0.01 for i in local_max)
    assert any(abs(params[i] - 0.300) <= 0.01 for i in local_max)

    plateau = e_inf[(params >= 0.13) & (params <= 0.28)]
    rel_var = float((plateau.max() - plateau.min()) / plateau.mean())
    assert rel_var < 0.10

    # green-curve shape: steady rise before the first transition at 0.1091,
    # strict decrease past the second at 0.300
    rise = e_inf[params <= 0.105 + 1e-9]
    assert np.all(np.diff(rise) > 0.0)
    tail = e_inf[params > 0.31 + 1e-9]
    assert np.all(np.diff(tail) < 0.0)
    _report(
        "5",
        f"peaks at {params[int(np.argmax(e_s))]:.3f}/{params[int(np.argmax(e_r))]:.3f}, "
        f"spikes near 0.109 and 0.300, plateau var {rel_var:.4f}, rise/tail monotone",
    )


def test_criterion_6_field_sweep_argmax():
    grid = [round(0.4 + 0.005 * i, 3) for i in range(121)]
    vals = [asymptotic_energy(IsingParams(h0, 0.25, 600)) / 600 for h0 in grid]
    best = grid[int(np.argmax(vals))]
    assert abs(best - 0.750) <= 0.005
    _report("6", f"asymptotic density maximal at h0={best:.3f}")


@pytest.fixture(scope="module")
def scaling_rows():
    return scaling_study(XY_GAMMA, XY_D0, XY_D1, [50, 100, 200, 300], workers=2)


def test_criterion_7a_scaling_flat_densities_and_linear_recurrence(scaling_rows):
    rows = scaling_rows
    for name, col in (
        ("e_s", [r.e_s_per for r in rows]),
        ("e_inf", [r.e_inf_per for r in rows]),
    ):
        rel = (max(col) - min(col)) / float(np.mean(col))
        assert rel < 0.01, f"{name}/n varies by {rel:.4f}"
    slope, _, r2 = linear_fit([r.n_dimers for r in rows], [r.tau_r for r in rows])
    assert slope > 0
    assert r2 > 0.99
    _report("7a", f"e_s,e_inf densities flat <1%; tau_r fit slope={slope:.3f}, R^2={r2:.5f}")


def test_criterion_7b_scaling_flat_revival_density(scaling_rows):
    # Stated criterion: E^r / n_dimers varies by < 1% across sizes.  The
    # exact dynamics (ED-verified at small sizes) gives a revival maximum
    # E^r = E^inf + O(n^(2/3)): linear in n with positive offset over this
    # range (fit R^2 > 0.999) but with a per-dimer density falling ~17%
    # from n=50 to n=300.  The <1% flatness bound cannot hold; this test
    # records the honest failure.
    rows = scaling_rows
    col = [r.e_r_per for r in rows]
    rel = (max(col) - min(col)) / float(np.mean(col))
    e_r_fit = linear_fit([r.n_dimers for r in rows], [r.e_r_per * r.n_dimers for r in rows])
    detail = (
        f"e_r/n across n=(50,100,200,300) = {[f'{v:.4f}' for v in col]}, "
        f"relative variation {rel:.3f}; E^r vs n linear fit slope={e_r_fit[0]:.4f}, "
        f"intercept={e_r_fit[1]:.2f}, R^2={e_r_fit[2]:.5f}"
    )
    print(f"[criterion 7b] {'PASS' if rel < 0.01 else 'FAIL'}: {detail}")
    assert rel < 0.01, detail


class TestCriterion8Properties:
    def test_gauge_invariance(self):
        rng = np.random.default_rng(81)
        worst = 0.0
        for _ in range(10):
            p = QuenchProtocol(
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(0.0, 1.2)),
                float(rng.uniform(0.0, 1.0)),
                int(rng.integers(2, 9)),
            )
            i = int(rng.integers(0, p.n_dimers))
            t = float(rng.uniform(0.0, 20.0))
            _, vecs = eigensystem_stack(bloch_stack(p.gamma, p.delta0, p.n_dimers))
            omega_c, vecs_c = eigensystem_stack(
                bloch_stack(p.gamma, p.delta0 + p.delta1, p.n_dimers)
            )
            u = vecs[i].copy()
            v = vecs_c[i].copy()
            u *= np.exp(1j * rng.uniform(0, 2 * np.pi, 4))[None, :]
            v *= np.exp(1j * rng.uniform(0, 2 * np.pi, 4))[None, :]
            m = v.conj().T @ u
            w1p, w2p = omega_c[i]
            d = np.exp(-1j * np.array([w1p, w2p, -w1p, -w2p]) * t)
            tm = m.conj().T @ (d[:, None] * m)
            n_ref = (
                abs(tm[0, 2]) ** 2 + abs(tm[0, 3]) ** 2,
                abs(tm[1, 2]) ** 2 + abs(tm[1, 3]) ** 2,
            )
            n_prod = occupations_all(p, t)[i]
            worst = max(worst, abs(n_ref[0] - n_prod[0]), abs(n_ref[1] - n_prod[1]))
        assert worst <= 1e-10
        _report("8/gauge", f"occupations move {worst:.2e} under random rephasing")

    def test_occupation_bounds(self):
        rng = np.random.default_rng(82)
        for _ in range(12):
            p = QuenchProtocol(
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(0.0, 1.2)),
                float(rng.uniform(0.0, 1.0)),
                int(rng.integers(2, 30)),
            )
            occ = occupations_all(p, float(rng.uniform(0.0, 60.0)))
            assert np.min(occ) >= -1e-10
            assert np.max(occ) <= 1.0 + 1e-10
        _report("8/bounds", "occupations within [-1e-10, 1 + 1e-10]")

    def test_zero_time_and_null_quench(self):
        p = QuenchProtocol(XY_GAMMA, XY_D0, XY_D1, 50)
        assert abs(energy_at_times(p, np.array([0.0]))[0]) <= 1e-10 * p.n_dimers
        null = QuenchProtocol(XY_GAMMA, XY_D0, 0.0, 50)
        values = energy_at_times(null, np.linspace(0.0, 40.0, 101))
        assert np.max(np.abs(values)) <= 1e-10 * null.n_dimers
        _report("8/zero", "dE(0) = 0 and delta1 = 0 stores nothing")

    @pytest.mark.parametrize(
        "protocol",
        [QuenchProtocol(1.25, 0.3, 0.6, 300), QuenchProtocol(1.1, 0.2, 0.8, 300)],
        ids=["fig2", "fig3"],
    )
    def test_full_vs_simplified(self, protocol):
        times = np.linspace(0.0, 80.0, 161)
        full = energy_at_times(protocol, times, "full")
        simplified = energy_at_times(protocol, times, "simplified")
        rel = float(np.max(np.abs(full - simplified)) / np.max(np.abs(full)))
        assert rel <= 1e-9
        _report("8/evaluators", f"full vs simplified relative deviation {rel:.2e}")

    def test_ising_beta_amplitude(self):
        params = IsingParams(ISING_H0, ISING_H1, 600)
        amp, freq = params.chain_modes()
        omega = freq / 2
        worst = 0.0
        for j in range(0, 300, 13):
            # reference Bogoliubov pairs (sin 2theta, cos 2theta) = (sin k, h - cos k) / eps;
            # half-zone mode j carries the mirror pair j, N - 1 - j, so weight 2
            k = 2 * math.pi * (j + 0.5) / params.n_sites
            eps = math.hypot(math.sin(k), ISING_H0 - math.cos(k))
            eps_c = math.hypot(math.sin(k), ISING_H0 + ISING_H1 - math.cos(k))
            si, ci = math.sin(k) / eps, (ISING_H0 - math.cos(k)) / eps
            sf, cf = math.sin(k) / eps_c, (ISING_H0 + ISING_H1 - math.cos(k)) / eps_c
            sin2diff = si * cf - ci * sf
            for t in (0.7, 5.3, 31.0):
                beta2 = math.sin(omega[j] * t) ** 2 * sin2diff**2
                closed = amp[j] * (1.0 - math.cos(2.0 * omega[j] * t))
                worst = max(worst, abs(2.0 * eps * beta2 - closed))
        assert worst <= 1e-12
        _report("8/beta", f"|beta|^2 form vs closed form per mode, max |diff| {worst:.2e}")

    def test_oracle_parity_and_norm_conservation(self):
        battery = build_hamiltonian(DimerizedXY(XY_GAMMA, XY_D0), 8)
        charger = build_hamiltonian(DimerizedXY(XY_GAMMA, XY_D0 + XY_D1), 8)
        vec, m = even_sector_ground_state(battery)
        psi0 = embed_sector(vec, battery.kind, 8, m)
        w, qmat = np.linalg.eigh(kron_hamiltonian(charger.kind, 8))
        coeff = qmat.conj().T @ psi0
        pi = parity_diagonal(8)
        for t in np.linspace(0.0, 30.0, 16):
            psi_t = qmat @ (np.exp(-1j * w * t) * coeff)
            assert abs(np.linalg.norm(psi_t) - 1.0) <= 1e-12
            assert abs(float(np.real(psi_t.conj() @ (pi * psi_t))) - 1.0) <= 1e-12
        _report("8/oracle", "norm and parity conserved to 1e-12")


def _run_cli(args, cwd):
    # The child runs in cwd, so relative entries of the import path would
    # no longer resolve: hand it this process's path made absolute.
    path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
    proc = subprocess.run(
        [sys.executable, "-m", "spinbattery.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_byte_identical_outputs(tmp_path):
    trace_args = [
        "trace", "--n-dimers", "40", "--t-end", "110",
        "--window-min", "80", "--window-max", "107",
    ]
    blobs = []
    for name in ("t1", "t2"):
        out = tmp_path / f"{name}.csv"
        _run_cli([*trace_args, "--out", str(out)], tmp_path)
        blobs.append(out.read_bytes() + (tmp_path / f"{name}.report.json").read_bytes())
    assert blobs[0] == blobs[1]

    sweep_blobs = []
    for name, workers in (("s1", "1"), ("s2", "3")):
        out = tmp_path / f"{name}.csv"
        _run_cli(
            ["sweep", "--n-dimers", "24", "--param-min", "0.15", "--param-max", "0.30",
             "--param-step", "0.05", "--workers", workers, "--out", str(out)],
            tmp_path,
        )
        sweep_blobs.append(out.read_bytes())
    assert sweep_blobs[0] == sweep_blobs[1]
    _report("9", "trace reruns and sweeps with different --workers are byte-identical")
