"""The 4x4 Bloch eigensystems of the dimerized XY chain, as the tests' judge.

``eigensystem_stack(bloch_stack(...))`` yields, operation for operation, the
bands of the private ``quench._bloch_bands``, whose half-zone rows (the first
n_dimers - n_dimers // 2) are checked bit for bit against these: they fix the
XY time kernel's frequencies.  The matching-matrix, gauge and quadruple-sum
tests build their eigensystems here, and ``four_column_tables`` expands the
stored energy over the matching matrices into the four frequency columns of
the paper's quadruple sum, the judge of the kernel's two-chain tables.  Like
the kernel, the judge runs mode n_dimers - 1 - i (k -> 2 pi - k) at the bands
of its mirror i, which eigh gives to rounding and the exact dispersion gives
exactly; its weights stay each mode's own.  Row i of every batched array is
the mode q = i + 1/2, at momentum k = 2 pi q / n_dimers.
"""

import numpy as np


def structure_constants(gamma: float, delta: float, k: np.ndarray | float):
    """Z and W entries of the Bloch matrix at momentum k = 2 pi q / n_dimers."""
    phase = np.exp(-1j * np.asarray(k))
    z = -((1.0 + delta) + (1.0 - delta) * phase)
    w = -gamma * ((1.0 + delta) - (1.0 - delta) * phase)
    return z, w


def _bloch_entries(z, w) -> np.ndarray:
    """Bloch matrices from structure constants, shape z.shape + (4, 4).

    Layout (rows/cols ordered as particle-A, particle-B, hole-A, hole-B):

        [[ 0,   Z,   0,  -W ],
         [ Z*,  0,   W*,  0 ],
         [ 0,   W,   0,  -Z ],
         [-W*,  0,  -Z*,  0 ]]

    Hermitian with zero diagonal and zero trace; the spectrum is symmetric
    about zero because the matrix anticommutes with diag(1, -1, 1, -1).
    """
    h = np.zeros(np.shape(z) + (4, 4), dtype=complex)
    h[..., 0, 1] = z
    h[..., 1, 0] = np.conj(z)
    h[..., 0, 3] = -w
    h[..., 3, 0] = -np.conj(w)
    h[..., 1, 2] = np.conj(w)
    h[..., 2, 1] = w
    h[..., 2, 3] = -z
    h[..., 3, 2] = -np.conj(z)
    return h


def bloch_stack(gamma: float, delta: float, n_dimers: int) -> np.ndarray:
    """Bloch matrices for every q, shape (n_dimers, 4, 4).

    Convention: the chain Hamiltonian equals (J/2) sum_q Psi_q^dag H_q Psi_q
    over the half-integer mode set, with Psi_q mixing the two dimer-sublattice
    fermions at q with their conjugates at n_dimers - q.  The 1/2 compensates
    the q <-> n_dimers - q double counting, so the eigenvalues of H_q are the
    band energies themselves.
    """
    q = np.arange(n_dimers) + 0.5
    k = 2.0 * np.pi * q / n_dimers
    return _bloch_entries(*structure_constants(gamma, delta, k))


def _gauge_fix_columns(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-modulus entry of each column real positive.

    FMA-based complex products can leave a one-ulp imaginary residue on
    z * conj(z), so the rotated lead entry is overwritten with its modulus
    to pin the convention exactly.
    """
    idx = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    lead = np.take_along_axis(vecs, idx, axis=-2)[..., 0, :]
    vecs = vecs * np.conj(lead)[..., None, :] / np.abs(lead)[..., None, :]
    rotated = np.take_along_axis(vecs, idx, axis=-2)
    np.put_along_axis(vecs, idx, np.abs(rotated).astype(complex), axis=-2)
    return vecs


# eigh ascending order is (-w1, -w2, +w2, +w1); map to (+w1, +w2, -w1, -w2)
_BAND_ORDER = np.array([3, 2, 0, 1])


def eigensystem_stack(bloch: np.ndarray):
    """Eigen-decompose a (n, 4, 4) Bloch stack.

    Returns ``(omegas, vecs)`` with ``omegas[:, 0] >= omegas[:, 1] >= 0`` and
    ``vecs`` columns ordered to (+w1, +w2, -w1, -w2).  Each column is phase
    fixed so its largest-modulus entry is real positive (ties broken by the
    lowest row index).  A failed eigensolver raises
    ``numpy.linalg.LinAlgError`` (never returns garbage).
    """
    vals, vecs = np.linalg.eigh(bloch)
    vals = vals[:, _BAND_ORDER]
    vecs = vecs[:, :, _BAND_ORDER]
    vecs = _gauge_fix_columns(vecs)
    omegas = np.maximum(vals[:, :2], 0.0)
    return omegas, vecs


# Pair -> frequency bookkeeping of the expansion of |T|^2.  Heisenberg phases
# are phi = (-w1', -w2', +w1', +w2'); pair (a, b) oscillates at phi_a - phi_b.
# Columns of the frequency table: [w1'-w2', 2 w1', w1'+w2', 2 w2'].
# Each entry: (a, b, column, sign of the sin coefficient).
_PAIR_TABLE = (
    (0, 1, 0, +1.0),
    (2, 3, 0, -1.0),
    (0, 2, 1, +1.0),
    (0, 3, 2, +1.0),
    (1, 2, 2, +1.0),
    (1, 3, 3, +1.0),
)


def four_column_tables(protocol):
    """``(freqs, e_const, e_cos, e_sin)``: the stored energy's Fourier tables.

    With M_q = V_q^dag U_q the matching matrix between the battery's and the
    charger's eigenbases, D(t) = diag(e^{-i w1' t}, e^{-i w2' t}, e^{+i w1' t},
    e^{+i w2' t}) and T = M_q^dag D M_q, each occupation
    n_s = |T_{s,3}|^2 + |T_{s,4}|^2 expands over ``_PAIR_TABLE`` into a constant
    and cos/sin coefficients at [w1'-w2', 2 w1', w1'+w2', 2 w2'], the charging
    bands of the mode or, past the middle, of its mirror; the battery bands
    weight them.  Shapes (N, 4), (N,), (N, 4), (N, 4).
    """
    (omega, u), (omega_p, v) = (
        eigensystem_stack(bloch_stack(protocol.gamma, delta, protocol.n_dimers))
        for delta in (protocol.delta0, protocol.delta0 + protocol.delta1)
    )
    m = np.conj(np.transpose(v, (0, 2, 1))) @ u
    n = m.shape[0]
    # mode n - 1 - i runs at the bands of its mirror i, as the engine's half zone does
    mirror = np.minimum(np.arange(n), n - 1 - np.arange(n))
    w1p, w2p = omega_p[mirror, 0], omega_p[mirror, 1]
    freqs = np.column_stack([w1p - w2p, 2.0 * w1p, w1p + w2p, 2.0 * w2p])
    const = np.zeros((n, 2))
    cos_a = np.zeros((n, 2, 4))
    sin_b = np.zeros((n, 2, 4))
    for s in (0, 1):
        for j in (2, 3):
            g = np.conj(m[:, :, s]) * m[:, :, j]  # (N, 4) over the mode index
            const[:, s] += np.sum(np.abs(g) ** 2, axis=1)
            for a, b, col, sgn in _PAIR_TABLE:
                z = g[:, a] * np.conj(g[:, b])
                cos_a[:, s, col] += 2.0 * z.real
                sin_b[:, s, col] += sgn * 2.0 * z.imag
    e_const = np.sum(omega * const, axis=1)
    e_cos = np.einsum("ns,nsf->nf", omega, cos_a)
    e_sin = np.einsum("ns,nsf->nf", omega, sin_b)
    return freqs, e_const, e_cos, e_sin
