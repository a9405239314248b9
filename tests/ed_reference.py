"""Full 2^N-space reference for the ED tests.

Shares no code with ``spinbattery.ed``: every bond term is a Kronecker
product of 2x2 operators, site 1 leftmost, and the parity P = prod_j sz_j is
read off the popcount of each basis index.  The oracle itself only builds
parity blocks; these helpers check those blocks against the whole matrix
and evolve block states in the full space.
"""

import numpy as np

from spinbattery.ed import DimerizedXY

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
    """The full 2^N x 2^N periodic Hamiltonian of ``kind``."""
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


def parity_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of P = prod_j sz_j: +1 where the basis index has even popcount."""
    pop = np.array([bin(s).count("1") for s in range(2**n_sites)])
    return np.where(pop % 2 == 0, 1.0, -1.0)


def sector(n_sites: int, parity: int) -> np.ndarray:
    """Ascending basis indices with P = +1 (``parity`` 0) or P = -1 (``parity`` 1)."""
    return np.nonzero(parity_diagonal(n_sites) == (-1.0) ** parity)[0]


def embed_even(psi: np.ndarray, n_sites: int) -> np.ndarray:
    """A vector over the even block, placed in the full 2^N space."""
    full = np.zeros(2**n_sites, dtype=complex)
    full[sector(n_sites, 0)] = psi
    return full
