"""Full 2^N-space and parity-block references for the ED tests.

Shares no code with ``spinbattery.ed``: every bond term is a Kronecker
product of 2x2 operators, site 1 leftmost, and the parity P = prod_j sz_j is
read off the popcount of each basis index.  :func:`_block` is the oracle's
former parity-block builder, kept as the reference its momentum sectors are
checked against, and :func:`embed_sector` places a sector state in the full
space, so both can be checked against the whole matrix.
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


def _site_bit(j: int, n: int) -> int:
    """Bit of site j (1-based, periodic) in a basis index; site 1 is the top bit."""
    return 1 << (n - 1 - (j - 1) % n)


def _block(kind, n_sites: int, parity: int) -> np.ndarray:
    """Block of the periodic spin Hamiltonian on one sector of P = prod_j sz_j.

    The basis is the ascending indices s with popcount(s) % 2 == parity
    (bit 0 is spin up, so parity 0 is P = +1).  There sx_a sx_b and sy_a sy_b
    both send |s> to |s ^ mask>, which stays in the sector, with amplitudes 1
    and -1 or +1 as the two bits agree or not, and sz_a is the diagonal +-1.
    Each bond's entries are written straight into the block, in site order.
    """
    idx = np.arange(2**n_sites)
    states = idx[sum((idx >> bit) & 1 for bit in range(n_sites)) % 2 == parity]
    dim = states.size
    pos = np.empty_like(idx)
    pos[states] = np.arange(dim)
    rows = np.arange(dim) * dim
    h = np.zeros((dim, dim))
    flat = h.reshape(-1)
    if isinstance(kind, DimerizedXY):
        for j in range(1, n_sites + 1):
            mask = _site_bit(j, n_sites) | _site_bit(j + 1, n_sites)
            entries = rows + pos[states ^ mask]
            pair = states & mask
            agree = np.where((pair == 0) | (pair == mask), 1.0, -1.0)
            bond = 1.0 - (-1.0) ** j * kind.delta
            flat[entries] -= bond * (1.0 + kind.gamma) / 2.0
            flat[entries] += bond * (1.0 - kind.gamma) / 2.0 * agree
    else:
        for j in range(1, n_sites + 1):
            mask = _site_bit(j, n_sites) | _site_bit(j + 1, n_sites)
            flat[rows + pos[states ^ mask]] += 0.5
            up = np.where(states & _site_bit(j, n_sites), -1.0, 1.0)
            flat[np.arange(dim) * (dim + 1)] += 0.5 * kind.h * up
    return h


def embed_sector(vec: np.ndarray, kind, n_sites: int, m: int) -> np.ndarray:
    """A vector over the even-parity momentum sector m, placed in the full 2^N space.

    T moves every spin `step` sites on (two for XY, one for Ising), L = N /
    step, k = 2 pi m / L.  The sector's basis is its orbit representatives a
    (the smallest index of each orbit, ascending, even popcount, period R_a
    with m R_a divisible by L), each standing for the unit vector
    sum_{r<L} e^{ikr} T^r |a> sqrt(R_a) / L.
    """
    step = 2 if isinstance(kind, DimerizedXY) else 1
    length = n_sites // step
    phase = np.exp(2j * np.pi * m / length * np.arange(length))

    def translate(s):
        bits = format(s, f"0{n_sites}b")
        return int(bits[-step:] + bits[:-step], 2)

    orbits = []
    for s in range(2**n_sites):
        orbit = [s]
        while (t := translate(orbit[-1])) != s:
            orbit.append(t)
        if bin(s).count("1") % 2 == 0 and min(orbit) == s and m * len(orbit) % length == 0:
            orbits.append(orbit)
    assert len(orbits) == vec.size
    full = np.zeros(2**n_sites, dtype=complex)
    for c, orbit in zip(vec, orbits):
        for r in range(length):
            full[orbit[r % len(orbit)]] += c * phase[r] * np.sqrt(len(orbit)) / length
    return full
