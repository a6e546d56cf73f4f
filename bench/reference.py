"""Independent numerics the benchmark checks `u1rotor` against.

Nothing here imports `u1rotor`.  The physics is rebuilt from its
definitions: plaquette grids from the half-width prescriptions, the
electric and magnetic quadratic forms from the lattice links, the compact
cosine rows from the weave, a dense Hamiltonian from the per-plaquette DFT,
and Walsh series and sequency CNOT counts from a plain Walsh-Hadamard
transform.

Register convention (the one the circuits act on): plaquette ``p`` owns
qubits ``[p*n_q, (p+1)*n_q)`` and its grid index is read little-endian from
them, so state index ``x`` has ``l_p = (x >> p*n_q) & (N - 1)``.  A Walsh
mask ``j`` multiplies ``(-1)^popcount(j & x)``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Coefficients below this magnitude count as zero when the cutoff is 0; far
# below every genuine coefficient at the couplings the workloads use.
ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# geometry and grids


def links(n_x: int, n_y: int):
    """Periodic plaquette neighbour pairs; plaquette (x, y) has index x + n_x*y."""
    for y in range(n_y):
        for x in range(n_x):
            p = x + n_x * y
            yield p, (x + 1) % n_x + n_x * y
            yield p, x + n_x * ((y + 1) % n_y)


def weave_matrix() -> np.ndarray:
    """The published 3x3 rotation of the 2x2 lattice's rotors."""
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    return np.array([[s2, -2.0, 0.0], [s2, 1.0, -s3], [s2, 1.0, s3]]) / math.sqrt(6.0)


def free_half_width(g: float, n_q: int) -> float:
    """Field half-width of the unbounded (non-compact) prescription."""
    big_n = 1 << n_q
    return g * (big_n / 2.0) * math.sqrt(math.sqrt(8.0) * math.pi / big_n)


def field_grid(b_max: float, n_q: int) -> np.ndarray:
    """Magnetic grid -b_max + l * 2 b_max / N, l = 0 .. N-1."""
    big_n = 1 << n_q
    return -b_max + 2.0 * b_max / big_n * np.arange(big_n)


def over_register(grids, n_q: int) -> list[np.ndarray]:
    """Each plaquette's grid value on every register state."""
    x = np.arange(1 << (len(grids) * n_q))
    mask = (1 << n_q) - 1
    return [grid[(x >> (p * n_q)) & mask] for p, grid in enumerate(grids)]


class Lattice:
    """Digitized rotor lattice: forms, cosine rows and grids for one coupling."""

    def __init__(self, n_x, n_y, n_q, g, formulation="compact", basis="original"):
        self.n_x, self.n_y, self.n_q, self.g = n_x, n_y, n_q, float(g)
        self.formulation, self.basis = formulation, basis
        self.n_p = n_x * n_y - 1
        self.n = self.n_p * n_q
        self.big_n = 1 << n_q
        w = weave_matrix() if basis == "weaved" else np.eye(self.n_p)
        if w.shape != (self.n_p, self.n_p):
            raise ValueError("the built-in weave is for 2x2 lattices")
        q_links = np.zeros((n_x * n_y, n_x * n_y))
        for p, r in links(n_x, n_y):
            v = np.zeros(n_x * n_y)
            v[p] += 1.0
            v[r] -= 1.0
            q_links += np.outer(v, v)
        q_e = q_links[: self.n_p, : self.n_p]
        q_b = np.eye(self.n_p) + np.ones((self.n_p, self.n_p))
        self.q_e = w.T @ q_e @ w
        self.q_b = w.T @ q_b @ w
        self.cos_rows = np.vstack([w, -w.sum(axis=0)])
        b_free = free_half_width(self.g, n_q)
        self.b_max = np.full(self.n_p, b_free)
        if formulation == "compact":
            for i in range(self.n_p):
                col = np.abs(self.cos_rows[:, i])
                cap = math.pi / col[col > 1e-12].min()
                self.b_max[i] = min(b_free, cap)

    def b_values(self, p):
        return field_grid(self.b_max[p], self.n_q)

    def r_values(self, p):
        b = self.b_max[p]
        return -math.pi * self.big_n / (2.0 * b) + math.pi / b * np.arange(self.big_n)

    def _register(self, grid) -> list[np.ndarray]:
        return over_register([grid(p) for p in range(self.n_p)], self.n_q)

    def electric_diagonal(self) -> np.ndarray:
        """(g^2/2) R^T Q_E R over the register, in the rotor basis."""
        r = self._register(self.r_values)
        out = np.zeros(1 << self.n)
        for i in range(self.n_p):
            for j in range(self.n_p):
                if abs(self.q_e[i, j]) > 1e-12:
                    out += 0.5 * self.g**2 * self.q_e[i, j] * r[i] * r[j]
        return out

    def magnetic_diagonal(self) -> np.ndarray:
        """Cosine rows (compact) or (1/2g^2) B^T Q_B B (non-compact), field basis."""
        b = self._register(self.b_values)
        out = np.zeros(1 << self.n)
        if self.formulation == "compact":
            for row in self.cos_rows:
                arg = sum(c * b[i] for i, c in enumerate(row) if abs(c) > 1e-12)
                out -= np.cos(arg) / self.g**2
        else:
            for i in range(self.n_p):
                for j in range(self.n_p):
                    if abs(self.q_b[i, j]) > 1e-12:
                        out += 0.5 / self.g**2 * self.q_b[i, j] * b[i] * b[j]
        return out

    def linear_forms(self, spacing):
        """Walsh form of each plaquette operator: c + sum_k d_k z_(p*n_q + k).

        With ``l = sum_k 2^k (1 - z_k)/2`` an evenly spaced grid
        ``-h + s*l`` (``h = s*N/2``, ``s = spacing(p)``) becomes
        ``-s/2 - (s/2) sum_k 2^k z_k``.
        """
        out = []
        for p in range(self.n_p):
            s = spacing(p)
            terms = {0: -s / 2.0}
            for k in range(self.n_q):
                terms[1 << (p * self.n_q + k)] = -(s / 2.0) * (1 << k)
            out.append(terms)
        return out

    def quadratic_series(self, kind: str, scale: float) -> dict[int, float]:
        """Exact Walsh series of scale * (electric or non-compact magnetic) energy.

        Built from the plaquette linear forms, so it holds for any register
        width and has no round-off zeros.
        """
        if kind == "electric":
            forms = self.linear_forms(lambda p: math.pi / self.b_max[p])
            q, weight = self.q_e, 0.5 * self.g**2
        else:
            forms = self.linear_forms(lambda p: 2.0 * self.b_max[p] / self.big_n)
            q, weight = self.q_b, 0.5 / self.g**2
        out: dict[int, float] = {}
        for i in range(self.n_p):
            for j in range(self.n_p):
                if abs(q[i, j]) <= 1e-12:
                    continue
                for mi, ci in forms[i].items():
                    for mj, cj in forms[j].items():
                        m = mi ^ mj
                        out[m] = out.get(m, 0.0) + scale * weight * q[i, j] * ci * cj
        return {m: c for m, c in out.items() if abs(c) > ZERO_TOL}

    # dense references ----------------------------------------------------

    def fourier(self) -> np.ndarray:
        """Register-wide DFT, the per-plaquette F[l, m] = w^(lm)/sqrt(N) on every block."""
        big_n = self.big_n
        f = np.exp(2j * np.pi / big_n * np.outer(np.arange(big_n), np.arange(big_n)))
        f /= math.sqrt(big_n)
        out = np.ones((1, 1), dtype=complex)
        for _ in range(self.n_p):
            out = np.kron(f, out)
        return out

    def hamiltonian(self) -> np.ndarray:
        """Dense H = F diag(E) F^dagger + diag(B) in the magnetic basis."""
        f = self.fourier()
        h = (f * self.electric_diagonal()[None, :]) @ f.conj().T
        h[np.diag_indices_from(h)] += self.magnetic_diagonal()
        return h

    def electric_ground_state(self) -> np.ndarray:
        """All rotors at their zero (index N/2), rotated to the magnetic basis."""
        x0 = sum((self.big_n // 2) << (p * self.n_q) for p in range(self.n_p))
        return self.fourier()[:, x0]

    def exact_survival(self, times) -> list[float]:
        """|<psi_E| exp(-iHt) |psi_E>|^2 from an eigendecomposition of the dense H."""
        vals, vecs = np.linalg.eigh(self.hamiltonian())
        weights = np.abs(vecs.conj().T @ self.electric_ground_state()) ** 2
        return [float(abs(np.sum(weights * np.exp(-1j * vals * t))) ** 2) for t in times]

    def plaquette(self) -> float:
        """Ground-state 1 + g^2/(n_p + 1) <H_B> (compact formulation)."""
        _, vecs = np.linalg.eigh(self.hamiltonian())
        psi = vecs[:, 0]
        h_b = float(np.real(np.vdot(psi, self.magnetic_diagonal() * psi)))
        return 1.0 + self.g**2 / (self.n_p + 1) * h_b

    def commutator_norm(self, tol=1e-11, max_iter=20000) -> float:
        """Spectral norm of i[H_E, H_B] by power iteration on its square."""
        f = self.fourier()
        h_e = (f * self.electric_diagonal()[None, :]) @ f.conj().T
        b = self.magnetic_diagonal()
        c = 1j * (h_e * b[None, :] - b[:, None] * h_e)
        v = np.random.default_rng(0).normal(size=c.shape[0]) + 0j
        v /= np.linalg.norm(v)
        est = 0.0
        for _ in range(max_iter):
            w = c.conj().T @ (c @ v)
            new = float(np.real(np.vdot(v, w)))
            v = w / np.linalg.norm(w)
            if abs(new - est) <= tol * new:
                return math.sqrt(new)
            est = new
        raise RuntimeError("power iteration did not converge")


def mode_energies(n_x: int, n_y: int, count: int) -> np.ndarray:
    """Lowest ``count`` levels sum_k w_k (m_k + 1/2) of the undigitized non-compact theory.

    The frequencies are the square roots of the generalized eigenvalues of
    the electric form against the inverse magnetic form.
    """
    lat = Lattice(n_x, n_y, 1, 1.0, "non-compact")
    w2 = np.linalg.eigvals(lat.q_e @ lat.q_b).real
    omega = np.sqrt(np.sort(w2))
    levels = sorted(
        float(omega @ (np.array(m) + 0.5))
        for m in itertools.product(range(count + 1), repeat=omega.size)
        if sum(m) <= count
    )
    return np.array(levels[:count])


# ---------------------------------------------------------------------------
# Walsh series and sequency counts


def walsh_coefficients(values: np.ndarray) -> np.ndarray:
    """a_j = 2^-n sum_x f(x) (-1)^popcount(j & x), for f in register order."""
    a = np.array(values, dtype=float)
    size = a.size
    h = 1
    while h < size:
        v = a.reshape(-1, 2, h)
        v[:, 0, :], v[:, 1, :] = v[:, 0, :] + v[:, 1, :], v[:, 0, :] - v[:, 1, :]
        h *= 2
    return a / size


def dense_series(values: np.ndarray) -> dict[int, float]:
    a = walsh_coefficients(values)
    keep = np.nonzero(np.abs(a) > ZERO_TOL)[0]
    return {int(j): float(a[j]) for j in keep}


def kept(series: dict[int, float], theta: float) -> dict[int, float]:
    """Non-identity entries whose Rz angle 2|a| reaches the cutoff."""
    return {m: c for m, c in series.items() if m != 0 and abs(c) >= theta / 2.0}


def gray_rank(m: int) -> int:
    """Position of ``m`` in the reflected Gray sequence (prefix XOR of its bits)."""
    shift = 1
    while m >> shift:
        m ^= m >> shift
        shift <<= 1
    return m


def sequency_order(masks) -> list[int]:
    return sorted(masks, key=gray_rank)


def sequency_counts(series: dict[int, float], theta: float, order=None) -> tuple[int, int]:
    """(Rz, CNOT) of the sequency-ordered synthesis of the kept entries.

    Masks are visited in Gray-rank order and grouped by their top bit.  A
    group costs one CNOT per low bit of its first mask to load the parity
    onto the top qubit, one per bit of each XOR between neighbours, and
    one per low bit of its last mask to unwind.  ``order`` may pass
    `sequency_order(series)` when one series is counted at many cutoffs.
    """
    cut = theta / 2.0
    masks = [m for m in (order or sequency_order(series)) if m and abs(series[m]) >= cut]
    cx = 0
    prev_top, prev = 0, 0
    for m in masks:
        top = 1 << (m.bit_length() - 1)
        if top != prev_top:
            cx += (prev ^ prev_top).bit_count() + (m ^ top).bit_count()
        else:
            cx += (m ^ prev).bit_count()
        prev_top, prev = top, m
    cx += (prev ^ prev_top).bit_count()
    return len(masks), cx


def sequency_angles(series: dict[int, float], theta: float) -> list[float]:
    """Rz angles -2a in the order the synthesis places them."""
    k = kept(series, theta)
    return [-2.0 * k[m] for m in sequency_order(k)]


def fourier_gate_counts(n_p: int, n_q: int, blocks: int) -> dict[str, int]:
    """Closed-form gates of ``blocks`` register-wide Fourier rotations."""
    per = n_p * blocks
    return {"h": per * n_q, "cu1": per * n_q * (n_q - 1) // 2, "swap": per * (n_q // 2)}
