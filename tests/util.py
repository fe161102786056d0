"""Shared randomness helpers, dense oracles and expected-matrix fixtures for the test suite."""

import numpy as np

from naimark.fiducials import wh_orbit
from naimark.simulate import embed
from naimark.wh import clock_op, displacement, fourier, max_abs, shift_op, unitarity_residual


def rand_unitary(d, rng):
    """Haar-ish random unitary via QR with phase-fixed diagonal."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_ket(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def rand_density(d, rng, n_mix=None):
    """Random mixed state as a convex combination of pure states."""
    n_mix = n_mix or d + 1
    weights = rng.random(n_mix)
    weights /= weights.sum()
    rho = np.zeros((d, d), dtype=complex)
    for w in weights:
        k = rand_ket(d, rng)
        rho += w * np.outer(k, k.conj())
    return rho


# Dense oracles for the covariant WH core.  The library computes the frame
# Gram's spectrum, the IC rank, the SIC deviation and linear-inversion
# tomography from chi(j, k) with FFTs; these build the d^2 dense measurement
# operators and the d^2 x d^2 Gram instead, as the library once did.


def dense_orbit(phi):
    """Orbit vectors D(j,k)|phi>, rows in (j, k) order, from dense displacements."""
    d = phi.shape[0]
    return np.array([displacement(d, j, k) @ phi for j in range(d) for k in range(d)])


def dense_overlaps(phi):
    """|<phi| D(j,k)^dag |phi>| as a d x d array."""
    d = phi.shape[0]
    return np.array(
        [[abs(np.vdot(displacement(d, j, k) @ phi, phi)) for k in range(d)] for j in range(d)]
    )


def dense_elements(phi):
    """Measurement operators E(j,k) = |phi_jk><phi_jk| / d, shape (d^2, d, d)."""
    vecs = dense_orbit(phi)
    return np.einsum("am,an->amn", vecs, vecs.conj()) / phi.shape[0]


def dense_frame_gram(phi):
    """Real Gram matrix G[a, b] = tr(E_a E_b) of the flattened operators."""
    flat = dense_elements(phi).reshape(phi.shape[0] ** 2, -1)
    return (flat.conj() @ flat.T).real


def dense_resolution_residual(vectors):
    """Max-norm distance of (1/d) sum_a |v_a><v_a| from the identity, for orbit rows v_a."""
    d = vectors.shape[1]
    return max_abs(vectors.T @ vectors.conj() / d - np.eye(d))


def dense_sic_report(phi):
    """Max-norm deviation of |<phi_a|phi_b>|^2 from (d*delta + 1)/(d + 1) over all a, b."""
    d = phi.shape[0]
    vecs = dense_orbit(phi)
    gram2 = np.abs(vecs.conj() @ vecs.T) ** 2
    return float(np.max(np.abs(gram2 - (d * np.eye(d * d) + 1.0) / (d + 1.0))))


def dense_tomography(phi, probs, gram=None):
    """Linear inversion by solving G x = p; returns (rho, Gram condition number)."""
    gram = dense_frame_gram(phi) if gram is None else gram
    eigs = np.linalg.eigvalsh(gram)
    x = np.linalg.solve(gram, probs)
    rho = np.tensordot(x, dense_elements(phi), axes=1)
    return (rho + rho.conj().T) / 2, eigs[-1] / eigs[0]


# Orbit and loop forms of admitting a fiducial.  The library reads the Gram
# spectrum off chi by the Moyal re-index, inverts the frame by dividing fft2(p)
# by chi, completes M by one QR and lays U out through one shift view; these are the
# 2-D FFT, the orbit product (which makes states with known frame coefficients),
# the Gram-Schmidt loop and the block-row rolls it once used.


def fft2_gram_spectrum(chi):
    """The frame Gram's eigenvalues as the 2-D DFT of |chi|^2 / d^2."""
    d = chi.shape[0]
    return np.fft.fft2(np.abs(chi) ** 2 / d**2).real


def orbit_frame_sum(phi, x):
    """sum_a x_a E_a = V^T diag(x) V^* / d, with V the orbit rows from wh_orbit."""
    vecs = wh_orbit(phi).vectors
    return (vecs.T * np.ravel(x)) @ vecs.conj() / phi.shape[0]


def gram_schmidt_completion(phi):
    """Row 0 = conj(phi), then the standard basis without argmax |phi|,
    orthonormalized in index order by modified Gram-Schmidt."""
    d = phi.shape[0]
    drop = int(np.argmax(np.abs(phi)))
    rows = [phi.conj()]
    for i in range(d):
        if i == drop:
            continue
        v = np.zeros(d, dtype=complex)
        v[i] = 1.0
        for r in rows:
            v = v - np.vdot(r, v) * r
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


def roll_layout(s):
    """Block circulant with first block row s: block row r is that row rolled r blocks right."""
    d = len(s)
    row = np.hstack(s)
    return np.vstack([np.roll(row, r * d, axis=1) for r in range(d)])


# Gather forms of the shift rule.  The library reads every cyclic offset, of vectors
# and of U's block rows, through one strided view (`wh.cyclic_shifts`) and exponentiates
# only the d roots of unity; these are the d^2-element index gathers and the d^2
# exponentials it once used.  The layout's oracles, `roll_layout` and `loop_layout`,
# use np.roll and index loops and read no library shift code.


def gather_orbit(phi):
    """Orbit rows w^{k(m-j)} phi_{m-j}, gathered through the index array ell[j, m] = m - j."""
    d = phi.shape[0]
    ell = (np.arange(d) - np.arange(d)[:, None]) % d
    vecs = exp_omega_table(d)[:, ell].transpose(1, 0, 2) * phi[ell][:, None, :]
    return vecs.reshape(d * d, d)


def exp_omega_table(d):
    """w^{kl} as d^2 exponentials of the exponents reduced mod d."""
    return np.exp(2j * np.pi * (np.outer(np.arange(d), np.arange(d)) % d) / d)


# The displacement for covariance tests, built by an index loop and not from the
# library's `displacement` or `_omega_table`, so those tests read no library code
# on the input side.


def loop_displacement(d, a, b):
    """D(a, b) = X^a Z^b entry by entry: |m> goes to w^{bm} |m + a>, w = exp(2 pi i / d)."""
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        out[(m + a) % d, m] = np.exp(2j * np.pi * (b * m % d) / d)
    return out


# Dense oracle for the outcome probabilities.  The library computes them from
# M with d FFTs of length d; this applies the d^2 x d^2 unitary to the
# embedded state, as the library once did.


def dense_measure_probabilities(u, psi, i):
    """|U embed(psi, i)|^2 for a d^2 x d^2 unitary U, flattened as j*d + k."""
    return np.abs(u @ embed(psi, i)) ** 2


# Closed forms of the Bell route.  The library lays U = B (I x M^T) out by B's
# index rule and builds the controlled shift and clock from index rules; these
# are the entrywise formula for U, the Kronecker sums of the controlled shift
# and clock, B built from the shift's Kronecker sum, the dense product
# B (I x M^T) and the control/target-dual clock route, so no oracle here rests
# on a library index rule.


def closed_form_u(m):
    """<r,s|U|t,u> = d^{-1/2} w^{-s(t-r)} M[u, (t-r) mod d], all entries at once."""
    d = m.shape[0]
    r, s, t, u = np.ogrid[:d, :d, :d, :d]
    q = (t - r) % d
    return (np.exp(-2j * np.pi * (s * q % d) / d) * m[u, q] / np.sqrt(d)).reshape(d * d, d * d)


def proj(d, m):
    """|m><m| on C^d."""
    p = np.zeros((d, d))
    p[m, m] = 1.0
    return p


def controlled_clock_closed_form(d):
    """sum_m Z^m x |m><m|, the form the qudit CZ circuit realizes."""
    return sum(np.kron(np.linalg.matrix_power(clock_op(d), m), proj(d, m)) for m in range(d))


def controlled_shift_closed_form(d):
    """sum_m X^m x |m><m|, the form the qudit CX circuit realizes."""
    return sum(np.kron(np.linalg.matrix_power(shift_op(d), m), proj(d, m)) for m in range(d))


def shift_decomposition(d):
    """(I x F^dag)(sum_j X^{-j} x |j><j|): the Bell rotation B as a Kronecker product,
    the qudit form of the CNOT-then-Hadamard Bell circuit."""
    return np.kron(np.eye(d), fourier(d).conj().T) @ controlled_shift_closed_form(d).conj().T


def bell_product_u(m):
    """U = B (I x M^T) as a dense product, B from shift_decomposition."""
    d = m.shape[0]
    return shift_decomposition(d) @ np.kron(np.eye(d), m.T)


def clock_decomposition(m):
    """Control/target-dual form U = (F^dag x F^dag)(sum_j |j><j| x Z^{-j})(F x M^T), in
    O(d^4 log d): F x M^T as a (d, d, d, d) broadcast, the clock phases w^{-jl} on its row
    pair, then F^dag x F^dag as one unitary 2-D FFT over that pair.  F and the phases are
    exponentials of reduced exponents (exp_omega_table), not the library's table."""
    d = m.shape[0]
    w = exp_omega_table(d)
    rot = (w / np.sqrt(d))[:, None, :, None] * m.T[None, :, None, :]
    rot *= w.conj()[:, :, None, None]
    return np.fft.fft2(rot, axes=(0, 1), norm="ortho").reshape(d * d, d * d)


# Loop oracles for the block layer.  The library lays U out through one
# shift view of block row 0 and block-diagonalizes it with one FFT over the block index;
# these are the index loops, matrix powers and Kronecker products it once used.


def loop_blocks(m):
    """S_k = outer(column k of F^dag, column k of M), one block at a time."""
    d = m.shape[0]
    f_dag = fourier(d).conj().T
    return [np.outer(f_dag[:, k], m[:, k]) for k in range(d)]


def first_block_row(u):
    """[S_0 .. S_{d-1}], the blocks (0, t) of a d^2 x d^2 matrix."""
    d = int(round(np.sqrt(u.shape[0])))
    return [u[0:d, t * d : (t + 1) * d] for t in range(d)]


def loop_layout(s):
    """Block circulant with block (r, t) = s[(t - r) % d], filled block by block."""
    d, n = len(s), s[0].shape[0]
    u = np.zeros((d * n, d * n), dtype=complex)
    for r in range(d):
        for t in range(d):
            u[r * n : (r + 1) * n, t * n : (t + 1) * n] = s[(t - r) % d]
    return u


def power_diagonal_blocks(m):
    """U_j = F^dag Z^{-j} M^T by matrix powers of the clock."""
    d = m.shape[0]
    f_dag, z = fourier(d).conj().T, clock_op(d)
    return [f_dag @ np.linalg.matrix_power(z, (d - j) % d) @ m.T for j in range(d)]


def kron_reassemble(blocks):
    """(F^dag x I) diag(U_0 .. U_{d-1}) (F x I) as dense products."""
    d = len(blocks)
    big = np.zeros((d * d, d * d), dtype=complex)
    for j, b in enumerate(blocks):
        big[j * d : (j + 1) * d, j * d : (j + 1) * d] = b
    f, eye = fourier(d), np.eye(d)
    return np.kron(f.conj().T, eye) @ big @ np.kron(f, eye)


def loop_block_constraints(blocks):
    """max_k || sum_j S_j^dag S_{j+k} - delta_k0 I ||_max by a double loop."""
    d, n = len(blocks), blocks[0].shape[0]
    worst = 0.0
    for k in range(d):
        acc = np.zeros((n, n), dtype=complex)
        for j in range(d):
            acc += blocks[j].conj().T @ blocks[(j + k) % d]
        worst = np.maximum(worst, max_abs(acc - (np.eye(n) if k == 0 else 0)))  # max() drops a NaN
    return float(worst)


def loop_structure_report(u, m=None):
    """Every structure_report field, block by block.  Its maxima, like the library's, keep
    a NaN, which Python's max() would drop."""
    s = first_block_row(u)
    d = len(s)
    circ = 0.0
    for r in range(d):
        for t in range(d):
            block = u[r * d : (r + 1) * d, t * d : (t + 1) * d]
            circ = np.maximum(circ, max_abs(block - s[(t - r) % d]))
    f_dag = fourier(d).conj().T
    m_rec = np.zeros((d, d), dtype=complex)
    rank_one = 0.0
    for q in range(d):
        f_col = f_dag[:, q]
        m_row = f_col.conj() @ s[q]
        rank_one = np.maximum(rank_one, max_abs(s[q] - np.outer(f_col, m_row)))
        m_rec[:, q] = m_row
    report = {
        "d": d,
        "unitarity": unitarity_residual(u),
        "block_circulant": float(circ),
        "block_rank_one": float(rank_one),
        "recovered_m": m_rec,
        "recovered_m_unitarity": unitarity_residual(m_rec),
        "block_constraints": loop_block_constraints(s),
    }
    if m is not None:
        report["m_match"] = max_abs(m_rec - m)
    return report


# Loop oracle for the circuit layer.  The library applies each gate to a
# (2,)*n state tensor; this embeds every gate as a dense 2**n x 2**n matrix,
# one column at a time, and multiplies the matrices, as the library once did.


def loop_embed_gate(mat, wires, n):
    """The gate's local matrix on `wires` (first wire = MSB) embedded among n wires."""
    m = len(wires)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_in = 0
        for i, w in enumerate(wires):
            sub_in |= ((col >> (n - 1 - w)) & 1) << (m - 1 - i)
        base = col
        for w in wires:
            base &= ~(1 << (n - 1 - w))
        for sub_out in range(2**m):
            amp = mat[sub_out, sub_in]
            if amp == 0:
                continue
            row = base
            for i, w in enumerate(wires):
                row |= ((sub_out >> (m - 1 - i)) & 1) << (n - 1 - w)
            out[row, col] += amp
    return out


def gate_matrix(g):
    """A gate's unitary on its own wires (first listed wire = MSB), from its definition:
    H, R(k) = diag(1, w), CR(k) = diag(1, 1, 1, w), SWAP, or the U matrix (its adjoint
    under dagger), with w = exp(+-2 pi i / 2**k)."""
    sign = -1 if g.dagger else 1
    if g.kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if g.kind == "R":
        return np.diag([1, np.exp(sign * 2j * np.pi / 2**g.k)])
    if g.kind == "CR":
        return np.diag([1, 1, 1, np.exp(sign * 2j * np.pi / 2**g.k)])
    if g.kind == "SWAP":
        return np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    return g.matrix.conj().T if g.dagger else g.matrix


def loop_expand(circuit):
    """Product of the embedded gate matrices, gates applied in list order."""
    total = np.eye(2**circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        total = loop_embed_gate(gate_matrix(g), g.wires, circuit.n_qubits) @ total
    return total


def qubit_fiducial_components():
    return (
        np.sqrt(3 + np.sqrt(3)) / np.sqrt(6),
        np.exp(1j * np.pi / 4) * np.sqrt(3 - np.sqrt(3)) / np.sqrt(6),
    )


def expected_qubit_u():
    """4x4 extension unitary for the qubit SIC fiducial, written out entrywise."""
    p0, p1 = qubit_fiducial_components()
    return np.array(
        [
            [p0.conj(), -p1, p1.conj(), p0],
            [p0.conj(), -p1, -p1.conj(), -p0],
            [p1.conj(), p0, p0.conj(), -p1],
            [-p1.conj(), -p0, p0.conj(), -p1],
        ]
    ) / np.sqrt(2)


def expected_qubit_diag_blocks():
    p0, p1 = qubit_fiducial_components()
    u0 = np.array(
        [[p0.conj() + p1.conj(), p0 - p1], [p0.conj() - p1.conj(), -(p0 + p1)]]
    ) / np.sqrt(2)
    u1 = np.array(
        [[p0.conj() - p1.conj(), -(p0 + p1)], [p0.conj() + p1.conj(), p0 - p1]]
    ) / np.sqrt(2)
    return [u0, u1]


def expected_hesse_u():
    """9x9 extension unitary for the Hesse fiducial, w = exp(2*pi*i/3)."""
    w = np.exp(2j * np.pi / 3)
    r2 = np.sqrt(2)
    rows = [
        [0, r2, 0, 1, 0, 1, -1, 0, 1],
        [0, r2, 0, w**2, 0, w**2, -w, 0, w],
        [0, r2, 0, w, 0, w, -(w**2), 0, w**2],
        [-1, 0, 1, 0, r2, 0, 1, 0, 1],
        [-w, 0, w, 0, r2, 0, w**2, 0, w**2],
        [-(w**2), 0, w**2, 0, r2, 0, w, 0, w],
        [1, 0, 1, -1, 0, 1, 0, r2, 0],
        [w**2, 0, w**2, -w, 0, w, 0, r2, 0],
        [w, 0, w, -(w**2), 0, w**2, 0, r2, 0],
    ]
    return np.array(rows, dtype=complex) / np.sqrt(6)


def expected_hesse_diag_blocks():
    s3 = 1j * np.sqrt(3)
    r2 = np.sqrt(2)
    u0 = np.array([[0, r2, 2], [-s3, r2, -1], [s3, r2, -1]]) / np.sqrt(6)
    u1 = np.array([[-s3, r2, -1], [s3, r2, -1], [0, r2, 2]]) / np.sqrt(6)
    u2 = np.array([[s3, r2, -1], [0, r2, 2], [-s3, r2, -1]]) / np.sqrt(6)
    return [u0, u1, u2]


def expected_ququart_diag_blocks():
    """Tabulated ququart blocks in their two-summand form c*(e^{i pi/4} A + B)."""
    alpha = np.sqrt(2 + np.sqrt(5))
    scale = np.sqrt((1 - 1 / np.sqrt(5)) / 8)
    e = np.exp(1j * np.pi / 4)
    a = alpha

    def build(mat_a, mat_b):
        return scale * (e * np.array(mat_a) + np.array(mat_b))

    u0 = build(
        [[1j, 1j, 1j, 1j * a], [1, -a, -1, 1], [-1j, -1j, -1j, -1j * a], [1, -a, -1, 1]],
        [[1, -1, a, -1], [a, 1, -1, -1], [1, -1, a, -1], [-a, -1, 1, 1]],
    )
    u1 = build(
        [[1, -a, -1, 1], [-1j, -1j, -1j, -1j * a], [1, -a, -1, 1], [1j, 1j, 1j, 1j * a]],
        [[a, 1, -1, -1], [1, -1, a, -1], [-a, -1, 1, 1], [1, -1, a, -1]],
    )
    u2 = build(
        [[-1j, -1j, -1j, -1j * a], [1, -a, -1, 1], [1j, 1j, 1j, 1j * a], [1, -a, -1, 1]],
        [[1, -1, a, -1], [-a, -1, 1, 1], [1, -1, a, -1], [a, 1, -1, -1]],
    )
    u3 = build(
        [[1, -a, -1, 1], [1j, 1j, 1j, 1j * a], [1, -a, -1, 1], [-1j, -1j, -1j, -1j * a]],
        [[-a, -1, 1, 1], [1, -1, a, -1], [a, 1, -1, -1], [1, -1, a, -1]],
    )
    return [u0, u1, u2, u3]
