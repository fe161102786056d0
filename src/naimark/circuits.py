"""Qubit-level synthesis of the qudit operations when d = 2**n.

Wire convention: qubit 0 carries the most significant bit of the qudit index,
so the basis state |m> of a d = 2**n qudit has bit (m >> (n-1-w)) & 1 on
wire w.  Gate lists are stored in application order (the first gate acts
first); composite definitions written as right-to-left operator products are
therefore reversed when flattened into a list.

Two-register circuits put the target qudit on wires 0..n-1 (first tensor
factor) and the control qudit on wires n..2n-1, matching the closed forms
sum_m Z^m x |m><m| and sum_m X^m x |m><m|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import wh
from .errors import InvalidCircuitError, InvalidInputError

_ONE_WIRE = {"H": 1, "R": 1}
_TWO_WIRE = {"CR": 2, "SWAP": 2}

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True, eq=False)
class Gate:
    """One abstract gate: H, phase R(k), controlled phase CR(k), SWAP, or an
    opaque unitary U given by an explicit matrix.

    R(k) puts the phase exp(2*pi*i / 2**k) on |1>; `dagger` conjugates the
    phase (and, for U, takes the adjoint of the matrix).
    """

    kind: str
    wires: tuple[int, ...]
    k: int | None = None
    dagger: bool = False
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(set(wires)) != len(wires) or any(w < 0 for w in wires):
            raise InvalidCircuitError(f"wires must be distinct and non-negative, got {wires}")
        if self.kind in _ONE_WIRE or self.kind in _TWO_WIRE:
            want = _ONE_WIRE.get(self.kind) or _TWO_WIRE[self.kind]
            if len(wires) != want:
                raise InvalidCircuitError(f"{self.kind} acts on {want} wire(s), got {wires}")
            if self.kind in ("R", "CR"):
                if self.k is None or self.k < 1:
                    raise InvalidCircuitError(f"{self.kind} needs an integer k >= 1, got {self.k}")
            elif self.k is not None:
                raise InvalidCircuitError(f"{self.kind} takes no k parameter")
        elif self.kind == "U":
            if self.matrix is None:
                raise InvalidCircuitError("U gates need an explicit matrix")
            mat = np.asarray(self.matrix, dtype=complex)
            dim = 2 ** len(wires)
            if mat.shape != (dim, dim):
                raise InvalidCircuitError(
                    f"U on {len(wires)} wire(s) needs a {dim}x{dim} matrix, got {mat.shape}"
                )
            object.__setattr__(self, "matrix", mat)
        else:
            raise InvalidCircuitError(f"unknown gate kind {self.kind!r}")

    def local_matrix(self) -> np.ndarray:
        """The gate's unitary on its own wires (first listed wire = MSB)."""
        if self.kind == "H":
            return _H
        if self.kind == "SWAP":
            return _SWAP.copy()
        if self.kind in ("R", "CR"):
            sign = -1.0 if self.dagger else 1.0
            phase = np.exp(sign * 2j * np.pi / 2**self.k)
            diag = [1, phase] if self.kind == "R" else [1, 1, 1, phase]
            return np.diag(diag).astype(complex)
        mat = self.matrix
        return mat.conj().T if self.dagger else mat.copy()

    def inverse(self) -> "Gate":
        if self.kind in ("H", "SWAP"):
            return self
        return Gate(self.kind, self.wires, k=self.k, dagger=not self.dagger, matrix=self.matrix)


@dataclass(frozen=True, eq=False)
class GateList:
    """An ordered circuit on n_qubits wires, stored in application order."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_qubits < 1:
            raise InvalidCircuitError(f"need at least one qubit, got {self.n_qubits}")
        for g in self.gates:
            if any(w >= self.n_qubits for w in g.wires):
                raise InvalidCircuitError(
                    f"gate {g.kind} on wires {g.wires} exceeds {self.n_qubits} qubits"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def inverse(self) -> "GateList":
        """Reverse the order and invert each gate (conjugate phases)."""
        return GateList(self.n_qubits, tuple(g.inverse() for g in reversed(self.gates)))


def _embed_gate(mat: np.ndarray, wires: tuple[int, ...], n: int) -> np.ndarray:
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


def expand(circuit: GateList) -> np.ndarray:
    """Full 2**n x 2**n unitary of a gate list, gates applied in list order."""
    total = np.eye(2**circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        total = _embed_gate(g.local_matrix(), g.wires, circuit.n_qubits) @ total
    return total


def _phase_ladder(n: int, wires: list[int]) -> list[Gate]:
    # R(j+1) on wire q_j; factors commute, emitted in application order of the
    # right-to-left product.
    return [Gate("R", (wires[j],), k=j + 1) for j in reversed(range(n))]


def qudit_z_circuit(n: int) -> GateList:
    """Clock operator on a 2**n-level qudit from single-qubit phase gates.

    Wire q_j contributes exp(2*pi*i / 2**(j+1)) on its |1> state; summed over
    the binary expansion this is w**m on |m>.
    """
    if n < 1:
        raise InvalidCircuitError(f"need n >= 1 qubits, got {n}")
    return GateList(n, tuple(_phase_ladder(n, list(range(n)))))


def qcz_circuit(n: int, control_wire: int, target_wires: tuple[int, ...] | list[int]) -> GateList:
    """Qubit-controlled qudit clock: Z on the n target wires iff control is |1>."""
    targets = [int(w) for w in target_wires]
    if len(targets) != n:
        raise InvalidCircuitError(f"expected {n} target wires, got {targets}")
    wires = [control_wire, *targets]
    if len(set(wires)) != len(wires):
        raise InvalidCircuitError(f"control and target wires collide: {wires}")
    gates = [Gate("CR", (control_wire, targets[j]), k=j + 1) for j in reversed(range(n))]
    return GateList(max(wires) + 1, tuple(gates))


def cz_qudit_circuit(n: int) -> GateList:
    """Qudit-controlled clock sum_m Z^m x |m><m| on 2n wires.

    Control qubit c_j (wire n+j) carries index weight 2**(n-1-j), so the QCZ
    conditioned on it is repeated 2**(n-1-j) times; repetition, not angle
    doubling, realizes the integer powers.
    """
    if n < 1:
        raise InvalidCircuitError(f"need n >= 1 qubits per register, got {n}")
    targets = list(range(n))
    gates: list[Gate] = []
    for j in range(n):
        control = n + (n - j - 1)
        rep = qcz_circuit(n, control, targets).gates
        for _ in range(2**j):
            gates.extend(rep)
    return GateList(2 * n, tuple(gates))


def qudit_fourier_circuit(n: int, wire_offset: int = 0, n_qubits: int | None = None) -> GateList:
    """Fourier transform on a 2**n-level qudit: the H / CR(k) ladder plus the
    wire-reversing SWAPs."""
    if n < 1:
        raise InvalidCircuitError(f"need n >= 1 qubits, got {n}")
    gates: list[Gate] = []
    for i in range(n):
        gates.append(Gate("H", (wire_offset + i,)))
        for j in range(i + 1, n):
            gates.append(Gate("CR", (wire_offset + j, wire_offset + i), k=j - i + 1))
    for i in range(n // 2):
        gates.append(Gate("SWAP", (wire_offset + i, wire_offset + n - 1 - i)))
    return GateList(n_qubits or wire_offset + n, tuple(gates))


def cx_qudit_circuit(n: int) -> GateList:
    """Qudit-controlled shift sum_m X^m x |m><m| on 2n wires.

    Fourier-conjugating the target register of the controlled clock turns
    clock powers into shift powers, since X = F^dag Z F.
    """
    fw = qudit_fourier_circuit(n, wire_offset=0, n_qubits=2 * n)
    cz = cz_qudit_circuit(n)
    return GateList(2 * n, fw.gates + cz.gates + fw.inverse().gates)


def bell_rotation_circuit(n: int) -> GateList:
    """Bell change of basis (I x F^dag)(sum_j X^{-j} x |j><j|) on 2n wires.

    The inverse controlled shift is the reversed, phase-conjugated qudit CX.
    """
    shift_inv = cx_qudit_circuit(n).inverse()
    f_dag = qudit_fourier_circuit(n, wire_offset=n, n_qubits=2 * n).inverse()
    return GateList(2 * n, shift_inv.gates + f_dag.gates)


def full_naimark_circuit(m: np.ndarray | GateList, n: int) -> GateList:
    """Complete measurement circuit (I x F^dag)(sum_j X^{-j} x |j><j|)(I x M^T).

    System qudit on wires 0..n-1, ancilla on wires n..2n-1.  M may be given as
    a gate list (expanded and then transposed) or as a matrix; either way M^T
    enters as one opaque gate on the ancilla, followed by bell_rotation_circuit.
    """
    d = 2**n
    if isinstance(m, GateList):
        if 2**m.n_qubits != d:
            raise InvalidInputError(f"gate list acts on 2**{m.n_qubits} levels, expected {d}")
        m = expand(m)
    m = np.asarray(m, dtype=complex)
    if m.shape != (d, d):
        raise InvalidInputError(f"completion matrix must be {d}x{d} for n={n}, got {m.shape}")
    prep = Gate("U", tuple(range(n, 2 * n)), matrix=m.T)
    return GateList(2 * n, (prep,) + bell_rotation_circuit(n).gates)


def unitarity_residual(circuit: GateList) -> float:
    return wh.unitarity_residual(expand(circuit))
