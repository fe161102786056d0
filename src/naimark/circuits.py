"""Qubit-level synthesis of the qudit operations when d = 2**n.

Wire convention: qubit 0 carries the most significant bit of the qudit index,
so the basis state |m> of a d = 2**n qudit has bit (m >> (n-1-w)) & 1 on
wire w.  Gate lists are stored in application order (the first gate acts
first); composite definitions written as right-to-left operator products are
therefore reversed when flattened into a list.

Two-register circuits put the target qudit on wires 0..n-1 (first tensor
factor) and the control qudit on wires n..2n-1, matching the closed forms
sum_m Z^m x |m><m| and sum_m X^m x |m><m|.

Gate lists are simulated on a state tensor of shape (2,)*n + (k,), one axis
per wire plus a batch of k columns, in O(gates * 2**n * k) with no 2**n x 2**n
gate matrix (`apply_circuit`); `expand` applies the gates to the identity's
columns.  On |psi> embedded at ancilla index i, the full measurement circuit
gives the outcome amplitudes directly.
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
    opaque unitary U given by an explicit matrix, unitary to PHYSICAL_TOL.

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
            mat = wh.require_unitary(mat, wh.PHYSICAL_TOL, "U-gate matrix")
            object.__setattr__(self, "matrix", mat)
        else:
            raise InvalidCircuitError(f"unknown gate kind {self.kind!r}")

    @property
    def phase(self) -> complex:
        """The phase R(k) puts on |1> and CR(k) on |11>: exp(+-2*pi*i / 2**k)."""
        if self.kind not in ("R", "CR"):
            raise InvalidCircuitError(f"{self.kind} gates carry no phase")
        sign = -1.0 if self.dagger else 1.0
        return np.exp(sign * 2j * np.pi / 2**self.k)

    def local_matrix(self) -> np.ndarray:
        """The gate's unitary on its own wires (first listed wire = MSB)."""
        if self.kind == "H":
            return _H.copy()
        if self.kind == "SWAP":
            return _SWAP.copy()
        if self.kind in ("R", "CR"):
            diag = [1, self.phase] if self.kind == "R" else [1, 1, 1, self.phase]
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
            if g.wires and max(g.wires) >= self.n_qubits:
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


def apply_circuit(circuit: GateList, states: np.ndarray) -> np.ndarray:
    """The gate list applied, in list order, to one 2**n state vector or to each
    column of a (2**n, k) batch; returns a new array of the same shape.

    The states are held as a tensor of shape (2,)*n + (k,).  R and CR scale one
    slice by their phase, SWAP relabels two axes, one-wire H and U gates mix
    the wire's two slices, and U gates on more wires are contracted with their
    wires' axes, so no 2**n x 2**n gate matrix is formed.
    """
    n = circuit.n_qubits
    shape = np.shape(states)
    if len(shape) not in (1, 2) or shape[0] != 2**n:
        raise InvalidInputError(
            f"states for {n} qubits must have shape ({2**n},) or ({2**n}, k), got {shape}"
        )
    t = np.array(states, dtype=complex).reshape((2,) * n + (1 if len(shape) == 1 else shape[1],))
    axis = list(range(n))  # axis[w] is the tensor axis that holds wire w

    def part(wires, bit):
        """The slice of t where each of the wires holds the bit."""
        index = [slice(None)] * (n + 1)
        for w in wires:
            index[axis[w]] = bit
        return t[tuple(index)]

    for g in circuit.gates:
        if g.kind == "SWAP":
            a, b = g.wires
            axis[a], axis[b] = axis[b], axis[a]
        elif g.kind in ("R", "CR"):
            part(g.wires, 1)[...] *= g.phase
        elif len(g.wires) == 1:
            (u00, u01), (u10, u11) = g.local_matrix()
            t0, t1 = part(g.wires, 0), part(g.wires, 1)
            new0 = u00 * t0 + u01 * t1
            t1 *= u11
            t1 += u10 * t0
            t0[...] = new0
        else:
            m = len(g.wires)
            gate = g.local_matrix().reshape((2,) * (2 * m))
            targets = [axis[w] for w in g.wires]
            t = np.tensordot(gate, t, axes=(range(m, 2 * m), targets))
            t = np.moveaxis(t, range(m), targets)  # tensordot put the gate's axes first
    return np.transpose(t, axis + [n]).reshape(shape)


def expand(circuit: GateList) -> np.ndarray:
    """Full 2**n x 2**n unitary of a gate list: the gates applied to the identity's columns."""
    return apply_circuit(circuit, np.eye(2**circuit.n_qubits))


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
