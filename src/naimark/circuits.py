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
per wire plus a batch of k columns, with no 2**n x 2**n gate matrix: a run of
R/CR gates as one phase table, H as an in-place butterfly with one deferred
scale, U gates by matmul, so O(2**n * k) per H, U or run and O(2**n) per R or
CR gate (`apply_circuit`).  `expand` applies the gates to the identity's
columns.  On |psi> embedded at ancilla index i, the full measurement circuit
gives the outcome amplitudes directly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import wh
from .errors import InvalidCircuitError, InvalidInputError

_WIRES = {"H": 1, "R": 1, "CR": 2, "SWAP": 2}

# apply_circuit runs H as the butterfly _H / _H[0, 0] and folds the _H[0, 0]s in at the end.
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True, eq=False)
class Gate:
    """One abstract gate: H, phase R(k), controlled phase CR(k), SWAP, or an
    opaque unitary U given by an explicit matrix (first listed wire = MSB),
    unitary to PHYSICAL_TOL.

    R(k) puts the phase exp(2*pi*i / 2**k) on |1>; `dagger` conjugates the
    phase (and, for U, takes the adjoint of the matrix).
    """

    kind: str
    wires: tuple[int, ...]
    k: int | None = None
    dagger: bool = False
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        try:  # operator.index, unlike int(), refuses floats and strings rather than truncating
            wires = tuple(map(operator.index, self.wires))
            k = None if self.k is None else operator.index(self.k)
        except TypeError as exc:
            raise InvalidCircuitError(
                f"wires and k must be integers, got wires={self.wires!r}, k={self.k!r}"
            ) from exc
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "k", k)
        if len(set(wires)) != len(wires) or any(w < 0 for w in wires):
            raise InvalidCircuitError(f"wires must be distinct and non-negative, got {wires}")
        if self.kind in _WIRES:
            want = _WIRES[self.kind]
            if len(wires) != want:
                raise InvalidCircuitError(f"{self.kind} acts on {want} wire(s), got {wires}")
            if self.kind in ("R", "CR"):
                if k is None or k < 1:
                    raise InvalidCircuitError(f"{self.kind} needs an integer k >= 1, got {k}")
            elif k is not None:
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

    The states are one C-contiguous tensor of shape (2,)*n + (k,) with a map from
    wire to axis, which SWAP updates.  A run of R/CR gates, SWAPs included, is
    gathered in one phase table and applied in place before the next H or U gate;
    H is the in-place butterfly (t0 + t1, t0 - t1), its 2**-0.5 applied in the
    final copy (and as 2**-32 per 64 H); a U gate is one matmul, after a transpose
    unless its axes are consecutive and in order.  Cost: O(2**n * k) per H or U
    gate and per run, and O(2**n) per R or CR gate.
    """
    n = circuit.n_qubits
    shape = np.shape(states)
    if len(shape) not in (1, 2) or shape[0] != 2**n:
        raise InvalidInputError(
            f"states for {n} qubits must have shape ({2**n},) or ({2**n}, k), got {shape}"
        )
    dims = (2,) * n + (shape[1:] or (1,))
    t = np.array(states, dtype=complex, order="C").reshape(dims)
    axis = list(range(n))  # axis[w] is the tensor axis that holds wire w
    table = np.ones((2,) * n + (1,), dtype=complex)  # the R/CR run not yet applied to t
    pending, h = False, 0  # h counts the H gates whose 2**-0.5 is not yet applied

    def part(a, wires, bit):
        """The slice of a where each of the wires holds the bit."""
        index = [slice(None)] * (n + 1)
        for w in wires:
            index[axis[w]] = bit
        return a[tuple(index)]

    for g in circuit.gates:
        if g.kind == "SWAP":
            a, b = g.wires
            axis[a], axis[b] = axis[b], axis[a]
        elif g.kind in ("R", "CR"):
            part(table, g.wires, 1)[...] *= g.phase
            pending = True
        elif pending:
            t *= table
            table[...], pending = 1, False
        if g.kind == "H":
            t0, t1 = part(t, g.wires, 0), part(t, g.wires, 1)
            t0 += t1
            t1 *= -2
            t1 += t0
            h += 1
            if h == 64:  # fold 2**-32 in, exactly, long before t could overflow
                t *= 2.0**-32
                h = 0
        elif g.kind == "U":
            mat = g.matrix.conj().T if g.dagger else g.matrix
            m, targets = len(g.wires), [axis[w] for w in g.wires]
            first = targets[0]
            if targets != list(range(first, first + m)):
                order = targets + [a for a in range(n + 1) if a not in targets]
                t, axis, first = t.transpose(order), [order.index(a) for a in axis], 0
            t = np.matmul(mat, t.reshape(2**first, 2**m, t.size >> (first + m))).reshape(dims)
    scale = _H[0, 0].real ** (h % 2) * 2.0 ** -(h // 2)
    return np.transpose(t * (table * scale), axis + [n]).reshape(shape)


def expand(circuit: GateList) -> np.ndarray:
    """Full 2**n x 2**n unitary of a gate list: the gates applied to the identity's columns."""
    return apply_circuit(circuit, np.eye(2**circuit.n_qubits))


def qudit_z_circuit(n: int) -> GateList:
    """Clock operator on a 2**n-level qudit from single-qubit phase gates.

    Wire q_j contributes exp(2*pi*i / 2**(j+1)) on its |1> state; summed over
    the binary expansion this is w**m on |m>.
    """
    if n < 1:
        raise InvalidCircuitError(f"need n >= 1 qubits, got {n}")
    # R(j+1) on wire q_j; factors commute, emitted in application order of the
    # right-to-left product.
    return GateList(n, tuple(Gate("R", (j,), k=j + 1) for j in reversed(range(n))))


def qcz_circuit(n: int, control_wire: int, target_wires: tuple[int, ...] | list[int]) -> GateList:
    """Qubit-controlled qudit clock: Z on the n target wires iff control is |1>."""
    targets = list(target_wires)
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


@lru_cache(maxsize=1)
def bell_rotation_circuit(n: int) -> GateList:
    """Bell change of basis (I x F^dag)(sum_j X^{-j} x |j><j|) on 2n wires.

    The inverse controlled shift is the reversed, phase-conjugated qudit CX.
    It depends on n alone, so the list for the last n is kept and shared: its
    gates are frozen and none is a U gate, so none holds an array.
    """
    shift_inv = cx_qudit_circuit(n).inverse()
    f_dag = qudit_fourier_circuit(n, wire_offset=n, n_qubits=2 * n).inverse()
    return GateList(2 * n, shift_inv.gates + f_dag.gates)


def full_naimark_circuit(m: np.ndarray, n: int) -> GateList:
    """Complete measurement circuit (I x F^dag)(sum_j X^{-j} x |j><j|)(I x M^T).

    System qudit on wires 0..n-1, ancilla on wires n..2n-1.  M^T enters as one
    opaque gate on the ancilla, followed by the gates of bell_rotation_circuit(n),
    which are shared by every circuit of that n.
    """
    d = 2**n
    m = np.asarray(m, dtype=complex)
    if m.shape != (d, d):
        shape = "x".join(map(str, m.shape))
        raise InvalidInputError(f"completion matrix is {shape}; qubit synthesis needs d = 2**n = {d}")
    prep = Gate("U", tuple(range(n, 2 * n)), matrix=m.T)
    return GateList(2 * n, (prep,) + bell_rotation_circuit(n).gates)
