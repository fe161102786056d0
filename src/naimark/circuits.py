"""Qubit-level synthesis of the qudit operations when d = 2**n.

Wire convention: qubit 0 carries the most significant bit of the qudit index,
so the basis state |m> of a d = 2**n qudit has bit (m >> (n-1-w)) & 1 on
wire w.  Gate lists are stored in application order (the first gate acts
first); composite definitions written as right-to-left operator products are
therefore reversed when flattened into a list.

Two-register circuits put the target qudit on wires 0..n-1 (first tensor
factor) and the control qudit on wires n..2n-1, matching the closed forms
sum_m Z^m x |m><m| and sum_m X^m x |m><m|.

`apply_circuit` runs a gate list on a state tensor with one axis per wire and a
batch axis: each run of gates within _BLOCK wires becomes one small matrix applied
by one matmul, and the R/CR gates between blocks are summed per wire set into one
phase table.  `expand` applies the gates to the identity's columns.  On |psi>
embedded at ancilla index i, the full circuit gives the outcome amplitudes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import wh
from .errors import InvalidCircuitError, InvalidInputError

_WIRES = {"H": 1, "R": 1, "CR": 2, "SWAP": 2}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# The most tensor axes one fused block of apply_circuit spans.  A sweep of 2..6
# (`expand` at n = 3, 4, 5; one vector at n = 6, 8, 10; CHANGES.md) found 4 the only
# width faster than one pass per gate at every n >= 4; 5 is faster at n = 5 and 10.
_BLOCK = 4


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
            if self.matrix is None or not wires:
                raise InvalidCircuitError("U gates need an explicit matrix and at least one wire")
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
    def turns(self) -> float:
        """The phase of R(k) on |1> and CR(k) on |11> in turns, +-2.0**-k (0.0 past k = 1074)."""
        if self.kind not in ("R", "CR"):
            raise InvalidCircuitError(f"{self.kind} gates carry no phase")
        return -(2.0**-self.k) if self.dagger else 2.0**-self.k

    @property
    def phase(self) -> complex:
        """The phase R(k) puts on |1> and CR(k) on |11>: exp(2*pi*i * turns)."""
        return np.exp(2j * np.pi * self.turns)

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
        try:
            object.__setattr__(self, "n_qubits", operator.index(self.n_qubits))
        except TypeError as exc:
            raise InvalidCircuitError(f"n_qubits must be an integer, got {self.n_qubits!r}") from exc
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


def _ones(a: np.ndarray, axes) -> np.ndarray:
    """The view of a where each of the axes holds bit 1."""
    return a[tuple(1 if x in axes else slice(None) for x in range(a.ndim))]


def _matmul(t: np.ndarray, axes: list[int], mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """mat on the axes of t (first listed = MSB), moved to the front unless they are
    consecutive and in order; returns the result and the new place of each axis."""
    m, first, dims = len(axes), axes[0], t.shape
    where = list(range(t.ndim))
    if axes != where[first : first + m]:
        order = axes + [x for x in where if x not in axes]
        t, first, where = t.transpose(order), 0, [order.index(x) for x in where]
    rest = t.size >> (first + m)  # rest == 1: one GEMM, not 2**first matrix-vector products
    t = t.reshape(-1, 2**m) @ mat.T if rest == 1 else np.matmul(mat, t.reshape(2**first, 2**m, rest))
    return t.reshape(dims), where


def _block_matrix(block: list[tuple], wide: list[int]) -> np.ndarray:
    """The (phase or matrix, tensor axes) steps applied to the identity on the sorted axes `wide`."""
    m = len(wide)
    b = np.eye(2**m, dtype=complex).reshape((2,) * m + (2**m,))
    loc = list(range(m))  # loc[i] is the axis of b that holds wide[i]
    for op, axes in block:
        local = [loc[wide.index(x)] for x in axes]
        if np.ndim(op) == 0:
            _ones(b, local)[...] *= op
        else:
            b, moved = _matmul(b, local, op)
            loc = [moved[x] for x in loc]
    return b.transpose(loc + [m]).reshape(2**m, 2**m)


def apply_circuit(circuit: GateList, states: np.ndarray) -> np.ndarray:
    """The gate list applied, in list order, to one 2**n state vector or to each
    column of a (2**n, k) batch; returns a new array of the same shape.

    The states are one (2,)*n + (k,) tensor with a wire -> axis map that SWAP
    updates.  A run of H, U, R and CR gates within _BLOCK axes becomes one matrix,
    built on the identity and applied by one matmul; a wider U gate is applied
    alone.  R/CR gates that do not fit the open block add +-2**-k turns (mod 1) to
    their axis set, and each set puts one phase in a table applied once after the
    block.  Cost: O(2**n * k * 2**m) per block on m <= _BLOCK axes or U gate on m
    wires, and O(2**n) per distinct axis set in each phase run.
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
    table = np.ones((2,) * n + (1,), dtype=complex)
    block, wide, run = [], set(), {}  # the open block, its axes, the phase run after it

    def flush(last=False):
        nonlocal t, axis
        moved = list(range(n + 1))
        if block:
            t, moved = _matmul(t, sorted(wide), _block_matrix(block, sorted(wide)))
            axis = [moved[x] for x in axis]
        for axes, turns in run.items():
            _ones(table, [moved[x] for x in axes])[...] *= np.exp(2j * np.pi * turns)
        if run and not last:  # the last run is applied in the final copy
            t *= table
            table[...] = 1
        block.clear(), wide.clear(), run.clear()

    for g in circuit.gates:
        axes = [axis[w] for w in g.wires]
        fits = not run and len(wide.union(axes)) <= _BLOCK
        if g.kind == "SWAP":
            axis[g.wires[0]], axis[g.wires[1]] = axes[1], axes[0]
        elif g.kind in ("R", "CR") and not (block and fits):
            key = tuple(sorted(axes))
            run[key] = (run.get(key, 0.0) + g.turns) % 1.0
        else:
            if not fits:
                flush()
                axes = [axis[w] for w in g.wires]  # a block may have moved them
            op = g.phase if g.kind in ("R", "CR") else _H if g.kind == "H" else g.matrix
            op = op.conj().T if g.kind == "U" and g.dagger else op
            if len(axes) > _BLOCK:
                t, moved = _matmul(t, axes, op)
                axis = [moved[x] for x in axis]
            else:
                block.append((op, axes))
                wide.update(axes)
    flush(last=True)
    return np.transpose(t * table, axis + [n]).reshape(shape)


def expand(circuit: GateList) -> np.ndarray:
    """Full 2**n x 2**n unitary of a gate list: the gates applied to the identity's columns."""
    return apply_circuit(circuit, np.eye(2**circuit.n_qubits))


def qudit_z_circuit(n: int) -> GateList:
    """Clock operator on a 2**n-level qudit from single-qubit phase gates.

    Wire q_j contributes exp(2*pi*i / 2**(j+1)) on its |1> state; summed over
    the binary expansion this is w**m on |m>.
    """
    n = wh._require_int(n, 1, "need n >= 1 qubits", InvalidCircuitError)
    # R(j+1) on wire q_j; factors commute, emitted in application order of the
    # right-to-left product.
    return GateList(n, tuple(Gate("R", (j,), k=j + 1) for j in reversed(range(n))))


def qcz_circuit(n: int, control_wire: int, target_wires: tuple[int, ...] | list[int]) -> GateList:
    """Qubit-controlled qudit clock: Z on the n target wires iff control is |1>."""
    n = wh._require_int(n, 1, "need n >= 1 qubits", InvalidCircuitError)
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
    n = wh._require_int(n, 1, "need n >= 1 qubits per register", InvalidCircuitError)
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
    n = wh._require_int(n, 1, "need n >= 1 qubits", InvalidCircuitError)
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
    n = wh._require_int(n, 1, "need n >= 1 qubits", InvalidCircuitError)
    d = 2**n
    m = np.asarray(m, dtype=complex)
    if m.shape != (d, d):
        shape = "x".join(map(str, m.shape))
        raise InvalidInputError(f"completion matrix is {shape}; qubit synthesis needs d = 2**n = {d}")
    prep = Gate("U", tuple(range(n, 2 * n)), matrix=m.T)
    return GateList(2 * n, (prep,) + bell_rotation_circuit(n).gates)
