"""Synthesis of diagonal unitaries over a small gate alphabet.

Gate alphabet: X, CNOT, a single-qubit phase pair diag(e^{i a}, e^{i b}),
and its singly-controlled version. Qubit 0 is the most significant bit of
the basis index.

Any diagonal splits into one unconditional phase pair on the last qubit
plus one controlled pair per nonzero parity of the leading qubits (the
control parity is folded onto one wire with CNOTs). When the phase vector
depends only on a single subset parity and the last qubit, two controlled
pairs conjugated by X suffice, which beats the blind decomposition from
width 3 upward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError

X = "X"
CNOT = "CNOT"
PHASE = "PHASE"
CPHASE = "CPHASE"

PHASE_KINDS = (PHASE, CPHASE)
GATE_KINDS = (X, CNOT, PHASE, CPHASE)

MAX_DENSE_WIDTH = 12


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    control: int | None = None
    phases: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        needs_control = self.kind in (CNOT, CPHASE)
        if needs_control and self.control is None:
            raise ValidationError(f"{self.kind} needs a control qubit")
        if not needs_control and self.control is not None:
            raise ValidationError(f"{self.kind} takes no control qubit")
        needs_phases = self.kind in PHASE_KINDS
        if needs_phases:
            if self.phases is None or len(self.phases) != 2:
                raise ValidationError(f"{self.kind} needs exactly two phases")
            object.__setattr__(self, "phases", (float(self.phases[0]), float(self.phases[1])))
        elif self.phases is not None:
            raise ValidationError(f"{self.kind} takes no phases")
        if self.control is not None and self.control == self.target:
            raise ValidationError("control and target must differ")


@dataclass
class Circuit:
    width: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValidationError("width must be nonnegative")
        for g in self.gates:
            for q in (g.target, g.control):
                if q is not None and not 0 <= q < self.width:
                    raise ValidationError(f"gate qubit {q} outside width {self.width}")

    def count(self, *kinds: str) -> int:
        return sum(1 for g in self.gates if g.kind in kinds)


def _bit(indices: np.ndarray, width: int, qubit: int) -> np.ndarray:
    return (indices >> (width - 1 - qubit)) & 1


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary; gates listed first act first."""
    if circuit.width > MAX_DENSE_WIDTH:
        raise ResourceLimitError(
            f"width {circuit.width} exceeds the dense limit of {MAX_DENSE_WIDTH}"
        )
    dim = 1 << circuit.width
    idx = np.arange(dim)
    u = np.eye(dim, dtype=np.complex128)
    for g in circuit.gates:
        if g.kind == X:
            src = idx ^ (1 << (circuit.width - 1 - g.target))
            u = u[src, :]
        elif g.kind == CNOT:
            flip = _bit(idx, circuit.width, g.control) << (circuit.width - 1 - g.target)
            u = u[idx ^ flip, :]
        elif g.kind == PHASE:
            tbit = _bit(idx, circuit.width, g.target)
            ph = np.exp(1j * np.where(tbit == 0, g.phases[0], g.phases[1]))
            u = ph[:, None] * u
        else:
            tbit = _bit(idx, circuit.width, g.target)
            cbit = _bit(idx, circuit.width, g.control)
            ph = np.exp(1j * cbit * np.where(tbit == 0, g.phases[0], g.phases[1]))
            u = ph[:, None] * u
    return u


def _walsh_transform(rows: np.ndarray) -> np.ndarray:
    """Butterfly transform X[S] = sum_c (-1)^{popcount(S & c)} rows[c].

    Pairwise add/subtract keeps structured cancellations exact.
    """
    out = rows.astype(float, copy=True)
    h = 1
    n = out.shape[0]
    while h < n:
        for start in range(0, n, 2 * h):
            lo = out[start : start + h].copy()
            hi = out[start + h : start + 2 * h]
            out[start : start + h] = lo + hi
            out[start + h : start + 2 * h] = lo - hi
        h *= 2
    return out


def _mask_parity(c: np.ndarray, mask: int) -> np.ndarray:
    par = np.zeros_like(c)
    bits = mask
    while bits:
        b = bits & -bits
        par ^= (c & b) != 0
        bits ^= b
    return par.astype(np.int64)


def _mask_qubits(mask: int, width: int) -> list[int]:
    # c-bit b corresponds to qubit width-2-b (qubit 0 is the MSB).
    return sorted(width - 2 - b for b in range(width - 1) if (mask >> b) & 1)


def _fold_chain(qubits: Sequence[int]) -> list[Gate]:
    return [
        Gate(CNOT, target=qubits[i + 1], control=qubits[i])
        for i in range(len(qubits) - 1)
    ]


def _detect_parity_pattern(thetas: np.ndarray) -> int | None:
    """Smallest control-bit mask whose parity, together with the last
    qubit, determines every phase exactly. None when no mask works."""
    n_ctrl = thetas.shape[0]
    c = np.arange(n_ctrl)
    masks = sorted(range(n_ctrl), key=lambda m: (bin(m).count("1"), m))
    for mask in masks:
        par = _mask_parity(c, mask)
        ok = True
        for side in (0, 1):
            rows = thetas[par == side]
            if rows.size and not np.all(rows == rows[0]):
                ok = False
                break
        if ok:
            return mask
    return None


def synthesize_diagonal(phases: np.ndarray, strategy: str = "auto") -> Circuit:
    """Circuit whose unitary is diag(exp(i phases)).

    strategy 'auto' compresses single-parity patterns when that strictly
    reduces the phase-gate count; 'naive' always emits the full
    2^(width-1)-gate multiplexed decomposition.
    """
    if strategy not in ("auto", "naive"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 2 or (phases.size & (phases.size - 1)) != 0:
        raise ValidationError("phase vector length must be a power of two >= 2")
    if not np.all(np.isfinite(phases)):
        raise ValidationError("phases must be finite")
    width = int(phases.size).bit_length() - 1
    if width > MAX_DENSE_WIDTH:
        raise ResourceLimitError(f"width {width} exceeds {MAX_DENSE_WIDTH}")
    if np.all(phases == 0.0):
        return Circuit(width=width, gates=[])

    last = width - 1
    thetas = phases.reshape(-1, 2)
    n_ctrl = thetas.shape[0]

    if strategy == "auto":
        mask = _detect_parity_pattern(thetas)
        if mask == 0:
            return Circuit(width=width, gates=[Gate(PHASE, last, phases=tuple(thetas[0]))])
        if mask is not None and 2 < n_ctrl:
            par = _mask_parity(np.arange(n_ctrl), mask)
            pair0 = tuple(thetas[par == 0][0])
            pair1 = tuple(thetas[par == 1][0])
            qubits = _mask_qubits(mask, width)
            rep = qubits[-1]
            chain = _fold_chain(qubits)
            gates = list(chain)
            gates.append(Gate(CPHASE, last, control=rep, phases=pair1))
            gates.append(Gate(X, rep))
            gates.append(Gate(CPHASE, last, control=rep, phases=pair0))
            gates.append(Gate(X, rep))
            gates.extend(reversed(chain))
            return Circuit(width=width, gates=gates)

    # Blind route: theta(c) = k + sum_{S != 0} parity_S(c) * v_S with
    # v_S = -2 * walsh(theta)[S] / 2^(width-1) and k = theta(0).
    hat = _walsh_transform(thetas) / n_ctrl
    gates = [Gate(PHASE, last, phases=tuple(thetas[0]))]
    for mask in range(1, n_ctrl):
        pair = tuple(-2.0 * hat[mask])
        qubits = _mask_qubits(mask, width)
        rep = qubits[-1]
        chain = _fold_chain(qubits)
        gates.extend(chain)
        gates.append(Gate(CPHASE, last, control=rep, phases=pair))
        gates.extend(reversed(chain))
    return Circuit(width=width, gates=gates)


def count_kinetic_gates(n_particles: int, n: int, method: str) -> int:
    """Gates for one kinetic step over three axes per particle: the block
    product costs 2^n gates per register; the spectral route adds the
    n(n+1)/2 transform gates per register to its 2^n phases."""
    if n_particles < 1 or n < 1:
        raise ValidationError("particle count and register width must be >= 1")
    if method == "trotter":
        return 3 * n_particles * 2**n
    if method == "spectral":
        return 3 * n_particles * (2**n + n * (n + 1) // 2)
    raise ValidationError(f"unknown method {method!r}")


def circuit_to_text(circuit: Circuit) -> str:
    """One gate per line: KIND target [control] [theta_a theta_b]."""
    lines = []
    for g in circuit.gates:
        parts = [g.kind, str(g.target)]
        if g.control is not None:
            parts.append(str(g.control))
        if g.phases is not None:
            parts.extend(f"{t:.17g}" for t in g.phases)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def circuit_from_text(text: str, width: int | None = None) -> Circuit:
    gates = []
    max_qubit = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == X:
                gate = Gate(X, int(parts[1]))
            elif kind == CNOT:
                gate = Gate(CNOT, int(parts[1]), control=int(parts[2]))
            elif kind == PHASE:
                gate = Gate(PHASE, int(parts[1]), phases=(float(parts[2]), float(parts[3])))
            elif kind == CPHASE:
                gate = Gate(
                    CPHASE,
                    int(parts[1]),
                    control=int(parts[2]),
                    phases=(float(parts[3]), float(parts[4])),
                )
            else:
                raise ValidationError(f"unknown gate kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"malformed gate line {line!r}") from exc
        gates.append(gate)
        max_qubit = max(max_qubit, gate.target, gate.control or 0)
    if width is None:
        width = max_qubit + 1
    return Circuit(width=width, gates=gates)
