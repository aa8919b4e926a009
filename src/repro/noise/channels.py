"""Pluggable per-gate-class noise channels.

A *gate channel* describes the Pauli error attached to one class of
circuit operations (single-qubit gates, CNOTs, or the pre-measurement
gate error).  Every channel lowers to the labeled Pauli noise ops of the
circuit IR (``DEPOLARIZE1`` / ``DEPOLARIZE2`` / ``PAULI_CHANNEL_1``), so
the frame simulator, the DEM extractor, the packed samplers, and the
whole decode / rare-event stack run unchanged on any channel mix.

Channels are registered by ``kind`` in :data:`CHANNEL_REGISTRY`; adding
a new one is: subclass :class:`GateChannel`, implement
``ops``/``to_payload``/``from_payload``, and decorate with
:func:`register_channel`.  The payload is the serialization contract —
it is what a :class:`~repro.noise.spec.NoiseSpec` hashes, so every
result-affecting parameter of a channel must appear in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar

# One lowered noise instruction: (gate, args).  The spec's ``apply``
# places it on the targets of the gate the channel attaches to and
# stamps that gate's label.
LoweredOp = tuple[str, tuple[float, ...]]

CHANNEL_REGISTRY: dict[str, type["GateChannel"]] = {}


def register_channel(cls: type["GateChannel"]) -> type["GateChannel"]:
    """Class decorator: make a channel constructible from payloads."""
    kind = cls.KIND
    if not kind:
        raise ValueError(f"{cls.__name__} must define a non-empty KIND")
    existing = CHANNEL_REGISTRY.get(kind)
    if existing is not None and existing is not cls:
        raise ValueError(f"channel kind {kind!r} already registered")
    CHANNEL_REGISTRY[kind] = cls
    return cls


def channel_from_payload(payload: dict[str, Any]) -> "GateChannel":
    """Rebuild a registered channel from its serialized payload."""
    kind = payload.get("kind")
    if kind not in CHANNEL_REGISTRY:
        raise KeyError(
            f"unknown channel kind {kind!r} (registered: "
            f"{sorted(CHANNEL_REGISTRY)})"
        )
    return CHANNEL_REGISTRY[kind].from_payload(payload)


# The 15 non-identity two-qubit Pauli pairs, in the canonical order
# shared with ``PAULI_CHANNEL_2`` args and ``repro.sim.dem``.
TWO_QUBIT_PAULI_LABELS = tuple(
    f"{p1}{p2}"
    for p1 in ("I", "X", "Y", "Z")
    for p2 in ("I", "X", "Y", "Z")
    if (p1, p2) != ("I", "I")
)


@dataclass(frozen=True)
class GateChannel:
    """Base class for per-gate-class Pauli channels."""

    KIND: ClassVar[str] = ""
    # Which gate arity the channel can attach to: None = any, 1 =
    # single-qubit classes only, 2 = two-qubit classes (CNOT) only.
    # ``NoiseSpec`` validates slots against this at construction so a
    # correlated channel in the ``sq`` slot fails loudly, not at
    # apply time deep inside a sweep.
    ARITY: ClassVar[int | None] = None

    def ops(self, arity: int) -> list[LoweredOp]:
        """The noise instructions every application of the channel
        lowers to, in order.

        Each instruction acts on the flattened qubits of the gate op the
        channel attaches to; ``arity`` is the gate class (1 for
        single-qubit gates and measurements, 2 for CNOT).  Returning
        ``[]`` means the channel is a no-op at its current parameters.
        """
        raise NotImplementedError

    def to_payload(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "GateChannel":
        """Rebuild from :meth:`to_payload` output.

        Implementations must reject unknown keys (see
        :func:`_require_fields`): a misspelled field in a hand-written
        payload must fail loudly, not silently run different physics —
        the ignored key would still change the content address.
        """
        raise NotImplementedError


def _require_fields(payload: dict[str, Any], allowed: set[str]) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(
            f"unknown channel payload fields for kind "
            f"{payload.get('kind')!r}: {sorted(unknown)}"
        )


@register_channel
@dataclass(frozen=True)
class DepolarizingChannel(GateChannel):
    """Uniform depolarizing noise — the paper's §6.1 gate channel.

    Single-qubit applications draw one of {X, Y, Z} with probability
    ``p/3`` each; two-qubit applications one of the fifteen non-identity
    two-qubit Paulis with probability ``p/15`` each.
    """

    p: float

    KIND: ClassVar[str] = "depolarizing"

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError(f"depolarizing rate {self.p} outside [0, 1]")

    def ops(self, arity: int) -> list[LoweredOp]:
        if self.p <= 0:
            return []
        gate = "DEPOLARIZE1" if arity == 1 else "DEPOLARIZE2"
        return [(gate, (self.p,))]

    def to_payload(self) -> dict[str, Any]:
        return {"kind": self.KIND, "p": float(self.p)}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "DepolarizingChannel":
        _require_fields(payload, {"kind", "p"})
        return cls(p=float(payload["p"]))


@register_channel
@dataclass(frozen=True)
class BiasedPauliChannel(GateChannel):
    """Biased Pauli noise with an eta-parameterized X/Y/Z split.

    The standard bias convention: ``eta = p_z / (p_x + p_y)`` with
    ``p_x = p_y``, at total error probability ``p``::

        p_z = p * eta / (1 + eta)
        p_x = p_y = p / (2 * (1 + eta))

    ``eta = 0.5`` recovers the depolarizing split ``p/3`` each; large
    ``eta`` is dephasing-dominated hardware.  Two-qubit applications
    lower to *independent* single-qubit biased channels on each qubit of
    the pair (the usual circuit-level biased-noise model) — correlated
    two-qubit Paulis are deliberately not part of this channel.
    """

    p: float
    eta: float

    KIND: ClassVar[str] = "biased"

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError(f"biased channel rate {self.p} outside [0, 1]")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"bias eta {self.eta} must be positive and finite")

    def pauli_probs(self) -> tuple[float, float, float]:
        """The lowered (p_x, p_y, p_z) split."""
        pz = self.p * self.eta / (1.0 + self.eta)
        pxy = self.p / (2.0 * (1.0 + self.eta))
        return (pxy, pxy, pz)

    def ops(self, arity: int) -> list[LoweredOp]:
        if self.p <= 0:
            return []
        # PAULI_CHANNEL_1 has arity 1, so a flattened two-qubit target
        # list is exactly the independent per-qubit application.
        return [("PAULI_CHANNEL_1", self.pauli_probs())]

    def to_payload(self) -> dict[str, Any]:
        return {"kind": self.KIND, "p": float(self.p), "eta": float(self.eta)}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "BiasedPauliChannel":
        _require_fields(payload, {"kind", "p", "eta"})
        return cls(p=float(payload["p"]), eta=float(payload["eta"]))


@register_channel
@dataclass(frozen=True)
class CorrelatedPauliChannel(GateChannel):
    """A genuinely correlated two-qubit Pauli channel.

    Unlike every other channel (which lowers two-qubit gate noise to
    *independent* per-qubit Paulis), this one draws a single error from
    the 15 non-identity two-qubit Paulis with an arbitrary probability
    per pair, lowering to one ``PAULI_CHANNEL_2`` instruction — so an
    ``XX`` after a CNOT really is one mechanism flipping both qubits,
    not two coincident singles.  ``probs`` follows the canonical
    :data:`TWO_QUBIT_PAULI_LABELS` order (IX, IY, IZ, XI, XX, ..., ZZ).

    Only attaches to two-qubit gate classes (``ARITY = 2``): there is no
    sensible marginalization to a single-qubit application, and a silent
    one would mask a misconfigured spec.
    """

    probs: tuple[float, ...]

    KIND: ClassVar[str] = "correlated"
    ARITY: ClassVar[int | None] = 2

    def __post_init__(self):
        probs = tuple(float(x) for x in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != 15:
            raise ValueError(
                f"correlated channel needs 15 pair probabilities "
                f"({', '.join(TWO_QUBIT_PAULI_LABELS)}), got {len(probs)}"
            )
        if any(not (math.isfinite(x) and 0 <= x <= 1) for x in probs):
            raise ValueError("correlated pair probabilities must be in [0, 1]")
        total = sum(probs)
        if not 0 <= total <= 1:
            raise ValueError(
                f"correlated pair probabilities sum to {total}, outside [0, 1]"
            )

    @classmethod
    def depolarizing(cls, p: float) -> "CorrelatedPauliChannel":
        """Uniform p/15 per pair — the DEPOLARIZE2 split, but explicit."""
        if not 0 <= p <= 1:
            raise ValueError(f"correlated channel rate {p} outside [0, 1]")
        return cls(probs=(p / 15.0,) * 15)

    @classmethod
    def from_pairs(cls, pairs: dict[str, float]) -> "CorrelatedPauliChannel":
        """Build from a sparse {\"XX\": 0.001, ...} map (rest zero)."""
        unknown = set(pairs) - set(TWO_QUBIT_PAULI_LABELS)
        if unknown:
            raise ValueError(f"unknown two-qubit Pauli labels: {sorted(unknown)}")
        return cls(
            probs=tuple(
                float(pairs.get(label, 0.0)) for label in TWO_QUBIT_PAULI_LABELS
            )
        )

    def total(self) -> float:
        return float(sum(self.probs))

    def ops(self, arity: int) -> list[LoweredOp]:
        if arity != 2:
            raise ValueError(
                "correlated two-qubit channel cannot attach to a "
                f"{arity}-qubit gate class"
            )
        if self.total() <= 0:
            return []
        return [("PAULI_CHANNEL_2", self.probs)]

    def to_payload(self) -> dict[str, Any]:
        return {"kind": self.KIND, "probs": [float(x) for x in self.probs]}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CorrelatedPauliChannel":
        _require_fields(payload, {"kind", "probs"})
        return cls(probs=tuple(float(x) for x in payload["probs"]))
