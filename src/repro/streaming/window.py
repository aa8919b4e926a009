"""Sliding-window decoding over round-sliced syndromes.

:class:`WindowedDecoder` wraps any :class:`~repro.decoders.base.Decoder`
with a window/commit schedule: rounds are pushed in arrival order, and
once ``window_rounds`` rounds are pending the oldest ``commit_rounds``
of them are *committed* — the decoder runs over every round received so
far (unseen future rounds are all-zero detector rows, which every
decoder in the stack treats as "no defect") and the resulting
correction becomes the committed answer for the rounds leaving the
window.  Later rounds may *revise* a committed correction — the
speculation cost of answering early — and the revision count is
reported rather than hidden.

The contract the property tests pin: after the final round is pushed,
:meth:`WindowedDecoder.finish` returns corrections **bit-identical** to
offline :meth:`~repro.decoders.base.Decoder.decode_batch_packed` on the
same batch, for every decoder family and any window/commit schedule.
The last commit sees the complete syndrome, so identity holds by
construction *if* the round slicing, ordering, and reassembly are exact
— which is precisely what the test guards.

Commits go through the unchanged packed decode path, so the
unique-syndrome dedup, the decoder's syndrome memo (which serves
syndromes repeated across commits), and the kernel backends all apply
per commit; with one round per commit this is the small-batch regime
the latency benches measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..decoders.base import Decoder
from ..sim.bitbatch import BitSampleBatch, count_differing_shots, num_shot_words
from .rounds import RoundLayout, SyndromeRound

_COMMIT_S = obs.histogram("stream.commit_s")
_COMMITS = obs.counter("stream.commits")
_REVISED = obs.counter("stream.revised_shots")


@dataclass(frozen=True)
class WindowConfig:
    """Window/commit schedule: hold ``window_rounds`` rounds of context,
    commit the oldest ``commit_rounds`` each time the window fills."""

    window_rounds: int = 3
    commit_rounds: int = 1

    def __post_init__(self):
        if self.window_rounds < 1:
            raise ValueError("window_rounds must be >= 1")
        if not 1 <= self.commit_rounds <= self.window_rounds:
            raise ValueError("commit_rounds must be in [1, window_rounds]")


@dataclass(frozen=True)
class CommitResult:
    """One commit: which rounds left the window, and at what cost."""

    index: int
    first_round: int
    rounds: int
    committed_through: int
    revised_shots: int
    elapsed_s: float


@dataclass
class WindowedDecoder:
    """Round-by-round wrapper over a packed decoder.

    Push rounds in order with :meth:`push` (each returns the
    :class:`CommitResult` it triggered, if any), then :meth:`finish`
    to flush the tail of the window and obtain the committed
    corrections as a packed predictions batch — the same shape
    ``decode_batch_packed`` returns.
    """

    decoder: Decoder
    layout: RoundLayout
    shots: int
    window: WindowConfig = field(default_factory=WindowConfig)

    def __post_init__(self):
        nwords = num_shot_words(self.shots)
        # The assembled syndrome: rounds land in their row slices as
        # they arrive; not-yet-received rounds stay all-zero, which the
        # decoders read as defect-free — the safe speculation default.
        self._words = np.zeros(
            (self.layout.num_detectors, nwords), dtype=np.uint64
        )
        self._received = 0
        self._committed = 0
        self._corrections: np.ndarray | None = None
        self.commits: list[CommitResult] = []
        self.revised_shots = 0

    @property
    def received_rounds(self) -> int:
        return self._received

    @property
    def committed_rounds(self) -> int:
        return self._committed

    @property
    def pending_rounds(self) -> int:
        return self._received - self._committed

    def push(self, rnd: SyndromeRound) -> CommitResult | None:
        """Accept the next round; commit if the window filled."""
        if rnd.index != self._received:
            raise ValueError(
                f"rounds must arrive in order: expected round "
                f"{self._received}, got {rnd.index}"
            )
        if rnd.shots != self.shots:
            raise ValueError(
                f"round carries {rnd.shots} shots, stream expects {self.shots}"
            )
        start, stop = self.layout.round_slice(rnd.index)
        if rnd.detectors.shape != self._words[start:stop].shape:
            raise ValueError(
                f"round {rnd.index} has detector shape "
                f"{rnd.detectors.shape}, layout expects "
                f"{self._words[start:stop].shape}"
            )
        self._words[start:stop] = rnd.detectors
        self._received += 1
        if self.pending_rounds >= self.window.window_rounds:
            return self._commit(self.window.commit_rounds)
        return None

    def finish(self) -> BitSampleBatch:
        """Flush the window and return the committed corrections.

        Requires every round of the layout to have been pushed; the
        closing commit decodes the complete syndrome, so the result is
        bit-identical to offline ``decode_batch_packed`` on the same
        batch.
        """
        if self._received != self.layout.num_rounds:
            raise ValueError(
                f"finish() before the stream ended: {self._received} of "
                f"{self.layout.num_rounds} rounds pushed"
            )
        if self._corrections is None or self._committed < self._received:
            self._commit(self._received - self._committed)
        return BitSampleBatch(
            detectors=self._words,
            observables=self._corrections,
            shots=self.shots,
        )

    def _commit(self, rounds: int) -> CommitResult:
        clock = obs.StopWatch()
        batch = BitSampleBatch(
            detectors=self._words,
            observables=np.zeros((0, self._words.shape[1]), dtype=np.uint64),
            shots=self.shots,
        )
        corrections = self.decoder.decode_batch_packed(batch).observables
        revised = 0
        if self._corrections is not None:
            revised = count_differing_shots(self._corrections, corrections, self.shots)
        self._corrections = corrections
        first = self._committed
        self._committed += rounds
        self.revised_shots += revised
        elapsed = clock.elapsed
        _COMMIT_S.record(elapsed)
        _COMMITS.add()
        _REVISED.add(revised)
        result = CommitResult(
            index=len(self.commits),
            first_round=first,
            rounds=rounds,
            committed_through=self._committed,
            revised_shots=revised,
            elapsed_s=elapsed,
        )
        self.commits.append(result)
        return result


__all__ = ["CommitResult", "WindowConfig", "WindowedDecoder"]
