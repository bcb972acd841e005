"""Stochastic frame loss / corruption models attached to LAN segments.

A model is a small object the segment consults once per *serviced* frame
(:meth:`~repro.lan.segment.Segment._service_next`); the segment itself only
knows the duck-typed hook — ``active`` and ``judge(frame)`` — so this module
stays free of any ``repro.lan`` import and the LAN layer stays free of any
fault import.

**Determinism.**  The model owns a private seeded :class:`random.Random`
stream and draws exactly once per serviced frame.  Segment service order is
identical on the single engine and the sharded fabric (a segment's
service chain is causal on that one
segment), so the same timeline and seed drop the same frames everywhere —
this is what makes lossy scenarios bit-identical across engine modes.  The
one caveat is inherited from the fabric's canonical contract: two
same-nanosecond transmits from *different* shards onto one cut segment are
ordered canonically rather than by execution accident, exactly as their
delivery arithmetic already is.

Seeds are derived from stable material only (the timeline seed, the segment
name via CRC-32, the event's own seed field) — never from Python's
randomized ``hash()``.
"""

from __future__ import annotations

import random
import zlib

from repro.faults.spec import FaultError

#: Judgement returned for a frame the model drops outright.
LOSS = "loss"

#: Judgement returned for a frame the model corrupts (dropped by the
#: receivers' FCS check; the segment counts it separately).
CORRUPT = "corrupt"


def derive_seed(timeline_seed: int, segment_name: str, extra: int = 0) -> int:
    """A stable per-segment seed from the timeline seed and the segment name."""
    return (int(timeline_seed) << 1) ^ zlib.crc32(segment_name.encode()) ^ int(extra)


class FrameLossModel:
    """Bernoulli per-frame loss and corruption with a private seeded stream.

    Args:
        loss_rate: probability a serviced frame is silently lost on the wire.
        corrupt_rate: probability a serviced frame is delivered corrupted —
            modeled as every receiving NIC's FCS check discarding it, so it
            occupies the wire but reaches no handler.
        seed: seed for the model's private random stream.

    The two rates are disjoint outcomes of a single uniform draw per frame
    (``loss_rate + corrupt_rate <= 1``).
    """

    __slots__ = ("loss_rate", "corrupt_rate", "_random")

    def __init__(self, loss_rate: float = 0.0, corrupt_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= loss_rate <= 1.0:
            raise FaultError(f"loss_rate {loss_rate} outside [0, 1]")
        if not 0.0 <= corrupt_rate <= 1.0:
            raise FaultError(f"corrupt_rate {corrupt_rate} outside [0, 1]")
        if loss_rate + corrupt_rate > 1.0:
            raise FaultError(
                f"loss_rate {loss_rate} + corrupt_rate {corrupt_rate} exceeds 1"
            )
        self.loss_rate = float(loss_rate)
        self.corrupt_rate = float(corrupt_rate)
        self._random = random.Random(seed).random

    @property
    def active(self) -> bool:
        """Whether the model can currently affect any frame."""
        return self.loss_rate > 0.0 or self.corrupt_rate > 0.0

    def judge(self, frame) -> "str | None":
        """One draw for one serviced frame: ``None`` (deliver), LOSS or CORRUPT.

        Must be called exactly once per serviced frame, in segment service
        order — the segment's service loop is the only caller.
        """
        draw = self._random()
        if draw < self.loss_rate:
            return LOSS
        if draw < self.loss_rate + self.corrupt_rate:
            return CORRUPT
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameLossModel(loss={self.loss_rate:g}, "
            f"corrupt={self.corrupt_rate:g})"
        )
