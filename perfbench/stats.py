"""The benchmark's own arithmetic: percentiles, the tail rule, arrivals.

Kept free of any import from ``src/`` so its unit tests run anywhere.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it sits at and its sample count."""

    value: float
    pct: float
    samples: int

    @property
    def resolved(self) -> bool:
        """False when too few samples put any percentile above the median."""
        return self.pct > 50.0


def tail(values, beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile that leaves at least ``beyond`` samples above it.

    With ``n`` sorted samples the value at rank ``k`` (0-based) has
    ``n - 1 - k`` samples above it, so the highest qualifying rank is
    ``n - 1 - beyond`` and its percentile is ``100 k / (n - 1)``.  Samples
    equal to the chosen value do not count as beyond it.  When there are
    too few samples for that rank to reach the median, the median is
    reported (``resolved`` is then False) rather than an
    unsupported tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n == 1:
        return Tail(ordered[0], 50.0, 1)
    rank = n - 1 - beyond
    while rank >= 0 and sum(1 for v in ordered if v > ordered[rank]) < beyond:
        rank -= 1
    pct = 100.0 * rank / (n - 1) if rank >= 0 else -1.0
    if pct <= 50.0:
        return Tail(percentile(ordered, 50.0), 50.0, n)
    return Tail(ordered[rank], pct, n)


def arrival_times(seed: int, rate: float, seconds: float) -> "list[float]":
    """Seeded Poisson arrivals spanning ``[0, seconds]`` at ``rate`` per second.

    The window opens with an arrival at 0 and closes with one at
    ``seconds``; between them lie ``round(rate * seconds)`` exponential
    gaps scaled to fill the window exactly.  Arrivals cluster as a
    Poisson process does, but every window offers the same load over the
    same span, and none of it is spent waiting for the first arrival.
    """
    rng = random.Random(seed)
    gaps = [rng.expovariate(1.0) for _ in range(max(1, round(rate * seconds)))]
    scale = seconds / sum(gaps)
    arrivals, at = [0.0], 0.0
    for gap in gaps:
        at += gap * scale
        arrivals.append(at)
    arrivals[-1] = float(seconds)
    return arrivals


def frame_gaps(sent: float, arrivals) -> "list[float]":
    """Per-frame feedback gaps of one request sent at ``sent``.

    Frames whose poses arrive together in one reply share the wait for
    it: a reply of ``k`` frames arriving ``g`` seconds after the previous
    arrival (or after the send) contributes ``k`` gaps of ``g / k``.
    """
    gaps: "list[float]" = []
    previous = sent
    arrivals = sorted(arrivals)
    i = 0
    while i < len(arrivals):
        j = i
        while j < len(arrivals) and arrivals[j] == arrivals[i]:
            j += 1
        gaps.extend([(arrivals[i] - previous) / (j - i)] * (j - i))
        previous = arrivals[i]
        i = j
    return gaps


@dataclass
class Sent:
    """One request: when it was due, sent, and finished, and what it returned."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    outcome: object = None
    error: str = ""

    @property
    def latency(self) -> float:
        """Time from the due time, so a stall also charges later requests."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """How far behind schedule the generator sent this request."""
        return self.sent - self.due


def run_closed_loop(send, seconds: float, clock=time.monotonic) -> "list[Sent]":
    """One caller sending request after request for up to ``seconds``.

    Each request is due the moment the previous one finished, so its
    latency is its own service time.  Another request is sent only while
    one more of the same duration as the last would still end inside the
    window; at least one request is always sent.
    """
    records: "list[Sent]" = []
    end = clock() + seconds
    while not records or records[-1].done + records[-1].latency <= end:
        record = Sent(len(records), clock())
        record.sent = record.due
        try:
            record.outcome = send(record.index)
        except Exception as exc:  # a failed request is counted, not fatal
            record.error = f"{type(exc).__name__}: {exc}"
        record.done = clock()
        records.append(record)
    return records


def run_open_loop(
    offsets: "list[float]",
    send,
    senders: int,
    clock=time.monotonic,
    sleep=time.sleep,
) -> "list[Sent]":
    """Send request ``i`` at ``start + offsets[i]`` from ``senders`` threads.

    ``send(index)`` performs request ``index`` and returns its outcome,
    which the caller checks later, outside the timed window; an exception
    is recorded as the request's error.  A request is never sent before
    it is due; if every sender is busy it goes out late, and its latency
    still counts from the due time.
    """
    start = clock()
    records = [Sent(i, start + offset) for i, offset in enumerate(offsets)]
    next_index = [0]
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                if next_index[0] >= len(records):
                    return
                record = records[next_index[0]]
                next_index[0] += 1
            wait = record.due - clock()
            if wait > 0:
                sleep(wait)
            record.sent = clock()
            try:
                record.outcome = send(record.index)
            except Exception as exc:  # a failed request is counted, not fatal
                record.error = f"{type(exc).__name__}: {exc}"
            record.done = clock()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records
