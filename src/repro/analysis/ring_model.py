"""Bounded model checker for the shm SPSC ring doorbell protocol.

The shared-memory transport (:mod:`repro.comm.shm_backend`) moves frames
through single-producer/single-consumer byte rings: 64-bit ``head`` /
``tail`` counters, data copied *before* the tail is published, an empty
ring rewound to offset 0 before a write (head stored, then tail), the
consumer's span loaded tail first, and a
flag → re-check → sleep doorbell discipline on both sides (the
``consumer_waiting`` / ``producer_waiting`` header cells plus the
``data_event`` / ``space_event`` doorbells).  Production code backstops
every sleep with a bounded slice (``_WAIT_SLICE``), so a protocol bug
would degrade into latency rather than a visible hang — which is exactly
why testing cannot find one.  This module proves the discipline needs no
timeout at all.

:class:`RingModel` is a faithful abstraction of one ring: the producer
and consumer are small state machines whose steps (rewind head, rewind
tail, copy, publish tail, set waiting flag, re-check, sleep, ring
doorbell, load tail, load head and read) are individually atomic, and
:func:`explore` enumerates **every** interleaving of those steps by breadth-first search over the joint state
space.  Three properties are checked on every reachable state:

* **no torn frame** — a consumer read observes exactly the byte stream
  the producer copied: cursor ``c`` holds stream byte ``c - skipped``
  (``skipped``: the bytes every rewind so far jumped over), and a cell
  that holds anything else — not yet copied, or left over from before a
  rewind — is a torn read.
* **no lost wakeup / deadlock** — in every terminal state (no step
  enabled) the producer has published everything and the consumer has
  drained everything.  Sleeps are modelled as *unbounded* waits on a
  sticky doorbell, so a schedule in which one side sleeps through a
  missed doorbell is a reachable deadlock, not a latency blip.
* **bounded counters** — ``head <= tail <= head + capacity`` always,
  except between the rewind's two stores, where ``head`` leads.

:func:`verify_ring_protocol` checks the healthy protocol over a grid of
capacities and frame layouts *and* re-runs the exploration on five
seeded protocol mutations — consumer parks without the re-check
(classic lost wakeup), producer never rings the doorbell, tail published
before the copy, rewind stores tail before head, consumer loads head
before tail (the last three torn frames) — asserting each is caught.  A
model that accepts broken protocols proves nothing; the mutations are
the model's own test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# producer program counters
(P_TRY, P_COPY, P_REWIND, P_PUB, P_BELL, P_FLAG, P_RECHECK, P_SLEEP,
 P_DONE) = range(9)
# consumer program counters
(C_TRY, C_READ, C_SIG, C_ARM, C_RECHECK, C_RECHECK2, C_SLEEP,
 C_DONE) = range(8)

_P_NAMES = ("p_try", "p_copy", "p_rewind", "p_publish", "p_bell", "p_flag",
            "p_recheck", "p_sleep", "p_done")
_C_NAMES = ("c_load", "c_read", "c_signal", "c_arm", "c_recheck",
            "c_recheck2", "c_sleep", "c_done")

#: Sentinel for a ring cell whose byte has not been copied yet.
STALE = -1


@dataclass(frozen=True)
class RingConfig:
    """One model-checking scenario: a ring geometry plus optional bugs.

    ``frame_sizes`` is the byte length of each frame the producer streams
    (doorbells ring at frame boundaries, mirroring ``_send_frame``'s
    one-ring-per-frame rule).  The five mutation flags re-introduce
    bugs the real protocol is built to exclude.
    """

    capacity: int
    frame_sizes: Tuple[int, ...]
    skip_consumer_recheck: bool = False
    skip_doorbell: bool = False
    publish_before_copy: bool = False
    rewind_tail_first: bool = False
    load_head_first: bool = False

    @property
    def label(self) -> str:
        bugs = [
            name
            for name, on in (
                ("skip-recheck", self.skip_consumer_recheck),
                ("skip-doorbell", self.skip_doorbell),
                ("publish-before-copy", self.publish_before_copy),
                ("rewind-tail-first", self.rewind_tail_first),
                ("load-head-first", self.load_head_first),
            )
            if on
        ]
        tag = f",{'+'.join(bugs)}" if bugs else ""
        return (
            f"cap={self.capacity},frames={list(self.frame_sizes)}{tag}"
        )


@dataclass(frozen=True)
class RingState:
    """One joint state of the producer/consumer/ring system.

    ``head`` / ``tail`` are the byte counters of the real ring; ``cells``
    holds, per buffer slot, the stream index of the byte last copied
    there (:data:`STALE` before any copy).  ``copied`` is the producer's
    private cursor up to which data is in the buffer — ``tail`` trails it
    in the healthy protocol and leads it under the
    ``publish_before_copy`` mutation.  ``skipped`` is the ghost count of
    cursor values the rewinds jumped over (cursor ``c`` carries stream
    byte ``c - skipped``), and ``loaded`` the cursor the consumer loaded
    first (tail, or head under ``load_head_first``) on its way to a span.
    """

    head: int
    tail: int
    cells: Tuple[int, ...]
    copied: int
    skipped: int
    loaded: int
    cwait: int
    pwait: int
    data_ev: int
    space_ev: int
    p_pc: int
    c_pc: int
    pending: int  # bytes of the in-flight write_some span


@dataclass
class ModelViolation:
    """A property violation with the interleaving that reaches it."""

    config: RingConfig
    kind: str  # "torn-frame" | "deadlock" | "bound"
    detail: str
    trace: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        steps = " -> ".join(self.trace) if self.trace else "(initial)"
        return f"[{self.kind}] {self.config.label}: {self.detail}\n  trace: {steps}"


@dataclass
class ExploreResult:
    config: RingConfig
    states: int
    violations: List[ModelViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def _frame_ends(frame_sizes: Tuple[int, ...]) -> Tuple[int, ...]:
    ends, acc = [], 0
    for s in frame_sizes:
        acc += s
        ends.append(acc)
    return tuple(ends)


def explore(config: RingConfig, max_states: int = 2_000_000) -> ExploreResult:
    """Enumerate every interleaving of the ring protocol under ``config``."""
    if config.capacity < 1:
        raise ValueError(f"ring capacity must be >= 1, got {config.capacity}")
    if any(s < 1 for s in config.frame_sizes):
        raise ValueError(
            f"frame sizes must be >= 1, got {list(config.frame_sizes)}"
        )
    cap = config.capacity
    total = sum(config.frame_sizes)
    frame_ends = _frame_ends(config.frame_sizes)

    initial = RingState(
        head=0, tail=0, cells=(STALE,) * cap, copied=0, skipped=0, loaded=0,
        cwait=0, pwait=0, data_ev=0, space_ev=0,
        p_pc=P_TRY, c_pc=C_TRY, pending=0,
    )
    violations: List[ModelViolation] = []
    # parent pointers for counterexample traces
    parent: Dict[RingState, Tuple[Optional[RingState], str]] = {initial: (None, "")}

    def trace_to(state: RingState, last: str) -> List[str]:
        steps = [last]
        node = state
        while True:
            prev, label = parent[node]
            if prev is None:
                break
            steps.append(label)
            node = prev
        steps.reverse()
        return steps

    def report(kind: str, detail: str, state: RingState, step: str) -> None:
        if len(violations) < 8:
            violations.append(
                ModelViolation(config, kind, detail, trace_to(state, step))
            )

    def torn(s: RingState, start: int, stop: int) -> Optional[str]:
        """Why reading cursors ``[start, stop)`` tears (``None``: it does not)."""
        for cursor in range(start, stop):
            want = cursor - s.skipped
            got = s.cells[cursor % cap]
            if got != want:
                return (
                    f"read of cursors [{start}, {stop}) observes {got} at "
                    f"cursor {cursor}, where stream index {want} belongs"
                )
        return None

    def successors(s: RingState) -> List[Tuple[str, object]]:
        out: List[Tuple[str, object]] = []

        # ----------------------------------------------------- producer
        if s.p_pc == P_TRY:
            if s.copied - s.skipped >= total and s.tail - s.skipped >= total:
                out.append(("p_done", _r(s, p_pc=P_DONE)))
            else:
                free = cap - (s.tail - s.head)
                if free > 0:
                    out.append(("p_try", _r(s, p_pc=P_COPY)))
                else:
                    # Full ring: the one mid-frame point that must wake
                    # the consumer (``_write_all``'s full-ring doorbell).
                    ev = s.data_ev or (s.cwait and not config.skip_doorbell)
                    out.append(("p_full", _r(s, data_ev=int(ev), p_pc=P_FLAG)))
        elif s.p_pc == P_COPY:
            # At entry ``tail == copied`` (the previous span committed).
            free = cap - (s.tail - s.head)
            if s.head == s.tail and s.tail % cap:
                # ``write_some`` rewinds an empty ring to the next multiple
                # of the capacity: the load that saw it empty and the
                # first store are one step (only the producer moves the
                # cursors of an empty ring), the second store another.
                target = s.tail - s.tail % cap + cap
                moved = dict(copied=target, skipped=s.skipped + target - s.tail,
                             p_pc=P_REWIND)
                if config.rewind_tail_first:
                    out.append(("p_rewind_tail", _r(s, tail=target, **moved)))
                else:
                    out.append(("p_rewind_head", _r(s, head=target, **moved)))
            elif free <= 0:
                out.append(("p_copy_retry", _r(s, p_pc=P_TRY)))
            else:
                # ``write_some`` is handed one frame at a time: a span
                # stops at the end of the frame being written.
                position = s.copied - s.skipped
                frame_end = next(end for end in frame_ends if end > position)
                span = min(free, frame_end - position)
                if config.publish_before_copy:
                    # Mutated order: tail published now, data copied in a
                    # later step — the window a concurrent read turns
                    # into a torn frame.
                    out.append(("p_publish_early", _r(
                        s, tail=s.tail + span, pending=span, p_pc=P_PUB,
                    )))
                else:
                    cells = list(s.cells)
                    for i in range(span):
                        cells[(s.copied + i) % cap] = s.copied - s.skipped + i
                    out.append(("p_copy", _r(
                        s, cells=tuple(cells), copied=s.copied + span,
                        pending=span, p_pc=P_PUB,
                    )))
        elif s.p_pc == P_REWIND:
            if config.rewind_tail_first:
                out.append(("p_rewind_head", _r(s, head=s.copied, p_pc=P_COPY)))
            else:
                out.append(("p_rewind_tail", _r(s, tail=s.copied, p_pc=P_COPY)))
        elif s.p_pc == P_PUB:
            if config.publish_before_copy:
                cells = list(s.cells)
                for i in range(s.pending):
                    cells[(s.copied + i) % cap] = s.copied - s.skipped + i
                out.append(("p_copy_late", _r(
                    s, cells=tuple(cells), copied=s.copied + s.pending,
                    p_pc=P_BELL,
                )))
            else:
                out.append(("p_publish", _r(
                    s, tail=s.tail + s.pending, p_pc=P_BELL,
                )))
        elif s.p_pc == P_BELL:
            # ``_send_frame`` rings once per frame, after the last byte,
            # as a step separate from the publish (the consumer may arm
            # in between — its re-check is what keeps that safe).
            published = s.tail - s.skipped
            crossed = any(published - s.pending < end <= published
                          for end in frame_ends)
            ev = s.data_ev
            if crossed and s.cwait and not config.skip_doorbell:
                ev = 1
            out.append(("p_bell", _r(
                s, data_ev=ev, pending=0, p_pc=P_TRY,
            )))
        elif s.p_pc == P_FLAG:
            out.append(("p_flag", _r(s, pwait=1, p_pc=P_RECHECK)))
        elif s.p_pc == P_RECHECK:
            # The producer-side re-check mirrors ``_write_all``: flag,
            # re-check writable, only then sleep.  (The symmetric
            # consumer-side mutation is the interesting one; the producer
            # re-check is kept faithful in every config.)
            if cap - (s.tail - s.head) > 0:
                out.append(("p_recheck_hit", _r(s, pwait=0, p_pc=P_TRY)))
            else:
                out.append(("p_recheck_miss", _r(s, p_pc=P_SLEEP)))
        elif s.p_pc == P_SLEEP:
            if s.space_ev:
                out.append(("p_wake", _r(
                    s, space_ev=0, pwait=0, p_pc=P_TRY,
                )))

        # ----------------------------------------------------- consumer
        # A span is two loads, tail then head (``read_some``,
        # ``readable``); ``load_head_first`` swaps them.  The second load,
        # the copy out and the head store are one step: no producer step
        # touches ``[head, tail)`` or ``head`` while the span is non-empty.
        first = s.head if config.load_head_first else s.tail
        if s.c_pc == C_TRY:
            out.append(("c_load", _r(s, loaded=first, c_pc=C_READ)))
        elif s.c_pc == C_READ:
            head, tail = ((s.loaded, s.tail) if config.load_head_first
                          else (s.head, s.loaded))
            if tail - head > 0:
                detail = torn(s, head, tail)
                if detail is not None:
                    return [("c_read_torn", detail)]
                out.append(("c_read", _r(s, head=tail, loaded=0, c_pc=C_SIG)))
            elif s.head - s.skipped >= total:
                out.append(("c_done", _r(s, loaded=0, c_pc=C_DONE)))
            else:
                # Observing emptiness and arming the waiting flag are
                # distinct steps, as in ``_park`` (the pump pass saw
                # nothing, *then* the flags go up): a publish can land in
                # between, which is exactly why the armed re-check exists.
                out.append(("c_empty", _r(s, loaded=0, c_pc=C_ARM)))
        elif s.c_pc == C_SIG:
            ev = s.space_ev or s.pwait
            out.append(("c_signal", _r(s, space_ev=int(ev), c_pc=C_TRY)))
        elif s.c_pc == C_ARM:
            out.append(("c_arm", _r(s, cwait=1, c_pc=C_RECHECK)))
        elif s.c_pc == C_RECHECK:
            if config.skip_consumer_recheck:
                out.append(("c_park_blind", _r(s, c_pc=C_SLEEP)))
            else:
                out.append(("c_recheck_load", _r(s, loaded=first, c_pc=C_RECHECK2)))
        elif s.c_pc == C_RECHECK2:
            head, tail = ((s.loaded, s.tail) if config.load_head_first
                          else (s.head, s.loaded))
            if tail - head > 0:
                out.append(("c_recheck_hit", _r(s, cwait=0, loaded=0, c_pc=C_TRY)))
            else:
                out.append(("c_recheck_miss", _r(s, loaded=0, c_pc=C_SLEEP)))
        elif s.c_pc == C_SLEEP:
            if s.data_ev:
                out.append(("c_wake", _r(s, data_ev=0, cwait=0, c_pc=C_TRY)))

        return out

    frontier = [initial]
    seen = {initial}
    states = 0
    while frontier:
        s = frontier.pop()
        states += 1
        if states > max_states:
            raise RuntimeError(
                f"ring model exceeded {max_states} states for {config.label}; "
                f"shrink the capacity/frame grid"
            )
        rewinding = s.p_pc == P_REWIND
        if not (s.tail - s.head <= cap and (s.head <= s.tail or rewinding)):
            report("bound", f"head={s.head} tail={s.tail} cap={cap}", s, "(state)")
            continue
        succ = successors(s)
        if succ and isinstance(succ[0][1], str):
            report("torn-frame", succ[0][1], s, succ[0][0])
            continue
        if not succ:
            done = s.p_pc == P_DONE and s.c_pc == C_DONE
            if not done:
                who = []
                if s.p_pc != P_DONE:
                    who.append(f"producer at {_P_NAMES[s.p_pc]} "
                               f"(published {s.tail - s.skipped}/{total})")
                if s.c_pc != C_DONE:
                    who.append(f"consumer at {_C_NAMES[s.c_pc]} "
                               f"(drained {s.head - s.skipped}/{total})")
                report(
                    "deadlock",
                    "terminal state with work remaining — lost wakeup: "
                    + "; ".join(who),
                    s, "(terminal)",
                )
            continue
        for label, nxt in succ:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (s, label)
                frontier.append(nxt)
    return ExploreResult(config=config, states=states, violations=violations)


def _r(s: RingState, **changes) -> RingState:
    fields = dict(
        head=s.head, tail=s.tail, cells=s.cells, copied=s.copied,
        skipped=s.skipped, loaded=s.loaded, cwait=s.cwait, pwait=s.pwait,
        data_ev=s.data_ev, space_ev=s.space_ev, p_pc=s.p_pc, c_pc=s.c_pc,
        pending=s.pending,
    )
    fields.update(changes)
    return RingState(**fields)


#: Healthy geometries: capacity 1 forces the full-ring doorbell path on
#: every byte (and never rewinds: every cursor is a multiple of 1); the
#: larger rings exercise wrap-around, multi-byte spans and rewinds at a
#: frame boundary and inside a frame.
HEALTHY_CONFIGS: Tuple[RingConfig, ...] = (
    RingConfig(capacity=1, frame_sizes=(1, 1, 1)),
    RingConfig(capacity=1, frame_sizes=(2, 1)),
    RingConfig(capacity=2, frame_sizes=(1, 2, 1)),
    RingConfig(capacity=2, frame_sizes=(3,)),
    RingConfig(capacity=3, frame_sizes=(2, 2, 2)),
    RingConfig(capacity=3, frame_sizes=(1, 3, 1)),
    RingConfig(capacity=4, frame_sizes=(3, 2, 3)),
)

#: Each protocol mutation paired with the violation it must produce.
MUTATION_CONFIGS: Tuple[Tuple[RingConfig, str], ...] = (
    (RingConfig(capacity=2, frame_sizes=(1, 2, 1),
                skip_consumer_recheck=True), "deadlock"),
    (RingConfig(capacity=1, frame_sizes=(2, 1),
                skip_doorbell=True), "deadlock"),
    (RingConfig(capacity=2, frame_sizes=(1, 2, 1),
                publish_before_copy=True), "torn-frame"),
    (RingConfig(capacity=2, frame_sizes=(1, 2, 1),
                rewind_tail_first=True), "torn-frame"),
    (RingConfig(capacity=2, frame_sizes=(1, 2, 1),
                load_head_first=True), "torn-frame"),
)


def verify_ring_protocol():
    """Model-check the healthy protocol and the seeded mutations.

    Returns ``CaseResult`` rows (the schedule verifier's report type):
    one per healthy geometry (must be violation-free) and one per
    mutation (must be caught with the expected violation kind).
    """
    from repro.analysis.schedule_verifier import CaseResult, Violation

    results: List[CaseResult] = []
    for config in HEALTHY_CONFIGS:
        res = explore(config)
        name = f"ring-model[{config.label}]"
        results.append(CaseResult(
            name=name,
            world_size=2,
            violations=[
                Violation(name, "deadlock" if v.kind != "torn-frame" else "match",
                          str(v))
                for v in res.violations
            ],
            num_events=res.states,
        ))
    for config, expected_kind in MUTATION_CONFIGS:
        res = explore(config)
        name = f"ring-model-self-test[{config.label}->{expected_kind}]"
        hits = [v for v in res.violations if v.kind == expected_kind]
        if hits:
            results.append(CaseResult(name, 2, num_events=res.states))
        else:
            results.append(CaseResult(
                name, 2,
                violations=[Violation(
                    name, "self-test",
                    f"mutation {config.label} was not caught as "
                    f"{expected_kind!r}; saw {[v.kind for v in res.violations]}",
                )],
                num_events=res.states,
            ))
    return results
