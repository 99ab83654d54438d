"""Live per-partition progress rendering for shard events.

:class:`ShardProgressPrinter` consumes :class:`~repro.partition.runner.ShardEvent`
notifications and keeps a one-line status summary up to date.  On a TTY
the line is redrawn in place (carriage return, no scroll-back spam); on a
pipe each state *change* prints as its own plain line, so logs stay
greppable.  The printer is the CLI's ``on_event`` sink but is plain
enough to unit-test against a ``StringIO``.
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.obs.live import SHARD_TERMINAL
from repro.partition.runner import ShardEvent


class ShardProgressPrinter:
    """Render shard lifecycle events as a per-partition status line."""

    def __init__(self, stream: TextIO | None = None, live: bool | None = None):
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            live = bool(getattr(self.stream, "isatty", lambda: False)())
        self.live = live
        self._status: dict[int, str] = {}
        self._loops: dict[int, int] = {}
        self._questions: dict[int, int] = {}
        self._matches: dict[int, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def __call__(self, event: ShardEvent) -> None:
        self._status[event.shard_id] = event.kind
        self._loops[event.shard_id] = max(
            event.loops, self._loops.get(event.shard_id, 0)
        )
        self._questions[event.shard_id] = max(
            event.questions, self._questions.get(event.shard_id, 0)
        )
        if event.kind in SHARD_TERMINAL:
            self._matches[event.shard_id] = event.matches
        if self.live:
            self.stream.write("\r\x1b[2K" + self.render())
        else:
            self.stream.write(self._event_line(event) + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Write the final summary line once the run is over.

        On a TTY this finishes the live line (newline); on a pipe the
        same summary prints as one extra plain line, so piped logs end
        with the run's totals instead of the last raw event.
        """
        if not self._closed and self._status:
            if self.live:
                self.stream.write("\r\x1b[2K" + self.render() + "\n")
            else:
                self.stream.write(self.render() + "\n")
            self.stream.flush()
        self._closed = True

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The one-line summary for the current shard states."""
        total = len(self._status)
        done = sum(1 for s in self._status.values() if s in SHARD_TERMINAL)
        running = total - done
        parts = [f"partitions {done}/{total} done"]
        if running:
            parts.append(f"{running} running")
        failed = sum(1 for s in self._status.values() if s == "failed")
        if failed:
            parts.append(f"{failed} FAILED")
        quarantined = sum(1 for s in self._status.values() if s == "quarantined")
        if quarantined:
            parts.append(f"{quarantined} QUARANTINED")
        parts.append(f"questions {sum(self._questions.values())}")
        if self._matches:
            parts.append(f"matches {sum(self._matches.values())}")
        return " · ".join(parts)

    def _event_line(self, event: ShardEvent) -> str:
        line = (
            f"shard {event.shard_id} [{event.phase} {event.pairs} pairs] {event.kind}"
        )
        if event.kind == "checkpointed":
            line += f": loop {event.loops}, {event.questions} questions"
        elif event.kind in ("finished", "restored"):
            line += (
                f": {event.matches} matches, {event.questions} questions, "
                f"{event.loops} loops"
            )
        return line
