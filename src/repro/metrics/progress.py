"""Live TTY progress rendering for sweep execution.

``SweepProgress`` consumes the supervisor's event stream (``on_event``)
plus the coarse ``progress(done, total)`` callback and repaints a single
status line in place::

    fig10  [=========>          ]  12/32  cache 5 (42%)  retry 1  fail 0  | #14 3.2s, #15 0.4s

On a real TTY the line is redrawn with ``\\r`` (throttled so rendering
never dominates a fast sweep); when stdout is a pipe (CI logs) each
update is printed as a plain line only when the done-count changes, so
logs stay readable without escape codes.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Mapping, Optional, TextIO

#: Widest line we emit; avoids wrapping on odd terminals.
MAX_WIDTH = 110


class SweepProgress:
    """Single-line sweep progress renderer.

    Parameters
    ----------
    label:
        Sweep name shown at the line head (``fig10``, ``bench`` ...).
    total:
        Total job count (0 means unknown; the bar is omitted).
    stream:
        Output stream; defaults to ``sys.stderr`` so sweep results on
        stdout stay machine-parseable.
    min_interval_s:
        Repaint throttle for TTY mode.
    now:
        Clock override for tests (defaults to ``time.monotonic``).
    """

    def __init__(
        self,
        label: str,
        total: int = 0,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.1,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self.label = label
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.now = now
        self.done = 0
        self.cache_hits = 0
        self.retries = 0
        self.failures = 0
        #: index -> (attempt, start time) of jobs currently in workers.
        self.inflight: Dict[int, Any] = {}
        self._last_paint = -1.0
        self._last_line = ""
        self._last_plain_done = -1
        self._closed = False
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    # ------------------------------------------------------------------ #
    # Supervisor callbacks.
    # ------------------------------------------------------------------ #
    def on_event(self, kind: str, info: Mapping[str, Any]) -> None:
        """Consume one supervisor event (see ``run_supervised``)."""
        index = info.get("index")
        if kind == "launch":
            self.inflight[index] = (info.get("attempt", 1), self.now())
        elif kind == "ok":
            self.inflight.pop(index, None)
        elif kind == "fail":
            self.inflight.pop(index, None)
            if info.get("retry"):
                self.retries += 1
            else:
                self.failures += 1
        elif kind == "cache-hit":
            self.cache_hits += 1
        self.render()

    def progress(self, done: int, total: int) -> None:
        """Coarse done/total callback (also fired by unsupervised runs)."""
        self.done = done
        if total:
            self.total = total
        self.render()

    # ------------------------------------------------------------------ #
    # Rendering.
    # ------------------------------------------------------------------ #
    def _bar(self) -> str:
        if not self.total:
            return ""
        width = 20
        frac = min(1.0, self.done / self.total)
        filled = int(frac * width)
        head = ">" if filled < width else ""
        return ("[" + "=" * filled + head
                + " " * (width - filled - len(head)) + "] ")

    def _line(self) -> str:
        parts = [f"{self.label}  {self._bar()}{self.done}/{self.total or '?'}"]
        if self.done:
            rate = 100.0 * self.cache_hits / self.done
            parts.append(f"cache {self.cache_hits} ({rate:.0f}%)")
        else:
            parts.append(f"cache {self.cache_hits}")
        parts.append(f"retry {self.retries}")
        parts.append(f"fail {self.failures}")
        if self.inflight:
            clock = self.now()
            workers = ", ".join(
                "#%s %.1fs" % (index, clock - started)
                for index, (_attempt, started)
                in sorted(self.inflight.items())
            )
            parts.append("| " + workers)
        line = "  ".join(parts)
        return line[:MAX_WIDTH]

    def render(self, force: bool = False) -> None:
        if self._closed:
            return
        if not self._tty:
            # Pipe mode: one plain line per done-count change only.
            if force or self.done != self._last_plain_done:
                self._last_plain_done = self.done
                self.stream.write(self._line() + "\n")
                self.stream.flush()
            return
        clock = self.now()
        if not force and clock - self._last_paint < self.min_interval_s:
            return
        self._last_paint = clock
        line = self._line()
        pad = max(0, len(self._last_line) - len(line))
        self._last_line = line
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def close(self) -> None:
        """Final repaint and newline; further callbacks are ignored.

        Idempotent, and the terminating newline is guaranteed on TTYs
        even when the final repaint itself raises (a sweep dying
        mid-flight must not leave the shell prompt glued to a partial
        ``\\r`` status line).
        """
        if self._closed:
            return
        try:
            self.render(force=True)
        finally:
            self._closed = True
            if self._tty:
                try:
                    self.stream.write("\n")
                    self.stream.flush()
                except (OSError, ValueError):
                    pass  # stream already torn down; nothing to unpaint

    # ------------------------------------------------------------------ #
    # Context management: `with SweepProgress(...) as p:` guarantees the
    # line is terminated on every exit path — normal completion, sweep
    # exceptions, and KeyboardInterrupt alike.
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "SweepProgress":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
