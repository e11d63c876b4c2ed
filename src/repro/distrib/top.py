"""``repro top`` — a live terminal dashboard over a coordinator.

A read-only observer: each refresh reads the same status snapshot
``repro status --json`` prints (the ``/status`` twin the coordinator
serves on its ``--http-port``) and renders fleet membership, per-worker
throughput sparklines, campaign progress and SLO burn as a compact
ANSI screen.  ``--once`` renders a single plain-text frame to stdout —
the CI/scripting mode — and the live mode degrades to exactly that
frame when the terminal has no ANSI support.

The dashboard owns *presentation only*: every number it shows comes
from the coordinator's status payload (roster rates, the sampler's
series, SLO statuses), plus client-side rate history so sparklines
survive coordinators that were started without sampling.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Deque, Dict, List, Optional, TextIO, Tuple

from .coordinator import fetch_status

__all__ = ["TopSession", "render_status", "sparkline"]

#: Eight-level block characters, lowest to highest.
SPARK = "▁▂▃▄▅▆▇█"

#: Sparkline history length (refresh ticks) kept per worker.
HISTORY = 32


def sparkline(values: List[float], width: int = HISTORY) -> str:
    """Render ``values`` as a fixed-width block-character sparkline.

    Scaled to the window's own maximum (a flat-zero window renders all
    low blocks); NaNs render as spaces.  Left-padded so the newest
    value is always the rightmost character.
    """
    tail = list(values)[-width:]
    finite = [v for v in tail if not math.isnan(v)]
    top = max(finite) if finite else 0.0
    chars = []
    for value in tail:
        if math.isnan(value):
            chars.append(" ")
        elif top <= 0:
            chars.append(SPARK[0])
        else:
            index = min(
                len(SPARK) - 1,
                int(value / top * (len(SPARK) - 1) + 0.5),
            )
            chars.append(SPARK[index])
    return "".join(chars).rjust(width)


def _bar(done: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(width * min(1.0, done / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_status(
    status: Dict,
    rate_history: Optional[Dict[str, List[float]]] = None,
    throughput: Optional[float] = None,
) -> str:
    """One plain-text frame from a coordinator status payload.

    Pure function of its inputs — the unit-testable core of both the
    live screen and ``--once``.
    """
    lines: List[str] = []
    campaign = status.get("campaign") or {}
    progress = status.get("progress") or {}
    total = int(progress.get("total", 0) or 0)
    journalled = int(progress.get("journalled", 0) or 0)
    state = "draining" if status.get("draining") else "running"
    trace = status.get("trace_id") or "-"
    lines.append(
        f"repro top — coordinator {status.get('version', '?')} "
        f"[{state}]  trace {trace}"
    )
    lines.append(
        f"campaign  {len(campaign.get('programs', []) or [])} program(s)"
        f" x {campaign.get('config_count', 0)} config(s), "
        f"chunk {campaign.get('chunk_size', '?')}, "
        f"seed {campaign.get('seed', '?')}"
    )
    pct = 100.0 * journalled / total if total else 0.0
    rate_text = (
        f"  {throughput:6.2f} cells/s"
        if throughput is not None and not math.isnan(throughput)
        else ""
    )
    lines.append(
        f"progress  {_bar(journalled, total)} {journalled}/{total} "
        f"({pct:5.1f}%)  leased {progress.get('leased', 0)}  "
        f"queued {progress.get('queued', 0)}  "
        f"failed {progress.get('failed', 0)}{rate_text}"
    )
    stats = status.get("stats") or {}
    lines.append(
        f"fleet     seen {stats.get('workers_seen', 0)}  "
        f"joins {stats.get('joins', 0)}  leaves {stats.get('leaves', 0)}  "
        f"steals {stats.get('steals', 0)} "
        f"(won {stats.get('speculative_wins', 0)})  "
        f"reclaims {stats.get('reclaims', 0)}  "
        f"stale {stats.get('stale_results', 0)}"
    )
    lines.append("")
    roster = status.get("fleet") or ()
    if roster:
        lines.append(
            f"{'WORKER':<14} {'STATE':<12} {'RATE/S':>7} {'DONE':>5} "
            f"{'BUNDLE':>6}  THROUGHPUT"
        )
        for entry in roster:
            worker = str(entry.get("worker", "?"))
            state = "active" if entry.get("active") else "gone"
            if entry.get("slow"):
                state += ",slow"
            history = (rate_history or {}).get(worker, [])
            rate = entry.get("rate")
            rate_cell = (
                f"{float(rate):7.2f}" if rate is not None else "      -"
            )
            lines.append(
                f"{worker[:14]:<14} {state:<12} {rate_cell} "
                f"{entry.get('tasks_completed', 0):>5} "
                f"{entry.get('bundle_size', 1):>6}  "
                f"{sparkline(history)}"
            )
    else:
        lines.append("(no workers have connected yet)")
    slo = status.get("slo") or ()
    if slo:
        lines.append("")
        lines.append(f"{'SLO':<22} {'STATE':<8} {'BURN':>8} {'VALUE':>12}")
        for entry in slo:
            if entry.get("no_data"):
                state, burn, value = "no-data", "-", "-"
            else:
                state = "ok" if entry.get("ok") else "VIOLATED"
                burn = f"{entry.get('burn', 0):.2f}x"
                value = f"{entry.get('value', 0):.4g}"
            lines.append(
                f"{str(entry.get('name', '?'))[:22]:<22} {state:<8} "
                f"{burn:>8} {value:>12}"
            )
    leases = status.get("leases") or ()
    if leases:
        lines.append("")
        lines.append("oldest leases:")
        for entry in leases[:5]:
            spec = " (speculative)" if entry.get("speculative") else ""
            lines.append(
                f"  {entry.get('cell', '?')} -> "
                f"{entry.get('worker', '?')} "
                f"age {entry.get('age_seconds', 0):.1f}s "
                f"deadline in {entry.get('deadline_in', 0):.1f}s{spec}"
            )
    return "\n".join(lines) + "\n"


class TopSession:
    """State between refreshes: rate history and throughput deltas.

    Args:
        host / port: The coordinator's ``--http-port`` address.
        timeout: Per-snapshot fetch timeout in seconds.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 5.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._rates: Dict[str, Deque[float]] = {}
        self._completed: Deque[Tuple[float, int]] = deque(maxlen=HISTORY)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def observe(self, status: Dict, now: Optional[float] = None) -> None:
        """Fold one snapshot into the rate/throughput history."""
        stamp = time.monotonic() if now is None else float(now)
        seen = set()
        for entry in status.get("fleet") or ():
            worker = str(entry.get("worker", "?"))
            seen.add(worker)
            rate = entry.get("rate")
            ring = self._rates.setdefault(worker, deque(maxlen=HISTORY))
            ring.append(
                float(rate)
                if rate is not None and entry.get("active")
                else math.nan
            )
        for worker, ring in self._rates.items():
            if worker not in seen:
                ring.append(math.nan)  # departed: the line goes blank
        progress = status.get("progress") or {}
        self._completed.append(
            (stamp, int(progress.get("journalled", 0) or 0))
        )

    def throughput(self) -> float:
        """Journalled cells per second over the observed window."""
        if len(self._completed) < 2:
            return math.nan
        (t0, c0), (t1, c1) = self._completed[0], self._completed[-1]
        if t1 <= t0:
            return math.nan
        return max(0, c1 - c0) / (t1 - t0)

    def frame(self, status: Dict) -> str:
        """Observe ``status`` and render the resulting frame."""
        self.observe(status)
        return render_status(
            status,
            rate_history={k: list(v) for k, v in self._rates.items()},
            throughput=self.throughput(),
        )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def run_once(self, stream: TextIO) -> int:
        """Fetch and render one plain frame (the ``--once`` / CI mode)."""
        status = fetch_status(self.host, self.port, timeout=self.timeout)
        stream.write(self.frame(status))
        stream.flush()
        return 0

    def run(
        self,
        stream: TextIO,
        interval: float = 1.0,
        max_frames: Optional[int] = None,
    ) -> int:
        """The live loop: alternate screen, redraw every ``interval``.

        Exits when the coordinator goes away (campaign finished) or on
        Ctrl-C; ``max_frames`` bounds the loop for tests.
        """
        frames = 0
        stream.write("\x1b[?1049h\x1b[?25l")  # alt screen, hide cursor
        try:
            while max_frames is None or frames < max_frames:
                try:
                    status = fetch_status(
                        self.host, self.port, timeout=self.timeout
                    )
                except (ConnectionError, OSError, TimeoutError):
                    break  # coordinator gone: campaign over
                stream.write("\x1b[H\x1b[2J")  # home + clear
                stream.write(self.frame(status))
                stream.flush()
                frames += 1
                if max_frames is not None and frames >= max_frames:
                    break
                time.sleep(interval)
        except KeyboardInterrupt:
            pass
        finally:
            stream.write("\x1b[?25h\x1b[?1049l")  # cursor back, leave
            stream.flush()
        return 0
