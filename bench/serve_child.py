"""Run ``repro serve`` with the benchmark's server-side layer wrappers.

Usage::

    python3 bench/serve_child.py ROLLUP.json serve --registry DIR ...

Everything after the rollup path is handed to ``repro.cli.main``.  On
``SIGUSR1`` the current layer totals are written to ``ROLLUP.json``
(atomically, with an increasing ``seq``), so the benchmark can take the
difference across one load stage; they are written once more on exit.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402  (needs the path above)


def main(argv) -> int:
    target = pathlib.Path(argv[0])
    rollup = layers.Rollup()
    sequence = [0]

    def dump(*_ignored) -> None:
        sequence[0] += 1
        payload = dict(rollup.snapshot(), seq=sequence[0])
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(scratch, target)

    with layers.installed(rollup, layers.SERVE):
        from repro.cli import main as repro_main

        signal.signal(signal.SIGUSR1, dump)
        try:
            return repro_main(argv[1:])
        finally:
            dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
