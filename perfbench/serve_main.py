"""``repro serve --backend vectorized`` for the ``serve-warm`` workload.

Runs the program's own CLI entry point (``repro.cli.main``) on a free
port over a disk-backed store, and prints the CLI's ``listening on``
line for the client. With ``--trace`` it first installs the layer
wrappers and starts a ``repro.obs`` session; ``SIGUSR1`` then writes the
layer figures so far to ``--mark-out`` (the client sends it after the
pre-warm, so the traced figures cover only the measured requests).

``SIGINT`` stops the server the way Ctrl-C stops ``repro serve``; on the
way out this script writes its peak RSS (and with ``--trace`` the final
layer figures) to ``--stats-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--stats-out", type=Path, required=True)
    parser.add_argument("--mark-out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # A process started in the background inherits SIGINT ignored; the
    # client stops the server with SIGINT, so take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    import repro.serve  # noqa: F401 - bind every name before wrapping
    import repro.sweep.vectorized  # noqa: F401
    from repro import obs
    from repro.cli import main as repro_main

    handle = session = None
    if args.trace:
        handle = layers.install()
        session = obs.start()

        def figures() -> dict:
            return {
                "layers": layers.stats_to_json(handle.clock.stats),
                "obs": layers.obs_counts(session.snapshot()),
                "missing_targets": handle.missing,
            }

        def mark(signum, frame) -> None:
            tmp = args.mark_out.with_suffix(".tmp")
            tmp.write_text(json.dumps(figures()), encoding="utf-8")
            tmp.replace(args.mark_out)

        signal.signal(signal.SIGUSR1, mark)

    code = repro_main([
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--store", args.store, "--backend", "vectorized",
    ])
    stats = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        stats.update(figures())
        obs.stop()
        handle.restore()
    args.stats_out.write_text(json.dumps(stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
