"""Ingest capacity of the ``serve-mixed`` deployment, which sets its write rate.

Run from the root of a checkout::

    python3 e2ebench/capacity.py [--seed N] [--seconds 15]

Boots the ``serve-mixed`` server (journaling with fsync, n=5), then
sends the ingest batches a ``serve-mixed`` run of ``seconds`` prepares,
serially over one connection and with no reader, and prints the mean
ingest round trip and the capacity it implies, raw and normalized to
the nominal host speed the other times use (see ``common.HostSpeed``).
``wl_serve.INGEST_RATE`` is a third of the raw capacity, because the
writer's rate is set in wall-clock time and an ingest waits on fsync,
which the CPU probes do not scale: the normalized figure overstates
what the host can take.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Ingests between calibration probes.
PROBE_EVERY = 10


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    common.bootstrap()
    cpu = common.pin_to_one_cpu()
    import wl_serve
    from repro.serve.client import ServeClient, runs_to_arena_payload

    batches = wl_serve._ingest_batches(
        args.seed, wl_serve.N, wl_serve.ingest_count(args.seconds)
    )
    deployment = wl_serve.Deployment(common.x02_spec(wl_serve.N, (1, 3, 5)), journal=True)
    writer = ServeClient.connect("127.0.0.1", deployment.port, timeout=120.0)
    speed = common.HostSpeed()
    seconds: list[float] = []
    normalized: list[float] = []
    try:
        for first in range(0, len(batches), PROBE_EVERY):
            speed.probe(3)
            window = []
            for batch in batches[first : first + PROBE_EVERY]:
                start = time.perf_counter()
                request = {"op": "ingest", "system": wl_serve.SESSION,
                           "arena": runs_to_arena_payload(batch)}
                response = writer.request_raw(request)
                window.append(time.perf_counter() - start)
                if not response.get("ok"):
                    raise RuntimeError(f"ingest failed: {response}")
            speed.probe(3)
            factor = speed.factor()
            seconds.extend(window)
            normalized.extend(t * factor for t in window)
    finally:
        writer.close()
        deployment.stop()
        deployment.remove()
    raw, nominal = statistics.mean(seconds), statistics.mean(normalized)
    print(
        f"{len(seconds)} serial fsynced ingests on CPU {cpu}: mean {raw * 1e3:.2f} ms raw, "
        f"{nominal * 1e3:.2f} ms normalized; capacity {1 / raw:.1f} ingests/s raw, "
        f"{1 / nominal:.1f}/s normalized, a third of it {1 / nominal / 3:.1f}/s "
        f"(INGEST_RATE is {wl_serve.INGEST_RATE}/s); {speed.summary()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
