"""Host-speed sampling, to take this host's speed drift out of the timings.

On a shared host the speed of a core drifts by tens of percent within a
second, faster than one `tcgw run` lasts, so a calibration taken before
and after a run does not say how fast the host was during it. Instead,
while a timed call runs, a timer signal every SAMPLE_INTERVAL_S
interrupts it and runs a fixed stdlib-only kernel, shaped like tcgw's hot
path (canonical JSON, SHA-256, struct packing, Decimal), on the same core
at that moment. The kernel's time is taken out of the call's time, and
the rest is scaled by REF_SAMPLE_S over the kernel's median time: the
time the call would take on a host that runs the kernel in REF_SAMPLE_S.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import statistics
import struct
import time
from decimal import Decimal

SAMPLE_INTERVAL_S = 0.005
SAMPLE_ITERATIONS = 20
REF_SAMPLE_S = 0.0003


def kernel() -> int:
    acc = 0
    for i in range(SAMPLE_ITERATIONS):
        doc = {"metric": "temperature_c", "sensor_id": f"s-{i & 7}",
               "timestamp": i, "value": f"{i % 97}.{i % 1000:03d}"}
        raw = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        body = struct.pack(">I", len(raw)) + raw + struct.pack(">QB", i, 3)
        digest = hashlib.sha256(body).digest()
        back = json.loads(raw)
        acc += digest[0] + (Decimal(back["value"]) > 50)
    return acc


class SpeedSampler:
    """Context manager: time a block and sample the host's speed during it.

    After the block, `seconds` is its wall time less the kernel's, and
    `scaled` is `seconds` at the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = 0.0
        self._start = 0.0

    def _sample(self, signum, frame) -> None:
        # A collection started by the kernel's allocations would walk the
        # program's heap and charge that to the host's speed.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self._sample(None, None)
            elapsed += self.samples[-1]
        self.seconds = elapsed - sum(self.samples)

    @property
    def scale(self) -> float:
        """How many times slower than the reference the host ran the kernel.

        The median sample, so that a sample cut by a context switch counts
        no more than any other.
        """
        return statistics.median(self.samples) / REF_SAMPLE_S

    @property
    def scaled(self) -> float:
        return self.seconds / self.scale
