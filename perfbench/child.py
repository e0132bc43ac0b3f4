"""One benchmark child process: set up, run one workload's timed calls, report.

Started by run.py as
`python3 perfbench/child.py <spawn stamp> <request.json> <result.json>` with
the checkout root as the working directory; the spawn stamp is the parent's
time.monotonic() just before it started the child. The child imports
`modgem.cli` from the checkout's `src/`, optionally installs the layer trace,
runs the timed calls and writes its result as JSON.

Set-up, and the untraced timed calls, are interrupted by SIGALRM, whose
handler runs the reference work once and times it. A time scaled to the
reference speed is the sum, over the intervals between samples, of each
interval times REFERENCE_S over the duration of the sample that ends it. On
a shared machine whose speed switches between about 1.8 and 3 ms for the
reference work within a second, this follows the speed the child actually
got while it ran; time spent in the handler is left out.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
# median duration of reference_work() on the 2-core Intel Xeon sandbox the
# bounds were set on; it only fixes the unit of the scaled times
REFERENCE_S = 0.0035
# set-up takes about 0.3 s, the timed calls 15-60 s
SETUP_PERIOD_S = 0.01
SAMPLE_PERIOD_S = 0.2
_P = 2147483629


def reference_work() -> int:
    """Fixed pure-Python work of the kind modgem spends its time on.

    A 40x40 row reduction mod a prime, then the product of two 15-term
    polynomials with Fraction coefficients kept in dicts. It depends on
    nothing in the checkout, so it runs the same at every commit.
    """
    n = 40
    rows = [[(i * 7919 + j * 104729 + i * j) % _P for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, _P)
        pivot = [x * inv % _P for x in rows[rank]]
        rows[rank] = pivot
        for i in range(n):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], pivot)]
        rank += 1
    a = {(i % 5, i % 3, i // 5): Fraction(i + 1, 3 + i % 4) for i in range(15)}
    b = {(i % 4, i % 6, i // 4): Fraction(2 * i - 7, 5 + i % 3) for i in range(15)}
    prod: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            prod[e] = prod.get(e, 0) + ca * cb
    return rank + len(prod)


def timed_reference() -> tuple[float, float]:
    """(start, duration) of one run of the reference work."""
    t0 = time.monotonic()
    reference_work()
    return t0, time.monotonic() - t0


class SpeedSampler:
    """Times the reference work on SIGALRM every `period` seconds."""

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(timed_reference())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t_start: float, t_end: float) -> float:
        """Seconds at the reference speed spent between t_start and t_end.

        The stretch after the last sample is scaled by a sample taken now.
        """
        total, prev = 0.0, t_start
        for t0, dt in self.samples + [timed_reference()]:
            total += (min(t0, t_end) - prev) * REFERENCE_S / dt
            prev = t0 + dt
        return total

    def overhead(self) -> float:
        return sum(dt for _, dt in self.samples)


def main(t_spawn: float, request_path: str, result_path: str) -> int:
    sampler = SpeedSampler(SETUP_PERIOD_S)
    sampler.start()
    with open(request_path) as fh:
        req = json.load(fh)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import modgem.cli as cli
    t_imported = time.monotonic()
    sampler.stop()
    result: dict = {"notes": [], "setup_s": sampler.scaled(t_spawn, t_imported),
                    "raw_setup_s": t_imported - t_spawn - sampler.overhead()}
    if req["setup_only"]:
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = sampler = None
    if req["trace"]:
        sys.path.insert(0, HERE)
        from tracer import LAYERS, Tracer
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"modgem.{layer}")
            except ImportError:
                pass
        tracer = Tracer()
        result["notes"] = tracer.install(modules)
        tracer.start()
    else:
        sampler = SpeedSampler(SAMPLE_PERIOD_S)

    workload, seed = req["workload"], req["seed"]
    certs = []
    if sampler is not None:
        sampler.start()
    t_ready = time.monotonic()
    if workload == "run-all":
        cli.main(["run", "all", "--seed", str(seed), "--json", req["report_path"]])
    elif workload == "census":
        cfg = cli.SuiteConfig(seed=seed)
        for suite in req["suites"]:
            certs += cli.run_suite(suite, cfg)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    t_done = time.monotonic()
    if sampler is not None:
        sampler.stop()
        result.update(scaled_wall_s=sampler.scaled(t_ready, t_done),
                      sampled_s=sampler.overhead())

    result.update(wall_s=t_done - t_ready,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  certs=[{"check": c.check, "status": c.status, "computed": c.computed}
                         for c in certs])
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]), sys.argv[2], sys.argv[3]))
