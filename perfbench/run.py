"""modgem benchmark: cold `modgem run all` and the cold census, with a layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {run-all,census} --seed N \
        --seconds S --trace {0,1}

Every measurement happens in a fresh child Python process (child.py), started
one at a time from this single-threaded parent. With --trace 0 the parent
starts children until --seconds have passed (at least one) and prints the
end-to-end metrics, as medians over the children; times are scaled to the
reference speed (see child.py). With --trace 1 it runs one traced child and
one untraced child and prints the per-layer metrics of the traced one; on
run-all the two canonical reports must be byte-identical. Every certificate
is checked against oracle.json. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. README.md says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {"run-all": None, "census": ("arrangements", "lines27")}
LAYER_MODULES = ("cli", "exactalg", "rootarr", "lines27", "gems", "theta", "nodalcy")
# import-only children per untraced run; setup_s is the median over them and
# the measured children. An import takes about 0.3 s.
SETUP_SAMPLES = 20
# a run must end within 180 s: no measured child starts after START_DEADLINE_S
START_DEADLINE_S = 100.0
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, tmp: str, deadline: float, *,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Runs one child to completion; returns its result with setup_s added."""
    tag = len(os.listdir(tmp))
    req_path = os.path.join(tmp, f"req{tag}.json")
    res_path = os.path.join(tmp, f"res{tag}.json")
    report_path = os.path.join(tmp, f"report{tag}.json")
    with open(req_path, "w") as fh:
        json.dump({"workload": workload, "suites": WORKLOADS[workload], "seed": seed,
                   "trace": trace, "setup_only": setup_only,
                   "report_path": report_path}, fh)
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), repr(t_spawn), req_path, res_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not os.path.exists(res_path):
        raise BenchError(f"{workload} child exited with status {code}")
    with open(res_path) as fh:
        res = json.load(fh)
    if workload == "run-all" and not setup_only:
        with open(report_path, "rb") as fh:
            raw = fh.read()
        res["report_sha256"] = hashlib.sha256(raw).hexdigest()
        res["certs"] = json.loads(raw)["certificates"]
    return res


# -- correctness -----------------------------------------------------------------------


def load_oracle() -> dict:
    with open(os.path.join(HERE, "oracle.json")) as fh:
        return json.load(fh)


def _parsed(computed: str):
    try:
        return json.loads(computed)
    except ValueError:
        return computed


def check_certs(oracle: dict, names: list[str], certs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) for one child's certificates against the oracle.

    A certificate that is missing, renamed, raised, or has the wrong status
    or computed value fails; so does every name the oracle does not expect.
    """
    by_name: dict[str, list] = {}
    for c in certs:
        by_name.setdefault(c["check"], []).append(c)
    failed = 0
    for name in names:
        got = by_name.pop(name, [])
        if (len(got) != 1 or got[0]["status"] != oracle[name]["status"]
                or _parsed(got[0]["computed"]) != oracle[name]["computed"]):
            failed += 1
    extra = sum(len(v) for v in by_name.values())
    return len(names) + extra, failed + extra


def score(workload: str, results: list[dict]) -> tuple[int, int]:
    oracle = load_oracle()
    suites = WORKLOADS[workload]
    names = sorted(n for n in oracle if suites is None or n.split("/")[0] in suites)
    attempted = failed = 0
    for res in results:
        a, f = check_certs(oracle, names, res["certs"])
        attempted, failed = attempted + a, failed + f
    digests = [r["report_sha256"] for r in results if "report_sha256" in r]
    for other in digests[1:]:  # repeats of one master seed must be byte-identical
        attempted += 1
        failed += other != digests[0]
    return attempted, failed


# -- metrics ---------------------------------------------------------------------------


def end_to_end(results: list[dict], setups: list[dict], attempted: int,
               failed: int) -> dict:
    print("unscaled medians: wall {:.4f} s, setup {:.4f} s".format(
        statistics.median(r["wall_s"] - r["sampled_s"] for r in results),
        statistics.median(r["raw_setup_s"] for r in setups)), file=sys.stderr)
    return {
        "wall_s": (statistics.median(r["scaled_wall_s"] for r in results), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in results) / 1024, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def source_lines() -> dict:
    out = {}
    total = 0
    src = os.path.join(ROOT, "src", "modgem")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                n = sum(1 for _ in fh)
            total += n
            if name[:-3] in LAYER_MODULES:
                out[f"{name[:-3]}.lines"] = (n, "count")
    out["src.lines"] = (total, "count")
    return out


def per_layer(workload: str, traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics of one traced child, and the names left absent."""
    tr = traced["trace"]
    total, calls, counts = tr["total_s"], tr["calls"], tr["counts"]
    m: dict = {}
    absent: list[str] = []

    def put(name: str, present: bool, value, unit: str) -> None:
        if present:
            m[name] = (value, unit)
        else:
            absent.append(name)

    for layer, s in tr["self_s"].items():
        m[f"{layer}.self_s"] = (s, "s")
    suites = WORKLOADS[workload]
    for name in sorted(load_oracle()):
        # a check the workload runs but that raised, or was not wrapped, is absent
        key = f"cli.check.{name}"
        put(f"cli.check.{name.replace('/', '.')}_s",
            key in total or (suites is not None and name.split("/")[0] not in suites),
            total.get(key, 0.0), "s")

    def span(layer: str, name: str, with_calls: bool = False) -> None:
        key = f"{layer}.{name}"
        put(f"{key}_s", key in total, total.get(key), "s")
        if with_calls:
            put(f"{key}_calls", key in total, calls.get(key), "count")

    for name in ("mul", "subs", "eval", "restrict_to_line", "rref_int", "kernel_int",
                 "rank_mod", "vanishing_space"):
        span("exactalg", name, with_calls=True)
    put("exactalg.rank_mod_entries", "exactalg.rank_mod" in total,
        counts.get("exactalg.rank_mod_entries", 0), "count")
    for method in ("kernel", "candidates"):
        key = f"exactalg.vanishing_space_{method}"
        put(key, "exactalg.vanishing_space" in total, counts.get(key, 0), "count")
    m["exactalg.errors"] = (tr["errors"]["exactalg"], "count")
    span("rootarr", "incidence", with_calls=True)
    for name in ("special_loci", "macdonald_membership", "weyl_group", "coordinate_tables"):
        span("lines27", name)
    for name in ("build_invariant_quintic", "i5_singular_locus", "rationalize_i5",
                 "duality_pipeline"):
        span("gems", name)
    put("gems.duality_resampled", "gems.duality_pipeline" in total,
        counts.get("gems.duality_resampled", 0), "count")
    for name in ("section_nodes", "section_report"):
        span("nodalcy", name)
    put("theta.theta_const_calls", "theta.theta_const" in total,
        calls.get("theta.theta_const"), "count")
    for layer in ("rootarr", "lines27", "gems"):
        pairs = [v for k, v in tr["cache"].items() if k.startswith(layer + ".")]
        put(f"{layer}.cache_hits", bool(pairs), sum(h for h, _ in pairs), "count")
        put(f"{layer}.cache_calls", bool(pairs), sum(c for _, c in pairs), "count")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - (untraced["wall_s"] - untraced["sampled_s"]),
                             "s")
    m.update(source_lines())
    return m, absent


# -- driver ----------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "modgem", "cli.py")):
        raise BenchError(f"no modgem sources under {os.path.join(ROOT, 'src')}")
    # the program receives only this master seed; seed 0 is the ROADMAP's
    # `modgem run all --seed 42`
    master = 42 + seed
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    tmp = tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT)
    try:
        if trace:
            traced = spawn(workload, master, tmp, deadline, trace=True)
            untraced = spawn(workload, master, tmp, deadline)
            results = [traced, untraced]
        else:
            results = []
            while not results or time.monotonic() - t0 < min(seconds, START_DEADLINE_S):
                results.append(spawn(workload, master, tmp, deadline))
            setups = results + [spawn(workload, master, tmp, deadline, setup_only=True)
                                for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed = score(workload, results)
    if trace:
        metrics, absent = per_layer(workload, traced, untraced)
        for note in traced["notes"] + [f"metric {name}" for name in absent]:
            print(f"absent: {note}", file=sys.stderr)
    else:
        metrics = end_to_end(results, setups, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated parent unwinds through spawn(), which stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
