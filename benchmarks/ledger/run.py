"""Wall-clock benchmark ledger for the serving, training and online stacks.

One workload, in this process (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/ledger/run.py --workload serve-ivf-1e5 --seed 0 --seconds 24 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, each in a fresh child process, then each again traced::

    PYTHONPATH=src python -m benchmarks.ledger --seed 0
    python3 benchmarks/ledger/run.py --seeds 0-9 --out PARENT.json

Output checks only, at tiny sizes and without timings::

    python -m benchmarks.ledger --smoke

Compare two ``--out`` files, or condense two into a baseline (see
``compare.py``)::

    python -m benchmarks.ledger compare PARENT.json CHANGE.json
    python -m benchmarks.ledger baseline SET1.json SET2.json BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: One BLAS/OpenMP thread: one caller thread drives each workload, and
#: pinned threads repeat far better on a small shared host.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKDIR = ROOT / ".ledger_work"
OUTDIR = ROOT / ".ledger_out"
#: Set-up is repeated at least this often, and until it has taken this
#: long, so that ``setup_s`` is a median rather than one noisy sample.
MIN_SETUPS, MIN_SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 25
DETAILS = "# ledger "

perf = time.perf_counter


def _prepare() -> None:
    """Pin BLAS threads and make ``repro`` and ``benchmarks`` importable."""
    os.environ.update(BLAS_ENV)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: no program source at {ROOT / 'src' / 'repro'}")
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        sys.path.pop(0)  # keep trace.py from shadowing the stdlib module
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def declared() -> dict:
    """``BENCHMARK.json``: the one list of workload and metric names."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# host facts
# ---------------------------------------------------------------------- #
def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) > 2 and target.startswith(fields[1]) and len(fields[1]) > len(best):
            best, fstype = fields[1], fields[2]
    return fstype


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workdir_fs": _filesystem(ROOT),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
class HostSpeed:
    """Samples the host's speed with a fixed kernel, between operations.

    On a small shared host the CPU's speed drifts by a quarter over tens
    of seconds, far more than the bounds in ``BENCHMARK.json``.  The
    probe is a fixed pure-Python + NumPy kernel; no program code runs in
    it, so no change to the program can move it.  Workloads call
    :meth:`tick` between operations, which probes at most every
    ``INTERVAL`` seconds.  :meth:`scale` turns wall durations into
    *reference seconds*: each is multiplied by the speed interpolated at
    its midpoint, ``REFERENCE_SECONDS / probe time``, so it reads as the
    host would have measured it at its reference speed.
    """

    #: Median probe time on the host that recorded ``BASELINE.json``.
    REFERENCE_SECONDS = 0.015
    INTERVAL = 0.5

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        # Cache-resident and memory-bound NumPy work, beside interpreter
        # work: the host's noise slows each kind by a different share.
        self._small = rng.standard_normal((256, 32))
        self._large = rng.standard_normal((50_000, 32))
        self._vector = rng.standard_normal(32)
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        t0 = perf()
        x, counts = 0.0, {}
        for i in range(30_000):
            x = x * 0.5 + 1.0
            counts[i % 977] = counts.get(i % 977, 0) + i
        for __ in range(500):
            (self._small @ self._vector).argmax()
        for __ in range(10):
            self._np.argpartition(-(self._large @ self._vector), 20)
        self._last = perf()
        self.times.append((t0 + self._last) / 2)
        self.speeds.append(self.REFERENCE_SECONDS / (self._last - t0))

    def tick(self) -> None:
        if perf() - self._last >= self.INTERVAL:
            self.sample()

    def scale(self, starts, durations):
        """``durations`` in reference seconds (an array)."""
        durations = self._np.asarray(durations)
        mid = self._np.asarray(starts) + durations / 2
        return durations * self._np.interp(mid, self.times, self.speeds)


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, measure for ``seconds``, check; returns the result record.

    Untraced and traced passes alternate in a traced run, so its
    per-layer numbers and ``trace.overhead_frac`` come from passes that
    ran under the same conditions.
    """
    import numpy as np

    from benchmarks.ledger.trace import Tracer
    from benchmarks.ledger.workloads import make_workload

    loadavg_before = list(os.getloadavg())
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    wl = make_workload(name, seed, workdir, smoke=smoke)
    host = HostSpeed()
    setups: list[tuple[float, float]] = []  # (start, wall seconds)

    def fresh(old):
        wl.teardown(old)
        t0 = perf()
        new = wl.setup()
        setups.append((t0, perf() - t0))
        host.sample()
        return new

    tracer = Tracer()
    plain, traced = [], []
    min_passes = 2 if trace else 1
    system = None
    try:
        if not wl.fresh_per_pass:
            while len(setups) < (1 if smoke else MIN_SETUPS) or (
                not smoke
                and sum(w for __, w in setups) < MIN_SETUP_SECONDS
                and len(setups) < MAX_SETUPS
            ):
                system = fresh(system)
        start = perf()
        while True:
            done = len(plain) + len(traced)
            if done >= min_passes and perf() - start >= seconds:
                break
            if wl.fresh_per_pass:
                system = fresh(system)
            traced_pass = trace and done % 2 == 1
            if traced_pass:
                wl.instrument(tracer)
            try:
                result = wl.run_pass(
                    system, tracer if traced_pass else None, keep=done == 0, tick=host.tick
                )
            finally:
                tracer.restore()
            (traced if traced_pass else plain).append(result)
            host.sample()
        while wl.fresh_per_pass and not smoke and len(setups) < MIN_SETUPS:
            system = fresh(system)
    finally:
        wl.teardown(system)
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    quality, problems = wl.check(plain[0].outputs)
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests")
    attempted = sum(len(p.latencies) for p in passes) // wl.parts_per_op
    failed = sum(p.failed for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    def op_times(group, scale=True):
        """Per pass, each operation's time (reference seconds if ``scale``)."""
        return [
            (host.scale(p.starts, p.latencies) if scale else np.asarray(p.latencies))
            .reshape(-1, wl.parts_per_op).sum(axis=1)
            for p in group
        ]

    if trace:
        metrics = wl.layer_metrics(tracer, plain)
        metrics["trace.overhead_frac"] = (
            statistics.median(t.sum() for t in op_times(traced))
            / statistics.median(t.sum() for t in op_times(plain)) - 1.0
        )
    else:
        ops = op_times(plain)
        pooled = np.concatenate(ops)
        setup_s = host.scale(*zip(*setups))
        metrics = {
            "ops_per_s": float(statistics.median(t.size / t.sum() for t in ops)),
            "op_p50_ms": float(np.percentile(pooled, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(pooled, 90)) * 1e3,
            "quality": quality,
            "setup_s": float(np.median(setup_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if trace and not smoke:
        tracer.write_jsonl(OUTDIR / f"spans-{name}.jsonl")
    wall = op_times(plain, scale=False)
    return {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        # Unscaled wall-clock numbers, to read beside the scaled ones.
        "wall": {
            "ops_per_s": float(statistics.median(t.size / t.sum() for t in wall)),
            "op_p50_ms": float(np.percentile(np.concatenate(wall), 50)) * 1e3,
            "setup_s": float(np.median([w for __, w in setups])),
            "host_speed": float(np.median(host.speeds)),
            "probes": len(host.speeds),
        },
        "digest": digests[0] if len(digests) == 1 else digests,
        "problems": problems,
        "passes": [len(plain), len(traced)],
        "ops_per_pass": len(passes[0].latencies) // wl.parts_per_op,
        "setups": len(setups),
        "loadavg": [loadavg_before, list(os.getloadavg())],
    }


def _metric_block(record: dict, spec: dict) -> dict:
    """Every metric the benchmark declares for this mode, with its unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    produced = record["metrics"]
    unknown = sorted(set(produced) - set(units))
    if unknown:
        raise KeyError(f"undeclared metrics {unknown}")
    if kind == "end_to_end" and set(produced) != set(units):
        raise KeyError(f"missing end-to-end metrics {sorted(set(units) - set(produced))}")
    # A layer the workload never calls reads 0 (e.g. IVF search on the
    # exact-serving workload).
    return {n: {"value": float(produced.get(n, 0.0)), "unit": u} for n, u in units.items()}


def main_one(args) -> int:
    spec = declared()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["host"] = host_facts()
    block = _metric_block(record, spec)
    for name, m in block.items():
        print(f"{args.workload:<16} {name:<40} {m['value']:>14.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"{args.workload:<16} CHECK FAILED: {problem}")
    print(DETAILS + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": block,
    }))
    return 0


# ---------------------------------------------------------------------- #
# every workload, in child processes
# ---------------------------------------------------------------------- #
def child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter and parse its records."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    details = next(json.loads(line[len(DETAILS):]) for line in lines if line.startswith(DETAILS))
    details["result"] = json.loads(lines[-1])
    return details


def parse_seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, __, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main_suite(args) -> int:
    from benchmarks.ledger.compare import summarize

    spec = declared()
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
    seconds = args.seconds or spec["run_seconds"]
    host = host_facts()
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            print(f"running {workload} seed {seed} ...", file=sys.stderr, flush=True)
            runs[workload].append(child(workload, seed, seconds, 0))
    traced = {}
    for workload in workloads:
        print(f"running {workload} seed {seeds[0]} traced ...", file=sys.stderr, flush=True)
        traced[workload] = child(workload, seeds[0], seconds, 1)
    host["loadavg_after"] = list(os.getloadavg())
    ledger = {"host": host, "seconds": seconds, "seeds": seeds, "runs": runs, "traced": traced}

    bad = summarize(ledger, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 1 if bad else 0


# ---------------------------------------------------------------------- #
# smoke
# ---------------------------------------------------------------------- #
def main_smoke(args) -> int:
    spec = declared()
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        record = run_workload(workload, args.seed, 0, trace=True, smoke=True)
        _metric_block(record, spec)
        status = "ok" if record["correct"] else "FAILED"
        print(f"{workload:<16} {status}  ops={record['attempted']} digest={str(record['digest'])[:16]}")
        for problem in record["problems"]:
            print(f"{workload:<16}   {problem}")
        bad += not record["correct"]
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _prepare()
    if argv[:1] == ["compare"]:
        from benchmarks.ledger.compare import main_compare

        return main_compare(argv[1:])
    if argv[:1] == ["baseline"]:
        from benchmarks.ledger.compare import main_baseline

        return main_baseline(argv[1:])
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", help="suite seeds, e.g. 0-9 or 0,3,5")
    parser.add_argument("--seconds", type=int, default=None, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite: write every run to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, output checks only")
    args = parser.parse_args(argv)
    if args.smoke:
        return main_smoke(args)
    if args.workload:
        if args.seconds is None:
            args.seconds = declared()["run_seconds"]
        return main_one(args)
    return main_suite(args)


if __name__ == "__main__":
    sys.exit(main())
