"""Benchmark of the hessecubic CLI: three closed-loop workloads, one client.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each request is one CLI command run in-process through
``hessecubic.cli.main(argv)``; its output is judged by ``validate.py``, which
does not import the package.  Requests come in whole blocks of the workload's
mix (see ``workloads.py``) until ``--seconds`` have passed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced blocks for the same time, prints the per-layer metrics from the traced
ones and a k = 0..8 scan of the workload's command, and writes the spans to
``.perfbench/spans-<workload>.jsonl``.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 before printing a result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
import validate
from tracer import LAYERS, Tracer
from workloads import BLOCKS, Request, request_stream, scan_request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 10
# the 90th percentile needs at least ten samples above it
MIN_SAMPLES = 110
SCAN_KS = range(9)
SCAN_REPEATS = 3


def load_cli():
    if not (SRC / "hessecubic" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no package at {SRC / 'hessecubic'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hessecubic.cli
    if Path(hessecubic.cli.__file__).resolve().parent != (SRC / "hessecubic").resolve():
        sys.stderr.write(f"perfbench: imported {hessecubic.cli.__file__}, not the checkout's\n")
        sys.exit(2)
    return hessecubic.cli


@dataclass
class Sample:
    req: Request
    seconds: float      # wall time of main(argv)
    ref_seconds: float  # the same, scaled to the reference speed (speed.py)
    outcome: str


class Client:
    """Runs one request at a time and judges its output."""

    def __init__(self, cli, seed: int):
        self.cli = cli
        self.judge_rng = np.random.default_rng([seed, 7])
        self._probe = speed.probe()

    def call(self, req: Request, tracer: Tracer | None = None, rid: int = -1) -> Sample:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin(rid)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(req.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an escaped exception is an outcome to count
                rc = exc
            seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        before, self._probe = self._probe, speed.probe()
        slowdown = (before + self._probe) / (2 * speed.NOMINAL_S)
        return Sample(req, seconds, seconds / slowdown,
                      validate.judge(req, rc, out.getvalue(), err.getvalue(), self.judge_rng))


@contextlib.contextmanager
def quiet_fds():
    """Send file descriptors 1 and 2 to /dev/null: LAPACK prints from C."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = [os.dup(1), os.dup(2)]
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, 1)
        os.dup2(null, 2)
        yield
    finally:
        os.dup2(saved[0], 1)
        os.dup2(saved[1], 2)
        for fd in saved + [null]:
            os.close(fd)


class SetupTimer:
    """Fresh interpreters that import hessecubic.cli, spread over the run.

    Spawn times swing with the machine as much as request times do, so the
    spawns are interleaved with the request blocks and the median is taken.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._env = env
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self._spawn()  # writes the bytecode cache; not counted

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hessecubic.cli"], env=self._env,
                       cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def measure(self):
        before = speed.probe()
        seconds = self._spawn()
        after = speed.probe()
        self.wall.append(seconds)
        self.scaled.append(seconds * 2 * speed.NOMINAL_S / (before + after))


def line_counts() -> dict[str, int]:
    """Lines per layer module (0 once a module is gone) and in all of src/."""
    def count(path: Path) -> int:
        return len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0

    counts = {f"{name}.lines": count(SRC / "hessecubic" / f"{name}.py")
              for name in LAYERS + ("errors",)}
    counts["src.lines"] = sum(count(p) for p in SRC.rglob("*.py"))
    return counts


def warm_up(client: Client, workload: str, seed: int):
    """Untimed requests from another seed, so first-call set-up is done before timing."""
    for req in next(request_stream(workload, seed + 1_000_003))[:6]:
        client.call(req)


def run_plain(client: Client, stream, seconds: float, setup: SetupTimer) -> list[Sample]:
    samples: list[Sample] = []
    done = 0.0
    while done < seconds or len(samples) < MIN_SAMPLES:
        samples += [client.call(req) for req in next(stream)]
        done = sum(s.ref_seconds for s in samples)
        if len(setup.wall) < SETUP_SPAWNS and done >= len(setup.wall) * seconds / SETUP_SPAWNS:
            setup.measure()
    while len(setup.wall) < SETUP_SPAWNS:
        setup.measure()
    return samples


def run_traced(client: Client, stream, seconds: float, tracer: Tracer):
    """Alternate untraced and traced blocks, so both see the same machine."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    while sum(s.ref_seconds for s in plain + traced) < seconds:
        plain += [client.call(req) for req in next(stream)]
        tracer.install()
        try:
            for req in next(stream):
                traced.append(client.call(req, tracer, len(traced)))
        finally:
            tracer.uninstall()
    return plain, traced


def k_scan(client: Client, workload: str, seed: int) -> dict[int, float]:
    rng = np.random.default_rng([seed, 11])
    times: dict[int, list[float]] = {k: [] for k in SCAN_KS}
    for _ in range(SCAN_REPEATS):
        for k in SCAN_KS:
            times[k].append(client.call(scan_request(workload, k, rng)).ref_seconds)
    return {k: statistics.median(v) for k, v in times.items()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(samples: list[Sample], setup_s: float, rss_mb: float, scaled: bool = True) -> dict:
    """The six end-to-end metrics; times at the reference speed unless scaled is False."""
    times = [s.ref_seconds if scaled else s.seconds for s in samples]
    ok = sum(s.outcome == "ok" for s in samples)
    deciles = statistics.quantiles([t * 1e3 for t in times], n=10)
    return {
        "throughput_rps": (ok / sum(times), "req/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        # 1 - fail_frac: fail_frac is 0 on most runs, and a bound is a share of the median
        "success_frac": (ok / len(samples), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, plain: list[Sample], traced: list[Sample],
              scan: dict[int, float], lines: dict[str, int]) -> dict:
    n = len(traced)
    tot = tracer.totals(np.array([s.ref_seconds / s.seconds for s in traced]))

    def calls(label):
        return tot.get(label, {}).get("calls", 0)

    def self_s(*labels):
        return sum(tot.get(label, {}).get("self_s", 0.0) for label in labels)

    req_s = sum(s.ref_seconds for s in traced)
    layer = {name: sum(v["self_s"] for label, v in tot.items() if label.split(".")[0] == name)
             for name in LAYERS}
    # everything outside a span of another layer, so that the layers sum to req_s
    layer["cli"] = req_s - sum(v for name, v in layer.items() if name != "cli")
    theta_calls = calls("theta.theta_eval")
    m = {f"{name}.self_s": (layer[name] / n, "s") for name in LAYERS}
    m.update({
        "theta.theta_eval.calls": (theta_calls / n, "count"),
        "theta.unique_ratio": (tracer.theta_distinct / theta_calls if theta_calls else 1.0, "ratio"),
        "theta.hesse_psi.calls": (calls("theta.hesse_psi") / n, "count"),
        "moore.l_derivative.self_s": (self_s("moore.l_derivative") / n, "s"),
        "poly.matmul.calls": (calls("poly.matmul") / n, "count"),
        "poly.matmul.self_s": (self_s("poly.matmul") / n, "s"),
        "poly.det.calls": (calls("poly.det") / n, "count"),
        "poly.det.self_s": (self_s("poly.det") / n, "s"),
        "poly.det.terms_ratio": (tracer.det_expected / tracer.det_terms
                                 if tracer.det_terms else 1.0, "ratio"),
        "poly.rank.self_s": (self_s("poly.eval_matrix", "poly.numeric_rank") / n, "s"),
        "poly.to_json.self_s": (self_s("poly.to_json") / n, "s"),
        "bundles.equilibrate.self_s": (self_s("bundles.equilibrate") / n, "s"),
        "bundles.calibrate_scalars.calls": (calls("bundles.calibrate_scalars") / n, "count"),
        "bundles.calibrate_scalars.self_s": (self_s("bundles.calibrate_scalars") / n, "s"),
        "bundles.calibrate_scalars.failed":
            (tot.get("bundles.calibrate_scalars", {}).get("errors", 0) / n, "count"),
        "bundles.verify_factorization.self_s": (self_s("bundles.verify_factorization") / n, "s"),
        "report.check.calls": (calls("report.check") / n, "count"),
        "cli.raw_exceptions": (sum(s.outcome.startswith("raw:") for s in plain + traced)
                               / len(plain + traced), "count"),
        "trace.req_s": (req_s / n, "s"),
        "trace.overhead": (req_s / sum(s.ref_seconds for s in plain) - 1.0, "ratio"),
    })
    m.update({f"cli.req_ms.k{k}": (v * 1e3, "ms") for k, v in scan.items()})
    m.update({name: (count, "lines") for name, count in lines.items()})
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def outcome_table(samples: list[Sample]) -> str:
    counts = Counter((s.req.k, s.outcome) for s in samples)
    kinds = sorted({o for _, o in counts}, key=lambda o: (o != "ok", o))
    ks = sorted({k for k, _ in counts})
    rows = [["k"] + kinds] + [[str(k)] + [str(counts[(k, o)]) for o in kinds] for k in ks]
    widths = [max(len(r[i]) for r in rows) for i in range(len(kinds) + 1)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)


def metric_table(metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(f"  {name.ljust(width)}  {value:14.6g}  {unit}"
                     for name, (value, unit) in metrics.items())


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool):
    client = Client(cli, seed)
    stream = request_stream(workload, seed)
    lines = line_counts()
    with quiet_fds():
        warm_up(client, workload, seed)
        if trace:
            tracer = Tracer()
            plain, traced = run_traced(client, stream, seconds, tracer)
            scan = k_scan(client, workload, seed)
        else:
            setup = SetupTimer()
            plain, traced = run_plain(client, stream, seconds, setup), []
    samples = plain + traced
    ok_count = sum(s.outcome == "ok" for s in samples)
    print(f"== {workload}  seed {seed}  closed loop, 1 client, "
          f"{len(samples)} requests in blocks of {len(next(request_stream(workload, seed)))}")
    if trace:
        metrics = per_layer(tracer, plain, traced, scan, lines)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}.jsonl")
        print(f"per-layer metrics, per traced request ({len(traced)} traced, "
              f"{len(plain)} untraced):")
        print(metric_table(metrics))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(samples, statistics.median(setup.scaled), rss_mb)
        wall = end_to_end(samples, statistics.median(setup.wall), rss_mb, scaled=False)
        slowdown = sum(s.seconds for s in samples) / sum(s.ref_seconds for s in samples)
        print(f"end-to-end metrics ({len(samples)} latency samples; "
              f"src/ has {lines['src.lines']} lines):")
        print(metric_table(metrics))
        print(f"  fail_frac = {len(samples) - ok_count}/{len(samples)} = "
              f"{(len(samples) - ok_count) / len(samples):.6g}")
        print(f"the same in wall time (machine ran {slowdown:.3f}x the reference kernel time):")
        print(metric_table({n: wall[n] for n in ("throughput_rps", "latency_p50_ms",
                                                  "latency_p90_ms", "setup_s")}))
    print("outcomes by k:")
    print(outcome_table(samples))
    invalid = [s for s in samples if s.outcome.startswith("invalid:")]
    for s in invalid[:5]:
        print(f"  INVALID {s.outcome}: hessecubic {' '.join(s.req.argv)}")
    return {
        "correct": not invalid,
        "attempted": len(samples),
        "failed": len(samples) - ok_count,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BLOCKS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    names = sorted(BLOCKS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(cli, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": v for w, r in results.items()
                        for name, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
