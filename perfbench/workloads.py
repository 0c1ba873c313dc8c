"""Seeded request streams for the three benchmark workloads.

Every workload is closed-loop with one client: the next request is sent only
after the previous one returned.  Requests come in blocks that hold the
workload's mix exactly, shuffled by the seed, so that a run of whole blocks
has the same share of every k on every seed and the latency percentiles do
not move with the draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MUTATIONS = ("zero-block", "drop-binomial", "perturb-psi")


@dataclass(frozen=True)
class Request:
    command: str          # "check", "sweep" or "emit"
    k: int
    argv: tuple[str, ...]
    mutate: str | None = None
    fmt: str = "json"     # emit output format
    tau: complex = 0j
    a_z: complex = 0j


def fmt_complex(c: complex) -> str:
    """The CLI's 're+imi' form, with every digit of both parts."""
    return f"{c.real!r}{c.imag:+}i"


def draw_tau(rng: np.random.Generator) -> complex:
    """tau in the fundamental domain |Re tau| <= 1/2, |tau| >= 1, Im tau <= 2."""
    while True:
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(0.75, 2.0)
        if x * x + y * y >= 1.0:
            return complex(x, y)


def draw_a(rng: np.random.Generator) -> complex:
    """a_z near the real segment that the package's own probes use (a = 0.3)."""
    return complex(rng.uniform(0.05, 0.45), rng.uniform(-0.15, 0.15))


def _check(rng, k: int, mutate: str | None) -> Request:
    tau, a_z = draw_tau(rng), draw_a(rng)
    argv = ["check", f"--tau={fmt_complex(tau)}", f"--a={fmt_complex(a_z)}",
            "--k", str(k), "--seed", str(int(rng.integers(1 << 30)))]
    if mutate:
        argv += ["--mutate", mutate]
    return Request("check", k, tuple(argv), mutate=mutate, tau=tau, a_z=a_z)


def _sweep(rng, k: int) -> Request:
    tau, a_z = draw_tau(rng), draw_a(rng)
    argv = ["sweep", f"--taus={fmt_complex(tau)}", f"--azs={fmt_complex(a_z)}",
            "--ks", str(k), "--seed", str(int(rng.integers(1 << 30)))]
    return Request("sweep", k, tuple(argv), tau=tau, a_z=a_z)


def _emit(rng, k: int, fmt: str) -> Request:
    tau, a_z = draw_tau(rng), draw_a(rng)
    argv = ["emit", f"--tau={fmt_complex(tau)}", f"--a={fmt_complex(a_z)}",
            "--k", str(k), "--format", fmt]
    return Request("emit", k, tuple(argv), fmt=fmt, tau=tau, a_z=a_z)


def check_lowk_block(rng) -> list[Request]:
    """30 checks, ten at each k = 1..3; one in ten mutated, one per k.

    drop-binomial only exists for k >= 2, so k = 1 draws from the other two.
    """
    out = []
    for k in (1, 2, 3):
        allowed = MUTATIONS if k >= 2 else ("zero-block", "perturb-psi")
        out.append(_check(rng, k, str(rng.choice(allowed))))
        out += [_check(rng, k, None) for _ in range(9)]
    return out


def sweep_highk_block(rng) -> list[Request]:
    """8 single-config sweeps, two at each k = 5..8."""
    return [_sweep(rng, k) for k in (5, 6, 7, 8) for _ in range(2)]


def emit_mix_block(rng) -> list[Request]:
    """60 emits: nine at each k = 0..5, two at each k = 6..8; 45 JSON, 15 LaTeX."""
    ks = [k for k in range(6) for _ in range(9)] + [k for k in (6, 7, 8) for _ in range(2)]
    fmts = ["json"] * 45 + ["latex"] * 15
    rng.shuffle(fmts)
    return [_emit(rng, k, f) for k, f in zip(ks, fmts)]


BLOCKS = {
    "check_lowk": check_lowk_block,
    "sweep_highk": sweep_highk_block,
    "emit_mix": emit_mix_block,
}


def request_stream(workload: str, seed: int):
    """Endless stream of shuffled blocks; the same seed gives the same requests."""
    rng = np.random.default_rng([seed, sorted(BLOCKS).index(workload)])
    make = BLOCKS[workload]
    while True:
        block = make(rng)
        order = rng.permutation(len(block))
        yield [block[i] for i in order]


def scan_request(workload: str, k: int, rng) -> Request:
    """One unmutated request of the workload's command at a given k."""
    if workload == "check_lowk":
        return _check(rng, k, None)
    if workload == "sweep_highk":
        return _sweep(rng, k)
    return _emit(rng, k, "json")
