"""A fixed reference kernel that tracks the speed of the machine during a run.

The benchmark's timings are made on shared virtual machines whose speed can
drift by half within minutes, and switch within seconds. The kernel below is
timed between episodes of every run, in the engine's idle gaps within
open-loop episodes, and after set-up in every set-up probe, and each compute
time is reported at the nominal speed on which the kernel takes REFERENCE_MS:

- the times of a timed pass (latencies, CPU time, closed-loop frames per
  second) are scaled by the pass's mean speed: REFERENCE_MS over the mean,
  across all its samples, of the median of the NEAREST samples around each.
  The local median drops the machine's millisecond spikes; the mean follows
  how long the machine spent in each of its states;
- a set-up time is scaled by the speed in its own probe.

The kernel is the benchmark's own code, not the program's, so no change to
the program can move it. Like the program, it mixes float32 matrix products
on a small activation with interpreter-bound Python, in about equal shares.
On a 2-vCPU x86 machine, over thirty 20 s windows, the `generate_segment_bare`
service time spread by 0.19 of its median (interquartile range) and its
ratio to the sum of the kernel's two parts, timed separately, by 0.06.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 5.0    # nominal kernel time; sets only the scale of reported times
MATRIX_ROUNDS = 25
LOOP_ROUNDS = 31_250
SAMPLES = 3           # kernel runs per calibration break between episodes
NEAREST = 6           # kernel samples around a moment that give the local kernel time

_gen = np.random.default_rng(0)
_X = _gen.standard_normal((64, 256)).astype(np.float32)
_W = (_gen.standard_normal((256, 256)) * 0.05).astype(np.float32)


def kernel() -> int:
    x = _X
    for _ in range(MATRIX_ROUNDS):
        x = np.tanh(x @ _W)
    acc = 0
    for i in range(LOOP_ROUNDS):
        acc += i * i % 7
    return acc


def sample(n: int = SAMPLES) -> list:
    """Wall times of n kernel runs, in ms."""
    return [ms for _, ms in _timed(n)]


def speed(samples: list) -> float:
    """REFERENCE_MS over the median kernel time: above 1 on a faster machine."""
    return REFERENCE_MS / statistics.median(samples)


def _timed(n: int) -> list:
    out = []
    for _ in range(n):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        out.append(((start + end) / 2, (end - start) * 1e3))
    return out


class Speedometer:
    """Kernel samples of one timed pass, each stamped with its perf_counter time."""

    def __init__(self):
        self.samples: list = []   # (time, ms); appended from one thread at a time

    def sample(self, n: int = SAMPLES) -> None:
        """n timed kernel runs after an untimed one that warms the caches the engine cooled."""
        kernel()
        self.samples += _timed(n)

    @property
    def ms(self) -> list:
        return [ms for _, ms in self.samples]

    def mean_speed(self) -> float:
        """REFERENCE_MS over the mean local kernel time: above 1 on a faster machine."""
        ms = np.array([ms for _, ms in sorted(self.samples)])
        k = min(NEAREST, len(ms))
        lo = np.clip(np.arange(len(ms)) - k // 2, 0, len(ms) - k)
        return REFERENCE_MS / float(np.mean([np.median(ms[i:i + k]) for i in lo]))
