"""Calibration against a fixed reference computation.

The speed this machine gives one process drifts by tens of percent within
seconds, so raw seconds do not repeat.  Before and after every timed job the
benchmark times a fixed stdlib `Fraction` loop that shares no code with
torcap, and rescales the job's time to the speed at which that loop takes
NOMINAL_REF_S:

    normalized = raw * NOMINAL_REF_S / mean(reference before, reference after)

Consecutive jobs share the probe between them, so each job costs one probe.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# nominal duration of one reference pass; a unit, not a measurement
NOMINAL_REF_S = 0.020
REF_TERMS = 2500


def reference(terms: int = REF_TERMS) -> Fraction:
    """Fixed Fraction workload whose operand sizes stay bounded."""
    s = Fraction(0)
    for i in range(1, terms):
        s += Fraction(1, i) * Fraction(i % 7 + 1, i % 5 + 2)
        if s.denominator > 10 ** 40:
            s = Fraction(s.numerator % 1000, s.denominator % 997 + 1)
    return s


def probe() -> float:
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so the reference and
    the job run where each other ran.  Returns the CPU chosen."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Calibrator:
    """Probes around each timed job; `scale` is NOMINAL_REF_S / reference."""

    def __init__(self):
        self.probes = [probe()]

    def close(self) -> tuple[float, float]:
        """Probe after a job: (reference seconds for it, scale factor)."""
        self.probes.append(probe())
        ref = (self.probes[-2] + self.probes[-1]) / 2
        return ref, NOMINAL_REF_S / ref
