"""Machine-speed calibration: a fixed kernel timed between the workload's operations.

The benchmark's host shares its cores.  Each vCPU switches, independently
and about once a second, between a fast state and one about 1.45x slower,
and the share of time spent slow drifts over minutes.  CPU time tracks wall
time, so this is not time spent descheduled, and a run's median cannot
average out a drift longer than the run.  A ``Sampler`` times this kernel
between operations; ``to_reference`` divides a run's seconds by the run's
mean kernel time and multiplies them by the reference kernel time ``REF_S``.
An operation's time is its integral of the slowness, so the mean of samples
spread over the run estimates it; the median would jump between the two
states as the slow share crosses one half, and scaling each operation by
the samples on either side of it alone follows single bursts.

The kernel mixes what the workloads spend their time on: interpreted
arithmetic and small 2x2 numpy products (cocycle orbits, Fourier maps), a
dense symmetric eigenproblem (spectrum) and a banded one (duality).  Slow
phases stretch those parts by 1.3-1.7x, close to the 1.4-1.5x they stretch
the dossier operations; an FFT part was left out because it stretched by up
to 2x.  The kernel's inputs are fixed and it calls only numpy and scipy, so
no change to the package moves it.
"""

import statistics
import time

import numpy as np
import scipy.linalg

# about the mean kernel time of a run on the 2-vCPU Xeon VM the benchmark was
# written on (22 ms fast, 32 ms slow); it only sets the scale of the seconds
REF_S = 0.025

_rng = np.random.default_rng(12345)
_SYM = _rng.standard_normal((160, 160))
_SYM = _SYM + _SYM.T
_BANDED = _rng.standard_normal((9, 200))
_STEPS = [np.array([[1.0 + 0.01 * k, 0.3], [0.2, 1.0]]) for k in range(8)]
# bound now, before a traced run wraps numpy.linalg.eigvalsh and
# scipy.linalg.eig_banded
_eigvalsh = np.linalg.eigvalsh
_eig_banded = scipy.linalg.eig_banded


def kernel():
    """One fixed amount of mixed work; returns its wall seconds."""
    t = time.perf_counter()
    s = 0.0
    for i in range(60000):
        s += (i * 0.5) % 7.0
    acc = np.eye(2)
    for i in range(4800):
        acc = _STEPS[i & 7] @ acc
        if i & 63 == 0:
            acc /= np.abs(acc).max()
    for _ in range(6):
        _eigvalsh(_SYM)
    for _ in range(2):
        _eig_banded(_BANDED, select="i", select_range=(0, 20))
    return time.perf_counter() - t


class Sampler:
    """Kernel timings of one run, taken between its timed operations."""

    SEGMENT_S = 1.0     # seconds of operations between two samplings
    REPEATS = 3         # kernel timings per sampling

    def __init__(self):
        self.samples = []
        self._since = 0.0

    def sample(self):
        self.samples += [kernel() for _ in range(self.REPEATS)]
        self._since = 0.0

    def after(self, seconds):
        """Note an operation of ``seconds``; sample once a segment of work has run."""
        self._since += seconds
        if self._since >= self.SEGMENT_S:
            self.sample()

    def to_reference(self, seconds):
        """``seconds`` of this run at the reference speed."""
        return seconds * REF_S / statistics.fmean(self.samples)
