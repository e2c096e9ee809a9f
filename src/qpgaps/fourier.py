"""Truncated Fourier series for 1- or 2-periodic analytic maps.

Values may be scalar, 2-vector or 2x2-matrix; coefficients are stored densely
for k in [-N, N].  Evaluation extends to complex strips with an explicit tail
bound derived from the measured coefficient decay, so that nothing is ever
evaluated where the truncation error is out of control.  Each kind of point
has one evaluation path: `FourierMap.sample` evaluates a uniform grid
(optionally shifted, and on a line Im z = delta) as one inverse FFT of the
coefficients folded mod the grid size, O(N log N), and serves every grid,
the sites of a rational approximant included; calling the map sums the
series directly at arbitrary complex points, O(points * N); the real points
of an orbit are summed in real arithmetic in the cocycle module.  The way
back, grid values to coefficients, is one FFT (`FourierMap.from_samples`);
`assemble` builds a 2x2 map from entry or column maps.  `mul` multiplies by
exact O(N^2) convolutions; one entry of a product is a product of entry maps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StripDomainError

DEFAULT_STRIP_TOL = 1e-8
STRIP_GRID = 512
ZERO_FLOOR = 1e-280


@dataclass
class FourierMap:
    coeffs: np.ndarray          # shape (2N+1,) scalar, (2N+1,2) vector, (2N+1,2,2) matrix
    period: int = 1
    strip_tol: float = DEFAULT_STRIP_TOL
    entire: bool = True         # exact trig polynomial (no hidden tail) vs sampled truncation

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[0] % 2 != 1:
            raise ValueError("coefficient array must have odd length 2N+1")
        if self.period not in (1, 2):
            raise ValueError("period must be 1 or 2")

    # ---- basic structure -------------------------------------------------
    @property
    def band_limit(self):
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def value_shape(self):
        return self.coeffs.shape[1:]

    @property
    def is_matrix(self):
        return self.value_shape == (2, 2)

    @property
    def is_vector(self):
        return self.value_shape == (2,)

    def coeff(self, k):
        n = self.band_limit
        if abs(k) > n:
            return np.zeros(self.value_shape, dtype=complex) if self.value_shape else 0j
        return self.coeffs[n + k]

    def magnitudes(self):
        c = self.coeffs
        if self.value_shape:
            c = np.abs(c).reshape(c.shape[0], -1).max(axis=1)
        else:
            c = np.abs(c)
        return c

    def is_real(self, tol=1e-13):
        """Whether coeff(-k) == conj(coeff(k)) holds to relative tol."""
        rev = self.coeffs[::-1].conj()
        scale = np.abs(self.coeffs).max()
        if scale == 0.0:
            return True
        return float(np.abs(self.coeffs - rev).max()) <= tol * scale

    # ---- constructors ----------------------------------------------------
    @staticmethod
    def constant(value, period=1):
        v = np.asarray(value, dtype=complex)
        return FourierMap(v[np.newaxis, ...], period)

    @staticmethod
    def from_coeff_dict(d, period=1, shape=()):
        n = max(abs(k) for k in d) if d else 0
        c = np.zeros((2 * n + 1,) + shape, dtype=complex)
        for k, v in d.items():
            c[n + k] = v
        return FourierMap(c, period)

    @staticmethod
    def harmonic(k, period=1):
        """e^{2 pi i k x / period}"""
        return FourierMap.from_coeff_dict({k: 1.0}, period)

    @staticmethod
    def cosine(period=1):
        """cos(2 pi x / period)"""
        return FourierMap.from_coeff_dict({1: 0.5, -1: 0.5}, period)

    @staticmethod
    def from_samples(vals, band_limit, period):
        """Coefficients |k| <= band_limit of the map whose values on the
        uniform grid of one period are `vals`, by one FFT.

        The result carries entire=False: it is a truncation of sampled data,
        so strip evaluation stays tail-checked.
        """
        m = len(vals)
        hat = np.fft.fft(vals, axis=0) / m
        return FourierMap(hat[np.arange(-band_limit, band_limit + 1) % m], period,
                          entire=False)

    @staticmethod
    def identity(period=1):
        return FourierMap.constant(np.eye(2), period)

    # ---- evaluation ------------------------------------------------------
    @functools.cached_property
    def _decay(self):
        """Fitted envelope |c_k| <= A e^{r |k|} over the outer half of the band."""
        n = self.band_limit
        mags = self.magnitudes()
        if n == 0:
            return (float(mags[0]), -math.inf, True)
        ks = np.abs(np.arange(-n, n + 1))
        outer = ks >= max(1, n // 2)
        m_out = mags[outer]
        if m_out.max(initial=0.0) < ZERO_FLOOR:
            return (0.0, -math.inf, True)   # band-limited: no tail
        mask = outer & (mags > ZERO_FLOOR)
        k_fit = ks[mask].astype(float)
        y_fit = np.log(mags[mask])
        if len(k_fit) < 2 or np.ptp(k_fit) == 0:
            return (float(mags.max()) * 10.0, 0.0, False)
        slope, intercept = np.polyfit(k_fit, y_fit, 1)
        return (10.0 * math.exp(intercept), float(slope), False)

    def tail_bound(self, y):
        """Bound on the discarded tail when evaluating at |Im z| = y."""
        if y == 0.0 or self.entire:
            return 0.0
        amp, rate, band_limited = self._decay
        if band_limited:
            return 0.0
        g = rate + 2.0 * math.pi * abs(y) / self.period
        if g >= -1e-12:
            return math.inf
        n = self.band_limit
        return amp * math.exp(g * (n + 1)) / (1.0 - math.exp(g))

    def _check_strip(self, y):
        bound = self.tail_bound(y)
        scale = max(1.0, float(self.magnitudes().sum()))
        if not bound <= self.strip_tol * scale:
            raise StripDomainError(
                f"evaluation at |Im z|={y:.4g} unreliable: tail bound {bound:.3e} "
                f"exceeds {self.strip_tol:.1e} * scale {scale:.2e}",
                tail_bound=bound,
            )

    def __call__(self, z):
        """Direct sum at complex points, each point's largest exponent factored out."""
        z_in = np.asarray(z, dtype=complex)
        zs = z_in.reshape(-1)
        self._check_strip(float(np.abs(zs.imag).max(initial=0.0)))
        n = self.band_limit
        k = np.arange(-n, n + 1)
        ang = 2.0 * math.pi / self.period
        expo = -ang * np.multiply.outer(zs.imag, k)
        top = expo.max(axis=1)
        phases = np.exp(expo - top[:, None]) * np.exp(1j * ang * np.multiply.outer(zs.real, k))
        out = np.tensordot(phases, self.coeffs, axes=(1, 0))
        out *= np.exp(top).reshape((-1,) + (1,) * len(self.value_shape))
        return out.reshape(z_in.shape + self.value_shape)

    def sample(self, n_points, delta=0.0, shift=0.0):
        """Values at z_j = shift + j * period / n_points + i delta, j < n_points.

        The grid path of evaluation; calling the map is the direct path at
        arbitrary complex points.  Each coefficient takes the factor
        e^{2 pi i k (shift + i delta) / period}, with the largest exponent
        factored out so that every term stays bounded by its coefficient.
        Folding the coefficients mod n_points is exact on the grid, since
        e^{2 pi i k j / n_points} depends on k mod n_points only, and one
        inverse FFT sums the folded series.  The phase k * shift / period is
        reduced mod 1 before it is scaled by 2 pi, so it keeps its accuracy
        at large k.
        """
        if delta:
            self._check_strip(abs(delta))
        n = self.band_limit
        k = np.arange(-n, n + 1)
        expo = (-2.0 * math.pi * delta / self.period) * k
        top = float(expo.max())
        turns = np.mod(k * ((shift % self.period) / self.period), 1.0)
        ph = np.exp(expo - top + 2j * math.pi * turns)
        c = self.coeffs * ph.reshape((2 * n + 1,) + (1,) * len(self.value_shape))
        # place coefficient k at an index congruent to k mod n_points, then fold
        lead = (-n) % n_points
        rows = -(-(lead + 2 * n + 1) // n_points)
        padded = np.zeros((rows * n_points,) + self.value_shape, dtype=complex)
        padded[lead : lead + 2 * n + 1] = c
        folded = padded.reshape((rows, n_points) + self.value_shape).sum(axis=0)
        return (n_points * np.exp(top)) * np.fft.ifft(folded, axis=0)

    # ---- algebra ---------------------------------------------------------
    def _aligned(self, other):
        if isinstance(other, FourierMap):
            if other.period != self.period:
                raise ValueError("period mismatch: lift one operand first")
            n = max(self.band_limit, other.band_limit)
            return _pad(self, n), _pad(other, n)
        raise TypeError("operand must be a FourierMap")

    def __add__(self, other):
        if isinstance(other, FourierMap):
            a, b = self._aligned(other)
            return FourierMap(a.coeffs + b.coeffs, self.period,
                              entire=self.entire and other.entire)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, FourierMap):
            a, b = self._aligned(other)
            return FourierMap(a.coeffs - b.coeffs, self.period,
                              entire=self.entire and other.entire)
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return FourierMap(self.coeffs * scalar, self.period, entire=self.entire)
        return NotImplemented

    __rmul__ = __mul__

    def conj_map(self):
        """Complex conjugate of the map: coeff_k -> conj(coeff_{-k})."""
        return FourierMap(self.coeffs[::-1].conj(), self.period, entire=self.entire)

    def real_part(self):
        return 0.5 * (self + self.conj_map())

    def imag_part(self):
        return (-0.5j) * (self - self.conj_map())

    def shift(self, alpha):
        """Composition with x -> x + alpha: coeff_k *= e^{2 pi i k alpha / period}."""
        n = self.band_limit
        k = np.arange(-n, n + 1)
        ph = np.exp(2j * math.pi * k * (alpha / self.period))
        shaped = ph.reshape((2 * n + 1,) + (1,) * len(self.value_shape))
        return FourierMap(self.coeffs * shaped, self.period, entire=self.entire)

    def average(self):
        """Mean over one period: the k = 0 coefficient."""
        c0 = self.coeff(0)
        return c0 if self.value_shape else complex(c0)

    def trim(self, tol=1e-17):
        """Keep the widest band whose outer pair is not both <= tol * peak
        (a relative tol; a NaN stops the trim)."""
        mags = self.magnitudes()
        peak = mags.max()
        if peak == 0.0:
            return FourierMap(self.coeffs[:1].copy() * 0, self.period)
        n = self.band_limit
        wide = np.flatnonzero(~((mags[n + 1:] <= tol * peak) & (mags[:n][::-1] <= tol * peak)))
        keep = int(wide[-1]) + 1 if wide.size else 0
        if keep == n:
            return self
        return FourierMap(self.coeffs[n - keep : n + keep + 1].copy(), self.period,
                          entire=self.entire)

    # ---- matrix structure ------------------------------------------------
    def entry(self, i, j):
        if not self.is_matrix:
            raise ValueError("not a matrix map")
        return FourierMap(self.coeffs[:, i, j].copy(), self.period, entire=self.entire)

    def adjugate(self):
        """[[d,-b],[-c,a]]; the pointwise inverse when det == 1."""
        return FourierMap(adjugate(self.coeffs), self.period, entire=self.entire)

    # ---- period changes ----------------------------------------------------
    def lift2(self):
        """Reinterpret a 1-periodic map on R/2Z (support on even indices)."""
        if self.period == 2:
            return self
        n = self.band_limit
        c = np.zeros((4 * n + 1,) + self.value_shape, dtype=complex)
        c[::2] = self.coeffs
        return FourierMap(c, 2, entire=self.entire)

    def collapse1(self, tol=1e-9):
        """Drop to period 1 when all odd coefficients vanish (relative tol)."""
        if self.period == 1:
            return self
        n = self.band_limit
        ks = np.arange(-n, n + 1)
        odd_mags = np.abs(self.coeffs[ks % 2 == 1])
        peak = max(np.abs(self.coeffs).max(), 1e-300)
        if odd_mags.size and odd_mags.max() > tol * peak:
            raise ValueError(
                f"map is genuinely 2-periodic (odd-coefficient mass {odd_mags.max():.2e})"
            )
        even = self.coeffs[ks % 2 == 0]
        return FourierMap(even, 1, entire=self.entire)

    # ---- norms -------------------------------------------------------------
    def l1_norm(self):
        return float(self.magnitudes().sum())

    # ---- serialization -----------------------------------------------------
    def to_text(self):
        lines = [
            f"# period={self.period} shape={'x'.join(map(str, self.value_shape)) or 'scalar'}"
            f" entire={int(self.entire)}"
        ]
        n = self.band_limit
        for k in range(-n, n + 1):
            v = self.coeffs[n + k]
            flat = np.asarray(v, dtype=complex).reshape(-1)
            parts = []
            for z in flat:
                parts.append(float(z.real).hex())
                parts.append(float(z.imag).hex())
            lines.append(f"{k} " + " ".join(parts))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text):
        period, shape, entire = 1, (), True
        rows = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("period="):
                        period = int(tok.split("=")[1])
                    elif tok.startswith("shape="):
                        s = tok.split("=")[1]
                        shape = () if s == "scalar" else tuple(int(t) for t in s.split("x"))
                    elif tok.startswith("entire="):
                        entire = bool(int(tok.split("=")[1]))
                continue
            toks = line.split()
            k = int(toks[0])
            vals = [float.fromhex(t) for t in toks[1:]]
            flat = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
            rows[k] = flat.reshape(shape) if shape else complex(flat[0])
        out = FourierMap.from_coeff_dict(rows, period=period, shape=shape)
        out.entire = entire
        return out


def adjugate(mats):
    """[[d,-b],[-c,a]] of each matrix in an array of shape (..., 2, 2)."""
    out = np.empty_like(mats)
    out[..., 0, 0] = mats[..., 1, 1]
    out[..., 0, 1] = -mats[..., 0, 1]
    out[..., 1, 0] = -mats[..., 1, 0]
    out[..., 1, 1] = mats[..., 0, 0]
    return out


def assemble(parts, period, entire):
    """2x2 matrix map from its two columns (vector maps) or from its entries
    (a 2x2 nested sequence of scalar maps, or numbers taken as constants)."""
    slots = []
    for a, part in enumerate(parts):
        if isinstance(part, FourierMap):          # column a
            slots.append(((slice(None), a), part))
        else:                                     # row a of entries
            slots += [((a, b), e if isinstance(e, FourierMap) else FourierMap.constant(e))
                      for b, e in enumerate(part)]
    n = max(m.band_limit for _, m in slots)
    c = np.zeros((2 * n + 1, 2, 2), dtype=complex)
    for (i, j), m in slots:
        k = m.band_limit
        c[n - k : n + k + 1, i, j] = m.coeffs
    return FourierMap(c, period, entire=entire)


def _pad(m, band_limit):
    n = m.band_limit
    if n == band_limit:
        return m
    c = np.zeros((2 * band_limit + 1,) + m.value_shape, dtype=complex)
    c[band_limit - n : band_limit + n + 1] = m.coeffs
    return FourierMap(c, m.period, entire=m.entire)


def mul(a, b):
    """Pointwise product as exact coefficient convolution, one 2x2
    contraction out_ij = sum_l a_il b_lj: scalar*any, matrix@matrix and
    matrix@vector.  A scalar enters as a 1x1 matrix acting on every entry of
    the other operand, a vector as a one-column matrix.
    """
    if a.period != b.period:
        raise ValueError("period mismatch: lift one operand first")
    if a.value_shape and not b.value_shape:
        a, b = b, a
    if a.value_shape and not (a.is_matrix and (b.is_matrix or b.is_vector)):
        raise ValueError(f"unsupported product shapes {a.value_shape} x {b.value_shape}")
    rows = 2 if a.is_matrix else 1
    am = a.coeffs.reshape(len(a.coeffs), rows, rows)
    bm = b.coeffs.reshape(len(b.coeffs), rows, -1)
    n_out = a.band_limit + b.band_limit
    out = np.zeros((2 * n_out + 1, rows, bm.shape[2]), dtype=complex)
    for i in range(rows):
        for j in range(bm.shape[2]):
            out[:, i, j] = sum(np.convolve(am[:, i, l], bm[:, l, j]) for l in range(rows))
    return FourierMap(out.reshape((2 * n_out + 1,) + b.value_shape), a.period,
                      entire=a.entire and b.entire)


def matmul(*maps):
    out = maps[0]
    for m in maps[1:]:
        out = mul(out, m)
    return out


def matrix_exp(a):
    """exp of a matrix map by plain series; caller keeps ||a|| comfortably < 1."""
    if not a.is_matrix:
        raise ValueError("matrix_exp needs a matrix map")
    acc = FourierMap.identity(a.period)
    term = FourierMap.identity(a.period)
    for j in range(1, 121):
        term = mul(term, a) * (1.0 / j)
        term = term.trim(1e-18)
        acc = acc + term
        if term.l1_norm() < 1e-17 * max(1.0, acc.l1_norm()):
            return acc.trim(1e-18)
    raise ArithmeticError("matrix exponential series did not converge; norm too large")


def _op_norm(vals):
    """Largest singular value for arrays of 2x2 matrices; abs for scalars/vectors."""
    if vals.ndim >= 2 and vals.shape[-2:] == (2, 2):
        g = np.abs(vals) ** 2
        tr = g.sum(axis=(-2, -1))
        det2 = np.abs(vals[..., 0, 0] * vals[..., 1, 1] - vals[..., 0, 1] * vals[..., 1, 0]) ** 2
        disc = np.sqrt(np.maximum(tr**2 - 4.0 * det2, 0.0))
        return np.sqrt(np.maximum((tr + disc) / 2.0, 0.0))
    if vals.ndim >= 1 and vals.shape[-1:] == (2,) and vals.ndim >= 2:
        return np.sqrt((np.abs(vals) ** 2).sum(axis=-1))
    return np.abs(vals)


def strip_norm(a, delta):
    """sup of ||a(z)|| over the strip |Im z| <= delta.

    By the maximum principle the sup sits on the boundary lines Im z = +-delta;
    both are sampled, from STRIP_GRID points, and the grid doubles until the
    result is stable to 1e-10 relative, or reaches 2^16 points.
    """
    m = STRIP_GRID
    prev = None
    while True:
        best = float(_op_norm(a.sample(m, delta)).max())
        if delta != 0.0:
            best = max(best, float(_op_norm(a.sample(m, -delta)).max()))
        if m >= 1 << 16 or (prev is not None and abs(best - prev) <= 1e-10 * max(best, 1e-300)):
            return best
        prev = best
        m *= 2
