"""Monte-Carlo check of the convolution against its random-matrix definition.

The convolution of the characteristic polynomials of symmetric A and B is
the expected characteristic polynomial of A + Q B Q^T with Q Haar
orthogonal.  mc_boxplus estimates that expectation by direct sampling and
reports per-coefficient standard errors, giving a verification path that
shares no code with the combinatorial implementation.

This is the one module that works in floating point: the float root
finder, its tolerance and the sampling live here; everything else in the
package is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RootConvergenceError
from .polynomial import MonicPoly, is_real_rooted

_CHUNK = 4096
_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class MCEstimate:
    d: int
    samples: int
    coeff_mean: tuple
    coeff_stderr: tuple
    seed: int

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "samples": self.samples,
            "coeff_mean": list(self.coeff_mean),
            "coeff_stderr": list(self.coeff_stderr),
            "seed": self.seed,
        }


def _haar_batch(rng, count: int, d: int) -> np.ndarray:
    """(count, d, d) stack of Haar orthogonal matrices.

    QR of a Gaussian matrix, with each column of Q flipped to make the
    corresponding diagonal entry of R positive; without that correction the
    distribution follows the QR implementation, not Haar measure.
    """
    z = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    q = q * np.where(diag < 0, -1.0, 1.0)[..., None, :]
    return q


def sample_haar_orthogonal(d: int, rng_state) -> np.ndarray:
    """One d x d Haar orthogonal matrix from a numpy Generator."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    return _haar_batch(rng_state, 1, d)[0]


def _char_poly_plain_batch(ms: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier on a (N, d, d) stack: plain descending coefficients
    of det(xI - M), shape (N, d+1), leading column exactly 1."""
    n, d, _ = ms.shape
    coeffs = np.empty((n, d + 1))
    coeffs[:, 0] = 1.0
    eye = np.eye(d)
    aux = np.broadcast_to(eye, (n, d, d)).copy()
    for k in range(1, d + 1):
        mk = ms @ aux
        c = -np.einsum("...ii->...", mk) / k
        coeffs[:, k] = c
        if k < d:
            aux = mk + c[:, None, None] * eye
    return coeffs


def char_poly(M) -> tuple:
    """Coefficients a_0..a_d of det(xI - M) in the signed convention, for a
    symmetric floating matrix; deterministic (no eigensolver)."""
    m = np.asarray(M, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("need a square matrix")
    if m.shape[0] >= 1 and np.max(np.abs(m - m.T)) > _SYMMETRY_TOL:
        raise DomainError(
            "matrix is not symmetric within %g" % _SYMMETRY_TOL
        )
    plain = _char_poly_plain_batch(m[None, :, :])[0]
    return tuple(float(((-1) ** i) * plain[i]) for i in range(len(plain)))


def roots(p: MonicPoly, tol: float = 1e-12) -> list:
    """All d roots as complex floats (companion-matrix eigenvalues).

    Deterministic for a given p; each root is residual-checked against
    tol * max(1, sum of term magnitudes at the root) and failure raises
    with the residuals attached.  Sorted by (real, imag).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    plain = [float(c) for c in p.plain_coefficients()]
    rts = np.roots(plain)
    resid = []
    ok = True
    for r in rts:
        val = 0.0 + 0.0j
        scale = 0.0
        for c in plain:
            val = val * r + c
            scale = scale * abs(r) + abs(c)
        rel = abs(val) / max(1.0, scale)
        resid.append(rel)
        if not (rel <= tol):
            ok = False
    if not ok:
        raise RootConvergenceError(
            "root refinement missed tolerance %g" % tol, resid
        )
    return sorted((complex(r) for r in rts), key=lambda z: (z.real, z.imag))


def _real_roots(p: MonicPoly, tol: float) -> np.ndarray:
    if is_real_rooted(p) == "no":
        raise DomainError("Monte-Carlo oracle needs real-rooted input")
    return np.array([z.real for z in roots(p, tol=tol)])


def mc_boxplus(
    p: MonicPoly, q: MonicPoly, samples: int, seed: int = 0, tol: float = 1e-9
) -> MCEstimate:
    """Sample mean and standard error of the coefficients of
    char(A + Q B Q^T), A and B diagonal root matrices of p and q.

    Deterministic for a fixed seed: chunked substreams from a spawned
    SeedSequence, reduced in chunk order.
    """
    if p.d != q.d:
        raise DomainError("degree mismatch: %d vs %d" % (p.d, q.d))
    if samples < 1000:
        raise DomainError("need at least 1000 samples, got %d" % samples)
    d = p.d
    ra = _real_roots(p, tol)
    rb = _real_roots(q, tol)
    a_mat = np.diag(ra)
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    total = np.zeros(d + 1)
    total_sq = np.zeros(d + 1)
    done = 0
    for child in streams:
        count = min(_CHUNK, samples - done)
        rng = np.random.default_rng(child)
        qm = _haar_batch(rng, count, d)
        m = a_mat + (qm * rb) @ np.swapaxes(qm, -1, -2)
        plain = _char_poly_plain_batch(m)
        total += plain.sum(axis=0)
        total_sq += (plain * plain).sum(axis=0)
        done += count
    mean = total / samples
    var = np.maximum(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    stderr = np.sqrt(var / samples)
    return MCEstimate(
        d,
        samples,
        tuple(float((-1.0) ** i * mean[i]) for i in range(d + 1)),
        tuple(float(s) for s in stderr),
        seed,
    )
