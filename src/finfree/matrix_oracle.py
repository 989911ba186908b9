"""Monte-Carlo check of the convolution against its random-matrix definition.

The convolution of the characteristic polynomials of symmetric A and B is
the expected characteristic polynomial of A + Q B Q^T with Q Haar
orthogonal, for any A and B with those characteristic polynomials.
mc_boxplus takes for them the Jacobi matrices built from the exact Sturm
chain (_jacobi), so no root is ever computed, estimates that expectation by
direct sampling and reports per-coefficient standard errors, giving a
verification path that shares no code with the combinatorial implementation.

Samples are drawn in chunks of _CHUNK, and each step works on a whole
chunk at once, held as a (d, d, N) stack with the sample index last, with no
loop over its matrices.  One Householder kernel (_reflect, a rank-2 update)
serves twice: reflectors of Gaussian vectors applied to B give its Haar
conjugates Q B Q^T without forming Q (_conjugate_batch), and reflectors of
each sum's columns reduce it, in place, to tridiagonal form, whose leading
minors' three-term recurrence gives the characteristic polynomials
(_char_poly_batch).  The chunks' means and spreads are merged in order.

This is the one module that works in floating point: the sampling and its
pass rule (MCEstimate.passes) live here; everything else is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, FinFreeError, _digits
from .polynomial import MonicPoly, _primitive_form, _same_degree, _sturm_chain
from .util import Value, _check_int

_CHUNK = 4096
# c * eps in the pass rule, eps = 2^-52; c = 32 is 4.5 times a seeded sweep's worst
_ROUNDING = Fraction(32, 2**52)


class MCEstimate(Value):
    """The float mean and standard error of each coefficient a_0..a_d over
    the samples (d = len(coeff_mean) - 1), with the seed, and radius R, an
    exact Fraction bound on the spectral radius of every sample."""

    __slots__ = ("samples", "coeff_mean", "coeff_stderr", "seed", "radius")

    @property
    def d(self) -> int:
        return len(self.coeff_mean) - 1

    def to_json(self) -> dict:
        return {"d": self.d, "samples": self.samples, "coeff_mean": list(self.coeff_mean),
                "coeff_stderr": list(self.coeff_stderr), "seed": self.seed}

    def passes(self, exact: MonicPoly) -> tuple:
        """Per coefficient a_k, whether the exact value is within 5 standard
        errors of the mean plus c * eps * binom(d, k) * R^k, the rounding of
        a sum of binom(d, k) products of k eigenvalues at most R: compared
        exactly, and scale-free, with no absolute floor.  An exact polynomial
        of another degree raises DimensionError."""
        d = _same_degree(self, exact)
        return tuple(
            abs(a - Fraction(mean))
            <= 5 * Fraction(se) + _ROUNDING * math.comb(d, k) * self.radius**k
            for k, (a, mean, se) in enumerate(zip(exact.a, self.coeff_mean, self.coeff_stderr))
        )


def _reflect(blk: np.ndarray, r: int, v: np.ndarray) -> None:
    """Replace each symmetric matrix of the (n, n, N) stack blk by H blk H,
    H the stable Householder reflector on coordinates r.. that sends the
    (n - r, N) vector v to -sign(v_0) |v| e_r; v is overwritten.

    Scaled to |v|^2 = 2, H = I - v v^T and H blk H = blk - v w^T - w v^T
    with w = blk v - (v^T blk v / 2) v, a rank-2 update of rows and columns
    r..; a zero v (a column that is already reduced) gives H = I.
    """
    norm = np.sqrt(np.einsum("in,in->n", v, v))
    v[0] += np.copysign(norm, v[0])
    scale = np.sqrt(norm * np.abs(v[0]))
    np.divide(v, scale, out=v, where=scale > 0)
    w = np.einsum("ijn,jn->in", blk[:, r:], v)
    w[r:] -= 0.5 * np.einsum("in,in->n", v, w[r:]) * v
    for i, vi in enumerate(v, r):  # blk -= v w^T + w v^T
        t = vi * w
        blk[i] -= t
        blk[:, i] -= t


def _conjugate_batch(rng, count: int, b: np.ndarray) -> np.ndarray:
    """(d, d, count) stack of Q B Q^T for the symmetric tridiagonal B and
    independent Haar orthogonal Q, with Q never formed; the sample index
    is last, so m[r, c] holds entry (r, c) of every sample.

    Stewart's construction (SIAM J. Numer. Anal. 17, 1980): Q = H_d
    diag(s_d, H_(d-1) diag(s_(d-1), ... H_2 diag(s_2, 1))), H_m the stable
    Householder reflector of an m-vector x of standard normals, which sends
    e_1 to -sign(x_0) x/|x|; s_m = -sign(x_0) makes Q's first column x/|x|,
    uniform on the sphere, as Haar Q needs.  The innermost +-1 is taken as
    1: it only signs Q's last column, the other columns' signs are already
    fair coins (x and -x are equally likely) and Q and -Q conjugate alike.
    From the innermost out, each factor flips row and column k = d - m by
    s_m, then reflects rows and columns k - 1.. (_reflect; H_m acts on k..,
    where the rows above k - 1 of the tridiagonal B stay zero).
    """
    d = len(b)
    g = rng.standard_normal((d * (d + 1) // 2 - 1, count))
    m = np.repeat(b[:, :, None], count, axis=2)
    for k in range(d - 2, -1, -1):
        v, g = g[:d - k], g[d - k:]
        lo = max(k - 1, 0)
        blk, r = m[lo:, lo:], k - lo
        s = np.copysign(1.0, -v[0])
        blk[r] *= s
        blk[:, r] *= s
        _reflect(blk, r, v)
    return m


def _char_poly_batch(ms: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Signed coefficients a_0..a_d of det(xI - M - shift I) for a (d, d, N)
    stack of symmetric matrices M, shape (d+1, N), a_0 exactly 1; ms is
    overwritten.

    Householder tridiagonalization in place: the reflector of column k
    below the diagonal (_reflect) zeroes it past its first entry, leaving
    the diagonal alpha and the subdiagonal beta.  Then the leading minors
    P_(k+1) = (x - alpha_k - shift) P_k - beta_(k-1)^2 P_(k-1) give, in
    signed coefficients, a_i <- a_i + (alpha_k + shift) a_(i-1) -
    beta_(k-1)^2 a'_(i-2), a' those of P_(k-1).  No power of M is formed,
    so no cancellation between large power sums costs the small
    coefficients their accuracy: on exact Jacobi matrices each a_k comes
    out within about 1e-14 of itself.
    """
    d, _, n = ms.shape
    for k in range(d - 2):
        blk = ms[k:, k:]
        _reflect(blk, 1, blk[1:, 0].copy())
    a, prev = np.zeros((2, d + 1, n))
    a[0] = prev[0] = 1.0
    a[1] = ms[0, 0] + shift
    for k in range(1, d):
        t = (ms[k, k] + shift) * a[:k + 1]
        t[1:] -= np.square(ms[k, k - 1]) * prev[:k]
        prev[1:k + 2] = a[1:k + 2] + t
        a, prev = prev, a
    return a


def _jacobi(p: MonicPoly) -> np.ndarray:
    """A symmetric tridiagonal matrix whose characteristic polynomial is
    exactly the real-rooted p (Golub and Welsch's Jacobi matrix).

    Monic consecutive elements s, t of the Sturm chain of p satisfy
    s = (x - alpha) t - beta u with u the next one, so alpha and beta come
    from their top three coefficients: the diagonal entry and the square of
    the next off-diagonal one.  The chain ends at g = gcd(p, p'), where t
    divides s and beta = 0, so the block so far has characteristic
    polynomial p / g and the chain of g gives the next one.  A block that
    is not real-rooted stops its chain (None), and DomainError refuses p;
    otherwise its degrees fall by one and beta > 0.  All of this is exact;
    only the final floats are rounded.
    """
    alpha, beta = [], []
    f = _primitive_form(p)
    for _ in range(p.d):  # each pass lowers the degree of f
        if len(f) == 1:
            break
        chain = _sturm_chain(f)
        if chain is None:
            raise DomainError("Monte-Carlo oracle needs real-rooted input")
        top = [[Fraction(c, s[0]) for c in (s + [0, 0])[1:3]] for s in chain]
        for (s1, s2), (t1, t2) in zip(top, top[1:]):
            alpha.append(t1 - s1)
            beta.append(t2 - alpha[-1] * t1 - s2)
        f = chain[-1]
    if len(f) > 1:
        raise FinFreeError("the Sturm chains of %d passes did not reach a constant" % p.d)
    off = [math.sqrt(b) for b in beta[:-1]]
    diag = [float(a) for a in alpha]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _spread(p: MonicPoly) -> Fraction:
    """An exact bound, within a factor 1 + 2^-30, on |r| for the roots r of
    the centred p: sqrt((d-1)/d S), S = -2 a_2 the sum of their squares
    (Laguerre and Samuelson); S < 0 only for non-real roots."""
    squares = max(0, Fraction(-2 * (p.d - 1), p.d) * (p.a + (0,))[2])
    v = squares.numerator * squares.denominator << 60
    r = math.isqrt(v)
    return Fraction(r + (r * r < v), squares.denominator << 30)


def mc_boxplus(p: MonicPoly, q: MonicPoly, samples: int, seed: int = 0) -> MCEstimate:
    """Sample mean and standard error of the coefficients of
    char(A + Q B Q^T), A and B the Jacobi matrices of p and q, Q Haar
    orthogonal: each conjugate Q B Q^T comes from d(d+1)/2 - 1 standard
    normals by Householder reflections, with Q never formed.

    Deterministic for a fixed seed: chunked substreams from a spawned
    SeedSequence.  Each chunk's mean and centred sum of squares merge into
    the running ones in chunk order (Chan, Golub and LeVeque's pairwise
    update), so identical samples give a spread of zero, not the rounding
    left over by subtracting two large sums.

    A and B are those of p and q centred (translate), so that A + Q B Q^T has
    trace 0 and the mean root comes back as a shift of the diagonal in
    _char_poly_batch's recurrence, and divided (dilate) by 2^e >= R, the
    bound on its spectral radius that scales the pass rule.  Each a_k is
    then at most binom(d, k) in size until the mean and standard error are
    scaled back, exactly, by 2^(ek); DomainError refuses an R that would put
    a_k, at most binom(d, k) R^k < 2^d max(1, R^d), outside the normal
    floats.
    """
    _check_int(seed, "seed", 0)
    _check_int(samples, "samples")
    d = _same_degree(p, q)
    if samples < 1000:
        raise DomainError("need at least 1000 samples, got %s" % _digits(samples))
    mean_root = (p.a[1] + q.a[1]) / d
    pc, qc = (r.translate(r.a[1] / d) for r in (p, q))
    radius = abs(mean_root) + _spread(pc) + _spread(qc)
    e = radius.numerator.bit_length() - radius.denominator.bit_length() + 1
    ja, jb = (_jacobi(r.dilate(Fraction(2) ** e)) for r in (pc, qc))
    if radius and not 2**-1022 <= radius**d <= 2 ** (1024 - d):
        raise DomainError("the Monte-Carlo estimate would leave the float range")
    shift = float(mean_root / Fraction(2) ** e)
    streams = np.random.SeedSequence(seed).spawn((samples + _CHUNK - 1) // _CHUNK)
    mean = np.zeros(d + 1)
    sq = np.zeros(d + 1)  # sum of squared deviations from mean
    done = 0
    for child in streams:
        count = min(_CHUNK, samples - done)
        m = _conjugate_batch(np.random.default_rng(child), count, jb)
        m += ja[:, :, None]
        coeffs = _char_poly_batch(m, shift)
        chunk_mean = coeffs.mean(axis=1)
        chunk_sq = np.square(coeffs - chunk_mean[:, None]).sum(axis=1)
        delta = chunk_mean - mean
        mean += delta * (count / (done + count))
        sq += chunk_sq + delta * delta * (done * count / (done + count))
        done += count
    stderr = np.sqrt(sq / (samples - 1) / samples)
    mean, stderr = (tuple(math.ldexp(x, e * k) for k, x in enumerate(v))
                    for v in (mean, stderr))
    return MCEstimate(samples, mean, stderr, seed, radius)
