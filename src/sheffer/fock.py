"""Coherent-state matrix elements and their check on truncated Fock space.

The package's floating-point layer; it and ``suites`` are the modules that
import numpy, and ``import sheffer`` resolves this one's public names on
first access. It provides:

* closed-form coherent-state matrix elements of M^n and exp(lambda*M).
  <z|exp(lambda*M)|z'> is ``catalog.ClosedMaps.factor`` times <z|z'>, on a
  family's closed maps (``exp_element_coherent_closed``) or, for any pair,
  on Horner maps of the truncated f and g with finv by complex Newton
  (``exp_element_coherent``, whose error estimate is the same evaluation at
  three quarters of the order). One overflow contract (``_finite``) covers
  every closed form and the image of M: a division by zero, an overflow
  (rounding the pair's exact data to complex too) or a value that is not
  finite raises GuardExceeded;
* a numeric verifier on truncated Fock-space matrices (``fock_verify``).

Everything the closed forms and the verifier need from a pair that does not
depend on the coherent-state parameters sits in one ``CompiledPair``, which
``compile_pair`` keeps in the pair's instance ``__dict__`` beside its exact
core, so no lookup hashes the pair and the data goes with it. Its parts are
built on first use in exact arithmetic and rounded to complex: finv and
1/g(finv), the sequence s_n, the chains M^k x^l (by the monomiality
principle M^k s_j = s_{j+k}: for l = 0 the sequence itself, for l >= 1
sums of the s_{j+k} with the weights that write x^l in the s_j, no operator
applied), the exact k = 1/f' and h*k with binomial-weighted matrices
for their Taylor shift, the truncated f, f' and g of the coherent series
route, and, for each Fock cutoff, the image of M and the moment vectors
M^n|l> of ``fock_verify``. The exact series
among these are read from the pair's own cached properties
(``ShefferPair.finv``, ``.prefactor`` and ``.ladder``), which
``sheffer.normord`` reads too. Each closed form is one module function over
these parts, and ``FockSpace.pair_matrix`` is the one way to the image of
M. The verifier then runs on floating point alone, and checks a family's
draws as one batch: the draws' vectors are the columns of one block, one
product of their bras with the cached moment vectors gives every
<z|M^n|l>, one scaled Taylor sum applies each draw's exp(lam*M) to its
four vectors, and the recentred M(a + z', adag) acts on two vectors per
draw by Horner sums on the block, from the Taylor-shift weights and the
powers of z', without a shifted image. Only the closed forms are Horner
sums per draw. ``FockSpace`` builds the images of a-series and
exp(t*adag) entrywise from the factors sqrt((i+m)!/i!) instead of matrix
products.

On the number-state closed forms: the printed rule
<z|M^n|l> = s_{n+l}(z*)/sqrt(l!) <z|0> is implemented literally by
``mono_element``, but it presumes s_l(x) = x^l and fails for general pairs
at l >= 1. The operator route ``mono_element_operator`` evaluates
(M^n x^l)(z*)/sqrt(l!), which is what the Fock verifier confirms; both are
compared by the adjudication rows of ``fock_verify``.

On BLAS threads: a family's batch is a few dozen products of a 64x64
complex matrix with a block of about forty columns, with Python steps
between them. A second OpenBLAS thread shortens such a product a little
and spins on through the steps between: 2 000 of them took 0.05 s wall and
0.09-0.11 s CPU on two threads, 0.06-0.08 s wall and CPU on one, and a warm
``verify coherent`` took 0.045-0.049 s wall on either but 0.092-0.097 s
CPU on two threads against 0.045-0.049 s on one (two-core Xeon, numpy 2.4
with scipy-openblas). So ``fock_verify``
and ``suites.coherent_rows`` run inside ``_one_blas_thread``, which sets the
OpenBLAS that numpy loaded to one thread for the call and restores the
count it found, also when the call raises. It reads and writes no
environment variable, and does nothing when it finds no OpenBLAS under
numpy.
"""

from __future__ import annotations

import cmath
import ctypes
import glob
import math
import os
import threading
from contextlib import contextmanager
from functools import cached_property, lru_cache, partial
from math import comb, factorial, lcm

import numpy as np

from .catalog import ClosedMaps
from .errors import CutoffTooSmall, GuardExceeded, IndexOutOfRange, OrderExceeded, check_guard
from .series import SeriesValue, _common_denominator, _Fields, _Frozen, _set_field
from .sequences import ShefferPair, sequence_via_egf


class CoherentParams(_Fields, _Frozen):
    """Arguments of a coherent-state matrix element <z| ... |z'>."""

    __slots__ = ("z", "zp", "lam")

    def __init__(self, z: complex, zp: complex, lam: complex):
        _set_field(self, "z", z)
        _set_field(self, "zp", zp)
        _set_field(self, "lam", lam)


def overlap(z: complex, zp: complex) -> complex:
    """Coherent-state overlap <z|z'>."""
    return cmath.exp(z.conjugate() * zp - abs(z) ** 2 / 2 - abs(zp) ** 2 / 2)


# ---------------------------------------------------------------------------
# the compiled pair: draw-independent data, built once per pair
# ---------------------------------------------------------------------------


def _rounded(coeffs) -> list:
    return [complex(c) for c in coeffs]


def _horner(coeffs, z) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _powers(t, count: int) -> np.ndarray:
    """[1, t, t^2, ..., t^(count-1)] down axis 0, a column per entry of an array t."""
    t = np.asarray(t, dtype=complex)
    steps = np.empty((count,) + t.shape, dtype=complex)
    steps[0] = 1.0
    steps[1:] = t
    return np.cumprod(steps, axis=0)


def _norms(block: np.ndarray) -> np.ndarray:
    """The norm of each column of ``block``, as ``np.linalg.norm(block, axis=0)``.

    It skips that call's dispatch; a test pins the two bit for bit.
    """
    return np.sqrt((block.conj() * block).real.sum(axis=0))


def _shift_weights(coeffs) -> np.ndarray:
    """Row j, column p: C(j+p, j) c_{j+p}, rounded once from the exact product.

    The coefficients of c(x + t) are this matrix times (t^p)_p. Each entry
    is one true division of integers over the coefficients' common
    denominator, which rounds once, as ``float(Fraction)`` does, and raises
    the same OverflowError past the float range.
    """
    nums, den = _common_denominator(coeffs)
    size = len(nums)
    out = np.zeros((size, size))
    for j in range(size):
        out[j, : size - j] = [nums[j + p] * comb(j + p, j) / den for p in range(size - j)]
    return out


def _finite(what: str, compute, *args):
    """compute(*args); GuardExceeded naming ``what`` if it divides by zero,
    overflows, or has a part (a SeriesValue's tail, an image's entry too)
    that is not finite."""
    try:
        out = compute(*args)
        if isinstance(out, np.ndarray):
            if np.isfinite(out).all():
                return out
        elif all(map(cmath.isfinite, out if isinstance(out, tuple) else (out,))):
            return out
    except (OverflowError, ZeroDivisionError):
        pass
    raise _overflow(what)


def _overflow(what: str) -> GuardExceeded:
    return GuardExceeded(f"{what} divides by zero or overflows")


_NEWTON_STEPS = 64


def _newton_inverse(f, df, start: complex, target: complex) -> complex:
    """The c with f(c) = target for the polynomial f, by Newton from c = start.

    It stops at a step below 1e-14 (1 + |c|); at the quadratic rate the c it
    leaves is far closer than that last step.
    """
    c = start
    for _ in range(_NEWTON_STEPS):
        step = (_horner(f, c) - target) / _horner(df, c)
        c -= step
        if abs(step) <= 1e-14 * (1 + abs(c)):
            return c
    raise GuardExceeded(
        f"Newton on f(c) = {target} from c = {start} did not converge in {_NEWTON_STEPS} steps"
    )


def _lambda_sum(table, lam: complex, zstar: complex, l: int) -> complex:
    """sum_k table[k](z*) lam^k / k!, over sqrt(l!); table holds rounded polynomials."""
    acc = _horner(table[0], zstar)
    power = 1.0 + 0j
    for k in range(1, len(table)):
        power *= lam
        acc += _horner(table[k], zstar) * power / factorial(k)
    return acc / math.sqrt(factorial(l))


def _monomial_chain(polys, l: int, length: int) -> list:
    """Rounded M^k x^l for k = 0 .. length-1, from the exact sequence ``polys``.

    By the monomiality principle M^k s_j = s_{j+k}, so x^l = sum_{j<=l} c_j s_j
    gives M^k x^l = sum_j c_j s_{j+k}. The c_j come by back substitution,
    since s_j has degree j and a nonzero leading coefficient. Each
    coefficient is summed exactly on the integer numerators of the s_j and
    rounded once, to the bits ``complex(Fraction)`` gives and with its
    OverflowError past the float range.
    """
    weights = [None] * (l + 1)
    for j in range(l, -1, -1):
        target = 1 if j == l else 0
        rest = target - sum(weights[m] * polys[m].coeffs[j] for m in range(j + 1, l + 1))
        weights[j] = rest / polys[j].coeffs[j]
    rows = [_common_denominator(p.coeffs) for p in polys[: l + length]]
    chain = []
    for k in range(length):
        terms = [(c.numerator, c.denominator * rows[j + k][1], rows[j + k][0])
                 for j, c in enumerate(weights) if c]
        den = lcm(*[d for _, d, _ in terms])
        out = [0] * (k + l + 1)
        for num, d, nums in terms:
            scale = num * (den // d)
            for i, v in enumerate(nums):
                out[i] += scale * v
        chain.append([complex(v / den) for v in out])
    return chain


class CompiledPair:
    """What the closed forms and the Fock verifier need from one pair.

    None of it depends on the coherent-state parameters. Each part is built
    on first use, in exact arithmetic, and kept rounded to complex, so a
    call does only floating-point Horner sums and numpy products. The exact
    series come from the pair's cached ``finv``, ``prefactor`` and
    ``ladder``, so they are built once per pair object. A Horner sum over
    the rounded coefficients gives the same bits as Horner evaluation of
    the exact polynomial at a complex point. The chains M^k x^l come from
    the sequence by the monomiality principle: M^k 1 is s_k, and M^k x^l is
    sum_j c_j s_{j+k} where x^l = sum_j c_j s_j (``_monomial_chain``), so no
    raising operator is built or applied. Per Fock cutoff,
    ``images`` holds the image of M, which ``FockSpace.pair_matrix`` fills,
    and ``moments`` the block whose columns are the vectors M^n|l> that
    ``fock_verify`` checks, which ``FockSpace.pair_moments`` fills. The
    Taylor-shift weights serve ``FockSpace.shifted_action``.
    """

    def __init__(self, pair: ShefferPair):
        self.pair = pair
        self.order = pair.order
        self._chains: dict = {}
        self.images: dict = {}
        self.moments: dict = {}

    @cached_property
    def _vacuum(self):
        # finv and 1/g(finv): <z|exp(lam*M)|0>/<z|0> = exp(z* finv(lam)) / g(finv(lam))
        return _rounded(self.pair.finv.coeffs), _rounded(self.pair.prefactor.coeffs)

    @cached_property
    def _sequence(self) -> list:
        # the exact s_n stay in _polys until _chain builds the chains from them
        self._polys = sequence_via_egf(self.pair, self.order).polys
        return [_rounded(p.coeffs) for p in self._polys]

    def _chain(self, l: int) -> list:
        """Rounded M^k x^l for k = 0 .. order-1-l; M^k 1 is s_k (monomiality).

        The chains l >= 1 come from ``_monomial_chain`` on the exact sequence
        that ``_sequence`` built, which the first of them to be asked for
        drops after building every chain the Fock verifier reads
        (l <= _L_MAX). A chain asked for with no sequence kept builds one.
        """
        if l < 0:
            raise IndexOutOfRange(f"number state |{l}> does not exist")
        if l == 0:
            return self._sequence[: self.order]
        if l not in self._chains:
            polys = vars(self).pop("_polys", None) or sequence_via_egf(self.pair, self.order - 1).polys
            for m in sorted({l, *range(1, min(_L_MAX, self.order - 1) + 1)} - self._chains.keys()):
                self._chains[m] = _monomial_chain(polys, m, self.order - m)
        return self._chains[l]

    @cached_property
    def _coherent_parts(self) -> tuple:
        # f, f' and g rounded at orders N and 3N/4: the value on the lower
        # truncation is the coherent route's embedded error estimate
        parts = []
        for m in (self.order, 3 * self.order // 4):
            f = self.pair.f.coeffs[: m + 1]
            df = [c * k for k, c in enumerate(f) if k]
            parts.append((_rounded(f), _rounded(df), _rounded(self.pair.g.coeffs[: m + 1])))
        return tuple(parts)

    @cached_property
    def _ladder_shift_weights(self):
        # M = adag*k(a) - (h*k)(a) with k = 1/f' and h = g'/g
        return tuple(_shift_weights(ser.coeffs) for ser in self.pair.ladder)


def compile_pair(pair: ShefferPair) -> CompiledPair:
    """The pair's compiled data, kept in its instance __dict__ beside its exact core.

    Like the core it stays out of the pair's equality and hash, so an equal
    pair built anew compiles its own, and it is freed with the pair.
    """
    compiled = vars(pair).get("_compiled")
    if compiled is None:
        compiled = vars(pair)["_compiled"] = CompiledPair(pair)
    return compiled


# ---------------------------------------------------------------------------
# closed-form matrix elements (all returned without the <z|0> / <z|z'> factor
# unless stated otherwise)
# ---------------------------------------------------------------------------


def mono_element(pair: ShefferPair, n: int, l: int, zstar: complex) -> complex:
    """Printed closed form s_{n+l}(z*)/sqrt(l!), as a multiple of <z|0>."""
    if not 0 <= n + l <= pair.order:
        raise OrderExceeded(f"need s_{n + l}, series order is {pair.order}")
    if n < 0 or l < 0:
        raise IndexOutOfRange(f"M^{n} on |{l}>: a negative index")
    return _finite(f"printed <z|M^{n}|{l}>", lambda: _horner(
        compile_pair(pair)._sequence[n + l], complex(zstar)) / math.sqrt(factorial(l)))


def mono_element_operator(pair: ShefferPair, n: int, l: int, zstar: complex) -> complex:
    """Operator-route closed form (M^n x^l)(z*)/sqrt(l!), multiple of <z|0>."""
    if n + l > pair.order - 1:
        raise OrderExceeded(f"need operator exactness to degree {n + l}")
    if n < 0:
        raise IndexOutOfRange(f"negative power M^{n}")
    return _finite(f"operator <z|M^{n}|{l}>", lambda: _horner(
        compile_pair(pair)._chain(l)[n], complex(zstar)) / math.sqrt(factorial(l)))


def exp_element_vac(
    pair: ShefferPair, lam: complex, zstar: complex, guard: float = 0.5
) -> complex:
    """<z|exp(lam*M)|0> / <z|0> via the generating-function series."""
    check_guard("|lambda|", guard, lam)

    def compute():
        finv, prefactor = compile_pair(pair)._vacuum
        return _horner(prefactor, lam) * cmath.exp(complex(zstar) * _horner(finv, lam))

    return _finite(f"vacuum element at lam={lam}", compute)


def exp_element_state(
    pair: ShefferPair, lam: complex, zstar: complex, l: int, guard: float = 0.5
) -> complex:
    """Printed closed form for <z|exp(lam*M)|l> / <z|0>.

    This is the l-th lambda-derivative of the generating function over
    sqrt(l!); like ``mono_element`` it presumes s_l(x) = x^l.
    """
    if l > pair.order:
        raise OrderExceeded(f"l = {l} exceeds series order {pair.order}")
    if l < 0:
        raise IndexOutOfRange(f"number state |{l}> does not exist")
    check_guard("|lambda|", guard, lam)
    return _finite(f"printed <z|exp(lam*M)|{l}> at lam={lam}", lambda: _lambda_sum(
        compile_pair(pair)._sequence[l:], lam, complex(zstar), l))


def exp_element_state_operator(
    pair: ShefferPair, lam: complex, zstar: complex, l: int, guard: float = 0.5
) -> complex:
    """Operator-route value of <z|exp(lam*M)|l> / <z|0> (truncated in lambda)."""
    check_guard("|lambda|", guard, lam)
    k_top = pair.order - 1
    if l > k_top:
        raise OrderExceeded(f"l = {l} exceeds usable degree {k_top}")
    return _finite(f"operator <z|exp(lam*M)|{l}> at lam={lam}", lambda: _lambda_sum(
        compile_pair(pair)._chain(l), lam, complex(zstar), l))


def exp_element_coherent(
    pair: ShefferPair,
    z: complex,
    zp: complex,
    lam: complex,
    *,
    lam_guard: float = 0.5,
    z_guard: float = 0.5,
) -> SeriesValue:
    """<z|exp(lam*M)|z'> including the overlap factor, on the truncated pair.

    ``ClosedMaps.factor`` times <z|z'> on the Horner maps of f_N and g_N, N
    the pair order, with finv by complex Newton from c = z'. The same value
    at order 3N/4 gives the returned ``SeriesValue(value, tail)`` its tail
    |v_N - v_3N/4| / |v_N|; ``fock_verify`` refuses a tail above its ``tol``.
    Newton that does not converge, a zero f_N'(c) or g_N(c), and a value
    that overflows raise GuardExceeded, as do |z'| and |lambda| past
    ``z_guard`` and ``lam_guard``.
    """
    check_guard("|z'|", z_guard, zp)
    check_guard("|lambda|", lam_guard, lam)
    zp = complex(zp)

    def compute():
        value, low = (
            ClosedMaps(partial(_horner, f), partial(_newton_inverse, f, df, zp),
                       partial(_horner, g)).factor(complex(z).conjugate(), zp, lam)
            for f, df, g in compile_pair(pair)._coherent_parts
        )
        return SeriesValue(value * overlap(z, zp), abs(value - low) / abs(value))

    return _finite(f"coherent element at z'={zp}, lam={lam}", compute)


def exp_element_coherent_closed(maps, z: complex, zp: complex, lam: complex) -> complex:
    """<z|exp(lam*M)|z'> including overlap: ``maps.factor(z*, z', lam) * overlap(z, z')``.

    Under the same overflow contract as ``exp_element_coherent``.
    """
    return _finite(
        f"closed-form coherent element at z={z}, z'={zp}, lam={lam}",
        lambda: maps.factor(z.conjugate(), zp, lam) * overlap(z, zp),
    )


# ---------------------------------------------------------------------------
# numeric verification on truncated Fock space
# ---------------------------------------------------------------------------


_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) thread-count calls of the OpenBLAS under numpy.libs, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a BLAS we cannot load leaves the numerics as they are
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_threads, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                return get_threads, set_threads
    return None


class _OneThreadScopes:
    """Scopes that run numpy's OpenBLAS on one thread.

    The thread count is process-wide, so the scopes open on all threads are
    counted under a lock: the first to open sets one thread, and the last to
    close restores the count the first one found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._before = 0

    @contextmanager
    def scope(self):
        calls = _openblas_threads()
        if calls is None:
            yield
            return
        get_threads, set_threads = calls
        with self._lock:
            if not self._open:
                self._before = get_threads()
                set_threads(1)
            self._open += 1
        try:
            yield
        finally:
            with self._lock:
                self._open -= 1
                if not self._open:
                    set_threads(self._before)


_one_blas_thread = _OneThreadScopes().scope


_MOMENTS_MAX = 6  # fock_verify checks <z|M^n|l> for n = 1.._MOMENTS_MAX
_L_MAX = 2  # and the number states |l> for l = 0.._L_MAX


@lru_cache(maxsize=8)
def _exp_adag_table(dim: int):
    """sqrt((n+j)!/n!)/j! at entry (n+j, n), and j there; zero above the diagonal."""
    table = np.zeros((dim, dim))
    flat = table.reshape(-1)
    column = np.ones(dim)
    for j in range(dim):
        if j:
            column = column[:-1] * np.sqrt(np.arange(j, dim)) / j
        flat[j * dim :: dim + 1] = column
    rows = np.arange(dim)
    power_index = np.maximum(rows[:, None] - rows[None, :], 0)
    table.setflags(write=False)
    power_index.setflags(write=False)
    return table, power_index


class FockSpace:
    """Dense cutoff-d images of the boson operators and helper numerics.

    Vectors are the columns of a block, one column per draw or number
    state, so that one matrix product serves all of them.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("Fock cutoff must be >= 2")
        self.dim = dim
        self._roots = np.sqrt(np.arange(2 * dim, dtype=float))

    def coherent_vecs(self, zs):
        """Truncated coherent vectors of ``zs`` as the columns of one block, and their tails.

        Column j is the running product of exp(-|z|^2/2) and z/sqrt(n) down
        n, for z = zs[j]; its tail estimates the norm cut off past the cutoff.
        """
        zs = np.asarray(zs, dtype=complex)
        dim, mags = self.dim, np.abs(zs)
        steps = np.empty((dim, len(zs)), dtype=complex)
        steps[0] = np.exp(-mags**2 / 2)
        steps[1:] = zs / self._roots[1:dim, None]
        log_tails = (
            -mags**2 / 2 + dim * np.log(np.maximum(mags, 1e-300)) - 0.5 * math.lgamma(dim + 1)
        )
        return np.cumprod(steps, axis=0), np.exp(np.minimum(log_tails, 300.0))

    def series_on_a(self, coeffs) -> np.ndarray:
        """Image of sum c_j a^j; exact at the cutoff since a^dim = 0.

        Superdiagonal j holds c_j sqrt((i+j)!/i!), multiplied out from c_j
        one factor sqrt(i+t) at a time, in the order a Horner scheme on the
        matrix of a rounds them.
        """
        dim = self.dim
        diags = np.repeat(np.array(_rounded(coeffs)[:dim], dtype=complex)[:, None], dim, axis=1)
        for t in range(1, len(diags)):
            diags[t:] *= self._roots[t : t + dim]
        out = np.zeros((dim, dim), dtype=complex)
        flat = out.reshape(-1)
        for j, diag in enumerate(diags):
            flat[j : j + (dim - j) * (dim + 1) : dim + 1] = diag[: dim - j]
        return out

    def _ladder_image(self, k_coeffs, hk_coeffs) -> np.ndarray:
        """Image of adag*k(a) - (h*k)(a); row i of adag*X is sqrt(i) X[i-1]."""
        k_image = self.series_on_a(k_coeffs)
        out = np.zeros_like(k_image)
        out[1:] = self._roots[1 : self.dim, None] * k_image[:-1]
        out -= self.series_on_a(hk_coeffs)
        return out

    def pair_matrix(self, pair: ShefferPair) -> np.ndarray:
        """Image of M = adag*k(a) - (h*k)(a), built once per pair and cutoff, read-only.

        It is rounded under ``_finite``. ``shifted_action`` applies M
        recentred at a -> a + t without an image.
        """
        compiled = compile_pair(pair)
        image = compiled.images.get(self.dim)
        if image is None:
            image = _finite("image of M", self._ladder_image, *(ser.coeffs for ser in pair.ladder))
            image.setflags(write=False)
            compiled.images[self.dim] = image
        return image

    def pair_moments(self, pair: ShefferPair) -> np.ndarray:
        """M^n|l> for l = 0.._L_MAX and n = 1.._MOMENTS_MAX as columns, read-only.

        Column l*_MOMENTS_MAX + n - 1 holds M^n|l>. Built from the image of M
        once per pair and cutoff, by _MOMENTS_MAX products with a block of
        the number states; a draw takes only their inner products with its bra.
        """
        compiled = compile_pair(pair)
        moments = compiled.moments.get(self.dim)
        if moments is None:
            m_mat = self.pair_matrix(pair)
            block, powers = np.eye(self.dim, _L_MAX + 1, dtype=complex), []
            for _ in range(_MOMENTS_MAX):
                block = m_mat @ block
                powers.append(block)
            moments = np.stack(powers, axis=2).reshape(self.dim, -1)
            moments.setflags(write=False)
            compiled.moments[self.dim] = moments
        return moments

    def exp_adag(self, t: complex) -> np.ndarray:
        """Image of exp(t*adag): entry (n+j, n) is t^j sqrt((n+j)!/n!)/j!."""
        table, power_index = _exp_adag_table(self.dim)
        return table * _powers(t, self.dim)[power_index]

    def apply_exp(self, mat: np.ndarray, lams, block: np.ndarray):
        """exp(lams[j]*mat) @ block[:, j] for each column j, by scaled Taylor summation.

        The block takes one scaling power, the largest any column needs. A
        column's need comes from its effective norm |lam| ||mat v|| / ||v||
        rather than the raw matrix norm, which is dominated by high
        occupation numbers irrelevant to coherent-supported states. Each
        column stops at its own term test, and a zero column comes back as it
        is. Returns (block, tails): a column's tail is its last term's norm
        times the number of scaling steps. A column whose sum does not
        converge raises CutoffTooSmall.
        """
        lams = np.asarray(lams, dtype=complex)
        out = np.array(block, dtype=complex)
        tails = np.zeros(out.shape[1])
        norms = _norms(out)
        cols = np.flatnonzero(norms != 0)
        if not cols.size:
            return out, tails
        eff = (np.abs(lams[cols]) * _norms(mat @ out[:, cols]) / norms[cols]).max()
        s = 0
        while eff > 1.0 and s < 10:
            eff /= 2.0
            s += 1
        reps = 1 << s
        lam_s = lams / reps
        for _ in range(reps):
            live = cols
            acc = term = out[:, live]
            for k in range(1, 400):
                term = (mat @ term) * (lam_s[live] / k)
                acc += term
                tail = _norms(term)
                done = tail <= 1e-17 * _norms(acc)
                if done.any():
                    out[:, live[done]] = acc[:, done]
                    tails[live[done]] = tail[done]
                    keep = ~done
                    live, acc, term = live[keep], acc[:, keep], term[:, keep]
                    if not live.size:
                        break
            else:
                raise CutoffTooSmall("matrix exponential Taylor sum did not converge")
        return out, tails * reps

    def shifted_action(self, pair: ShefferPair, shifts, block: np.ndarray) -> np.ndarray:
        """M(a + t, adag) @ block[:, j] for each column j, with t = shifts[j].

        That is adag*K(a) - HK(a), where K and HK are k = 1/f' and h*k
        shifted to x + t: the pair's Taylor-shift weights times the powers of
        t. Both series in a are summed on the vectors by Horner, so no
        shifted image is built. Weights past the float range raise
        OverflowError; an overflow in the sums leaves inf or nan in the
        columns it reaches.
        """
        dim, width = self.dim, block.shape[1]
        k_weights, hk_weights = compile_pair(pair)._ladder_shift_weights
        powers = _powers(shifts, len(k_weights))
        coeffs = np.concatenate([k_weights @ powers, hk_weights @ powers], axis=1)[:dim]
        both = np.concatenate([block, block], axis=1)
        acc = np.zeros_like(both)
        for c in coeffs[::-1]:  # acc <- a acc + c both
            acc[:-1] = self._roots[1:dim, None] * acc[1:]
            acc[-1] = 0.0
            acc += c * both
        out = -acc[:, width:]
        out[1:] += self._roots[1:dim, None] * acc[:-1, :width]
        return out


def _batched_row(identity: str, pairs, tol: float, tail: float) -> dict:
    """Build a report row from (numeric, closed) value pairs."""
    abs_errs = [abs(n - c) for n, c in pairs]
    scale = max((abs(c) for _, c in pairs), default=0.0)
    max_abs = max(abs_errs, default=0.0)
    max_rel = max_abs / max(scale, 1e-300)
    return {
        "identity": identity,
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
        "tail_estimate": tail,
        "pass": bool(max_rel <= tol),
    }


def _adjudicated_row(identity: str, pairs, tol: float, tail: float) -> dict:
    """A row that records its verdict as ``matches_printed`` and passes."""
    row = _batched_row(identity, pairs, tol, tail)
    row["matches_printed"] = row.pop("pass")
    row["pass"] = True
    return row


MIN_CUTOFF = 32  # smallest Fock cutoff that fock_verify and the CLI's --cutoff accept
# draws whose vectors share one block: at the CLI's largest cutoff, 1024, a
# block of their exponentials' columns holds 2 MB
_BLOCK_DRAWS = 32


@_one_blas_thread()
def fock_verify(
    pair: ShefferPair,
    draws,
    cutoff: int = 64,
    tol: float = 1e-8,
    *,
    maps=None,
    z_guard: float = 0.5,
    lam_guard: float = 0.25,
) -> list:
    """Numeric check of the coherent-state matrix elements at each draw's parameters.

    ``draws`` is a sequence of ``CoherentParams``. Builds cutoff-d images of
    the boson operators, assembles M from the pair's truncated series, and
    compares matrix elements against the closed forms. Returns one list of
    report rows per draw, in draw order; the adjudication rows compare the
    printed number-state rule against the operator route and always carry
    pass=True with a ``matches_printed`` field (completed, not asserted).

    The draws are checked together, _BLOCK_DRAWS at a time: their vectors
    are the columns of one block, and each numeric step is one product or
    one Taylor sum over it. A refused draw raises what it raises alone, once
    the draws before it are checked, so a batch raises what its draws
    checked one at a time would raise first. The one exception is a Taylor
    sum that does not converge, which refuses its whole block. Runs with
    OpenBLAS on one thread (``_one_blas_thread``).
    """
    if cutoff < MIN_CUTOFF:
        raise CutoffTooSmall(f"Fock cutoff must be >= {MIN_CUTOFF}")
    space = FockSpace(cutoff)
    draws = list(draws)
    checked = []
    for start in range(0, len(draws), _BLOCK_DRAWS):
        block = draws[start : start + _BLOCK_DRAWS]
        checked.extend(_verify_block(space, pair, block, tol, maps, z_guard, lam_guard))
    return checked


def _verify_block(space: FockSpace, pair, draws: list, tol, maps, z_guard, lam_guard) -> list:
    # A draw refused by a guard or by its coherent tail ends the block there,
    # after the draws before it have been checked in full.
    refusal = None
    for i, params in enumerate(draws):
        try:
            check_guard("|z| and |z'|", 1.0, params.z, params.zp)
            check_guard("|z'|", z_guard, params.zp)
            check_guard("|lambda|", lam_guard, params.lam)
        except GuardExceeded as exc:
            draws, refusal = draws[:i], exc
            break
    zps = np.array([params.zp for params in draws], dtype=complex)
    vecs, tails = space.coherent_vecs(
        np.concatenate([[params.z for params in draws], zps, zps / 2]))
    z_vecs, zp_vecs, half_vecs = np.split(vecs, 3, axis=1)
    z_tails, zp_tails, _ = np.split(tails, 3)
    tails = np.maximum(z_tails, zp_tails).tolist()
    for i, tail in enumerate(tails):
        if tail > tol:
            draws, refusal = draws[:i], CutoffTooSmall(
                f"coherent tail {tail:.3g} above tolerance {tol:.3g}")
            break
    count, dim = len(draws), space.dim
    if not count:
        if refusal is not None:
            raise refusal
        return []
    z_vecs, zp_vecs, half_vecs, zps = (a[..., :count] for a in (z_vecs, zp_vecs, half_vecs, zps))
    m_mat = space.pair_matrix(pair)
    bras = z_vecs.conj()

    overlaps = (bras * zp_vecs).sum(axis=0).tolist()
    # <z|M^n|l>: draw, then l, then n - 1
    moments = (bras.T @ space.pair_moments(pair)).reshape(count, _L_MAX + 1, -1).tolist()
    # exp(lam*M) on |0>, .., |_L_MAX> and |z'>: each a group of a column per draw
    starts = np.repeat(np.eye(dim, _L_MAX + 1, dtype=complex), count, axis=1)
    lams = np.array([params.lam for params in draws], dtype=complex)
    exps, exp_tails = space.apply_exp(m_mat, np.tile(lams, _L_MAX + 2), np.hstack([starts, zp_vecs]))
    exps = (bras[:, None] * exps.reshape(dim, _L_MAX + 2, count)).sum(axis=0).tolist()
    exp_tails = exp_tails.reshape(_L_MAX + 2, count).tolist()
    # M(a + z', adag) on |0> and |z'/2> of each draw
    recentred = np.hstack([starts[:, :count], half_vecs])
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            shifted = space.shifted_action(pair, np.tile(zps, 2), recentred)
        except OverflowError:  # the Taylor-shift weights do not round to float
            shifted = np.full_like(recentred, np.inf)
        shifted = shifted.reshape(dim, 2, count)
        shifted_finite = np.isfinite(shifted).all(axis=(0, 1)).tolist()
        shifted = (bras[:, None] * shifted).sum(axis=0).T.tolist()
    recentred = recentred.reshape(dim, 2, count)

    out = []
    for d, params in enumerate(draws):
        z, zp, lam = params.z, params.zp, params.lam
        tail = tails[d]
        vac_factor = cmath.exp(-abs(z) ** 2 / 2)  # <z|0>
        zs = z.conjugate()
        rows = [_batched_row("overlap", [(overlaps[d], overlap(z, zp))], tol, tail)]

        # <z|M^n|l> for l = 0 (printed form is exact here) and l >= 1 (operator route)
        for l, values in enumerate(moments[d]):
            vals = []
            printed = []
            for n, num in enumerate(values, 1):
                vals.append((num, mono_element_operator(pair, n, l, zs) * vac_factor))
                if l > 0:  # only there is the printed form adjudicated
                    printed.append((num, mono_element(pair, n, l, zs) * vac_factor))
            name = "moments_vacuum" if l == 0 else f"moments_state_operator_l{l}"
            rows.append(_batched_row(name, vals, tol, tail))
            if l > 0:
                rows.append(
                    _adjudicated_row(f"adjudication:moments_state_printed_l{l}", printed, tol, tail)
                )

        # <z|exp(lam*M)|l>
        for l in range(0, _L_MAX + 1):
            num, exp_tail = exps[l][d], max(tail, exp_tails[l][d])
            if l == 0:
                closed = exp_element_vac(pair, lam, zs, lam_guard) * vac_factor
                rows.append(_batched_row("exp_vacuum", [(num, closed)], tol, exp_tail))
                continue
            closed = exp_element_state_operator(pair, lam, zs, l, lam_guard) * vac_factor
            rows.append(_batched_row(f"exp_state_operator_l{l}", [(num, closed)], tol, exp_tail))
            printed = [(num, exp_element_state(pair, lam, zs, l, lam_guard) * vac_factor)]
            rows.append(
                _adjudicated_row(f"adjudication:exp_state_printed_l{l}", printed, tol, exp_tail)
            )

        # <z|exp(lam*M)|z'>
        if maps is not None:
            closed = exp_element_coherent_closed(maps, z, zp, lam)
        else:
            closed, estimate = exp_element_coherent(
                pair, z, zp, lam, lam_guard=lam_guard, z_guard=z_guard
            )
            if estimate > tol:
                raise GuardExceeded(
                    f"coherent series estimate {estimate:.3g} above tolerance {tol:.3g}"
                )
        rows.append(_batched_row("exp_coherent", [(exps[-1][d], closed)], tol,
                                 max(tail, exp_tails[-1][d])))

        # recentring identity: exp(-z' adag) M exp(z' adag) = M(a + z', adag)
        if not shifted_finite[d]:
            raise _overflow(f"image of M shifted by {zp}")
        plus, minus = space.exp_adag(zp), space.exp_adag(-zp)
        left = (bras[:, d] @ (minus @ (m_mat @ (plus @ recentred[:, :, d])))).tolist()
        rows.append(_batched_row("shift_identity", list(zip(left, shifted[d])), tol, tail))
        out.append(rows)
    if refusal is not None:
        raise refusal
    return out
