"""Corner spectrum at the wall/open-end junction.

The local regularity of the mixed Stokes problem at the right-angle
junction between the no-slip walls and the do-nothing ends is governed by
the roots of a transcendental symbol equation; the companion scalar
(Poisson-type) problem contributes the odd integers.  ``mu_M`` is the
width of the strip about the imaginary axis that contains no eigenvalue
other than z = 1, and the maximal Sobolev exponent for second-derivative
regularity follows as s0 = 2 / (2 - mu_M).
"""

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "mellin_symbol",
    "mellin_symbol_deriv",
    "find_roots",
    "scalar_exponents",
    "compute_spectrum",
    "regularity_bounds",
    "weighted_admissibility",
    "SpectrumResult",
    "MissedRootError",
]


class MissedRootError(RuntimeError):
    """Winding-number count and polished-root count disagree."""


def mellin_symbol(z):
    """Symbol determinant f(z) = z^2 - 4 cos^2(z pi/2) - sin^2(z pi/2)."""
    z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
    w = z * (np.pi / 2)
    if isinstance(z, complex):
        return z * z - 4 * cmath.cos(w) ** 2 - cmath.sin(w) ** 2
    return z * z - 4 * np.cos(w) ** 2 - np.sin(w) ** 2


def mellin_symbol_deriv(z):
    """d/dz of the symbol determinant, 2z + (3 pi / 2) sin(pi z)."""
    if np.ndim(z):
        z = np.asarray(z, dtype=complex)
        return 2 * z + 1.5 * np.pi * np.sin(np.pi * z)
    z = complex(z)
    return 2 * z + 1.5 * np.pi * cmath.sin(np.pi * z)


def _winding_number(re_min, re_max, im_min, im_max, pts_per_side=1000):
    """Number of zeros inside the rectangle, by total argument change.

    Raises ValueError when the contour passes too close to a zero for the
    phase to be tracked reliably.
    """
    corners = [
        complex(re_min, im_min),
        complex(re_max, im_min),
        complex(re_max, im_max),
        complex(re_min, im_max),
        complex(re_min, im_min),
    ]
    zs = []
    for a, b in zip(corners[:-1], corners[1:]):
        t = np.linspace(0.0, 1.0, pts_per_side, endpoint=False)
        zs.append(a + (b - a) * t)
    zs = np.concatenate(zs + [np.array([corners[0]])])
    fv = mellin_symbol(zs)
    scale = max(abs(re_max) + abs(im_max), 1.0)
    if np.min(np.abs(fv)) < 1e-9 * scale:
        raise ValueError("contour passes too close to a zero")
    dphase = np.angle(fv[1:] / fv[:-1])
    if np.max(np.abs(dphase)) > 0.9 * np.pi:
        raise ValueError("phase step too large; refine the contour")
    total = dphase.sum()
    n = total / (2 * np.pi)
    n_int = int(round(n))
    if abs(n - n_int) > 1e-3:
        raise ValueError(f"winding number not near an integer: {n}")
    return n_int


def _safe_winding(re_min, re_max, im_min, im_max, pts_per_side=1000):
    """Winding count with deterministic nudges when a zero sits on the contour."""
    width = max(re_max - re_min, im_max - im_min)
    for bump in (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2):
        eps = bump * width
        try:
            return (
                _winding_number(
                    re_min - eps, re_max + eps, im_min - eps, im_max + eps, pts_per_side
                ),
                eps,
            )
        except ValueError:
            continue
    raise MissedRootError("could not obtain a clean contour around the search box")


def _newton_polish(z0, tol, max_iter=60):
    z = complex(z0)
    for _ in range(max_iter):
        fz = mellin_symbol(z)
        if abs(fz) < tol:
            # one extra step sharpens the residual toward machine precision
            dfz = mellin_symbol_deriv(z)
            if dfz != 0:
                z = z - fz / dfz
            return z
        dfz = mellin_symbol_deriv(z)
        if dfz == 0:
            break
        z = z - fz / dfz
    return z if abs(mellin_symbol(z)) < tol else None


def _real_axis_seeds(re_min, re_max, n=4001):
    xs = np.linspace(re_min, re_max, n)
    fx = mellin_symbol(xs.astype(complex)).real
    sign = np.sign(fx)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    seeds = [0.5 * (xs[i] + xs[i + 1]) for i in flips]
    seeds.extend(xs[np.abs(fx) < 1e-12])
    return seeds


def find_roots(re_min, re_max, im_max, tol=1e-12, max_depth=40):
    """All roots of the symbol in the closed strip by argument-principle search.

    Rectangles are bisected until each contains at most one zero, the zero
    is polished by Newton iteration, and the total polished-root count is
    checked against the winding-number count of the full box.  A mismatch
    raises MissedRootError.
    """
    if not re_min < re_max:
        raise ValueError("re_min must be below re_max")
    if tol <= 0:
        raise ValueError("tol must be positive")
    total, _ = _safe_winding(re_min, re_max, -im_max, im_max)
    if total == 0:
        return []

    roots = []

    def accept(z):
        for r in roots:
            if abs(r - z) < 1e-8:
                return
        roots.append(z)

    # the symbol has real coefficients, so real roots are found first by a
    # sign scan and any complex ones by box subdivision below
    for seed in _real_axis_seeds(re_min, re_max):
        z = _newton_polish(seed, tol)
        if z is not None and re_min - 1e-9 <= z.real <= re_max + 1e-9:
            if abs(z.imag) < 1e-12:
                accept(complex(z.real, 0.0))

    def in_box(z, a, b, c, d, pad=1e-9):
        return a - pad <= z.real <= b + pad and c - pad <= z.imag <= d + pad

    def n_known(box):
        return sum(in_box(r, *box) for r in roots)

    stack = [((re_min, re_max, -im_max, im_max), total, 0)]
    while stack:
        box, count, depth = stack.pop()
        a, b, c, d = box
        if n_known(box) >= count:
            continue
        if count == 1 or depth >= max_depth or max(b - a, d - c) < 1e-6:
            z = _newton_polish(complex(0.5 * (a + b), 0.5 * (c + d)), tol)
            if z is not None and in_box(z, *box, pad=1e-6):
                accept(z)
                if n_known(box) >= count:
                    continue
            if depth >= max_depth:
                raise MissedRootError(
                    f"unresolved zero count {count} in box [{a},{b}]x[{c},{d}]"
                )
        # split the longer side; nudge the cut if it lands on a zero
        axis = 0 if b - a >= d - c else 2
        lo, hi = box[axis], box[axis + 1]
        for frac in (0.5, 0.47, 0.53, 0.41):
            mid = lo + frac * (hi - lo)
            halves = (
                box[:axis] + (lo, mid) + box[axis + 2:],
                box[:axis] + (mid, hi) + box[axis + 2:],
            )
            try:
                n1, n2 = (_winding_number(*half) for half in halves)
            except ValueError:
                continue
            if n1 + n2 == count:
                stack.append((halves[0], n1, depth + 1))
                stack.append((halves[1], n2, depth + 1))
                break
        else:
            raise MissedRootError("box split failed; zero on every candidate cut")

    roots = [z for z in roots if in_box(z, re_min, re_max, -im_max, im_max)]
    roots.sort(key=lambda z: (z.real, z.imag))
    if len(roots) != total:
        raise MissedRootError(
            f"winding count {total} but {len(roots)} polished roots in the strip"
        )
    bad = [z for z in roots if abs(mellin_symbol(z)) >= tol]
    if bad:
        raise MissedRootError(f"roots above residual tolerance: {bad}")
    return roots


def scalar_exponents(k_max):
    """Exponent family 2k+1 of the scalar (axial-velocity) corner problem.

    Each entry is cross-checked as a root of cos(z pi / 2).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    zs = np.array([2 * k + 1 for k in range(int(k_max) + 1)], dtype=float)
    resid = np.abs(np.cos(zs * np.pi / 2))
    limit = np.maximum(1e-15, zs * 4e-16)
    if np.any(resid > limit):
        raise AssertionError("scalar exponent failed the cosine identity")
    return zs


@dataclass
class SpectrumResult:
    stokes_roots: list
    scalar_roots: np.ndarray
    mu_M: float
    s0: float
    residuals: list
    strip: tuple
    metadata: dict = field(default_factory=dict)


def compute_spectrum(re_min=0.02, re_max=1.95, im_max=5.0, k_max=10, tol=1e-12):
    """Roots in the strip, the scalar family, mu_M and s0."""
    roots = find_roots(re_min, re_max, im_max, tol=tol)
    scalars = scalar_exponents(k_max)
    result = SpectrumResult(
        stokes_roots=roots,
        scalar_roots=scalars,
        mu_M=0.0,
        s0=0.0,
        residuals=[abs(mellin_symbol(z)) for z in roots],
        strip=(re_min, re_max, im_max),
        metadata={
            "s0_formula": "2 / (2 - mu_M)",
            "s0_consistency": "equivalent to 2/s > 2 - mu_M at s = s0",
        },
    )
    result.mu_M, result.s0 = regularity_bounds(result)
    return result


def regularity_bounds(spectrum):
    """(mu_M, s0) from the computed eigenvalue set.

    mu_M is the smallest real part above 1 among all eigenvalues; the
    strip (0, mu_M) must contain no eigenvalue other than z = 1.
    """
    eigen = [complex(z) for z in spectrum.stokes_roots]
    eigen += [complex(z, 0.0) for z in np.atleast_1d(spectrum.scalar_roots)]
    above = [z.real for z in eigen if z.real > 1.0 + 1e-9]
    if not above:
        raise ValueError("no eigenvalue with real part above 1; strip too narrow")
    mu = min(above)
    for z in eigen:
        if 1e-9 < z.real < mu - 1e-9 and abs(z - 1.0) > 1e-8:
            raise ValueError(f"eigenvalue {z} inside the strip (0, mu_M)")
    return float(mu), float(2.0 / (2.0 - mu))


def weighted_admissibility(delta, p, mu_M):
    """Per-component verdicts of max(0, 2 - mu_M) < delta_i + 2/p < 2.

    Requires p > 1 and delta_i > -2/p (weighted-space admissibility).
    """
    if p <= 1:
        raise ValueError("integrability exponent p must exceed 1")
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.any(delta <= -2.0 / p):
        raise ValueError("every weight exponent must exceed -2/p")
    lower = max(0.0, 2.0 - mu_M)
    mid = delta + 2.0 / p
    return [(bool(lower < m < 2.0)) for m in mid]


@functools.cache
def regularity_exponent_bound():
    """Cached s0 for exponent-range checks elsewhere in the package."""
    roots = find_roots(1.05, 1.95, 2.0, tol=1e-12)
    mu = min(z.real for z in roots if abs(z.imag) < 1e-9)
    return 2.0 / (2.0 - mu)
