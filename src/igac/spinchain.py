"""Open Ising chain in a tilted field and its level-spacing statistics.

The Hamiltonian is

    H = sum_{j=0}^{n-2} sx_j sx_{j+1} + sum_{j=0}^{n-1} (h_x sx_j + h_y sy_j)

with open boundaries and the coupling fixed to +1 (antiferromagnetic).
With both field components on, the only generic symmetry is the site
reflection j <-> n-1-j; level-spacing analysis must stay inside a
single reflection-parity sector, otherwise superposed sectors fake
Poisson statistics.  Spectra are unfolded by a polynomial fit of the
spectral staircase and compared against the unit-mean exponential and
Wigner-Dyson spacing laws by Kolmogorov-Smirnov distance; the mean
ratio of consecutive spacings is reported beside them as an
unfolding-free cross-check.

H is built in the frame rotated by pi/2 about the x axis on every site,
which keeps sx and maps sy onto sz:

    H' = sum sx_j sx_{j+1} + sum (h_x sx_j + h_y sz_j),

a real symmetric matrix in the sz basis (the tilted-field Ising chain of
the orthogonal, beta = 1, class).  H' is unitarily equivalent to H, so
the spectrum is unchanged, and the rotation is the same on every site,
so it commutes with the site reflection and maps each parity sector
onto itself.  The rotation about x is preferred to the cyclic relabel
x -> z, y -> x, z -> y, which also gives a real matrix but puts the
coupling and h_x on the diagonal: each of those diagonal entries is
rounded on its own, and the trace misses zero (by ~1e-16) already at
n = 2 and h_x = 0.9.  Here the diagonal holds only h_y sz, whose entries
come in exactly opposite pairs (a state and its bit complement), so the
trace is exactly zero unless a partial sum of the trace itself rounds;
over the field values tried that first happens at n = 7, for an h_y with
a long binary expansion such as 0.6.

Each sector's matrix is built densely in the basis of its
reflection-orbit representatives: every bond and h_x flip of a
representative is mapped to the representative of its image, with the
parity sign and the orbit normalisation, so a parity sector never forms
the 2^n-dimensional H or a projection onto the sector.  With a field
along x, the full sector's spectrum is the sorted union of the two
parity sectors', each diagonalized on its own, so no path diagonalizes
the 2^n-dimensional H; ``build_hamiltonian`` still builds it on request.

At h_x = 0 the chain is the open transverse-field Ising chain, free
fermions (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961); Pfeuty,
Ann. Phys. 57, 79 (1970)).  With s_0 >= s_1 >= ... the singular values of
the bidiagonal with h_y on the diagonal and 1 above it, its levels are
E_S = -sum_k s_k + 2 sum_{k in S} s_k over the sets S of excited modes,
and E_S is reflection-even exactly when sum_{k in S} k + |S|(|S|-1)/2 is
even (mode k alone has parity (-1)^k; the second term is the sign of
reversing the order of the fermions).  ``analyze_chain`` enumerates these
levels, with no matrix; the tests check them on ``build_hamiltonian``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (FitError, InsufficientDataError, ResourceError,
                     ValidationError)
from .families import EXPONENTIAL, KINDS, WIGNER_DYSON

SECTORS = ("full", "reflection_even", "reflection_odd")
DEFAULT_MAX_SPINS = 14
MAX_SPINS_ENV = "IGAC_MAX_N"
_FIT_CAP = 0.3  # KS distance above which neither reference law is a tenable fit


def max_spins() -> int:
    """Configured ceiling on the chain length (env-overridable)."""
    raw = os.environ.get(MAX_SPINS_ENV)
    if raw is None:
        return DEFAULT_MAX_SPINS
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"{MAX_SPINS_ENV}={raw!r} is not an integer", field=MAX_SPINS_ENV)


@dataclass(frozen=True)
class ChainSpec:
    """Chain length, field components and symmetry sector."""

    n: int
    h_x: float
    h_y: float
    sector: str = "reflection_even"

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}", field="n")
        if self.sector not in SECTORS:
            raise ValidationError(
                f"sector {self.sector!r} not in {SECTORS}", field="sector")
        for name, value in (("hx", self.h_x), ("hy", self.h_y)):
            if not math.isfinite(value):
                raise ValidationError(f"{name}={value} is not finite", field=name)


def _reverse_bits(states: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(states)
    for k in range(n):
        out |= ((states >> k) & 1) << (n - 1 - k)
    return out


def _sector_matrix(n: int, h_x: float, h_y: float, sector: str) -> np.ndarray:
    """Dense H' (see the module docstring) in one sector's basis.

    The basis holds one state per reflection orbit {s, R s}, labelled by
    its representative r = min(s, R s): |r> for a palindrome (even sector
    only) and (|r> + p |R r>) / sqrt(2) for a pair, with parity p = +-1;
    the full sector takes R as the identity.  A flip of r with amplitude
    a lands on s, whose representative r' gets a sigma sqrt(g_r / g_r'),
    with g the orbit size (1 or 2) and sigma = p when s = R r', else 1
    (Sandvik, arXiv:1101.3281).
    """
    states = np.arange(1 << n, dtype=np.int64)
    partner = states if sector == "full" else _reverse_bits(states, n)
    parity = -1.0 if sector == "reflection_odd" else 1.0
    reps = states[states < partner if parity < 0 else states <= partner]
    # One product per state, not a per-site sum: h_y sz depends only on the
    # popcount, so it is exactly reflection-invariant and exactly opposite
    # for complementary states.
    popcount = np.zeros_like(reps)
    for j in range(n):
        popcount += (reps >> j) & 1
    index = np.full(len(states), -1, dtype=np.int64)
    index[reps] = np.arange(len(reps))
    orbit = np.where(partner == states, 1.0, 2.0)
    h = np.zeros((len(reps), len(reps)))
    np.fill_diagonal(h, h_y * (n - 2 * popcount).astype(float))
    # Off-diagonal terms: the sx sx bonds (coupling 1), then the h_x flips.
    masks, amps = [3 << j for j in range(n - 1)], [1.0] * (n - 1)
    if h_x != 0.0:
        masks, amps = masks + [1 << j for j in range(n)], amps + [h_x] * n
    images = reps[:, None] ^ np.array(masks, dtype=np.int64)
    image_reps = np.minimum(images, partner[images])
    # -1: a palindrome, absent from the odd sector.
    rows = index[image_reps]
    cols = np.broadcast_to(index[reps][:, None], rows.shape)
    values = (np.array(amps) * np.where(images == image_reps, 1.0, parity)
              * np.sqrt(orbit[reps][:, None] / orbit[image_reps]))
    # Two flips can reach the same representative, so the terms are
    # accumulated; rounding would then make the two triangles differ in
    # the last bit, so only the upper one is built and then mirrored.
    upper = (rows >= 0) & (rows <= cols)
    rows, cols = rows[upper], cols[upper]
    np.add.at(h, (rows, cols), values[upper])
    h[cols, rows] = h[rows, cols]
    return h


def _sector_dim(n: int, sector: str) -> int:
    """Dimension of a symmetry sector of the n-spin chain."""
    dim = 1 << n
    palindromes = 1 << ((n + 1) // 2)
    if sector == "full":
        return dim
    if sector == "reflection_even":
        return (dim + palindromes) // 2
    return (dim - palindromes) // 2


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


# Peak memory of analyze_chain per analysed level, past any matrix: the
# spectrum, the degree-7 unfolding fit and the copies lstsq and cond make
# (178 B resident at n = 17-19; the 2^n free-fermion levels take 22 B).
_LEVEL_BYTES = 180


def _check_resources(spec: ChainSpec, dense_dim: int) -> None:
    """Raise ResourceError when n exceeds the configured ceiling or when the
    path's arrays would not fit in physical memory: the unfolding of the
    sector's d levels and, unless ``dense_dim`` is 0 (free fermions), the
    largest matrix diagonalized and the eigensolver's copy (2 dense_dim^2
    float64 values)."""
    ceiling = max_spins()
    if spec.n > ceiling:
        raise ResourceError(
            f"n={spec.n} exceeds the configured maximum {ceiling} "
            f"(set {MAX_SPINS_ENV} to override)")
    d = _sector_dim(spec.n, spec.sector)
    needed = _LEVEL_BYTES * d + 2 * dense_dim * dense_dim * 8
    available = _physical_memory_bytes()
    if available is not None and needed > available:
        what = (f"a dense matrix of d={dense_dim} and the unfolding of {d} "
                f"levels" if dense_dim else
                f"{d} free-fermion levels and the unfolding")
        raise ResourceError(
            f"n={spec.n} {spec.sector}: {what} need "
            f"{needed / 1e9:.2f} GB, more than the {available / 1e9:.2f} GB "
            f"of physical memory")


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense real symmetric Hamiltonian in the requested sector basis.

    Raises ResourceError when n exceeds the configured ceiling or when the
    whole sector matrix would not fit in memory (``_check_resources``).
    """
    _check_resources(spec, _sector_dim(spec.n, spec.sector))
    return _sector_matrix(spec.n, spec.h_x, spec.h_y, spec.sector)


# Side of the square tiles of the Hermitian check: each upper tile is
# compared with the transpose of its mirror tile, so both reads stay within
# b rows and the temporary holds b x b values.
_CHECK_TILE = 128


def diagonalize(h: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if h.size == 0:
        return np.array([])
    b = _CHECK_TILE
    for i in range(0, h.shape[0], b):
        for j in range(i, h.shape[0], b):
            mirror = h[j:j + b, i:i + b]
            if np.iscomplexobj(mirror):
                mirror = mirror.conj()
            with np.errstate(invalid="ignore"):  # inf - inf: NaN, rejected below
                tile = h[i:i + b, j:j + b] - mirror.T
            # Written so that NaN (from a NaN or infinite entry) fails too.
            if not float(np.max(np.abs(tile))) <= 1e-12:
                raise ValidationError(
                    "matrix is not finite and Hermitian within 1e-12")
    return np.linalg.eigvalsh(h)


@dataclass(frozen=True)
class Unfolding:
    """Unit-mean spacings of a staircase unfolding and its diagnostics.

    ``condition`` is the condition number of the fit's Vandermonde matrix;
    ``trimmed`` counts the levels dropped at the two spectral edges.
    """

    spacings: np.ndarray
    condition: float
    trimmed: int


def unfold(eigenvalues: np.ndarray, poly_degree: int = 7,
           trim_fraction: float = 0.1) -> Unfolding:
    """Unit-mean spacings from a spectrum via staircase unfolding.

    Fits the cumulative staircase N(E) with a polynomial on a scaled
    abscissa, maps levels through the fit, trims both spectral edges and
    normalizes the mean spacing to one.  Near-degenerate levels keep
    their (near-zero) spacings.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    count = len(ev)
    if count < 100:
        raise InsufficientDataError(
            f"unfolding needs >= 100 eigenvalues, got {count}")
    if not 0.0 <= trim_fraction < 0.3:
        raise ValidationError(
            f"trim_fraction must be in [0, 0.3), got {trim_fraction}",
            field="trim_fraction")
    if poly_degree < 1:
        raise ValidationError(
            f"poly_degree must be >= 1, got {poly_degree}", field="poly_degree")
    spread = ev[-1] - ev[0]
    t = 2.0 * (ev - ev[0]) / spread - 1.0 if spread > 0 else np.zeros_like(ev)
    vander = np.polynomial.polynomial.polyvander(t, poly_degree)
    cond = float(np.linalg.cond(vander))
    if cond > 1e8:
        raise FitError(
            f"staircase fit is ill-conditioned (cond ~{cond:.2e}); "
            f"try a lower poly_degree than {poly_degree}")
    staircase = np.arange(count) + 0.5
    coeff, *_ = np.linalg.lstsq(vander, staircase, rcond=None)
    unfolded = vander @ coeff
    k = int(math.floor(trim_fraction * count))
    kept = unfolded[k:count - k] if k > 0 else unfolded
    spacings = np.diff(kept)
    mean = float(spacings.mean())
    if mean <= 0.0:
        raise FitError("unfolded spacings have nonpositive mean; fit unusable")
    return Unfolding(spacings / mean, cond, 2 * k)


_UNIT_MEAN = (1.0,)


def poisson_spacing_cdf(s: np.ndarray) -> np.ndarray:
    """Unit-mean exponential spacing law, 1 - exp(-s)."""
    return KINDS[EXPONENTIAL].cdf(_UNIT_MEAN, 0, np.asarray(s, dtype=float))


def wigner_spacing_cdf(s: np.ndarray) -> np.ndarray:
    """Unit-mean Wigner-Dyson spacing law, 1 - exp(-pi s^2 / 4)."""
    return KINDS[WIGNER_DYSON].cdf(_UNIT_MEAN, 0, np.asarray(s, dtype=float))


def poisson_spacing_pdf(s: np.ndarray) -> np.ndarray:
    """Unit-mean exponential spacing density, exp(-s)."""
    return np.exp(KINDS[EXPONENTIAL].log_density(
        _UNIT_MEAN, 0, np.asarray(s, dtype=float)))


def wigner_spacing_pdf(s: np.ndarray) -> np.ndarray:
    """Unit-mean Wigner-Dyson spacing density, (pi s / 2) exp(-pi s^2 / 4)."""
    return np.exp(KINDS[WIGNER_DYSON].log_density(
        _UNIT_MEAN, 0, np.asarray(s, dtype=float)))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance of a sample to a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    ref = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - ref)
    lower = np.max(ref - np.arange(0, n) / n)
    return float(max(upper, lower))


@dataclass(frozen=True)
class SpacingRatio:
    """Mean ratio of consecutive level spacings.

    ``mean`` is <r> over the ``pairs`` used; ``skipped`` counts the pairs
    of two zero spacings (a triply degenerate level run), whose ratio is
    undefined.
    """

    mean: float
    pairs: int
    skipped: int


def mean_spacing_ratio(eigenvalues: np.ndarray) -> SpacingRatio:
    """<r>, the mean of min(s_n, s_{n+1}) / max(s_n, s_{n+1}).

    Needs no unfolding, since the local density of states cancels in each
    ratio: a cross-check of the staircase fit.  Reference values are
    2 ln 2 - 1 ~ 0.386 for Poisson levels and ~ 0.531 for the GOE
    (Oganesyan & Huse, PRB 75, 155111, 2007; Atas et al., PRL 110,
    084101, 2013).
    """
    s = np.diff(np.sort(np.asarray(eigenvalues, dtype=float)))
    lo = np.minimum(s[:-1], s[1:])
    hi = np.maximum(s[:-1], s[1:])
    defined = hi > 0.0
    pairs = int(np.count_nonzero(defined))
    if pairs == 0:
        raise InsufficientDataError(
            f"spacing ratio needs two consecutive spacings, not both zero; "
            f"got {len(s)} spacings")
    mean = float(np.mean(lo[defined] / hi[defined]))
    return SpacingRatio(mean, pairs, int(len(hi) - pairs))


@dataclass(frozen=True)
class LsdResult:
    ks_poisson: float
    ks_wigner: float
    verdict: str  # "poisson_like" | "wigner_like" | "inconclusive"


def lsd_verdict(spacings: np.ndarray, margin: float = 0.01) -> LsdResult:
    """Classify unfolded spacings against the two reference laws.

    A verdict needs the winning law to beat the other by ``margin`` and
    to be a tenable fit at all (distance below ``_FIT_CAP``); degenerate
    samples far from both laws come back inconclusive.
    """
    spacings = np.asarray(spacings, dtype=float)
    if len(spacings) < 200:
        raise InsufficientDataError(
            f"verdict needs >= 200 spacings, got {len(spacings)}")
    ks_p = ks_distance(spacings, poisson_spacing_cdf)
    ks_w = ks_distance(spacings, wigner_spacing_cdf)
    if min(ks_p, ks_w) > _FIT_CAP:
        verdict = "inconclusive"
    elif ks_p < ks_w - margin:
        verdict = "poisson_like"
    elif ks_w < ks_p - margin:
        verdict = "wigner_like"
    else:
        verdict = "inconclusive"
    return LsdResult(ks_p, ks_w, verdict)


@dataclass(frozen=True)
class HistogramData:
    edges: np.ndarray
    densities: np.ndarray
    centers: np.ndarray


def spacing_histogram(spacings: np.ndarray, bin_count: int) -> HistogramData:
    """Normalized spacing histogram with its bin centres."""
    if bin_count < 5:
        raise ValidationError(
            f"bin_count must be >= 5, got {bin_count}", field="bin_count")
    spacings = np.asarray(spacings, dtype=float)
    lo, hi = float(spacings.min()), float(spacings.max())
    if hi - lo <= 0.0:
        lo, hi = lo - 0.5, hi + 0.5  # all equal: one occupied bin mid-range
    densities, edges = np.histogram(spacings, bins=bin_count, range=(lo, hi),
                                    density=True)
    return HistogramData(edges, densities, 0.5 * (edges[:-1] + edges[1:]))


@dataclass(frozen=True)
class SpectrumRecord:
    """Spectrum of one chain with its unfolded-spacing classification."""

    spec: ChainSpec
    eigenvalues: np.ndarray
    unfolded_spacings: np.ndarray
    ks_poisson: float
    ks_wigner: float
    verdict: str
    r_mean: float  # mean_spacing_ratio of the eigenvalues, reported only
    method: str  # "free_fermion" (h_x = 0) or "dense"
    dense_dim: int | None  # largest block diagonalized, dense only
    mode_energies: tuple[float, ...] | None  # the n s_k, free_fermion only
    unfold_condition: float  # Unfolding.condition of the staircase fit
    trimmed_levels: int  # Unfolding.trimmed


def _largest_block(spec: ChainSpec) -> int:
    """Dimension of the largest matrix the dense path diagonalizes: the
    sector's own, or for the full sector its larger (even) reflection block."""
    return _sector_dim(spec.n, "reflection_even" if spec.sector == "full"
                       else spec.sector)


def _sector_spectrum(spec: ChainSpec) -> tuple[np.ndarray, tuple | None]:
    """Ascending spectrum of a sector, and the n mode energies s_k when it
    comes from free fermions (h_x = 0, see the module docstring), else None.

    The levels double mode by mode, each gaining -s_k or +s_k.  Exciting
    mode k in a set S of size m adds k + m to the parity exponent, so the
    parities of |S| and of the exponent are all a sector needs.  With a
    field along x, the full sector is the union of the two reflection
    sectors, each diagonalized on its own."""
    if spec.h_x != 0.0:
        sectors = SECTORS[1:] if spec.sector == "full" else (spec.sector,)
        _check_resources(spec, _largest_block(spec))
        levels = np.concatenate([
            diagonalize(build_hamiltonian(replace(spec, sector=sector)))
            for sector in sectors])
        levels.sort()
        return levels, None
    _check_resources(spec, 0)
    modes = np.linalg.svd(np.diag(np.full(spec.n, float(spec.h_y)))
                          + np.eye(spec.n, k=1), compute_uv=False)  # descending
    levels = np.zeros(1)
    odd_size = odd = np.zeros(1, dtype=bool)  # odd: the level is reflection-odd
    for k, s_k in enumerate(modes):
        levels = np.concatenate([levels - s_k, levels + s_k])
        odd = np.concatenate([odd, odd ^ odd_size ^ bool(k & 1)])
        odd_size = np.concatenate([odd_size, ~odd_size])
    if spec.sector != "full":
        levels = levels[odd == (spec.sector == "reflection_odd")]
    levels.sort()
    return levels, tuple(modes.tolist())


def analyze_chain(spec: ChainSpec, poly_degree: int = 7,
                  trim_fraction: float = 0.1,
                  margin: float = 0.01) -> SpectrumRecord:
    """Obtain, unfold and classify a chain's sector spectrum in one pass."""
    ev, modes = _sector_spectrum(spec)
    unfolding = unfold(ev, poly_degree=poly_degree,
                       trim_fraction=trim_fraction)
    result = lsd_verdict(unfolding.spacings, margin=margin)
    return SpectrumRecord(spec, ev, unfolding.spacings, result.ks_poisson,
                          result.ks_wigner, result.verdict,
                          mean_spacing_ratio(ev).mean,
                          "dense" if modes is None else "free_fermion",
                          _largest_block(spec) if modes is None else None, modes,
                          unfolding.condition, unfolding.trimmed)
