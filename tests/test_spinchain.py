import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igac import (InsufficientDataError, ResourceError, ValidationError,
                  analyze_chain, build_hamiltonian, cdf, diagonalize, family,
                  ks_distance, lsd_verdict, max_spins, mean_spacing_ratio,
                  poisson_spacing_cdf, spacing_histogram, unfold,
                  wigner_spacing_cdf)
from igac import spinchain
from igac.errors import FitError
from igac.spinchain import SECTORS, ChainSpec

R_POISSON = 2.0 * math.log(2.0) - 1.0
R_GOE = 0.531


def spectrum(n, hx, hy, sector="full"):
    return diagonalize(build_hamiltonian(ChainSpec(n, hx, hy, sector=sector)))


def sample_poisson_levels(count, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0, count))


def sample_wigner_levels(count, seed):
    # Inverse CDF of the unit-mean level-repulsion law as the sampler oracle.
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    spacings = np.sqrt(-(4.0 / math.pi) * np.log1p(-u))
    return np.cumsum(spacings)


def reflection_basis(n):
    """Reference oracle: orthonormal bases of the two parity sectors.

    Returns sparse (even, odd) matrices of shape (2^n, d_sector) whose
    columns are the parity eigenvectors of the orbit representatives.
    """
    dim = 1 << n
    states = np.arange(dim, dtype=np.int64)
    partner = spinchain._reverse_bits(states, n)
    reps = states[states <= partner]
    rows_e, cols_e, data_e = [], [], []
    rows_o, cols_o, data_o = [], [], []
    col_e = col_o = 0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for b in reps:
        rb = int(partner[b])
        if rb == b:
            rows_e.append(b)
            cols_e.append(col_e)
            data_e.append(1.0)
            col_e += 1
        else:
            rows_e.extend([b, rb])
            cols_e.extend([col_e, col_e])
            data_e.extend([inv_sqrt2, inv_sqrt2])
            col_e += 1
            rows_o.extend([b, rb])
            cols_o.extend([col_o, col_o])
            data_o.extend([inv_sqrt2, -inv_sqrt2])
            col_o += 1
    even = sp.csr_matrix((data_e, (rows_e, cols_e)), shape=(dim, col_e))
    odd = sp.csr_matrix((data_o, (rows_o, cols_o)), shape=(dim, col_o))
    return even, odd


def _full_hamiltonian_sparse(n, h_x, h_y):
    """Reference oracle: the real H' on the full 2^n-state space, sparse."""
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    rows_all, cols_all, data_all = [], [], []
    for j in range(n - 1):
        flip = (1 << j) | (1 << (j + 1))
        rows_all.append(cols ^ flip)
        cols_all.append(cols)
        data_all.append(np.ones(dim))
    if h_x != 0.0:
        for j in range(n):
            rows_all.append(cols ^ (1 << j))
            cols_all.append(cols)
            data_all.append(np.full(dim, h_x, dtype=float))
    if h_y != 0.0:
        popcount = np.zeros(dim, dtype=np.int64)
        for j in range(n):
            popcount += (cols >> j) & 1
        rows_all.append(cols)
        cols_all.append(cols)
        data_all.append(h_y * (n - 2 * popcount).astype(float))
    if not rows_all:
        return sp.csr_matrix((dim, dim), dtype=float)
    return sp.csr_matrix(
        (np.concatenate(data_all),
         (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(dim, dim))


def projected_hamiltonian(spec):
    """Reference oracle: the sparse H' projected onto the sector basis."""
    h = _full_hamiltonian_sparse(spec.n, spec.h_x, spec.h_y)
    if spec.sector == "full":
        return h.toarray()
    even, odd = reflection_basis(spec.n)
    basis = even if spec.sector == "reflection_even" else odd
    return (basis.T @ h @ basis).toarray()


def complex_hamiltonian(spec):
    """Reference oracle: the complex builder, h_y sy in the unrotated basis."""
    n, h_x, h_y = spec.n, spec.h_x, spec.h_y
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    rows_all, cols_all, data_all = [], [], []
    for j in range(n - 1):
        flip = (1 << j) | (1 << (j + 1))
        rows_all.append(cols ^ flip)
        cols_all.append(cols)
        data_all.append(np.ones(dim, dtype=complex))
    if h_x != 0.0:
        for j in range(n):
            rows_all.append(cols ^ (1 << j))
            cols_all.append(cols)
            data_all.append(np.full(dim, h_x, dtype=complex))
    if h_y != 0.0:
        for j in range(n):
            bit = (cols >> j) & 1
            rows_all.append(cols ^ (1 << j))
            cols_all.append(cols)
            data_all.append(1j * h_y * np.where(bit == 0, 1.0, -1.0))
    if not rows_all:
        h = sp.csr_matrix((dim, dim), dtype=complex)
    else:
        h = sp.csr_matrix(
            (np.concatenate(data_all),
             (np.concatenate(rows_all), np.concatenate(cols_all))),
            shape=(dim, dim))
    if spec.sector == "full":
        return h.toarray()
    even, odd = reflection_basis(n)
    basis = even if spec.sector == "reflection_even" else odd
    return (basis.conj().T @ h @ basis).toarray()


FIELD = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), h_x=FIELD, h_y=FIELD,
       sector=st.sampled_from(SECTORS))
@example(n=1, h_x=1, h_y=0, sector="full")  # integer fields stay float64
def test_real_frame_matches_complex_oracle(n, h_x, h_y, sector):
    spec = ChainSpec(n, h_x, h_y, sector=sector)
    h = build_hamiltonian(spec)
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)
    oracle = complex_hamiltonian(spec)
    assert h.shape == oracle.shape
    if h.size:
        gap = np.max(np.abs(diagonalize(h) - np.linalg.eigvalsh(oracle)))
        assert gap < 1e-9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), h_x=FIELD, h_y=FIELD,
       sector=st.sampled_from(SECTORS))
@example(n=1, h_x=0, h_y=0, sector="full")  # no flips, no field
@example(n=2, h_x=0.0, h_y=1.0, sector="reflection_odd")  # one pair, d = 1
def test_orbit_build_matches_projection_oracle(n, h_x, h_y, sector):
    spec = ChainSpec(n, h_x, h_y, sector=sector)
    h = build_hamiltonian(spec)
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)
    oracle = projected_hamiltonian(spec)
    assert h.shape == oracle.shape
    if sector == "full":
        assert np.array_equal(h, oracle)
    elif h.size:
        assert np.max(np.abs(h - oracle)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), h_y=FIELD, sector=st.sampled_from(SECTORS))
@example(n=8, h_y=0, sector="reflection_even")  # n - 1 degenerate modes
@example(n=7, h_y=-1.3, sector="reflection_odd")  # negative field
@example(n=10, h_y=0.6131, sector="reflection_even")  # s_9 = 0.0047 ~ h_y^n
@example(n=1, h_y=1.0, sector="reflection_odd")  # empty sector
def test_zero_hx_chain_matches_free_fermions(n, h_y, sector):
    # The dense sector matrix is the oracle of the free-fermion levels and
    # of their reflection-parity rule.
    spec = ChainSpec(n, 0.0, h_y, sector=sector)
    levels, modes = spinchain._sector_spectrum(spec)
    assert len(modes) == n and np.all(np.diff(modes) <= 0.0)
    oracle = diagonalize(build_hamiltonian(spec))
    assert levels.shape == oracle.shape
    if oracle.size:
        assert np.max(np.abs(levels - oracle)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 9), h_x=FIELD.filter(lambda v: v != 0),
       h_y=FIELD, sector=st.sampled_from(SECTORS))
def test_nonzero_hx_sector_is_one_block(n, h_x, h_y, sector):
    # A reflection sector is one block; the full sector is the sorted union
    # of the two, each diagonalized on its own.
    spec = ChainSpec(n, h_x, h_y, sector=sector)
    levels, modes = spinchain._sector_spectrum(spec)
    assert modes is None and len(levels) == spinchain._sector_dim(n, sector)
    oracle = diagonalize(build_hamiltonian(spec))
    if sector != "full":
        assert levels.tobytes() == oracle.tobytes()
        return
    blocks = [spinchain._sector_spectrum(ChainSpec(n, h_x, h_y, sector=s))[0]
              for s in SECTORS[1:]]
    assert levels.tobytes() == np.sort(np.concatenate(blocks)).tobytes()
    assert np.max(np.abs(levels - oracle)) < 1e-9


def test_single_spin_tilted_field():
    ev = spectrum(1, 1.0, 1.0)
    np.testing.assert_allclose(ev, [-math.sqrt(2.0), math.sqrt(2.0)], atol=1e-12)


def test_two_spins_coupling_only():
    np.testing.assert_allclose(spectrum(2, 0.0, 0.0), [-1, -1, 1, 1], atol=1e-12)


def test_two_spins_x_field():
    np.testing.assert_allclose(spectrum(2, 1.0, 0.0), [-1, -1, -1, 3], atol=1e-12)


def test_diagonalize_diagonal_input():
    np.testing.assert_allclose(diagonalize(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_diagonalize_planted_spectrum():
    rng = np.random.default_rng(8)
    planted = np.sort(rng.uniform(-5, 5, 50))
    a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    q, _ = np.linalg.qr(a)
    h = q @ np.diag(planted) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    np.testing.assert_allclose(diagonalize(h), planted, atol=1e-9)


def test_diagonalize_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        diagonalize(m)
    with pytest.raises(ValidationError):
        diagonalize(np.zeros((2, 3)))


def test_diagonalize_checks_every_row_block():
    # The Hermitian check runs over tiles; asymmetries deep in the matrix,
    # where neither entry of the pair lies in the first rows, count, as do
    # bad entries in an upper or a lower off-diagonal tile.
    rng = np.random.default_rng(11)
    a = rng.normal(size=(600, 600))
    sym = a + a.T
    for (i, j) in [(599, 3), (599, 300), (3, 599), (300, 599), (130, 5)]:
        bad = sym.copy()
        bad[i, j] += 1e-9
        with pytest.raises(ValidationError):
            diagonalize(bad)
    within = sym.copy()
    within[599, 300] += 1e-13
    assert len(diagonalize(within)) == 600
    for value in (np.nan, np.inf):
        for (i, j) in [(599, 599), (5, 400), (400, 5)]:
            bad = sym.copy()
            bad[i, j] = value
            with pytest.raises(ValidationError):
                diagonalize(bad)


def test_trace_zero_exact():
    # The diagonal holds exact +/- pairs; fsum adds them without rounding.
    for (n, hx, hy) in [(3, 0.7, 0.0), (5, 1.0, 1.0), (6, 0.0, 2.0),
                        (7, 0.8, 0.6), (10, 0.8, 0.6)]:
        h = build_hamiltonian(ChainSpec(n, hx, hy, sector="full"))
        assert math.fsum(np.diagonal(h)) == 0.0


def test_sector_dimensions():
    for n in range(1, 9):
        even, odd = reflection_basis(n)
        n_sym = 2 ** ((n + 1) // 2)
        assert even.shape[1] == (2 ** n + n_sym) // 2
        assert odd.shape[1] == (2 ** n - n_sym) // 2
        assert spinchain._sector_dim(n, "reflection_even") == even.shape[1]
        assert spinchain._sector_dim(n, "reflection_odd") == odd.shape[1]
        # columns orthonormal
        for basis in (even, odd):
            if basis.shape[1]:
                gram = (basis.T @ basis).toarray()
                np.testing.assert_allclose(gram, np.eye(basis.shape[1]),
                                           atol=1e-12)


def test_sector_union_equals_full_spectrum():
    for n in range(2, 9):
        for (hx, hy) in [(1.0, 1.0), (0.0, 2.0), (0.3, -0.8)]:
            full = spectrum(n, hx, hy, "full")
            union = np.sort(np.concatenate([
                spectrum(n, hx, hy, "reflection_even"),
                spectrum(n, hx, hy, "reflection_odd")]))
            assert np.max(np.abs(union - full)) < 1e-9


def test_field_rotation_spectrum_symmetry():
    for n in (4, 7):
        a = spectrum(n, 0.8, 0.6, "full")
        b = spectrum(n, 0.8, -0.6, "full")
        assert np.max(np.abs(a - b)) < 1e-9


def test_resource_guard_and_env_override(monkeypatch):
    # One ceiling for both paths: the dense one and the free-fermion one.
    for spec in (ChainSpec(20, 1.0, 1.0), ChainSpec(20, 0.0, 2.0)):
        with pytest.raises(ResourceError, match="maximum 14"):
            analyze_chain(spec)
    with pytest.raises(ResourceError):
        build_hamiltonian(ChainSpec(20, 1.0, 1.0))
    monkeypatch.setenv("IGAC_MAX_N", "4")
    assert max_spins() == 4
    with pytest.raises(ResourceError):
        build_hamiltonian(ChainSpec(5, 1.0, 1.0))
    with pytest.raises(ResourceError, match="maximum 4"):
        spinchain._sector_spectrum(ChainSpec(5, 0.0, 2.0))
    monkeypatch.setenv("IGAC_MAX_N", "notanint")
    with pytest.raises(ValidationError):
        max_spins()


def test_resource_guard_on_memory(monkeypatch):
    monkeypatch.setattr(spinchain, "_physical_memory_bytes", lambda: 1_000_000)
    # d = 136: 2 * 136^2 * 8 + 136 * 180 bytes = 0.32 MB fits; d = 256
    # (1.09 MB) does not.
    assert build_hamiltonian(ChainSpec(8, 1.0, 1.0)).shape == (136, 136)
    for spec in (ChainSpec(8, 0.0, 2.0, sector="full"),
                 ChainSpec(8, 1.0, 1.0, sector="full")):
        with pytest.raises(ResourceError, match=r"d=256 .*GB"):
            build_hamiltonian(spec)
    # analyze_chain takes the full sector from its two reflection blocks:
    # the d = 136 block, its copy and 256 levels need 0.34 MB.
    monkeypatch.setattr(spinchain, "_physical_memory_bytes", lambda: 300_000)
    with pytest.raises(ResourceError, match=r"d=136 and the unfolding of 256 .*GB"):
        analyze_chain(ChainSpec(8, 1.0, 1.0, sector="full"))
    # At h_x = 0 analyze_chain builds no matrix: its 2^8 levels take
    # 256 * 180 bytes to unfold, which its own check compares with the memory.
    rec = analyze_chain(ChainSpec(8, 0.0, 2.0, sector="full"))
    assert rec.method == "free_fermion" and rec.dense_dim is None
    assert len(rec.mode_energies) == 8 and len(rec.eigenvalues) == 256
    monkeypatch.setattr(spinchain, "_physical_memory_bytes", lambda: 5_000)
    with pytest.raises(ResourceError, match=r"256 free-fermion levels.*GB"):
        analyze_chain(ChainSpec(8, 0.0, 2.0, sector="full"))
    monkeypatch.setattr(spinchain, "_physical_memory_bytes", lambda: None)
    assert build_hamiltonian(ChainSpec(8, 1.0, 1.0, sector="full")).shape \
        == (256, 256)


@pytest.mark.parametrize("hx, old, new", [
    # Free fermions: 22 B per level counted the enumeration alone.
    (0.0, 22 * 256, 180 * 256),
    # Dense: the larger (d = 136) reflection block and the eigensolver's
    # copy, without the unfolding of the full sector's 256 levels.
    (1.0, 2 * 136 * 136 * 8, 2 * 136 * 136 * 8 + 180 * 256),
])
def test_resource_guard_counts_the_unfolding(monkeypatch, hx, old, new):
    # The unfolding's degree-7 Vandermonde alone is 64 B per level, and
    # lstsq and cond copy it: memory between the two counts is too little.
    monkeypatch.setattr(spinchain, "_physical_memory_bytes",
                        lambda: (old + new) // 2)
    with pytest.raises(ResourceError, match="unfold"):
        analyze_chain(ChainSpec(8, hx, 2.0, sector="full"))
    monkeypatch.setattr(spinchain, "_physical_memory_bytes", lambda: new)
    assert len(analyze_chain(ChainSpec(8, hx, 2.0, sector="full")).eigenvalues) == 256


def test_chain_spec_validation():
    with pytest.raises(ValidationError):
        ChainSpec(0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ChainSpec(4, 1.0, 1.0, sector="momentum")
    # Both paths need finite fields: the mode energies come from an SVD.
    for h_x, h_y in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValidationError, match="is not finite"):
            ChainSpec(4, h_x, h_y)


def test_unfold_picket_fence():
    unfolded = unfold(np.arange(500, dtype=float), poly_degree=7,
                      trim_fraction=0.1)
    np.testing.assert_allclose(unfolded.spacings, 1.0, atol=1e-6)
    # count contract: levels - trimmed - 1, with 50 trimmed at each edge
    assert unfolded.trimmed == 2 * 50
    assert len(unfolded.spacings) == 500 - 2 * 50 - 1
    assert 1.0 < unfolded.condition < 1e8


def test_unfold_mean_is_one():
    ev = spectrum(10, 1.0, 1.0, "reflection_even")
    spacings = unfold(ev).spacings
    assert abs(spacings.mean() - 1.0) < 0.05
    assert np.all(spacings > -1e-9)


def test_unfold_validation():
    with pytest.raises(InsufficientDataError):
        unfold(np.arange(50, dtype=float))
    with pytest.raises(ValidationError):
        unfold(np.arange(500, dtype=float), trim_fraction=0.5)
    with pytest.raises(FitError):
        unfold(np.arange(200, dtype=float), poly_degree=60)


def test_unfold_poisson_synthetic():
    levels = sample_poisson_levels(10_000, seed=42)
    spacings = unfold(levels, poly_degree=7, trim_fraction=0.1).spacings
    assert ks_distance(spacings, poisson_spacing_cdf) < 0.02


def test_unfold_wigner_synthetic():
    levels = sample_wigner_levels(10_000, seed=43)
    spacings = unfold(levels, poly_degree=7, trim_fraction=0.1).spacings
    ks_w = ks_distance(spacings, wigner_spacing_cdf)
    ks_p = ks_distance(spacings, poisson_spacing_cdf)
    assert ks_w < ks_p


def test_lsd_verdict_synthetic():
    rng = np.random.default_rng(3)
    poisson = rng.exponential(1.0, 2000)
    res = lsd_verdict(poisson / poisson.mean())
    assert res.verdict == "poisson_like"
    u = rng.random(2000)
    wigner = np.sqrt(-(4.0 / math.pi) * np.log1p(-u))
    res = lsd_verdict(wigner / wigner.mean())
    assert res.verdict == "wigner_like"


def test_lsd_verdict_picket_fence_inconclusive():
    res = lsd_verdict(np.ones(500))
    assert res.verdict == "inconclusive"
    assert res.ks_poisson > 0.3 and res.ks_wigner > 0.3


def test_lsd_verdict_needs_samples():
    with pytest.raises(InsufficientDataError):
        lsd_verdict(np.ones(100))


def test_ks_distance_exact_cdf():
    # Quantile sample of the reference law: KS distance is 1/(2n).
    n = 1000
    u = (np.arange(n) + 0.5) / n
    d = ks_distance(-np.log1p(-u), poisson_spacing_cdf)
    assert d == pytest.approx(1.0 / (2 * n), abs=1e-9)


def test_spacing_cdfs_are_the_family_cdfs_at_unit_mean():
    s = np.concatenate([[-1.0, 0.0, 5e-324], np.linspace(0.0, 8.0, 801)])
    for law, name in ((poisson_spacing_cdf, "exponential"),
                      (wigner_spacing_cdf, "wigner_dyson")):
        expected = cdf(family(name), (1.0,), s)
        assert law(s).tobytes() == expected.tobytes(), name


def test_spacing_histogram_bands():
    rng = np.random.default_rng(17)
    xs = rng.exponential(1.0, 10_000)
    hist = spacing_histogram(xs, 40)
    widths = np.diff(hist.edges)
    probs = (poisson_spacing_cdf(hist.edges[1:])
             - poisson_spacing_cdf(hist.edges[:-1]))
    n = len(xs)
    for dens, w, p in zip(hist.densities, widths, probs):
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n) / w
        assert abs(dens - p / w) <= 3.0 * sigma + 1e-9


def test_spacing_histogram_degenerate_single_bin():
    hist = spacing_histogram(np.full(300, 2.0), 10)
    assert np.count_nonzero(hist.densities) == 1


def test_spacing_histogram_validation():
    with pytest.raises(ValidationError):
        spacing_histogram(np.ones(10), 3)


def test_analyze_chain_round_trip():
    spec = ChainSpec(10, 1.0, 1.0, sector="reflection_even")
    rec = analyze_chain(spec)
    assert rec.verdict == "wigner_like"
    assert rec.ks_wigner < rec.ks_poisson
    assert len(rec.eigenvalues) == (2 ** 10 + 2 ** 5) // 2
    assert abs(rec.unfolded_spacings.mean() - 1.0) < 0.05
    # Dense at h_x != 0: bitwise the whole sector's spectrum.
    assert (rec.method, rec.dense_dim, rec.mode_energies) == ("dense", 528, None)
    assert rec.eigenvalues.tobytes() == spectrum(10, 1.0, 1.0,
                                                 spec.sector).tobytes()
    unfolded = unfold(rec.eigenvalues)
    assert rec.unfold_condition == unfolded.condition
    assert rec.trimmed_levels == unfolded.trimmed == 104
    assert rec.unfolded_spacings.tobytes() == unfolded.spacings.tobytes()


def test_full_sector_at_n10_is_the_union_of_the_reflection_blocks():
    # n = 10 beside the property test's n <= 9: the largest block, 528 of
    # 1024 levels, is the dimension reported.
    rec = analyze_chain(ChainSpec(10, 0.9, 0.6, sector="full"))
    blocks = [spinchain._sector_spectrum(ChainSpec(10, 0.9, 0.6, sector=s))[0]
              for s in SECTORS[1:]]
    assert rec.eigenvalues.tobytes() == np.sort(np.concatenate(blocks)).tobytes()
    assert np.max(np.abs(rec.eigenvalues - spectrum(10, 0.9, 0.6))) < 1e-9
    assert (rec.method, rec.dense_dim, len(rec.eigenvalues)) == ("dense", 528, 1024)


def test_level_repulsion_small_spacing_suppression():
    # Tilted field: the spacing density vanishes toward s = 0.
    rec = analyze_chain(ChainSpec(10, 1.0, 1.0, sector="reflection_even"))
    hist = spacing_histogram(rec.unfolded_spacings, 40)
    small = hist.densities[hist.centers < 0.15]
    assert np.all(small < 0.4)


def test_mean_spacing_ratio_poisson_synthetic():
    ratio = mean_spacing_ratio(sample_poisson_levels(10_000, seed=42))
    assert abs(ratio.mean - R_POISSON) < 0.01
    assert ratio.pairs == 10_000 - 2 and ratio.skipped == 0


def test_mean_spacing_ratio_chains():
    chaotic = mean_spacing_ratio(spectrum(10, 1.0, 1.0, "reflection_even"))
    assert abs(chaotic.mean - R_GOE) < abs(chaotic.mean - R_POISSON)
    regular = mean_spacing_ratio(spectrum(10, 0.0, 2.0, "reflection_even"))
    assert abs(regular.mean - R_POISSON) < abs(regular.mean - R_GOE)
    rec = analyze_chain(ChainSpec(10, 1.0, 1.0, sector="reflection_even"))
    assert rec.r_mean == chaotic.mean


def test_mean_spacing_ratio_zero_spacing_pairs():
    # Spacings 0, 0, 1, 2: the (0, 0) pair is undefined and skipped; the
    # others give 0/1 and 1/2.
    ratio = mean_spacing_ratio([0.0, 0.0, 0.0, 1.0, 3.0])
    assert (ratio.mean, ratio.pairs, ratio.skipped) == (0.25, 2, 1)
    with pytest.raises(InsufficientDataError):
        mean_spacing_ratio(np.full(10, 2.0))
    with pytest.raises(InsufficientDataError):
        mean_spacing_ratio([0.0, 1.0])
