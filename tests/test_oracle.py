import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import csemb.oracle
from csemb import (
    EmbedConfig,
    OracleCapError,
    OracleError,
    SparseMatrix,
    commute_time,
    dilate,
    distance_bound_audit,
    distortion_percentiles,
    exact_embedding,
    fold_seed,
    identity,
    indicator_above,
    normalized_adjacency,
    sample_pairs,
    scale_values,
)
from csemb.engine import uniform_draws
from csemb.oracle import (
    _PAIR_KEY_TAG,
    _RMAX,
    _RMIN,
    ORACLE_CAP,
    PAIR_CHUNK,
    _dense_row_tails,
    _dsyevr_range,
    _eigenpairs_within,
    _pair_codes,
    _pair_correlations,
    _pairwise_distances,
    _spectral_delta,
    write_report,
)
from csemb.sparse import Dilation
from helpers import (
    dense_weighted,
    explicit_dilation,
    pairwise_distances,
    random_symmetric,
    ring_graph,
    run_python,
    sbm,
    sparse_from,
    symmetric_with_spectrum,
)


def traced_peak(call) -> int:
    """Peak bytes that numpy and Python allocate during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LAPACK_STAGES = ("dsytrd", "dstebz", "dstein", "dormqr")


def lapack_with(**replaced):
    """The routines of scipy's LAPACK extension that the oracle calls, some
    of them replaced."""
    lapack = csemb.oracle._flapack()
    return SimpleNamespace(**{name: getattr(lapack, name) for name in LAPACK_STAGES} | replaced)


class TestExactEmbedding:
    def test_indicator_on_diagonal(self):
        ex = exact_embedding(sparse_from(np.diag([0.9, 0.1])), indicator_above(0.5))
        gram = ex @ ex.T
        assert np.allclose(gram, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_function(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        ex = exact_embedding(sparse_from(S), identity())
        # rotation-invariant comparison: Gram of f(S) rows equals S @ S.T
        assert np.allclose(ex @ ex.T, S @ S.T, atol=1e-12)

    def test_self_consistency(self):
        rng = np.random.default_rng(0)
        S = random_symmetric(50, rng)
        f = lambda x: np.tanh(3 * x)
        ex = exact_embedding(sparse_from(S), f)
        fs = dense_weighted(S, f)
        assert np.abs(ex @ ex.T - fs @ fs.T).max() <= 1e-8

    def test_rotation_is_inconsequential(self):
        rng = np.random.default_rng(1)
        S = random_symmetric(30, rng)
        f = indicator_above(0.0)
        lam, vec = np.linalg.eigh(S)
        axis_scaled = vec * np.asarray(f(lam))   # one basis choice
        fs_rows = dense_weighted(S, f)           # the rotated one
        assert (
            np.abs(pairwise_distances(axis_scaled) - pairwise_distances(fs_rows)).max()
            <= 1e-8
        )

    def test_non_finite_weights_refused(self):
        # NaN at the positive eigenvalue of a 2-cycle; the oracle used to
        # return NaN rows for it, while legendre_coefficients refused it
        S = sparse_from(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            exact_embedding(S, lambda x: np.where(np.asarray(x) > 0, np.nan, 1.0))

    def test_cap(self):
        with pytest.raises(OracleCapError):
            exact_embedding(
                SparseMatrix.from_coo([], [], [], ORACLE_CAP + 1, ORACLE_CAP + 1), identity()
            )

    @pytest.mark.parametrize("case", ["asymmetric", "rounding", "rectangular"])
    def test_asymmetric_rejected(self, case):
        # the engine's exact rule, so a matrix symmetric only to rounding is refused too
        rng = np.random.default_rng(25)
        if case == "asymmetric":
            dense = random_symmetric(6, rng)
            dense[0, 1] += 0.1
        elif case == "rounding":
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            dense = (q * np.linspace(-0.9, 0.9, 6)) @ q.T
            assert not np.array_equal(dense, dense.T)
        else:
            dense = rng.standard_normal((6, 4)) / 8.0
        with pytest.raises(ValueError, match="square symmetric"):
            exact_embedding(sparse_from(dense), identity())

    @pytest.mark.parametrize("case", ["over-cap", "asymmetric"])
    def test_refused_before_the_dense_matrix(self, case):
        # a 100,000-row ring used to fail allocating its 74.5 GiB dense matrix
        # before the cap was checked
        n = ORACLE_CAP
        i = np.arange(n)
        S = SparseMatrix.from_coo(i, (i + 1) % n, np.ones(n), n, n)  # a directed cycle
        if case == "over-cap":
            S = dilate(S)  # symmetric, 2n rows

        def refuse():
            with pytest.raises(OracleCapError if case == "over-cap" else ValueError):
                exact_embedding(S, identity())

        assert traced_peak(refuse) < 1e6  # a dense n x n matrix is 72 MB


class TestEigenpairSubset:
    """An indicator's eigenpairs come from dsyevr's LAPACK stages over its
    support; every other function's from the full np.linalg.eigh."""

    @pytest.mark.parametrize("spectrum", ["uniform", "repeated"])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_gram_as_full(self, spectrum, seed):
        rng = np.random.default_rng(seed)
        if spectrum == "uniform":
            lam = rng.uniform(-1.02, 1.02, 60)
        else:
            lam = rng.choice([-0.5, 0.2, 0.7, 1.0], 60)
        S = symmetric_with_spectrum(lam, rng)
        S = sparse_from((S + S.T) / 2)  # symmetric to rounding is refused
        for t in (-0.9, 0.0, 0.5, 0.95):
            f = indicator_above(t)
            subset = exact_embedding(S, f)
            full = exact_embedding(S, lambda x: f(x))  # no support(): eigh
            assert subset.shape == full.shape == (60, np.sum(lam >= t))
            assert np.abs(subset @ subset.T - full @ full.T).max() <= 1e-12

    def test_eigenvalue_at_threshold_kept(self):
        ex = exact_embedding(sparse_from(np.diag([0.5, 0.2])), indicator_above(0.5))
        assert ex.shape == (2, 1)
        assert np.array_equal(np.abs(ex), [[1.0], [0.0]])

    def test_nothing_at_or_above_threshold(self):
        S = random_symmetric(20, np.random.default_rng(4), spectral_norm=0.5)
        assert exact_embedding(sparse_from(S), indicator_above(0.6)).shape == (20, 0)
        assert exact_embedding(SparseMatrix.from_coo([], [], [], 5, 5), indicator_above(0.1)).shape == (5, 0)

    def test_spectrum_slightly_above_one(self):
        # a matrix scaled by a norm estimate can reach just past 1
        lam = [1.0 + 1e-6, 1.0 + 1e-12, 0.9, 0.3, -1.0 - 1e-9]
        S = symmetric_with_spectrum(lam, np.random.default_rng(5))
        S = (S + S.T) / 2  # symmetric to rounding is refused
        ex = exact_embedding(sparse_from(S), indicator_above(1.0))
        assert ex.shape == (5, 2)
        top = np.linalg.eigh(S)[1][:, -2:]
        assert np.abs(ex @ ex.T - top @ top.T).max() <= 1e-12

    @pytest.mark.parametrize("f", [commute_time(), identity()], ids=["commute", "identity"])
    def test_full_support_same_bits(self, f):
        S = random_symmetric(40, np.random.default_rng(6))
        lam, vec = np.linalg.eigh(S)
        weights = f(lam)
        keep = weights != 0.0
        assert exact_embedding(sparse_from(S), f).tobytes() == (vec[:, keep] * weights[keep]).tobytes()

    def test_residual_checked(self, monkeypatch):
        lapack = csemb.oracle._flapack()

        def off_by_a_little(*args):
            m, w, iblock, isplit, info = lapack.dstebz(*args)
            return m, w + 1e-6, iblock, isplit, info

        fake = lapack_with(dstebz=off_by_a_little)
        monkeypatch.setattr(csemb.oracle, "_flapack", lambda: fake)
        S = sparse_from(random_symmetric(10, np.random.default_rng(3)))
        with pytest.raises(OracleError, match="residual"):
            exact_embedding(S, indicator_above(0.0))

    @pytest.mark.parametrize("routine", LAPACK_STAGES)
    def test_lapack_failure_raised(self, monkeypatch, routine):
        call = getattr(csemb.oracle._flapack(), routine)

        def failed(*args, **kwargs):
            *out, _ = call(*args, **kwargs)
            return (*out, 3)

        fake = lapack_with(**{routine: failed})
        monkeypatch.setattr(csemb.oracle, "_flapack", lambda: fake)
        with pytest.raises(OracleError, match=f"LAPACK {routine} failed with info 3"):
            exact_embedding(SparseMatrix.from_dense(np.eye(3)), indicator_above(0.5))

    def test_subset_peak_memory(self):
        # no n x n array beyond the matrix, which is a mapping of its own that
        # tracemalloc does not see (0.13 n^2 8 bytes traced): dsyevr's wrapper
        # allocated n x n eigenvectors, a whole transpose for the symmetry
        # check held two n x n arrays of this dense pattern, and the wrapper
        # once copied the matrix into Fortran order. The fill puts about n
        # entries at a time; nnz-length index arrays would take 18 MB each
        n = 1500
        S = sparse_from(random_symmetric(n, np.random.default_rng(14)))
        assert traced_peak(lambda: exact_embedding(S, indicator_above(0.8))) < 0.25 * n * n * 8

    def test_subset_resident_memory(self):
        # the row heads of a sparse matrix's array are never written or read,
        # so their 4 KB pages stay unbacked; numpy's huge-page-advised
        # to_dense array made all of it resident (1.03 n^2 8 bytes)
        code = """
import numpy as np
from csemb import exact_embedding, indicator_above, normalized_adjacency

def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM"))

def planted(n, blocks, rng):  # about 10 edges a vertex within its block, 2 across
    size = n // blocks
    u = rng.integers(0, n, 12 * n)
    v = u // size * size + rng.integers(0, size, 12 * n)
    v[10 * n :] = rng.integers(0, n, 2 * n)
    return normalized_adjacency(np.stack([u, v], axis=1), n)

rng = np.random.default_rng(3)
n = 1500
S = planted(n, 20, rng)
exact_embedding(planted(60, 3, rng), indicator_above(0.5))
before = vm_hwm()
assert exact_embedding(S, indicator_above(0.5)).shape[1] > 0
print((vm_hwm() - before) / (n * n * 8))
"""
        assert float(run_python(code)) < 0.9

    def test_forced_fallback_same_bits(self, tmp_path):
        # no extension file under tmp_path, so the loader imports scipy.linalg's package
        code = f"""
import sys
import numpy as np
import csemb.oracle
from csemb import SparseMatrix, exact_embedding, indicator_above
from csemb.sparse import load_scipy_extension
a = np.random.default_rng(7).standard_normal((40, 40))
S = SparseMatrix.from_dense(a + a.T)
by_file = exact_embedding(S, indicator_above(0.2))
assert "scipy.linalg" not in sys.modules
csemb.oracle._flapack = lambda: load_scipy_extension("linalg._flapack", {str(tmp_path)!r})
by_import = exact_embedding(S, indicator_above(0.2))
assert "scipy.linalg" in sys.modules
assert by_file.shape[1] > 0 and by_file.tobytes() == by_import.tobytes()
print("ok")
"""
        assert run_python(code) == "ok"


class TestRowTails:
    """The subset path writes and reads only the row tails a[j, j:], the
    triangle dsyevr references."""

    @pytest.mark.parametrize("density", [1.0, 0.3, 0.02])
    def test_fill_is_the_upper_triangle(self, density):
        a = random_symmetric(50, np.random.default_rng(11), density=density)
        assert np.array_equal(_dense_row_tails(sparse_from(a)), np.triu(a))

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)])
    def test_fill_of_a_dilation(self, shape):
        A = sparse_from(np.random.default_rng(12).standard_normal(shape))
        upper = np.triu(explicit_dilation(A).to_dense())
        assert np.array_equal(_dense_row_tails(dilate(A)), upper)

    @pytest.mark.parametrize("case", ["uniform-0", "uniform-1", "repeated-0", "repeated-1",
                                      "scaled-1e-150", "scaled-1e80"])
    def test_row_heads_never_read(self, case):
        # NaN in the row heads changes no bit of the eigenpairs; a Frobenius
        # bound, scale or largest entry taken over the whole array reads it
        kind, value = case.split("-", 1)
        if kind == "scaled":
            scale = float(value)
            a = random_symmetric(40, np.random.default_rng(9)) * scale
            assert not _RMIN <= np.abs(a).max() <= _RMAX
            lo, his = -0.2 * scale, [scale]
        else:
            rng = np.random.default_rng(int(value))
            if kind == "uniform":
                lam = rng.uniform(-1.02, 1.02, 60)
            else:
                lam = rng.choice([-0.5, 0.2, 0.7, 1.0], 60)
            a = symmetric_with_spectrum(lam, rng)
            a = (a + a.T) / 2
            lo, his = -0.9, [0.0, 0.5, 0.95, np.inf]
        for hi in his:
            heads = a.copy()
            heads[np.tril_indices(len(a), -1)] = np.nan
            lam, vec = _eigenpairs_within(a.copy(), lo, hi)
            got_lam, got_vec = _eigenpairs_within(heads, lo, hi)
            assert len(lam) > 0
            assert got_lam.tobytes() == lam.tobytes() and got_vec.tobytes() == vec.tobytes()


def oracle_inputs():
    """A normalized adjacency and the dilation of a 40 x 25 matrix scaled
    into [-1, 1], the two kinds of operator the oracle takes."""
    rng = np.random.default_rng(35)
    adj = normalized_adjacency(sbm(60, 3, 0.3, 0.05, rng)[0], 60)
    A = rng.standard_normal((40, 25))
    return {"adjacency": adj,
            "dilation": scale_values(dilate(sparse_from(A)), 1.0 / np.linalg.norm(A, 2))}


def full_path_bits(S: SparseMatrix) -> bytes:
    """exact_embedding(S, identity()) as np.linalg.eigh gives it from S's dense form."""
    lam, vec = np.linalg.eigh(S.to_dense())
    keep = lam != 0.0
    return (vec[:, keep] * lam[keep]).tobytes()


class TestOneDenseForm:
    """Every oracle eigensolve reads S from the row tails of one array."""

    @pytest.mark.parametrize("kind", ["adjacency", "dilation"])
    def test_no_path_calls_to_dense(self, monkeypatch, kind):
        S = oracle_inputs()[kind]
        f = indicator_above(0.2)
        cfg = EmbedConfig(L=12, d=6, seed=3)
        full = full_path_bits(S)
        subset = exact_embedding(S, f).tobytes()
        audit = distance_bound_audit(S, f, cfg, trials=2)

        def refuse(self):
            raise AssertionError("the oracle formed a second dense matrix")

        monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
        monkeypatch.setattr(Dilation, "to_dense", refuse)
        assert exact_embedding(S, identity()).tobytes() == full
        assert exact_embedding(S, f).tobytes() == subset
        assert distance_bound_audit(S, f, cfg, trials=2) == audit

    @pytest.mark.parametrize("kind", ["adjacency", "dilation"])
    def test_full_path_reads_only_row_tails(self, monkeypatch, kind):
        # NaN in the row heads, the strict lower triangle of a, changes no
        # bit of eigh's eigenpairs, of eigvalsh's eigenvalues or of the audit
        S = oracle_inputs()[kind]
        f = indicator_above(0.2)
        cfg = EmbedConfig(L=12, d=6, seed=3)
        dense = S.to_dense()
        full, delta = full_path_bits(S), _spectral_delta(dense, f, 30)
        audit = distance_bound_audit(S, f, cfg, trials=2)
        filled = []

        def nan_heads(S):
            a = _dense_row_tails(S)
            a[np.tril_indices(len(a), -1)] = np.nan
            filled.append(len(a))
            return a

        monkeypatch.setattr(csemb.oracle, "_dense_row_tails", nan_heads)
        assert exact_embedding(S, identity()).tobytes() == full
        assert len(filled) == 1  # the full path took the array
        assert distance_bound_audit(S, f, cfg, trials=2) == audit
        assert len(filled) == 3  # the audit's subset path and its eigvalsh took it
        assert np.linalg.eigvalsh(nan_heads(S).T).tobytes() == np.linalg.eigvalsh(dense).tobytes()
        assert _spectral_delta(nan_heads(S).T, f, 30) == delta


class TestDsyevrStages:
    """_dsyevr_range calls the LAPACK stages of dsyevr(range="V") one by one,
    and must give its eigenpairs bit for bit."""

    def same_bits(self, a, vl, vu) -> int:
        lam, vec, m, _, info = csemb.oracle._flapack().dsyevr(a.T, range="V", lower=1, vl=vl, vu=vu)
        assert info == 0
        got_lam, got_vec = _dsyevr_range(a.copy(), vl, vu)
        assert np.array_equal(got_lam, lam[:m])
        assert np.array_equal(got_vec, vec[:, :m]) and got_vec.flags.c_contiguous
        return m

    @pytest.mark.parametrize("spectrum", ["uniform", "repeated"])
    @pytest.mark.parametrize("seed", range(2))
    def test_spectra(self, spectrum, seed):
        rng = np.random.default_rng(seed)
        if spectrum == "uniform":
            lam = rng.uniform(-1.02, 1.02, 60)
        else:
            lam = rng.choice([-0.5, 0.2, 0.7, 1.0], 60)
        a = symmetric_with_spectrum(lam, rng)
        a = (a + a.T) / 2
        for vl in (-0.9, 0.0, 0.5, 0.95):
            assert self.same_bits(a, vl, 1.1) == np.sum(lam > vl)

    def test_identical_blocks(self):
        # T splits into four equal blocks, so eigenvalues tie exactly and
        # dsyevr's unstable selection sort decides the order of their vectors
        blk = random_symmetric(6, np.random.default_rng(8))
        a = np.kron(np.eye(4), blk)
        lam, _ = _dsyevr_range(a.copy(), -1.0, 1.0)
        assert len(lam) == 24 and len(np.unique(lam)) < 24
        assert self.same_bits(a, -1.0, 1.0) == 24
        assert self.same_bits(a, 0.0, 1.0) > 0

    def test_eigenvalue_at_a_bound(self):
        # (vl, vu] leaves out an eigenvalue at vl and keeps one at vu
        a = np.diag([0.5, 0.2, 0.5, -0.3, 0.9])
        a[3:, 3:] = [[-0.3, 0.4], [0.4, 0.9]]
        assert self.same_bits(a, 0.5, 1.2) == 1
        assert self.same_bits(a, 0.2, 0.5) == 2
        assert self.same_bits(a, -1.0, 0.2) == 2

    @pytest.mark.parametrize(
        "n, vl, vu, m", [(20, 0.6, 1.0, 0), (20, -1.0, 1.0, 20), (200, -1.0, 1.0, 200)]
    )
    def test_none_or_all(self, n, vl, vu, m):
        a = random_symmetric(n, np.random.default_rng(n), spectral_norm=0.5)
        assert self.same_bits(a, vl, vu) == m

    @pytest.mark.parametrize("vl, vu, m", [(0.0, 1.0, 1), (0.3, 1.0, 0), (-1.0, 0.3, 1)])
    def test_one_row(self, vl, vu, m):
        assert self.same_bits(np.array([[0.3]]), vl, vu) == m

    @pytest.mark.parametrize("a", [[[0.0, 0.5], [0.5, 0.0]], [[0.3, -0.2], [-0.2, 0.1]]])
    def test_two_rows(self, a):
        a = np.array(a)
        assert self.same_bits(a, -1.0, 1.0) == 2
        assert self.same_bits(a, 0.0, 1.0) == 1

    @pytest.mark.parametrize("scale", [1e-150, 1e80])
    def test_scaled_outside_the_safe_range(self, scale):
        # dsyevr scales a matrix whose largest entry lies outside
        # [_RMIN, _RMAX] before the reduction, and its eigenvalues back after
        a = random_symmetric(40, np.random.default_rng(9)) * scale
        assert not _RMIN <= np.abs(a).max() <= _RMAX
        assert self.same_bits(a, -0.2 * scale, scale) > 0

    def test_stage_signatures(self):
        # a scipy release whose wrappers take other arguments fails here
        # instead of computing something else
        lapack = csemb.oracle._flapack()
        assert [getattr(lapack, name).__doc__.splitlines()[0] for name in LAPACK_STAGES] == [
            "c,d,e,tau,info = dsytrd(a,[lower,lwork,overwrite_a])",
            "m,w,iblock,isplit,info = dstebz(d,e,range,vl,vu,il,iu,tol,order)",
            "z,info = dstein(d,e,w,iblock,isplit)",
            "cq,work,info = dormqr(side,trans,a,tau,c,lwork,[overwrite_c])",
        ]


def normalized_correlation(X, i, j):
    """Cosine similarity of rows i and j through the oracle's pair formula."""
    out, _ = _pair_correlations(np.asarray(X, dtype=np.float64), np.array([[i, j]]))
    return float(out[0])


class TestNormalizedCorrelation:
    def test_self(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert normalized_correlation(X, 0, 0) == pytest.approx(1.0)

    def test_orthogonal(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert normalized_correlation(X, 0, 1) == 0.0

    def test_hand_value(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert normalized_correlation(X, 0, 1) == pytest.approx(1 / np.sqrt(2))

    def test_zero_row(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert normalized_correlation(X, 0, 1) == 0.0
        _, zero = _pair_correlations(X, np.array([[0, 1]]))
        assert zero.tolist() == [True]

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        for i, j in [(0, 1), (2, 9), (4, 4)]:
            assert normalized_correlation(X, i, j) == normalized_correlation(X, j, i)
        Y = X.copy()
        Y[3] *= 17.0
        for j in range(10):
            assert normalized_correlation(Y, 3, j) == pytest.approx(
                normalized_correlation(X, 3, j), abs=1e-12
            )


class TestSamplePairs:
    def test_full_enumeration_below_cap(self):
        pairs = sample_pairs(10, None, seed=0)
        assert len(pairs) == 45
        assert len(np.unique(pairs[:, 0] * 10 + pairs[:, 1])) == 45

    def test_sampled_without_replacement(self):
        pairs = sample_pairs(300, 5000, seed=1)
        assert len(pairs) == 5000
        codes = pairs[:, 0] * 300 + pairs[:, 1]
        assert len(np.unique(codes)) == 5000
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_deterministic(self):
        assert np.array_equal(sample_pairs(200, 100, 7), sample_pairs(200, 100, 7))

    def test_uniform_over_vertex_ids(self):
        # For a uniform pair i < j of n vertices, i has mean (n - 2) / 3 and
        # variance (n + 1)(n - 2) / 18; keeping the smallest pair codes
        # instead piles the sample onto low ids.
        n, m = 300, 5000
        lo = sample_pairs(n, m, seed=1)[:, 0]
        se = math.sqrt((n + 1) * (n - 2) / 18 / m)
        assert abs(lo.mean() - (n - 2) / 3) <= 4 * se
        assert lo.max() > n / 2


    @pytest.mark.parametrize("n, m, seed", [(50, 1200, 1), (50, 1224, 2)])
    def test_matches_unique_reference_over_many_rounds(self, n, m, seed):
        # a sample close to all n(n-1)/2 pairs takes many draw rounds; each
        # round continues the draw counter, i before j, and its distinct codes
        # must be those np.unique gives
        codes = np.empty(0, dtype=np.uint64)
        drawn = rounds = 0
        while len(codes) < m:
            size = 2 * (m - len(codes)) + 16
            u = uniform_draws(seed, np.arange(drawn, drawn + 2 * size, dtype=np.uint64))
            drawn += 2 * size
            i, j = np.floor(u * n).astype(np.int64).reshape(2, size)
            ok = i != j
            lo = np.minimum(i[ok], j[ok]).astype(np.uint64)
            hi = np.maximum(i[ok], j[ok]).astype(np.uint64)
            codes = np.unique(np.concatenate([codes, lo * np.uint64(n) + hi]))
            rounds += 1
        keys = uniform_draws(fold_seed(seed, _PAIR_KEY_TAG), codes)
        codes = np.sort(codes[np.argsort(keys, kind="stable")[:m]])
        expected = np.stack([codes // np.uint64(n), codes % np.uint64(n)], axis=1)
        assert rounds > 10
        assert np.array_equal(sample_pairs(n, m, seed), expected.astype(np.int64))

    def test_keeps_the_smallest_hash_keys(self):
        # one round draws about twice the pairs asked for; those kept are the
        # distinct pairs with the smallest keys, not the smallest codes
        n, m, seed = 300, 5000, 1
        codes = np.unique(_pair_codes(seed, 0, 2 * m + 16, n))
        assert len(codes) > 1.5 * m
        keys = uniform_draws(fold_seed(seed, _PAIR_KEY_TAG), codes)
        kept = np.sort(codes[np.argsort(keys, kind="stable")[:m]])
        expected = np.stack([kept // np.uint64(n), kept % np.uint64(n)], axis=1)
        assert np.array_equal(sample_pairs(n, m, seed), expected.astype(np.int64))


class TestDistortionPercentiles:
    def test_identical_embeddings(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6))
        rep = distortion_percentiles(X, X)
        assert all(v == 0.0 for v in rep.percentiles.values())

    def test_percentiles_monotone(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 5))
        Y = X + 0.1 * rng.standard_normal((60, 5))
        rep = distortion_percentiles(X, Y)
        vals = [rep.percentiles[p] for p in (1, 5, 25, 50, 75, 95, 99)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_calibration_bins(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 4))
        Y = X + 0.05 * rng.standard_normal((80, 4))
        rep = distortion_percentiles(X, Y)
        centers = [b.center for b in rep.bins]
        assert all(-1.0 <= c <= 1.0 for c in centers)
        assert sum(b.count for b in rep.bins) == rep.pair_sample_size
        for b in rep.bins:
            vals = [b.percentiles[p] for p in (1, 5, 25, 50, 75, 95, 99)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_zero_rows_counted(self):
        X = np.zeros((4, 3))
        X[0] = [1, 0, 0]
        rep = distortion_percentiles(X, X)
        assert rep.zero_row_pairs == 6  # every pair touches a zero row

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distortion_percentiles(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_chunked_correlations_same_bits(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((300, 80))
        pairs = sample_pairs(300, 3 * PAIR_CHUNK + 5, seed=1)
        norms = np.linalg.norm(rows, axis=1)
        a, b = pairs[:, 0], pairs[:, 1]
        whole = np.einsum("ij,ij->i", rows[a], rows[b]) / (norms[a] * norms[b])
        assert _pair_correlations(rows, pairs)[0].tobytes() == whole.tobytes()

    def test_peak_memory(self):
        # 100k pairs of 80-column rows: gathering both rows of every pair at
        # once peaked at 133 MB; a chunk at a time stays near the pair arrays
        rng = np.random.default_rng(13)
        X, Y = rng.standard_normal((1500, 80)), rng.standard_normal((1500, 80))
        tracemalloc.start()
        try:
            distortion_percentiles(X, Y, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestDistanceBoundAudit:
    def test_polynomial_function_zero_violations(self):
        rng = np.random.default_rng(6)
        S = random_symmetric(40, rng)
        cfg = EmbedConfig(L=3, d=1500, seed=0)
        rate = distance_bound_audit(
            sparse_from(S), lambda x: 0.2 + 0.5 * x**3, cfg, trials=5, epsilon=0.4
        )
        assert rate <= 40 ** -1.0

    def test_distances_match_formula(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((70, 6))
        rows[10:20] = rows[3]  # coincident rows, whose formula value can dip below 0
        sq = np.sum(rows * rows, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
        expected = np.sqrt(np.maximum(d2[np.triu_indices(70, k=1)], 0.0))
        assert np.array_equal(_pairwise_distances(rows), expected)

    def test_tiny_projection_violates(self):
        rng = np.random.default_rng(7)
        S = sparse_from(random_symmetric(40, rng))
        cfg = EmbedConfig(L=3, d=2, seed=0)
        rate = distance_bound_audit(S, lambda x: x, cfg, trials=5, epsilon=0.05)
        assert rate > 0.05

    def test_epsilon_validated(self):
        cfg = EmbedConfig(L=2, d=2)
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                distance_bound_audit(
                    SparseMatrix.from_dense(np.eye(3)), identity(), cfg, trials=1, epsilon=eps
                )

    def test_delta_over_all_eigenvalues(self):
        # test_a2_distance_bound_audit's input: delta is unchanged, to
        # eigensolver rounding, from the value taken over np.linalg.eigh's
        # eigenvalues, though the exact embedding keeps only half the pairs
        rng = np.random.default_rng(22)
        S = rng.standard_normal((50, 50))
        S = 0.5 * (S + S.T)
        S /= np.linalg.norm(S, 2) * 1.02
        f = indicator_above(float(np.median(np.linalg.eigvalsh(S))))
        assert exact_embedding(sparse_from(S), f).shape == (50, 25)
        assert _spectral_delta(S, f, 200) == pytest.approx(0.04693721202734813, abs=1e-13)

    def test_delta_at_unit_eigenvalues_rounded_outward(self):
        # a 60-cycle's normalized adjacency has eigenvalues +-1, and eigvalsh
        # puts one a rounding step outside [-1, 1]; the README's audit of a
        # bipartite graph raised ValueError there. A spectrum beyond rounding
        # is still refused.
        a = csemb.normalized_adjacency(ring_graph(60, width=1), 60).to_dense()
        assert np.abs(np.linalg.eigvalsh(a)).max() > 1.0
        assert _spectral_delta(a, identity(), 3) <= 1e-12
        with pytest.raises(ValueError, match="outside"):
            _spectral_delta(1.001 * a, identity(), 3)

    def test_eigensolver_residual_checked(self, monkeypatch):
        eigh = np.linalg.eigh

        def off_by_a_little(a):
            lam, vec = eigh(a)
            return lam + 1e-6, vec

        monkeypatch.setattr(np.linalg, "eigh", off_by_a_little)
        S = sparse_from(random_symmetric(10, np.random.default_rng(3)))
        with pytest.raises(OracleError, match="residual"):
            distance_bound_audit(S, identity(), EmbedConfig(L=2, d=2), trials=1)


class TestReportWriters:
    def test_csv_and_json(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 4))
        Y = X + 0.1 * rng.standard_normal((30, 4))
        rep = distortion_percentiles(X, Y)
        write_report(rep, tmp_path / "r")
        p1, p2, p3 = (tmp_path / f"r_{name}" for name in
                      ("percentiles.csv", "calibration.csv", "report.json"))
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "percentile,value" and len(lines) == 8
        head = p2.read_text().splitlines()[0]
        assert head == "bin_center,p1,p5,p25,p50,p75,p95,p99"
        import json

        blob = json.loads(p3.read_text())
        assert blob["mode"] == "deviation" and "percentiles" in blob
        assert sorted(blob) == ["mode", "pair_sample_size", "percentiles", "zero_row_pairs"]
