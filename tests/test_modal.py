"""Dependence kernel, modal decomposition, and sufficiency machinery."""

import tracemalloc

import numpy as np
import pytest

from infosep.common_info import gacs_korner
from infosep.dist import (
    DeterministicMap,
    JointDistribution,
    marginals,
    mutual_information,
    validate_and_trim,
)
from infosep.errors import (
    DimensionError,
    InsufficientStatistic,
    InvalidDistribution,
)
from infosep.finfo import f_information
from infosep.harness import random_joint, random_refinement
from infosep.modal import (
    ModalDecomposition,
    _density_ratio,
    check_sufficiency,
    minimal_sufficient_maps,
    modal_decompose,
    reduce_joint,
)
from oracles import cube_cmi, gk_spectral, minimal_maps_by_profiles, refines

DSBS01 = np.array([[0.45, 0.05], [0.05, 0.45]])
ROWDUP = np.array([[0.3, 0.1], [0.15, 0.05], [0.1, 0.3]])


def two_block_uniform():
    p = np.zeros((4, 4))
    p[:2, :2] = 0.125
    p[2:, 2:] = 0.125
    return JointDistribution(p)


def block_joint_p(seed=0):
    """Two 2x2 blocks of mass 0.5, each a Dirichlet(1) table."""
    rng = np.random.default_rng(seed)
    p = np.zeros((4, 4))
    for b in (0, 2):
        p[b:b + 2, b:b + 2] = 0.5 * rng.dirichlet(np.ones(4)).reshape(2, 2)
    return p


def dirichlet_joint(nx, ny, seed):
    rng = np.random.default_rng(seed)
    return JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))


def centered_ratio(j):
    """``p / (px py) - 1``, the matrix whose weighted SVD is the spectrum."""
    px, py = marginals(j)
    return j.p / np.outer(px, py) - 1.0


def reconstruct(md):
    """The joint pmf ``px py (1 + F sigma G^T)`` rebuilt from its modes."""
    return np.outer(md.px, md.py) * (1.0 + (md.F * md.sigmas) @ md.G.T)


def maximal_correlation(j):
    """The leading singular value, 0 when the spectrum is empty."""
    return float(max(modal_decompose(j).sigmas, default=0.0))


class TestCdkMatrix:
    """The centered density ratio the modal decomposition factors."""

    def test_product_all_zero(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        np.testing.assert_allclose(centered_ratio(j), 0.0, atol=1e-14)

    def test_identity_joint(self):
        j = JointDistribution(np.eye(2) / 2)
        np.testing.assert_allclose(centered_ratio(j), [[1, -1], [-1, 1]],
                                   atol=1e-14)

    def test_dsbs(self):
        j = JointDistribution(DSBS01)
        np.testing.assert_allclose(centered_ratio(j),
                                   [[0.8, -0.8], [-0.8, 0.8]], atol=1e-14)

    def test_weighted_row_and_column_sums_vanish(self):
        for seed in range(10):
            j = dirichlet_joint(5, 4, seed)
            b = centered_ratio(j)
            px, py = marginals(j)
            np.testing.assert_allclose(px @ b, 0.0, atol=1e-10)
            np.testing.assert_allclose(b @ py, 0.0, atol=1e-10)


class TestModalDecompose:
    @pytest.mark.parametrize("field", ["sigmas", "F", "G"])
    def test_shapes_must_agree(self, field):
        md = modal_decompose(JointDistribution(DSBS01))
        fields = dict(rank=md.rank, sigmas=md.sigmas, F=md.F, G=md.G,
                      px=md.px, py=md.py)
        fields[field] = np.zeros((3, 2))
        with pytest.raises(DimensionError):
            ModalDecomposition(**fields)

    def test_product_empty_spectrum(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        md = modal_decompose(j)
        assert md.rank == 0
        assert md.sigmas.shape == (0,)

    def test_dsbs_single_mode(self):
        md = modal_decompose(JointDistribution(DSBS01))
        assert md.rank == 1
        assert md.sigmas[0] == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(md.F[:, 0], [1.0, -1.0], atol=1e-9)
        np.testing.assert_allclose(md.G[:, 0], [1.0, -1.0], atol=1e-9)

    def test_two_block_unit_mode(self):
        md = modal_decompose(two_block_uniform())
        assert md.rank == 1
        assert md.sigmas[0] == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        for seed in range(20):
            md = modal_decompose(dirichlet_joint(4, 6, seed))
            for i in range(md.rank):
                col = md.F[:, i]
                nz = col[np.abs(col) > 1e-9 * np.abs(col).max()]
                assert nz[0] > 0.0

    def test_rank_capped(self):
        for seed in range(10):
            nx, ny = 3 + seed % 4, 3 + (seed * 7) % 5
            md = modal_decompose(dirichlet_joint(nx, ny, seed))
            assert md.rank <= min(nx, ny) - 1

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            nx, ny = rng.integers(2, 13, size=2)
            j = dirichlet_joint(int(nx), int(ny), int(rng.integers(1 << 30)))
            md = modal_decompose(j)
            px, py = marginals(j)
            gram_f = (md.F * px[:, None]).T @ md.F
            gram_g = (md.G * py[:, None]).T @ md.G
            np.testing.assert_allclose(gram_f, np.eye(md.rank), atol=1e-9)
            np.testing.assert_allclose(gram_g, np.eye(md.rank), atol=1e-9)
            recon = (md.F * md.sigmas) @ md.G.T
            np.testing.assert_allclose(recon, centered_ratio(j), atol=1e-9)

    def test_sigma_never_exceeds_one(self):
        for seed in range(30):
            md = modal_decompose(dirichlet_joint(6, 6, seed))
            if md.rank:
                assert md.sigmas[0] <= 1.0 + 1e-9


class TestReconstructJoint:
    """The modes and marginals of a decomposition determine the joint."""

    def test_round_trip_dsbs(self):
        j = JointDistribution(DSBS01)
        out = reconstruct(modal_decompose(j))
        np.testing.assert_allclose(out, j.p, atol=1e-12)

    def test_rank_zero_gives_product(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        out = reconstruct(modal_decompose(j))
        np.testing.assert_allclose(out, j.p, atol=1e-12)

    def test_round_trip_random(self):
        j = dirichlet_joint(5, 7, 21)
        out = reconstruct(modal_decompose(j))
        np.testing.assert_allclose(out, j.p, atol=1e-9)


class TestMaximalCorrelation:
    """The leading singular value is the maximal correlation."""

    def test_product(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        assert maximal_correlation(j) == pytest.approx(0.0, abs=1e-12)

    def test_dsbs(self):
        assert maximal_correlation(JointDistribution(DSBS01)) == (
            pytest.approx(0.8, abs=1e-12))

    def test_two_block(self):
        assert maximal_correlation(two_block_uniform()) == (
            pytest.approx(1.0, abs=1e-12))


class TestMinimalSufficientMaps:
    def test_product_collapses(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        s, t = minimal_sufficient_maps(j)
        assert s.image_size == 1
        assert t.image_size == 1

    def test_identity_joint_keeps_alphabet(self):
        j = JointDistribution(np.eye(2) / 2)
        s, t = minimal_sufficient_maps(j)
        assert s.image_size == 2
        assert t.image_size == 2

    def test_duplicated_rows_merge(self):
        s, t = minimal_sufficient_maps(JointDistribution(ROWDUP))
        assert s.image_size == 2
        assert s.assignment[0] == s.assignment[1]
        assert s.assignment[0] != s.assignment[2]
        assert t.image_size == 2

    def test_returned_maps_are_sufficient(self):
        for seed in range(10):
            j = dirichlet_joint(4, 5, seed)
            s, t = minimal_sufficient_maps(j)
            assert check_sufficiency(j, s, t).sufficient

    def test_idempotent(self):
        j = JointDistribution(ROWDUP)
        s, t = minimal_sufficient_maps(j)
        red = reduce_joint(j, s, t)
        s2, t2 = minimal_sufficient_maps(red)
        assert list(s2.assignment) == list(range(red.nx))
        assert list(t2.assignment) == list(range(red.ny))

    def test_partition_matches_feature_rows(self):
        # symbols merge exactly when their modal feature rows coincide
        j = JointDistribution(ROWDUP)
        s, _ = minimal_sufficient_maps(j)
        md = modal_decompose(j)
        for a in range(j.nx):
            for b in range(j.nx):
                same_class = s.assignment[a] == s.assignment[b]
                same_row = np.allclose(md.F[a], md.F[b], atol=1e-8)
                assert same_class == same_row

    def test_factors_through_any_sufficient_map(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        ms, mt = minimal_sufficient_maps(j)
        assert refines(s, ms)
        # the refinement maps induce a partition at least as fine as minimal
        for a in range(j.nx):
            for b in range(j.nx):
                if s.assignment[a] == s.assignment[b]:
                    assert ms.assignment[a] == ms.assignment[b]
        for a in range(j.ny):
            for b in range(j.ny):
                if t.assignment[a] == t.assignment[b]:
                    assert mt.assignment[a] == mt.assignment[b]


class TestCheckSufficiency:
    def test_identity_maps(self):
        j = JointDistribution(DSBS01)
        v = check_sufficiency(j, DeterministicMap.identity(2),
                              DeterministicMap.identity(2))
        assert v.sufficient
        assert v.max_ratio_gap == pytest.approx(0.0, abs=1e-14)

    def test_constant_map_on_identity_joint(self):
        j = JointDistribution(np.eye(2) / 2)
        s = DeterministicMap.constant(2)
        v = check_sufficiency(j, s, DeterministicMap.identity(2))
        assert not v.sufficient
        assert v.max_ratio_gap > 0.5
        assert cube_cmi(j, s, 0) > 0.5
        np.testing.assert_array_equal(v.reduced.p, [[0.5, 0.5]])

    def test_refinement_maps(self, dsbs01, dsbs01_refined):
        j, s, t = dsbs01_refined
        v = check_sufficiency(j, s, t)
        assert v.sufficient
        assert v.max_ratio_gap <= 1e-12
        assert cube_cmi(j, s, 0) <= 1e-10
        assert cube_cmi(j, t, 1) <= 1e-10
        np.testing.assert_allclose(v.reduced.p, dsbs01.p, atol=1e-12)

    def test_aggregates_once(self, dsbs01_refined, pushforward_calls):
        j, s, t = dsbs01_refined
        check_sufficiency(j, s, t)
        assert len(pushforward_calls) == 1

    def test_mismatched_maps_rejected(self, dsbs01):
        with pytest.raises(DimensionError,
                           match=r"maps cover \(3, 2\) symbols, joint has \(2, 2\)"):
            check_sufficiency(dsbs01, DeterministicMap.identity(3),
                              DeterministicMap.identity(2))

    def test_memory_linear_in_table_size(self):
        j = random_joint(300, 300, seed=0)
        ident = DeterministicMap.identity(300)
        tracemalloc.start()
        try:
            v = check_sufficiency(j, ident, ident)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.sufficient
        assert peak < 16 * 2**20  # the (x, y, label) cube alone is 206 MiB


class TestReduceJoint:
    def test_identity(self):
        j = JointDistribution(DSBS01)
        out = reduce_joint(j, DeterministicMap.identity(2),
                           DeterministicMap.identity(2))
        np.testing.assert_allclose(out.p, j.p, atol=1e-15)

    def test_duplicated_rows(self):
        j = JointDistribution(ROWDUP)
        s, t = minimal_sufficient_maps(j)
        out = reduce_joint(j, s, t)
        np.testing.assert_allclose(out.p, [[0.45, 0.15], [0.1, 0.3]],
                                   atol=1e-15)

    def test_refined_dsbs_comes_back(self, dsbs01, dsbs01_refined):
        j, s, t = dsbs01_refined
        out = reduce_joint(j, s, t)
        np.testing.assert_allclose(out.p, dsbs01.p, atol=1e-12)

    def test_strict_aggregates_once(self, dsbs01, dsbs01_refined,
                                    pushforward_calls):
        j, s, t = dsbs01_refined
        out = reduce_joint(j, s, t, strict=True)
        assert len(pushforward_calls) == 1
        np.testing.assert_allclose(out.p, dsbs01.p, atol=1e-12)

    def test_strict_mode_rejects_lossy_maps(self):
        j = JointDistribution(np.eye(2) / 2)
        with pytest.raises(InsufficientStatistic):
            reduce_joint(j, DeterministicMap.constant(2),
                         DeterministicMap.identity(2), strict=True)

    def test_spectrum_invariant_under_sufficient_reduction(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        red = reduce_joint(j, s, t)
        sig_raw = modal_decompose(j).sigmas
        sig_red = modal_decompose(red).sigmas
        assert sig_raw.shape == sig_red.shape
        np.testing.assert_allclose(sig_raw, sig_red, atol=1e-9)

    def test_mi_preserved(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        red = reduce_joint(j, s, t)
        assert mutual_information(red).value == pytest.approx(
            mutual_information(j).value, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMarginalProductUnderflow:
    """Tables whose marginal products px * py underflow to zero."""

    def test_minimal_maps_are_sufficient(self):
        j = validate_and_trim([[1e-200, 0.0], [0.0, 1.0]])
        s, t = minimal_sufficient_maps(j)
        v = check_sufficiency(j, s, t)
        assert v.sufficient
        assert v.max_ratio_gap == 0.0
        a, b = gk_spectral(j), gacs_korner(j)
        assert (a.value.value, a.component_count) == (b.value.value, b.component_count)

    def test_sigma_matches_the_2x2_closed_form(self):
        j = validate_and_trim([[1e-200, 1e-200], [0.0, 1.0]])
        (p00, p01), (p10, p11) = j.p
        px, py = marginals(j)
        # (p00 p11 - p01 p10) / sqrt(px0 px1 py0 py1), one root at a time
        closed = (p00 * p11 - p01 * p10) / np.prod(np.sqrt(px)) / np.prod(np.sqrt(py))
        assert closed == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
        md = modal_decompose(j)
        assert md.rank == 1
        assert md.sigmas[0] == pytest.approx(closed, rel=1e-12)


def probe_tables(count, seed=0):
    """Derandomized tables up to 3x3 with cells from a wide-range probe set."""
    probe = [0.0, 0.5, 1.0, 1e-160, 1e-200, 1e-300, 1e-310, 1e308]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nx, ny = rng.integers(1, 4, size=2)
        try:
            yield validate_and_trim(rng.choice(probe, size=(nx, ny)))
        except InvalidDistribution:
            continue


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDensityRatioIdentity:
    """One density ratio decides symbol identity for the maps and the check."""

    def test_overflow_only_beside_a_subnormal_marginal(self):
        j = validate_and_trim([[1e-310, 0.0], [0.0, 1.0]])
        r = _density_ratio(j)
        assert r[0, 0] == np.inf
        assert r[1].tolist() == [0.0, 1.0] and r[0, 1] == 0.0

    def test_matching_infinities_count_as_no_gap(self):
        j = validate_and_trim([[1e-310, 0.0], [0.0, 1.0]])
        s, t = minimal_sufficient_maps(j)
        assert s.assignment.tolist() == [0, 1] and t.assignment.tolist() == [0, 1]
        v = check_sufficiency(j, s, t)
        assert v.sufficient and v.max_ratio_gap == 0.0

    @pytest.mark.parametrize("p", [
        # P(x|y) of the two columns differs by 2e-200
        [[1e-200, 0.0], [0.5, 0.5]],
        # the ratios of columns 0 and 1 differ by 8e-11 in every entry,
        # within the grouping tolerance, but only column 0 has mass at x0
        [[1e-11, 0.0, 0.5], [0.25, 0.25, 0.0]]])
    def test_zero_patterns_never_merge(self, p):
        j = validate_and_trim(p)
        s, t = minimal_sufficient_maps(j)
        assert t.assignment.tolist() == list(range(j.ny))
        assert check_sufficiency(j, s, t).sufficient
        # the zero cell keeps reverse KL infinite on the reduced table
        assert f_information(reduce_joint(j, s, t), "reverse-kl").value == np.inf

    def test_tiny_mass_symbol_keeps_ratios_apart(self):
        # the y columns of each block have P(x|y) equal up to about 1e-60,
        # the share of x1, but density ratios at x1 that differ by order one
        p = block_joint_p()
        p[1] *= 1e-60
        j = validate_and_trim(p)
        s, t = minimal_sufficient_maps(j)
        v = check_sufficiency(j, s, t)
        assert v.sufficient
        assert t.image_size == 4

    def test_wide_range_maps_pass_their_own_check(self):
        # where every ratio is finite, a gap within rounding of the ratio
        # does not count, so maps read from the ratios must pass the check
        # that reads the same ratios, up to ratios near 1e308
        checked = 0
        for j in probe_tables(3000):
            if not np.isfinite(_density_ratio(j)).all():
                continue
            checked += 1
            v = check_sufficiency(j, *minimal_sufficient_maps(j))
            assert v.sufficient, (j.p.tolist(), v.max_ratio_gap)
        assert checked > 1000

    def test_rounding_of_a_huge_ratio_is_no_gap(self):
        # columns y1 and y2 are identical; their ratio at x0, about 1e10 /
        # 1e-300, comes out one ulp apart on the raw and the reduced table
        j = validate_and_trim([[1e-300, 1e-310, 1e-310], [1.0, 0.0, 0.0]])
        s, t = minimal_sufficient_maps(j)
        assert t.assignment.tolist() == [0, 1, 1]
        v = check_sufficiency(j, s, t)
        assert v.sufficient and v.max_ratio_gap < 1e-15
        reduce_joint(j, s, t, strict=True)

    @pytest.mark.parametrize("p, t", [
        # huge ratios, 5e299 and 3.3e299, merged into 4e299
        ([[1e-300, 1e-310, 1e-310], [1.0, 1e-310, 2e-310]], [0, 1, 1]),
        # an infinite raw ratio against a finite reduced one
        ([[1e-310, 0.0], [0.0, 1.0]], [0, 0]),
        # a positive raw ratio against a zero reduced one
        ([[1e-300, 1e-300], [1.0, 0.0]], [0, 0])])
    def test_real_gaps_of_huge_ratios_still_count(self, p, t):
        j = validate_and_trim(p)
        v = check_sufficiency(j, DeterministicMap.identity(j.nx),
                              DeterministicMap(t))
        assert not v.sufficient and v.max_ratio_gap > 1e200

    def test_conditional_profiles_are_the_oracle_on_normal_tables(self):
        for seed in range(150):
            rng = np.random.default_rng(seed)
            nx, ny = (int(v) for v in rng.integers(2, 6, size=2))
            base = random_joint(nx, ny, alpha=(0.3, 1.0, 2.0)[seed % 3], seed=seed)
            fine, _, _ = random_refinement(base, nx + int(rng.integers(0, 5)),
                                           ny + int(rng.integers(0, 5)), seed=seed)
            for j in (base, fine):
                s, t = minimal_sufficient_maps(j)
                os_, ot = minimal_maps_by_profiles(j)
                np.testing.assert_array_equal(s.assignment, os_.assignment)
                np.testing.assert_array_equal(t.assignment, ot.assignment)
