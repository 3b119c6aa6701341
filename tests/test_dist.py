"""Exact probability arithmetic: distributions, kernels, information values."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import rel_entr as scipy_rel_entr

from infosep.dist import (
    ConditionalKernel,
    DeterministicMap,
    InfoValue,
    JointDistribution,
    conditional_kernel,
    conditional_mutual_information,
    entropy,
    info_from_nats,
    lift_conditional,
    logsumexp,
    marginals,
    mutual_information,
    pushforward,
    rel_entr,
    validate_and_trim,
)
from infosep.errors import (
    DimensionError,
    InvalidDistribution,
    InvalidMap,
    NumericalError,
)
from oracles import refines

DSBS01 = np.array([[0.45, 0.05], [0.05, 0.45]])


def random_joint_array(nx, ny, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(nx * ny))
    return p.reshape(nx, ny)


def random_surjection(n, rng):
    """A uniformly scrambled onto map from n symbols to 1..n symbols."""
    m = int(rng.integers(1, n + 1))
    assignment = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(assignment)
    return DeterministicMap(assignment, image_size=m)


class TestInfoValue:
    def test_unit_round_trip(self):
        v = InfoValue(1.0, "bits")
        assert v.to("nats").value == pytest.approx(np.log(2.0), abs=1e-15)
        assert v.to("nats").to("bits").value == pytest.approx(1.0, abs=1e-15)
        assert float(v) == 1.0

    def test_same_unit_is_identity(self):
        v = InfoValue(0.25, "nats")
        assert v.to("nats") is v or v.to("nats").value == 0.25

    def test_bad_unit_rejected(self):
        with pytest.raises(ValueError):
            InfoValue(1.0, "hartleys")

    def test_negative_clamp(self):
        assert info_from_nats(-5e-13).value == 0.0
        assert info_from_nats(0.0).value == 0.0

    def test_negative_beyond_tolerance_raises(self):
        with pytest.raises(NumericalError):
            info_from_nats(-1e-6)

    def test_infinity_passes_through(self):
        assert info_from_nats(np.inf, "bits").value == np.inf


class TestJointDistribution:
    def test_valid_build(self):
        j = JointDistribution(DSBS01)
        assert j.nx == 2 and j.ny == 2
        assert j.p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rounding_slop_renormalized(self):
        j = JointDistribution(DSBS01 * (1.0 + 5e-10))
        assert j.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_off_by_too_much(self):
        with pytest.raises(InvalidDistribution):
            JointDistribution(DSBS01 * 1.01)

    def test_negative_entry(self):
        with pytest.raises(InvalidDistribution):
            JointDistribution(np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_zero_marginal_rejected(self):
        with pytest.raises(InvalidDistribution):
            JointDistribution(np.array([[0.5, 0.5], [0.0, 0.0]]))

    def test_array_is_read_only(self):
        j = JointDistribution(DSBS01)
        with pytest.raises(ValueError):
            j.p[0, 0] = 0.3

    @pytest.mark.parametrize("build", [
        JointDistribution, validate_and_trim, ConditionalKernel])
    @pytest.mark.parametrize("arr", [np.full(2, 0.5), np.full((2, 2, 2), 0.125)])
    def test_wrong_axis_count(self, build, arr):
        with pytest.raises(InvalidDistribution):
            build(arr)

    def test_labels_kept(self):
        j = JointDistribution(DSBS01, x_labels=("a", "b"), y_labels=(0, 1))
        assert j.x_labels == ("a", "b")
        assert j.y_labels == ("0", "1")


class TestValidateAndTrim:
    def test_already_valid_unchanged(self):
        j = validate_and_trim(DSBS01)
        np.testing.assert_allclose(j.p, DSBS01, atol=1e-15)

    def test_zero_row_and_column_trimmed(self):
        j = validate_and_trim(np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]))
        assert j.p.shape == (1, 2)
        np.testing.assert_allclose(j.p, [[0.5, 0.5]], atol=1e-15)

    def test_unnormalized_counts(self):
        j = validate_and_trim(np.array([[9.0, 1.0], [1.0, 9.0]]))
        np.testing.assert_allclose(j.p, DSBS01, atol=1e-15)

    def test_labels_follow_trim(self):
        j = validate_and_trim(
            np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]),
            x_labels=("u", "v"), y_labels=("p", "q", "r"))
        assert j.x_labels == ("u",)
        assert j.y_labels == ("p", "r")

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidDistribution):
            validate_and_trim(np.zeros((2, 2)))

    def test_negative_rejected(self):
        with pytest.raises(InvalidDistribution):
            validate_and_trim(np.array([[1.0, -0.5], [0.25, 0.25]]))

    def test_total_that_overflows(self):
        # the plain sum is inf; dividing by the largest entry first keeps
        # the table, with no overflow warning (an error in this suite)
        j = validate_and_trim([[1e308, 1e308], [1.0, 1.0]])
        assert j.p.shape == (2, 2)
        np.testing.assert_array_equal(j.p[0], [0.5, 0.5])
        assert 0.0 < j.p[1, 0] == j.p[1, 1] < 1e-307
        np.testing.assert_array_equal(
            validate_and_trim(np.full((2, 2), 1e308)).p, np.full((2, 2), 0.25))

    def test_finite_total_normalized_by_plain_sum(self):
        # the division by the total, then the constructor's renormalization
        raw = np.random.default_rng(3).random((4, 5)) * 1e300
        once = raw / raw.sum()
        np.testing.assert_array_equal(validate_and_trim(raw).p,
                                      once / once.sum())


class TestMarginalsAndKernels:
    def test_dsbs_marginals(self):
        px, py = marginals(JointDistribution(DSBS01))
        np.testing.assert_allclose(px, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(py, [0.5, 0.5], atol=1e-15)

    def test_product_marginals(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        px, py = marginals(j)
        np.testing.assert_allclose(px, [0.3, 0.7], atol=1e-15)
        np.testing.assert_allclose(py, [0.5, 0.5], atol=1e-15)

    def test_rectangular_marginals(self):
        j = JointDistribution(np.array([[0.3, 0.1], [0.15, 0.05], [0.1, 0.3]]))
        px, py = marginals(j)
        np.testing.assert_allclose(px, [0.4, 0.2, 0.4], atol=1e-15)
        np.testing.assert_allclose(py, [0.55, 0.45], atol=1e-15)

    def test_dsbs_conditional(self):
        k = conditional_kernel(JointDistribution(DSBS01), "y|x")
        np.testing.assert_allclose(k.k, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)

    def test_product_conditional_rows_equal_marginal(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        k = conditional_kernel(j, "y|x")
        np.testing.assert_allclose(k.k, [[0.6, 0.4], [0.6, 0.4]], atol=1e-15)

    def test_identity_joint_conditional(self):
        k = conditional_kernel(JointDistribution(np.eye(2) / 2), "y|x")
        np.testing.assert_allclose(k.k, np.eye(2), atol=1e-15)

    def test_x_given_y_direction(self):
        j = JointDistribution(np.array([[0.3, 0.1], [0.15, 0.05], [0.1, 0.3]]))
        k = conditional_kernel(j, "x|y")
        # rows indexed by y, so k.k[y][x] = P(x,y)/P_Y(y)
        np.testing.assert_allclose(k.k[0], np.array([0.3, 0.15, 0.1]) / 0.55,
                                   atol=1e-15)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            conditional_kernel(JointDistribution(DSBS01), "z|w")

    def test_kernel_row_sum_enforced(self):
        with pytest.raises(InvalidDistribution):
            ConditionalKernel(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestDeterministicMap:
    def test_identity_and_constant(self):
        ident = DeterministicMap.identity(3)
        assert list(ident.assignment) == [0, 1, 2]
        const = DeterministicMap.constant(4)
        assert const.image_size == 1

    def test_surjectivity_enforced(self):
        with pytest.raises(InvalidMap):
            DeterministicMap(np.array([0, 0, 2]), image_size=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidMap):
            DeterministicMap(np.array([0, 5]), image_size=2)

    @pytest.mark.parametrize("entries", [
        [True, False], [0, True], np.array([True, False]), [0, np.True_]])
    def test_boolean_entries_rejected(self, entries):
        with pytest.raises(InvalidMap, match="booleans"):
            DeterministicMap(entries)

    @pytest.mark.parametrize("entries", [
        [0, float("inf")], [0, float("-inf")], [0, float("nan")], [0, 1e30],
        np.array([0.0, 2.0**63])])
    def test_unrepresentable_floats_rejected_before_cast(self, entries):
        # the cast to int64 would warn on these (an error under pytest here)
        with pytest.raises(InvalidMap, match="finite integers"):
            DeterministicMap(entries)

    def test_two_dimensional_assignment_rejected(self):
        with pytest.raises(InvalidMap):
            DeterministicMap(np.zeros((2, 2), dtype=int))

    def test_integral_floats_accepted(self):
        m = DeterministicMap([1.0, 0.0, 1.0])
        assert m.assignment.tolist() == [1, 0, 1] and m.image_size == 2

    def test_refines(self):
        fine = DeterministicMap(np.array([0, 1, 2, 3]))
        coarse = DeterministicMap(np.array([0, 0, 1, 1]))
        assert refines(fine, coarse)
        assert not refines(coarse, fine)


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(np.full(4, 0.25)).value == pytest.approx(2.0, abs=1e-12)

    def test_degenerate(self):
        assert entropy(np.array([1.0])).value == 0.0

    @pytest.mark.parametrize("point", [[1.0], [0.0, 1.0, 0.0]])
    def test_point_mass_is_positive_zero(self, point):
        assert math.copysign(1.0, entropy(np.array(point)).value) == 1.0

    def test_binary_09(self):
        # H(0.9, 0.1) in bits; fifth decimal 0.46900
        assert entropy(np.array([0.9, 0.1])).value == pytest.approx(
            0.46899559358928117, abs=1e-12)

    def test_nats(self):
        h = entropy(np.array([0.5, 0.5]), unit="nats")
        assert h.value == pytest.approx(np.log(2.0), abs=1e-15)

    def test_mass_off_by_too_much(self):
        with pytest.raises(InvalidDistribution):
            entropy([0.5, 0.6])


class TestLogSumExp:
    def test_matches_scipy_rowwise(self):
        rows = np.array([
            [1000.0, 999.0, 998.5],          # exp would overflow unshifted
            [-1000.0, -1001.0, -1002.0],     # exp would underflow unshifted
            [0.3, -np.inf, 2.0],             # some -inf entries
            [-np.inf, -np.inf, -np.inf],     # all -inf: an uncovered IB row
            [1e-300, 0.0, -5e-301],
        ])
        a = np.vstack([rows, np.random.default_rng(0).normal(scale=50.0, size=(8, 3))])
        got = logsumexp(a)
        want = scipy_logsumexp(a, axis=1, keepdims=True)
        assert got.shape == want.shape == (13, 1)
        assert got[3, 0] == -np.inf
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        # a stack of matrices is reduced row by row, like one matrix
        stacked = logsumexp(a[:12].reshape(3, 4, 3))
        np.testing.assert_array_equal(stacked, got[:12].reshape(3, 4, 1))

    def test_finite_maxima_path_is_bit_identical(self):
        # A stack whose rows all have a finite maximum takes the fast path;
        # the same rows next to an all -inf row take the fix-up path.
        rows = np.random.default_rng(1).normal(scale=30.0, size=(2, 3, 5))
        rows[0, 1, [0, 3]] = -np.inf
        rows[1, 2, :4] = -np.inf
        fast = logsumexp(rows)
        with_dead = np.concatenate([rows, np.full((1, 3, 5), -np.inf)])
        slow = logsumexp(with_dead)
        np.testing.assert_array_equal(fast, slow[:2])
        assert np.all(slow[2] == -np.inf)
        np.testing.assert_allclose(
            fast, scipy_logsumexp(rows, axis=-1, keepdims=True),
            rtol=1e-14, atol=0.0)


class TestRelEntr:
    """The zero convention, with `scipy.special.rel_entr` as the reference.

    Near ``a == b`` the two round the log differently, by up to a few ulps
    of ``a``, hence the absolute tolerance.
    """

    def test_matches_scipy_with_zeros(self):
        rng = np.random.default_rng(3)
        a = rng.random((6, 7)) * (rng.random((6, 7)) < 0.7)
        b = rng.random((6, 7)) * (rng.random((6, 7)) < 0.7)
        got = rel_entr(a, b)
        assert np.any(a == 0.0) and np.any((a > 0.0) & (b == 0.0))
        np.testing.assert_allclose(got, scipy_rel_entr(a, b), rtol=1e-14, atol=1e-15)

    def test_broadcasting(self):
        rng = np.random.default_rng(4)
        a = rng.random((4, 1, 3)) * (rng.random((4, 1, 3)) < 0.7)
        b = rng.random((5, 3))
        got = rel_entr(a, b)
        assert got.shape == (4, 5, 3)
        np.testing.assert_allclose(got, scipy_rel_entr(a, b), rtol=1e-14, atol=1e-15)
        assert rel_entr(a, 1.0).shape == a.shape

    def test_zero_convention(self):
        a = np.array([0.5, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.3])
        got = rel_entr(a, b)
        assert got[0] == np.inf
        assert got[1] == 0.0 and got[2] == 0.0
        np.testing.assert_array_equal(got, scipy_rel_entr(a, b))

    def test_tiny_denominator_stays_finite(self):
        # the ratios 1e320 and 1e323 overflow; the terms are about 737 and
        # 372 nats, as in scipy, and no warning is raised
        a, b = np.array([1.0, 0.5]), np.array([1e-320, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = rel_entr(a, b)
        np.testing.assert_allclose(got, scipy_rel_entr(a, b), rtol=1e-14)

    def test_matches_mpmath_reference(self):
        # a and b span the float range, subnormals and zeros included, so
        # that ratios overflow, underflow to subnormals or divide by zero
        rng = np.random.default_rng(7)
        exps = np.hstack([rng.uniform(0, 323, size=(2, 400)),
                          [rng.uniform(0, 10, 200), rng.uniform(300, 323, 200)]])
        mags = 10.0 ** -exps * rng.uniform(0.5, 1.0, size=exps.shape)
        mags[rng.random(exps.shape) < 0.1] = 0.0
        a, b = mags
        with np.errstate(all="ignore"):
            assert np.sum(np.isinf(a / b) & (b > 0.0)) >= 20
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = rel_entr(a, b)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        for ai, bi, gi in zip(a.tolist(), b.tolist(), got.tolist()):
            if ai == 0.0:
                assert gi == 0.0
            elif bi == 0.0:
                assert gi == math.inf
            else:
                want = float(mpmath.mpf(ai) * mpmath.log(mpmath.mpf(ai) / bi))
                assert gi == pytest.approx(want, rel=1e-12, abs=1e-300), (ai, bi)

    def test_zero_free_path_is_the_plain_formula(self):
        # positive inputs whose ratios stay finite: a * log(a / b), bit for bit
        rng = np.random.default_rng(8)
        a, b = rng.random((2, 5, 6)) + 1e-3
        np.testing.assert_array_equal(rel_entr(a, b), a * np.log(a / b))


class TestMutualInformation:
    def test_product_zero(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(j).value == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(j).value >= 0.0

    def test_identity_one_bit(self):
        j = JointDistribution(np.eye(2) / 2)
        assert mutual_information(j).value == pytest.approx(1.0, abs=1e-12)

    def test_dsbs01(self):
        j = JointDistribution(DSBS01)
        assert mutual_information(j).value == pytest.approx(
            0.5310044064107188, abs=1e-12)

    def test_product_of_marginals_that_underflows(self):
        # P(x) P(y) of the first cell underflows to 0; the value is
        # 1e-170 * log2(1e170) bits, which is H(X)
        j = JointDistribution([[1e-170, 0.0], [0.0, 1.0]])
        mi = mutual_information(j).value
        assert mi == pytest.approx(5.647277761308517e-168, rel=1e-12)
        assert mi == pytest.approx(entropy(marginals(j)[0]).value, rel=1e-12)

    def test_subnormal_marginal(self):
        # P(x0) = P(y0) = 1e-310: the density ratio 1/1e-310 overflows, yet
        # the value is H(X) = 1e-310 * log2(1e310) + a rounding-level term
        p = [[1e-310, 0.0], [0.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mi = mutual_information(validate_and_trim(p)).value
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        want = float(mpmath.mpf(1e-310) * mpmath.log(1 / mpmath.mpf(1e-310), 2))
        assert mi == pytest.approx(want, rel=1e-12)
        assert mi == pytest.approx(1.03e-307, rel=1e-3)

    @given(st.integers(0, 10_000))
    def test_bounded_by_min_entropy(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 7, size=2)
        j = JointDistribution(random_joint_array(nx, ny, seed))
        px, py = marginals(j)
        mi = mutual_information(j).value
        assert mi >= -1e-10
        assert mi <= min(entropy(px).value, entropy(py).value) + 1e-10


class TestConditionalMutualInformation:
    @pytest.mark.parametrize("p", [np.full((2, 2), 0.25),
                                   np.full((2, 2, 2), 0.25)])
    def test_not_a_trivariate_pmf(self, p):
        # two axes, or total mass 2
        with pytest.raises(InvalidDistribution):
            conditional_mutual_information(p)

    def test_common_cause_zero(self):
        # A = B = C uniform binary: the diagonal of a 2x2x2 cube
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p[1, 1, 1] = 0.5
        assert conditional_mutual_information(p).value == 0.0

    def test_independent_zero(self):
        p = np.full((2, 2, 2), 0.125)
        assert conditional_mutual_information(p).value == 0.0

    def test_xor_one_bit(self):
        # A, B iid bits, C = A xor B
        p = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                p[a, b, a ^ b] = 0.25
        assert conditional_mutual_information(p).value == pytest.approx(
            1.0, abs=1e-12)

    def test_data_processing_identity(self):
        # A - B - C by composing kernels: I(A;C) = I(A;B) - I(A;B|C)
        rng = np.random.default_rng(7)
        pa = rng.dirichlet(np.ones(3))
        k_ba = rng.dirichlet(np.ones(4), size=3)
        k_cb = rng.dirichlet(np.ones(3), size=4)
        p = pa[:, None, None] * k_ba[:, :, None] * k_cb[None, :, :]
        i_ac = mutual_information(
            JointDistribution(p.sum(axis=1)), unit="nats").value
        i_ab = mutual_information(
            JointDistribution(p.sum(axis=2)), unit="nats").value
        i_ab_c = conditional_mutual_information(
            p.transpose(0, 1, 2), unit="nats").value
        assert i_ac == pytest.approx(i_ab - i_ab_c, abs=1e-10)

    @pytest.mark.parametrize("p", [[[1e-200, 0.0], [0.5, 0.5]],
                                   [[1e-200, 1e-200], [0.0, 1.0]]])
    def test_products_of_marginals_that_underflow(self, p):
        # C a copy of A: on the first row the products P(a) P(b, c) underflow
        # to 0, so a chain-rule sum I(A;BC) - I(A;C) would read inf - inf
        cube = np.asarray(p)[:, :, None] * np.eye(2)[:, None, :]
        assert conditional_mutual_information(cube).value == 0.0

    def test_markov_merging(self):
        """U-X-Y, U-(X,Y)-Z, X-Z-Y together imply the chain U-X-Z-Y."""
        rng = np.random.default_rng(11)
        # X on 4 symbols, Z = s(X) sufficient for Y: rows of P(y|x) constant
        # on the fibers of s, so X-Z-Y holds; U drawn from X alone.
        s = np.array([0, 0, 1, 1])
        px = rng.dirichlet(np.ones(4))
        k_zy = rng.dirichlet(np.ones(3), size=2)
        k_yx = k_zy[s]
        k_ux = rng.dirichlet(np.ones(2), size=4)
        p = np.zeros((2, 4, 2, 3))  # axes U, X, Z, Y
        for x in range(4):
            p[:, x, s[x], :] = px[x] * np.outer(k_ux[x], k_yx[x])

        def cmi(arr, a, b, c):
            drop = tuple(i for i in range(arr.ndim) if i not in a + b + c)
            q = arr.sum(axis=drop) if drop else arr
            kept = [i for i in range(arr.ndim) if i not in drop]
            pos = {axis: k for k, axis in enumerate(kept)}
            q = q.transpose(tuple(pos[i] for i in a + b + c))
            na = int(np.prod([arr.shape[i] for i in a]))
            nb = int(np.prod([arr.shape[i] for i in b]))
            nc = int(np.prod([arr.shape[i] for i in c]))
            return conditional_mutual_information(
                q.reshape(na, nb, nc)).value

        # premises
        assert cmi(p, (0,), (3,), (1,)) <= 1e-12          # U-X-Y
        assert cmi(p, (0,), (2,), (1, 3)) <= 1e-12        # U-(X,Y)-Z
        assert cmi(p, (1,), (3,), (2,)) <= 1e-12          # X-Z-Y
        # conclusions
        assert cmi(p, (0,), (2, 3), (1,)) <= 1e-9         # I(U;(Z,Y)|X)
        assert cmi(p, (0, 1), (3,), (2,)) <= 1e-9         # I((U,X);Y|Z)


class TestPushforward:
    def test_identity_maps(self):
        j = JointDistribution(DSBS01)
        out = pushforward(j, DeterministicMap.identity(2),
                          DeterministicMap.identity(2))
        np.testing.assert_allclose(out.p, j.p, atol=1e-15)

    def test_all_to_one(self):
        j = JointDistribution(DSBS01)
        out = pushforward(j, DeterministicMap.constant(2),
                          DeterministicMap.constant(2))
        np.testing.assert_allclose(out.p, [[1.0]], atol=1e-15)

    def test_two_block_collapse(self):
        p = np.zeros((4, 4))
        p[:2, :2] = 0.125
        p[2:, 2:] = 0.125
        blocks = DeterministicMap(np.array([0, 0, 1, 1]))
        out = pushforward(JointDistribution(p), blocks, blocks)
        np.testing.assert_allclose(out.p, [[0.5, 0.0], [0.0, 0.5]],
                                   atol=1e-15)

    def test_domain_mismatch(self):
        j = JointDistribution(DSBS01)
        with pytest.raises(DimensionError):
            pushforward(j, DeterministicMap(np.array([0, 1, 2])),
                        DeterministicMap.identity(2))

    @given(st.integers(0, 10_000))
    def test_never_increases_mi(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        j = JointDistribution(random_joint_array(nx, ny, seed))
        red = pushforward(j, random_surjection(nx, rng),
                          random_surjection(ny, rng))
        assert mutual_information(red).value <= (
            mutual_information(j).value + 1e-12)


class TestLiftConditional:
    def test_identity_lift(self):
        k = ConditionalKernel(np.array([[0.2, 0.8], [0.7, 0.3]]))
        out = lift_conditional(k, DeterministicMap.identity(2))
        np.testing.assert_allclose(out.k, k.k, atol=1e-15)

    def test_mod_two_lift(self):
        k = ConditionalKernel(np.eye(2))
        v = DeterministicMap(np.array([0, 1, 0, 1]))
        out = lift_conditional(k, v)
        np.testing.assert_allclose(out.k, np.eye(2)[[0, 1, 0, 1]], atol=1e-15)

    def test_dimension_mismatch(self):
        k = ConditionalKernel(np.eye(3))
        with pytest.raises(DimensionError):
            lift_conditional(k, DeterministicMap(np.array([0, 1, 0, 1])))

    def test_joint_over_image_preserved_and_markov(self):
        # U' = lifted U through v must give the same (U, V) joint and be
        # conditionally independent of X given V.
        rng = np.random.default_rng(5)
        px = rng.dirichlet(np.ones(6))
        v = DeterministicMap(np.array([0, 1, 2, 0, 1, 2]))
        k = ConditionalKernel(rng.dirichlet(np.ones(2), size=3))
        lifted = lift_conditional(k, v)

        pv = np.zeros(3)
        np.add.at(pv, v.assignment, px)
        puv_direct = k.k * pv[:, None]

        puv_lifted = np.zeros((3, 2))
        np.add.at(puv_lifted, (v.assignment,),
                  lifted.k * px[:, None])
        np.testing.assert_allclose(puv_lifted, puv_direct, atol=1e-12)

        p = np.zeros((2, 6, 3))  # axes U', X, V
        for x in range(6):
            p[:, x, v.assignment[x]] = px[x] * lifted.k[x]
        assert conditional_mutual_information(p).value <= 1e-12
