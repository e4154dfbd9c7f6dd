import math

import numpy as np
import numpy.testing as npt
import pytest

from statwintgen.tensor_core import (
    JET_STEP,
    commutator,
    instance_uniforms,
    jet,
    jet_partials,
)
import statwintgen.wintgen as wg

import draw_oracle
from derivative_oracle import grid, grid_partials
from helpers import partials, random_orthogonal
from paper_checks import frobenius_norm_sq, random_symmetric_traceless


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm_sq(np.eye(2)) == 2.0

    def test_zero(self):
        assert frobenius_norm_sq(np.zeros((3, 3))) == 0.0

    def test_antisymmetric_pair_value(self):
        # the matrix that realizes equality in the commutator bound
        assert frobenius_norm_sq([[0.0, 2.0], [-2.0, 0.0]]) == 8.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            frobenius_norm_sq([[np.nan, 0.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            frobenius_norm_sq(np.zeros((2, 3)))


class TestCommutator:
    def test_self_commutator_vanishes(self):
        m = np.arange(9.0).reshape(3, 3)
        npt.assert_array_equal(commutator(m, m), np.zeros((3, 3)))

    def test_identity_commutes(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(commutator(np.eye(2), b), np.zeros((2, 2)))

    def test_hand_value(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        npt.assert_array_equal(commutator(a, b), [[0.0, 2.0], [-2.0, 0.0]])

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            npt.assert_array_equal(commutator(a, b), -commutator(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_norm_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            q = random_orthogonal(5, rng)
            base = frobenius_norm_sq(commutator(a, b))
            conj = frobenius_norm_sq(commutator(q @ a @ q.T, q @ b @ q.T))
            assert abs(base - conj) <= 1e-9 * max(1.0, base)


class TestCentralDifference:
    def test_square(self):
        out = partials(lambda x: x[0] ** 2, [1.0], 1e-5)
        assert out.shape == (1,)
        assert abs(out[0] - 2.0) <= 1e-9

    def test_constant_exact(self):
        value = np.array([[4.25, -1.0], [0.5, 3.0]])
        out = partials(lambda x: value, [0.2, -0.5, 1.0], 1e-5)
        assert out.shape == (3, 2, 2)
        npt.assert_array_equal(out, np.zeros((3, 2, 2)))

    def test_exponential(self):
        assert abs(partials(lambda x: math.exp(x[0]), [0.0], 1e-5)[0] - 1.0) <= 1e-9

    def test_quadratics_match_analytic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = rng.uniform(-3, 3, 3)
            x0 = rng.uniform(-1, 1)
            out = partials(lambda x, a=a, b=b, c=c: a * x[0] ** 2 + b * x[0] + c, [x0], 1e-5)
            assert abs(out[0] - (2 * a * x0 + b)) <= 1e-8

    def test_bad_step(self):
        with pytest.raises(ValueError):
            partials(lambda x: x[0], [0.0], 0.0)

    def test_axis_order_matches_coordinates(self):
        # out[a] is the derivative along coordinate a, stacked on axis 0
        out = partials(lambda x: np.array([x[0] * x[1], x[1] ** 2]), [2.0, 3.0], 1e-4)
        npt.assert_allclose(out, [[3.0, 0.0], [2.0, 6.0]], atol=1e-8)


class TestGrid:
    def test_row_order_is_the_point_then_plus_minus_step_per_axis(self):
        points = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 0.25]])
        step = 0.125
        rows = grid(points, step)
        assert rows.shape == (2 * 7, 3)
        for i, x in enumerate(points):
            want = [x]
            for axis in range(3):
                e = np.eye(3)[axis]
                want += [x + step * e, x - step * e]
            npt.assert_array_equal(rows[7 * i : 7 * (i + 1)], want)

    def test_negative_zero_coordinate_survives(self):
        rows = grid(np.array([[-0.0, 1.0]]), 1e-5)
        # every row that does not move axis 0 keeps its -0.0, the point itself included
        for row in rows[[0, 3, 4]]:
            assert row[0] == 0.0 and math.copysign(1.0, row[0]) == -1.0
        assert list(rows[1:3, 0]) == [1e-5, -1e-5]

    @pytest.mark.parametrize("step", [0.0, -1e-5])
    def test_non_positive_step_raises(self, step):
        with pytest.raises(ValueError, match="step must be positive"):
            grid(np.zeros((1, 2)), step)

    def test_partials_return_the_values_at_the_points(self):
        points = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 2))
        step = 1e-4

        def field(x):  # (N, 2) -> (N, 2, 2)
            return np.stack([[x[:, 0] * x[:, 1], x[:, 1] ** 2], [3.0 * x[:, 0], x[:, 0] - x[:, 1]]]).transpose(2, 0, 1)

        values, dvalues = grid_partials(field(grid(points, step)), len(points), step)
        npt.assert_array_equal(values, field(points))
        assert dvalues.shape == (4, 2, 2, 2)
        for x, d in zip(points, dvalues):
            npt.assert_allclose(d[0], [[x[1], 0.0], [3.0, 1.0]], atol=1e-8)
            npt.assert_allclose(d[1], [[x[0], 2.0 * x[1]], [0.0, -1.0]], atol=1e-8)


class TestJet:
    def test_row_order_is_the_point_then_one_imaginary_shift_per_axis(self):
        points = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 0.25]])
        rows = jet(points)
        assert rows.shape == (2 * 4, 3) and rows.dtype == complex
        for i, x in enumerate(points):
            want = [x + 0j] + [x + 1j * JET_STEP * e for e in np.eye(3)]
            npt.assert_array_equal(rows[4 * i : 4 * (i + 1)], want)

    def test_every_row_keeps_the_real_coordinates(self):
        rows = jet(np.array([[-0.0, 1.0]]))
        for row in rows:  # a -0.0 stays -0.0
            assert row[0].real == 0.0 and math.copysign(1.0, row[0].real) == -1.0
        assert list(rows[:, 0].imag) == [0.0, JET_STEP, 0.0]

    def test_the_step_is_a_power_of_two(self):
        assert math.frexp(JET_STEP)[0] == 0.5

    def test_partials_of_polynomials_are_exact(self):
        points = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 2))

        def field(x):  # (N, 2) -> (N, 2, 2)
            return np.stack([[x[:, 0] * x[:, 1], x[:, 1] ** 2], [3.0 * x[:, 0], x[:, 0] - x[:, 1]]]).transpose(2, 0, 1)

        values, dvalues = jet_partials(field(jet(points)), len(points))
        npt.assert_array_equal(values, field(points))
        assert values.dtype == dvalues.dtype == float and dvalues.shape == (4, 2, 2, 2)
        for x, d in zip(points, dvalues):
            npt.assert_array_equal(d[0], [[x[1], 0.0], [3.0, 1.0]])
            npt.assert_array_equal(d[1], [[x[0], 2.0 * x[1]], [0.0, -1.0]])

    def test_partials_of_transcendental_fields_match_to_rounding(self):
        # the complex step of exp, sin and an inverse, against their derivatives and central differences
        points = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 1))
        values, dvalues = jet_partials(np.exp(jet(points)) * np.sin(jet(points)) / (2.0 + jet(points)), 5)
        x = points[:, 0]
        want = np.exp(x) * (np.sin(x) + np.cos(x)) / (2.0 + x) - np.exp(x) * np.sin(x) / (2.0 + x) ** 2
        npt.assert_allclose(values[:, 0], np.exp(x) * np.sin(x) / (2.0 + x), rtol=1e-15)
        npt.assert_allclose(dvalues[:, 0, 0], want, rtol=1e-14)
        fd = grid_partials(np.exp(grid(points)) * np.sin(grid(points)) / (2.0 + grid(points)), 5)[1]
        npt.assert_allclose(dvalues, fd, atol=1e-9)


class TestRandomSymmetricTraceless:
    def test_dim_one_is_zero(self):
        (m,) = random_symmetric_traceless(1, 1, seed=3)
        npt.assert_array_equal(m, np.zeros((1, 1)))

    def test_symmetric_and_traceless(self):
        for m in random_symmetric_traceless(5, 10, seed=9):
            npt.assert_allclose(m, m.T, atol=1e-12)
            assert abs(np.trace(m)) <= 1e-12

    def test_deterministic(self):
        a = random_symmetric_traceless(4, 6, seed=123)
        b = random_symmetric_traceless(4, 6, seed=123)
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_seeds_differ(self):
        a = random_symmetric_traceless(4, 1, seed=1)[0]
        b = random_symmetric_traceless(4, 1, seed=2)[0]
        assert np.max(np.abs(a - b)) > 1e-3

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_symmetric_traceless(0, 1, seed=0)
        with pytest.raises(ValueError):
            random_symmetric_traceless(2, 0, seed=0)


# Seeds of one, two and seven 32-bit words; ranges across 2^32 and where index k passes 2^64.
STREAM_SEEDS = (11, 2**32 + 5, 2**200 + 17)
SEED_IDS = ("11", "2^32+5", "2^200+17")
STREAM_RANGES = (range(0, 300), range(2**32 - 150, 2**32 + 150), range(2**64 // 19 - 2, 2**64 // 19 + 3))


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestInstanceUniforms:
    @pytest.mark.parametrize("k", [1, 19, 57, 1027])
    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=SEED_IDS)
    def test_rows_are_the_counter_streams_bit_for_bit(self, seed, k):
        # row i against a generator of its own, PCG64(seed) advanced by index k doubles
        for indices in STREAM_RANGES:
            drawn = instance_uniforms(seed, indices, k)
            assert drawn.shape == (len(indices), k)
            want = np.array([draw_oracle.counter_rng(seed, index, k).random(k) for index in indices])
            assert np.array_equal(_bits(drawn), _bits(want)), (seed, indices)

    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=SEED_IDS)
    def test_rows_are_consecutive_blocks_of_the_seeds_one_stream(self, seed):
        # no jump-ahead on this side: one PCG64(seed) read from its first double
        stream = np.random.Generator(np.random.PCG64(seed)).random(60 * 57)
        for indices in (range(0, 60), range(17, 41), range(59, 60)):
            want = stream[57 * indices.start:57 * indices.stop].reshape(-1, 57)
            assert np.array_equal(_bits(instance_uniforms(seed, indices, 57)), _bits(want))

    def test_golden_streams(self):
        # literal doubles, not numpy's output: a numpy release that changed PCG64, its seeding or its
        # jump-ahead fails here instead of moving every sweep silently
        row = instance_uniforms(7, range(0, 1), 57)[0]
        assert [row[j].hex() for j in (0, 1, 2, 56)] == [
            "0x1.400c8353e3ca9p-1", "0x1.cb5f9b795e4cdp-1", "0x1.8d26acbf2815fp-1", "0x1.a1f71164c35edp-1"]
        row = instance_uniforms(2**200 + 17, range(2**33 + 1, 2**33 + 2), 5)[0]
        assert [x.hex() for x in row] == [
            "0x1.c152cc1971bfep-2", "0x1.a21f32d74cc00p-3", "0x1.54f9afae1afbap-2", "0x1.4612bfcdbf5cdp-1",
            "0x1.84ee0cc5240d7p-1"]
        inst = wg.random_instance(3, seed=11, index=3)
        assert [x.hex() for x in (inst.c, inst.f_val, inst.f_prime)] == [
            "-0x1.e29c57e900cecp+1", "0x1.c649eb88703bep-1", "0x1.32725f2a4c014p+0"]

    def test_empty_range(self):
        assert instance_uniforms(3, range(4, 4), 7).shape == (0, 7)

    @pytest.mark.parametrize("seed, indices", [(-1, range(0, 2)), (1, range(-1, 2))], ids=["seed", "index"])
    def test_negative_entropy_is_refused_as_numpy_refuses_it(self, seed, indices):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.PCG64(-1)  # numpy's own refusal of a seed, which advance() does not make of an index
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            instance_uniforms(seed, indices, 3)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            wg.random_instance(3, seed=seed, index=indices.start)

    def test_an_index_past_the_period_is_refused(self):
        # PCG64.advance reduces modulo the period 2^128, so index 2^128 // 57 would alias a lower one at k = 57
        last = 2**128 // 57 - 1  # its doubles end at 2^128 - 1 - 2^128 % 57
        inst = wg.random_instance(3, seed=13, index=last)
        fields, forms = draw_oracle.random_instances(3, *draw_oracle.DEFAULT_RANGES, 1.0, 13, [last])
        assert [inst.c, inst.f_val, inst.f_prime] == fields[0].tolist()
        assert inst._forms.tobytes() == forms[0].tobytes()
        message = f"^index {last + 1} reads past the stream's 2\\^128 doubles \\(57 per index\\)$"
        with pytest.raises(ValueError, match=message):
            wg.random_instance(3, seed=13, index=last + 1)
        with pytest.raises(ValueError, match=message):
            instance_uniforms(13, range(last, last + 2), 57)
        assert instance_uniforms(13, range(last + 1, last + 1), 57).shape == (0, 57)  # an empty range reads nothing

    def test_a_stepped_range_is_refused(self):
        with pytest.raises(ValueError, match="step 1"):
            instance_uniforms(3, range(0, 10, 2), 3)
