import functools
import operator

import numpy as np
import numpy.testing as npt
import pytest

import chain_oracle
import draw_oracle
import paper_checks as pc
import statwintgen.legendrian as lg
import statwintgen.wintgen as wg

from helpers import random_orthogonal


class TestLuInequality:
    def test_single_matrix(self):
        b = np.array([[1.0, 0.5], [0.5, -1.0]])
        res = pc.lu_inequality([b])
        assert res.lhs == 0.0
        assert res.rhs == (2.0 + 2 * 0.25) ** 2  # ||B||^4
        assert res.holds

    def test_equality_pair(self):
        mats = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        res = pc.lu_inequality(mats)
        assert res.lhs == 16.0
        assert res.rhs == 16.0
        assert res.holds
        assert res.gap == 0.0

    def test_random_sets_hold(self):
        rng = np.random.default_rng(55)
        for trial in range(500):
            dim = int(rng.integers(1, 7))
            count = int(rng.integers(1, 6))
            mats = pc.random_symmetric_traceless(dim, count, seed=trial)
            assert pc.lu_inequality(mats).holds

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            pc.lu_inequality([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            pc.lu_inequality([np.eye(2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pc.lu_inequality([])


class TestMainInequality:
    def test_umbilic_exact_values(self):
        rep = wg.main_inequality(lg.umbilic_instance())
        assert rep.lhs == 0.0
        assert abs(rep.rhs - 7.0) <= 1e-12
        assert abs(rep.slack - 7.0) <= 1e-12
        assert rep.holds
        assert abs(_left_to_right(rep.rhs_terms.values()) - rep.rhs) == 0.0

    def test_rhs_adds_the_terms_left_to_right(self):
        # builtin sum() compensates from CPython 3.12 on and would give 1.0 here
        assert wg._judge([1e16, 1.0, -1e16], 0.0)[:2] == (0.0, 0.0)

    def test_degenerate_zero_instance(self):
        rep = wg.main_inequality(lg.umbilic_instance(n=2, c=0.0, f_val=1.0, f_prime=0.0))
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.slack == 0.0
        assert rep.holds

    def test_printed_constant_value(self):
        assert wg.curvature_constant(0.0, 1.0, 1.0) == 1.0
        assert wg.curvature_constant(4.0, 1.0, 0.0) == 1.0
        assert wg.curvature_constant(-4.0, 1.0, 0.0) == 3.0

    def test_known_violation_of_printed_constant(self):
        """The totally geodesic cosymplectic instance with c > 0 breaks the
        stated bound while every earlier chain step and the rederived
        constant still hold; the gap is exactly 7 (c/4f^2 - (f'/f)^2)."""
        inst = lg.umbilic_instance(n=2, c=4.0, f_val=1.0, f_prime=0.0)
        rep = wg.main_inequality(inst)
        assert rep.lhs == 1.0
        assert rep.rhs == -5.0
        assert not rep.holds
        by_name = {s.step: s for s in rep.chain}
        for name in ("cauchy_schwarz", "s_operator_bound", "lu_bound", "substitution_bound"):
            assert by_name[name].holds, name
        assert not by_name["final_bound"].holds
        assert by_name["final_bound_rederived"].holds

    def test_constant_discrepancy_is_seven_d(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = rng.uniform(-4, 4)
            f = rng.uniform(0.5, 3)
            fp = rng.uniform(-2, 2)
            d = c / (4 * f * f) - (fp / f) ** 2
            printed = wg.curvature_constant(c, f, fp)
            rederived = wg.rederived_curvature_constant(c, f, fp)
            assert abs((printed - rederived) + 7.0 * d) <= 1e-12 * max(1.0, abs(d))

    def test_invalid_instance_rejected(self):
        inst = lg.umbilic_instance(n=2)
        h = inst.h.copy()
        h[2, 0, 1] = h[2, 1, 0] = 1.0
        bad = lg.LegendrianPointInstance(n=2, c=0.0, f_val=1.0, f_prime=1.0, h=h, h_star=inst.h_star)
        with pytest.raises(ValueError):
            wg.main_inequality(bad)


def _left_to_right(terms) -> float:
    return functools.reduce(operator.add, terms, 0.0)


class TestChain:
    def test_umbilic_lu_step_equality(self):
        inst = lg.umbilic_instance()
        chain = {s.step: s for s in wg.inequality_chain(inst, lg.curvature_scalars(inst))}
        assert chain["lu_bound"].lhs == 0.0
        assert chain["lu_bound"].rhs == 0.0
        assert chain["lu_bound"].holds

    def test_cauchy_schwarz_scalar_equality(self):
        # (l+m+n+w)^2 = 4(l^2+...) exactly at equal arguments
        for x in (0.3, -1.7, 2.0):
            assert (4 * x) ** 2 == 4 * (4 * x * x)

    def test_substitution_equals_lu_bound(self):
        # steps 3 and 4 are algebraic rewrites of one another
        for i in range(200):
            inst = wg.random_instance(n=2 + i % 4, seed=77, index=i)
            chain = {s.step: s for s in wg.inequality_chain(inst, lg.curvature_scalars(inst))}
            assert abs(chain["lu_bound"].rhs - chain["substitution_bound"].rhs) <= 1e-9 * max(
                1.0, abs(chain["lu_bound"].rhs)
            )

    def test_rederived_final_equals_substitution(self):
        # the rederived constant makes step 6 an exact rewrite of step 4
        for i in range(200):
            inst = wg.random_instance(n=2 + i % 4, seed=78, index=i)
            chain = {s.step: s for s in wg.inequality_chain(inst, lg.curvature_scalars(inst))}
            a = chain["substitution_bound"].rhs
            b = chain["final_bound_rederived"].rhs
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_early_steps_and_rederived_hold_on_sweep(self):
        for i in range(1000):
            inst = wg.random_instance(n=2 + i % 4, seed=13, index=i)
            for step in wg.inequality_chain(inst, lg.curvature_scalars(inst)):
                if step.step != "final_bound":
                    assert step.holds, (i, step.step)

    @staticmethod
    def _equality_instance(k, scale):
        """c = f' = 0 and h = h* umbilic in every phi-slice: lhs and rhs are both exactly 0."""
        rng = np.random.default_rng(k)
        n = 2 + k % 3
        h = np.zeros((n + 1, n, n))
        for alpha in range(n):
            h[alpha] = scale * rng.uniform(-1, 1) * np.eye(n)
        return lg.LegendrianPointInstance(n=n, c=0.0, f_val=1.0, f_prime=0.0, h=h, h_star=h.copy())

    @pytest.mark.parametrize("scale", [None, 1e3, 1e4], ids=["random", "equality-1e3", "equality-1e4"])
    def test_final_bound_is_the_reported_bound(self, scale):
        if scale is None:
            insts = [wg.random_instance(n, seed=41, index=i) for n in (2, 3, 5, 8) for i in range(40 // n)]
        else:
            insts = [self._equality_instance(k, scale) for k in range(400)]
        for inst in insts:
            rep = wg.main_inequality(inst)
            chain = {s.step: s for s in rep.chain}
            assert (chain["final_bound"].rhs, chain["final_bound"].holds) == (rep.rhs, rep.holds)
            swapped = wg.rederived_curvature_constant(rep.c, rep.f, rep.f_prime)
            rederived = {**rep.rhs_terms, "curvature_constant": swapped}
            assert chain["final_bound_rederived"].rhs == _left_to_right(rederived.values())

    def test_chain_ordering_monotone_through_step_two(self):
        # B1 <= B2 holds on the sweep domain f >= 1/2
        for i in range(300):
            inst = wg.random_instance(n=2 + i % 4, seed=21, index=i)
            chain = {s.step: s for s in wg.inequality_chain(inst, lg.curvature_scalars(inst))}
            assert chain["cauchy_schwarz"].rhs <= chain["s_operator_bound"].rhs + 1e-9


class TestChainArrays:
    """Steps 1-2, reduced as arrays, equal the per-pair loops of ``chain_oracle`` bit for bit."""

    @staticmethod
    def _assert_steps_equal_the_loops(inst):
        scalars = lg.curvature_scalars(inst)
        steps = wg.inequality_chain(inst, scalars)[:2]
        loops = chain_oracle.steps_one_two(inst)
        assert [(s.lhs, s.rhs, s.holds) for s in steps] == [
            (scalars.rho_perp, b, wg._judge([b], scalars.rho_perp)[2]) for b in loops]

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_seeded_instances(self, n, magnitude):
        insts = wg._random_instances(n, (-4.0, 4.0), (0.5, 3.0), (-2.0, 2.0), magnitude, 7, range(1000))
        for inst in insts:
            self._assert_steps_equal_the_loops(inst)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_umbilic_instances(self, n):
        self._assert_steps_equal_the_loops(lg.umbilic_instance(n))

    def test_rp2_instance(self):
        self._assert_steps_equal_the_loops(lg.umbilic_instance(n=2, c=4.0, f_val=1.0, f_prime=0.0))


class TestCorollaries:
    def test_kenmotsu_matches_main(self):
        inst = lg.umbilic_instance(n=2, c=0.0, f_val=1.0, f_prime=1.0)
        rep = pc.corollary_reports(inst, "kenmotsu")
        assert abs(rep.rhs - 7.0) <= 1e-12
        assert rep.rhs_terms["curvature_constant"] == 1.0

    def test_cosymplectic_constants(self):
        assert pc.corollary_constant("cosymplectic", 4.0) == 1.0
        assert pc.corollary_constant("cosymplectic", -4.0) == 3.0

    def test_cosymplectic_matches_main(self):
        for i, c in enumerate((4.0, -4.0, 1.3)):
            base = wg.random_instance(n=3, seed=2, index=i, f_range=(1.0, 1.0), fprime_range=(0.0, 0.0))
            inst = lg.LegendrianPointInstance(
                n=3, c=c, f_val=1.0, f_prime=0.0, h=base.h, h_star=base.h_star
            )
            rep = pc.corollary_reports(inst, "cosymplectic")
            main = wg.main_inequality(inst, include_chain=False)
            assert abs(rep.rhs - main.rhs) <= 1e-12

    def test_parameter_gate(self):
        inst = lg.umbilic_instance(n=2, c=1.0, f_val=1.0, f_prime=1.0)
        with pytest.raises(ValueError):
            pc.corollary_reports(inst, "kenmotsu")
        with pytest.raises(ValueError):
            pc.corollary_reports(lg.umbilic_instance(), "cosymplectic")
        with pytest.raises(ValueError):
            pc.corollary_reports(lg.umbilic_instance(), "sasakian")


class TestRandomInstance:
    def test_zero_magnitude_is_umbilic_type(self):
        inst = wg.random_instance(n=3, magnitude=0.0, seed=1, index=0)
        npt.assert_array_equal(inst.h[:3], np.zeros((3, 3, 3)))
        npt.assert_allclose(inst.h[3], -(inst.f_prime / inst.f_val) * np.eye(3), atol=0)

    def test_output_validates(self):
        for i in range(100):
            inst = wg.random_instance(n=2 + i % 4, seed=10, index=i)
            assert lg.validate(inst) == []

    def test_deterministic(self):
        a = wg.random_instance(n=4, seed=42, index=7)
        b = wg.random_instance(n=4, seed=42, index=7)
        assert a.to_json() == b.to_json()

    def test_distinct_indices_differ(self):
        a = wg.random_instance(n=2, seed=42, index=0)
        b = wg.random_instance(n=2, seed=42, index=1)
        assert a.to_json() != b.to_json()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            wg.random_instance(n=1, seed=0)
        with pytest.raises(ValueError):
            wg.random_instance(n=2, f_range=(0.0, 1.0), seed=0)

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"index": -1}], ids=["seed", "index"])
    def test_negative_seed_or_index_is_refused_as_numpy_refuses_it(self, kwargs):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            wg.random_instance(3, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"magnitude": 1e308}, {"magnitude": np.inf}, {"c_range": (-1e308, 1e308)}, {"fprime_range": (-np.inf, 0.0)}],
        ids=["magnitude", "magnitude-inf", "c_range", "fprime_range"],
    )
    def test_unbounded_range_is_refused_as_numpy_refuses_it(self, kwargs):
        with pytest.raises(OverflowError, match="^high - low range exceeds valid bounds$"):
            wg.random_instance(3, seed=0, **kwargs)
        with pytest.raises(OverflowError, match="^high - low range exceeds valid bounds$"):
            wg.sweep(3, 2, 0, **kwargs)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):  # numpy refuses the seed first
            wg.sweep(3, 2, -1, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"magnitude": 0.0}, {"magnitude": 1000.0}, {"c_range": (2.5, 2.5), "f_range": (1.0, 1.0)},
         {"c_range": (-7, 3), "fprime_range": (-0.0, -0.0), "magnitude": 3}],
        ids=["default", "magnitude-0", "magnitude-1000", "equal-ends", "ints-and-minus-zero"],
    )
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_chunk_draws_equal_the_per_index_loop_bit_for_bit(self, n, kwargs):
        ranges = {"c_range": (-4.0, 4.0), "f_range": (0.5, 3.0), "fprime_range": (-2.0, 2.0), "magnitude": 1.0}
        args = {**ranges, **kwargs}
        for seed, indices in [(11, range(0, 40)), (2**32 + 5, range(2**32 - 3, 2**32 + 3)),
                              (2**200 + 17, range(2**64 // 19 - 2, 2**64 // 19 + 2))]:
            fields, forms = wg._draw(n, *args.values(), seed, indices)
            want_fields, want_forms = draw_oracle.random_instances(n, *args.values(), seed, indices)
            assert fields.dtype == want_fields.dtype == float
            assert np.array_equal(fields.view(np.uint64), want_fields.view(np.uint64))
            assert np.array_equal(forms.view(np.uint64), want_forms.view(np.uint64))  # xi-slices included

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_every_chunk_row_is_its_lone_draw(self, n):
        # overlapping chunks, a pair across the 2^32 index boundary and one where index k passes 2^64:
        # a row depends on its index alone
        for seed, start in [(11, 0), (2**32 + 5, 2**32 - 6), (2**200 + 17, 2**64 // 19 - 6)]:
            for first, stop in [(start, start + 9), (start + 4, start + 12)]:
                chunk = wg._draw(n, *draw_oracle.DEFAULT_RANGES, 1.0, seed, range(first, stop))
                for row, index in enumerate(range(first, stop)):
                    alone = wg._draw(n, *draw_oracle.DEFAULT_RANGES, 1.0, seed, range(index, index + 1))
                    assert all(got[row].tobytes() == want[0].tobytes() for got, want in zip(chunk, alone)), index


class TestSweep:
    def test_reports_deterministic(self):
        a = wg.sweep(n=3, count=20, seed=5)
        b = wg.sweep(n=3, count=20, seed=5)
        for ra, rb in zip(a, b):
            assert ra.as_dict() == rb.as_dict()

    def test_rederived_bound_holds(self):
        for i in range(500):
            rep = wg.main_inequality(wg.random_instance(2, seed=3, index=i))
            by_name = {s.step: s for s in rep.chain}
            assert by_name["final_bound_rederived"].holds

    @pytest.mark.parametrize("chunk", [None, 4], ids=["one-chunk", "chunks-of-4"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reports_equal_single_instance_evaluations_bit_for_bit(self, n, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(wg, "sweep_chunk", lambda n: chunk)
        count, seed = 10, 89
        kwargs = {"c_range": (-4.0, 4.0), "magnitude": 1000.0} if n == 3 else {}
        swept = wg.sweep(n=n, count=count, seed=seed, **kwargs)
        # each fresh instance has nothing memoized, so main_inequality takes the B = 1 path
        alone = [wg.main_inequality(wg.random_instance(n, seed=seed, index=k, **kwargs), seed=f"{seed}-{k}",
                                    include_chain=False) for k in range(count)]
        assert [repr(r.as_dict()) for r in swept] == [repr(r.as_dict()) for r in alone]

    @pytest.mark.parametrize("count", [0, 5])
    @pytest.mark.parametrize(
        "kwargs, message",
        [({"n": 1}, "n must be >= 2"), ({"n": 0}, "n must be >= 2"),
         ({"c_range": (3.0, -3.0)}, "c_range must have low <= high"),
         ({"f_range": (2.0, 1.0)}, "f_range must have low <= high"),
         ({"fprime_range": (1.0, 0.0)}, "fprime_range must have low <= high"),
         ({"magnitude": -1.0}, "magnitude must be >= 0"),
         ({"f_range": (0.0, 1.0)}, "f_range must be positive")],
        ids=["n1", "n0", "c_range", "f_range", "fprime_range", "magnitude", "f_range_positive"],
    )
    def test_bad_args_are_refused_before_any_draw(self, kwargs, message, count):
        # count = 0 draws nothing, so a check made while drawing would let it through
        with pytest.raises(ValueError, match=message + ", got "):
            wg.sweep(**{"n": 2, **kwargs}, count=count, seed=0)
        with pytest.raises(ValueError, match=message + ", got "):  # one instance: the same check
            wg.random_instance(**{"n": 2, **kwargs}, seed=0, index=count)

    def test_chunks_bound_the_kernel_scratch(self):
        assert wg.sweep_chunk(3) >= 100
        assert [wg.sweep_chunk(n) for n in (40, 400)] == [1, 1]
        assert all(wg.sweep_chunk(n) >= wg.sweep_chunk(n + 1) for n in range(2, 40))

    @pytest.mark.parametrize(
        "ranges", [((-4.0, 4.0), (0.5, 3.0), (-2.0, 2.0)), ((1.0, 7.5), (2.0, 2.0), (-0.3, 9.0))], ids=["default", "other"]
    )
    def test_scalar_parameter_draws_equal_the_zipped_draw(self, ranges):
        # c, f and f' are the first three doubles of the instance's 19 (n = 2)
        for index in range(1000):
            old = tuple(map(float, draw_oracle.counter_rng(7, index, 19).uniform(*zip(*ranges))))
            inst = wg.random_instance(2, *ranges, seed=7, index=index)
            assert (inst.c, inst.f_val, inst.f_prime) == old


class TestSharpness:
    def test_zero_family_converges_to_zero(self):
        res = wg.sharpness_search(n=2, c=0.0, f=1.0, fprime=0.0, iterations=3000, seed=5)
        assert res.min_slack < 1e-6
        assert res.min_slack >= -1e-9
        assert not res.hard_violation

    def test_trace_monotone(self):
        res = wg.sharpness_search(n=2, c=0.0, f=1.0, fprime=0.0, iterations=1500, seed=9)
        assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))

    def test_umbilic_family_bounded_below(self):
        # with c = 0 the stated constant exceeds the rederived one by
        # 7 (f'/f)^2 = 7, so the slack cannot drop below 7 on this family
        res = wg.sharpness_search(n=2, c=0.0, f=1.0, fprime=1.0, iterations=4000, seed=2)
        assert res.min_slack >= 7.0 - 1e-9
        assert not res.hard_violation

    def test_positive_c_family_finds_hard_violation(self):
        res = wg.sharpness_search(n=2, c=4.0, f=1.0, fprime=0.0, iterations=2000, seed=4)
        assert res.min_slack < -1e-9
        assert res.hard_violation

    def test_requires_budget(self):
        with pytest.raises(ValueError, match="^iterations must be >= 1, got 0$"):
            wg.sharpness_search(n=2, c=0.0, f=1.0, fprime=0.0, iterations=0, seed=0)


class TestInvariances:
    """Reference-free checks: symmetries of the bound leave lhs and rhs unchanged."""

    DIMS = (2, 3, 5)

    def _instances(self):
        for k in range(200):
            yield wg.random_instance(n=self.DIMS[k % 3], seed=71, index=k)

    @staticmethod
    def _assert_same_bound(a, b):
        ra = wg.main_inequality(a, include_chain=False)
        rb = wg.main_inequality(b, include_chain=False)
        assert rb.lhs == pytest.approx(ra.lhs, rel=1e-12, abs=0.0)
        assert rb.rhs == pytest.approx(ra.rhs, rel=1e-12, abs=0.0)

    def test_frame_rotation(self):
        rng = np.random.default_rng(73)
        for inst in self._instances():
            n = inst.n
            q = random_orthogonal(n, rng)

            def rotate(form):
                # h[alpha] -> sum_beta Q_alpha,beta Q h[beta] Q^T on the phi-slots; the
                # xi-slice -(f'/f) I is fixed by the rotation and kept exact.
                out = form.copy()
                rotated = np.einsum("ab,ij,bjk,lk->ail", q, q, form[:n], q)
                out[:n] = 0.5 * (rotated + rotated.swapaxes(1, 2))
                return out

            turned = lg.LegendrianPointInstance(n=n, c=inst.c, f_val=inst.f_val, f_prime=inst.f_prime,
                                                h=rotate(inst.h), h_star=rotate(inst.h_star))
            self._assert_same_bound(inst, turned)

    def test_swap_of_the_dual_forms(self):
        for inst in self._instances():
            swapped = lg.LegendrianPointInstance(n=inst.n, c=inst.c, f_val=inst.f_val, f_prime=inst.f_prime,
                                                 h=inst.h_star, h_star=inst.h)
            self._assert_same_bound(inst, swapped)
