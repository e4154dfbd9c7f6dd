import math
import re

import numpy as np
import numpy.testing as npt
import pytest

import draw_oracle
import frame_oracle
import kernel_oracle
import statwintgen.legendrian as lg
import statwintgen.wintgen as wg


class TestValidate:
    def test_umbilic_ok(self):
        assert lg.validate(lg.umbilic_instance()) == []

    def test_xi_offdiagonal_flagged(self):
        inst = lg.umbilic_instance(n=2)
        h = inst.h.copy()
        h[2, 0, 1] = h[2, 1, 0] = 0.5
        bad = lg.LegendrianPointInstance(n=2, c=0.0, f_val=1.0, f_prime=1.0, h=h, h_star=inst.h_star)
        violations = lg.validate(bad)
        assert ("h", 2, 0, 1) in violations

    def test_asymmetric_slice_flagged(self):
        inst = lg.umbilic_instance(n=2)
        h = inst.h.copy()
        h[0, 0, 1] = 0.3  # not mirrored
        bad = lg.LegendrianPointInstance(n=2, c=0.0, f_val=1.0, f_prime=1.0, h=h, h_star=inst.h_star)
        assert any(v[0] == "h" and v[1] == 0 for v in lg.validate(bad))

    def test_cosymplectic_zero_xi_slices(self):
        inst = lg.umbilic_instance(n=3, f_prime=0.0)
        npt.assert_array_equal(inst.h[3], np.zeros((3, 3)))
        assert lg.validate(inst) == []

    def test_roundtrip_serialization(self):
        inst = wg.random_instance(n=3, seed=5, index=2)
        again = lg.LegendrianPointInstance.from_json(inst.to_json())
        npt.assert_array_equal(inst.h, again.h)
        npt.assert_array_equal(inst.h_star, again.h_star)
        assert (inst.n, inst.c, inst.f_val, inst.f_prime) == (
            again.n,
            again.c,
            again.f_val,
            again.f_prime,
        )


class TestMeansAndTraceless:
    def test_umbilic_norms(self):
        m = lg.means_and_traceless(lg.umbilic_instance())
        assert m.norm_H_sq == 1.0
        assert m.norm_Hstar_sq == 1.0
        assert m.norm_H0_sq == 1.0
        assert m.norm_tau_sq == 0.0
        assert m.norm_taustar_sq == 0.0
        assert m.norm_tau0_sq == 0.0

    def test_zero_instance(self):
        m = lg.means_and_traceless(lg.umbilic_instance(n=2, f_prime=0.0))
        for value in (m.norm_H_sq, m.norm_Hstar_sq, m.norm_H0_sq, m.norm_tau_sq):
            assert value == 0.0

    def test_parallelogram_bound(self):
        for i in range(50):
            inst = wg.random_instance(n=2 + i % 4, seed=31, index=i)
            m = lg.means_and_traceless(inst)
            assert 4.0 * m.norm_H0_sq <= 2.0 * m.norm_H_sq + 2.0 * m.norm_Hstar_sq + 1e-12

    def test_invalid_instance_rejected(self):
        inst = lg.umbilic_instance(n=2)
        h = inst.h.copy()
        h[2, 0, 0] = 5.0
        bad = lg.LegendrianPointInstance(n=2, c=0.0, f_val=1.0, f_prime=1.0, h=h, h_star=inst.h_star)
        with pytest.raises(ValueError):
            lg.means_and_traceless(bad)


class TestShapeOperators:
    def test_umbilic_xi_operator(self):
        ops = lg.shape_operators(lg.umbilic_instance(n=2))
        npt.assert_array_equal(ops.A[2], -np.eye(2))
        npt.assert_array_equal(ops.S[2], np.zeros((2, 2)))

    def test_traceless(self):
        inst = wg.random_instance(n=4, seed=3, index=0)
        ops = lg.shape_operators(inst)
        for group in (ops.S, ops.S_star, ops.S0):
            for alpha in range(inst.n + 1):
                assert abs(np.trace(group[alpha])) <= 1e-12

    def test_commutators_drop_identity_part(self):
        inst = wg.random_instance(n=3, seed=4, index=1)
        ops = lg.shape_operators(inst)
        for r in range(3):
            for s in range(3):
                lhs = ops.S[r] @ ops.S[s] - ops.S[s] @ ops.S[r]
                rhs = ops.A[r] @ ops.A[s] - ops.A[s] @ ops.A[r]
                npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_zero_instance(self):
        ops = lg.shape_operators(lg.umbilic_instance(n=2, f_prime=0.0))
        npt.assert_array_equal(ops.A, np.zeros((3, 2, 2)))


class TestGaussSectional:
    def test_umbilic_vanishes(self):
        inst = lg.umbilic_instance(n=2)
        assert frame_oracle.gauss_sectional(inst, 0, 1, "nabla") == 0.0
        assert frame_oracle.gauss_sectional(inst, 0, 1, "nabla_star") == 0.0

    def test_zero_instance(self):
        inst = lg.umbilic_instance(n=3, c=0.0, f_prime=0.0)
        assert frame_oracle.gauss_sectional(inst, 0, 2) == 0.0

    def test_space_form_term_only(self):
        inst = lg.umbilic_instance(n=2, c=4.0, f_val=1.0, f_prime=0.0)
        assert frame_oracle.gauss_sectional(inst, 0, 1) == 1.0

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            frame_oracle.gauss_sectional(lg.umbilic_instance(), 1, 1)


class TestRhoTwoPaths:
    """The closed-form scalars against the definitional frame sums."""

    def test_umbilic_rho_zero(self):
        inst = lg.umbilic_instance()
        assert frame_oracle.rho(inst) == 0.0 and abs(lg.rho_statistical(inst)) <= 1e-15

    def test_random_agreement(self):
        for i in range(2000):
            inst = wg.random_instance(n=2 + i % 4, seed=99, index=i)
            assert abs(lg.rho_statistical(inst) - frame_oracle.rho(inst)) <= 1e-10
            assert abs(lg.rho_perp_statistical(inst) - frame_oracle.rho_perp(inst)) <= 1e-10

    def test_rho_perp_nonnegative(self):
        for i in range(200):
            inst = wg.random_instance(n=2 + i % 4, seed=17, index=i)
            assert lg.rho_perp_statistical(inst) >= 0.0

    def test_xi_pairs_contribute_exact_zero(self):
        for i in range(100):
            inst = wg.random_instance(n=3, seed=29, index=i)
            n = inst.n
            for r in range(n):
                for i_ in range(n):
                    for j_ in range(i_ + 1, n):
                        assert frame_oracle.normal_curvature_entry(inst, r, n, i_, j_) == 0.0

    def test_zero_phi_slices_kill_commutators(self):
        for i in range(20):
            base = wg.random_instance(n=3, seed=41, index=i)
            h = base.h.copy()
            hs = base.h_star.copy()
            h[:3] = 0.0
            hs[:3] = 0.0
            inst = lg.LegendrianPointInstance(
                n=3, c=base.c, f_val=base.f_val, f_prime=base.f_prime, h=h, h_star=hs
            )
            n = inst.n
            cterm = 2.0 * inst.c / (4.0 * inst.f_val**2)
            for r in range(n):
                for s in range(r + 1, n):
                    for i_ in range(n):
                        for j_ in range(i_ + 1, n):
                            entry = frame_oracle.normal_curvature_entry(inst, r, s, i_, j_)
                            expected = -cterm if (i_ == r and j_ == s) else 0.0
                            assert entry == expected

    def test_worked_zero_slice_example(self):
        # n=2, c=4, f=1, zero phi-slices: single pair bracket -2, rho_perp = 1
        inst = lg.umbilic_instance(n=2, c=4.0, f_val=1.0, f_prime=0.0)
        assert lg.rho_perp_statistical(inst) == 1.0
        assert lg.rho_statistical(inst) == 1.0


class TestRhoLeviCivita:
    def test_umbilic(self):
        assert lg.rho_levicivita(lg.umbilic_instance()) == 0.0

    def test_zero(self):
        assert lg.rho_levicivita(lg.umbilic_instance(n=2, c=0.0, f_prime=0.0)) == 0.0

    def test_space_form_only(self):
        assert lg.rho_levicivita(lg.umbilic_instance(n=2, c=4.0, f_val=1.0, f_prime=0.0)) == 1.0


def test_curvature_scalars_bundle():
    inst = wg.random_instance(n=3, seed=2, index=5)
    s = lg.curvature_scalars(inst)
    assert s.rho_perp >= 0.0
    assert s.norm_tau_sq >= 0.0
    m = lg.means_and_traceless(inst)
    assert s.norm_H_sq == m.norm_H_sq


# ---------------------------------------------------------------------------
# The scalar API against the per-entry oracle loops
# ---------------------------------------------------------------------------

ORACLE_DIMS = (2, 3, 5, 8)


def _oracle_instances(n, count=25):
    return [wg.random_instance(n=n, seed=61, index=k) for k in range(count)]


def _random_instance_reference(n, seed, index, magnitude=1.0):
    """Field-by-field draw from the instance's own generator: c, f, f', then every phi-slice of h, then of h*."""
    rng = draw_oracle.counter_rng(seed, index, 3 + 2 * n**3)
    c = float(rng.uniform(-4.0, 4.0))
    f = float(rng.uniform(0.5, 3.0))
    fp = float(rng.uniform(-2.0, 2.0))
    h = np.zeros((n + 1, n, n))
    hs = np.zeros((n + 1, n, n))
    for target in (h, hs):
        for alpha in range(n):
            raw = np.triu(rng.uniform(-magnitude, magnitude, size=(n, n)))
            target[alpha] = raw + np.triu(raw, 1).T
        target[n] = -(fp / f) * np.eye(n)
    return c, f, fp, h, hs


@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_rho_path_a_matches_gauss_sectional_loop(n):
    for inst in _oracle_instances(n):
        assert abs(lg.rho_statistical(inst) - frame_oracle.rho(inst)) <= 1e-13


@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_rho_perp_path_a_matches_normal_curvature_entry_loop(n):
    for inst in _oracle_instances(n, count=10 if n == 8 else 25):
        assert abs(lg.rho_perp_statistical(inst) - frame_oracle.rho_perp(inst)) <= 1e-13


# The sweeps ``--magnitude 1000`` and ``--fprime-min 500 --fprime-max 600``: the
# terms of rho cancel by about 1e6, so both routes err relative to the size of
# those terms, not of rho itself.
LARGE_FAMILIES = {"magnitude-1000": {"magnitude": 1000.0}, "fprime-500-600": {"fprime_range": (500.0, 600.0)}}


def _term_scale(inst):
    """1 + |c|/4f^2 + (f'/f)^2 + ||h||^2 + ||h*||^2."""
    return (1.0 + abs(inst.c) / (4.0 * inst.f_val**2) + (inst.f_prime / inst.f_val) ** 2
            + float(np.sum(inst.h**2)) + float(np.sum(inst.h_star**2)))


@pytest.mark.parametrize("family", LARGE_FAMILIES.values(), ids=LARGE_FAMILIES)
def test_large_families_match_the_oracle(family):
    for index in range(200):
        inst = wg.random_instance(n=3, seed=7, index=index, **family)
        tol = 1e-12 * _term_scale(inst)
        assert abs(lg.rho_statistical(inst) - frame_oracle.rho(inst)) <= tol
        assert abs(lg.rho_perp_statistical(inst) - frame_oracle.rho_perp(inst)) <= tol
        m = lg.means_and_traceless(inst)
        h0 = 0.5 * (inst.h + inst.h_star)
        for form, tau_sq in ((inst.h, m.norm_tau_sq), (inst.h_star, m.norm_taustar_sq), (h0, m.norm_tau0_sq)):
            mean = np.trace(form, axis1=1, axis2=2) / inst.n
            assert abs(tau_sq - (np.sum(form**2) - inst.n * (mean @ mean))) <= tol


@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_random_instance_matches_field_by_field_draws(n):
    for index in range(20):
        inst = wg.random_instance(n=n, seed=23, index=index)
        c, f, fp, h, hs = _random_instance_reference(n, 23, index)
        assert (inst.c, inst.f_val, inst.f_prime) == (c, f, fp)
        assert inst.h.tobytes() == h.tobytes()
        assert inst.h_star.tobytes() == hs.tobytes()


# ---------------------------------------------------------------------------
# Memoized derived data and the instance boundary
# ---------------------------------------------------------------------------


class TestMemoization:
    def test_instance_arrays_are_read_only(self):
        inst = wg.random_instance(n=3, seed=7, index=0)
        with pytest.raises(ValueError):
            inst.h[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            inst.h_star[0, 0, 0] = 1.0

    def test_derived_arrays_are_read_only(self):
        inst = wg.random_instance(n=3, seed=7, index=1)
        with pytest.raises(ValueError):
            lg.shape_operators(inst).A[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            lg.means_and_traceless(inst).H[0] = 1.0

    def test_repeat_calls_return_the_memoized_value(self):
        inst = wg.random_instance(n=3, seed=7, index=2)
        assert lg.means_and_traceless(inst) is lg.means_and_traceless(inst)
        assert lg.shape_operators(inst) is lg.shape_operators(inst)

    def test_small_asymmetry_is_a_violation_on_every_call(self):
        inst = lg.umbilic_instance(n=2)
        h = inst.h.copy()
        h[2, 0, 1] = h[2, 1, 0] = 1e-6
        nearly = lg.LegendrianPointInstance(n=2, c=0.0, f_val=1.0, f_prime=1.0, h=h, h_star=inst.h_star)
        strict = lg.validate(nearly)
        assert strict == [("h", 2, 0, 1), ("h", 2, 1, 0)]
        assert lg.validate(nearly) == strict

    def test_returned_violation_list_is_a_copy(self):
        inst = lg.umbilic_instance(n=2)
        lg.validate(inst).append(("h", 0, 0, 1))
        assert lg.validate(inst) == []

    def test_instances_from_the_same_arrays_share_nothing(self):
        base = wg.random_instance(n=3, seed=7, index=3)
        a = lg.LegendrianPointInstance(n=3, c=base.c, f_val=base.f_val, f_prime=base.f_prime,
                                       h=base.h, h_star=base.h_star)
        b = lg.LegendrianPointInstance(n=3, c=base.c, f_val=base.f_val, f_prime=base.f_prime,
                                       h=base.h, h_star=base.h_star)
        assert not np.shares_memory(a.h, b.h)
        ma, mb = lg.means_and_traceless(a), lg.means_and_traceless(b)
        oa, ob = lg.shape_operators(a), lg.shape_operators(b)
        assert ma is not mb and oa is not ob
        assert not np.shares_memory(ma.H, mb.H)
        assert not np.shares_memory(oa.A, ob.A) and not np.shares_memory(oa.S0, ob.S0)
        npt.assert_array_equal(ma.H, mb.H)
        npt.assert_array_equal(oa.S0, ob.S0)


class TestInstanceBoundary:
    def _fields(self, **overrides):
        inst = lg.umbilic_instance(n=2)
        fields = dict(n=2, c=inst.c, f_val=inst.f_val, f_prime=inst.f_prime, h=inst.h, h_star=inst.h_star)
        fields.update(overrides)
        return fields

    @pytest.mark.parametrize("name", ["c", "f_val", "f_prime"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalars_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            lg.LegendrianPointInstance(**self._fields(**{name: value}))

    @pytest.mark.parametrize("name", ["h", "h_star"])
    def test_non_finite_forms_rejected(self, name):
        form = lg.umbilic_instance(n=2).h.copy()
        form[0, 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            lg.LegendrianPointInstance(**self._fields(**{name: form}))

    def test_n_below_two_rejected(self):
        zero = np.zeros((2, 1, 1))
        with pytest.raises(ValueError, match="n must be >= 2"):
            lg.LegendrianPointInstance(n=1, c=0.0, f_val=1.0, f_prime=0.0, h=zero, h_star=zero)

    @pytest.mark.parametrize("key", ["n", "c", "f", "f_prime", "h", "h_star"])
    def test_from_dict_names_the_missing_key(self, key):
        data = lg.umbilic_instance(n=2).to_dict()
        del data[key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            lg.LegendrianPointInstance.from_dict(data)


# ---------------------------------------------------------------------------
# The fused kernel: cached per-n constants, bitwise equality with the plain
# per-form formulas, and no state carried between dimensions
# ---------------------------------------------------------------------------


def _plain_mean_norms(inst):
    """Squared traceless norms of h, h*, h0, one form at a time, in the kernel's operation order."""
    n = inst.n
    H = np.einsum("aii->a", inst.h) / n
    Hs = np.einsum("aii->a", inst.h_star) / n
    out = []
    for form, mean in ((inst.h, H), (inst.h_star, Hs), (0.5 * (inst.h + inst.h_star), 0.5 * (H + Hs))):
        tau = form - mean[:, None, None] * np.eye(n)
        out.append(float(np.sum(tau * tau)))
    return out


def _plain_rho_perp(inst):
    """Brackets of every slot pair r, s by broadcasting, then the phi-pair entries (j, i), i < j."""
    n = inst.n
    ops = lg.shape_operators(inst)

    def brackets(x):
        return x[:, None] @ x[None] - x[None] @ x[:, None]

    comm = 4.0 * brackets(ops.A0[:n]) - brackets(ops.A[:n]) - brackets(ops.A_star[:n])
    i, j = np.triu_indices(n, 1)
    entries = comm[i[:, None], j[:, None], j, i]
    entries -= 2.0 * inst.c / (4.0 * inst.f_val**2) * np.eye(len(i))
    return math.sqrt(float(np.sum(entries * entries))) / (n * (n - 1))


def _evaluation(inst):
    """Every derived value of one evaluation, as exact bytes and reprs."""
    m = lg.means_and_traceless(inst)
    ops = lg.shape_operators(inst)
    arrays = (inst.h, inst.h_star, m.H, m.H_star, m.H0, ops.A, ops.A_star, ops.A0, ops.S, ops.S_star, ops.S0)
    report = wg.main_inequality(inst, include_chain=True)
    return [a.tobytes() for a in arrays] + [repr(report.as_dict())]


class TestFusedKernel:
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_cached_constants_are_read_only(self, n):
        constants = [*lg._frame(n), wg._upper_gather(n, n * n), wg._upper_gather(n, n * (n + 1) // 2)]
        for array in constants:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]

    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_norms_equal_the_per_form_formulas_bit_for_bit(self, n):
        for inst in _oracle_instances(n):
            m = lg.means_and_traceless(inst)
            assert [m.norm_tau_sq, m.norm_taustar_sq, m.norm_tau0_sq] == _plain_mean_norms(inst)

    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_rho_perp_equals_the_all_pairs_brackets_bit_for_bit(self, n):
        for inst in _oracle_instances(n):
            assert lg.rho_perp_statistical(inst) == _plain_rho_perp(inst)

    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_rho_perp_matches_the_frame_oracle(self, n):
        insts = _oracle_instances(n, count=10 if n == 8 else 25)
        insts += [wg.random_instance(n, seed=61, index=k, magnitude=1000.0) for k in range(5)]
        insts.append(lg.umbilic_instance(n, c=4.0, f_val=1.0, f_prime=0.0))  # the space-form term alone
        for inst in insts:
            assert lg.rho_perp_statistical(inst) == pytest.approx(frame_oracle.rho_perp(inst), rel=1e-12, abs=0.0)

    def test_interleaved_dimensions_match_first_evaluations(self):
        def make(n, k):
            return wg.random_instance(n, c_range=(1.0, 4.0), seed=67, index=k)

        order = [(2, 0), (8, 0), (3, 0), (2, 1)]
        first = {}
        for key in order:  # each on cold caches, as the first evaluation of a process
            lg._frame.cache_clear()
            wg._upper_gather.cache_clear()
            first[key] = _evaluation(make(*key))
        evaluated = []
        for key in order:
            inst = make(*key)
            assert _evaluation(inst) == first[key], key
            evaluated.append((key, inst))
        for key, inst in evaluated:  # later dimensions left the memoized data alone
            assert _evaluation(inst) == first[key], key


def _kernel_stack(n, count):
    """(count, 2, n+1, n, n) forms with exact zeros of both signs and means of both signs, and (count,) c-terms."""
    rng = np.random.default_rng(7 * n + count)
    forms = rng.uniform(-1.0, 1.0, (count, 2, n + 1, n, n)) * 10.0 ** rng.integers(-3, 4, (count, 2, n + 1, 1, 1))
    zeros = rng.random(forms.shape)
    forms[zeros < 0.3] = 0.0
    forms[zeros > 0.7] = -0.0
    return forms, rng.uniform(-2.0, 2.0, count)


class TestLeanKernel:
    @pytest.mark.parametrize("count", [1, 2, 7, 42])
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_kernel_equals_the_means_times_identity_kernel(self, n, count):
        forms, cterm = _kernel_stack(n, count)
        got, want = lg._derive_arrays(forms, cterm), kernel_oracle.derive_arrays(forms, cterm)
        assert [a.shape for a in got] == [a.shape for a in want]
        for a, b in zip(got[1:], want[1:]):  # means, their squared norms, traceless norms, rho_perp
            assert a.tobytes() == b.tobytes()
        (ops, s), (oracle_ops, oracle_s) = (got[0][:, :3], got[0][:, 3:]), (want[0][:, :3], want[0][:, 3:])
        assert ops.tobytes() == oracle_ops.tobytes()
        npt.assert_array_equal(s, oracle_s)  # S by value: only exact-zero off-diagonal entries change sign
        signs = np.signbit(s) != np.signbit(oracle_s)
        assert not (signs & ((s != 0.0) | np.eye(n, dtype=bool))).any()

    def test_some_zero_of_s_changes_sign(self):
        # A - 0.0 * H reads +0.0 where A = -0.0 and H <= -0.0; the diagonal subtraction keeps -0.0
        forms, cterm = _kernel_stack(3, 42)
        s = lg._derive_arrays(forms, cterm)[0][:, 3:]
        assert (np.signbit(s) != np.signbit(kernel_oracle.derive_arrays(forms, cterm)[0][:, 3:])).any()


class TestOneDerivation:
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_traceless_operators_subtract_the_means(self, n):
        insts = _oracle_instances(n, count=10)
        insts += [wg.random_instance(n, seed=61, index=k, magnitude=1000.0) for k in range(5)]
        insts.append(lg.umbilic_instance(n, c=1.0, f_val=1.5, f_prime=0.7))
        for inst in insts:
            m, ops = lg.means_and_traceless(inst), lg.shape_operators(inst)
            h0 = 0.5 * (inst.h_star + inst.h)
            for got, form, mean, norm_sq in ((ops.S, inst.h_star, m.H_star, m.norm_taustar_sq),
                                             (ops.S_star, inst.h, m.H, m.norm_tau_sq),
                                             (ops.S0, h0, m.H0, m.norm_tau0_sq)):
                npt.assert_array_equal(got, form - mean[:, None, None] * np.eye(n))
                assert float(np.sum(got * got)) == pytest.approx(norm_sq, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("first", ["means_and_traceless", "shape_operators", "rho_perp_statistical"])
    def test_derivation_runs_once_whichever_is_called_first(self, first, monkeypatch):
        derive_rows = lg._derive_rows
        calls = []
        monkeypatch.setattr(lg, "_derive_rows", lambda forms, cterm: calls.append(forms) or derive_rows(forms, cterm))
        inst = wg.random_instance(3, seed=71, index=0)  # a lone draw derives on first use, as a constructed instance
        assert calls == []
        getattr(lg, first)(inst)
        for fn in (lg.means_and_traceless, lg.shape_operators, lg.rho_perp_statistical, lg.curvature_scalars):
            fn(inst)
        wg.main_inequality(inst, include_chain=True)
        assert len(calls) == 1 and calls[0].tobytes() == inst._forms[None].tobytes()


# ---------------------------------------------------------------------------
# The stacked pass against the B = 1 call of the same kernel
# ---------------------------------------------------------------------------


def _copy(inst):
    """A fresh instance with the same fields: nothing memoized, so every accessor takes the B = 1 path."""
    return lg.LegendrianPointInstance(n=inst.n, c=inst.c, f_val=inst.f_val, f_prime=inst.f_prime,
                                      h=inst.h, h_star=inst.h_star)


def _derived_bytes(inst):
    m, ops = lg.means_and_traceless(inst), lg.shape_operators(inst)
    return ([a.tobytes() for a in (m.H, m.H_star, m.H0, ops.stack)]
            + [repr(v) for v in (m.norm_H_sq, m.norm_Hstar_sq, m.norm_H0_sq, m.norm_tau_sq,
                                 m.norm_taustar_sq, m.norm_tau0_sq, lg.rho_perp_statistical(inst))])


def _asymmetric(n):
    inst = wg.random_instance(n, seed=73, index=1)
    h = inst.h.copy()
    h[n - 1, 0, 1] += 0.25  # a phi-slice, not mirrored
    return lg.LegendrianPointInstance(n=n, c=inst.c, f_val=inst.f_val, f_prime=inst.f_prime, h=h,
                                      h_star=inst.h_star)


def _wrong_xi(n):
    inst = wg.random_instance(n, seed=73, index=2)
    h_star = inst.h_star.copy()
    h_star[n] += 0.5 * np.eye(n)  # symmetric, but not -(f'/f) I
    h_star[n, 0, 1] = h_star[n, 1, 0] = 0.125
    return lg.LegendrianPointInstance(n=n, c=inst.c, f_val=inst.f_val, f_prime=inst.f_prime, h=inst.h,
                                      h_star=h_star)


def _xi(insts):
    """The (B,) forced xi values -(f'/f) of ``insts``, the ones ``_find_violations`` checks their xi-slices against."""
    return np.array([-(inst.f_prime / inst.f_val) for inst in insts])


def _chunk_fill(insts):
    """Rows of valid ``insts`` built as a sweep chunk's are: ``_instance_rows`` on their stacked fields and forms."""
    fields = np.array([(inst.c, inst.f_val, inst.f_prime) for inst in insts])
    return lg._instance_rows(insts[0].n, fields, np.stack([inst._forms for inst in insts]))


class TestStackedPass:
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_memo_equals_the_single_instance_path_bit_for_bit(self, n):
        insts = _oracle_instances(n, count=9)
        insts += [wg.random_instance(n, seed=61, index=k, magnitude=1000.0) for k in range(3)]
        insts.append(lg.umbilic_instance(n, c=4.0, f_val=1.0, f_prime=0.0))
        drawn = wg._random_instances(n, (-4.0, 4.0), (0.5, 3.0), (-2.0, 2.0), 1.0, 67, range(5))  # a sweep chunk
        for inst in _chunk_fill(insts) + drawn:
            assert {"_violations", "_derived"} <= vars(inst).keys()
            assert _derived_bytes(inst) == _derived_bytes(_copy(inst))

    @pytest.mark.parametrize("make", [_asymmetric, _wrong_xi], ids=["asymmetric-phi", "wrong-xi"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_invalid_instance_gets_the_single_instance_verdict(self, make, n):
        # a constructed instance is scanned on first use, as the B = 1 row of the stacked scan
        bad = make(n)
        violations = lg.validate(bad)
        assert violations != [] and lg._find_violations(_xi([bad]), bad._forms[None]) == [tuple(violations)]
        message = f"^invalid Legendrian instance: first violations {re.escape(str(violations[:5]))}$"
        with pytest.raises(ValueError, match=message):
            lg.require_valid(bad)
        for accessor in (lg.means_and_traceless, lg.shape_operators, lg.rho_statistical, lg.rho_perp_statistical,
                         lg.curvature_scalars, wg.main_inequality):
            with pytest.raises(ValueError, match=message):
                accessor(bad)

    def test_mixed_stack_keeps_each_verdict(self):
        n = 3
        fresh = [wg.random_instance(n, seed=79, index=0), _asymmetric(n), wg.random_instance(n, seed=79, index=1),
                 _wrong_xi(n), _asymmetric(n)]
        found = lg._find_violations(_xi(fresh), np.stack([inst._forms for inst in fresh]))
        assert [list(v) for v in found] == [lg.validate(_copy(inst)) for inst in fresh]
        assert [bool(v) for v in found] == [False, True, False, True, True]
        valid = [inst for inst, v in zip(fresh, found) if not v]
        for alone, batched in zip(valid, _chunk_fill(valid)):
            assert _derived_bytes(batched) == _derived_bytes(alone)

    def test_sweep_derives_once_per_chunk_and_builds_no_operators(self, monkeypatch):
        counts = {"_derive_arrays": 0, "_find_violations": 0, "ShapeOperators": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(lg, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(lg, name, counted)
        monkeypatch.setattr(wg, "sweep_chunk", lambda n: 4)
        reports = wg.sweep(n=3, count=10, seed=89)  # chunks of 4, 4 and 2
        assert len(reports) == 10
        # drawn rows are valid as drawn (test_drawn_and_decoded_rows_are_valid_as_built): no chunk is scanned
        assert counts == {"_derive_arrays": 3, "_find_violations": 0, "ShapeOperators": 0}


# ---------------------------------------------------------------------------
# A chunk's instances are rows of its one read-only forms stack, valid as drawn
# ---------------------------------------------------------------------------


DRAW_RANGES = ((-4.0, 4.0), (0.5, 3.0), (-2.0, 2.0))


def _rows_of_one_stack(n, count=6):
    """A chunk of drawn rows (magnitude 1 and 1000), and rows of valid constructed instances."""
    drawn = [inst for magnitude in (1.0, 1000.0)
             for inst in wg._random_instances(n, *DRAW_RANGES, magnitude, 83, range(count))]
    built = [wg.random_instance(n, seed=83, index=count), wg.random_instance(n, seed=83, index=0, magnitude=0.0),
             lg.umbilic_instance(n, c=4.0, f_val=1.0, f_prime=0.0)]
    return drawn + _chunk_fill(built)


EDGES = {  # the edges of what _draw accepts
    "c-1e308": {"c_range": (-1e308, 0.0)},
    "magnitude-1e307": {"magnitude": 1e307},
    "f-1e-150": {"f_range": (1e-150, 1e-150), "fprime_range": (0.0, 0.0)},
    "cterm-overflow": {"c_range": (0.0, 1e308), "f_range": (1e-150, 1e-150), "fprime_range": (-1e-140, 1e-140)},
}


def _trusted_rows(kind, n, arg):
    """The rows of a drawn chunk (``arg`` its magnitude), of a chunk drawn at one of the ``EDGES``, or the
    sharpness search's best instance (``arg`` its family c, f, f')."""
    if kind == "draw":
        return wg._random_instances(n, *DRAW_RANGES, arg, 107, range(wg.sweep_chunk(n)))
    if kind == "edge":
        ranges = {**dict(zip(("c_range", "f_range", "fprime_range"), DRAW_RANGES)), "magnitude": 1.0, **EDGES[arg]}
        return wg._random_instances(n, *ranges.values(), 109, range(40))
    return [wg.sharpness_search(n, *arg, iterations=400, seed=5).best_instance]


TRUSTED_CASES = (
    [pytest.param("draw", n, m, id=f"draw-n{n}-magnitude-{m:g}") for n in (2, 3, 5, 8) for m in (0.0, 1.0, 1000.0)]
    + [pytest.param("edge", n, edge, id=f"edge-n{n}-{edge}") for n in (2, 3) for edge in EDGES]
    + [pytest.param("sharpness", n, family, id=f"sharpness-n{n}-c{family[0]:g}")
       for n in (2, 3) for family in ((0.0, 1.0, 0.0), (3.0, 0.5, 0.25))]
)


class TestInstanceRows:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rows_equal_instances_built_one_at_a_time(self, n):
        for row in _rows_of_one_stack(n):
            alone = _copy(row)
            assert (type(row), row.n, row.c, row.f_val, row.f_prime) == (
                type(alone), alone.n, alone.c, alone.f_val, alone.f_prime)
            assert [type(v) for v in (row.n, row.c, row.f_val, row.f_prime)] == [int, float, float, float]
            for name in ("h", "h_star", "_forms"):
                got, want = getattr(row, name), getattr(alone, name)
                assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert {"_violations", "_derived"} <= vars(row).keys()  # filled as the row was built
            assert vars(row)["_violations"] == alone._violations == ()
            assert _derived_bytes(row) == _derived_bytes(alone)
            assert lg.curvature_scalars(row) == lg.curvature_scalars(alone)

    @pytest.mark.parametrize("kind, n, arg", TRUSTED_CASES)
    def test_drawn_and_decoded_rows_are_valid_as_built(self, kind, n, arg):
        # _instance_rows trusts its stack: each row's verdict is () with no check and no scan, so every row that
        # a draw or the sharpness search builds must pass the constructor's check and the scan (under the
        # CLI's errstate, where the edges' derivations overflow)
        with np.errstate(all="ignore"):
            rows = _trusted_rows(kind, n, arg)
            forms = np.stack([row._forms for row in rows])
            assert lg._find_violations(_xi(rows), forms) == [()] * len(rows)
            for row in rows:
                assert vars(row)["_violations"] == () == _copy(row)._violations

    @pytest.mark.parametrize("n", [2, 5])
    def test_every_row_is_a_read_only_view_of_the_stack(self, n):
        fields, forms = wg._draw(n, *DRAW_RANGES, 1.0, 89, range(7))
        insts = lg._instance_rows(n, fields, forms)
        assert not forms.flags.writeable
        for k, inst in enumerate(insts):
            for name in ("h", "h_star", "_forms"):
                array = getattr(inst, name)
                assert not array.flags.writeable and np.shares_memory(array, forms[k])
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0, 0] = 1.0

    def test_the_public_constructor_copies_its_inputs(self):
        base = wg.random_instance(3, seed=89, index=0)
        h, h_star = base.h.copy(), base.h_star.copy()
        inst = lg.LegendrianPointInstance(n=3, c=base.c, f_val=base.f_val, f_prime=base.f_prime, h=h, h_star=h_star)
        h[0, 0, 0] += 1.0
        h_star[...] = 0.0
        assert inst.h.tobytes() == base.h.tobytes() and inst.h_star.tobytes() == base.h_star.tobytes()
        assert not np.shares_memory(inst._forms, h) and not inst._forms.flags.writeable
        assert lg.validate(inst) == []

    @pytest.mark.parametrize("bad, message", [
        ({"h_star": np.nan}, "c, f, f_prime, h and h_star must be finite"),
        ({"h": -np.inf}, "c, f, f_prime, h and h_star must be finite"),
        ({"c": np.inf}, "c, f, f_prime, h and h_star must be finite"),
        ({"f_val": np.nan}, "c, f, f_prime, h and h_star must be finite"),
        ({"f_prime": -np.inf}, "c, f, f_prime, h and h_star must be finite"),
        ({"f_val": 0.0}, "f must be positive, got 0.0"),
        ({"f_val": -1.5}, "f must be positive, got -1.5"),
        ({"f_val": -2.0, "h_star": np.nan}, "c, f, f_prime, h and h_star must be finite"),
    ], ids=["nan-form", "inf-form", "inf-c", "nan-f", "inf-f-prime", "f-zero", "f-negative", "finite-first"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_the_constructor_refuses_non_finite_data_then_f_not_positive(self, n, bad, message):
        base = wg.random_instance(n, seed=97, index=1)
        args = dict(n=n, c=base.c, f_val=base.f_val, f_prime=base.f_prime, h=base.h.copy(), h_star=base.h_star.copy())
        for name, value in bad.items():
            if name in ("h", "h_star"):
                args[name][0, 0, 1] = value
            else:
                args[name] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lg.LegendrianPointInstance(**args)

    @pytest.mark.parametrize("h, h_star", [((3, 2, 3), (3, 2, 3)), ((4, 3, 3), (4, 3, 3)), ((3, 2, 2), (3, 3, 2))])
    def test_a_wrong_shape_is_refused_before_the_data(self, h, h_star):
        # n first, then the shape, then finiteness: non-finite fields and forms of a wrong shape name the shape
        bad = dict(c=np.nan, f_val=-1.0, f_prime=0.0, h=np.full(h, np.nan), h_star=np.zeros(h_star))
        with pytest.raises(ValueError, match=f"^{re.escape('h and h_star must have shape (3, 2, 2)')}$"):
            lg.LegendrianPointInstance(n=2, **bad)
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            lg.LegendrianPointInstance(n=1, **bad)

    def test_a_draw_whose_xi_overflows_raises_before_any_row_is_built(self, monkeypatch):
        built = []
        for name in ("_forms_from_upper", "_instance_rows", "LegendrianPointInstance"):
            monkeypatch.setattr(wg, name, lambda *args, _name=name, **kwargs: built.append(_name))
        upper = np.zeros((2, 2 * 2 * 2 * 2))
        with pytest.raises(OverflowError, match="non-finite xi"):
            wg._fields_and_forms(2, [(0.0, 1.0, 1.0), (0.0, 1e-310, 1.0)], upper)
        overflowing = dict(f_range=(1e-310, 1e-310), fprime_range=(1.0, 1.0))
        for draw in (lambda: wg.random_instance(2, **overflowing), lambda: wg.sweep(2, 3, 0, **overflowing)):
            with pytest.raises(OverflowError, match="non-finite xi"):
                draw()
        assert built == []
        # the public constructor still takes such fields, and names the overflow on first validation
        inst = lg.LegendrianPointInstance(n=2, c=0.0, f_val=1e-310, f_prime=1.0, h=np.zeros((3, 2, 2)),
                                          h_star=np.zeros((3, 2, 2)))
        with pytest.raises(OverflowError, match="non-finite xi"):
            lg.validate(inst)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_random_instance_is_its_row_of_the_sweep_chunk(self, n):
        chunk = wg._random_instances(n, *DRAW_RANGES, 1.0, 101, range(wg.sweep_chunk(n)))
        for index in (0, 1, len(chunk) - 1):
            alone, row = wg.random_instance(n, seed=101, index=index), chunk[index]
            assert {"_violations", "_derived"} & vars(alone).keys() == set()  # a lone draw derives on first use
            assert (alone.n, alone.c, alone.f_val, alone.f_prime) == (row.n, row.c, row.f_val, row.f_prime)
            assert alone._forms.tobytes() == row._forms.tobytes()
            assert alone._violations == row._violations == ()
            assert _derived_bytes(alone) == _derived_bytes(row)
