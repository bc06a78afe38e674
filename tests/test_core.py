from fractions import Fraction

import numpy as np
import pytest

from tridax import (BatchSolveError, InvalidTilePlan, NonFiniteSolution, Precision,
                    SingularMatrix, TilePlan, TridiagonalBatch, TridiagonalSystem, ZeroPivot,
                    batch_solve, dense_oracle_solve, random_dominant_system,
                    relative_inf_error, residual_max_norm, solve_system)
from tridax.core import DENSE_ORACLE_MAX_N, SOLVER_NAMES
from tridax.reference import thomas_scalar
from conftest import make_system


def diagonal_system():
    return TridiagonalSystem([0, 0, 0], [2, 2, 2], [0, 0, 0], [2, 4, 6])


class TestSystemInvariants:
    def test_rejects_nonzero_corners(self):
        with pytest.raises(ValueError):
            TridiagonalSystem([1, 0], [2, 2], [0, 0], [1, 1])
        with pytest.raises(ValueError):
            TridiagonalSystem([0, 0], [2, 2], [0, 1], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TridiagonalSystem([0, 0], [2, 2, 2], [0, 0], [1, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TridiagonalSystem([], [], [], [])

    def test_precision_and_dominance(self):
        s = diagonal_system()
        assert s.precision is Precision.FP64
        assert s.is_diagonally_dominant()
        s32 = s.astype(Precision.FP32)
        assert s32.precision is Precision.FP32

    def test_tolerance_ordering(self):
        assert Precision.FP32.tolerance > Precision.FP64.tolerance > 0


class TestThomas:
    def test_diagonal_system(self):
        assert np.allclose(solve_system(diagonal_system(), "thomas"), [1.0, 2.0, 3.0])

    def test_single_unknown(self):
        s = TridiagonalSystem([0], [5], [0], [10])
        assert solve_system(s, "thomas") == pytest.approx([2.0])

    def test_matches_dense_oracle_seeded(self):
        s = make_system(8, seed=8)
        assert relative_inf_error(solve_system(s, "thomas"), dense_oracle_solve(s)) <= 1e-12

    def test_does_not_modify_input(self):
        s = make_system(16, seed=1)
        before = s.d.copy()
        solve_system(s, "thomas")
        assert np.array_equal(s.d, before)

    def test_zero_pivot_raises(self):
        s = TridiagonalSystem.__new__(TridiagonalSystem)
        object.__setattr__(s, "a", np.array([0.0, 1.0]))
        object.__setattr__(s, "b", np.array([0.0, 1.0]))
        object.__setattr__(s, "c", np.array([1.0, 0.0]))
        object.__setattr__(s, "d", np.array([1.0, 1.0]))
        with pytest.raises(ZeroPivot) as err:
            solve_system(s, "thomas")
        assert err.value.index == 0

    def test_dominance_check_flag(self):
        s = TridiagonalSystem([0, 1], [1, 1], [1, 0], [1, 1])
        with pytest.raises(ValueError):
            solve_system(s, "thomas", check_dominance=True)


class TestPcr:
    def test_identity_already_reduced(self):
        s = TridiagonalSystem([0] * 4, [1] * 4, [0] * 4, [1, 2, 3, 4])
        assert np.array_equal(solve_system(s, "pcr"), [1.0, 2.0, 3.0, 4.0])

    def test_non_power_of_two_matches_thomas(self):
        s = make_system(7, seed=77)
        assert relative_inf_error(solve_system(s, "pcr"), solve_system(s, "thomas")) <= 1e-10

    def test_matches_dense_oracle(self):
        s = make_system(16, seed=16)
        assert relative_inf_error(solve_system(s, "pcr"), dense_oracle_solve(s)) <= 1e-12

    def test_normalization_pivot(self):
        s = TridiagonalSystem.__new__(TridiagonalSystem)
        object.__setattr__(s, "a", np.array([0.0, 0.1]))
        object.__setattr__(s, "b", np.array([1.0, 0.0]))
        object.__setattr__(s, "c", np.array([0.1, 0.0]))
        object.__setattr__(s, "d", np.array([1.0, 1.0]))
        with pytest.raises(ZeroPivot):
            solve_system(s, "pcr")


class TestDenseOracle:
    def test_hand_eliminated_2x2(self):
        s = TridiagonalSystem([0, 0.5], [1, 1], [0.5, 0], [1.5, 1.5])
        assert dense_oracle_solve(s) == pytest.approx([1.0, 1.0])

    def test_single_unknown(self):
        s = TridiagonalSystem([0], [3], [0], [9])
        assert dense_oracle_solve(s) == pytest.approx([3.0])

    def test_identity_returns_rhs(self):
        d = np.array([5.0, -1.0, 2.0, 0.25, 9.0])
        s = TridiagonalSystem(np.zeros(5), np.ones(5), np.zeros(5), d)
        assert np.array_equal(dense_oracle_solve(s), d)

    def test_singular_raises(self):
        s = TridiagonalSystem([0, 0], [0, 0], [0, 0], [1, 1])
        with pytest.raises(SingularMatrix):
            dense_oracle_solve(s)

    def test_size_cap(self):
        s = make_system(8, seed=0)
        big = TridiagonalSystem(np.zeros(5000), np.ones(5000), np.zeros(5000),
                                np.ones(5000))
        assert dense_oracle_solve(s) is not None
        with pytest.raises(ValueError):
            dense_oracle_solve(big)


class TestResidual:
    def test_exact_solution_zero(self):
        s = make_system(32, seed=5)
        u = dense_oracle_solve(s)
        assert residual_max_norm(s, u) < 1e-13

    def test_zero_vector_gives_max_d(self):
        s = make_system(12, seed=9)
        assert residual_max_norm(s, np.zeros(12)) == pytest.approx(np.max(np.abs(s.d)))

    def test_interior_perturbation(self):
        s = diagonal_system()
        u = np.array([1.0, 2.0, 3.0])
        u[1] += 1e-3
        assert residual_max_norm(s, u) == pytest.approx(2e-3)

    def test_length_check(self):
        with pytest.raises(ValueError):
            residual_max_norm(diagonal_system(), np.zeros(4))

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    def test_batch_is_max_over_systems_exactly(self, n, precision):
        rng = np.random.default_rng(n)
        systems = [random_dominant_system(n, rng, precision) for _ in range(9)]
        batch = TridiagonalBatch.from_systems(systems)
        u = np.stack(batch_solve(batch))
        per_system = max(residual_max_norm(s, ui) for s, ui in zip(systems, u))
        assert residual_max_norm(batch, u) == per_system
        with pytest.raises(ValueError):
            residual_max_norm(batch, u[0])


class TestBatch:
    def test_trivial_copies(self):
        batch = TridiagonalBatch.from_systems([diagonal_system()] * 3)
        sols = batch_solve(batch, "thomas")
        for u in sols:
            assert np.allclose(u, [1, 2, 3])

    def test_seeded_sweep_matches_oracle(self):
        rng = np.random.default_rng(100)
        systems = [random_dominant_system(128, rng) for _ in range(100)]
        batch = TridiagonalBatch.from_systems(systems)
        sols = batch_solve(batch, "thomas")
        for s, u in zip(systems, sols):
            assert relative_inf_error(u, dense_oracle_solve(s)) <= 1e-12

    def test_single_system_equals_scalar_bitwise(self):
        s = make_system(64, seed=4)
        batch = TridiagonalBatch.from_systems([s])
        assert np.array_equal(batch_solve(batch, "thomas")[0], solve_system(s, "thomas"))
        assert np.array_equal(batch_solve(batch, "pcr")[0], solve_system(s, "pcr"))

    def test_failure_collects_index(self):
        good = diagonal_system()
        bad = TridiagonalSystem.__new__(TridiagonalSystem)
        object.__setattr__(bad, "a", np.array([0.0, 1.0, 0.0]))
        object.__setattr__(bad, "b", np.array([0.0, 2.0, 2.0]))
        object.__setattr__(bad, "c", np.array([0.0, 0.0, 0.0]))
        object.__setattr__(bad, "d", np.array([1.0, 1.0, 1.0]))
        batch = TridiagonalBatch.from_systems([good, bad, good])
        with pytest.raises(BatchSolveError) as err:
            batch_solve(batch, "thomas")
        assert [i for i, _ in err.value.failures] == [1]
        assert err.value.solutions[0] is not None
        assert err.value.solutions[2] is not None


class TestProperties:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 257, 512])
    def test_oracle_equivalence_sizes(self, n):
        s = make_system(n, seed=n)
        ref = dense_oracle_solve(s)
        tol = Precision.FP64.tolerance
        assert relative_inf_error(solve_system(s, "thomas"), ref) <= tol
        assert relative_inf_error(solve_system(s, "pcr"), ref) <= tol

    def test_fp32_accuracy(self):
        for seed in range(10):
            s64 = make_system(256, seed=seed)
            s32 = s64.astype(Precision.FP32)
            ref = dense_oracle_solve(s64)
            tol = Precision.FP32.tolerance
            assert relative_inf_error(solve_system(s32, "thomas"), ref) <= tol
            assert relative_inf_error(solve_system(s32, "pcr"), ref) <= tol

    def test_determinism(self):
        s = make_system(100, seed=3)
        assert np.array_equal(solve_system(s, "thomas"), solve_system(s, "thomas"))
        assert np.array_equal(solve_system(s, "pcr"), solve_system(s, "pcr"))

    def test_linearity_in_rhs(self):
        s = make_system(50, seed=6)
        scaled = TridiagonalSystem(s.a, s.b, s.c, 3.5 * s.d)
        assert relative_inf_error(solve_system(scaled, "thomas"),
                                  3.5 * solve_system(s, "thomas")) <= 1e-12


def with_value(s, name, row, value):
    arr = getattr(s, name).copy()
    arr[row] = value
    return TridiagonalSystem(*(arr if k == name else getattr(s, k) for k in "abcd"))


class TestNonFinite:
    @pytest.mark.parametrize("algo", ["thomas", "pcr"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_diagonal_is_zero_pivot(self, algo, value):
        s = with_value(make_system(8, seed=1), "b", 3, value)
        with pytest.raises(ZeroPivot) as err:
            solve_system(s, algo)
        assert err.value.index == 3

    @pytest.mark.parametrize("algo", ["thomas", "pcr"])
    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_nan_rhs_raises(self, algo, precision):
        s = with_value(make_system(8, seed=2, precision=precision), "d", 5, np.nan)
        with pytest.raises(NonFiniteSolution):
            solve_system(s, algo)

    @pytest.mark.parametrize("algo", ["thomas", "pcr"])
    def test_batch_reports_each_system(self, algo):
        systems = [make_system(16, seed=i) for i in range(5)]
        systems[1] = with_value(systems[1], "d", 0, np.nan)
        systems[3] = with_value(systems[3], "b", 7, np.nan)
        batch = TridiagonalBatch.from_systems(systems)
        with pytest.raises(BatchSolveError) as err:
            batch_solve(batch, algo)
        failures = err.value.failures
        assert [i for i, _ in failures] == [1, 3]
        assert isinstance(failures[0][1], NonFiniteSolution)
        assert isinstance(failures[1][1], ZeroPivot) and failures[1][1].index == 7
        for i in (0, 2, 4):
            assert np.array_equal(err.value.solutions[i], solve_system(systems[i], algo))


class TestPastDenseCap:
    """Systems longer than the dense oracle allows, checked against the O(n)
    FP64 scalar reference."""

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    @pytest.mark.parametrize("algo", SOLVER_NAMES)
    def test_matches_scalar_reference(self, algo, precision):
        n = 10_000
        assert n > DENSE_ORACLE_MAX_N
        s = make_system(n, seed=31, precision=precision)
        ref = thomas_scalar(*(getattr(s, k).astype(np.float64).tolist() for k in "abcd"))
        tiles = None if algo in ("thomas", "pcr") else 8
        assert relative_inf_error(solve_system(s, algo, tiles), ref) <= precision.tolerance


def most_tiles(n):
    """The largest of 2, 4 and 8 tiles a ``TilePlan`` accepts for ``n`` rows, or None."""
    valid = []
    for t in (2, 4, 8):
        try:
            valid.append(TilePlan(n, t).t)
        except InvalidTilePlan:
            pass
    return max(valid, default=None)


class TestExactOracle:
    """Every algorithm against the exact rational solution of the system as
    stored, from ``thomas_scalar`` on ``Fraction`` inputs."""

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_within_tolerance_of_exact_solution(self, precision):
        for n in range(1, 65):
            s = make_system(n, seed=n, precision=precision)
            exact = thomas_scalar(*([Fraction(float(x)) for x in getattr(s, k)]
                                    for k in "abcd"))
            ref = [float(x) for x in exact]
            for algo in SOLVER_NAMES:
                tiles = None if algo in ("thomas", "pcr") else most_tiles(n)
                if algo not in ("thomas", "pcr") and tiles is None:
                    continue
                err = relative_inf_error(solve_system(s, algo, tiles), ref)
                assert err <= precision.tolerance, (algo, n, err)

    def test_fraction_solve_is_exact(self):
        s = make_system(12, seed=3)
        cols = [[Fraction(float(x)) for x in getattr(s, k)] for k in "abcd"]
        u = thomas_scalar(*cols)
        a, b, c, d = cols
        for i in range(12):
            lhs = b[i] * u[i] + (a[i] * u[i - 1] if i else 0) + (c[i] * u[i + 1] if i < 11 else 0)
            assert lhs == d[i]
