import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tridax import (BatchSolveError, InvalidTilePlan, Mesh, NonFiniteSolution, Precision,
                    TilePlan, TridiagonalBatch, TridiagonalSystem, ZeroPivot, batch_solve,
                    core, error_bound, random_dominant_batch, random_dominant_system,
                    relative_inf_error, residual_max_norm, solve_lines, solve_system)
from tridax.core import SOLVER_NAMES
from tridax.reference import thomas_scalar
from conftest import digest, dominant_batch, make_system, stack_systems, tiles_for


def as_fp32(s):
    return TridiagonalSystem(*(v.astype(np.float32) for v in (s.a, s.b, s.c, s.d)))


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
        assert error_bound(s, [1.0, 2.0, 3.0]) < 1e-14  # finite: strictly dominant
        s32 = as_fp32(s)
        assert s32.precision is Precision.FP32

    def test_tolerance_ordering(self):
        assert Precision.FP32.tolerance > Precision.FP64.tolerance > 0


def _container(cls, rows, ndim=None):
    """``cls`` built from 1-D coefficient rows: a system takes them as they
    are, a batch as two copies stacked into 2-D arrays; ``ndim`` overrides."""
    arrays = [np.asarray(r) for r in rows]
    if (ndim or (1 if cls is TridiagonalSystem else 2)) == 2:
        arrays = [np.stack([x, x]) for x in arrays]
    return cls(*arrays)


CONTAINERS = [pytest.param(TridiagonalSystem, id="system"),
              pytest.param(TridiagonalBatch, id="batch")]
ROWS = ([0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("cls", CONTAINERS)
class TestCoefficientRule:
    """The one coefficient rule that systems and batches share."""

    def test_mismatched_shapes_named(self, cls):
        rows = ([0.0, 1.0],) + ROWS[1:]
        with pytest.raises(ValueError, match="share one") as err:
            _container(cls, rows)
        shapes = ("[(2,), (3,), (3,), (3,)]" if cls is TridiagonalSystem
                  else "[(2, 2), (2, 3), (2, 3), (2, 3)]")
        assert shapes in str(err.value)

    def test_rejects_wrong_ndim(self, cls):
        with pytest.raises(ValueError, match="share one"):
            _container(cls, ROWS, ndim=2 if cls is TridiagonalSystem else 1)

    def test_rejects_zero_length(self, cls):
        with pytest.raises(ValueError, match="at least one unknown"):
            _container(cls, ([], [], [], []))

    @pytest.mark.parametrize("index, row", [(0, 0), (2, -1)], ids=["a0", "cn-1"])
    @pytest.mark.parametrize("value", [1e-300, np.nan], ids=["nonzero", "nan"])
    def test_rejects_boundary_entries(self, cls, index, row, value):
        rows = [list(r) for r in ROWS]
        rows[index][row] = value
        with pytest.raises(ValueError, match=r"a\[0\] == 0 and c\[n-1\] == 0"):
            _container(cls, rows)

    def test_accepts_negative_zero_boundary(self, cls):
        signed = _container(cls, [[-0.0, 1.0, 1.0], ROWS[1], [1.0, 1.0, -0.0], ROWS[3]])
        plain = _container(cls, ROWS)
        solve = solve_system if cls is TridiagonalSystem else batch_solve
        assert np.array_equal(solve(signed), solve(plain))

    def test_integer_input_is_fp64(self, cls):
        held = _container(cls, [np.asarray(r, dtype=np.int64) for r in
                                ([0, 1, 1], [4, 4, 4], [1, 1, 0], [1, 2, 3])])
        assert all(getattr(held, k).dtype == np.float64 for k in "abcd")
        assert held.precision is Precision.FP64

    def test_fp64_with_fp32_is_fp64(self, cls):
        rows = [np.asarray(r, dtype=np.float32 if k == "b" else np.float64)
                for k, r in zip("abcd", ROWS)]
        held = _container(cls, rows)
        assert all(getattr(held, k).dtype == np.float64 for k in "abcd")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_held_by_reference(self, cls, dtype):
        first = _container(cls, [np.asarray(r, dtype=dtype) for r in ROWS])
        again = cls(first.a, first.b, first.c, first.d)
        assert all(getattr(again, k) is getattr(first, k) for k in "abcd")


class TestBatchInvariants:
    def test_rejects_zero_length_systems(self):
        with pytest.raises(ValueError):
            TridiagonalBatch(*(np.zeros((3, 0)) for _ in range(4)))

    def test_integer_batch_is_fp64(self):
        batch = TridiagonalBatch(*(np.array([row]) for row in
                                   ([0, 0, 0], [2, 2, 2], [0, 0, 0], [2, 4, 6])))
        assert batch.precision is Precision.FP64
        assert all(getattr(batch, k).dtype == np.float64 for k in "abcd")
        assert np.array_equal(batch_solve(batch), [[1.0, 2.0, 3.0]])

    def test_mixed_precisions_held_in_common_dtype(self):
        s = make_system(16, seed=3)
        arrays = [s.a, s.b.astype(np.float32), s.c, s.d]
        batch = TridiagonalBatch(*(x[None] for x in arrays))
        assert batch.precision is Precision.FP64
        assert all(getattr(batch, k).dtype == np.float64 for k in "abcd")
        widened = TridiagonalBatch(*(x[None].astype(np.float64) for x in arrays))
        assert np.array_equal(batch_solve(batch), batch_solve(widened))

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_arrays_in_dtype_held_by_reference(self, precision):
        batch = dominant_batch(4, 8, precision, seed=1)
        again = TridiagonalBatch(batch.a, batch.b, batch.c, batch.d)
        assert all(getattr(again, k) is getattr(batch, k) for k in "abcd")


class TestBatchSystem:
    """``batch.system(i)`` views the batch's validated rows and checks only the corners."""

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_views_the_batch_rows(self, precision):
        batch = dominant_batch(4, 8, precision, seed=2)
        for i in (0, np.int64(3), -1):
            s = batch.system(i)
            for k in "abcd":
                row = getattr(s, k)
                assert row.dtype == precision.dtype
                assert np.shares_memory(row, getattr(batch, k)[i])
                assert np.array_equal(row, getattr(batch, k)[i])

    def test_index_must_be_an_integer(self):
        batch = dominant_batch(4, 8, Precision.FP64, seed=2)
        for index in (slice(0, 2), 1.0):
            with pytest.raises(TypeError):
                batch.system(index)

    @pytest.mark.parametrize("name, col", [("a", 0), ("c", -1)], ids=["a0", "cn-1"])
    @pytest.mark.parametrize("value", [1e-30, np.nan], ids=["nonzero", "nan"])
    def test_corner_written_in_place_raises(self, name, col, value):
        batch = dominant_batch(3, 8, Precision.FP32, seed=4)
        before = batch_solve(batch)
        getattr(batch, name)[1, col] = value
        with pytest.raises(ValueError, match=r"a\[0\] == 0 and c\[n-1\] == 0"):
            batch.system(1)
        for i in (0, 2):
            assert np.array_equal(solve_system(batch.system(i)), before[i])

    def test_negative_zero_corner_written_in_place_passes(self):
        batch = dominant_batch(2, 8, Precision.FP64, seed=4)
        batch.a[0, 0], batch.c[0, -1] = -0.0, -0.0
        assert np.array_equal(solve_system(batch.system(0)), batch_solve(batch)[0])

    def test_frozen(self):
        batch = dominant_batch(2, 8, Precision.FP64, seed=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.a = np.zeros_like(batch.a)

    def test_no_coefficient_rule_call(self, monkeypatch):
        batch = dominant_batch(3, 8, Precision.FP64, seed=5)
        calls, coefficients = [], core._coefficients

        def counted(*args):
            calls.append(args)
            return coefficients(*args)

        monkeypatch.setattr(core, "_coefficients", counted)
        for i in range(batch.count):
            batch.system(i)
        assert calls == []


@pytest.mark.parametrize("cls", CONTAINERS)
@pytest.mark.parametrize("algo", SOLVER_NAMES)
class TestCornerRuleAtSolve:
    """Both solve entry points check the corners again: the containers are
    frozen, but their arrays stay writable."""

    @staticmethod
    def held(cls):
        s = make_system(16, seed=6)
        return s if cls is TridiagonalSystem else stack_systems([s, s, s])

    @staticmethod
    def solve(held, algo):
        solve = solve_system if isinstance(held, TridiagonalSystem) else batch_solve
        return solve(held, algo, None if algo in ("thomas", "pcr") else 4)

    @pytest.mark.parametrize("name, col", [("a", 0), ("c", -1)], ids=["a0", "cn-1"])
    @pytest.mark.parametrize("value", [0.5, np.nan], ids=["nonzero", "nan"])
    def test_corner_written_in_place_raises(self, cls, algo, name, col, value):
        held = self.held(cls)
        getattr(held, name)[col if cls is TridiagonalSystem else (1, col)] = value
        with pytest.raises(ValueError, match=r"a\[0\] == 0 and c\[n-1\] == 0"):
            self.solve(held, algo)

    def test_negative_zero_corner_written_in_place_passes(self, cls, algo):
        held = self.held(cls)
        before = self.solve(held, algo)
        held.a[..., 0], held.c[..., -1] = -0.0, -0.0
        assert np.array_equal(self.solve(held, algo), before)


@pytest.mark.parametrize("algo", ["thomas", "pcr"])
def test_tile_count_for_an_untiled_solver_raises_at_every_door(algo):
    # each door once solved as if no tile count were given; tridax solve
    # --algo thomas --tiles 4 prints this message and exits 2
    s = make_system(16, seed=2)
    message = f"^tiles applies to thomas-thomas, thomas-pcr, not {algo}$"
    with pytest.raises(ValueError, match=message):
        solve_system(s, algo, 4)
    with pytest.raises(ValueError, match=message):
        batch_solve(stack_systems([s, s]), algo, tiles=3)
    with pytest.raises(ValueError, match=message):
        solve_lines(Mesh.zeros((16, 4)), (s.a, s.b, s.c), "x", algo, tiles=4)


class TestThomas:
    def test_diagonal_system(self):
        assert np.allclose(solve_system(diagonal_system(), "thomas"), [1.0, 2.0, 3.0])

    def test_single_unknown(self):
        s = TridiagonalSystem([0], [5], [0], [10])
        assert solve_system(s, "thomas") == pytest.approx([2.0])

    def test_within_error_bound_seeded(self):
        s = make_system(8, seed=8)
        assert error_bound(s, solve_system(s, "thomas")) <= 1e-12

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


class TestPcr:
    def test_identity_already_reduced(self):
        s = TridiagonalSystem([0] * 4, [1] * 4, [0] * 4, [1, 2, 3, 4])
        assert np.array_equal(solve_system(s, "pcr"), [1.0, 2.0, 3.0, 4.0])

    def test_non_power_of_two_matches_thomas(self):
        s = make_system(7, seed=77)
        assert relative_inf_error(solve_system(s, "pcr"), solve_system(s, "thomas")) <= 1e-10

    def test_within_error_bound(self):
        s = make_system(16, seed=16)
        assert error_bound(s, solve_system(s, "pcr")) <= 1e-12

    def test_normalization_pivot(self):
        s = TridiagonalSystem.__new__(TridiagonalSystem)
        object.__setattr__(s, "a", np.array([0.0, 0.1]))
        object.__setattr__(s, "b", np.array([1.0, 0.0]))
        object.__setattr__(s, "c", np.array([0.1, 0.0]))
        object.__setattr__(s, "d", np.array([1.0, 1.0]))
        with pytest.raises(ZeroPivot):
            solve_system(s, "pcr")


class TestResidual:
    def test_exact_solution_zero(self):
        s = make_system(32, seed=5)
        u = thomas_scalar(*([Fraction(float(x)) for x in getattr(s, k)] for k in "abcd"))
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
        batch = stack_systems(systems)
        u = batch_solve(batch)
        per_system = max(residual_max_norm(s, ui) for s, ui in zip(systems, u))
        assert residual_max_norm(batch, u) == per_system
        with pytest.raises(ValueError):
            residual_max_norm(batch, u[0])


class TestGenerator:
    @pytest.mark.parametrize("margin", [1.0, 0.5])
    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_batch_is_the_benchmarks_draw_bitwise(self, monkeypatch, precision, margin):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import workloads

        ours = random_dominant_batch(37, 129, np.random.default_rng(9), precision, margin)
        theirs = workloads.dominant_batch(37, 129, precision, margin, np.random.default_rng(9))
        for k in "abcd":
            x, y = getattr(ours, k), getattr(theirs, k)
            assert x.dtype == y.dtype == precision.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    @pytest.mark.parametrize("n", [1, 2, 17, 128])
    def test_system_is_the_one_dimensional_draw_bitwise(self, n, precision):
        # a (1, n) draw takes the stream values an (n,) draw takes, in order a, c, b, d
        rng = np.random.default_rng(n)
        a, c = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        a[0] = c[-1] = 0.0
        b = np.abs(a) + np.abs(c) + rng.uniform(0.5, 1.5, n)
        d = rng.uniform(-1.0, 1.0, n)
        s = random_dominant_system(n, np.random.default_rng(n), precision, 0.5)
        for x, y in zip((s.a, s.b, s.c, s.d), (a, b, c, d)):
            assert x.shape == (n,) and x.tobytes() == y.astype(precision.dtype).tobytes()

    @pytest.mark.parametrize("draw", [lambda rng: random_dominant_system(0, rng),
                                      lambda rng: random_dominant_batch(0, 8, rng),
                                      lambda rng: random_dominant_batch(3, 0, rng)],
                             ids=["system-n0", "batch-count0", "batch-n0"])
    def test_empty_draw_is_value_error(self, draw):
        with pytest.raises(ValueError, match="^a generated batch needs count and n >= 1, "):
            draw(np.random.default_rng(0))


class TestBatch:
    def test_trivial_copies(self):
        batch = stack_systems([diagonal_system()] * 3)
        sols = batch_solve(batch, "thomas")
        for u in sols:
            assert np.allclose(u, [1, 2, 3])

    def test_seeded_sweep_matches_oracle(self):
        rng = np.random.default_rng(100)
        batch = stack_systems([random_dominant_system(128, rng) for _ in range(100)])
        assert error_bound(batch, batch_solve(batch, "thomas")) <= 1e-12

    def test_single_system_equals_scalar_bitwise(self):
        s = make_system(64, seed=4)
        batch = stack_systems([s])
        assert np.array_equal(batch_solve(batch, "thomas")[0], solve_system(s, "thomas"))
        assert np.array_equal(batch_solve(batch, "pcr")[0], solve_system(s, "pcr"))

    def test_failure_collects_index(self):
        good = diagonal_system()
        bad = TridiagonalSystem.__new__(TridiagonalSystem)
        object.__setattr__(bad, "a", np.array([0.0, 1.0, 0.0]))
        object.__setattr__(bad, "b", np.array([0.0, 2.0, 2.0]))
        object.__setattr__(bad, "c", np.array([0.0, 0.0, 0.0]))
        object.__setattr__(bad, "d", np.array([1.0, 1.0, 1.0]))
        batch = stack_systems([good, bad, good])
        with pytest.raises(BatchSolveError) as err:
            batch_solve(batch, "thomas")
        assert [i for i, _ in err.value.failures] == [1]
        assert np.isfinite(err.value.solutions[0]).all()
        assert np.isfinite(err.value.solutions[2]).all()

    @pytest.mark.parametrize("algo", SOLVER_NAMES)
    def test_returns_one_array(self, algo):
        batch = dominant_batch(5, 24, Precision.FP32, seed=5)
        tiles = tiles_for(algo, 4)
        u = batch_solve(batch, algo, tiles)
        assert u.shape == (5, 24) and u.dtype == np.float32 and u.flags.c_contiguous
        for i in range(5):
            assert np.array_equal(u[i], solve_system(batch.system(i), algo, tiles))

    @pytest.mark.parametrize("count", [1, 3])
    def test_failed_rows_nan_and_raw_output_kept(self, count):
        batch = dominant_batch(count, 12, Precision.FP64, seed=count)
        batch.d[-1, 4] = np.inf
        with pytest.raises(BatchSolveError) as err:
            batch_solve(batch, "pcr")
        solutions, raw = err.value.solutions, err.value.__cause__.solution
        assert solutions.shape == (count, 12) and solutions.flags.c_contiguous
        assert np.isnan(solutions[-1]).all() and not np.isnan(raw[:, -1]).all()
        assert np.array_equal(solutions[:-1], raw[:, :-1].T)


class TestProperties:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 257, 512])
    def test_oracle_equivalence_sizes(self, n):
        s = make_system(n, seed=n)
        tol = Precision.FP64.tolerance
        assert error_bound(s, solve_system(s, "thomas")) <= tol
        assert error_bound(s, solve_system(s, "pcr")) <= tol

    def test_fp32_accuracy(self):
        for seed in range(10):
            s64 = make_system(256, seed=seed)
            s32 = as_fp32(s64)
            tol = Precision.FP32.tolerance  # the FP32 solutions certified against s64
            assert error_bound(s64, solve_system(s32, "thomas")) <= tol
            assert error_bound(s64, solve_system(s32, "pcr")) <= tol

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
        batch = stack_systems(systems)
        with pytest.raises(BatchSolveError) as err:
            batch_solve(batch, algo)
        failures = err.value.failures
        assert [i for i, _ in failures] == [1, 3]
        assert isinstance(failures[0][1], NonFiniteSolution)
        assert isinstance(failures[1][1], ZeroPivot) and failures[1][1].index == 7
        for i in (0, 2, 4):
            assert np.array_equal(err.value.solutions[i], solve_system(systems[i], algo))


class TestLongSystems:
    """Systems far past what a dense O(n^3) reference can check, certified
    by ``error_bound`` in O(n)."""

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    @pytest.mark.parametrize("algo", SOLVER_NAMES)
    def test_within_error_bound(self, algo, precision):
        s = make_system(10_000, seed=31, precision=precision)
        tiles = None if algo in ("thomas", "pcr") else 8
        assert error_bound(s, solve_system(s, algo, tiles)) <= precision.tolerance

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    @pytest.mark.parametrize("algo", ["thomas-thomas", "thomas-pcr"])
    def test_million_rows_at_thousand_tiles(self, algo, precision):
        s = make_system(10**6, seed=32, precision=precision)
        assert error_bound(s, solve_system(s, algo, 1000)) <= precision.tolerance


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


# sha256 of the plain PCR kernel's outputs, pinning them bitwise across refactors.
# The failing batch hashes the kernel call's raw output with the NaN bits x86-64
# gives it; other CPU architectures may give other NaN bits.
PCR_GOLDEN = {
    "pcr-fp32-203": "44d8e6d224709bbec431ae4ca155f179eae9f9b1f89ae62cc61599fa82b9183f",
    "pcr-fp64-203": "64276c4f1d8c86ca21cc8a7dc16ffc1cd1b9558c6637895588554c84e20642d9",
    "failing-pcr-fp32": "91d3a9b8aad56ceafae4fc42900b560ec1ae24b6adf0b91c0f66a8a8d30b24f7",
    "failing-pcr-fp64": "64aa5588731c960ab3ad158bc31c724a9e0a216055d27cf15393ce05e544226c",
}


class TestPcrGoldenDigests:
    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_batch_solve(self, precision):
        batch = dominant_batch(70, 203, precision, seed=203)  # 203: no power of two
        assert digest(*batch_solve(batch, "pcr")) == PCR_GOLDEN[f"pcr-{precision.value}-203"]

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_failing_batch(self, precision):
        batch = dominant_batch(70, 203, precision, seed=203)
        batch.a[3, 11] = batch.b[3, 11] = batch.c[3, 11] = 0  # a zero row
        batch.d[40, 150] = np.nan
        batch.b[66, 202] = np.inf
        with pytest.raises(BatchSolveError) as err:
            batch_solve(batch, "pcr")
        failures = [(i, type(exc).__name__, getattr(exc, "index", None), exc.line)
                    for i, exc in err.value.failures]
        assert digest(np.frombuffer(repr(failures).encode(), np.uint8),
                      err.value.__cause__.solution) == PCR_GOLDEN[f"failing-pcr-{precision.value}"]
