import numpy as np
import pytest

from tridax import (BatchSolveError, InvalidTilePlan, LineSolveError, MismatchedTiles,
                    Mesh, NonFiniteSolution, TilePlan, TridiagonalBatch, TridiagonalSystem,
                    ZeroPivot, assemble_reduced, back_substitute, batch_solve,
                    dense_oracle_solve, modified_thomas_phase, relative_inf_error,
                    solve_lines, solve_system, thomas_pcr_solve, thomas_solve,
                    thomas_thomas_solve)
from tridax.mesh import StoredCoefficients
from conftest import make_system


def identity_system(n, d=None):
    d = np.arange(1.0, n + 1) if d is None else np.asarray(d, dtype=float)
    return TridiagonalSystem(np.zeros(n), np.ones(n), np.zeros(n), d)


def tile_system(system, plan):
    """``modified_thomas_phase`` over every tile of one system, as ``(m, 1)`` blocks."""
    cols = [v[:, None] for v in (system.a, system.b, system.c, system.d)]
    return [modified_thomas_phase(*(v[off:off + size] for v in cols))
            for off, size in zip(plan.offsets, plan.sizes)]


def solve_reduced(tiles):
    """Thomas solve of the one-line reduced system, as a ``(2t, 1)`` column."""
    reduced = TridiagonalSystem(*(v[:, 0] for v in assemble_reduced(tiles)))
    return thomas_solve(reduced)[:, None]


class TestTilePlan:
    def test_even_division(self):
        plan = TilePlan(12, 3)
        assert plan.m == 4
        assert plan.sizes == (4, 4, 4)
        assert plan.reduced_size == 6
        assert plan.boundary_indices() == [0, 3, 4, 7, 8, 11]

    def test_uneven_last_tile_shorter(self):
        plan = TilePlan(11, 3)
        assert plan.sizes == (4, 4, 3)

    def test_rejects_tiny_tiles(self):
        with pytest.raises(InvalidTilePlan):
            TilePlan(8, 4)  # m = 2
        with pytest.raises(InvalidTilePlan):
            TilePlan(10, 3)  # last tile = 2
        with pytest.raises(InvalidTilePlan):
            TilePlan(12, 1)


class TestModifiedPhase:
    def test_identity_tile(self):
        d = np.array([[3.0], [1.0], [4.0], [1.0], [5.0]])
        res = modified_thomas_phase(np.zeros((5, 1)), np.ones((5, 1)), np.zeros((5, 1)), d)
        assert np.array_equal(res.a_star, np.zeros((5, 1)))
        assert np.array_equal(res.c_star, np.zeros((5, 1)))
        assert np.array_equal(res.d_star, d)

    def test_purity(self):
        s = make_system(9, seed=2)
        cols = [v[:, None] for v in (s.a, s.b, s.c, s.d)]
        r1 = modified_thomas_phase(*cols)
        r2 = modified_thomas_phase(*cols)
        assert np.array_equal(r1.d_star, r2.d_star)
        assert np.array_equal(r1.a_star, r2.a_star)

    def test_interior_two_unknown_form(self):
        # interior rows must reproduce the oracle solution from the two
        # boundary unknowns of the same tile
        s = make_system(12, seed=12)
        u = dense_oracle_solve(s)
        plan = TilePlan(12, 3)
        tiles = tile_system(s, plan)
        for k, tile in enumerate(tiles):
            off = plan.offsets[k]
            size = plan.sizes[k]
            u0, um = u[off], u[off + size - 1]
            for i in range(1, size - 1):
                rec = tile.d_star[i, 0] - tile.a_star[i, 0] * u0 - tile.c_star[i, 0] * um
                assert rec == pytest.approx(u[off + i], abs=1e-12)

    def test_too_small_tile_rejected(self):
        with pytest.raises(InvalidTilePlan):
            modified_thomas_phase(np.zeros((2, 1)), np.ones((2, 1)), np.zeros((2, 1)),
                                  np.ones((2, 1)))


class TestAssembleReduced:
    def test_identity_reduced_is_identity(self):
        s = identity_system(9)
        tiles = tile_system(s, TilePlan(9, 3))
        ra, rb, rc, rd = assemble_reduced(tiles)
        assert np.array_equal(rb, np.ones((6, 1)))
        assert np.array_equal(ra, np.zeros((6, 1)))
        assert np.array_equal(rc, np.zeros((6, 1)))
        assert np.array_equal(rd, s.d[[0, 2, 3, 5, 6, 8], None])

    def test_reduced_matches_oracle_boundaries(self):
        s = make_system(12, seed=40)
        plan = TilePlan(12, 3)
        tiles = tile_system(s, plan)
        boundary = solve_reduced(tiles)
        full = dense_oracle_solve(s)
        assert relative_inf_error(boundary[:, 0], full[plan.boundary_indices()]) <= 1e-12

    def test_minimal_two_tiles_structure(self):
        s = make_system(6, seed=41)
        ra, rb, rc, rd = assemble_reduced(tile_system(s, TilePlan(6, 2)))
        assert ra.shape == rb.shape == rc.shape == rd.shape == (4, 1)
        assert ra[0, 0] == 0.0 and rc[-1, 0] == 0.0

    def test_out_of_order_tiles_rejected(self):
        s = make_system(12, seed=42)
        tiles = tile_system(s, TilePlan(12, 3))
        with pytest.raises(MismatchedTiles):
            assemble_reduced(tiles[::-1])
        with pytest.raises(MismatchedTiles):
            assemble_reduced(tiles[:1])


class TestBackSubstitute:
    def test_identity_returns_rhs(self):
        s = identity_system(8, d=[2, 7, 1, 8, 2, 8, 1, 8])
        tiles = tile_system(s, TilePlan(8, 2))
        boundary = solve_reduced(tiles)
        assert np.array_equal(back_substitute(tiles, boundary), s.d[:, None])

    def test_matches_oracle_everywhere(self):
        s = make_system(12, seed=43)
        tiles = tile_system(s, TilePlan(12, 3))
        u = back_substitute(tiles, solve_reduced(tiles))
        assert relative_inf_error(u[:, 0], dense_oracle_solve(s)) <= 1e-12

    def test_zero_rhs_gives_zero(self):
        s = make_system(12, seed=44)
        zeroed = TridiagonalSystem(s.a, s.b, s.c, np.zeros(12))
        tiles = tile_system(zeroed, TilePlan(12, 3))
        u = back_substitute(tiles, solve_reduced(tiles))
        assert np.max(np.abs(u)) == 0.0

    def test_boundary_length_check(self):
        s = make_system(12, seed=45)
        tiles = tile_system(s, TilePlan(12, 3))
        with pytest.raises(MismatchedTiles):
            back_substitute(tiles, np.zeros((5, 1)))


class TestHybridSolvers:
    def test_matches_monolithic_256(self):
        s = make_system(256, seed=256)
        ref = thomas_solve(s)
        assert relative_inf_error(thomas_thomas_solve(s, 4), ref) <= 1e-10
        assert relative_inf_error(thomas_pcr_solve(s, 4), ref) <= 1e-10

    def test_invalid_plan_rejected(self):
        s = make_system(8, seed=1)
        with pytest.raises(InvalidTilePlan):
            thomas_thomas_solve(s, 4)

    def test_smallest_legal_case(self):
        s = make_system(6, seed=60)
        ref = dense_oracle_solve(s)
        assert relative_inf_error(thomas_thomas_solve(s, 2), ref) <= 1e-12
        assert relative_inf_error(thomas_pcr_solve(s, 2), ref) <= 1e-12

    def test_identity_exact(self):
        s = identity_system(16)
        assert np.array_equal(thomas_thomas_solve(s, 4), s.d)
        assert np.array_equal(thomas_pcr_solve(s, 4), s.d)

    @pytest.mark.parametrize("n", [6, 24, 100, 333, 1024])
    @pytest.mark.parametrize("t", [2, 3, 4, 8, 16])
    def test_tiling_invariance(self, n, t):
        try:
            TilePlan(n, t)
        except InvalidTilePlan:
            pytest.skip(f"t={t} does not tile n={n}")
        s = make_system(n, seed=n * 31 + t)
        ref = thomas_solve(s)
        assert relative_inf_error(thomas_thomas_solve(s, t), ref) <= 1e-12
        assert relative_inf_error(thomas_pcr_solve(s, t), ref) <= 1e-12

    @pytest.mark.parametrize("algo", ["thomas-thomas", "thomas-pcr"])
    def test_check_dominance_flag(self, algo):
        s = make_system(16, seed=3)
        assert np.array_equal(solve_system(s, algo, 4, check_dominance=True),
                              solve_system(s, algo, 4))
        weak = TridiagonalSystem(s.a, np.full(16, 0.1), s.c, s.d)
        with pytest.raises(ValueError):
            solve_system(weak, algo, 4, check_dominance=True)

    @pytest.mark.parametrize("solver", [thomas_thomas_solve, thomas_pcr_solve])
    def test_non_finite_input_raises(self, solver):
        s = make_system(24, seed=5)
        d = s.d.copy()
        d[10] = np.nan
        with pytest.raises(NonFiniteSolution):
            solver(TridiagonalSystem(s.a, s.b, s.c, d), 3)
        for bad in (np.nan, np.inf):
            b = s.b.copy()
            b[10] = bad
            with pytest.raises(ZeroPivot) as err:
                solver(TridiagonalSystem(s.a, b, s.c, s.d), 3)
            assert err.value.index == 10

    @pytest.mark.parametrize("algo", ["thomas-thomas", "thomas-pcr"])
    @pytest.mark.parametrize("breakdown", ["tile", "reduced"])
    def test_zero_pivot_names_global_row(self, algo, breakdown):
        if breakdown == "tile":
            # 24 rows in tiles of 8: row 9 is row 1 of tile 1
            s = make_system(24, seed=6)
            b = s.b.copy()
            b[9] = 0.0
            bad, tiles, row = TridiagonalSystem(s.a, b, s.c, s.d), 3, 9
        else:
            # both tiles eliminate cleanly, but the system is singular: the
            # reduced Thomas solve breaks down at reduced row 1 (row 2), the
            # reduced PCR solve at reduced row 0 (row 0)
            s = make_system(6, seed=7)
            bad = TridiagonalSystem([0, 1, 1, 0, 0, 0], [2, 1, 2, 2, 2, 2],
                                    [1, 1, 0, 0, 0, 0], np.ones(6))
            tiles = 2
            row = TilePlan(6, 2).boundary_indices()[1 if algo == "thomas-thomas" else 0]
        with pytest.raises(ZeroPivot) as err:
            solve_system(bad, algo, tiles)
        assert err.value.index == row

        systems = [s, bad, s]
        with pytest.raises(BatchSolveError) as err:
            batch_solve(TridiagonalBatch.from_systems(systems), algo, tiles)
        [(i, exc)] = err.value.failures
        assert (i, exc.index) == (1, row)

        # x lines of a 2-D mesh: line k is system k
        def as_mesh(values):
            return Mesh(np.stack(values).reshape(1, 1, len(systems), -1), 2)

        coeffs = [as_mesh([getattr(sys_, k) for sys_ in systems]) for k in "abc"]
        with pytest.raises(LineSolveError) as err:
            solve_lines(as_mesh([sys_.d for sys_ in systems]), StoredCoefficients(*coeffs),
                        "x", algo, tiles=tiles)
        assert (err.value.batch, err.value.line) == (0, 1)
        assert err.value.__cause__.index == row
