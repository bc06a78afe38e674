import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tridax import (BatchSolveError, InvalidTilePlan, Mesh, NonFiniteSolution, Precision,
                    TilePlan, TridiagonalSystem, ZeroPivot, batch_solve, error_bound,
                    random_dominant_system, relative_inf_error, solve_lines, solve_system,
                    tiled)
from tridax.reference import thomas_scalar
from tridax.tiled import assemble_reduced, back_substitute, modified_thomas_phase
from conftest import digest, dominant_batch, make_system, stack_systems


def identity_system(n, d=None):
    d = np.arange(1.0, n + 1) if d is None else np.asarray(d, dtype=float)
    return TridiagonalSystem(np.zeros(n), np.ones(n), np.zeros(n), d)


def tile_system(system, plan):
    """``modified_thomas_phase`` over every tile of one system, as ``(m, 1, 1)`` parts."""
    cols = [v[:, None, None] for v in (system.a, system.b, system.c, system.d)]
    return [modified_thomas_phase(*(v[k * plan.m:k * plan.m + size] for v in cols))
            for k, size in enumerate(plan.sizes)]


def solve_reduced(tiles, algo="thomas"):
    """Solve of the one-line reduced system, as a ``(2t, 1)`` column."""
    reduced = TridiagonalSystem(*(v[:, 0] for v in assemble_reduced(tiles)))
    return solve_system(reduced, algo)[:, None]


class TestTilePlan:
    def test_even_division(self):
        plan = TilePlan(12, 3)
        assert plan.m == 4
        assert plan.sizes == (4, 4, 4)
        assert len(plan.boundary_indices()) == 6
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
        with pytest.raises(InvalidTilePlan, match="n=1024 over t=1000000 tiles leaves a tile "
                                                  "of 0 rows; every tile needs >= 3"):
            TilePlan(1024, 10**6)  # more tiles than rows: no negative count


class TestModifiedPhase:
    def test_identity_tile(self):
        d = np.array([[3.0], [1.0], [4.0], [1.0], [5.0]])
        at, ct, dt, _ = modified_thomas_phase(np.zeros((5, 1)), np.ones((5, 1)),
                                              np.zeros((5, 1)), d)
        assert np.array_equal(at, np.zeros((5, 1)))
        assert np.array_equal(ct, np.zeros((5, 1)))
        assert np.array_equal(dt, d)

    def test_purity(self):
        s = make_system(9, seed=2)
        cols = [v[:, None] for v in (s.a, s.b, s.c, s.d)]
        at1, _, dt1, _ = modified_thomas_phase(*cols)
        at2, _, dt2, _ = modified_thomas_phase(*cols)
        assert np.array_equal(dt1, dt2)
        assert np.array_equal(at1, at2)

    def test_interior_two_unknown_form(self):
        # interior rows must reproduce the reference solution from the two
        # boundary unknowns of the same tile
        s = make_system(12, seed=12)
        u = thomas_scalar(s.a, s.b, s.c, s.d)
        plan = TilePlan(12, 3)
        tiles = tile_system(s, plan)
        for k, (at, ct, dt, _) in enumerate(tiles):
            off = k * plan.m
            size = plan.sizes[k]
            u0, um = u[off], u[off + size - 1]
            for i in range(1, size - 1):
                rec = dt[i, 0, 0] - at[i, 0, 0] * u0 - ct[i, 0, 0] * um
                assert rec == pytest.approx(u[off + i], abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 12), st.integers(1, 5), st.integers(1, 150), st.integers(0, 4),
       st.sampled_from([Precision.FP32, Precision.FP64]), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_phase_on_strided_tile_views(m, tiles, count, off, precision, shared, plant, seed):
    # the tile views of a transposed (count, n) batch, as _tiled_kernel passes them:
    # inputs stay untouched, and results match the phase on contiguous copies
    n = off + m * tiles
    rng = np.random.default_rng(seed)
    batch = dominant_batch(count, n, precision, seed)
    arrays = [getattr(batch, k).T for k in "abcd"]
    if shared:  # one (n, 1) profile per coefficient, shared by every line
        arrays[:3] = [x[:, :1] for x in arrays[:3]]
    if plant:  # row 1 of a tile divides by b[1] as given
        arrays[1][off + m * int(rng.integers(tiles)) + 1, int(rng.integers(arrays[1].shape[1]))] = 0
    before = [x.tobytes() for x in arrays]
    views = [tiled._tile_view(x, off, m, tiles) for x in arrays]
    got = modified_thomas_phase(*views)
    assert [x.tobytes() for x in arrays] == before
    want = modified_thomas_phase(*(np.ascontiguousarray(v) for v in views))
    for name, x, y in zip(("at", "ct", "dt", "failed"), got, want):
        assert np.array_equal(x, y, equal_nan=True), name
    assert got[3].any() == plant


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
        full = np.array(thomas_scalar(s.a, s.b, s.c, s.d))
        assert relative_inf_error(boundary[:, 0], full[plan.boundary_indices()]) <= 1e-12

    @pytest.mark.parametrize("n, t, shared", [(6, 2, False), (11, 3, False), (11, 3, True)],
                             ids=["even", "short-last-tile", "shared-profile"])
    def test_minimal_two_tiles_structure(self, n, t, shared):
        # the outermost reduced rows carry no outward coupling, as the kernel
        # builds them: one phase call per run of equal tiles (two runs when
        # the last tile is short), with shared (m, tiles, 1) coefficients too
        plan, lines = TilePlan(n, t), 3
        arrays = [getattr(dominant_batch(lines, n, Precision.FP64, 41), k).T for k in "abcd"]
        if shared:
            arrays[:3] = [x[:, :1] for x in arrays[:3]]
        parts = [modified_thomas_phase(*(tiled._tile_view(x, off, size, count) for x in arrays))
                 for off, size, count in plan.runs]
        assert len(parts) == len(set(plan.sizes))
        ra, rb, rc, rd = assemble_reduced(parts)
        width = 1 if shared else lines
        assert ra.shape == rb.shape == rc.shape == (2 * t, width) and rd.shape == (2 * t, lines)
        assert np.all(ra[0] == 0.0) and np.all(rc[-1] == 0.0)


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
        assert error_bound(s, u[:, 0]) <= 1e-12

    def test_zero_rhs_gives_zero(self):
        s = make_system(12, seed=44)
        zeroed = TridiagonalSystem(s.a, s.b, s.c, np.zeros(12))
        tiles = tile_system(zeroed, TilePlan(12, 3))
        u = back_substitute(tiles, solve_reduced(tiles))
        assert np.max(np.abs(u)) == 0.0


class TestHybridSolvers:
    def test_matches_monolithic_256(self):
        s = make_system(256, seed=256)
        ref = solve_system(s, "thomas")
        assert relative_inf_error(solve_system(s, "thomas-thomas", 4), ref) <= 1e-10
        assert relative_inf_error(solve_system(s, "thomas-pcr", 4), ref) <= 1e-10

    def test_invalid_plan_rejected(self):
        s = make_system(8, seed=1)
        with pytest.raises(InvalidTilePlan):
            solve_system(s, "thomas-thomas", 4)

    def test_smallest_legal_case(self):
        s = make_system(6, seed=60)
        assert error_bound(s, solve_system(s, "thomas-thomas", 2)) <= 1e-12
        assert error_bound(s, solve_system(s, "thomas-pcr", 2)) <= 1e-12

    def test_identity_exact(self):
        s = identity_system(16)
        assert np.array_equal(solve_system(s, "thomas-thomas", 4), s.d)
        assert np.array_equal(solve_system(s, "thomas-pcr", 4), s.d)

    @pytest.mark.parametrize("n", [6, 24, 100, 333, 1024])
    @pytest.mark.parametrize("t", [2, 3, 4, 8, 16])
    def test_tiling_invariance(self, n, t):
        s = make_system(n, seed=n * 31 + t)
        # tiles of ceil(n/t) rows leave one with fewer than 3: (6, 3) has m = 2,
        # (100, 16) has m = 7 and nothing left for the last tile
        if (n, t) in {(6, 3), (6, 4), (6, 8), (6, 16), (24, 16), (100, 16)}:
            for algo in ("thomas-thomas", "thomas-pcr"):
                with pytest.raises(InvalidTilePlan):
                    solve_system(s, algo, t)
            return
        ref = solve_system(s, "thomas")
        assert relative_inf_error(solve_system(s, "thomas-thomas", t), ref) <= 1e-12
        assert relative_inf_error(solve_system(s, "thomas-pcr", t), ref) <= 1e-12

    @pytest.mark.parametrize("algo", ["thomas-thomas", "thomas-pcr"])
    def test_non_finite_input_raises(self, algo):
        s = make_system(24, seed=5)
        d = s.d.copy()
        d[10] = np.nan
        with pytest.raises(NonFiniteSolution):
            solve_system(TridiagonalSystem(s.a, s.b, s.c, d), algo, 3)
        for bad in (np.nan, np.inf):
            b = s.b.copy()
            b[10] = bad
            with pytest.raises(ZeroPivot) as err:
                solve_system(TridiagonalSystem(s.a, b, s.c, s.d), algo, 3)
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
            batch_solve(stack_systems(systems), algo, tiles)
        [(i, exc)] = err.value.failures
        assert (i, exc.index) == (1, row)


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 200), st.sampled_from(["thomas-thomas", "thomas-pcr"]),
       st.sampled_from([Precision.FP32, Precision.FP64]), st.integers(0, 2**32 - 1), st.data())
def test_kernel_matches_tile_by_tile_steps(n, algo, precision, seed, data):
    # an independent reference: the public steps composed one tile at a time
    t = data.draw(st.integers(2, n // 3), label="tiles")
    try:
        plan = TilePlan(n, t)
    except InvalidTilePlan:
        assume(False)
    s = random_dominant_system(n, np.random.default_rng(seed), precision)
    tiles = tile_system(s, plan)
    steps = back_substitute(tiles, solve_reduced(tiles, algo.split("-")[1]))[:, 0]
    assert np.array_equal(solve_system(s, algo, t), steps)


@pytest.mark.parametrize("t", [2, 8, 64])
@pytest.mark.parametrize("divides", [True, False])
def test_one_phase_call_per_run_of_equal_tiles(monkeypatch, t, divides):
    # every full tile of every line in one call, the short last tile in a second
    calls = []

    def counted(*args):
        calls.append(args)
        return modified_thomas_phase(*args)

    monkeypatch.setattr(tiled, "modified_thomas_phase", counted)
    n = 6 * t if divides else 6 * t - 3
    assert (n % t == 0) == divides
    batch = stack_systems([make_system(n, seed) for seed in range(3)])
    batch_solve(batch, "thomas-pcr", t)
    assert len(calls) == (1 if divides else 2)


# sha256 of the tiled hybrids' outputs, pinning them bitwise across refactors; only
# finite values are hashed, as the bits of a NaN differ between CPU architectures
GOLDEN = {
    "thomas-thomas-fp32-96-4":
        "d9bbc230546ad07434a7e1b418efca5dd700c80747aeee9b8c5edea407156f0d",
    "thomas-thomas-fp32-203-8":
        "9ba42c7eef33b43ee8e03abca6e47c2c1cf413152977902792151aa819cabf21",
    "thomas-thomas-fp64-96-4":
        "19edf1de6206301a6838cacaeadc96744c745afd2454f7d6a2a85a060ed147c7",
    "thomas-thomas-fp64-203-8":
        "282cd5d80021a6130e37d83ece80c2aa18cfe7ebe519acc549b599646ad768f2",
    "thomas-pcr-fp32-96-4":
        "d137e72a423bedaf3e7c5571d53c144246fc12aa66d79e726bfdb57af0f969fe",
    "thomas-pcr-fp32-203-8":
        "8a24bdacbc0b08797a61aececec94760355d0d727341c49e6a4814066ee32a91",
    "thomas-pcr-fp64-96-4":
        "aed005a8b1e3c940d94c7e5661e2eacb144e20c5ffb8f0e955bc62664090bcb1",
    "thomas-pcr-fp64-203-8":
        "53a65a429401f38804cea21d9dd52d64de200eb47947eec2b543738790212391",
    "lines-thomas-pcr":
        "6429b658cb7df032330a59d9f028721b8dac47995e4dbee9d961bc1c693a4a09",
    "failing-thomas-thomas":
        "5fa96f2fd93b90ce43086148d75a2f22b9220ce128950d1a45be3b68a512f8d3",
    "failing-thomas-pcr":
        "7240d391e066c0be065f3dd0121ea4e5ccaf7d397fe16912bcbd8a0bf10eb7ae",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("algo", ["thomas-thomas", "thomas-pcr"])
    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    @pytest.mark.parametrize("n, t", [(96, 4), (203, 8)])  # 203 = 7 tiles of 26 + 21
    def test_batch_solve(self, algo, precision, n, t):
        batch = dominant_batch(70, n, precision, seed=n + t)  # lines past LINE_BLOCK
        key = f"{algo}-{precision.value}-{n}-{t}"
        assert digest(*batch_solve(batch, algo, t)) == GOLDEN[key]

    def test_shared_profile_lines(self):
        rng = np.random.default_rng(7)
        n = 150  # 6 tiles of 22 + 18
        a, c = rng.uniform(-1.0, 1.0, (2, n))
        a[0] = c[-1] = 0.0
        b = np.abs(a) + np.abs(c) + rng.uniform(1.0, 2.0, n)
        mesh = Mesh(rng.uniform(-1.0, 1.0, (2, 1, 40, n)), 2)
        out = solve_lines(mesh, (a, b, c), "x", "thomas-pcr", tiles=7)
        assert digest(out.data) == GOLDEN["lines-thomas-pcr"]

    @pytest.mark.parametrize("algo", ["thomas-thomas", "thomas-pcr"])
    def test_failing_batch(self, algo):
        batch = dominant_batch(20, 48, Precision.FP64, seed=48)  # 4 tiles of 10 + 8
        batch.b[3, 11] = 0.0  # row 1 of tile 1: a zero pivot
        batch.b[11, 41] = 0.0  # row 1 of the short last tile
        batch.b[15, 5] = np.inf
        batch.d[7, 30] = np.nan
        with pytest.raises(BatchSolveError) as err:
            batch_solve(batch, algo, 5)
        failures = [(i, type(exc).__name__, getattr(exc, "index", None), exc.line)
                    for i, exc in err.value.failures]
        survivors = np.delete(err.value.solutions, [i for i, _ in err.value.failures], axis=0)
        assert len(survivors) == 20 - len(failures)
        assert digest(np.frombuffer(repr(failures).encode(), np.uint8),
                      *survivors) == GOLDEN[f"failing-{algo}"]
