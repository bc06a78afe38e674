"""Latency/memory model checks.

Every closed-form latency is cross-checked against an independent
straight-line transcription written here with plain integer/Fraction
arithmetic, so a slip in either copy shows up as an exact mismatch.
"""

import json
import math
import re
from copy import copy
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from tridax import InvalidTilePlan, Precision, TilePlan
from tridax.perfmodel import (MEASURED_REFERENCES, U280, Algorithm, DesignPoint,
                              DeviceProfile, LatencyEstimate, ProblemSpec,
                              ResourceEstimate, default_interleave_group, find_reference,
                              latency_for_problem, load_device_profile, memory_words,
                              relative_error)
from tridax.perfmodel.design import DESIGN_FIELDS, SHARED_FIELDS
from tridax.perfmodel.latency import ceil_div, ceil_log2


def clog2(n):
    p = 0
    while 2 ** p < n:
        p += 1
    return p


def dp_thomas(**kw):
    kw.setdefault("interleave_group", 32)
    kw.setdefault("vector_width", 8)
    return DesignPoint(Algorithm.BATCHED_THOMAS, **kw)


class TestHelpers:
    def test_ceil_log2(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 7, 8, 128)] == [0, 1, 2, 2, 3, 3, 7]

    def test_ceil_div(self):
        assert ceil_div(8000, 256) == 32
        assert ceil_div(8, 8) == 1

    def test_cycles_to_seconds_exact_round_trip(self):
        for cycles in (143360, 7168210, Fraction(12800, 7)):
            est = LatencyEstimate(Fraction(cycles), 300e6, {})
            assert est.seconds_exact * 300_000_000 == cycles

    def test_default_groups(self):
        assert default_interleave_group(Precision.FP32) == 32
        assert default_interleave_group(Precision.FP64) == 64


class TestBatchedThomas:
    def test_calibration_point(self):
        est = latency_for_problem(dp_thomas(), batch=8000, n=128)
        assert est.cycles == 143360
        assert est.milliseconds == pytest.approx(0.4779, abs=1e-4)

    def test_transcription_sweep(self):
        for batch, n, g, v, ncu in [(8000, 128, 32, 8, 1), (1, 1, 64, 1, 1),
                                    (500, 77, 32, 8, 2), (10**6, 256, 64, 4, 3)]:
            dp = DesignPoint(Algorithm.BATCHED_THOMAS, interleave_group=g,
                             vector_width=v, compute_units=ncu)
            expected = (3 + math.ceil(batch / (g * v * ncu))) * g * n
            assert latency_for_problem(dp, batch=batch, n=n).cycles == expected

    def test_asymptote_per_system(self):
        # n cycles per system over vector_width * compute_units lanes
        dp = dp_thomas(compute_units=2)
        est = latency_for_problem(dp, batch=10**6, n=128)
        assert abs(est.cycles / 10**6 / Fraction(128, 8 * 2) - 1) < 0.01

    def test_monotone_in_batch_and_size(self):
        dp = dp_thomas()
        prev = 0
        for batch in (1, 10, 100, 1000, 10000):
            cur = latency_for_problem(dp, batch=batch, n=64).cycles
            assert cur >= prev
            prev = cur
        prev = 0
        for n in (1, 8, 64, 512):
            cur = latency_for_problem(dp, batch=100, n=n).cycles
            assert cur >= prev
            prev = cur


class TestBatchedPcr:
    def test_minimal_example(self):
        dp = DesignPoint(Algorithm.BATCHED_PCR)
        assert latency_for_problem(dp, batch=1, n=2).cycles == 32

    def test_8000x128(self):
        dp = DesignPoint(Algorithm.BATCHED_PCR)
        est = latency_for_problem(dp, batch=8000, n=128)
        assert est.cycles == 7168210
        assert est.milliseconds == pytest.approx(23.894, abs=1e-3)

    def test_transcription_sweep(self):
        for batch, n, f_u, l in [(1, 2, 1, 30), (8000, 128, 1, 30),
                                 (123, 100, 3, 7), (10**6, 1024, 2, 30)]:
            dp = DesignPoint(Algorithm.BATCHED_PCR, unroll=f_u, pipeline_latency=l)
            expected = (Fraction(batch * n, f_u) + l) * clog2(n)
            assert latency_for_problem(dp, batch=batch, n=n).cycles == expected

    def test_one_row_systems_cost_the_normalization_pass(self):
        # no reduction step at n = 1, but the solver still divides by the diagonal
        dp = DesignPoint(Algorithm.BATCHED_PCR)
        assert latency_for_problem(dp, batch=1000, n=1).cycles == 1000 + 30
        assert latency_for_problem(replace(dp, unroll=4), batch=1000, n=1).cycles == 250 + 30

    def test_ratio_to_thomas_approaches_log(self):
        for n in (128, 256, 1024):
            for f_u in (1, 2, 3):
                th = latency_for_problem(dp_thomas(vector_width=1), batch=10**6, n=n)
                pc = latency_for_problem(DesignPoint(Algorithm.BATCHED_PCR, unroll=f_u),
                                         batch=10**6, n=n)
                ratio = pc.cycles / th.cycles
                assert abs(ratio / Fraction(clog2(n), f_u) - 1) < 0.01


class TestTiledSolvers:
    def test_thomas_thomas_example(self):
        dp = DesignPoint(Algorithm.THOMAS_THOMAS, interleave_group=32, tiles=4)
        assert latency_for_problem(dp, batch=1, n=512).cycles == 12800

    def test_transcriptions(self):
        # the reduced solve interleaves the precision's default group g_r
        fp32, fp64 = Precision.FP32, Precision.FP64
        for batch, n, t, g, g_r, l, p in [(1, 512, 4, 32, 32, 30, fp32),
                                          (5000, 8192, 16, 32, 64, 30, fp64),
                                          (77, 300, 3, 16, 32, 12, fp32)]:
            dp = DesignPoint(Algorithm.THOMAS_THOMAS, precision=p, interleave_group=g,
                             tiles=t)
            common = (2 + math.ceil(batch * t / g)) * math.ceil(n / t) * g
            assert latency_for_problem(dp, batch=batch, n=n).cycles == \
                common + g_r * (2 * t) * 2
            dp2 = DesignPoint(Algorithm.THOMAS_PCR, precision=p, interleave_group=g,
                              tiles=t, pipeline_latency=l)
            assert latency_for_problem(dp2, batch=batch, n=n).cycles == \
                common + (2 * t + l) * clog2(2 * t)

    def test_reduced_term_comparison(self):
        # the cyclic-reduction reduced solve stays cheaper than the direct
        # one across any practical tile count
        for t in [2, 3, 4, 8, 16, 64, 256, 1024, 4096]:
            direct = 32 * (2 * t) * 2
            logform = (2 * t + 30) * clog2(2 * t)
            assert logform < direct

    def test_asymptote(self):
        # t tiles of ceil(n/t) rows each per system
        dp = DesignPoint(Algorithm.THOMAS_PCR, interleave_group=32, tiles=4)
        est = latency_for_problem(dp, batch=10**6, n=512)
        assert abs(est.cycles / 10**6 / (4 * 128) - 1) < 0.01

    def test_tiles_required(self):
        with pytest.raises(ValueError):
            latency_for_problem(DesignPoint(Algorithm.THOMAS_THOMAS), batch=1, n=128)


class TestAdiModels:
    def test_3d_transcription(self):
        x = y = z = 96
        batch, n_iter, v, g, ncu = 72, 100, 8, 32, 6
        dp = DesignPoint(Algorithm.ADI3D, interleave_group=g, vector_width=v,
                         compute_units=ncu)
        drain = math.ceil(batch / (2 * ncu)) * Fraction(x * y * z, v)
        rhs_xy = (Fraction(2 * x * y, v) + (2 * v * Fraction(x, v) + 3 * g * x)
                  + (Fraction(2 * x * y, v) + 3 * g * y) + drain)
        z_mod = (Fraction(2 * x * z, v) + 3 * g * z) + drain
        expected = n_iter * max(rhs_xy, z_mod)
        est = latency_for_problem(dp, batch=batch, dims=(x, y, z), n_iter=n_iter)
        assert est.cycles == expected

    def test_3d_symmetric_shares_drain_term(self):
        dp = DesignPoint(Algorithm.ADI3D, interleave_group=32, vector_width=8,
                         compute_units=2)
        est = latency_for_problem(dp, batch=10**5, dims=(64, 64, 64))
        drain = ceil_div(10**5, 4) * Fraction(64 ** 3, 8)
        for term in est.breakdown.values():
            assert term > drain  # both modules carry the same dominant drain

    def test_3d_narrower_data_path_costs_more(self):
        full = DesignPoint(Algorithm.ADI3D, interleave_group=32, vector_width=8)
        narrow = replace(full, vector_width=4)
        assert latency_for_problem(narrow, batch=8, dims=(32, 32, 32)).cycles > \
            latency_for_problem(full, batch=8, dims=(32, 32, 32)).cycles

    def test_3d_rejects_zero_batch(self):
        dp = DesignPoint(Algorithm.ADI3D)
        with pytest.raises(ValueError):
            latency_for_problem(dp, batch=0, dims=(16, 16, 16))

    def test_2d_transcription_and_unroll_reduction(self):
        x = y = 128
        batch, v, g, ncu = 3000, 8, 32, 3
        for n_iter, f_u in [(120, 3), (120, 1), (100, 2)]:
            dp = DesignPoint(Algorithm.ADI2D, interleave_group=g, vector_width=v,
                             unroll=f_u, compute_units=ncu, frequency_hz=292e6)
            pro = (Fraction(2 * x, v) + (2 * v * Fraction(x, v) + 3 * g * x)
                   + (Fraction(2 * x * y, v) + 3 * g * y))
            expected = math.ceil(n_iter / f_u) * (f_u * pro
                                                  + math.ceil(batch / ncu) * Fraction(x * y, v))
            est = latency_for_problem(dp, batch=batch, dims=(x, y), n_iter=n_iter)
            assert est.cycles == expected

    def test_2d_unroll_one_is_per_iteration_pipeline(self):
        dp1 = DesignPoint(Algorithm.ADI2D, interleave_group=32, unroll=1)
        est = latency_for_problem(dp1, batch=10, dims=(64, 64), n_iter=7)
        per_iter = latency_for_problem(dp1, batch=10, dims=(64, 64))
        assert est.cycles == 7 * per_iter.cycles

    def test_2d_deeper_unroll_reduces_cycles_at_large_batch(self):
        prev = None
        for f_u in (1, 2, 4):
            dp = DesignPoint(Algorithm.ADI2D, interleave_group=32, unroll=f_u)
            cur = latency_for_problem(dp, batch=10**5, dims=(128, 128), n_iter=8).cycles
            if prev is not None:
                assert cur < prev
            prev = cur

    def test_2d_tiled_transcription(self):
        x, y = 896, 640
        batch, v, g = 180, 8, 32
        for t in (4, 7, 16):
            dp = DesignPoint(Algorithm.ADI2D_TILED, interleave_group=g,
                             vector_width=v, tiles=t)
            drain = Fraction(batch * x * y, v)
            base_x = (Fraction(2 * x, v) + 2 * v * Fraction(x, v)
                      + Fraction(3 * g * x, t) + drain)
            base_y = 2 * y * Fraction(t, v) + Fraction(3 * g * y, t) + drain
            assert latency_for_problem(dp, batch=batch, dims=(x, y), n_iter=100).cycles == \
                100 * (base_x + 4 * g * t + base_y + 4 * g * t)

    def test_2d_tiled_large_batch_limit(self):
        dp = DesignPoint(Algorithm.ADI2D_TILED, interleave_group=32, tiles=4)
        batch = 10**7
        est = latency_for_problem(dp, batch=batch, dims=(64, 64))
        limit = 2 * Fraction(batch * 64 * 64, 8)
        assert abs(est.cycles / limit - 1) < 0.01


def _where(p):
    return dict(batch=p.batch, n=p.size, dims=p.dims, n_iter=p.n_iter)


ADI2D_PUBLISHED = DesignPoint(Algorithm.ADI2D, unroll=3, compute_units=3,
                              frequency_hz=292e6)
ADI2D_PROBLEM = dict(batch=3000, dims=(128, 128), n_iter=120)


class TestCalibration:
    def test_thomas_reference_within_budget(self):
        dp = dp_thomas(precision=Precision.FP32)
        ref = find_reference(dp, batch=8000, n=128)
        est = latency_for_problem(dp, batch=8000, n=128)
        err = relative_error(est.seconds, ref.measured_seconds)
        assert err <= 0.15
        assert err == pytest.approx(0.0167, abs=0.001)

    def test_adi2d_reconstruction_within_budget(self):
        ref = find_reference(ADI2D_PUBLISHED, **ADI2D_PROBLEM)
        assert ref.reconstructed
        est = latency_for_problem(ADI2D_PUBLISHED, batch=3000, dims=(128, 128), n_iter=120)
        err = relative_error(est.seconds, ref.measured_seconds)
        assert err == pytest.approx(0.146, abs=0.001)

    @pytest.mark.parametrize("ref", MEASURED_REFERENCES, ids=lambda r: r.name)
    def test_every_published_point_within_paper_accuracy(self, ref):
        # the paper claims over 85% predictive model accuracy
        assert find_reference(ref.design, **_where(ref.problem)) is ref
        est = latency_for_problem(ref.design, **_where(ref.problem))
        assert relative_error(est.seconds, ref.measured_seconds) <= 0.15

    def test_references_are_resolved_designs_in_their_problems_precision(self):
        for ref in MEASURED_REFERENCES:
            assert ref.design == ref.design.resolved()
            assert ref.design.precision is ref.problem.precision

    @pytest.mark.parametrize("change", [
        dict(precision=Precision.FP64), dict(interleave_group=64), dict(vector_width=4),
        dict(compute_units=2), dict(frequency_hz=250e6)])
    def test_calibration_matches_only_its_own_design(self, change):
        assert find_reference(dp_thomas(), batch=8000, n=128) is not None
        assert find_reference(dp_thomas(**change), batch=8000, n=128) is None

    @pytest.mark.parametrize("change", [
        dict(precision=Precision.FP64), dict(frequency_hz=300e6), dict(interleave_group=64),
        dict(unroll=2), dict(compute_units=1), dict(vector_width=4)])
    def test_adi2d_matches_only_its_own_design(self, change):
        assert find_reference(replace(ADI2D_PUBLISHED, **change), **ADI2D_PROBLEM) is None

    @pytest.mark.parametrize("where", [dict(batch=17, n=128), dict(batch=8000, n=127)])
    def test_other_problem_returns_none(self, where):
        assert find_reference(dp_thomas(), **where) is None

    @pytest.mark.parametrize("lookup", [find_reference, latency_for_problem])
    def test_iterations_of_a_batch_problem_are_rejected(self, lookup):
        # no batch model reads n_iter, so a batch problem takes none, 1 included
        assert lookup(dp_thomas(), batch=8000, n=128) is not None
        for n_iter in (1, 2):
            with pytest.raises(ValueError,
                               match=f"^n_iter applies to mesh problems; .* not {n_iter}$"):
                lookup(dp_thomas(), batch=8000, n=128, n_iter=n_iter)

    def test_unset_iterations_of_a_mesh_problem_are_one(self):
        unset = ProblemSpec(batch=3000, dims=(128, 128))
        assert unset.n_iter == 1 and unset == ProblemSpec(batch=3000, dims=(128, 128), n_iter=1)
        assert ProblemSpec(batch=8000, size=128).n_iter is None

    def test_adi2d_other_problem_returns_none(self):
        for change in (dict(batch=2999), dict(dims=(128, 64)), dict(n_iter=119)):
            assert find_reference(ADI2D_PUBLISHED, **{**ADI2D_PROBLEM, **change}) is None


class TestMemoryModel:
    def test_thomas_words_example(self):
        est = memory_words(dp_thomas(precision=Precision.FP32), 128, U280)
        assert est.words == 12 * 32 * 128 + 4 * 32 == 49280
        assert est.feasible

    def test_feasibility_flips_at_threshold_and_stays(self):
        dp = dp_thomas(precision=Precision.FP64)
        # bytes(n) = (12*32*n + 128) * 8 * 8; find the flip against the
        # device budget and confirm antitone behavior
        flip = None
        prev_feasible = True
        for n in range(64, 5000, 64):
            feasible = memory_words(dp, n, U280).feasible
            assert not (feasible and not prev_feasible)  # never flips back
            if prev_feasible and not feasible:
                flip = n
            prev_feasible = feasible
        assert flip is not None
        per_n = 12 * 32 * 8 * 8  # words/row x word bytes x lanes
        predicted = U280.on_chip_bytes // per_n
        assert abs(flip - predicted) <= 64
        assert not memory_words(dp, 4096, U280).feasible

    def test_tiled_collapse_rejected(self):
        dp = DesignPoint(Algorithm.THOMAS_THOMAS, tiles=64)
        with pytest.raises(InvalidTilePlan):
            memory_words(dp, 128, U280)

    @pytest.mark.parametrize("algo", [Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR,
                                      Algorithm.ADI2D_TILED])
    def test_missing_tiles_rejected_as_by_latency(self, algo):
        # the design cannot be built, so neither model ever sees it
        with pytest.raises(ValueError, match=f"{algo.value} requires a tile count"):
            DesignPoint(algo)

    @pytest.mark.parametrize("algo", [Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR])
    def test_tilings_follow_the_solvers_plan(self, algo):
        """The model rejects a tiling exactly when the solver's TilePlan does."""
        cases = [(n, t) for n in range(3, 301) for t in range(2, 33)] + [(1000, 64)]
        for n, t in cases:
            dp = DesignPoint(algo, tiles=t)
            try:
                TilePlan(n, t)
            except InvalidTilePlan:
                with pytest.raises(InvalidTilePlan):
                    memory_words(dp, n, U280)
            else:
                memory_words(dp, n, U280)

    def test_2d_tilings_follow_the_solvers_plan_on_both_axes(self):
        """The tiled 2-D model accepts a mesh exactly when the solver's
        TilePlan accepts the tiling of both its x and its y lines."""
        fits = {(n, t): _plan_accepts(n, t) for n in range(3, 65) for t in range(2, 17)}
        for t in range(2, 17):
            dp = DesignPoint(Algorithm.ADI2D_TILED, tiles=t)
            for x in range(3, 65):
                for y in range(3, 65):
                    try:
                        latency_for_problem(dp, batch=1, dims=(x, y))
                    except InvalidTilePlan:
                        assert not (fits[x, t] and fits[y, t]), (x, y, t)
                    else:
                        assert fits[x, t] and fits[y, t], (x, y, t)

    def test_tiled_words_transcription(self):
        g, n, t, l = 32, 8192, 8, 30
        dp = DesignPoint(Algorithm.THOMAS_PCR, interleave_group=g, tiles=t,
                         pipeline_latency=l, precision=Precision.FP32)
        est = memory_words(dp, n, U280)
        per_group = math.ceil(g / t)
        assert est.words == 18 * per_group * n + 28 * t * per_group \
            + 3 * (2 * t + l) * clog2(2 * t)


def _plan_accepts(n, t):
    try:
        TilePlan(n, t)
    except InvalidTilePlan:
        return False
    return True


class TestDesignFit:
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_tile_count_exactly_for_tiled_algorithms(self, algo):
        if algo.is_tiled:
            DesignPoint(algo, tiles=4)
            with pytest.raises(ValueError, match="requires a tile count"):
                DesignPoint(algo)
        else:
            DesignPoint(algo)
            with pytest.raises(ValueError, match=f"not {algo.value}"):
                DesignPoint(algo, tiles=4)

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_latency_takes_exactly_problems_of_the_designs_kind(self, algo):
        dp = DesignPoint(algo, tiles=4 if algo.is_tiled else None)
        problems = {"batch": dict(n=64), "adi2d": dict(dims=(64, 64)),
                    "adi3d": dict(dims=(64, 64, 64))}
        for kind, where in problems.items():
            assert ProblemSpec(2, where.get("n"), where.get("dims")).kind == kind
            if kind == algo.kind:
                latency_for_problem(dp, batch=2, **where)
            else:
                with pytest.raises(ValueError, match=f"^{algo.value} (needs|cannot take)"):
                    latency_for_problem(dp, batch=2, **where)


# A non-default value for every DesignPoint field, valid on every problem below.
PERTURBED = {"precision": Precision.FP64, "interleave_group": 16, "vector_width": 4,
             "unroll": 2, "tiles": 8, "compute_units": 2, "pipeline_latency": 12,
             "frequency_hz": 250e6}
PROBLEMS = {"batch": [dict(batch=100, n=64), dict(batch=5000, n=1000)],
            "adi2d": [dict(batch=10, dims=(64, 64), n_iter=3),
                      dict(batch=2, dims=(96, 48))],
            "adi3d": [dict(batch=2, dims=(32, 32, 32), n_iter=3),
                      dict(batch=1, dims=(16, 24, 32))]}


def _model_outputs(dp):
    """Everything the latency and memory models report for ``dp`` on a few
    problems of its kind."""
    out = []
    for where in PROBLEMS[dp.algorithm.kind]:
        e = latency_for_problem(dp, **where)
        out += [(e.cycles, e.seconds_exact, e.breakdown, e.stalled),
                memory_words(dp, max(where.get("dims") or [where.get("n")]), U280)]
    return out


class TestDesignFields:
    """Each design takes exactly the fields its latency and memory models read."""

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_perturbing_a_field_moves_the_model_exactly_when_it_is_read(self, algo):
        base = DesignPoint(algo, tiles=4 if algo.is_tiled else None)
        before = _model_outputs(base)
        for f in fields(DesignPoint)[1:]:
            read = f.name in SHARED_FIELDS + DESIGN_FIELDS[algo]
            if read:
                moved = replace(base, **{f.name: PERTURBED[f.name]})
            else:
                moved = copy(base)
                object.__setattr__(moved, f.name, PERTURBED[f.name])  # past the check
            assert (_model_outputs(moved) != before) == read, f.name

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_a_field_the_model_does_not_read_keeps_its_default(self, algo):
        base = DesignPoint(algo, tiles=4 if algo.is_tiled else None)
        for f in fields(DesignPoint)[1:]:
            if f.name in SHARED_FIELDS + DESIGN_FIELDS[algo]:
                replace(base, **{f.name: PERTURBED[f.name]})
                continue
            replace(base, **{f.name: f.default})
            readers = ", ".join(a.value for a in Algorithm if f.name in DESIGN_FIELDS[a])
            with pytest.raises(ValueError,
                               match=f"^{f.name} applies to {readers}, not {algo.value}$"):
                replace(base, **{f.name: PERTURBED[f.name]})

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_resolved_holds_a_value_in_exactly_the_fields_the_model_reads(self, algo,
                                                                          precision):
        dp = DesignPoint(algo, precision=precision, tiles=4 if algo.is_tiled else None)
        assert {f.name for f in fields(DesignPoint)[1:] if getattr(dp.resolved(), f.name)
                is not None} == set(SHARED_FIELDS + DESIGN_FIELDS[algo])
        assert set(dp.describe()) == {"algorithm", *SHARED_FIELDS, *DESIGN_FIELDS[algo]}

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_an_unread_field_set_to_the_value_it_resolves_to_raises(self, algo):
        # the lanes, unroll and pipeline depth once defaulted to these values,
        # so only other values were rejected
        base = DesignPoint(algo, tiles=4 if algo.is_tiled else None)
        for name, value in {"interleave_group": 32, "vector_width": 8, "unroll": 1,
                            "compute_units": 1, "pipeline_latency": 30}.items():
            if name not in DESIGN_FIELDS[algo]:
                message = f"^{name} applies to .* not {algo.value}$"
                with pytest.raises(ValueError, match=message):
                    replace(base, **{name: value})
                with pytest.raises(ValueError, match=f"^{name} applies to "):
                    replace(base, **{name: 0})  # the reads check comes first

    def test_settable_pairs(self):
        settable = sum(len(SHARED_FIELDS + DESIGN_FIELDS[a]) for a in Algorithm)
        assert settable == 34 and len(fields(DesignPoint)) - 1 == 8
        assert [a for a in Algorithm if a.is_tiled] == [
            Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR, Algorithm.ADI2D_TILED]


SMALL_PROFILE = {"bram_bytes": 1e6, "uram_bytes": 2e6, "hbm_ports": 16}


class TestDeviceProfiles:
    def test_u280_table_values(self):
        assert U280.bram_bytes == 6.6e6 and U280.uram_bytes == 34.5e6
        assert U280.hbm_ports == 32

    def test_profile_holds_only_budgets_the_model_reads(self):
        assert [f.name for f in fields(DeviceProfile)] == [
            "name", "bram_bytes", "uram_bytes", "hbm_ports"]
        assert [f.name for f in fields(ResourceEstimate)] == [
            "words", "total_bytes", "hbm_ports", "feasible", "violations"]

    @pytest.mark.parametrize("name", ["bram_bytes", "uram_bytes", "hbm_ports"])
    def test_each_budget_moves_feasibility(self, name):
        # 36.9 MB of buffers and 10 ports: inside U280's 41.1 MB and 32 ports
        dp, n = dp_thomas(), 3000
        est = memory_words(dp, n, U280)
        assert est.feasible and U280.uram_bytes < est.total_bytes < U280.on_chip_bytes
        short = (est.hbm_ports - 1 if name == "hbm_ports"
                 else getattr(U280, name) - (U280.on_chip_bytes - est.total_bytes) - 1)
        got = memory_words(dp, n, replace(U280, **{name: short}))
        assert not got.feasible and len(got.violations) == 1
        assert ("HBM ports" in got.violations[0]) == (name == "hbm_ports")

    def test_builtin_lookup(self):
        assert load_device_profile("u280") is U280
        with pytest.raises(ValueError):
            load_device_profile("nonexistent-device")

    def test_file_profile_loading(self, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({**SMALL_PROFILE, "hbm_ports": 16.0}))
        prof = load_device_profile(str(path))
        assert prof.name == "small" and prof.hbm_ports == 16
        assert type(prof.hbm_ports) is int  # a whole JSON float is stored as an int

    def test_json_profile_loading(self, tmp_path):
        path = tmp_path / "card.json"
        path.write_text(json.dumps({**SMALL_PROFILE, "name": "card-a"}))
        prof = load_device_profile(str(path))
        assert prof.name == "card-a" and prof.hbm_ports == 16
        assert prof.on_chip_bytes == 3e6

    def test_missing_keys_named(self, tmp_path):
        values = {k: v for k, v in SMALL_PROFILE.items() if k not in ("hbm_ports", "bram_bytes")}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(values))
        with pytest.raises(ValueError, match=r"missing keys: \['bram_bytes', 'hbm_ports'\]"):
            load_device_profile(str(path))

    @pytest.mark.parametrize("key, value, message", [
        ("hbm_ports", 16.7, "hbm_ports must be a whole number, not 16.7"),
        ("bram_bytes", math.nan, "bram_bytes must be a finite positive number, not nan"),
        ("uram_bytes", math.inf, "uram_bytes must be a finite positive number, not inf")])
    def test_bad_budget_values_named(self, tmp_path, key, value, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_PROFILE, key: value}))
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_device_profile(str(path))

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "must be a JSON object, not list"),
        ('"u280"', "must be a JSON object, not str"),
        ('{"bram_bytes": 1e6,', "is not JSON: Expecting property name enclosed in double "
                                "quotes: line 1 column 20 (char 19)")],
        ids=["list", "string", "truncated"])
    def test_file_that_is_not_a_json_object_named(self, tmp_path, text, message):
        path = tmp_path / "card.json"
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'device profile {str(path)!r} {message}')}$"):
            load_device_profile(str(path))

    @pytest.mark.parametrize("key, value", [("hbm_ports", True), ("bram_bytes", "6.6e6"),
                                            ("uram_bytes", None)])
    def test_json_budget_of_another_type_named(self, tmp_path, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_PROFILE, key: value}))
        with pytest.raises(ValueError,
                           match=f"^{key} must be a finite positive number, not {value!r}$"):
            load_device_profile(str(path))

    def test_removed_keys_are_unknown(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**SMALL_PROFILE, "dsp_count": 1000}))
        with pytest.raises(ValueError, match=r"unknown device profile keys: \['dsp_count'\]"):
            load_device_profile(str(path))
