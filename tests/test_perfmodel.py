"""Latency/memory model checks.

Every closed-form latency is cross-checked against an independent
straight-line transcription written here with plain integer/Fraction
arithmetic, so a slip in either copy shows up as an exact mismatch.
"""

import json
import math
from fractions import Fraction

import pytest

from tridax import InfeasibleDesign, InvalidTilePlan, Precision
from tridax.perfmodel import (U280, Algorithm, DesignPoint, adi2d_fp32_reference,
                              ceil_div, ceil_log2, cycles_to_seconds,
                              default_interleave_group, find_reference,
                              latency_adi2d, latency_adi2d_tiled, latency_adi3d,
                              latency_batched_pcr, latency_batched_spike,
                              latency_batched_thomas, latency_thomas_pcr,
                              latency_for_problem, latency_thomas_thomas,
                              load_device_profile, memory_words, relative_error)


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
            f = Fraction(300_000_000)
            assert cycles_to_seconds(cycles, f) * f == cycles

    def test_default_groups(self):
        assert default_interleave_group(Precision.FP32) == 32
        assert default_interleave_group(Precision.FP64) == 64


class TestBatchedThomas:
    def test_calibration_point(self):
        est = latency_batched_thomas(8000, 128, dp_thomas())
        assert est.cycles == 143360
        assert est.milliseconds == pytest.approx(0.4779, abs=1e-4)

    def test_base_form_single_group(self):
        dp = dp_thomas(vector_width=1)
        est = latency_batched_thomas(32, 128, dp, ping_pong=False)
        assert est.cycles == 2 * 32 * 128

    def test_transcription_sweep(self):
        for batch, n, g, v, ncu, pp in [(8000, 128, 32, 8, 1, True),
                                        (1, 1, 64, 1, 1, True),
                                        (500, 77, 32, 8, 2, False),
                                        (10**6, 256, 64, 4, 3, True)]:
            dp = DesignPoint(Algorithm.BATCHED_THOMAS, interleave_group=g,
                             vector_width=v, compute_units=ncu)
            expected = ((3 if pp else 1) + math.ceil(batch / (g * v * ncu))) * g * n
            assert latency_batched_thomas(batch, n, dp, ping_pong=pp).cycles == expected

    def test_asymptote_per_system(self):
        dp = dp_thomas(compute_units=2)
        est = latency_batched_thomas(10**6, 128, dp)
        assert abs(est.cycles / 10**6 / est.per_system_asymptote - 1) < 0.01

    def test_monotone_in_batch_and_size(self):
        dp = dp_thomas()
        prev = 0
        for batch in (1, 10, 100, 1000, 10000):
            cur = latency_batched_thomas(batch, 64, dp).cycles
            assert cur >= prev
            prev = cur
        prev = 0
        for n in (1, 8, 64, 512):
            cur = latency_batched_thomas(100, n, dp).cycles
            assert cur >= prev
            prev = cur


class TestBatchedPcr:
    def test_minimal_example(self):
        dp = DesignPoint(Algorithm.BATCHED_PCR)
        assert latency_batched_pcr(1, 2, dp).cycles == 32

    def test_8000x128(self):
        dp = DesignPoint(Algorithm.BATCHED_PCR)
        est = latency_batched_pcr(8000, 128, dp)
        assert est.cycles == 7168210
        assert est.milliseconds == pytest.approx(23.894, abs=1e-3)

    def test_transcription_sweep(self):
        for batch, n, f_u, l in [(1, 2, 1, 30), (8000, 128, 1, 30),
                                 (123, 100, 3, 7), (10**6, 1024, 2, 30)]:
            dp = DesignPoint(Algorithm.BATCHED_PCR, unroll=f_u, pipeline_latency=l)
            expected = (Fraction(batch * n, f_u) + l) * clog2(n)
            assert latency_batched_pcr(batch, n, dp).cycles == expected

    def test_ratio_to_thomas_approaches_log(self):
        for n in (128, 256, 1024):
            for f_u in (1, 2, 3):
                th = latency_batched_thomas(10**6, n, dp_thomas(vector_width=1))
                pc = latency_batched_pcr(10**6, n, DesignPoint(Algorithm.BATCHED_PCR,
                                                               unroll=f_u))
                ratio = pc.cycles / th.cycles
                assert abs(ratio / Fraction(clog2(n), f_u) - 1) < 0.01


class TestBatchedSpike:
    def test_single_partition_reduces_to_thomas_base(self):
        dp = DesignPoint(Algorithm.BATCHED_SPIKE, interleave_group=32,
                         partitions=1, partition_stage_cost=0)
        spike = latency_batched_spike(100, 64, dp).cycles
        base = latency_batched_thomas(
            100, 64, DesignPoint(Algorithm.BATCHED_THOMAS, interleave_group=32,
                                 vector_width=1), ping_pong=False).cycles
        assert spike == base + 32 * 64  # the extra "+1" wave of g*N

    def test_transcription(self):
        batch, n, m, g, cost = 1000, 256, 4, 32, 10
        dp = DesignPoint(Algorithm.BATCHED_SPIKE, interleave_group=g,
                         partitions=m, partition_stage_cost=cost)
        expected = (1 + math.ceil(batch * m / g + 1)) * Fraction(g * n, m) + m * cost
        assert latency_batched_spike(batch, n, dp).cycles == expected

    def test_stall_flag(self):
        dp = DesignPoint(Algorithm.BATCHED_SPIKE, partitions=4,
                         partition_stage_cost=20)
        assert latency_batched_spike(10, 64, dp).stalled  # 4*20 >= 64
        assert not latency_batched_spike(10, 256, dp).stalled


class TestTiledSolvers:
    def test_thomas_thomas_example(self):
        dp = DesignPoint(Algorithm.THOMAS_THOMAS, interleave_group=32,
                         reduced_group=32, tiles=4)
        assert latency_thomas_thomas(1, 512, dp).cycles == 12800

    def test_transcriptions(self):
        for batch, n, t, g, g_r, l in [(1, 512, 4, 32, 32, 30),
                                       (5000, 8192, 16, 32, 64, 30),
                                       (77, 300, 3, 64, 64, 12)]:
            dp = DesignPoint(Algorithm.THOMAS_THOMAS, interleave_group=g,
                             reduced_group=g_r, tiles=t, pipeline_latency=l)
            common = (2 + math.ceil(batch * t / g)) * math.ceil(n / t) * g
            assert latency_thomas_thomas(batch, n, dp).cycles == common + g_r * (2 * t) * 2
            dp2 = DesignPoint(Algorithm.THOMAS_PCR, interleave_group=g,
                              reduced_group=g_r, tiles=t, pipeline_latency=l)
            assert latency_thomas_pcr(batch, n, dp2).cycles == \
                common + (2 * t + l) * clog2(2 * t)

    def test_reduced_term_comparison(self):
        # the cyclic-reduction reduced solve stays cheaper than the direct
        # one across any practical tile count
        for t in [2, 3, 4, 8, 16, 64, 256, 1024, 4096]:
            direct = 32 * (2 * t) * 2
            logform = (2 * t + 30) * clog2(2 * t)
            assert logform < direct

    def test_asymptote(self):
        dp = DesignPoint(Algorithm.THOMAS_PCR, interleave_group=32, tiles=4)
        est = latency_thomas_pcr(10**6, 512, dp)
        assert est.per_system_asymptote == 4 * 128
        assert abs(est.cycles / 10**6 / est.per_system_asymptote - 1) < 0.01

    def test_tiles_required(self):
        with pytest.raises(ValueError):
            latency_thomas_thomas(1, 128, DesignPoint(Algorithm.THOMAS_THOMAS))


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
        assert latency_adi3d(x, y, z, batch, n_iter, dp).cycles == expected

    def test_3d_symmetric_shares_drain_term(self):
        dp = DesignPoint(Algorithm.ADI3D, interleave_group=32, vector_width=8,
                         compute_units=2)
        est = latency_adi3d(64, 64, 64, 10**5, 1, dp)
        drain = ceil_div(10**5, 4) * Fraction(64 ** 3, 8)
        for term in est.breakdown.values():
            assert term > drain  # both modules carry the same dominant drain

    def test_3d_port_limited_substitution(self):
        dp = DesignPoint(Algorithm.ADI3D, interleave_group=32, vector_width=8,
                         points_per_cycle=4)
        full = latency_adi3d(32, 32, 32, 8, 1, dp)
        limited = latency_adi3d(32, 32, 32, 8, 1, dp, port_limited=True)
        assert limited.cycles > full.cycles

    def test_3d_rejects_zero_batch(self):
        dp = DesignPoint(Algorithm.ADI3D)
        with pytest.raises(ValueError):
            latency_adi3d(16, 16, 16, 0, 1, dp)

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
            assert latency_adi2d(x, y, batch, n_iter, dp).cycles == expected

    def test_2d_unroll_one_is_per_iteration_pipeline(self):
        dp1 = DesignPoint(Algorithm.ADI2D, interleave_group=32, unroll=1)
        est = latency_adi2d(64, 64, 10, 7, dp1)
        per_iter = latency_adi2d(64, 64, 10, 1, dp1)
        assert est.cycles == 7 * per_iter.cycles

    def test_2d_deeper_unroll_reduces_cycles_at_large_batch(self):
        prev = None
        for f_u in (1, 2, 4):
            dp = DesignPoint(Algorithm.ADI2D, interleave_group=32, unroll=f_u)
            cur = latency_adi2d(128, 128, 10**5, 8, dp).cycles
            if prev is not None:
                assert cur < prev
            prev = cur

    def test_2d_delay_buffer_words(self):
        x = y = 128
        v, g = 8, 32
        dp = DesignPoint(Algorithm.ADI2D, interleave_group=g, vector_width=v)
        est = latency_adi2d(x, y, 10, 1, dp)
        expected = (Fraction(2 * x, v) + 2 * v * Fraction(x, v)
                    + 3 * g * x + 3 * g * y + Fraction(2 * x * y, v))
        assert est.extras["delay_buffer_words"] == expected

    def test_2d_tiled_transcription_and_variants(self):
        x = y = 896
        batch, v, g, l = 180, 8, 32, 30
        for t1, t2, tx in [(4, 4, 4), (8, 16, 32)]:
            dp = DesignPoint(Algorithm.ADI2D_TILED, interleave_group=g,
                             vector_width=v, tiles_x=t1, tiles_y=t2,
                             datapath_tile_x=tx, pipeline_latency=l)
            drain = Fraction(batch * x * y, v)
            base_x = (Fraction(2 * x, v) + 2 * v * Fraction(x, v)
                      + Fraction(3 * g * x, t1) + drain)
            base_y = 2 * y * Fraction(tx, v) + Fraction(3 * g * y, t2) + drain
            direct = latency_adi2d_tiled(x, y, batch, 100, dp).cycles
            logvar = latency_adi2d_tiled(x, y, batch, 100, dp, reduced="pcr").cycles
            assert direct == 100 * (base_x + 4 * g * t1 + base_y + 4 * g * t2)
            assert logvar == 100 * (base_x + clog2(2 * t1) * (2 * t1 + l)
                                    + base_y + clog2(2 * t2) * (2 * t2 + l))
            # the two variants differ exactly by the substituted reduced terms
            assert direct - logvar == 100 * (4 * g * t1 - clog2(2 * t1) * (2 * t1 + l)
                                             + 4 * g * t2 - clog2(2 * t2) * (2 * t2 + l))

    def test_2d_tiled_large_batch_limit(self):
        dp = DesignPoint(Algorithm.ADI2D_TILED, interleave_group=32, tiles=4)
        batch = 10**7
        est = latency_adi2d_tiled(64, 64, batch, 1, dp)
        limit = 2 * Fraction(batch * 64 * 64, 8)
        assert abs(est.cycles / limit - 1) < 0.01


class TestCalibration:
    def test_thomas_reference_within_budget(self):
        dp = dp_thomas(precision=Precision.FP32)
        ref = find_reference(dp, batch=8000, n=128)
        est = latency_batched_thomas(8000, 128, dp)
        err = relative_error(est.seconds, ref.measured_seconds)
        assert err <= 0.15
        assert err == pytest.approx(0.0167, abs=0.001)

    def test_adi2d_reconstruction_within_budget(self):
        dp = DesignPoint(Algorithm.ADI2D, precision=Precision.FP32,
                         interleave_group=32, vector_width=8, unroll=3,
                         compute_units=3, frequency_hz=292e6)
        ref = adi2d_fp32_reference()
        assert ref.reconstructed
        est = latency_adi2d(128, 128, 3000, 120, dp)
        assert relative_error(est.seconds, ref.measured_seconds) <= 0.15

    def test_no_match_returns_none(self):
        assert find_reference(dp_thomas(), batch=17, n=128) is None


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
        dp = DesignPoint(algo)
        with pytest.raises(ValueError) as latency_err:
            latency_for_problem(dp, batch=1, n=64, dims=(64, 64))
        with pytest.raises(ValueError) as memory_err:
            memory_words(dp, 64, U280)
        assert str(memory_err.value) == str(latency_err.value)

    def test_strict_raises_with_violation(self):
        dp = dp_thomas(precision=Precision.FP32)
        with pytest.raises(InfeasibleDesign) as err:
            memory_words(dp, 8192, U280, strict=True)
        assert "on-chip" in str(err.value)

    def test_tiled_words_transcription(self):
        g, n, t, l = 32, 8192, 8, 30
        dp = DesignPoint(Algorithm.THOMAS_PCR, interleave_group=g, tiles=t,
                         pipeline_latency=l, precision=Precision.FP32)
        est = memory_words(dp, n, U280)
        per_group = math.ceil(g / t)
        assert est.words == 18 * per_group * n + 28 * t * per_group \
            + 3 * (2 * t + l) * clog2(2 * t)


SMALL_PROFILE = {"dsp_count": 1000, "bram_bytes": 1e6, "bram_blocks": 100,
                 "uram_bytes": 2e6, "uram_blocks": 50, "hbm_bytes": 1e9,
                 "hbm_bandwidth_gbps": 100, "hbm_ports": 16, "ddr_bytes": 8e9,
                 "ddr_bandwidth_gbps": 20}


class TestDeviceProfiles:
    def test_u280_table_values(self):
        assert U280.dsp_count == 8490
        assert U280.bram_bytes == 6.6e6 and U280.bram_blocks == 1487
        assert U280.uram_bytes == 34.5e6 and U280.uram_blocks == 960
        assert U280.hbm_bytes == 8e9 and U280.hbm_bandwidth_gbps == 460.0
        assert U280.hbm_ports == 32
        assert U280.ddr_bytes == 32e9

    def test_builtin_lookup(self):
        assert load_device_profile("u280") is U280
        with pytest.raises(ValueError):
            load_device_profile("nonexistent-device")

    def test_file_profile_loading(self, tmp_path, monkeypatch):
        path = tmp_path / "small.txt"
        path.write_text("""
            dsp_count = 1000
            bram_bytes = 1e6
            bram_blocks = 100
            uram_bytes = 2e6
            uram_blocks = 50
            hbm_bytes = 1e9
            hbm_bandwidth_gbps = 100
            hbm_ports = 16
            ddr_bytes = 8e9
            ddr_bandwidth_gbps = 20
        """)
        prof = load_device_profile(str(path))
        assert prof.name == "small" and prof.hbm_ports == 16
        monkeypatch.setenv("TRIDAX_DEVICE_DIR", str(tmp_path))
        assert load_device_profile("small").dsp_count == 1000

    def test_json_profile_loading(self, tmp_path):
        path = tmp_path / "card.json"
        path.write_text(json.dumps({**SMALL_PROFILE, "name": "card-a"}))
        prof = load_device_profile(str(path))
        assert prof.name == "card-a" and prof.hbm_ports == 16
        assert prof.on_chip_bytes == 3e6

    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    def test_missing_keys_named(self, tmp_path, suffix):
        values = {k: v for k, v in SMALL_PROFILE.items() if k not in ("hbm_ports", "ddr_bytes")}
        text = (json.dumps(values) if suffix == ".json"
                else "".join(f"{k} = {v}\n" for k, v in values.items()))
        path = tmp_path / f"partial{suffix}"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"missing keys: \['ddr_bytes', 'hbm_ports'\]"):
            load_device_profile(str(path))
