"""Occupancy calculator tests, anchored on the paper's §2 examples."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu import blocks_per_smm, occupancy, titan_x, warps_per_block
from repro.gpu.occupancy import (memo_stats, registers_per_block,
                                 reset_memo_counters)

SPEC = titan_x()


def test_warps_per_block_rounds_up():
    assert warps_per_block(1) == 1
    assert warps_per_block(32) == 1
    assert warps_per_block(33) == 2
    assert warps_per_block(256) == 8
    assert warps_per_block(1024) == 32


def test_warps_per_block_rejects_nonpositive():
    with pytest.raises(ValueError):
        warps_per_block(0)


def test_paper_example_single_narrow_task():
    """§2: one 256-thread task alone -> (8 / (64*24)) = 0.52%."""
    occ = occupancy(SPEC, threads_per_block=256, concurrent_blocks=1)
    assert occ == pytest.approx(8 / (64 * 24))
    assert occ * 100 == pytest.approx(0.52, abs=0.01)


def test_paper_example_hyperq_32_narrow_tasks():
    """§2: 32 concurrent 256-thread tasks -> 16.67%."""
    occ = occupancy(SPEC, threads_per_block=256, concurrent_blocks=32)
    assert occ * 100 == pytest.approx(16.67, abs=0.01)


def test_masterkernel_blocks_achieve_full_occupancy():
    """§4.1: two 1024-thread, 32-reg, 32KB blocks per SMM -> 100%."""
    per_smm = blocks_per_smm(
        SPEC, threads_per_block=1024, regs_per_thread=32,
        shared_mem_per_block=32 * 1024,
    )
    assert per_smm == 2
    assert occupancy(
        SPEC, threads_per_block=1024, regs_per_thread=32,
        shared_mem_per_block=32 * 1024,
    ) == pytest.approx(1.0)


def test_register_limit_bites():
    # 64 regs/thread, 256 threads -> 64*32=2048/warp -> 8 warps = 16384
    # regs per block; 65536/16384 = 4 blocks (warp limit would allow 8).
    assert blocks_per_smm(SPEC, 256, regs_per_thread=64) == 4


def test_shared_memory_limit_bites():
    # 33KB per block: only 2 fit in 96KB.
    assert blocks_per_smm(SPEC, 64, regs_per_thread=16,
                          shared_mem_per_block=33 * 1024) == 2


def test_block_too_big_returns_zero():
    assert blocks_per_smm(SPEC, 2048) == 0
    assert blocks_per_smm(SPEC, 64, shared_mem_per_block=64 * 1024) == 0


def test_block_slot_limit():
    # tiny blocks: capped by the 32 block slots, not warps
    assert blocks_per_smm(SPEC, 32, regs_per_thread=8) == 32


def test_registers_per_block_allocation_granularity():
    # 17 regs * 32 lanes = 544 -> rounds to 768 per warp (unit 256)
    assert registers_per_block(SPEC, 32, 17) == 768
    assert registers_per_block(SPEC, 64, 17) == 1536


def test_registers_per_block_rejects_negative():
    with pytest.raises(ValueError):
        registers_per_block(SPEC, 32, -1)


@given(
    threads=st.integers(min_value=1, max_value=1024),
    regs=st.integers(min_value=0, max_value=255),
    smem=st.integers(min_value=0, max_value=48 * 1024),
)
def test_occupancy_never_exceeds_one(threads, regs, smem):
    occ = occupancy(SPEC, threads, regs, smem)
    assert 0.0 <= occ <= 1.0


@given(
    threads=st.integers(min_value=1, max_value=1024),
    regs=st.sampled_from([16, 32, 64, 128]),
)
def test_blocks_per_smm_monotone_in_registers(threads, regs):
    """More registers per thread can never increase residency."""
    low = blocks_per_smm(SPEC, threads, regs_per_thread=regs)
    high = blocks_per_smm(SPEC, threads, regs_per_thread=regs * 2)
    assert high <= low


@given(
    threads=st.integers(min_value=1, max_value=1024),
    smem=st.integers(min_value=0, max_value=24 * 1024),
)
def test_blocks_per_smm_monotone_in_shared_mem(threads, smem):
    low_usage = blocks_per_smm(SPEC, threads, shared_mem_per_block=smem)
    high_usage = blocks_per_smm(SPEC, threads, shared_mem_per_block=smem * 2)
    assert high_usage <= low_usage


@given(blocks=st.integers(min_value=0, max_value=2000))
def test_occupancy_monotone_in_concurrent_blocks(blocks):
    occ_a = occupancy(SPEC, 128, concurrent_blocks=blocks)
    occ_b = occupancy(SPEC, 128, concurrent_blocks=blocks + 1)
    assert occ_b >= occ_a


def test_resource_feasibility_invariant():
    """Whatever blocks_per_smm returns must actually fit the SMM."""
    for threads in (32, 96, 256, 512, 1024):
        for regs in (16, 32, 64):
            for smem in (0, 4096, 16384):
                n = blocks_per_smm(SPEC, threads, regs, smem)
                if n == 0:
                    continue
                assert n * warps_per_block(threads) <= SPEC.max_warps_per_smm
                assert n * registers_per_block(SPEC, threads, regs) <= SPEC.registers_per_smm
                assert n * smem <= SPEC.shared_mem_per_smm
                assert n <= SPEC.max_blocks_per_smm


def test_memo_stats_counts_hits_and_misses():
    spec = titan_x()
    reset_memo_counters()
    base = memo_stats()
    assert base == {"hits": 0, "misses": 0, "size": 0}
    occupancy(spec, 256, 32, 0)     # misses on every layer
    after_miss = memo_stats()
    assert after_miss["misses"] > 0
    assert after_miss["size"] > 0
    occupancy(spec, 256, 32, 0)     # pure hit
    after_hit = memo_stats()
    assert after_hit["hits"] == after_miss["hits"] + 1
    assert after_hit["misses"] == after_miss["misses"]
    reset_memo_counters()
    assert memo_stats() == {"hits": 0, "misses": 0, "size": 0}
