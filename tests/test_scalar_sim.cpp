// Tests for the scalar RV32IM core: per-instruction semantics, M-extension
// edge cases, control flow, memory, CSRs, and small end-to-end programs.
#include <gtest/gtest.h>

#include <utility>

#include "kvx/asm/assembler.hpp"
#include "kvx/common/error.hpp"
#include "kvx/sim/processor.hpp"

namespace kvx::sim {
namespace {

SimdProcessor make_proc() {
  ProcessorConfig cfg;
  cfg.vector.elen_bits = 64;
  cfg.vector.ele_num = 5;
  cfg.dmem_bytes = 1 << 16;
  return SimdProcessor(cfg);
}

/// Assemble, run to completion, return the processor for inspection.
SimdProcessor run(const std::string& src) {
  SimdProcessor p = make_proc();
  assembler::Options opts;
  opts.data_base = 0x1000;
  p.load_program(assembler::assemble(src, opts));
  p.run();
  return p;
}

u32 reg(const SimdProcessor& p, const char* name) {
  return p.scalar().regs().read(
      static_cast<unsigned>(isa::parse_xreg(name)));
}

TEST(ScalarSim, AddiChain) {
  const auto p = run(R"(
    addi t0, zero, 5
    addi t0, t0, 7
    ebreak
  )");
  EXPECT_EQ(reg(p, "t0"), 12u);
}

TEST(ScalarSim, X0IsHardwiredZero) {
  const auto p = run(R"(
    addi zero, zero, 55
    addi t0, zero, 0
    ebreak
  )");
  EXPECT_EQ(reg(p, "t0"), 0u);
}

TEST(ScalarSim, ArithmeticOps) {
  const auto p = run(R"(
    li t0, 100
    li t1, 7
    add a0, t0, t1
    sub a1, t0, t1
    and a2, t0, t1
    or a3, t0, t1
    xor a4, t0, t1
    sll a5, t1, t1
    srl a6, t0, t1
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), 107u);
  EXPECT_EQ(reg(p, "a1"), 93u);
  EXPECT_EQ(reg(p, "a2"), 4u);
  EXPECT_EQ(reg(p, "a3"), 103u);
  EXPECT_EQ(reg(p, "a4"), 99u);
  EXPECT_EQ(reg(p, "a5"), 7u << 7);
  EXPECT_EQ(reg(p, "a6"), 0u);
}

TEST(ScalarSim, SignedComparisons) {
  const auto p = run(R"(
    li t0, -1
    li t1, 1
    slt a0, t0, t1
    sltu a1, t0, t1
    slti a2, t0, 0
    sltiu a3, t0, 0
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), 1u);  // -1 < 1 signed
  EXPECT_EQ(reg(p, "a1"), 0u);  // 0xFFFFFFFF > 1 unsigned
  EXPECT_EQ(reg(p, "a2"), 1u);
  EXPECT_EQ(reg(p, "a3"), 0u);
}

TEST(ScalarSim, ShiftsArithmetic) {
  const auto p = run(R"(
    li t0, -16
    srai a0, t0, 2
    srli a1, t0, 28
    slli a2, t0, 1
    ebreak
  )");
  EXPECT_EQ(static_cast<i32>(reg(p, "a0")), -4);
  EXPECT_EQ(reg(p, "a1"), 0xFu);
  EXPECT_EQ(static_cast<i32>(reg(p, "a2")), -32);
}

TEST(ScalarSim, LuiAuipc) {
  const auto p = run(R"(
    lui t0, 0x12345
    auipc t1, 0
    ebreak
  )");
  EXPECT_EQ(reg(p, "t0"), 0x12345000u);
  EXPECT_EQ(reg(p, "t1"), 4u);  // auipc at pc=4
}

TEST(ScalarSim, LoadStoreWidths) {
  const auto p = run(R"(
    li t0, 0x1000
    li t1, 0x80FFEE77
    sw t1, 0(t0)
    lw a0, 0(t0)
    lh a1, 0(t0)
    lhu a2, 0(t0)
    lb a3, 3(t0)
    lbu a4, 3(t0)
    sb t1, 8(t0)
    lw a5, 8(t0)
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), 0x80FFEE77u);
  EXPECT_EQ(static_cast<i32>(reg(p, "a1")), static_cast<i16>(0xEE77));
  EXPECT_EQ(reg(p, "a2"), 0xEE77u);
  EXPECT_EQ(static_cast<i32>(reg(p, "a3")), static_cast<i8>(0x80));
  EXPECT_EQ(reg(p, "a4"), 0x80u);
  EXPECT_EQ(reg(p, "a5"), 0x77u);
}

TEST(ScalarSim, BranchesTakenAndNot) {
  const auto p = run(R"(
    li t0, 3
    li t1, 5
    li a0, 0
    blt t1, t0, skip      # not taken
    addi a0, a0, 1
skip:
    bge t1, t0, end       # taken
    addi a0, a0, 100
end:
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), 1u);
}

TEST(ScalarSim, UnsignedBranches) {
  const auto p = run(R"(
    li t0, -1          # 0xFFFFFFFF
    li t1, 1
    li a0, 0
    bltu t1, t0, one   # taken: 1 < 0xFFFFFFFF
    j end
one:
    addi a0, a0, 1
    bgeu t0, t1, two   # taken
    j end
two:
    addi a0, a0, 1
end:
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), 2u);
}

TEST(ScalarSim, JalJalrLinkage) {
  const auto p = run(R"(
    jal ra, func
    addi a0, a0, 100   # runs after return
    ebreak
func:
    addi a0, zero, 1
    ret
  )");
  EXPECT_EQ(reg(p, "a0"), 101u);
}

TEST(ScalarSim, LoopCountsCorrectly) {
  const auto p = run(R"(
    li s3, 0
    li s4, 24
loop:
    addi s3, s3, 1
    blt s3, s4, loop
    ebreak
  )");
  EXPECT_EQ(reg(p, "s3"), 24u);
}

// --- Zbb subset -----------------------------------------------------------------

TEST(ScalarSim, ZbbRotates) {
  const auto p = run(R"(
    li t0, 0x80000001
    li t1, 1
    rol a0, t0, t1
    ror a1, t0, t1
    rori a2, t0, 4
    rori a3, t0, 0
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), 0x00000003u);
  EXPECT_EQ(reg(p, "a1"), 0xC0000000u);
  EXPECT_EQ(reg(p, "a2"), 0x18000000u);
  EXPECT_EQ(reg(p, "a3"), 0x80000001u);
}

TEST(ScalarSim, ZbbRotateAmountMasked) {
  const auto p = run(R"(
    li t0, 0x12345678
    li t1, 33          # rotates by 33 & 31 = 1
    ror a0, t0, t1
    li t1, 1
    ror a1, t0, t1
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), reg(p, "a1"));
}

TEST(ScalarSim, ZbbLogicWithNegate) {
  const auto p = run(R"(
    li t0, 0b1100
    li t1, 0b1010
    andn a0, t0, t1    # t0 & ~t1
    orn a1, t0, t1     # t0 | ~t1
    xnor a2, t0, t1    # ~(t0 ^ t1)
    ebreak
  )");
  EXPECT_EQ(reg(p, "a0"), 0b0100u);
  EXPECT_EQ(reg(p, "a1"), 0xFFFFFFFDu);
  EXPECT_EQ(reg(p, "a2"), ~0b0110u);
}

// --- M extension -------------------------------------------------------------

TEST(ScalarSim, Multiply) {
  const auto p = run(R"(
    li t0, -7
    li t1, 6
    mul a0, t0, t1
    mulh a1, t0, t1
    mulhu a2, t0, t1
    mulhsu a3, t0, t1
    ebreak
  )");
  EXPECT_EQ(static_cast<i32>(reg(p, "a0")), -42);
  EXPECT_EQ(static_cast<i32>(reg(p, "a1")), -1);  // high of -42
  // mulhu: 0xFFFFFFF9 * 6 = 0x5FFFFFFD6 -> high = 5.
  EXPECT_EQ(reg(p, "a2"), 5u);
  EXPECT_EQ(static_cast<i32>(reg(p, "a3")), -1);
}

TEST(ScalarSim, DivideAndRemainder) {
  const auto p = run(R"(
    li t0, -40
    li t1, 7
    div a0, t0, t1
    rem a1, t0, t1
    divu a2, t1, t1
    remu a3, t0, t1
    ebreak
  )");
  EXPECT_EQ(static_cast<i32>(reg(p, "a0")), -5);
  EXPECT_EQ(static_cast<i32>(reg(p, "a1")), -5);
  EXPECT_EQ(reg(p, "a2"), 1u);
  // remu: 0xFFFFFFD8 % 7.
  EXPECT_EQ(reg(p, "a3"), 4294967256u % 7u);
}

TEST(ScalarSim, DivisionEdgeCases) {
  const auto p = run(R"(
    li t0, 5
    li t1, 0
    div a0, t0, t1      # /0 -> -1
    rem a1, t0, t1      # %0 -> dividend
    divu a2, t0, t1     # /0 -> all ones
    remu a3, t0, t1     # %0 -> dividend
    li t2, 0x80000000   # INT_MIN
    li t3, -1
    div a4, t2, t3      # overflow -> INT_MIN
    rem a5, t2, t3      # overflow -> 0
    ebreak
  )");
  EXPECT_EQ(static_cast<i32>(reg(p, "a0")), -1);
  EXPECT_EQ(reg(p, "a1"), 5u);
  EXPECT_EQ(reg(p, "a2"), 0xFFFFFFFFu);
  EXPECT_EQ(reg(p, "a3"), 5u);
  EXPECT_EQ(reg(p, "a4"), 0x80000000u);
  EXPECT_EQ(reg(p, "a5"), 0u);
}

// --- CSRs / markers -----------------------------------------------------------

TEST(ScalarSim, CycleCsrMonotonic) {
  const auto p = run(R"(
    csrr a0, 0xC00
    nop
    nop
    csrr a1, 0xC00
    ebreak
  )");
  EXPECT_GT(reg(p, "a1"), reg(p, "a0"));
}

TEST(ScalarSim, MarkersRecorded) {
  const auto p = run(R"(
    csrwi 0x7C0, 1
    nop
    nop
    nop
    csrwi 0x7C0, 2
    ebreak
  )");
  ASSERT_EQ(p.markers().size(), 2u);
  EXPECT_EQ(p.markers()[0].id, 1u);
  EXPECT_EQ(p.markers()[1].id, 2u);
  // 3 nops at 1 cycle each; markers are free.
  EXPECT_EQ(p.cycles_between(1, 2), 3u);
}

TEST(ScalarSim, MarkerDeltas) {
  const auto p = run(R"(
    li s3, 0
    li s4, 3
loop:
    csrwi 0x7C0, 7
    nop
    addi s3, s3, 1
    blt s3, s4, loop
    ebreak
  )");
  const auto deltas = p.marker_deltas(7);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0], deltas[1]);
}

// --- cycle model ---------------------------------------------------------------

TEST(ScalarSim, CycleCostsFollowModel) {
  // 2 li (1cc each) + taken branch (3cc) + ebreak.
  SimdProcessor p = make_proc();
  p.load_program(assembler::assemble(R"(
    li t0, 1
    li t1, 1
    beq t0, t1, end
    nop
end:
    ebreak
  )"));
  p.run();
  const auto& cm = p.config().cycle_model;
  EXPECT_EQ(p.cycles(), 2 * cm.alu + cm.branch_taken + cm.system);
}

TEST(ScalarSim, LoadStoreCosts) {
  SimdProcessor p = make_proc();
  p.load_program(assembler::assemble(R"(
    sw zero, 0(zero)
    lw t0, 0(zero)
    ebreak
  )"));
  p.run();
  const auto& cm = p.config().cycle_model;
  EXPECT_EQ(p.cycles(), cm.store + cm.load + cm.system);
}

// --- faults ---------------------------------------------------------------------

TEST(ScalarSim, OutOfBoundsLoadFaults) {
  SimdProcessor p = make_proc();
  p.load_program(assembler::assemble(R"(
    li t0, 0x7FFFF000
    lw t1, 0(t0)
    ebreak
  )"));
  EXPECT_THROW(p.run(), SimError);
}

TEST(ScalarSim, MisalignedAccessFaults) {
  SimdProcessor p = make_proc();
  p.load_program(assembler::assemble(R"(
    li t0, 2
    lw t1, 0(t0)
    ebreak
  )"));
  EXPECT_THROW(p.run(), SimError);
}

// --- data memory ----------------------------------------------------------------

TEST(Memory, FreshMemoryReadsZeroAndIsBoundsChecked) {
  const Memory mem(ProcessorConfig{}.dmem_bytes);
  const u32 size = static_cast<u32>(mem.size());
  EXPECT_EQ(mem.read8(0), 0u);
  EXPECT_EQ(mem.read8(size / 2), 0u);
  EXPECT_EQ(mem.read8(size - 1), 0u);
  EXPECT_EQ(mem.read64(size - 8), 0u);
  EXPECT_THROW((void)mem.read64(size), SimError);
  EXPECT_THROW((void)mem.read8(size), SimError);
}

TEST(Memory, WritesLandAtTheLastWordAndMoveWithTheMemory) {
  Memory mem(1 << 16);
  const u32 last = static_cast<u32>(mem.size()) - 8;
  mem.write64(last, 0x0123456789abcdefull);
  EXPECT_THROW(mem.write64(last + 8, 1), SimError);
  Memory moved(std::move(mem));
  EXPECT_EQ(moved.size(), usize{1} << 16);
  EXPECT_EQ(moved.read64(last), 0x0123456789abcdefull);
  EXPECT_EQ(moved.read32(last + 4), 0x01234567u);
}

TEST(Memory, ProcessorsOwnIndependentMemories) {
  SimdProcessor a = make_proc();
  SimdProcessor b = make_proc();
  a.dmem().write64(0x100, ~u64{0});
  b.dmem().write32(0x200, 7);
  EXPECT_EQ(a.dmem().read64(0x100), ~u64{0});
  EXPECT_EQ(b.dmem().read64(0x100), 0u);
  EXPECT_EQ(b.dmem().read32(0x200), 7u);
  EXPECT_EQ(a.dmem().read32(0x200), 0u);
}

TEST(ScalarSim, RunawayProgramHitsWatchdog) {
  ProcessorConfig cfg;
  cfg.vector.ele_num = 5;
  cfg.max_cycles = 1000;
  SimdProcessor p(cfg);
  p.load_program(assembler::assemble("spin: j spin"));
  EXPECT_THROW(p.run(), SimError);
}

TEST(ScalarSim, FetchPastEndFaults) {
  SimdProcessor p = make_proc();
  p.load_program(assembler::assemble("nop"));
  EXPECT_THROW(p.run(), SimError);  // runs off the end (no ebreak)
}

TEST(ScalarSim, StatsCountInstructions) {
  const auto p = run(R"(
    nop
    nop
    ebreak
  )");
  EXPECT_EQ(p.stats().instructions, 3u);
  EXPECT_EQ(p.stats().scalar_instructions, 3u);
  EXPECT_EQ(p.stats().vector_instructions, 0u);
  EXPECT_EQ(p.stats().opcode_counts.at("addi"), 2u);
}

TEST(ScalarSim, CycleProfileAccountsForAllCycles) {
  const auto p = run(R"(
    li t0, 10
    li t1, 0
loop:
    addi t1, t1, 1
    blt t1, t0, loop
    ebreak
  )");
  u64 sum = 0;
  for (const auto& [mnem, cyc] : p.stats().opcode_cycles) {
    (void)mnem;
    sum += cyc;
  }
  EXPECT_EQ(sum, p.cycles());
  EXPECT_FALSE(p.stats().cycle_profile().empty());
  EXPECT_NE(p.stats().to_csv().find("addi,"), std::string::npos);
}

TEST(ScalarSim, ResetRunStateAllowsRerun) {
  SimdProcessor p = make_proc();
  p.load_program(assembler::assemble(R"(
    addi t0, t0, 1
    ebreak
  )"));
  p.run();
  const u64 first = p.cycles();
  p.reset_run_state();
  p.run();
  EXPECT_EQ(p.cycles(), first);
}

}  // namespace
}  // namespace kvx::sim
