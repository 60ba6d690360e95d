//===- tests/test_emulator.cpp - Functional emulator unit tests ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "profile/Emulator.h"

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::ir;
using namespace dmp::profile;

namespace {

/// Builds a straight-line program from a callback and runs it to halt.
template <typename BuildFn>
Emulator runProgram(std::unique_ptr<Program> &Hold, BuildFn Build,
                    std::vector<int64_t> Memory = {}) {
  Hold = std::make_unique<Program>("t");
  Function *F = Hold->createFunction("main");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(*Hold);
  B.setInsertPoint(Entry);
  Build(B, F);
  B.halt();
  Hold->finalize();
  test::requireClean(*Hold);
  Emulator Emu(*Hold, Memory);
  DynInstr D;
  while (Emu.step(D)) {
  }
  return Emu;
}

} // namespace

TEST(EmulatorTest, AluSemantics) {
  std::unique_ptr<Program> P;
  Emulator Emu = runProgram(P, [](IRBuilder &B, Function *) {
    B.loadImm(1, 7);
    B.loadImm(2, 3);
    B.add(3, 1, 2);   // 10
    B.sub(4, 1, 2);   // 4
    B.mul(5, 1, 2);   // 21
    B.div(6, 1, 2);   // 2
    B.and_(7, 1, 2);  // 3
    B.or_(8, 1, 2);   // 7
    B.xor_(9, 1, 2);  // 4
    B.shl(10, 1, 2);  // 56
    B.shr(11, 1, 2);  // 0
    B.slt(12, 2, 1);  // 1
    B.addI(13, 1, 5); // 12
    B.mulI(14, 1, 4); // 28
    B.andI(15, 1, 6); // 6
    B.sltI(16, 1, 8); // 1
  });
  EXPECT_EQ(Emu.reg(3), 10);
  EXPECT_EQ(Emu.reg(4), 4);
  EXPECT_EQ(Emu.reg(5), 21);
  EXPECT_EQ(Emu.reg(6), 2);
  EXPECT_EQ(Emu.reg(7), 3);
  EXPECT_EQ(Emu.reg(8), 7);
  EXPECT_EQ(Emu.reg(9), 4);
  EXPECT_EQ(Emu.reg(10), 56);
  EXPECT_EQ(Emu.reg(11), 0);
  EXPECT_EQ(Emu.reg(12), 1);
  EXPECT_EQ(Emu.reg(13), 12);
  EXPECT_EQ(Emu.reg(14), 28);
  EXPECT_EQ(Emu.reg(15), 6);
  EXPECT_EQ(Emu.reg(16), 1);
}

TEST(EmulatorTest, DivideByZeroYieldsZero) {
  std::unique_ptr<Program> P;
  Emulator Emu = runProgram(P, [](IRBuilder &B, Function *) {
    B.loadImm(1, 42);
    B.div(2, 1, 0); // r0 == 0
  });
  EXPECT_EQ(Emu.reg(2), 0);
}

TEST(EmulatorTest, RegZeroStaysZero) {
  std::unique_ptr<Program> P;
  Emulator Emu = runProgram(P, [](IRBuilder &B, Function *) {
    B.loadImm(1, 5);
    B.add(2, 0, 1); // r0 reads as 0
  });
  EXPECT_EQ(Emu.reg(0), 0);
  EXPECT_EQ(Emu.reg(2), 5);
}

TEST(EmulatorTest, LoadStoreRoundTrip) {
  std::unique_ptr<Program> P;
  Emulator Emu = runProgram(
      P,
      [](IRBuilder &B, Function *) {
        B.loadImm(1, 100);
        B.loadImm(2, 77);
        B.store(2, 1, 8);  // mem[108] = 77
        B.load(3, 1, 8);   // r3 = mem[108]
        B.load(4, 0, 5);   // r4 = initial image word 5
      },
      {0, 0, 0, 0, 0, 123});
  EXPECT_EQ(Emu.reg(3), 77);
  EXPECT_EQ(Emu.reg(4), 123);
  EXPECT_EQ(Emu.memWord(108), 77);
}

TEST(EmulatorTest, BranchTakenAndNotTaken) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/2, /*Iters=*/8);
  // Data: taken on every even index (period 2).
  Emulator Emu(*H.Prog, test::alternatingImage(64, 2));
  DynInstr D;
  unsigned TakenCount = 0, BranchCount = 0;
  while (Emu.step(D)) {
    if (D.I->Op == Opcode::CondBr && D.Addr == H.BranchAddr) {
      ++BranchCount;
      TakenCount += D.Taken;
    }
  }
  EXPECT_TRUE(Emu.isHalted());
  EXPECT_EQ(BranchCount, 8u);
  EXPECT_EQ(TakenCount, 4u);
  // Accumulator saw +1 four times and -1 four times.
  EXPECT_EQ(Emu.reg(4), 0);
}

TEST(EmulatorTest, CallAndReturn) {
  auto H = test::buildRetFuncLoop(/*Iters=*/4);
  Emulator Emu(*H.Prog, test::alternatingImage(64, 2));
  DynInstr D;
  unsigned Calls = 0, Rets = 0;
  size_t MaxDepth = 0;
  while (Emu.step(D)) {
    if (D.I->Op == Opcode::Call)
      ++Calls;
    if (D.I->Op == Opcode::Ret)
      ++Rets;
    MaxDepth = std::max(MaxDepth, Emu.callDepth());
  }
  EXPECT_EQ(Calls, 4u);
  EXPECT_EQ(Rets, 4u);
  EXPECT_EQ(MaxDepth, 1u);
  EXPECT_TRUE(Emu.isHalted());
}

TEST(EmulatorTest, NextAddrMatchesControlFlow) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/2, /*Iters=*/4);
  Emulator Emu(*H.Prog, test::alternatingImage(64, 2));
  DynInstr D;
  uint32_t Expected = H.Prog->getMain()->getEntryAddr();
  while (Emu.step(D)) {
    EXPECT_EQ(D.Addr, Expected);
    Expected = D.NextAddr;
  }
}

TEST(EmulatorTest, DeterministicAcrossRuns) {
  auto H = test::buildFreqHammockLoop();
  const auto Image = test::alternatingImage(8192, 3);
  uint64_t Counts[2];
  int64_t Sums[2];
  for (int Run = 0; Run < 2; ++Run) {
    Emulator Emu(*H.Prog, Image);
    DynInstr D;
    int64_t Sum = 0;
    while (Emu.step(D))
      Sum += static_cast<int64_t>(D.Addr);
    Counts[Run] = Emu.executedCount();
    Sums[Run] = Sum;
  }
  EXPECT_EQ(Counts[0], Counts[1]);
  EXPECT_EQ(Sums[0], Sums[1]);
}

TEST(EmulatorTest, HaltStopsExecution) {
  std::unique_ptr<Program> P;
  Emulator Emu = runProgram(P, [](IRBuilder &B, Function *) {
    B.loadImm(1, 1);
  });
  EXPECT_TRUE(Emu.isHalted());
  DynInstr D;
  EXPECT_FALSE(Emu.step(D));
  EXPECT_EQ(Emu.executedCount(), 2u); // loadImm + halt
}

// -- Edge semantics pinned for the fast paths --------------------------------
// The predecoded step()/run() paths must preserve these exactly; each is a
// contract clients (profiler, simulator, oracle) rely on.

// Memory is padded to the next power of two, at least 64K words, and
// effective addresses are masked to that size — so every program is
// memory-safe by construction and address wraparound is defined behavior.
TEST(EmulatorTest, MemoryWordsPadding) {
  std::unique_ptr<Program> P;
  // Empty image: the 64K-word floor.
  EXPECT_EQ(runProgram(P, [](IRBuilder &, Function *) {}).memoryWords(),
            64u * 1024);
  // Below the floor: still the floor.
  EXPECT_EQ(runProgram(P, [](IRBuilder &, Function *) {},
                       std::vector<int64_t>(1000, 7))
                .memoryWords(),
            64u * 1024);
  // Above the floor: next power of two.
  EXPECT_EQ(runProgram(P, [](IRBuilder &, Function *) {},
                       std::vector<int64_t>(100'000, 7))
                .memoryWords(),
            128u * 1024);
  // Exactly a power of two: unchanged.
  EXPECT_EQ(runProgram(P, [](IRBuilder &, Function *) {},
                       std::vector<int64_t>(128 * 1024, 7))
                .memoryWords(),
            128u * 1024);
}

TEST(EmulatorTest, AddressWraparound) {
  std::unique_ptr<Program> P;
  Emulator Emu = runProgram(P, [](IRBuilder &B, Function *) {
    // Store past the end: 64K + 3 wraps to word 3.
    B.loadImm(1, 64 * 1024 + 3);
    B.loadImm(2, 42);
    B.store(2, 1, 0);
    B.load(3, 1, 0); // Reads back through the same wrap.
    // A negative effective address wraps to the top of memory.
    B.loadImm(4, -1);
    B.loadImm(5, 99);
    B.store(5, 4, 0);
  });
  EXPECT_EQ(Emu.memWord(3), 42);
  EXPECT_EQ(Emu.reg(3), 42);
  EXPECT_EQ(Emu.memWord(64 * 1024 - 1), 99);
  // memWord itself masks, so the unwrapped addresses read the same cells.
  EXPECT_EQ(Emu.memWord(64 * 1024 + 3), 42);
}

TEST(EmulatorTest, RegZeroIsHardwired) {
  // Deliberately NOT linted: IR06 flags r0 writes as invalid IR, but the
  // emulator's defense is that such writes are *dropped* — r0 reads as zero
  // no matter what ran — and the decoded fast path must preserve exactly
  // that (its unconditional register reads rely on Regs[0] staying 0).
  auto P = std::make_unique<Program>("t");
  Function *F = P->createFunction("main");
  BasicBlock *Entry = F->createBlock("entry");
  // IRBuilder asserts Dst != r0, so the two r0 writes are built directly.
  auto WriteR0 = [](Opcode Op, Reg Src, int64_t Imm) {
    Instruction I;
    I.Op = Op;
    I.Dst = RegZero;
    I.Src1 = I.Src2 = Src;
    I.Imm = Imm;
    return I;
  };
  IRBuilder B(*P);
  B.setInsertPoint(Entry);
  Entry->append(WriteR0(Opcode::LoadImm, 0, 123)); // Write to r0 is dropped.
  B.addI(1, 0, 5); // r1 = r0 + 5 = 5.
  B.add(2, 0, 0);  // r2 = 0.
  B.loadImm(3, 7);
  Entry->append(WriteR0(Opcode::Add, 3, 0)); // r0 = r3 + r3, dropped.
  B.or_(4, 0, 3);                            // r4 = 0 | 7.
  B.halt();
  P->finalize();
  Emulator Emu(*P, {});
  DynInstr D;
  while (Emu.step(D)) {
  }
  EXPECT_EQ(Emu.reg(0), 0);
  EXPECT_EQ(Emu.reg(1), 5);
  EXPECT_EQ(Emu.reg(2), 0);
  EXPECT_EQ(Emu.reg(4), 7);
}

// After halt, step() returns false and leaves the DynInstr untouched — the
// profiler and simulator loops read Out only on a true return, and the
// batched run() path must not change that.
TEST(EmulatorTest, HaltLeavesDynInstrUntouched) {
  std::unique_ptr<Program> P;
  Emulator Emu = runProgram(P, [](IRBuilder &B, Function *) {
    B.loadImm(1, 1);
  });
  ASSERT_TRUE(Emu.isHalted());
  DynInstr D;
  D.I = reinterpret_cast<const Instruction *>(0x1234);
  D.Addr = 0xAAAA;
  D.NextAddr = 0xBBBB;
  D.Taken = true;
  D.MemAddr = 0xCCCC;
  EXPECT_FALSE(Emu.step(D));
  EXPECT_FALSE(Emu.stepReference(D));
  EXPECT_EQ(D.I, reinterpret_cast<const Instruction *>(0x1234));
  EXPECT_EQ(D.Addr, 0xAAAAu);
  EXPECT_EQ(D.NextAddr, 0xBBBBu);
  EXPECT_TRUE(D.Taken);
  EXPECT_EQ(D.MemAddr, 0xCCCCu);
  // And the PC parks on the halting instruction.
  const uint32_t Pc = Emu.pc();
  EXPECT_FALSE(Emu.step(D));
  EXPECT_EQ(Emu.pc(), Pc);
  EXPECT_EQ(Emu.executedCount(), 2u);
}

// Ret with an empty call stack (return from main) halts exactly like Halt.
// Not linted — IR13 requires main to end in halt — but the emulator's
// defensive semantic for it must hold on both stepping paths.
TEST(EmulatorTest, RetInMainHalts) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->createFunction("main");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(*P);
  B.setInsertPoint(Entry);
  B.loadImm(1, 9);
  B.ret();
  P->finalize();
  Emulator Emu(*P, {});
  DynInstr D;
  while (Emu.step(D)) {
  }
  EXPECT_TRUE(Emu.isHalted());
  EXPECT_EQ(Emu.reg(1), 9);
  EXPECT_EQ(Emu.callDepth(), 0u);
}
