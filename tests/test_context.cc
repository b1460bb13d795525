/**
 * @file
 * Unit tests for per-context machinery: register renaming, free lists,
 * scoreboards, stall-source classification and SAQ forwarding checks.
 */

#include <gtest/gtest.h>

#include "core/context.hh"
#include "tests/test_util.hh"

using namespace mtdae;
using namespace mtdae::test;

namespace {

Context
makeContext(const SimConfig &cfg)
{
    return Context(0, cfg, std::make_unique<KernelTraceSource>(
                              computeKernel(), 0, 0x1000, 1));
}

} // namespace

TEST(RegFile, InitialMappingIsIdentityAndReady)
{
    RegFile rf(32, 64);
    for (std::uint8_t i = 0; i < 32; ++i) {
        EXPECT_EQ(rf.map(i), i);
        EXPECT_TRUE(rf.ready(rf.map(i)));
    }
    EXPECT_EQ(rf.freeCount(), 32u);
}

TEST(RegFile, RenameAllocatesFreshAndRemembersOld)
{
    RegFile rf(32, 64);
    PhysReg old = kNoPhysReg;
    const PhysReg fresh = rf.rename(5, old);
    EXPECT_EQ(old, 5);
    EXPECT_NE(fresh, 5);
    EXPECT_EQ(rf.map(5), fresh);
    EXPECT_FALSE(rf.ready(fresh));
    EXPECT_EQ(rf.freeCount(), 31u);
}

TEST(RegFile, ReleaseRecycles)
{
    RegFile rf(32, 34);
    PhysReg old;
    rf.rename(0, old);
    rf.rename(0, old);  // old == first rename's phys
    EXPECT_FALSE(rf.hasFree());
    rf.release(old);
    EXPECT_TRUE(rf.hasFree());
}

TEST(RegFile, RenameChainPreservesOldMappings)
{
    RegFile rf(32, 64);
    PhysReg old1, old2;
    const PhysReg p1 = rf.rename(3, old1);
    const PhysReg p2 = rf.rename(3, old2);
    EXPECT_EQ(old1, 3);
    EXPECT_EQ(old2, p1);
    EXPECT_EQ(rf.map(3), p2);
}

TEST(RegFileDeath, RenameWithEmptyFreeListPanics)
{
    RegFile rf(32, 33);
    PhysReg old;
    rf.rename(0, old);
    EXPECT_DEATH(rf.rename(1, old), "free list");
}

TEST(Context, OperandsReadyChecksBothFiles)
{
    const SimConfig cfg = testConfig();
    Context ctx = makeContext(cfg);

    DynInst di;
    di.ti.op = Opcode::MovIF;
    di.ti.dst = RegRef::fpReg(1);
    di.ti.src[0] = RegRef::intReg(4);
    di.physSrc[0] = ctx.intRegs.map(4);
    EXPECT_TRUE(ctx.operandsReady(di));

    // Rename the source: now produced by an in-flight instruction.
    PhysReg old;
    const PhysReg fresh = ctx.intRegs.rename(4, old);
    di.physSrc[0] = fresh;
    EXPECT_FALSE(ctx.operandsReady(di));
    ctx.intRegs.setReady(fresh);
    EXPECT_TRUE(ctx.operandsReady(di));
}

TEST(Context, StallSourceClassifiesLoadVsFu)
{
    const SimConfig cfg = testConfig();
    Context ctx = makeContext(cfg);

    PhysReg old;
    const PhysReg from_fu = ctx.fpRegs.rename(1, old);
    ctx.fpRegs.producer(from_fu).kind = Producer::Kind::Fu;
    const PhysReg from_ld = ctx.fpRegs.rename(2, old);
    ctx.fpRegs.producer(from_ld).kind = Producer::Kind::Load;
    ctx.fpRegs.producer(from_ld).missToken = 7;

    DynInst di;
    di.ti.op = Opcode::FAdd;
    di.ti.dst = RegRef::fpReg(3);
    di.ti.src[0] = RegRef::fpReg(1);
    di.physSrc[0] = from_fu;

    std::uint32_t tok = PerceivedTracker::kNoToken;
    EXPECT_EQ(ctx.stallSource(di, tok), Producer::Kind::Fu);

    // A load-produced operand wins the classification (it carries the
    // token the perceived-latency metric needs).
    di.ti.src[1] = RegRef::fpReg(2);
    di.physSrc[1] = from_ld;
    EXPECT_EQ(ctx.stallSource(di, tok), Producer::Kind::Load);
    EXPECT_EQ(tok, 7u);
}

TEST(Context, StoreStallsOnlyOnAddressAtIssue)
{
    const SimConfig cfg = testConfig();
    Context ctx = makeContext(cfg);

    PhysReg old;
    const PhysReg data = ctx.fpRegs.rename(1, old);  // not ready

    DynInst st;
    st.ti.op = Opcode::StF;
    st.ti.src[0] = RegRef::intReg(2);  // address: ready
    st.ti.src[1] = RegRef::fpReg(1);   // data: in flight
    st.physSrc[0] = ctx.intRegs.map(2);
    st.physSrc[1] = data;

    EXPECT_TRUE(ctx.storeAddrReady(st));
    EXPECT_FALSE(ctx.storeDataReady(st));
    // stallSource ignores the data operand of a store at issue time.
    std::uint32_t tok;
    EXPECT_EQ(ctx.stallSource(st, tok), Producer::Kind::None);

    ctx.fpRegs.setReady(data);
    EXPECT_TRUE(ctx.storeDataReady(st));
}

TEST(Context, SaqForwardingMatchesSameWordOlderStores)
{
    const SimConfig cfg = testConfig();
    Context ctx = makeContext(cfg);

    // An issued store: its address is in the SAQ.
    DynInst st;
    st.ti.op = Opcode::StI;
    st.ti.addr = 0x1000;
    st.isStoreOp = true;
    st.seq = 10;
    st.state = InstState::Issued;
    ctx.saq.push_back(&st);

    EXPECT_TRUE(ctx.saqForwards(11, 0x1000));
    EXPECT_TRUE(ctx.saqForwards(11, 0x1004));   // same 8-byte word
    EXPECT_FALSE(ctx.saqForwards(11, 0x1008));  // next word
    EXPECT_FALSE(ctx.saqForwards(10, 0x1000));  // not older than itself
    EXPECT_FALSE(ctx.saqForwards(9, 0x1000));   // store is younger

    // Still past Dispatched once it completes.
    st.state = InstState::Completed;
    EXPECT_TRUE(ctx.saqForwards(11, 0x1000));

    // Address not yet generated: nothing to forward from.
    st.state = InstState::Dispatched;
    EXPECT_FALSE(ctx.saqForwards(11, 0x1000));
}

TEST(PerceivedTracker, AccumulatesPerMissAndAverages)
{
    PerceivedTracker p;
    const std::uint32_t a = p.open(false);  // FP miss
    const std::uint32_t b = p.open(true);   // int miss
    p.stall(a);
    p.stall(a);
    p.stall(b);
    p.close(a);
    p.close(b);
    EXPECT_EQ(p.fpMisses(), 1u);
    EXPECT_EQ(p.intMisses(), 1u);
    EXPECT_DOUBLE_EQ(p.fpPerceived(), 2.0);
    EXPECT_DOUBLE_EQ(p.intPerceived(), 1.0);
}

TEST(PerceivedTracker, ZeroStallMissesCountInDenominator)
{
    PerceivedTracker p;
    p.close(p.open(false));
    const std::uint32_t t = p.open(false);
    p.stall(t);
    p.stall(t);
    p.close(t);
    // Two misses, two stall cycles total: fully-hidden misses dilute.
    EXPECT_DOUBLE_EQ(p.fpPerceived(), 1.0);
}

TEST(PerceivedTracker, TokensAreRecycled)
{
    PerceivedTracker p;
    const std::uint32_t a = p.open(false);
    p.close(a);
    const std::uint32_t b = p.open(true);
    EXPECT_EQ(a, b);  // slot reused
    p.close(b);
}

TEST(PerceivedTrackerDeath, DoubleClosePanics)
{
    PerceivedTracker p;
    const std::uint32_t a = p.open(false);
    p.close(a);
    EXPECT_DEATH(p.close(a), "close");
}

TEST(PerceivedTracker, ResetKeepsOpenMisses)
{
    PerceivedTracker p;
    const std::uint32_t a = p.open(false);
    p.stall(a);
    p.resetStats();
    p.stall(a);
    p.close(a);
    EXPECT_EQ(p.fpMisses(), 1u);
    // Stalls from before the reset were accumulated into the token and
    // survive (the miss closes after the measurement boundary).
    EXPECT_DOUBLE_EQ(p.fpPerceived(), 2.0);
}
