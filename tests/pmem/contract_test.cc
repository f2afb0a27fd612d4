/**
 * @file
 * API-contract tests: misuse of the pmem interface must fail loudly
 * (fatal for user errors, panic for internal invariants), matching the
 * gem5-style error discipline in common/logging.h.
 */
#include <gtest/gtest.h>

#include "pmem/runtime.h"

namespace poat {
namespace {

using ContractDeath = ::testing::Test;

TEST(ContractDeath, DuplicatePoolNameIsFatal)
{
    PmemRuntime rt;
    rt.poolCreate("dup", 1 << 20);
    EXPECT_EXIT(rt.poolCreate("dup", 1 << 20),
                ::testing::ExitedWithCode(1), "already exists");
}

TEST(ContractDeath, OpeningUnknownPoolIsFatal)
{
    PmemRuntime rt;
    EXPECT_EXIT(rt.poolOpen("never-created"),
                ::testing::ExitedWithCode(1), "unknown pool");
}

TEST(ContractDeath, DerefOfNullPanics)
{
    PmemRuntime rt;
    EXPECT_DEATH(rt.deref(OID_NULL), "OID_NULL");
}

TEST(ContractDeath, TranslationOfUnopenedPoolIsFatal)
{
    PmemRuntime rt;
    rt.poolCreate("p", 1 << 20);
    // Pool id 999 was never created: the paper treats this as a
    // program error surfaced by oid_direct.
    EXPECT_EXIT(rt.deref(ObjectID(999, 0)),
                ::testing::ExitedWithCode(1), "not open");
}

TEST(ContractDeath, TxAddRangeWithoutBeginPanics)
{
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID oid = rt.pmalloc(pool, 64);
    EXPECT_DEATH(rt.txAddRange(oid, 8), "without an open transaction");
}

TEST(ContractDeath, NestedTxOnSamePoolPanics)
{
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    rt.txBegin(pool);
    EXPECT_DEATH(rt.txBegin(pool), "nested");
}

TEST(ContractDeath, DoubleFreePanics)
{
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID oid = rt.pmalloc(pool, 64);
    rt.pfree(oid);
    EXPECT_DEATH(rt.pfree(oid), "double pfree");
}

TEST(ContractDeath, PoolExhaustionIsFatal)
{
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("tiny", 1 << 16, 8 * 1024);
    EXPECT_EXIT(rt.pmalloc(pool, 1 << 20),
                ::testing::ExitedWithCode(1), "exhausted");
}

TEST(ContractDeath, PoolCloseWithLiveTransactionPanics)
{
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    rt.txBegin(pool);
    EXPECT_DEATH(rt.poolClose(pool), "live transaction");
}

} // namespace
} // namespace poat
