// Contracts layer: the two-tier guarantee. Debug builds (PPN_CONTRACTS_ENABLED)
// abort with file:line diagnostics when a contract is violated — pinned here
// with death tests over PPN_ASSERT / PPN_CHECK_MSG, the Partition bounds
// contracts and the WorkspaceLease exclusivity guard. Release builds compile
// every check out entirely, including the condition expression — pinned by
// counting evaluations. Each half self-skips on the other tier, so the
// suite passes on both.

#include <gtest/gtest.h>

#include <string>

#include "partition/partition.hpp"
#include "partition/workspace.hpp"
#include "support/contracts.hpp"

namespace {

using ppnpart::part::Partition;
using ppnpart::part::Workspace;
using ppnpart::part::WorkspaceLease;

TEST(ContractsTest, ReleaseCompilesConditionsOut) {
#if PPN_CONTRACTS_ENABLED
  GTEST_SKIP() << "Debug build: contracts are live (see the death tests)";
#else
  // The macros must not evaluate their condition (or message) at runtime:
  // a side-effecting expression stays side-effect-free.
  int evaluations = 0;
  PPN_ASSERT(++evaluations > 0);
  PPN_CHECK_MSG(++evaluations > 0, "never built");
  PPN_DCHECK(++evaluations > 0);
  EXPECT_EQ(evaluations, 0);
#endif
}

TEST(ContractsTest, PassingChecksAreSilentInBothTiers) {
  int evaluations = 0;
  PPN_ASSERT(++evaluations >= 0);
  PPN_CHECK_MSG(true, "unused");
  PPN_DCHECK(true);
  SUCCEED();
}

TEST(ContractsTest, WorkspaceLeaseReleasesOnDestruction) {
  // Sequential reuse is the supported pattern; back-to-back leases on the
  // same workspace must be fine in both tiers.
  Workspace ws;
  { WorkspaceLease lease(ws); }
  { WorkspaceLease again(ws); }
  SUCCEED();
}

#if PPN_CONTRACTS_ENABLED

TEST(ContractsDeathTest, AssertAbortsWithExpressionAndLocation) {
  EXPECT_DEATH(PPN_ASSERT(1 + 1 == 3),
               "contracts_test\\.cpp.*contract violated: 1 \\+ 1 == 3");
}

TEST(ContractsDeathTest, CheckMsgCarriesTheMessage) {
  EXPECT_DEATH(PPN_CHECK_MSG(false, "extra context"),
               "contract violated: false \\(extra context\\)");
}

TEST(ContractsDeathTest, CheckMsgEvaluatesMessageOnlyOnFailure) {
  int calls = 0;
  const auto msg = [&calls] {
    ++calls;
    return std::string("built lazily");
  };
  PPN_CHECK_MSG(true, msg());
  EXPECT_EQ(calls, 0);
  EXPECT_DEATH(PPN_CHECK_MSG(false, msg()), "built lazily");
}

TEST(ContractsDeathTest, PartitionBoundsAreContracts) {
  Partition p(4, 2);
  EXPECT_DEATH(p.set(4, 0), "contract violated");
  EXPECT_DEATH(p.set(0, 2), "contract violated");
  EXPECT_DEATH((void)p[7], "contract violated");
}

TEST(ContractsDeathTest, WorkspaceLeaseDetectsSharing) {
  Workspace ws;
  WorkspaceLease lease(ws);
  EXPECT_DEATH(WorkspaceLease second(ws), "Workspace already in use");
}

#endif  // PPN_CONTRACTS_ENABLED

}  // namespace
