#include <gtest/gtest.h>

#include "equiv/optimistic.h"
#include "equiv/random_check.h"
#include "equiv/uniform_equivalence.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

using ::exdl::testing::MustParse;

TEST(OptimisticFixpointTest, FiresOnSingleKnownLiteral) {
  // p(X) :- a(X), b(X): optimistically, a(c) alone derives p(c).
  auto parsed = MustParse(
      "a(c1).\n"
      "p(X) :- a(X), b(X).\n"
      "?- p(X).\n");
  Result<Database> db = OptimisticFixpoint(parsed.program, parsed.edb);
  ASSERT_TRUE(db.ok());
  PredId p = parsed.program.query()->pred;
  EXPECT_EQ(db->Count(p), 1u);
}

TEST(OptimisticFixpointTest, UnboundHeadVarsRangeOverDomain) {
  auto parsed = MustParse(
      "a(c1). junk(c2).\n"
      "p(X, Y) :- a(X), b(Y).\n"
      "?- p(X, Y).\n");
  Result<Database> db = OptimisticFixpoint(parsed.program, parsed.edb);
  ASSERT_TRUE(db.ok());
  PredId p = parsed.program.query()->pred;
  // From a(c1): p(c1, *) for * in {c1, c2} = 2 tuples; from b: none (b
  // empty). Also the b-literal route: no b facts, nothing.
  EXPECT_EQ(db->Count(p), 2u);
}

TEST(OptimisticFixpointTest, RepeatedUnboundHeadVarStaysEqual) {
  auto parsed = MustParse(
      "a(c1). junk(c2).\n"
      "p(Y, Y) :- a(X), b(Y).\n"
      "?- p(U, V).\n");
  // The a-route leaves Y unbound: p(d, d) for each domain constant d.
  Result<Database> db = OptimisticFixpoint(parsed.program, parsed.edb);
  ASSERT_TRUE(db.ok());
  PredId p = parsed.program.query()->pred;
  ASSERT_EQ(db->Count(p), 2u);
  for (const Atom& fact : db->FactsOf(p)) {
    EXPECT_EQ(fact.args[0], fact.args[1]);
  }
}

TEST(OptimisticFixpointTest, OverapproximatesStandardFixpoint) {
  auto parsed = MustParse(
      "e(c1, c2). e(c2, c3).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  Result<Database> optimistic =
      OptimisticFixpoint(parsed.program, parsed.edb);
  ASSERT_TRUE(optimistic.ok());
  EvalResult standard = testing::MustEval(parsed.program, parsed.edb);
  PredId tc = parsed.program.query()->pred;
  const Relation* std_rel = standard.db.Find(tc);
  ASSERT_NE(std_rel, nullptr);
  const Relation* opt_rel = optimistic->Find(tc);
  ASSERT_NE(opt_rel, nullptr);
  for (size_t i = 0; i < std_rel->size(); ++i) {
    EXPECT_TRUE(opt_rel->Contains(std_rel->view().Scan(i)));
  }
  EXPECT_GE(opt_rel->size(), std_rel->size());
}

TEST(OptimisticFixpointTest, SizeCapReported) {
  auto parsed = MustParse(
      "e(c1, c2). e(c2, c3). e(c3, c4). e(c4, c5).\n"
      "p(X, Y, Z) :- e(X, W), q(Y, Z).\n"
      "q(Y, Z) :- p(Y, Z, W).\n"
      "?- p(X, Y, Z).\n");
  OptimisticOptions tiny;
  tiny.max_facts = 10;
  EXPECT_FALSE(OptimisticFixpoint(parsed.program, parsed.edb, tiny).ok());
}

TEST(OptimisticDeletionTest, PaperExample6RecursiveNnRule) {
  // Example 6: under uniform *query* equivalence the recursive a^nn rule
  // can be deleted (Sagiv's UE test cannot do this, see
  // uniform_equivalence_test).
  auto parsed = MustParse(
      "and(X) :- ann(X, Z), p(Z, Y).\n"   // r0
      "and(X) :- p(X, Y).\n"              // r1
      "ann(X, Y) :- ann(X, Z), p(Z, Y).\n"  // r2: delete me
      "ann(X, Y) :- p(X, Y).\n"           // r3
      "?- and(X).\n");
  Result<bool> deletable = DeletableUnderOptimisticUqe(parsed.program, 2);
  ASSERT_TRUE(deletable.ok()) << deletable.status().ToString();
  EXPECT_TRUE(*deletable);
  // And the deletion really is query-preserving on EDB instances.
  Program without(parsed.program.context());
  for (size_t i = 0; i < parsed.program.rules().size(); ++i) {
    if (i != 2) without.AddRule(parsed.program.rules()[i]);
  }
  without.SetQuery(*parsed.program.query());
  Result<RandomCheckReport> check =
      CheckQueryEquivalentOnEdb(parsed.program, without);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->equivalent) << check->counterexample;
}

TEST(OptimisticDeletionTest, LoadBearingRuleNotDeletable) {
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  for (size_t r = 0; r < 2; ++r) {
    Result<bool> deletable = DeletableUnderOptimisticUqe(parsed.program, r);
    ASSERT_TRUE(deletable.ok());
    EXPECT_FALSE(*deletable) << "rule " << r;
  }
}

TEST(OptimisticDeletionTest, StrictlyStrongerThanSagivOnExample6) {
  auto parsed = MustParse(
      "and(X) :- ann(X, Z), p(Z, Y).\n"
      "and(X) :- p(X, Y).\n"
      "ann(X, Y) :- ann(X, Z), p(Z, Y).\n"
      "ann(X, Y) :- p(X, Y).\n"
      "?- and(X).\n");
  Result<bool> sagiv = DeletableUnderUniformEquivalence(parsed.program, 2);
  ASSERT_TRUE(sagiv.ok());
  EXPECT_FALSE(*sagiv);  // UE says no
  Result<bool> optimistic = DeletableUnderOptimisticUqe(parsed.program, 2);
  ASSERT_TRUE(optimistic.ok());
  EXPECT_TRUE(*optimistic);  // UQE says yes
}

TEST(OptimisticDeletionTest, BoundQueryKeepsItsOnlyRule) {
  // The frozen head query(q0) may stand for query(n1): q0 is a wildcard,
  // so matching the query's constant exactly would miss the one answer
  // this rule derives and wrongly delete it.
  auto parsed = MustParse(
      "query(Q) :- p(Q).\n"
      "p(X) :- e(X).\n"
      "?- query(n1).\n");
  Result<bool> deletable = DeletableUnderOptimisticUqe(parsed.program, 0);
  ASSERT_TRUE(deletable.ok()) << deletable.status().ToString();
  EXPECT_FALSE(*deletable);
}

TEST(OptimisticDeletionTest, RepeatedQueryVariableKeepsItsOnlyRule) {
  // Likewise q0 and q1 may coincide under the query's repeated X.
  auto parsed = MustParse(
      "query(A, B) :- p(A, B).\n"
      "p(X, Y) :- e(X, Y).\n"
      "?- query(X, X).\n");
  Result<bool> deletable = DeletableUnderOptimisticUqe(parsed.program, 0);
  ASSERT_TRUE(deletable.ok()) << deletable.status().ToString();
  EXPECT_FALSE(*deletable);
}

TEST(OptimisticDeletionTest, RequiresQuery) {
  auto parsed = MustParse("p(X) :- e(X).\n");
  EXPECT_FALSE(DeletableUnderOptimisticUqe(parsed.program, 0).ok());
}

TEST(OptimisticDeletionTest, IndexOutOfRange) {
  auto parsed = MustParse("p(X) :- e(X).\n?- p(X).\n");
  EXPECT_FALSE(DeletableUnderOptimisticUqe(parsed.program, 3).ok());
}

}  // namespace
}  // namespace exdl
