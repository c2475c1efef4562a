#include <gtest/gtest.h>

#include <algorithm>

#include "ast/printer.h"
#include "core/optimizer.h"
#include "equiv/random_check.h"
#include "recovery/fault.h"
#include "service/answer_text.h"
#include "testing/test_util.h"
#include "transform/magic.h"

namespace exdl {
namespace {

using ::exdl::testing::EvalAnswers;
using ::exdl::testing::MustParse;

const char kBoundTc[] =
    "e(n0, n1). e(n1, n2). e(n2, n3). e(n5, n6). e(n6, n7). e(n7, n8).\n"
    "tc(X,Y) :- e(X,Y).\n"
    "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
    "?- tc(n0, Y).\n";

TEST(MagicTest, BoundQueryAnswersPreserved) {
  auto parsed = MustParse(kBoundTc);
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(magic->program, seeded));
}

TEST(MagicTest, RestrictsComputationToRelevantFacts) {
  auto parsed = MustParse(kBoundTc);
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok());
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EvalResult plain = testing::MustEval(parsed.program, parsed.edb);
  EvalResult rewritten = testing::MustEval(magic->program, seeded);
  // The n5..n8 island is unreachable from n0: the magic program must not
  // derive tc-facts for it. Plain bottom-up computes the full closure (12
  // tuples); magic computes only the closure of nodes reachable from n0
  // (6 tuples) plus magic-set bookkeeping.
  PredId tc_bf = magic->program.query()->pred;
  EXPECT_EQ(rewritten.db.Count(tc_bf), 6u);
  PredId tc = parsed.program.query()->pred;
  EXPECT_EQ(plain.db.Count(tc), 12u);
}

TEST(MagicTest, SeedFactMatchesQueryConstants) {
  auto parsed = MustParse(kBoundTc);
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok());
  ASSERT_EQ(magic->seed_fact.args.size(), 1u);
  EXPECT_EQ(parsed.ctx->SymbolName(magic->seed_fact.args[0].id()), "n0");
}

TEST(MagicTest, FreeQueryStillCorrect) {
  auto parsed = MustParse(
      "e(n0, n1). e(n1, n2).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X, Y).\n");
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok());
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(magic->program, seeded));
}

TEST(MagicTest, SecondArgumentBound) {
  auto parsed = MustParse(
      "e(n0, n1). e(n1, n2). e(n3, n2).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X, n2).\n");
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok());
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(magic->program, seeded));
}

TEST(MagicTest, NonRecursiveProgram) {
  auto parsed = MustParse(
      "f(a1, b1). g(b1, c1). f(a2, b2). g(b2, c2).\n"
      "join(X, Z) :- f(X, Y), g(Y, Z).\n"
      "?- join(a1, Z).\n");
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok());
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"c1"}));
  EXPECT_EQ(EvalAnswers(magic->program, seeded),
            (std::vector<std::string>{"c1"}));
}

TEST(MagicTest, MutualRecursion) {
  auto parsed = MustParse(
      "zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).\n"
      "even(X) :- zero(X).\n"
      "even(X) :- succ(Y, X), odd(Y).\n"
      "odd(X) :- succ(Y, X), even(Y).\n"
      "?- even(n4).\n");
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok());
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(magic->program, seeded));
}

TEST(MagicTest, RequiresDerivedQuery) {
  auto parsed = MustParse("?- e(n0, X).\n");
  EXPECT_FALSE(MagicRewrite(parsed.program).ok());
}

TEST(MagicTest, RequiresQuery) {
  auto parsed = MustParse("p(X) :- e(X).\n");
  EXPECT_FALSE(MagicRewrite(parsed.program).ok());
}

TEST(MagicTest, WorksOnAdornedProjectedPrograms) {
  // Magic after the existential pipeline (orthogonality, bench E8): the
  // program below is the projected Example 3 with a constant query.
  auto parsed = MustParse(
      "p(n0, n1). p(n1, n2). p(n3, n4).\n"
      "a@nd(X) :- p(X, Z), a@nd(Z).\n"
      "a@nd(X) :- p(X, Z).\n"
      "?- a@nd(n0).\n");
  Result<MagicResult> magic = MagicRewrite(parsed.program);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(magic->program, seeded));
  EvalResult rewritten = testing::MustEval(magic->program, seeded);
  // n3/n4 are irrelevant to the bound query.
  bool derived_for_n3 = false;
  for (const auto& [pred, rel] : rewritten.db.relations()) {
    const PredicateInfo& info = parsed.ctx->predicate(pred);
    if (info.adornment.empty() ||
        parsed.ctx->SymbolName(info.name).find("a@") == std::string::npos) {
      continue;
    }
    for (size_t r = 0; r < rel.size(); ++r) {
      if (parsed.ctx->SymbolName(rel.view().Scan(r)[0]) == "n3") {
        derived_for_n3 = true;
      }
    }
  }
  EXPECT_FALSE(derived_for_n3);
}

}  // namespace
}  // namespace exdl

namespace exdl {
namespace {

TEST(SupplementaryMagicTest, BoundQueryAnswersPreserved) {
  auto parsed = testing::MustParse(kBoundTc);
  MagicOptions options;
  options.supplementary = true;
  Result<MagicResult> magic = MagicRewrite(parsed.program, options);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  Database seeded = WithSeed(parsed.edb, magic->seed_fact);
  EXPECT_EQ(testing::EvalAnswers(parsed.program, parsed.edb),
            testing::EvalAnswers(magic->program, seeded));
}

TEST(SupplementaryMagicTest, AgreesWithPlainMagic) {
  auto parsed = testing::MustParse(
      "zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).\n"
      "even(X) :- zero(X).\n"
      "even(X) :- succ(Y, X), odd(Y).\n"
      "odd(X) :- succ(Y, X), even(Y).\n"
      "?- even(n4).\n");
  Result<MagicResult> plain = MagicRewrite(parsed.program);
  MagicOptions options;
  options.supplementary = true;
  Result<MagicResult> sup = MagicRewrite(parsed.program, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(sup.ok());
  EXPECT_EQ(
      testing::EvalAnswers(plain->program,
                           WithSeed(parsed.edb, plain->seed_fact)),
      testing::EvalAnswers(sup->program, WithSeed(parsed.edb, sup->seed_fact)));
}

TEST(SupplementaryMagicTest, IntroducesSupPredicates) {
  auto parsed = testing::MustParse(kBoundTc);
  MagicOptions options;
  options.supplementary = true;
  Result<MagicResult> magic = MagicRewrite(parsed.program, options);
  ASSERT_TRUE(magic.ok());
  bool has_sup = false;
  for (const Rule& r : magic->program.rules()) {
    const std::string name = parsed.ctx->PredicateDisplayName(r.head.pred);
    if (name.rfind("sup_", 0) == 0) has_sup = true;
  }
  EXPECT_TRUE(has_sup);
}

TEST(SupplementaryMagicTest, SharedPrefixComputedOnce) {
  // Rule with two derived literals: plain magic re-joins the prefix for
  // the second magic rule; supplementary reuses sup_1.
  auto parsed = testing::MustParse(
      "base(n0, n1). base(n1, n2). base(n2, n3).\n"
      "d1(X, Y) :- base(X, Y).\n"
      "d2(X, Y) :- base(X, Y).\n"
      "pair(X, Z) :- d1(X, Y), d2(Y, Z).\n"
      "?- pair(n0, Z).\n");
  Result<MagicResult> plain = MagicRewrite(parsed.program);
  MagicOptions options;
  options.supplementary = true;
  Result<MagicResult> sup = MagicRewrite(parsed.program, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(sup.ok());
  auto plain_answers = testing::EvalAnswers(
      plain->program, WithSeed(parsed.edb, plain->seed_fact));
  auto sup_answers = testing::EvalAnswers(
      sup->program, WithSeed(parsed.edb, sup->seed_fact));
  EXPECT_EQ(plain_answers, sup_answers);
  EXPECT_EQ(sup_answers, (std::vector<std::string>{"n2"}));
}

}  // namespace
}  // namespace exdl

// The magic column of the default pipeline. Magic sets are the
// optimizer's last phase for bound queries, so every answer path that
// optimizes (including e2ebench's reference Engine) runs them; these tests
// hold them to plain, unoptimized evaluation, which shares no rewrite.
namespace exdl {
namespace {

// Instance size: large enough that some rule variants' outer relations
// split into several pool partitions (64 rows each), small enough that
// plain evaluation of the random programs' cross products stays cheap.
constexpr int kDomainSize = 8;
constexpr int kMaxTuplesPerPred = 80;

std::string Render(const Context& ctx, const EvalResult& result) {
  return RenderAnswerRows(ctx, result.answers);
}

/// What the differential test exercised, summed over its seeds.
struct SeedCoverage {
  size_t magic_applied = 0;  ///< Backends whose pipeline ran magic sets.
  uint64_t pool_dispatches = 0;
};

// A seeded random program whose query binds its first argument to a
// constant of the EDB's active domain: odd seeds bind the existential
// wrapper query(c), even seeds bind p0(c, ...) directly. Its answers must
// be the same plain, through the default pipeline under each deletion
// backend, and at 1 and 4 threads with every variant on the pool.
void CheckBoundRandomProgram(uint64_t seed, SeedCoverage* coverage) {
  ContextPtr ctx = std::make_shared<Context>();
  testing::RandomProgramOptions program_options;
  program_options.seed = seed * 7919 + 11;
  Program program = testing::RandomProgram(ctx, program_options);

  std::vector<PredId> inputs;
  for (PredId pred : program.EdbPredicates()) inputs.push_back(pred);
  std::sort(inputs.begin(), inputs.end());
  Database edb = RandomInstance(ctx.get(), inputs, kDomainSize,
                                kMaxTuplesPerPred, seed);
  std::vector<Value> domain;
  for (const auto& [pred, rel] : edb.relations()) {
    for (size_t row = 0; row < rel.size(); ++row) {
      for (Value v : rel.view().Scan(row)) domain.push_back(v);
    }
  }
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  if (domain.empty()) return;
  const Term bound = Term::Const(domain[seed % domain.size()]);

  Atom query = *program.query();
  if (seed % 2 == 0) {
    // The generator's last rule is the wrapper query(Q) :- p0(Q, ...).
    query = program.rules().back().body[0];
    for (size_t i = 1; i < query.args.size(); ++i) {
      query.args[i] = Term::Var(ctx->InternSymbol("A" + std::to_string(i)));
    }
  }
  query.args[0] = bound;
  program.SetQuery(query);

  const std::string expected =
      Render(*ctx, testing::MustEval(program, edb));
  SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(program));

  struct Backend {
    const char* name;
    bool sagiv;
    bool optimistic;
  };
  for (const Backend& backend : {Backend{"summaries", false, false},
                                 Backend{"sagiv", true, false},
                                 Backend{"optimistic", false, true}}) {
    SCOPED_TRACE(backend.name);
    OptimizerOptions options;
    options.deletion.use_sagiv = backend.sagiv;
    options.deletion.use_optimistic = backend.optimistic;
    options.deletion.optimistic.max_facts = 20000;
    Result<OptimizedProgram> optimized = OptimizeExistential(program, options);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    const OptimizationReport& report = optimized->report;
    // The query stays bound through the existential phases; only a query
    // predicate that lost every rule to deletion can skip the phase.
    if (report.magic_applied) {
      ASSERT_TRUE(optimized->magic_seed.has_value());
      ++coverage->magic_applied;
    } else {
      EXPECT_EQ(report.magic_skipped, "base-predicate query");
    }
    const Database seeded =
        optimized->magic_seed ? WithSeed(edb, *optimized->magic_seed)
                              : edb.Clone();
    for (uint32_t threads : {1u, 4u}) {
      EvalOptions eval;
      eval.num_threads = threads;
      eval.pool_min_delta_rows = 1;
      // Counts dispatches without ever failing one.
      ASSERT_TRUE(FaultPlan::Global().Arm("eval.pool_dispatch:4000000000").ok());
      EvalResult result = testing::MustEval(optimized->program, seeded, eval);
      coverage->pool_dispatches += FaultPlan::Global().hits();
      FaultPlan::Global().Disarm();
      EXPECT_EQ(Render(*ctx, result), expected)
          << "threads " << threads << "\noptimized:\n"
          << ToString(optimized->program);
    }
  }
}

TEST(MagicDifferentialTest, BoundRandomProgramsMatchPlainEvaluation) {
  SeedCoverage total;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    CheckBoundRandomProgram(seed, &total);
  }
  // The column is really exercised: most pipelines end in magic sets, and
  // the 4-thread runs split rule variants across the pool.
  EXPECT_GE(total.magic_applied, 3u * 150u);
  EXPECT_GT(total.pool_dispatches, 0u);
}

// Programs outside the phase's reach compile and report why it skipped.
// apply_magic is the default; it is set here to say what is asked for.
Result<OptimizedProgram> OptimizeWithMagic(const Program& program) {
  OptimizerOptions options;
  options.apply_magic = true;
  return OptimizeExistential(program, options);
}

TEST(MagicSkipTest, FreeQuery) {
  auto parsed = testing::MustParse(
      "e(n0, n1). e(n1, n2).\n"
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "?- tc(X, Y).\n");
  Result<OptimizedProgram> result = OptimizeWithMagic(parsed.program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const OptimizedProgram& optimized = *result;
  EXPECT_FALSE(optimized.report.magic_applied);
  EXPECT_FALSE(optimized.magic_seed.has_value());
  EXPECT_EQ(optimized.report.magic_skipped, "query binds no constant");
  EXPECT_EQ(testing::EvalAnswers(optimized.program, parsed.edb),
            testing::EvalAnswers(parsed.program, parsed.edb));
}

TEST(MagicSkipTest, BasePredicateQuery) {
  auto parsed = testing::MustParse(
      "e(n0, n1). e(n1, n2).\n"
      "tc(X, Y) :- e(X, Y).\n"
      "?- e(n0, Y).\n");
  Result<OptimizedProgram> result = OptimizeWithMagic(parsed.program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const OptimizedProgram& optimized = *result;
  EXPECT_FALSE(optimized.report.magic_applied);
  EXPECT_FALSE(optimized.magic_seed.has_value());
  EXPECT_EQ(optimized.report.magic_skipped, "base-predicate query");
  EXPECT_EQ(testing::EvalAnswers(optimized.program, parsed.edb),
            (std::vector<std::string>{"n1"}));
}

TEST(MagicSkipTest, StratifiedNegation) {
  auto parsed = testing::MustParse(
      "e(n0, n1). e(n1, n2). blocked(n2).\n"
      "tc(X, Y) :- e(X, Y), not blocked(Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "?- tc(n0, Y).\n");
  Result<OptimizedProgram> result = OptimizeWithMagic(parsed.program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const OptimizedProgram& optimized = *result;
  EXPECT_FALSE(optimized.report.magic_applied);
  EXPECT_FALSE(optimized.magic_seed.has_value());
  EXPECT_EQ(optimized.report.magic_skipped, "negation");
  EXPECT_EQ(testing::EvalAnswers(optimized.program, parsed.edb),
            testing::EvalAnswers(parsed.program, parsed.edb));
}

TEST(MagicSkipTest, OffSwitchRecordsNoReason) {
  auto parsed = testing::MustParse(kBoundTc);
  OptimizerOptions options;
  options.apply_magic = false;
  Result<OptimizedProgram> optimized =
      OptimizeExistential(parsed.program, options);
  ASSERT_TRUE(optimized.ok());
  EXPECT_FALSE(optimized->report.magic_applied);
  EXPECT_TRUE(optimized->report.magic_skipped.empty());
}

}  // namespace
}  // namespace exdl
