// Kernel equivalence (DESIGN.md §14): whether a rule runs the bitset
// kernels or the generic descent is invisible. The reference run records
// provenance, which forces the generic descent and hash-index membership
// on every rule, serially. For every program shape the suite covers —
// monadic kernels, binary closure, negation, boolean cuts, cascades, and
// seeded random programs — the default (kernel-taking) runs on 1 and 4
// threads must produce a database (contents AND row order), answers, and
// work counters byte-identical to that reference.

#include <gtest/gtest.h>

#include <string>

#include "core/workload.h"
#include "equiv/random_check.h"
#include "eval/evaluator.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

/// Same contract as parallel_eval_test: predicates, sizes, and row order
/// all match.
void ExpectIdenticalDatabases(const Database& a, const Database& b) {
  ASSERT_EQ(a.relations().size(), b.relations().size());
  for (const auto& [pred, rel] : a.relations()) {
    const Relation* other = b.Find(pred);
    ASSERT_NE(other, nullptr) << "missing predicate " << pred;
    ASSERT_EQ(rel.size(), other->size()) << "size mismatch for " << pred;
    for (size_t r = 0; r < rel.size(); ++r) {
      std::span<const Value> ra = rel.view().Scan(r);
      std::span<const Value> rb = other->view().Scan(r);
      ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
          << "pred " << pred << " row " << r;
    }
  }
}

void ExpectSameOutcome(const EvalResult& reference, const EvalResult& run) {
  ExpectIdenticalDatabases(reference.db, run.db);
  EXPECT_EQ(reference.answers, run.answers);
  EXPECT_EQ(reference.ground_query_true, run.ground_query_true);
  EXPECT_EQ(reference.stats.rounds, run.stats.rounds);
  EXPECT_EQ(reference.stats.rule_firings, run.stats.rule_firings);
  EXPECT_EQ(reference.stats.tuples_inserted, run.stats.tuples_inserted);
  EXPECT_EQ(reference.stats.duplicate_inserts, run.stats.duplicate_inserts);
  EXPECT_EQ(reference.stats.index_probes, run.stats.index_probes);
  EXPECT_EQ(reference.stats.rows_matched, run.stats.rows_matched);
  EXPECT_EQ(reference.stats.rules_retired, run.stats.rules_retired);
  EXPECT_EQ(reference.stats.budget_tripped, run.stats.budget_tripped);
}

/// Evaluates the descent-only reference (provenance on) and the default
/// runs at {1, 4} threads, and asserts both runs agree with the reference.
void ExpectRepresentationEquivalent(const Program& program,
                                    const Database& edb) {
  EvalOptions reference_options;
  reference_options.record_provenance = true;
  EvalResult reference = testing::MustEval(program, edb, reference_options);
  EXPECT_EQ(reference.representation.words_scanned, 0u);
  for (uint32_t threads : {1u, 4u}) {
    EvalOptions options;
    options.num_threads = threads;
    EvalResult run = testing::MustEval(program, edb, options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectSameOutcome(reference, run);
  }
}

// ---------------------------------------------------------------------------
// Fixed program shapes

TEST(RepresentationTest, MonadicReachability) {
  auto parsed = testing::MustParse(
      "reach(Y) :- reach(X), e(X, Y).\n"
      "reach(X) :- zero(X).\n"
      "marked(X) :- reach(X), mark(X).\n"
      "?- marked(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = 300;
  spec.avg_degree = 2.0;
  spec.seed = 5;
  PredId e = parsed.ctx->InternPredicate("e", 2);
  Database edb;
  std::vector<Value> nodes = MakeGraph(parsed.ctx.get(), &edb, e, spec);
  edb.AddTuple(parsed.ctx->InternPredicate("zero", 1),
               std::vector<Value>{nodes[0]});
  PredId mark = parsed.ctx->InternPredicate("mark", 1);
  for (size_t i = 0; i < nodes.size(); i += 2) {
    edb.AddTuple(mark, std::vector<Value>{nodes[i]});
  }
  ExpectRepresentationEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, BinaryTransitiveClosure) {
  auto parsed = testing::MustParse(
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = 250;
  spec.avg_degree = 1.5;
  spec.seed = 23;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  ExpectRepresentationEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, NegationAntiJoin) {
  auto parsed = testing::MustParse(
      "reach(X) :- src(X).\n"
      "reach(Y) :- reach(X), p(X, Y).\n"
      "unreached(X) :- node(X), not reach(X).\n"
      "?- unreached(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kTree;
  spec.nodes = 300;
  spec.seed = 7;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  std::vector<Value> nodes = MakeGraph(parsed.ctx.get(), &edb, p, spec);
  PredId node = parsed.ctx->InternPredicate("node", 1);
  for (Value v : nodes) edb.AddTuple(node, std::vector<Value>{v});
  edb.AddTuple(parsed.ctx->InternPredicate("src", 1),
               std::vector<Value>{nodes[0]});
  ExpectRepresentationEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, BooleanCutGroundQuery) {
  auto parsed = testing::MustParse(
      "hit :- p(X, Y), p(Y, X).\n"
      "a(X, Y) :- p(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "?- a(X, Y).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kCycle;
  spec.nodes = 120;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  ExpectRepresentationEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, CascadeShape) {
  auto parsed = testing::MustParse(
      "q(X) :- a1(X, Y).\n"
      "q(X) :- a1(X, Z), b2(Z, W, V).\n"
      "q(X) :- a2(X, Z), b3(Z, W).\n"
      "a2(X, Z) :- a1(X, U), b4(U, Z).\n"
      "a1(X, Y) :- b1(X, Y).\n"
      "a1(X, Y) :- a1(X, Z), b5(Z, Y).\n"
      "?- q(X).\n");
  Database edb;
  uint64_t seed = 11;
  const int n = 300;
  for (const char* name : {"b1", "b2", "b3", "b4", "b5"}) {
    uint32_t arity = std::string(name) == "b2" ? 3 : 2;
    MakeRandomTuples(parsed.ctx.get(), &edb,
                     parsed.ctx->InternPredicate(name, arity), n, n / 2,
                     seed++);
  }
  ExpectRepresentationEquivalent(parsed.program, edb);
}

// ---------------------------------------------------------------------------
// Seeded random programs (same generator as property_test)

class RepresentationSeededTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RepresentationSeededTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST_P(RepresentationSeededTest, RandomProgramAgrees) {
  ContextPtr ctx = std::make_shared<Context>();
  testing::RandomProgramOptions options;
  options.seed = GetParam();
  Program program = testing::RandomProgram(ctx, options);
  std::vector<PredId> inputs;
  for (PredId p : program.EdbPredicates()) inputs.push_back(p);
  std::sort(inputs.begin(), inputs.end());
  Database edb = RandomInstance(ctx.get(), inputs, /*domain_size=*/24,
                                /*max_tuples_per_pred=*/60,
                                /*seed=*/GetParam() * 131 + 17);
  ExpectRepresentationEquivalent(program, edb);
}

TEST_P(RepresentationSeededTest, RandomStratifiedProgramAgrees) {
  ContextPtr ctx = std::make_shared<Context>();
  testing::RandomStratifiedOptions options;
  options.seed = GetParam() ^ 0x5EED;
  Program program = testing::RandomStratifiedProgram(ctx, options);
  std::vector<PredId> inputs;
  for (PredId p : program.EdbPredicates()) inputs.push_back(p);
  std::sort(inputs.begin(), inputs.end());
  Database edb = RandomInstance(ctx.get(), inputs, /*domain_size=*/20,
                                /*max_tuples_per_pred=*/50,
                                /*seed=*/GetParam() * 97 + 3);
  ExpectRepresentationEquivalent(program, edb);
}

}  // namespace
}  // namespace exdl
