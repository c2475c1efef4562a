// E8 — Orthogonality of selection pushing (magic sets) and projection
// pushing (§1, §6: "these rewritings are orthogonal to the optimizations
// discussed in this paper").
//
// Bound reachability query on the Example 1 program. Rows: plain
// evaluation, magic only, existential pipeline only, both. Expect the
// combination to do the least work: magic restricts the *nodes* explored,
// the existential pipeline removes the *target column*.

#include "bench_util.h"

#include "transform/magic.h"

namespace exdl::bench {
namespace {

const char kProgram[] =
    "query(X) :- a(X, Y).\n"
    "a(X, Y) :- p(X, Z), a(Z, Y).\n"
    "a(X, Y) :- p(X, Y).\n"
    "?- query(n0).\n";

Database MakeEdb(Context* ctx, int n) {
  Database edb;
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = n;
  spec.avg_degree = 2.0;
  spec.seed = 55;
  MakeGraph(ctx, &edb, ctx->InternPredicate("p", 2), spec);
  return edb;
}

void RunCase(benchmark::State& state, const char* name, bool existential,
             bool magic, bool supplementary = false) {
  Setup setup = ParseOrDie(kProgram);
  OptimizerOptions options;
  options.adorn = existential;
  options.push_projections = existential;
  options.extract_components = existential;
  options.add_unit_rules = existential;
  options.delete_rules = existential;
  options.apply_magic = false;  // applied manually to pick the variant
  Result<OptimizedProgram> optimized =
      OptimizeExistential(setup.program, options);
  if (!optimized.ok()) std::abort();
  if (magic) {
    MagicOptions magic_options;
    magic_options.supplementary = supplementary;
    Result<MagicResult> rewritten =
        MagicRewrite(optimized->program, magic_options);
    if (!rewritten.ok()) std::abort();
    optimized->program = std::move(rewritten->program);
    optimized->magic_seed = std::move(rewritten->seed_fact);
  }
  Database edb = MakeEdb(setup.ctx.get(), static_cast<int>(state.range(0)));
  if (optimized->magic_seed) {
    edb = WithSeed(edb, *optimized->magic_seed);
  }
  EvalResult best;
  for (auto _ : state) {
    KeepFastest(EvalOrDie(optimized->program, edb), &best);
  }
  ReportResult(state, std::string(name) + "/" + std::to_string(state.range(0)),
               best);
}

void BM_Plain(benchmark::State& state) {
  RunCase(state, "Plain", false, false);
}
void BM_MagicOnly(benchmark::State& state) {
  RunCase(state, "MagicOnly", false, true);
}
void BM_ExistentialOnly(benchmark::State& state) {
  RunCase(state, "ExistentialOnly", true, false);
}
void BM_Both(benchmark::State& state) { RunCase(state, "Both", true, true); }
void BM_BothSupplementary(benchmark::State& state) {
  RunCase(state, "BothSupplementary", true, true, /*supplementary=*/true);
}

BENCHMARK(BM_Plain)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MagicOnly)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExistentialOnly)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Both)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BothSupplementary)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exdl::bench
