#include "eval/join_executor.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "recovery/fault.h"

namespace exdl {

JoinExecutor::JoinExecutor(const EvalOptions& options, BudgetTrip& trip,
                           const EvalObs& obs)
    : options_(options),
      trip_(trip),
      obs_(obs),
      pool_min_delta_rows_(ResolvePoolMinDeltaRows()),
      states_(std::max(1u, options.num_threads)) {
  if (obs_.t == nullptr) return;
  shards_.reserve(states_.size());
  for (DescentState& ws : states_) {
    shards_.push_back(obs_.m->NewShard());
    ws.shard = &shards_.back();
  }
}

void JoinExecutor::MergeShards() {
  for (obs::MetricsShard& shard : shards_) obs_.m->Merge(shard);
}

/// Resolves the pool-skip threshold: an explicit option wins, then
/// EXDL_POOL_MIN_DELTA_ROWS, then the built-in default. Small semi-naive
/// rounds cost more to dispatch to the pool than to run inline — 4096
/// delta rows is comfortably past the crossover on the E1 chain
/// workloads (see EXPERIMENTS.md E1: T4 was slower than serial before
/// this gate).
uint32_t JoinExecutor::ResolvePoolMinDeltaRows() const {
  if (options_.pool_min_delta_rows != 0) {
    return options_.pool_min_delta_rows;
  }
  // Read (and parse) the environment once per process: getenv scans
  // environ linearly and this sits in the timed evaluation window of
  // every Run. Processes honor the variable at startup, like the other
  // EXDL_* knobs.
  static const uint32_t env_value = [] {
    const char* v = std::getenv("EXDL_POOL_MIN_DELTA_ROWS");
    if (v != nullptr && *v != '\0') {
      const uint64_t parsed = std::strtoull(v, nullptr, 10);
      if (parsed != 0) {
        return static_cast<uint32_t>(std::min<uint64_t>(parsed, UINT32_MAX));
      }
    }
    return kDefaultPoolMinDeltaRows;
  }();
  return env_value;
}

/// How many workers a variant should use: 1 (serial) unless threading is
/// on, provenance is off, the variant has a partitionable positive
/// outermost step, and the outer range is big enough to amortize the
/// spawn. Single-tuple heads stay serial (they stop at one witness).
uint32_t JoinExecutor::NumWorkers(const RulePlan& plan, RowRange outer) const {
  if (options_.num_threads <= 1 || options_.record_provenance) return 1;
  if (stop_after_first_) return 1;
  if (plan.steps.empty() || plan.steps[0].negated) return 1;
  const uint32_t rows = outer.hi - outer.lo;
  return std::min(options_.num_threads,
                  std::max(1u, rows / kMinRowsPerWorker));
}

Status JoinExecutor::Fire(const Database& db, const RulePlan& plan,
                          size_t rule_index, bool stop_after_first,
                          std::optional<RowRange> delta) {
  stop_after_first_ = stop_after_first;
  step_rels_.assign(plan.steps.size(), nullptr);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const Relation* rel = db.Find(plan.steps[s].pred);
    step_rels_[s] = rel;
    // An empty positive literal means the variant cannot match; an
    // empty (or absent) relation under a negated literal is simply a
    // succeeding anti-join.
    if ((rel == nullptr || rel->empty()) && !plan.steps[s].negated) {
      return Status::Ok();
    }
  }
  RowRange outer{0, 0};
  if (delta.has_value()) {
    outer = *delta;
  } else if (!plan.steps.empty() && step_rels_[0] != nullptr) {
    outer.hi = static_cast<uint32_t>(step_rels_[0]->size());
  }
  rule_index_ = rule_index;
  SpanGuard rule_span(obs_.t, "rule:", rule_index);

  // Resolve each step's (lazily built) index once per variant: the inner
  // descent loop then probes through cached pointers with no map lookup
  // or lock. Relations cloned copy-on-write from a shared snapshot stay
  // payload-shared — the const GetIndex builds (or reuses) the shared
  // index in place, so concurrent sessions over the same EDB pay for an
  // index build once.
  //
  // Unary membership steps (step.bitset_eligible) never resolve a hash
  // index: they probe the relation's word-packed bitset instead — full
  // bits, or for a step 0 that reads a delta suffix, a scratch bitset
  // built from the arena rows [lo, hi).
  step_indexes_.assign(plan.steps.size(), nullptr);
  step_bits_.assign(plan.steps.size(), nullptr);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const LiteralStep& step = plan.steps[s];
    const Relation* rel = step_rels_[s];
    if (rel == nullptr || step.negated || step.index_columns.empty()) {
      continue;
    }
    // Provenance needs row ids, which a membership bit cannot supply;
    // explain runs resolve the hash index like any other step.
    if (step.bitset_eligible && !options_.record_provenance &&
        rel->arity() == 1) {
      const Relation::View v = rel->view();
      if (s > 0 || (outer.lo == 0 && outer.hi == v.size())) {
        step_bits_[s] = v.bits();
      } else {
        delta_bits_scratch_.Clear();
        std::span<const Value> arena = v.Raw();
        for (uint32_t r = outer.lo; r < outer.hi; ++r) {
          delta_bits_scratch_.Set(arena[r]);
        }
        step_bits_[s] = &delta_bits_scratch_;
      }
    } else {
      step_indexes_[s] = &rel->GetIndex(step.index_columns);
    }
  }

  // Pool-skip gate: a semi-naive round whose delta is tiny costs more to
  // dispatch than to run inline (see EvalOptions::pool_min_delta_rows).
  uint32_t workers = NumWorkers(plan, outer);
  if (workers > 1 && delta.has_value() &&
      outer.hi - outer.lo < pool_min_delta_rows_) {
    workers = 1;
    round_.pool_skipped = true;
  }
  // Kernel or descent is a per-rule plan fact (DESIGN.md §14); the
  // kernels have no per-row descent spine, so provenance runs descend.
  bool kernel = plan.bitset_eligible && !options_.record_provenance &&
                !stop_after_first_;
  if (kernel && !PrepareBitsetVariant(plan)) kernel = false;

  // Partition the outermost row range into contiguous chunks, one per
  // worker. Chunk order == serial scan order, so draining the partition
  // buffers in chunk order reproduces the serial derivation sequence.
  const uint32_t total = outer.hi - outer.lo;
  auto run_part = [&, workers](uint32_t w) {
    RunPartition(plan,
                 RowRange{outer.lo + w * total / workers,
                          outer.lo + (w + 1) * total / workers},
                 kernel, states_[w]);
  };
  if (workers <= 1) {
    run_part(0);
  } else {
    // Fault site: worker-pool dispatch. Fails the variant before any part
    // runs, so no partition buffer is left half-filled.
    if (FaultPlan::Global().armed() &&
        FaultPlan::Global().ShouldFail("eval.pool_dispatch")) {
      return Status::Internal("injected fault at eval.pool_dispatch");
    }
    if (pool_ == nullptr) {
      // Never oversubscribe: pool threads beyond the CPUs actually
      // available to this process only add contention. The partition
      // count (and therefore every result and counter) still follows
      // num_threads; with zero extra threads the caller simply claims
      // all partitions itself, in order.
      const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
      pool_ = std::make_unique<WorkerPool>(
          std::min(options_.num_threads, hw) - 1);
    }
    pool_->Run(workers, run_part);
  }
  for (uint32_t w = 0; w < workers; ++w) Drain(states_[w]);
  return Status::Ok();
}

void JoinExecutor::RunPartition(const RulePlan& plan, RowRange part,
                                bool kernel, DescentState& ws) {
  ws.regs.assign(plan.num_regs, 0);
  if (!kernel) {
    ws.reg_set.assign(plan.num_regs, false);
    ws.path.clear();
    Descend(plan, part, 0, ws);
  } else if (step_rels_[0]->arity() == 1 &&
             plan.binary_probe_step == static_cast<size_t>(-1)) {
    RunShapeA(plan, part, ws);
  } else {
    RunShapeB(plan, part, ws);
  }
  // Written on the partition's own thread: the worker-pool path exercises
  // the shard-merge contract instead of funneling through the main thread.
  if (ws.shard != nullptr) {
    ws.shard->Add(obs_.firings, ws.stats.rule_firings);
    ws.shard->Add(obs_.probes, ws.stats.index_probes);
    ws.shard->Add(obs_.rows, ws.stats.rows_matched);
  }
}

/// Appends one partition's buffered derivations and counters to the round
/// buffer. Called in variant/partition order so the flushed insertion
/// order matches serial evaluation.
void JoinExecutor::Drain(DescentState& ws) {
  if (obs_.t != nullptr) {
    // Per-rule attribution happens here — per variant, on the main
    // thread, before the stats fold/reset — so the descent inner loop
    // carries no instrumentation.
    obs_.m->Add(obs_.rule_firings[rule_index_], ws.stats.rule_firings);
    obs_.m->Add(obs_.rule_probes[rule_index_], ws.stats.index_probes);
  }
  round_.stats += ws.stats;
  ws.stats = EvalStats();
  round_.words_scanned += ws.words_scanned;
  ws.words_scanned = 0;
  const size_t base = round_.values.size();
  round_.values.insert(round_.values.end(), ws.values.begin(),
                       ws.values.end());
  for (PendingFact& f : ws.buffer) {
    f.begin += base;
    round_.facts.push_back(std::move(f));
  }
  ws.values.clear();
  ws.buffer.clear();
  ws.open_run = static_cast<size_t>(-1);
}

/// Returns false when evaluation of this partition should stop (the
/// single-tuple head was emitted and one witness suffices, or a budget
/// tripped).
bool JoinExecutor::Descend(const RulePlan& plan, RowRange outer,
                           size_t step_idx, DescentState& ws) {
  if (step_idx == plan.steps.size()) {
    return EmitHead(plan, ws, /*extend_run=*/false) && !stop_after_first_;
  }
  const LiteralStep& step = plan.steps[step_idx];
  const Relation* rel = step_rels_[step_idx];

  if (step.negated) {
    // Anti-join: succeed iff no tuple matches the (fully bound) key.
    // index_columns covers every position for negated steps, so RegKey
    // is the whole tuple — membership is tested straight off the
    // registers, no key vector.
    bool exists = false;
    if (rel != nullptr && !rel->empty()) {
      if (step.args.empty()) {
        exists = true;  // 0-ary relation holds the empty tuple
      } else {
        ++ws.stats.index_probes;
        exists = rel->ContainsKey(RegKey{&step, ws.regs.data()});
      }
    }
    if (exists) return true;  // this binding fails; keep enumerating
    return Descend(plan, outer, step_idx + 1, ws);
  }
  if (rel == nullptr) return true;

  // Unary membership probe: a bound single argument against an arity-1
  // relation tests one bit (of the full bitset, or the delta bitset Fire
  // built for a delta step 0) instead of a hash-index lookup. The counter
  // shape matches the index path exactly: one probe per binding reaching
  // the step, one matched row per hit (arity-1 dedup means an index group
  // holds at most one row).
  if (step_bits_[step_idx] != nullptr) {
    ++ws.stats.index_probes;
    const ArgSpec& a = step.args[0];
    const Value key =
        a.kind == ArgSpec::Kind::kConst ? a.const_value : ws.regs[a.reg];
    if (!step_bits_[step_idx]->Test(key)) return true;
    if (StrideTripped(ws)) return false;
    ++ws.stats.rows_matched;
    return Descend(plan, outer, step_idx + 1, ws);
  }

  const Relation::View rv = rel->view();
  auto process_row = [&](uint32_t row_id) -> bool {
    if (StrideTripped(ws)) return false;
    std::span<const Value> row = rv.Scan(row_id);
    ++ws.stats.rows_matched;
    // Bind/check arguments; remember which registers this row bound so we
    // can release them before the next row.
    size_t bound_here = 0;
    bool ok = true;
    for (size_t i = 0; i < step.args.size() && ok; ++i) {
      const ArgSpec& a = step.args[i];
      if (a.kind == ArgSpec::Kind::kConst) {
        ok = row[i] == a.const_value;
      } else if (ws.reg_set[a.reg]) {
        ok = row[i] == ws.regs[a.reg];
      } else {
        ws.regs[a.reg] = row[i];
        ws.reg_set[a.reg] = true;
        ++bound_here;
      }
    }
    bool keep_going = true;
    if (ok) {
      if (options_.record_provenance) {
        ws.path.push_back(TupleRef{step.pred, row_id});
      }
      keep_going = Descend(plan, outer, step_idx + 1, ws);
      if (options_.record_provenance) ws.path.pop_back();
    }
    // Unbind: the registers bound by this row are among step.binds
    // (first occurrences); when !ok we may have bound a prefix only, so
    // clear precisely what we set.
    if (bound_here > 0) {
      for (size_t i = 0; i < step.args.size() && bound_here > 0; ++i) {
        const ArgSpec& a = step.args[i];
        if (a.kind == ArgSpec::Kind::kReg && ws.reg_set[a.reg]) {
          for (uint32_t b : step.binds) {
            if (b == a.reg) {
              ws.reg_set[a.reg] = false;
              --bound_here;
              break;
            }
          }
        }
      }
    }
    return keep_going;
  };

  // Step 0 reads the variant's outer range; every later step reads its
  // whole relation.
  if (step.index_columns.empty()) {
    const RowRange range =
        step_idx == 0 ? outer : RowRange{0, static_cast<uint32_t>(rv.size())};
    for (uint32_t row_id = range.lo; row_id < range.hi; ++row_id) {
      if (!process_row(row_id)) return false;
    }
    return true;
  }
  const Relation::Index& index = *step_indexes_[step_idx];
  ++ws.stats.index_probes;
  const Relation::RowIdList* ids =
      index.LookupKey(RegKey{&step, ws.regs.data()});
  if (ids == nullptr) return true;
  auto it = ids->begin();
  auto end = ids->end();
  if (step_idx == 0) {
    // Row ids are appended in increasing order; binary-search the range.
    it = std::lower_bound(it, end, outer.lo);
    end = std::lower_bound(it, end, outer.hi);
  }
  for (; it != end; ++it) {
    if (!process_row(*it)) return false;
  }
  return true;
}

}  // namespace exdl
