// Join executor: runs the rule variants of one fixpoint round (DESIGN.md
// §5a, §14). Internal to src/eval.
//
// The evaluator's fixpoint loop (evaluator.cc) hands the executor a plan
// and the row range step 0 reads; it gets back buffered derivations plus
// their join counters in the RoundBuffer, which it flushes at the round
// boundary. In between, the executor resolves each step's relation, hash
// index or bitset, splits the outer range into partitions over the worker
// pool, and runs every partition through the generic descent
// (join_executor.cc) or, for bitset-eligible plans, the word-wise kernels
// (bitset_kernels.cc).
// Partitions drain in order, so results match a serial run byte for byte.
// The per-row helpers below (head emission, stride and derivation-budget
// checks) are inline so both .cc files inline them in their loops.

#ifndef EXDL_EVAL_JOIN_EXECUTOR_H_
#define EXDL_EVAL_JOIN_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "obs/telemetry.h"
#include "util/worker_pool.h"

namespace exdl {

using Clock = std::chrono::steady_clock;

struct RowRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool empty() const { return lo >= hi; }
};

/// A buffered derivation: head tuple awaiting end-of-round flush (so that
/// index row-id lists are never mutated while being iterated). The tuple's
/// values live in the owning buffer's flat value arena — emitting a fact
/// allocates nothing beyond amortized vector growth.
struct PendingFact {
  PredId pred;
  size_t begin;     ///< Offset of the first tuple in the owner's value arena.
  uint32_t len;     ///< Tuple arity.
  uint32_t rule;    ///< Firing rule index (telemetry attribution at flush).
  /// Number of consecutive tuples (stride `len`) this entry covers. The
  /// bitset kernels emit all of a variant's derivations with one pred /
  /// len / rule and no provenance, so they extend one run instead of
  /// buffering a fact per derivation; the generic descent always uses 1.
  uint32_t count = 1;
  Provenance prov;  ///< Only filled when recording provenance.
};

/// What the executor hands back for one round: the derivations of every
/// variant fired so far, in variant/partition order, and the join
/// counters (rule_firings, index_probes, rows_matched) they cost.
struct RoundBuffer {
  std::vector<PendingFact> facts;
  std::vector<Value> values;  ///< Arena backing facts' tuples.
  EvalStats stats;
  uint64_t words_scanned = 0;  ///< Bitset-kernel words read.
  /// A variant stayed inline because its delta was under the pool
  /// threshold (counted in eval.pool.skipped_rounds).
  bool pool_skipped = false;
};

/// Key view over a literal's index columns resolved against a register
/// file (see HashKeyView): constants come from the plan, the rest from
/// `regs`. Lets index probes and anti-join membership tests hash directly
/// from the evaluator's registers with no key materialization.
struct RegKey {
  const LiteralStep* step;
  const Value* regs;
  size_t size() const { return step->index_columns.size(); }
  Value operator[](size_t i) const {
    const ArgSpec& a = step->args[step->index_columns[i]];
    return a.kind == ArgSpec::Kind::kConst ? a.const_value : regs[a.reg];
  }
};

/// One pre-resolved unary membership test of a bitset-kernel variant:
/// which bitset to test, with what key, positive or anti-join. `active`
/// is false for negated steps over absent/empty relations (the test
/// passes for every row and counts no probe, matching the generic path).
struct BitProbe {
  const UnaryBitset* bits = nullptr;
  bool negated = false;
  bool active = true;
  bool const_key = false;
  Value key_const = 0;
  uint32_t key_reg = 0;
};

/// Per-partition evaluation state. Partition w of a variant runs on
/// states_[w] (a serial variant is partition 0); buffers are drained in
/// partition order, so the flushed insertion order — and therefore every
/// row id, relation, and answer — matches serial evaluation exactly.
struct DescentState {
  std::vector<Value> regs;
  std::vector<char> reg_set;
  std::vector<TupleRef> path;  ///< Provenance spine (serial only).
  EvalStats stats;
  std::vector<PendingFact> buffer;
  std::vector<Value> values;  ///< Flat arena backing buffer's tuples.
  /// Rows processed since the last cooperative budget check (governed
  /// evaluation only; see JoinExecutor::kBudgetCheckStride).
  uint32_t rows_since_check = 0;
  /// Index into `buffer` of the kernel emission run currently being
  /// extended, or SIZE_MAX when none is open (see PendingFact::count).
  size_t open_run = static_cast<size_t>(-1);
  /// 64-bit words read by the bitset kernels on this partition
  /// (storage.representation.words_scanned after the drain).
  uint64_t words_scanned = 0;
  /// Bitset-kernel scratch: the surviving-values mask of the current
  /// all-unary variant partition (reused across variants; sized to the
  /// outer relation's bitset).
  std::vector<uint64_t> mask;
  /// This partition's private metrics shard (null when telemetry is off).
  /// Written only by the thread running the partition, merged at round
  /// boundaries.
  obs::MetricsShard* shard = nullptr;
};

/// Begin-on-construct / end-on-destruct trace span that collapses to two
/// null checks when telemetry is off.
struct SpanGuard {
  SpanGuard(obs::Telemetry* t, std::string name) {
    if (t != nullptr) {
      trace = &t->trace();
      id = trace->Begin(std::move(name));
    }
  }
  /// "<prefix><n>" ("round:3"); the name is built only with telemetry on.
  SpanGuard(obs::Telemetry* t, const char* prefix, uint64_t n)
      : SpanGuard(t, t != nullptr ? prefix + std::to_string(n)
                                  : std::string()) {}
  ~SpanGuard() {
    if (trace != nullptr) trace->End(id);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  obs::Trace* trace = nullptr;
  obs::SpanId id = obs::kDroppedSpan;
};

/// Telemetry sink pointers and pre-registered metric ids (t == null
/// means telemetry is off and every site is a never-taken branch).
struct EvalObs {
  obs::Telemetry* t = nullptr;
  obs::MetricsRegistry* m = nullptr;
  obs::MetricId firings = 0;
  obs::MetricId probes = 0;
  obs::MetricId rows = 0;
  obs::MetricId rounds_counter = 0;
  obs::MetricId round_growth_hist = 0;
  obs::MetricId round_seconds_hist = 0;
  obs::MetricId tuples_gauge = 0;
  obs::MetricId arena_bytes_gauge = 0;
  obs::MetricId rehashes_gauge = 0;
  obs::MetricId checkpoint_writes = 0;
  obs::MetricId checkpoint_bytes = 0;
  obs::MetricId checkpoint_seconds_hist = 0;
  obs::MetricId pool_skipped_rounds = 0;
  obs::MetricId rep_bitset_relations_gauge = 0;
  obs::MetricId rep_words_scanned = 0;
  obs::MetricId rep_fallbacks = 0;
  /// Indexed by rule index (== CompiledRule::rule_index).
  std::vector<obs::MetricId> rule_derived;
  std::vector<obs::MetricId> rule_duplicates;
  std::vector<obs::MetricId> rule_firings;
  std::vector<obs::MetricId> rule_probes;
  /// Indexed by BudgetKind value; [0] (kNone) unused.
  obs::MetricId trip_counters[6] = {};
};

/// Budget trip state, shared by the fixpoint loop (round-boundary checks)
/// and the executor (per-row checks, possibly on pool threads). `kind`
/// holds the first BudgetKind that fired (0 = none); `round_derivations`
/// counts head tuples buffered in the current round (used only when
/// max_derivations_per_round is set).
struct BudgetTrip {
  explicit BudgetTrip(const EvalBudget& b) : budget(b), governed(b.any()) {}

  const EvalBudget& budget;
  const bool governed;
  Clock::time_point deadline;
  std::atomic<uint32_t> kind{0};
  std::atomic<uint64_t> round_derivations{0};

  bool Tripped() const { return kind.load(std::memory_order_relaxed) != 0; }

  /// Records the first budget trip; later trips lose the race and keep
  /// the original reason. Safe from any worker thread.
  void Trip(BudgetKind k) {
    uint32_t expected = 0;
    kind.compare_exchange_strong(expected, static_cast<uint32_t>(k),
                                 std::memory_order_relaxed);
  }

  /// Trips on cancellation or an expired deadline — the budgets that can
  /// fire between round boundaries. Returns true if tripped.
  bool CheckInterrupt() {
    if (budget.cancellation != nullptr && budget.cancellation->cancelled()) {
      Trip(BudgetKind::kCancelled);
    } else if (budget.deadline_ms != 0 && Clock::now() >= deadline) {
      Trip(BudgetKind::kDeadline);
    }
    return Tripped();
  }

  /// Counts one head derivation against max_derivations_per_round.
  /// Returns true (after tripping) when the budget is exhausted and the
  /// derivation must not be buffered.
  bool RoundDerivationsTripped() {
    const uint64_t cap = budget.max_derivations_per_round;
    if (cap == 0 ||
        round_derivations.fetch_add(1, std::memory_order_relaxed) < cap) {
      return false;
    }
    Trip(BudgetKind::kRoundDerivations);
    return true;
  }
};

class JoinExecutor {
 public:
  /// `obs` must hold every metric already: the partitions' metric shards
  /// are created here, and a shard's cell layout is fixed at creation.
  JoinExecutor(const EvalOptions& options, BudgetTrip& trip,
               const EvalObs& obs);

  /// Fires one rule variant running `plan` over `db`. Step 0 reads
  /// `delta` (a semi-naive delta suffix of its relation) or, for round 0
  /// and naive rounds (nullopt), its whole relation. Every later step
  /// reads its whole relation: relations only grow at the end-of-round
  /// flush, so that is the pre-round database. With `stop_after_first` (a
  /// single-tuple head under the boolean cut) the first derivation ends
  /// the variant. Derivations and counters land in round(); the error is
  /// an injected pool-dispatch fault, after which the variant ran nothing.
  Status Fire(const Database& db, const RulePlan& plan, size_t rule_index,
              bool stop_after_first, std::optional<RowRange> delta);

  RoundBuffer& round() { return round_; }

  /// Folds every partition shard into the registry. Owner thread only,
  /// at quiescent points (round boundaries / end of run).
  void MergeShards();

 private:
  /// Minimum outer rows per worker before a variant is worth splitting.
  static constexpr uint32_t kMinRowsPerWorker = 64;
  /// Default EvalOptions::pool_min_delta_rows when neither the option nor
  /// EXDL_POOL_MIN_DELTA_ROWS supplies one.
  static constexpr uint32_t kDefaultPoolMinDeltaRows = 4096;
  /// Rows between cooperative deadline/cancellation checks inside a round
  /// (per partition, so each pool worker checks independently).
  static constexpr uint32_t kBudgetCheckStride = 1024;

  uint32_t ResolvePoolMinDeltaRows() const;
  uint32_t NumWorkers(const RulePlan& plan, RowRange outer) const;
  /// Runs partition `part` of the current variant on `ws`: the serial
  /// path calls it inline for partition 0, the pool once per partition.
  void RunPartition(const RulePlan& plan, RowRange part, bool kernel,
                    DescentState& ws);
  bool Descend(const RulePlan& plan, RowRange outer, size_t step_idx,
               DescentState& ws);
  void Drain(DescentState& ws);

  // Bitset kernels (bitset_kernels.cc).
  bool PrepareBitsetVariant(const RulePlan& plan);
  void RunShapeA(const RulePlan& plan, RowRange outer, DescentState& ws);
  void RunShapeB(const RulePlan& plan, RowRange outer, DescentState& ws);

  /// Mid-round check, counted per partition: every kBudgetCheckStride
  /// rows of a governed evaluation, poll cancellation and the deadline
  /// (tuple/byte totals move at flush time only). Returns true if this
  /// partition should stop enumerating.
  bool StrideTripped(DescentState& ws) {
    if (!trip_.governed || ++ws.rows_since_check < kBudgetCheckStride) {
      return false;
    }
    ws.rows_since_check = 0;
    return trip_.Tripped() || trip_.CheckInterrupt();
  }

  /// Buffers one head derivation from the register file. The descent
  /// buffers a fact per derivation, with its provenance spine when
  /// recorded; the kernels (`extend_run`) extend one run per partition,
  /// since their emissions share pred/len/rule and sit contiguously in
  /// ws.values. Returns false when the per-round derivation budget
  /// tripped and the partition must stop.
  bool EmitHead(const RulePlan& plan, DescentState& ws, bool extend_run) {
    if (trip_.RoundDerivationsTripped()) return false;
    ++ws.stats.rule_firings;
    if (extend_run && ws.open_run != static_cast<size_t>(-1)) {
      ++ws.buffer[ws.open_run].count;
    } else {
      if (extend_run) ws.open_run = ws.buffer.size();
      PendingFact& fact = ws.buffer.emplace_back();
      fact.pred = plan.head_pred;
      fact.begin = ws.values.size();
      fact.len = static_cast<uint32_t>(plan.head_args.size());
      fact.rule = static_cast<uint32_t>(rule_index_);
      if (options_.record_provenance) {
        fact.prov.rule_index = static_cast<int>(rule_index_);
        fact.prov.children = ws.path;
      }
    }
    for (const ArgSpec& a : plan.head_args) {
      ws.values.push_back(a.kind == ArgSpec::Kind::kConst ? a.const_value
                                                          : ws.regs[a.reg]);
    }
    return true;
  }

  const EvalOptions& options_;
  BudgetTrip& trip_;
  const EvalObs& obs_;
  /// Resolved pool-skip threshold (see ResolvePoolMinDeltaRows).
  const uint32_t pool_min_delta_rows_;
  RoundBuffer round_;
  /// Partition shards and states, one per num_threads partition.
  std::vector<obs::MetricsShard> shards_;
  std::vector<DescentState> states_;
  /// The current variant: its rule, the boolean-cut flag, and each body
  /// step's relation, resolved index, and (for unary membership steps)
  /// bitset — full relation bits, or delta_bits_scratch_ when step 0
  /// reads a semi-naive delta suffix. Read-only to the pool workers for
  /// the variant's duration.
  size_t rule_index_ = 0;
  bool stop_after_first_ = false;
  std::vector<const Relation*> step_rels_;
  std::vector<const Relation::Index*> step_indexes_;
  std::vector<const UnaryBitset*> step_bits_;
  UnaryBitset delta_bits_scratch_;
  /// Per-variant bitset-kernel probe descriptors, split around the binary
  /// probe step.
  std::vector<BitProbe> pre_probes_;
  std::vector<BitProbe> post_probes_;
  /// Created on the first parallel variant and reused across rounds
  /// (thread spawns would dominate small rounds). Declared last: its
  /// threads use the members above.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace exdl

#endif  // EXDL_EVAL_JOIN_EXECUTOR_H_
