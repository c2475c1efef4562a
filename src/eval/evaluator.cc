#include "eval/evaluator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/stratification.h"
#include "eval/join_executor.h"
#include "recovery/fault.h"

namespace exdl {

namespace {

std::string FormatMillis(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

}  // namespace

std::string_view BudgetKindName(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::kNone: return "none";
    case BudgetKind::kDeadline: return "deadline";
    case BudgetKind::kTuples: return "tuples";
    case BudgetKind::kArenaBytes: return "arena_bytes";
    case BudgetKind::kRoundDerivations: return "round_derivations";
    case BudgetKind::kCancelled: return "cancelled";
  }
  return "?";
}

EvalBudget EvalBudget::FromFlags(uint64_t deadline_ms, uint64_t max_tuples,
                                 uint64_t max_arena_bytes,
                                 const CancellationToken* cancellation) {
  EvalBudget b;
  b.deadline_ms = deadline_ms;
  b.max_tuples = max_tuples;
  b.max_arena_bytes = max_arena_bytes;
  b.cancellation = cancellation;
  return b;
}

EvalBudget EvalBudget::FromEnv(EvalBudget base) {
  auto env_u64 = [](const char* name) -> uint64_t {
    const char* v = std::getenv(name);
    return v == nullptr ? 0 : std::strtoull(v, nullptr, 10);
  };
  if (base.deadline_ms == 0) {
    base.deadline_ms = env_u64("EXDL_BUDGET_DEADLINE_MS");
  }
  if (base.max_tuples == 0) base.max_tuples = env_u64("EXDL_BUDGET_MAX_TUPLES");
  if (base.max_arena_bytes == 0) {
    base.max_arena_bytes = env_u64("EXDL_BUDGET_MAX_ARENA_BYTES");
  }
  return base;
}

EvalStats& EvalStats::operator+=(const EvalStats& o) {
  rounds += o.rounds;
  rule_firings += o.rule_firings;
  tuples_inserted += o.tuples_inserted;
  duplicate_inserts += o.duplicate_inserts;
  index_probes += o.index_probes;
  rows_matched += o.rows_matched;
  rules_retired += o.rules_retired;
  eval_seconds += o.eval_seconds;
  max_round_seconds = std::max(max_round_seconds, o.max_round_seconds);
  if (o.budget_tripped != BudgetKind::kNone) budget_tripped = o.budget_tripped;
  return *this;
}

std::string EvalStats::ToString() const {
  std::string out;
  out += "rounds=" + std::to_string(rounds);
  out += " firings=" + std::to_string(rule_firings);
  out += " inserted=" + std::to_string(tuples_inserted);
  out += " duplicates=" + std::to_string(duplicate_inserts);
  out += " probes=" + std::to_string(index_probes);
  out += " rows=" + std::to_string(rows_matched);
  out += " retired=" + std::to_string(rules_retired);
  out += " eval_ms=" + FormatMillis(eval_seconds);
  out += " max_round_ms=" + FormatMillis(max_round_seconds);
  if (budget_tripped != BudgetKind::kNone) {
    out += " budget_tripped=";
    out += BudgetKindName(budget_tripped);
  }
  return out;
}

namespace {

using SizeMap = std::unordered_map<PredId, uint32_t>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Key view over an all-constant argument list (single-tuple heads).
struct ConstArgsKey {
  const std::vector<ArgSpec>* args;
  size_t size() const { return args->size(); }
  Value operator[](size_t i) const { return (*args)[i].const_value; }
};

/// The fixpoint loop: strata, rounds, budgets, checkpoints, the
/// boolean cut, telemetry set-up, and the flush of the executor's round
/// buffer into the database.
class Engine {
 public:
  Engine(const Program& program, const EvalOptions& options)
      : program_(program), options_(options), trip_(options.budget) {}

  Result<EvalResult> Run(const Database& input) { return RunOwned(input.Clone()); }

  /// Evaluates on `input` itself (by value: the caller either moved it in
  /// or paid for the Clone in Run above). Keeping the worked-on database
  /// uniquely owned means inserts never trigger a copy-on-write payload
  /// detach — the property standing-query maintenance depends on.
  Result<EvalResult> RunOwned(Database input) {
    eval_begin_ = Clock::now();
    EXDL_RETURN_IF_ERROR(Compile());
    SetupObs();
    exec_.emplace(options_, trip_, obs_);
    SpanGuard eval_span(obs_.t, "eval");
    EvalResult result;
    result.db = std::move(input);
    db_ = &result.db;

    if (options_.budget.deadline_ms != 0) {
      trip_.deadline = eval_begin_ +
                       std::chrono::milliseconds(options_.budget.deadline_ms);
    }

    // Make sure head relations exist so sizes/deltas are well defined.
    for (const CompiledRule& cr : rules_) {
      db_->GetOrCreate(cr.plan.head_pred,
                       static_cast<uint32_t>(cr.plan.head_args.size()));
    }
    // Size snapshot, maintained incrementally by Flush from here on.
    sizes_.clear();
    total_tuples_ = 0;
    arena_bytes_ = 0;
    for (const auto& [pred, rel] : db_->relations()) {
      sizes_[pred] = static_cast<uint32_t>(rel.size());
      total_tuples_ += rel.size();
      arena_bytes_ += rel.arena_bytes();
    }
    // A resume picks the fixpoint up at the checkpointed stratum's round
    // boundary: completed strata are skipped entirely, counters/retired
    // rules/deadline credit are restored, and the resume stratum re-enters
    // its delta loop with the snapshot's watermarks.
    size_t first_stratum = 0;
    if (options_.resume != nullptr) {
      EXDL_RETURN_IF_ERROR(RestoreCursor());
      first_stratum = options_.resume->stratum;
    }

    // The input alone may already bust a budget (or the token may be
    // pre-cancelled): stop before deriving anything.
    if (trip_.governed) CheckRoundBudgets();

    bool stop = false;
    for (size_t si = first_stratum; si < strata_.size(); ++si) {
      if (stop || trip_.Tripped()) break;
      EXDL_RETURN_IF_ERROR(RunFixpoint(si, &stop));
    }

    // Catch shard contents written since the last round boundary (e.g. the
    // partial work of a discarded round); workers are quiescent here.
    exec_->MergeShards();

    stats_.eval_seconds = resumed_seconds_ + SecondsSince(eval_begin_);
    const BudgetKind trip =
        static_cast<BudgetKind>(trip_.kind.load(std::memory_order_relaxed));
    if (trip != BudgetKind::kNone) {
      stats_.budget_tripped = trip;
      result.termination = TripStatus(trip);
      if (obs_.t != nullptr) {
        obs_.t->trace().Event(std::string("event:budget_trip:") +
                              std::string(BudgetKindName(trip)));
        obs_.m->Add(obs_.trip_counters[static_cast<size_t>(trip)], 1);
      }
    }
    for (const auto& [pred, rel] : db_->relations()) {
      if (rel.arity() == 1) ++rep_stats_.bitset_relations;
    }
    if (obs_.t != nullptr) {
      obs_.m->Set(obs_.tuples_gauge, static_cast<double>(db_->TotalTuples()));
      obs_.m->Set(obs_.arena_bytes_gauge,
                  static_cast<double>(db_->TotalArenaBytes()));
      obs_.m->Set(obs_.rehashes_gauge,
                  static_cast<double>(db_->TotalRehashes()));
      obs_.m->Set(obs_.rep_bitset_relations_gauge,
                  static_cast<double>(rep_stats_.bitset_relations));
      obs_.m->Add(obs_.rep_words_scanned,
                  static_cast<double>(rep_stats_.words_scanned));
      obs_.m->Add(obs_.rep_fallbacks,
                  static_cast<double>(rep_stats_.fallbacks));
    }
    result.stats = stats_;
    result.representation = rep_stats_;
    result.provenance = std::move(provenance_);
    if (program_.query() && !options_.skip_answers) {
      result.answers = ExtractAnswers(*program_.query(), result.db);
      if (program_.query()->IsGround()) {
        result.ground_query_true = !result.answers.empty() || GroundQueryIn();
      }
    }
    return result;
  }

 private:
  struct CompiledRule {
    RulePlan plan;
    size_t rule_index = 0;
    /// Head has no registers (0-ary or all-constant): at most one tuple
    /// can ever be derived, so the first witness suffices (Section 3.1's
    /// cut) and the rule can retire once the tuple exists.
    bool single_tuple_head = false;
    /// Main-plan steps that can carry a semi-naive delta, ascending:
    /// positive literals over a predicate that grows in the rule's own
    /// stratum or, on IVM re-entry, over an extra-delta predicate. A delta
    /// round fires one variant per step.
    std::vector<size_t> delta_steps;
    /// Delta-first variant plans, indexed by the MAIN plan's step that the
    /// variant designates as delta. Each is the same rule recompiled with
    /// that literal forced to step 0, so the semi-naive delta variant
    /// scans only the delta suffix and probes the other literals through
    /// indexes — O(delta) per round, not a full outer-relation scan.
    /// Entries for step 0 (already outermost) and for steps outside
    /// delta_steps stay empty.
    std::vector<RulePlan> delta_plans;

    /// The plan of the semi-naive variant whose delta is main-plan step
    /// `main_step`: its delta literal is always step 0.
    const RulePlan& DeltaPlan(size_t main_step) const {
      if (main_step == 0) return plan;
      assert(!delta_plans[main_step].steps.empty());
      return delta_plans[main_step];
    }
  };

  /// Semi-naive (or naive) fixpoint over one stratum's rules. Relations of
  /// lower strata are fixed; only this stratum's head predicates grow.
  Status RunFixpoint(size_t stratum_index, bool* stop) {
    const std::vector<size_t>& rule_indices = strata_[stratum_index];
    SizeMap delta_lo;
    bool round0 = true;
    if (options_.resume != nullptr &&
        stratum_index == options_.resume->stratum) {
      // The checkpoint was cut at a completed round boundary of this
      // stratum (round 0 included): skip straight to the delta loop with
      // the snapshot's watermarks. Predicates absent from the cursor have
      // no delta (watermark == current size).
      round0 = false;
      delta_lo = sizes_;
      for (const auto& [pred, lo] : options_.resume->delta_lo) {
        delta_lo[pred] = lo;
      }
    }
    auto grew = [&](PredId pred) {
      return !DeltaRange(pred, delta_lo).empty();
    };
    for (;; round0 = false) {
      if (!round0) {
        *stop = ShouldStopOnGroundQuery();
        if (*stop) break;
        // Converged when no live rule has a non-empty delta to consume. A
        // predicate can grow without any rule reading it (e.g. the query
        // head); firing a round for it would flush nothing — semi-naive
        // skips that empty trailing round, naive must keep refiring until
        // no head predicate of the stratum grows at all.
        bool any_delta = false;
        for (size_t i : rule_indices) {
          const CompiledRule& cr = rules_[i];
          if (!options_.seminaive) {
            any_delta = grew(cr.plan.head_pred);
          } else if (retired_.count(cr.rule_index) == 0) {
            for (size_t step : cr.delta_steps) {
              any_delta = any_delta || grew(cr.plan.steps[step].pred);
            }
          }
          if (any_delta) break;
        }
        if (!any_delta) break;
        if (options_.max_rounds != 0 &&
            stats_.rounds >= options_.max_rounds) {
          return Status::FailedPrecondition(
              "fixpoint did not converge within max_rounds");
        }
      }
      bool halt = false;
      EXDL_RETURN_IF_ERROR(
          RunRound(stratum_index, round0, rule_indices, delta_lo, &halt));
      if (halt) break;
    }
    return Status::Ok();
  }

  /// One fixpoint round, from its span to the round-boundary hooks. Round
  /// 0 fires every rule of the stratum over the full database; a delta
  /// round fires the live rules' semi-naive delta variants (or, naive,
  /// refires them). sizes_ only changes at FinishRound's flush, so within
  /// a round it IS the pre-round snapshot — variants read it directly, no
  /// copy. Sets *halt when the fixpoint must stop at this boundary: a
  /// mid-round trip (the partial round is discarded, so the database
  /// stays a consistent prefix of the fixpoint) or a tripped budget.
  Status RunRound(size_t stratum_index, bool round0,
                  const std::vector<size_t>& rule_indices, SizeMap& delta_lo,
                  bool* halt) {
    const Clock::time_point round_begin = Clock::now();
    trip_.round_derivations.store(0, std::memory_order_relaxed);
    {
      SpanGuard round_span(obs_.t, "round:", stats_.rounds);
      for (size_t i : rule_indices) {
        const CompiledRule& cr = rules_[i];
        if (!round0 && retired_.count(cr.rule_index) > 0) continue;
        if (round0 || (!options_.seminaive && !cr.delta_steps.empty())) {
          // Round 0, and every naive round, fires over full relations (a
          // rule with no growing body literal can produce nothing new
          // after round 0).
          FireVariant(cr, cr.plan, std::nullopt);
        } else {
          // One variant per delta step: its delta-first plan scans that
          // literal's delta and probes the pre-round database for the
          // others.
          for (size_t step : cr.delta_steps) {
            const RowRange delta =
                DeltaRange(cr.plan.steps[step].pred, delta_lo);
            if (!delta.empty()) FireVariant(cr, cr.DeltaPlan(step), delta);
          }
        }
      }
      if (trip_.Tripped()) {
        EndRound();
        *halt = true;
        return Status::Ok();
      }
      // Advance the watermarks to the pre-flush sizes before FinishRound
      // mutates sizes_.
      for (const auto& [pred, sz] : sizes_) delta_lo[pred] = sz;
      FinishRound(round_begin, round_span.id);
    }
    if (!injected_.ok()) return injected_;
    EXDL_RETURN_IF_ERROR(MaybeCheckpoint(stratum_index, delta_lo));
    *halt = trip_.governed && CheckRoundBudgets();
    return Status::Ok();
  }

  /// Rows [delta_lo[pred], sizes_[pred]) of `pred` — its semi-naive delta
  /// when `delta_lo` holds the round's watermarks. A predicate missing
  /// from either map reads as 0 there.
  RowRange DeltaRange(PredId pred, const SizeMap& delta_lo) const {
    auto size_in = [pred](const SizeMap& sizes) -> uint32_t {
      auto it = sizes.find(pred);
      return it == sizes.end() ? 0 : it->second;
    };
    return RowRange{size_in(delta_lo), size_in(sizes_)};
  }

  /// Validates and installs the resume cursor: restores counters, retired
  /// rules, and charges already-spent wall-clock against the deadline
  /// budget. Called after Compile, before any stratum runs.
  Status RestoreCursor() {
    const EvalCursor& c = *options_.resume;
    if (c.stratum >= strata_.size()) {
      return Status::InvalidArgument(
          "resume cursor stratum out of range for this program");
    }
    for (uint32_t r : c.retired_rules) {
      if (r >= rules_.size()) {
        return Status::InvalidArgument("resume cursor retires unknown rule");
      }
      retired_.insert(r);
    }
    stats_ = c.stats;
    resumed_seconds_ = c.stats.eval_seconds;
    if (options_.budget.deadline_ms != 0) {
      // The deadline budget is for the whole logical evaluation, not this
      // process: shift it back by the time the checkpointed run spent.
      trip_.deadline -= std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(resumed_seconds_));
    }
    return Status::Ok();
  }

  /// Hands the sink a consistent (database, cursor) snapshot every
  /// `checkpoint_every_rounds` completed rounds. Called right after a
  /// round-boundary flush (and after the round span closed, so the
  /// "checkpoint:<round>" span nests directly under "eval"). A sink
  /// failure is a hard error: evaluation fails closed and the sink's last
  /// successful write remains the durable state.
  Status MaybeCheckpoint(size_t stratum_index, const SizeMap& delta_lo) {
    if (options_.checkpoint_sink == nullptr) return Status::Ok();
    const uint32_t every = std::max(1u, options_.checkpoint_every_rounds);
    if (stats_.rounds % every != 0) return Status::Ok();
    SpanGuard span(obs_.t, "checkpoint:", stats_.rounds);
    const Clock::time_point begin = Clock::now();
    EvalCursor cursor;
    cursor.stratum = static_cast<uint32_t>(stratum_index);
    cursor.stats = stats_;
    cursor.stats.eval_seconds = resumed_seconds_ + SecondsSince(eval_begin_);
    cursor.delta_lo.assign(delta_lo.begin(), delta_lo.end());
    std::sort(cursor.delta_lo.begin(), cursor.delta_lo.end());
    cursor.retired_rules.reserve(retired_.size());
    for (size_t r : retired_) {
      cursor.retired_rules.push_back(static_cast<uint32_t>(r));
    }
    std::sort(cursor.retired_rules.begin(), cursor.retired_rules.end());
    Result<uint64_t> bytes =
        options_.checkpoint_sink->Write(program_.ctx(), *db_, cursor);
    if (!bytes.ok()) return bytes.status();
    if (obs_.t != nullptr) {
      obs_.m->Add(obs_.checkpoint_writes, 1);
      obs_.m->Add(obs_.checkpoint_bytes, static_cast<double>(*bytes));
      obs_.m->Observe(obs_.checkpoint_seconds_hist, SecondsSince(begin));
    }
    return Status::Ok();
  }

  /// Round-boundary check of every budget. The database was just flushed,
  /// so tripping here leaves a consistent state. Returns true if tripped.
  bool CheckRoundBudgets() {
    if (trip_.CheckInterrupt()) return true;
    const EvalBudget& b = options_.budget;
    if (b.max_tuples != 0 && total_tuples_ > b.max_tuples) {
      trip_.Trip(BudgetKind::kTuples);
    } else if (b.max_arena_bytes != 0 && arena_bytes_ > b.max_arena_bytes) {
      trip_.Trip(BudgetKind::kArenaBytes);
    }
    return trip_.Tripped();
  }

  /// Empties the executor's round buffer, folding its join counters into
  /// the run's — after the flush, or in its place when a mid-round trip or
  /// an injected fault discards the partial round.
  void EndRound() {
    RoundBuffer& round = exec_->round();
    stats_ += round.stats;
    rep_stats_.words_scanned += round.words_scanned;
    round.stats = EvalStats();
    round.words_scanned = 0;
    round.facts.clear();
    round.values.clear();
    round.pool_skipped = false;
  }

  /// Round tail shared by round 0 and the delta rounds: flush the buffered
  /// derivations, bump round stats, record round telemetry, and merge the
  /// metric shards (the workers are quiescent here).
  void FinishRound(Clock::time_point round_begin, obs::SpanId round_span) {
    // A fault injected earlier in the round (pool dispatch) means some
    // variants never ran: the buffered partial round must not be flushed.
    if (!injected_.ok()) {
      EndRound();
      return;
    }
    // Fault site: arena growth at the flush. An injected failure discards
    // the buffered round and surfaces as a hard kInternal error, leaving
    // the database (and any on-disk checkpoint) at the previous boundary.
    if (FaultPlan::Global().armed() &&
        FaultPlan::Global().ShouldFail("storage.arena_grow")) {
      injected_ = Status::Internal("injected fault at storage.arena_grow");
      EndRound();
      return;
    }
    // At least one variant this round stayed inline because its delta was
    // under the pool threshold (the metric is how EXPERIMENTS.md E1 shows
    // the gate firing on the chain workloads).
    if (exec_->round().pool_skipped && obs_.t != nullptr) {
      obs_.m->Add(obs_.pool_skipped_rounds, 1);
    }
    const uint64_t inserted_before = stats_.tuples_inserted;
    Flush();
    ++stats_.rounds;
    const double secs = SecondsSince(round_begin);
    stats_.max_round_seconds = std::max(stats_.max_round_seconds, secs);
    ApplyBooleanCut();
    if (obs_.t != nullptr) {
      const uint64_t grew = stats_.tuples_inserted - inserted_before;
      obs_.m->Add(obs_.rounds_counter, 1);
      obs_.m->Observe(obs_.round_growth_hist, static_cast<double>(grew));
      obs_.m->Observe(obs_.round_seconds_hist, secs);
      obs_.t->trace().SetAttr(round_span, "inserted",
                              static_cast<double>(grew));
      exec_->MergeShards();
    }
  }

  /// Registers the evaluator's metrics. Everything must be registered
  /// before the executor creates its partition shards (a shard's cell
  /// layout is fixed at creation).
  void SetupObs() {
    obs_.t = options_.telemetry;
    if (obs_.t == nullptr) return;
    obs::MetricsRegistry& m = obs_.t->metrics();
    obs_.m = &m;
    obs_.firings = m.Counter("eval.rule_firings");
    obs_.probes = m.Counter("eval.index_probes");
    obs_.rows = m.Counter("eval.rows_matched");
    obs_.rounds_counter = m.Counter("eval.rounds");
    obs_.round_growth_hist = m.Histogram(
        "eval.round.tuples_inserted",
        {0, 1, 10, 100, 1000, 10000, 100000, 1000000});
    obs_.round_seconds_hist = m.Histogram(
        "eval.round.seconds", {0.0001, 0.001, 0.01, 0.1, 1, 10});
    obs_.tuples_gauge = m.Gauge("storage.tuples");
    obs_.arena_bytes_gauge = m.Gauge("storage.arena_bytes");
    obs_.rehashes_gauge = m.Gauge("storage.rehashes");
    obs_.checkpoint_writes = m.Counter("eval.checkpoint.writes");
    obs_.checkpoint_bytes = m.Counter("eval.checkpoint.bytes");
    obs_.checkpoint_seconds_hist = m.Histogram(
        "eval.checkpoint.seconds", {0.0001, 0.001, 0.01, 0.1, 1, 10});
    obs_.pool_skipped_rounds = m.Counter("eval.pool.skipped_rounds");
    obs_.rep_bitset_relations_gauge =
        m.Gauge("storage.representation.bitset_relations");
    obs_.rep_words_scanned = m.Counter("storage.representation.words_scanned");
    obs_.rep_fallbacks = m.Counter("storage.representation.fallbacks");
    for (size_t k = 1; k <= static_cast<size_t>(BudgetKind::kCancelled);
         ++k) {
      obs_.trip_counters[k] = m.Counter(
          "eval.budget_trips",
          {{"kind",
            std::string(BudgetKindName(static_cast<BudgetKind>(k)))}});
    }
    const size_t n = rules_.size();
    obs_.rule_derived.resize(n);
    obs_.rule_duplicates.resize(n);
    obs_.rule_firings.resize(n);
    obs_.rule_probes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      obs_.rule_derived[i] = m.Counter("eval.rule.derived", LabelSetOf(i));
      obs_.rule_duplicates[i] =
          m.Counter("eval.rule.duplicates", LabelSetOf(i));
      obs_.rule_firings[i] = m.Counter("eval.rule.firings", LabelSetOf(i));
      obs_.rule_probes[i] = m.Counter("eval.rule.probes", LabelSetOf(i));
    }
  }

  static obs::LabelSet LabelSetOf(size_t rule_index) {
    return {{"rule", std::to_string(rule_index)}};
  }

  /// The structured error describing a trip, with progress attached.
  Status TripStatus(BudgetKind kind) const {
    std::string progress = " after " + std::to_string(stats_.rounds) +
                           " round(s), " +
                           std::to_string(stats_.tuples_inserted) +
                           " tuple(s) inserted";
    switch (kind) {
      case BudgetKind::kCancelled:
        return Status::Cancelled("evaluation cancelled" + progress);
      case BudgetKind::kDeadline:
        return Status::DeadlineExceeded(
            "deadline of " + std::to_string(options_.budget.deadline_ms) +
            " ms exceeded" + progress);
      case BudgetKind::kTuples:
        return Status::ResourceExhausted(
            "tuple budget of " + std::to_string(options_.budget.max_tuples) +
            " exceeded" + progress);
      case BudgetKind::kArenaBytes:
        return Status::ResourceExhausted(
            "arena byte budget of " +
            std::to_string(options_.budget.max_arena_bytes) + " exceeded" +
            progress);
      case BudgetKind::kRoundDerivations:
        return Status::ResourceExhausted(
            "per-round derivation budget of " +
            std::to_string(options_.budget.max_derivations_per_round) +
            " exceeded" + progress);
      case BudgetKind::kNone:
        break;
    }
    return Status::Ok();
  }

  /// Plans every rule and its delta-first variants, and groups the rules
  /// by stratum (one stratum unless negation forces more).
  Status Compile() {
    Stratification st;
    if (program_.HasNegation()) {
      EXDL_ASSIGN_OR_RETURN(st, Stratify(program_));
    }
    strata_.resize(static_cast<size_t>(st.num_strata));
    // Head predicates, deduplicated — a handful, so a flat vector beats a
    // hash set on this per-evaluation path.
    auto contains = [](const std::vector<PredId>& preds, PredId p) {
      return std::find(preds.begin(), preds.end(), p) != preds.end();
    };
    std::vector<PredId> heads;
    heads.reserve(program_.rules().size());
    for (const Rule& r : program_.rules()) {
      if (!contains(heads, r.head.pred)) heads.push_back(r.head.pred);
    }
    rules_.reserve(program_.rules().size());
    for (size_t i = 0; i < program_.rules().size(); ++i) {
      EXDL_ASSIGN_OR_RETURN(RulePlan plan,
                            CompileRule(program_.rules()[i], options_.plan));
      CompiledRule cr;
      cr.plan = std::move(plan);
      cr.rule_index = i;
      const int stratum = st.StratumOf(cr.plan.head_pred);
      strata_[static_cast<size_t>(stratum)].push_back(i);
      cr.single_tuple_head = true;
      for (const ArgSpec& a : cr.plan.head_args) {
        if (a.kind == ArgSpec::Kind::kReg) cr.single_tuple_head = false;
      }
      // A rule the kernels cannot take (ineligible plan shape, or
      // provenance forcing the generic descent) is a fallback.
      if (!cr.plan.bitset_eligible || options_.record_provenance) {
        ++rep_stats_.fallbacks;
      }
      // Delta steps, each past step 0 with its delta-first plan under
      // semi-naive evaluation. Forcing a positive literal first only
      // binds variables earlier, so it compiles wherever the main plan
      // did: a failure is an engine bug, not a plan to fall back from.
      cr.delta_plans.resize(cr.plan.steps.size());
      for (size_t s = 0; s < cr.plan.steps.size(); ++s) {
        const LiteralStep& step = cr.plan.steps[s];
        const bool grows = contains(heads, step.pred) &&
                           st.StratumOf(step.pred) == stratum;
        if (step.negated ||
            (!grows && !contains(options_.extra_delta_preds, step.pred))) {
          continue;
        }
        cr.delta_steps.push_back(s);
        if (s == 0 || !options_.seminaive) continue;
        PlanOptions delta_opts = options_.plan;
        delta_opts.first_body_position = step.body_position;
        Result<RulePlan> delta_plan =
            CompileRule(program_.rules()[i], delta_opts);
        if (!delta_plan.ok()) {
          return Status::Internal("delta-first plan of rule " +
                                  std::to_string(i) + " failed: " +
                                  delta_plan.status().ToString());
        }
        cr.delta_plans[s] = std::move(*delta_plan);
      }
      rules_.push_back(std::move(cr));
    }
    return Status::Ok();
  }

  /// Hands one rule variant to the executor (see JoinExecutor::Fire).
  void FireVariant(const CompiledRule& cr, const RulePlan& plan,
                   std::optional<RowRange> delta) {
    // Budget blown or fault pending: finish the round fast.
    if (trip_.Tripped() || !injected_.ok()) return;
    // Existence short-circuit (Section 3.1): a single-tuple head needs one
    // witness ever; skip entirely once the tuple exists.
    const bool stop_after_first = options_.boolean_cut && cr.single_tuple_head;
    if (stop_after_first && HeadDerived(cr)) return;
    injected_ = exec_->Fire(*db_, plan, cr.rule_index, stop_after_first, delta);
  }

  void Flush() {
    RoundBuffer& round = exec_->round();
    for (PendingFact& f : round.facts) {
      // Each entry is a run of f.count tuples (stride f.len) from one
      // rule into one relation; the generic descent buffers runs of 1,
      // kernels one run per partition. Resolve the relation and fold the
      // per-rule telemetry once per run, insert per tuple.
      Relation& rel = db_->GetOrCreate(f.pred, f.len);
      const Value* base = round.values.data() + f.begin;
      const bool unary = f.len == 1;
      // Pre-size the arena for kernel runs. Unary only: Reserve on wider
      // relations also pre-sizes the dedup table, which would make the
      // storage.rehashes gauge depend on kernel versus descent.
      if (unary && f.count > 1) rel.Reserve(rel.size() + f.count);
      uint64_t inserted = 0;
      for (uint32_t i = 0; i < f.count; ++i) {
        const Value* row = base + static_cast<size_t>(i) * f.len;
        const bool was_new =
            unary ? rel.InsertUnary(*row)
                  : rel.Insert(std::span<const Value>(row, f.len));
        if (was_new) {
          ++inserted;
          if (options_.record_provenance) {
            uint32_t row_id = static_cast<uint32_t>(rel.size() - 1);
            provenance_.emplace(TupleRef{f.pred, row_id}, std::move(f.prov));
          }
        }
        if (options_.support_sink != nullptr) {
          options_.support_sink->Derived(
              f.pred, std::span<const Value>(row, f.len), was_new);
        }
      }
      if (inserted > 0) {
        stats_.tuples_inserted += inserted;
        sizes_[f.pred] = static_cast<uint32_t>(rel.size());
        total_tuples_ += inserted;
        arena_bytes_ += inserted * f.len * sizeof(Value);
      }
      stats_.duplicate_inserts += f.count - inserted;
      if (obs_.t != nullptr) {
        if (inserted > 0) obs_.m->Add(obs_.rule_derived[f.rule], inserted);
        if (f.count > inserted) {
          obs_.m->Add(obs_.rule_duplicates[f.rule], f.count - inserted);
        }
      }
    }
    EndRound();
  }

  /// True once the single possible head tuple of a single-tuple-head rule
  /// exists.
  bool HeadDerived(const CompiledRule& cr) const {
    const Relation* rel = db_->Find(cr.plan.head_pred);
    return rel != nullptr &&
           rel->ContainsKey(ConstArgsKey{&cr.plan.head_args});
  }

  /// Retires rules whose single possible head tuple (0-ary or
  /// all-constant heads) has been derived (Section 3.1's runtime cut).
  void ApplyBooleanCut() {
    if (!options_.boolean_cut) return;
    for (const CompiledRule& cr : rules_) {
      if (!cr.single_tuple_head || retired_.count(cr.rule_index) > 0) {
        continue;
      }
      if (HeadDerived(cr)) {
        retired_.insert(cr.rule_index);
        ++stats_.rules_retired;
      }
    }
  }

  bool GroundQueryIn() const {
    const Atom& q = *program_.query();
    const Relation* rel = db_->Find(q.pred);
    if (rel == nullptr) return false;
    std::vector<Value> row;
    row.reserve(q.args.size());
    for (const Term& t : q.args) row.push_back(t.id());
    return rel->Contains(row);
  }

  bool ShouldStopOnGroundQuery() const {
    if (!options_.stop_on_ground_query) return false;
    if (!program_.query() || !program_.query()->IsGround()) return false;
    return GroundQueryIn();
  }

  const Program& program_;
  const EvalOptions& options_;
  Database* db_ = nullptr;
  std::vector<CompiledRule> rules_;
  std::vector<std::vector<size_t>> strata_;  ///< Rule indices per stratum.
  std::unordered_set<size_t> retired_;
  EvalStats stats_;
  RepresentationStats rep_stats_;
  SizeMap sizes_;  ///< Relation sizes, kept current by Flush.
  /// Budget state, shared with the executor. total_tuples_/arena_bytes_
  /// mirror the database and are maintained by Flush.
  BudgetTrip trip_;
  uint64_t total_tuples_ = 0;
  uint64_t arena_bytes_ = 0;
  Clock::time_point eval_begin_;
  /// Wall-clock already spent by the checkpointed run being resumed
  /// (0 for a fresh evaluation); folded into eval_seconds and the
  /// deadline budget.
  double resumed_seconds_ = 0;
  /// First injected-fault error of this evaluation; non-OK aborts the run
  /// as a hard error right after the current round is discarded.
  Status injected_;
  std::unordered_map<TupleRef, Provenance, TupleRefHash> provenance_;
  EvalObs obs_;
  /// Created once obs_ is set up (the executor sizes its metric shards).
  std::optional<JoinExecutor> exec_;
};

}  // namespace

Result<EvalResult> Evaluate(const Program& program, const Database& input,
                            const EvalOptions& options) {
  Engine engine(program, options);
  return engine.Run(input);
}

Result<EvalResult> Evaluate(const Program& program, Database&& input,
                            const EvalOptions& options) {
  Engine engine(program, options);
  return engine.RunOwned(std::move(input));
}

std::vector<std::vector<Value>> ExtractAnswers(const Atom& query,
                                               const Database& db,
                                               size_t first_row) {
  std::vector<std::vector<Value>> out;
  const Relation* rel = db.Find(query.pred);
  if (rel == nullptr || first_row >= rel->size()) return out;
  // Distinct variables in first-occurrence order are the answer columns.
  std::vector<SymbolId> vars;
  query.CollectVars(&vars);
  std::unordered_map<SymbolId, size_t> var_col;
  for (size_t i = 0; i < vars.size(); ++i) var_col[vars[i]] = i;

  const Relation::View view = rel->view();

  // Identity projection: every argument a distinct variable means each
  // stored row IS an answer, already distinct (the relation deduplicates).
  // Copy and sort — no per-row hash-set membership. This is the common
  // query shape and most of ExtractAnswers' cost on large answer sets.
  if (vars.size() == query.args.size() &&
      query.args.size() == rel->arity()) {
    if (rel->arity() == 1) {
      // Monadic: sort the flat value column, then materialize — the sort
      // compares machine words instead of heap-backed vectors.
      std::span<const Value> raw = view.Raw().subspan(first_row);
      std::vector<Value> flat(raw.begin(), raw.end());
      std::sort(flat.begin(), flat.end());
      out.reserve(flat.size());
      for (Value v : flat) out.emplace_back(1, v);
      return out;
    }
    out.reserve(rel->size() - first_row);
    for (size_t r = first_row; r < rel->size(); ++r) {
      std::span<const Value> row = view.Scan(r);
      out.emplace_back(row.begin(), row.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unordered_set<std::vector<Value>, ValueVecHash> seen;
  seen.reserve(rel->size() - first_row);
  out.reserve(rel->size() - first_row);
  // One scratch answer reused across rows; only kept answers are copied.
  std::vector<Value> answer(vars.size(), 0);
  std::vector<char> set(vars.size(), 0);
  for (size_t r = first_row; r < rel->size(); ++r) {
    std::span<const Value> row = view.Scan(r);
    std::fill(answer.begin(), answer.end(), 0);
    std::fill(set.begin(), set.end(), 0);
    bool ok = true;
    for (size_t i = 0; i < query.args.size() && ok; ++i) {
      const Term& t = query.args[i];
      if (t.IsConst()) {
        ok = row[i] == t.id();
      } else {
        size_t col = var_col[t.id()];
        if (set[col]) {
          ok = row[i] == answer[col];
        } else {
          answer[col] = row[i];
          set[col] = 1;
        }
      }
    }
    if (ok && seen.insert(answer).second) out.push_back(answer);
  }
  std::sort(out.begin(), out.end());
  return out;
}


namespace {

/// Renders one stored tuple as "pred(a, b)".
std::string RenderTuple(const Program& program, const Database& db,
                        const TupleRef& ref) {
  const Context& ctx = program.ctx();
  std::string out = ctx.PredicateDisplayName(ref.pred);
  const Relation* rel = db.Find(ref.pred);
  if (rel == nullptr || ref.row >= rel->size()) return out + "(?)";
  std::span<const Value> row = rel->view().Scan(ref.row);
  if (row.empty()) return out;
  out += "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += ctx.SymbolName(row[i]);
  }
  out += ")";
  return out;
}

void ExplainRecursive(const Program& program, const EvalResult& result,
                      const TupleRef& ref, int depth, std::string* out) {
  for (int i = 0; i < depth; ++i) *out += "  ";
  *out += RenderTuple(program, result.db, ref);
  auto it = result.provenance.find(ref);
  if (it == result.provenance.end() || it->second.rule_index < 0) {
    *out += "   [input fact]\n";
    return;
  }
  *out += "   [rule " + std::to_string(it->second.rule_index) + "]\n";
  for (const TupleRef& child : it->second.children) {
    ExplainRecursive(program, result, child, depth + 1, out);
  }
}

}  // namespace

Result<std::string> ExplainTuple(const Program& program,
                                 const EvalResult& result,
                                 const TupleRef& tuple) {
  const Relation* rel = result.db.Find(tuple.pred);
  if (rel == nullptr || tuple.row >= rel->size()) {
    return Status::NotFound("tuple reference out of range");
  }
  std::string out;
  ExplainRecursive(program, result, tuple, 0, &out);
  return out;
}

Result<std::string> ExplainFact(const Program& program,
                                const EvalResult& result, PredId pred,
                                std::span<const Value> row) {
  const Relation* rel = result.db.Find(pred);
  if (rel == nullptr) return Status::NotFound("no tuples for predicate");
  const Relation::View view = rel->view();
  for (uint32_t r = 0; r < rel->size(); ++r) {
    std::span<const Value> stored = view.Scan(r);
    if (std::equal(stored.begin(), stored.end(), row.begin(), row.end())) {
      return ExplainTuple(program, result, TupleRef{pred, r});
    }
  }
  return Status::NotFound("fact not present");
}

}  // namespace exdl
