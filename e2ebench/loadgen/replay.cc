// Traced run: the workload's seeded request sequence replayed in-process,
// one request at a time, through the public calls the daemon makes, in the
// daemon's order. Each call is wrapped in a span recorded here, in the
// benchmark; nothing inside the engine is instrumented. Counts come from
// the structs those calls return.

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "core/compiled_program.h"
#include "daemon/admission.h"
#include "daemon/frame_io.h"
#include "daemon/protocol.h"
#include "durability/durable_edb.h"
#include "eval/evaluator.h"
#include "ivm/materialized_view.h"
#include "obs/json_writer.h"
#include "obs/telemetry.h"
#include "parser/parser.h"
#include "service/answer_text.h"
#include "service/program_cache.h"
#include "service/query_service.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace d = exdl::daemon;

/// Scalars and sample lists for the counters file.
struct Counters {
  std::map<std::string, double> scalar;
  std::map<std::string, std::vector<double>> list;

  void Add(const std::string& key, double v) { scalar[key] += v; }
  void Max(const std::string& key, double v) {
    scalar[key] = std::max(scalar[key], v);
  }
  void Push(const std::string& key, double v) { list[key].push_back(v); }

  bool Write(const std::string& path) const {
    std::string text;
    exdl::obs::JsonWriter json(&text);
    json.BeginObject();
    json.Key("scalar");
    json.BeginObject();
    for (const auto& [k, v] : scalar) {
      json.Key(k);
      json.Double(v);
    }
    json.EndObject();
    json.Key("list");
    json.BeginObject();
    for (const auto& [k, vs] : list) {
      json.Key(k);
      json.BeginArray();
      for (double v : vs) json.Double(v);
      json.EndArray();
    }
    json.EndObject();
    json.EndObject();
    std::ofstream out(path);
    out << text << "\n";
    return static_cast<bool>(out);
  }
};

/// A socketpair with an echo thread: Transfer writes one frame with
/// WriteFrame and returns once the peer has read it with ReadFrame — the
/// frame_io cost of one message, without a daemon.
class FramePipe {
 public:
  FramePipe() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) return;
    echo_ = std::thread([this] {
      while (true) {
        d::Frame frame;
        bool eof = false;
        if (!d::ReadFrame(fds_[1], &frame, &eof).ok()) return;
        const char ack = 'k';
        if (::write(fds_[1], &ack, 1) != 1) return;
      }
    });
  }
  ~FramePipe() {
    if (fds_[0] >= 0) ::shutdown(fds_[0], SHUT_WR);
    if (echo_.joinable()) echo_.join();
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  FramePipe(const FramePipe&) = delete;
  FramePipe& operator=(const FramePipe&) = delete;

  bool Transfer(std::string_view payload) {
    if (!d::WriteFrame(fds_[0], payload).ok()) return false;
    char ack = 0;
    return ::read(fds_[0], &ack, 1) == 1;
  }

 private:
  int fds_[2] = {-1, -1};
  std::thread echo_;
};

class Replayer {
 public:
  Replayer(Tracer& tracer, Counters& counters)
      : tracer_(tracer),
        counters_(counters),
        service_(ServiceFor()),
        cache_(64),
        admission_(d::AdmissionPolicy{}, 64) {
    compile_.optimize = true;
  }

  exdl::QueryService& service() { return service_; }
  exdl::ProgramCache& cache() { return cache_; }
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  /// Compiles through the cache without spans (set-up: priming, views).
  exdl::CompiledProgram::Ptr CompileUntraced(const std::string& source) {
    const std::string key =
        exdl::CompiledProgram::CacheKeyMaterial(source, compile_);
    exdl::CompiledProgram::Ptr ptr = cache_.Lookup(key);
    if (ptr != nullptr) return ptr;
    exdl::Result<exdl::CompiledProgram::Ptr> compiled =
        exdl::CompiledProgram::Compile(source, compile_, nullptr,
                                       service_.ctx());
    if (!compiled.ok()) return Fail("compile: " + compiled.status().ToString());
    cache_.Insert(key, *compiled);
    return *compiled;
  }

  /// SUBMIT + AWAIT as the daemon serves it. Returns the rendered answers.
  std::string Submit(uint64_t rid, const std::string& name,
                     const std::string& source) {
    ScopedSpan root(tracer_, "daemon.submit", 0, rid);
    const uint32_t p = root.id();
    d::SubmitMsg submit;
    submit.name = name;
    submit.source = source;
    Frame(rid, p, d::Encode(submit));
    d::SubmitMsg decoded;
    {
      ScopedSpan s(tracer_, "daemon.codec", p, rid);
      Check(d::Decode(std::string_view(Last()).substr(1), &decoded));
    }
    {
      ScopedSpan s(tracer_, "daemon.admission", p, rid);
      if (!admission_.TryAdmit("", 0, 0, 0).admitted) Fail("not admitted");
    }
    d::TicketMsg ticket;
    ticket.ticket = rid;
    Frame(rid, p, Codec(rid, p, [&] { return d::Encode(ticket); }));
    d::AwaitMsg await;
    await.ticket = rid;
    Frame(rid, p, d::Encode(await));
    {
      ScopedSpan s(tracer_, "daemon.codec", p, rid);
      Check(d::Decode(std::string_view(Last()).substr(1), &await));
    }
    exdl::CompiledProgram::Ptr program = Compile(rid, p, decoded.source);
    if (program == nullptr) return {};
    exdl::Database edb;
    exdl::EvalResult result = Evaluate(rid, p, *program, &edb);
    {
      ScopedSpan s(tracer_, "daemon.admission", p, rid);
      admission_.Release("");
    }
    d::ResultMsg reply;
    reply.ticket = rid;
    reply.stats_text = result.stats.ToString();
    reply.answer_count = result.answers.size();
    reply.answers = Render(rid, p, result.answers);
    Reply(rid, p, Codec(rid, p, [&] { return d::Encode(reply); }));
    root.Stop();
    CountPoolSkips(*program, edb);
    return reply.answers;
  }

  /// LOAD_FACTS on a durable daemon with standing views, split into the
  /// calls the daemon makes, in its order: parse, WAL append (+fsync) of
  /// the next generation, publish, compaction check, then per-view
  /// maintenance. The publish is QueryService::LoadFacts, which parses the
  /// batch again and clones the previous snapshot before adding the facts;
  /// the daemon parses once, the replay twice (its own parse supplies the
  /// atoms MaterializedView::Apply takes).
  void Load(uint64_t rid, const std::string& source,
            exdl::durability::DurableEdb& durable,
            std::vector<std::unique_ptr<exdl::ivm::MaterializedView>>& views) {
    ScopedSpan root(tracer_, "daemon.load", 0, rid);
    const uint32_t p = root.id();
    d::LoadFactsMsg msg;
    msg.source = source;
    Frame(rid, p, d::Encode(msg));
    {
      ScopedSpan s(tracer_, "daemon.codec", p, rid);
      Check(d::Decode(std::string_view(Last()).substr(1), &msg));
    }
    exdl::ParsedUnit parsed(service_.ctx());
    {
      ScopedSpan s(tracer_, "parser.facts_parse", p, rid);
      exdl::Result<exdl::ParsedUnit> r =
          exdl::ParseProgram(msg.source, service_.ctx());
      if (!r.ok()) {
        Fail("facts parse: " + r.status().ToString());
        return;
      }
      parsed = std::move(*r);
    }
    counters_.Add("parser.bytes", msg.source.size());
    counters_.Add("durability.fact_bytes", msg.source.size());
    const uint64_t generation = service_.snapshot().generation() + 1;
    const std::string log = exdl::durability::DurableEdb::LogPathIn(
        durable.options().data_dir);
    const uint64_t log_before = FileSize(log);
    {
      ScopedSpan s(tracer_, "durability.append", p, rid);
      Check(durable.Append(generation, msg.source));
    }
    counters_.Add("durability.bytes_written", FileSize(log) - log_before);
    {
      ScopedSpan s(tracer_, "service.publish", p, rid);
      Check(service_.LoadFacts(msg.source));
    }
    const exdl::DatabaseSnapshot snapshot = service_.snapshot();
    if (snapshot.generation() != generation) Fail("unexpected generation");
    const uint64_t compactions = durable.counters().compactions;
    {
      ScopedSpan s(tracer_, "durability.compact_check", p, rid);
      Check(durable.MaybeCompact(*service_.ctx(), snapshot.db(),
                                 snapshot.generation()));
      if (durable.counters().compactions != compactions) {
        tracer_.Rename(s.id(), "durability.compact");
      }
    }
    if (durable.counters().compactions != compactions) {
      counters_.Add("durability.compactions", 1);
      counters_.Add("durability.bytes_written",
                    FileSize(exdl::durability::DurableEdb::SnapshotPathIn(
                        durable.options().data_dir)) +
                        FileSize(log));
    }
    double apply_ms = 0;
    for (auto& view : views) {
      ScopedSpan s(tracer_, "ivm.apply", p, rid);
      Check(view->Apply(parsed.facts, snapshot.generation(), snapshot.db()));
      s.Stop();
      apply_ms += tracer_.Ms(s.id());
    }
    counters_.Push("ivm.apply_ms_per_load", apply_ms);
    Reply(rid, p, Codec(rid, p, [] { return d::EncodeEmpty(d::MsgType::kOk); }));
  }

  /// POLL_RESULT: render the maintained answers and reply.
  void Poll(uint64_t rid, uint64_t standing_id,
            const exdl::ivm::MaterializedView& view) {
    ScopedSpan root(tracer_, "daemon.poll", 0, rid);
    const uint32_t p = root.id();
    d::PollResultMsg msg;
    msg.standing_id = standing_id;
    Frame(rid, p, d::Encode(msg));
    {
      ScopedSpan s(tracer_, "daemon.codec", p, rid);
      Check(d::Decode(std::string_view(Last()).substr(1), &msg));
    }
    d::StandingResultMsg reply;
    reply.standing_id = standing_id;
    reply.generation = view.generation();
    reply.answer_count = view.result().answers.size();
    reply.answers = Render(rid, p, view.result().answers);
    reply.fallback = std::string(exdl::ivm::FallbackName(view.fallback()));
    reply.delta_rounds = view.stats().delta_rounds;
    reply.full_recomputes = view.stats().full_recomputes;
    reply.tuples_rederived = view.stats().tuples_rederived;
    Reply(rid, p, Codec(rid, p, [&] { return d::Encode(reply); }));
  }

  /// Evaluates a view's seed over the current snapshot and installs it as
  /// the daemon does for REGISTER_QUERY (with a support ledger when the
  /// program stays on the incremental path).
  std::unique_ptr<exdl::ivm::MaterializedView> Register(
      const std::string& source) {
    exdl::CompiledProgram::Ptr program = CompileUntraced(source);
    if (program == nullptr) return nullptr;
    const exdl::DatabaseSnapshot snapshot = service_.snapshot();
    exdl::Database edb = SessionEdb(snapshot, *program);
    exdl::EvalOptions eval;
    std::unique_ptr<exdl::ivm::SupportLedger> ledger;
    if (exdl::ivm::MaterializedView::Classify(program->program(), eval) ==
        exdl::ivm::Fallback::kNone) {
      ledger = std::make_unique<exdl::ivm::SupportLedger>();
      eval.support_sink = ledger.get();
    }
    exdl::Result<exdl::EvalResult> seed =
        exdl::Evaluate(program->program(), edb, eval);
    if (!seed.ok()) {
      Fail("view seed: " + seed.status().ToString());
      return nullptr;
    }
    return std::make_unique<exdl::ivm::MaterializedView>(
        program, eval, std::move(*seed), snapshot.generation(),
        std::move(ledger));
  }

 private:
  static exdl::ServiceOptions ServiceFor() {
    exdl::ServiceOptions options;
    options.num_workers = 1;
    options.compile.optimize = true;
    return options;
  }

  static uint64_t FileSize(const std::string& path) {
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : size;
  }

  static exdl::Database SessionEdb(const exdl::DatabaseSnapshot& snapshot,
                                   const exdl::CompiledProgram& program) {
    exdl::Database edb =
        snapshot.valid() ? snapshot.db().Clone() : exdl::Database();
    for (const auto& [pred, rel] : program.facts().relations()) {
      exdl::Relation& dst = edb.GetOrCreate(pred, rel.arity());
      for (size_t row = 0; row < rel.size(); ++row) {
        dst.Insert(rel.view().Scan(row));
      }
    }
    return edb;
  }

  std::nullptr_t Fail(const std::string& what) {
    if (ok_) error_ = what;
    ok_ = false;
    return nullptr;
  }
  void Check(const exdl::Status& status) {
    if (!status.ok()) Fail(status.ToString());
  }

  template <typename F>
  std::string Codec(uint64_t rid, uint32_t parent, F encode) {
    ScopedSpan s(tracer_, "daemon.codec", parent, rid);
    return encode();
  }

  /// One frame through WriteFrame/ReadFrame; keeps it for the decode that
  /// follows.
  void Frame(uint64_t rid, uint32_t parent, std::string payload) {
    last_ = std::move(payload);
    ScopedSpan s(tracer_, "daemon.frame_io", parent, rid);
    if (!pipe_.Transfer(last_)) Fail("frame transfer");
  }
  void Reply(uint64_t rid, uint32_t parent, std::string payload) {
    counters_.Push("daemon.reply_bytes", payload.size());
    Frame(rid, parent, std::move(payload));
  }
  const std::string& Last() const { return last_; }

  /// Cache lookup, and on a miss the compile: ParseProgram, then
  /// CompiledProgram::Optimize of the parsed artifact (together what
  /// CompiledProgram::Compile does), then the cache insert.
  exdl::CompiledProgram::Ptr Compile(uint64_t rid, uint32_t p,
                                     const std::string& source) {
    const std::string key =
        exdl::CompiledProgram::CacheKeyMaterial(source, compile_);
    exdl::CompiledProgram::Ptr program;
    {
      ScopedSpan s(tracer_, "service.cache_lookup", p, rid);
      program = cache_.Lookup(key);
    }
    if (program != nullptr) return program;
    ScopedSpan compile(tracer_, "service.compile", p, rid);
    exdl::ParsedUnit parsed(service_.ctx());
    {
      ScopedSpan s(tracer_, "parser.parse", compile.id(), rid);
      exdl::Result<exdl::ParsedUnit> r =
          exdl::ParseProgram(source, service_.ctx());
      if (!r.ok()) return Fail("parse: " + r.status().ToString());
      parsed = std::move(*r);
    }
    counters_.Add("parser.bytes", source.size());
    exdl::Database facts;
    for (const exdl::Atom& fact : parsed.facts) Check(facts.AddFact(fact));
    exdl::CompileOptions plain;  // wrap only; the optimizer runs below
    exdl::Result<exdl::CompiledProgram::Ptr> base =
        exdl::CompiledProgram::FromProgram(std::move(parsed.program),
                                           std::move(facts), plain);
    if (!base.ok()) return Fail("wrap: " + base.status().ToString());
    exdl::Result<exdl::CompiledProgram::Ptr> optimized =
        exdl::Status::Internal("unset");
    {
      ScopedSpan s(tracer_, "core.optimize", compile.id(), rid);
      optimized = exdl::CompiledProgram::Optimize(**base, compile_.optimizer);
    }
    if (!optimized.ok()) return Fail("optimize: " + optimized.status().ToString());
    const exdl::OptimizationReport& report = (*optimized)->report();
    counters_.Add("core.rules_before", report.original_rules);
    counters_.Add("core.rules_after", report.final_rules);
    for (const exdl::OptimizationPhase& phase : report.phases) {
      counters_.Push("core.phase_ms." + phase.name, phase.seconds * 1e3);
    }
    compile.Stop();
    cache_.Insert(key, *optimized);
    return *optimized;
  }

  exdl::EvalResult Evaluate(uint64_t rid, uint32_t p,
                            const exdl::CompiledProgram& program,
                            exdl::Database* edb_out) {
    exdl::Database edb;
    {
      ScopedSpan s(tracer_, "storage.clone", p, rid);
      edb = SessionEdb(service_.snapshot(), program);
    }
    exdl::EvalOptions eval;
    exdl::Result<exdl::EvalResult> result = exdl::Status::Internal("unset");
    {
      ScopedSpan s(tracer_, "eval.evaluate", p, rid);
      result = exdl::Evaluate(program.program(), edb, eval);
    }
    if (!result.ok()) {
      Fail("evaluate: " + result.status().ToString());
      return {};
    }
    const exdl::EvalStats& st = result->stats;
    counters_.Add("eval.rounds", st.rounds);
    counters_.Add("eval.rule_firings", st.rule_firings);
    counters_.Add("eval.tuples_inserted", st.tuples_inserted);
    counters_.Add("eval.duplicate_inserts", st.duplicate_inserts);
    counters_.Add("eval.index_probes", st.index_probes);
    counters_.Add("eval.rows_matched", st.rows_matched);
    counters_.Add("eval.seconds", st.eval_seconds);
    counters_.Max("eval.max_round_ms", st.max_round_seconds * 1e3);
    counters_.Add("storage.words_scanned", result->representation.words_scanned);
    counters_.Add("storage.fallbacks", result->representation.fallbacks);
    counters_.Max("storage.peak_tuples", result->db.TotalTuples());
    if (edb_out != nullptr) *edb_out = std::move(edb);
    return std::move(*result);
  }

  /// The pool-skip count exists only as a telemetry metric: read it from a
  /// second, telemetry-on evaluation made after the request's spans closed.
  void CountPoolSkips(const exdl::CompiledProgram& program,
                      const exdl::Database& edb) {
    exdl::obs::Telemetry telemetry;
    exdl::EvalOptions eval;
    eval.telemetry = &telemetry;
    if (exdl::Evaluate(program.program(), edb, eval).ok()) {
      exdl::obs::MetricsRegistry& m = telemetry.metrics();
      counters_.Add("eval.pool_skipped_rounds",
                    m.CounterValue(m.Counter("eval.pool.skipped_rounds")));
    }
  }

  std::string Render(uint64_t rid, uint32_t p,
                     const std::vector<std::vector<exdl::Value>>& answers) {
    counters_.Push("service.answer_rows", answers.size());
    ScopedSpan s(tracer_, "service.render", p, rid);
    return exdl::RenderAnswerRows(*service_.ctx(), answers);
  }

  Tracer& tracer_;
  Counters& counters_;
  exdl::QueryService service_;
  exdl::ProgramCache cache_;
  d::AdmissionController admission_;
  exdl::CompileOptions compile_;
  FramePipe pipe_;
  std::string last_;
  bool ok_ = true;
  std::string error_;
};

/// Cache counters of the replayed requests only (set-up lookups excluded).
void CacheDelta(Counters& counters, const exdl::ProgramCache::Stats& before,
                const exdl::ProgramCache::Stats& after) {
  counters.Add("service.cache_hits", after.hits - before.hits);
  counters.Add("service.cache_misses", after.misses - before.misses);
  counters.Add("service.cache_evictions", after.evictions - before.evictions);
}

bool ReplayWarm(const Args& args, const Scale& scale, Replayer& replayer,
                Counters& counters, std::string* error) {
  const WarmInputs in = MakeWarmInputs(args.seed, scale);
  Reference reference;
  std::string all;
  for (const std::string& batch : in.edb_batches) {
    all += batch;
    if (!replayer.service().LoadFacts(batch).ok()) {
      *error = "replay: base load failed";
      return false;
    }
  }
  if (!reference.LoadFacts(all, error)) return false;
  std::vector<std::string> expected(in.pool.size());
  for (size_t i = 0; i < in.pool.size(); ++i) {
    if (!reference.Answers(in.pool[i].source, &expected[i], error)) return false;
    replayer.CompileUntraced(in.pool[i].source);
  }
  const exdl::ProgramCache::Stats before = replayer.cache().stats();
  // Client c's k-th request is draw k of its stream; requests interleave
  // round-robin over the clients.
  const std::vector<uint32_t> weights = Weights(in.pool);
  std::vector<Rng> streams;
  for (uint32_t c = 0; c < kSubmitClients; ++c) {
    streams.emplace_back(MixSeed(args.seed, 10, c));
  }
  for (uint64_t i = 0; i < scale.replay_ops && replayer.ok(); ++i) {
    const size_t q = streams[i % kSubmitClients].Weighted(weights);
    if (replayer.Submit(i + 1, in.pool[q].name, in.pool[q].source) !=
        expected[q]) {
      *error = "replay answer of " + in.pool[q].name + " differs";
      return false;
    }
  }
  CacheDelta(counters, before, replayer.cache().stats());
  counters.Add("replay.requests", scale.replay_ops);
  return true;
}

bool ReplayCold(const Args& args, const Scale& scale, Replayer& replayer,
                Counters& counters, std::string* error) {
  const exdl::ProgramCache::Stats before = replayer.cache().stats();
  Reference reference;
  for (uint64_t i = 0; i < scale.replay_ops && replayer.ok(); ++i) {
    const std::string source =
        MakeColdSource(args.seed, static_cast<uint32_t>(i % kSubmitClients),
                       i / kSubmitClients);
    std::string expected;
    if (!reference.Answers(source, &expected, error)) return false;
    if (replayer.Submit(i + 1, "cold", source) != expected) {
      *error = "replay answer of cold source " + std::to_string(i) + " differs";
      return false;
    }
  }
  CacheDelta(counters, before, replayer.cache().stats());
  counters.Add("replay.requests", scale.replay_ops);
  return true;
}

bool ReplayIngest(const Args& args, const Scale& scale, Replayer& replayer,
                  Counters& counters, std::string* error) {
  const IngestInputs in = MakeIngestInputs(args.seed, scale);
  for (const std::string& batch : in.edb_batches) {
    if (!replayer.service().LoadFacts(batch).ok()) {
      *error = "replay: base load failed";
      return false;
    }
  }
  std::vector<std::unique_ptr<exdl::ivm::MaterializedView>> views;
  for (const Query& view : in.views) {
    views.push_back(replayer.Register(view.source));
    if (views.back() == nullptr) {
      *error = "replay: " + replayer.error();
      return false;
    }
  }
  for (const Query& q : in.oneshot) replayer.CompileUntraced(q.source);
  const std::string dir = args.work_dir + "/replay_data";
  std::filesystem::remove_all(dir);
  exdl::durability::DurabilityOptions options;
  options.data_dir = dir;  // default compact_every, as exdld runs
  exdl::durability::DurableEdb durable(options);
  if (!durable.Open().ok()) {
    *error = "replay: cannot open " + dir;
    return false;
  }
  const exdl::ProgramCache::Stats before = replayer.cache().stats();
  // Per load: the writer's batch, one POLL from each poller stream, and one
  // SUBMIT from the submitter stream — the e2e connections' sequences.
  Rng poll_a(MixSeed(args.seed, 20, 1));
  Rng poll_b(MixSeed(args.seed, 20, 2));
  Rng submit(MixSeed(args.seed, 30));
  const std::vector<uint32_t> weights = Weights(in.oneshot);
  const uint64_t loads = scale.replay_ops / 4;
  uint64_t rid = 0;
  for (uint64_t i = 0; i < loads && replayer.ok(); ++i) {
    replayer.Load(++rid, MakeLoadBatch(args.seed, i, scale), durable, views);
    for (Rng* rng : {&poll_a, &poll_b}) {
      const size_t v = rng->Below(views.size());
      replayer.Poll(++rid, v + 1, *views[v]);
    }
    const size_t q = submit.Weighted(weights);
    replayer.Submit(++rid, in.oneshot[q].name, in.oneshot[q].source);
  }
  CacheDelta(counters, before, replayer.cache().stats());
  exdl::ivm::IvmStats ivm;
  for (const auto& view : views) ivm += view->stats();
  counters.Add("ivm.delta_rounds", ivm.delta_rounds);
  counters.Add("ivm.tuples_rederived", ivm.tuples_rederived);
  counters.Add("ivm.facts_absorbed", ivm.facts_absorbed);
  counters.Add("ivm.full_recomputes", ivm.full_recomputes);
  counters.Add("replay.requests", rid);
  counters.Add("replay.loads", loads);
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace

bool RunReplay(const Args& args, const Scale& scale, const Outcome& e2e,
               std::string* error) {
  Tracer tracer;
  Counters counters;
  counters.Add("e2e.submit_p50_ms", e2e.submit_p50_ms);
  counters.Add("daemon.backpressure_events", e2e.backpressure_events);
  counters.Add("daemon.cancelled_on_disconnect", e2e.cancelled_on_disconnect);
  bool ok = false;
  {
    Replayer replayer(tracer, counters);
    if (args.workload == "warm_eval") {
      ok = ReplayWarm(args, scale, replayer, counters, error);
    } else if (args.workload == "cold_compile") {
      ok = ReplayCold(args, scale, replayer, counters, error);
    } else {
      ok = ReplayIngest(args, scale, replayer, counters, error);
    }
    if (ok && !replayer.ok()) {
      *error = "replay: " + replayer.error();
      ok = false;
    }
  }
  if (!ok) return false;
  if (!tracer.Write(args.trace_prefix + ".spans.jsonl") ||
      !counters.Write(args.trace_prefix + ".counters.json")) {
    *error = "cannot write trace files at " + args.trace_prefix;
    return false;
  }
  return true;
}

}  // namespace e2e
