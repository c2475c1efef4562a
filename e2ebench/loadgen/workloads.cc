// End-to-end phase: exdld as a child on a unix socket, closed-loop client
// connections (one thread each), every answer verified. The load generator,
// its threads and the daemon all run on one CPU (see PinToOneCpu).

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/engine.h"
#include "parser/parser.h"
#include "service/answer_text.h"
#include "workloads.h"

namespace e2e {

using exdl::daemon::DaemonClient;
using exdl::daemon::RegisteredMsg;
using exdl::daemon::ResultMsg;
using exdl::daemon::StandingResultMsg;
using exdl::daemon::SubmitMsg;

Reference::Reference() : ctx_(std::make_shared<exdl::Context>()) {}

bool Reference::LoadFacts(const std::string& facts, std::string* error) {
  exdl::Result<exdl::ParsedUnit> parsed = exdl::ParseProgram(facts, ctx_);
  if (!parsed.ok()) {
    *error = "reference facts: " + parsed.status().ToString();
    return false;
  }
  for (const exdl::Atom& fact : parsed->facts) {
    if (!edb_.AddFact(fact).ok()) {
      *error = "reference facts: bad fact";
      return false;
    }
  }
  return true;
}

bool Reference::Answers(const std::string& source, std::string* answers,
                        std::string* error) {
  exdl::Result<exdl::ParsedUnit> parsed = exdl::ParseProgram(source, ctx_);
  if (!parsed.ok()) {
    *error = "reference parse: " + parsed.status().ToString();
    return false;
  }
  exdl::Database edb = edb_.Clone();
  for (const exdl::Atom& fact : parsed->facts) {
    if (!edb.AddFact(fact).ok()) {
      *error = "reference: bad inline fact";
      return false;
    }
  }
  exdl::Engine engine;
  exdl::Status status =
      engine.LoadProgram(std::move(parsed->program), std::move(edb));
  if (status.ok()) status = engine.Optimize();
  if (!status.ok()) {
    *error = "reference: " + status.ToString();
    return false;
  }
  exdl::Result<exdl::EvalResult> result = engine.Run();
  if (!result.ok() || !result->termination.ok()) {
    *error = "reference run failed";
    return false;
  }
  *answers = exdl::RenderAnswerRows(*ctx_, result->answers);
  return true;
}

namespace {

constexpr double kMaxPhaseSeconds = 120;
/// standing_ingest: the writer, two pollers and the one-shot submitter.
constexpr uint32_t kIngestConnections = 4;
/// Threads that check cold_compile's replies after the timed window.
constexpr uint32_t kVerifiers = 4;

uint64_t HashText(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a of the first k lines of `text`, for every k (index k).
std::vector<uint64_t> LinePrefixHashes(const std::string& text) {
  std::vector<uint64_t> out = {1469598103934665603ULL};
  uint64_t h = out[0];
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
    if (c == '\n') out.push_back(h);
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += part;
  return out;
}

/// Latencies of one op type with their completion times.
struct Samples {
  std::vector<double> ms;
  std::vector<int64_t> end_ns;
  void Add(int64_t start_ns, int64_t done_ns) {
    ms.push_back(static_cast<double>(done_ns - start_ns) / 1e6);
    end_ns.push_back(done_ns);
  }
  void Append(const Samples& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    end_ns.insert(end_ns.end(), other.end_ns.begin(), other.end_ns.end());
  }
};

/// Counters shared by the client threads of one timed phase.
struct Phase {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> work{0};  ///< triggers the fixed-work RSS read
  std::atomic<uint64_t> submits{0};
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;  ///< guards the merged samples and the outcome
  Samples submit, load, poll;
  int64_t start_ns = 0;  ///< set by Drive
  int64_t stop_ns = 0;
  double cpu_s = 0;  ///< daemon CPU time in [start_ns, stop_ns); -1 unknown
};

/// Lets the clients warm up (caches, allocator, the host's CPU state), then
/// runs until `seconds` have passed, min_samples SUBMITs have completed,
/// and the daemon's RSS was read after `rss_work` units of work;
/// then tells them to stop. Only samples that complete in
/// [start_ns, stop_ns) are reported, and the daemon's CPU time is taken
/// over the same window.
void Drive(Phase& phase, const Args& args, const Scale& scale,
           uint64_t rss_work, const DaemonProcess& daemon, double* rss_mb) {
  bool rss_read = false;
  auto read_rss = [&] {
    if (!rss_read && phase.work.load() >= rss_work) {
      *rss_mb = daemon.PeakRssMb();
      rss_read = true;
    }
  };
  const int64_t warm_until = NowNs() + int64_t{scale.warmup_ms} * 1'000'000;
  while (NowNs() < warm_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    read_rss();
  }
  const uint64_t submits0 = phase.submits;
  const double cpu0 = daemon.CpuSeconds();
  phase.start_ns = NowNs();
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    read_rss();
    const double elapsed = static_cast<double>(NowNs() - phase.start_ns) / 1e9;
    const bool enough = phase.submits - submits0 >= scale.min_samples;
    if ((elapsed >= args.seconds && enough && rss_read) ||
        elapsed >= kMaxPhaseSeconds) {
      break;
    }
  }
  phase.stop_ns = NowNs();
  const double cpu1 = daemon.CpuSeconds();
  phase.cpu_s = cpu0 < 0 || cpu1 < 0 ? -1 : cpu1 - cpu0;
  phase.stop = true;
  if (!rss_read) *rss_mb = daemon.PeakRssMb();
}

/// Starts `scale.setups` daemons one after another, timing spawn -> ready
/// for each (setup_s is their median); all but the last are stopped.
bool TimedSetups(
    const Args& args, const Scale& scale,
    const std::function<std::vector<std::string>(const std::string&)>& flags,
    const std::function<bool(DaemonProcess&, std::string*)>& ready,
    std::unique_ptr<DaemonProcess>* daemon, std::string* dir_out,
    Report* report, std::string* error) {
  std::vector<double> times;
  for (uint32_t i = 0; i < scale.setups; ++i) {
    const std::string dir = args.work_dir + "/daemon" + std::to_string(i);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto proc = std::make_unique<DaemonProcess>();
    const int64_t t0 = NowNs();
    if (!proc->Start(args.exdld, dir, flags(dir), error)) return false;
    if (!ready(*proc, error)) return false;
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i + 1 < scale.setups) {
      proc->Stop();
    } else {
      *daemon = std::move(proc);
      *dir_out = dir;
    }
  }
  report->Add("setup_s", Percentile(times, 0.5), "s", Report::Kind::kTime);
  return true;
}

std::vector<std::string> ServingFlags() {
  return {"--jobs", "4", "--optimize"};
}

bool LoadBatches(DaemonClient& client, const std::vector<std::string>& batches,
                 std::string* error) {
  for (const std::string& batch : batches) {
    exdl::Status status = client.LoadFacts(batch);
    if (!status.ok()) {
      *error = "LOAD_FACTS: " + status.ToString();
      return false;
    }
  }
  return true;
}

/// Reports one op type's rate, p50, p90 and p99 over the measured window and
/// returns the p50. The rate is the median of the per-second completion
/// counts over the window's whole seconds: a few seconds of host noise move
/// it less than a total over the run would.
double AddLatency(Report* report, const std::string& op,
                  const Samples& samples, const Phase& phase,
                  const char* rate_name, Report::Kind rate_kind) {
  const int64_t window = 1'000'000'000;
  const size_t windows = static_cast<size_t>(
      std::max<int64_t>(1, (phase.stop_ns - phase.start_ns) / window));
  std::vector<double> per_window(windows, 0);
  std::vector<double> ms;
  for (size_t i = 0; i < samples.ms.size(); ++i) {
    const int64_t end = samples.end_ns[i];
    if (end < phase.start_ns || end >= phase.stop_ns) continue;
    ms.push_back(samples.ms[i]);
    const size_t w = static_cast<size_t>((end - phase.start_ns) / window);
    if (w < windows) per_window[w] += 1;
  }
  const Report::Kind time = Report::Kind::kTime;
  report->Add(rate_name, Percentile(per_window, 0.5), "1/s", rate_kind);
  report->Add(op + "_p50_ms", Percentile(ms, 0.5), "ms", time);
  report->Add(op + "_p90_ms", Percentile(ms, 0.9), "ms", time);
  // A p99 is reported only with at least ten samples beyond it.
  if (SamplesBeyond(ms.size(), 0.99) >= 10) {
    report->Add(op + "_p99_ms", Percentile(ms, 0.99), "ms", time);
  }
  report->Note(op + "_samples", std::to_string(ms.size()));
  return Percentile(ms, 0.5);
}

/// Adds the metrics every workload reports once the clients have stopped,
/// and stops the calibration: what the run measures is over.
void FinishReport(Report* report, Phase& phase, Outcome* out, double rss_mb) {
  uint64_t ops = 0;
  for (const Samples* samples : {&phase.submit, &phase.load, &phase.poll}) {
    for (int64_t end : samples->end_ns) {
      ops += end >= phase.start_ns && end < phase.stop_ns;
    }
  }
  if (phase.cpu_s >= 0) {
    const double n = static_cast<double>(std::max<uint64_t>(1, ops));
    report->Add("daemon_cpu_ms_per_op", 1e3 * phase.cpu_s / n, "ms",
                Report::Kind::kTime);
  }
  out->attempted = phase.attempted;
  out->failed = phase.failed;
  report->Add("fail_ratio",
              out->attempted == 0
                  ? 0
                  : static_cast<double>(out->failed) / out->attempted,
              "ratio");
  report->Add("daemon_rss_peak_mb", rss_mb, "MB");
  out->calibration.Stop();
}

uint64_t JsonCount(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return 0;
  const size_t colon = json.find(':', at);
  return colon == std::string::npos
             ? 0
             : std::strtoull(json.c_str() + colon + 1, nullptr, 10);
}

bool ReadStats(const exdl::daemon::Endpoint& endpoint, Outcome* out,
               std::string* error) {
  DaemonClient client;
  if (!ConnectClient(&client, endpoint, error)) return false;
  std::string json;
  exdl::Status status = client.Stats(&json);
  if (!status.ok()) {
    *error = "STATS: " + status.ToString();
    return false;
  }
  out->backpressure_events = JsonCount(json, "backpressure_events");
  out->cancelled_on_disconnect = JsonCount(json, "cancelled_on_disconnect");
  return true;
}

/// A client thread's connection; reconnects after a failed exchange.
struct Conn {
  DaemonClient client;
  exdl::daemon::Endpoint endpoint;
  void Reset() {
    client.Close();
    std::string ignored;
    ConnectClient(&client, endpoint, &ignored);
  }
};

/// Closed loop with a pacing floor: waits until op `i` of a stream that
/// started at `start_ns` is due (at once when the stream runs late). False
/// once the phase is over.
bool WaitTurn(const Phase& phase, int64_t start_ns, uint64_t i,
              uint32_t interval_us) {
  const int64_t due = start_ns + static_cast<int64_t>(i) * interval_us * 1000;
  while (!phase.stop && NowNs() < due) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return !phase.stop;
}

/// One connected client per client thread of the timed phase.
bool ConnectAll(const DaemonProcess& daemon, uint32_t n,
                std::vector<std::unique_ptr<Conn>>* conns, std::string* error) {
  for (uint32_t c = 0; c < n; ++c) {
    conns->push_back(std::make_unique<Conn>());
    conns->back()->endpoint = daemon.endpoint();
    if (!ConnectClient(&conns->back()->client, daemon.endpoint(), error)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------

bool RunWarm(const Args& args, const Scale& scale, Report* report,
             Outcome* out, std::string* error) {
  const WarmInputs in = MakeWarmInputs(args.seed, scale);
  Reference reference;
  if (!reference.LoadFacts(Join(in.edb_batches),
                           error)) {
    return false;
  }
  std::vector<std::string> expected(in.pool.size());
  for (size_t i = 0; i < in.pool.size(); ++i) {
    if (!reference.Answers(in.pool[i].source, &expected[i], error)) return false;
  }
  std::unique_ptr<DaemonProcess> daemon;
  std::string dir;
  auto ready = [&](DaemonProcess& proc, std::string* err) {
    DaemonClient client;
    if (!ConnectClient(&client, proc.endpoint(), err)) return false;
    if (!LoadBatches(client, in.edb_batches, err)) return false;
    // Prime the ProgramCache: every timed SUBMIT is then a hit.
    for (size_t i = 0; i < in.pool.size(); ++i) {
      ResultMsg result;
      if (!SubmitAwait(&client, in.pool[i].name, in.pool[i].source, &result,
                       err)) {
        return false;
      }
      if (result.answers != expected[i]) out->Mismatch("prime " + in.pool[i].name);
    }
    return true;
  };
  if (!TimedSetups(args, scale, [](const std::string&) { return ServingFlags(); },
                   ready, &daemon, &dir, report, error)) {
    return false;
  }

  Phase phase;
  const std::vector<uint32_t> weights = Weights(in.pool);
  std::vector<std::unique_ptr<Conn>> conns;
  if (!ConnectAll(*daemon, kSubmitClients, &conns, error)) return false;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kSubmitClients; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = *conns[c];
      Rng rng(MixSeed(args.seed, 10, c));
      Samples mine;
      while (!phase.stop) {
        const size_t q = rng.Weighted(weights);
        ResultMsg result;
        std::string err;
        ++phase.attempted;
        const int64_t t0 = NowNs();
        const bool ok =
            SubmitAwait(&conn.client, in.pool[q].name, in.pool[q].source,
                        &result, &err);
        const int64_t t1 = NowNs();
        if (!ok) {
          ++phase.failed;
          std::lock_guard<std::mutex> lock(phase.mu);
          out->Failure(in.pool[q].name + ": " + err);
          conn.Reset();
          continue;
        }
        mine.Add(t0, t1);
        ++phase.submits;
        ++phase.work;
        if (result.answers != expected[q]) {
          std::lock_guard<std::mutex> lock(phase.mu);
          out->Mismatch(in.pool[q].name + " reply differs from the reference");
        }
      }
      std::lock_guard<std::mutex> lock(phase.mu);
      phase.submit.Append(mine);
    });
  }
  double rss_mb = 0;
  Drive(phase, args, scale, scale.rss_ops, *daemon, &rss_mb);
  for (std::thread& t : threads) t.join();
  out->submit_p50_ms =
      AddLatency(report, "submit", phase.submit, phase, "submit_qps",
                 Report::Kind::kRate);
  FinishReport(report, phase, out, rss_mb);
  if (!ReadStats(daemon->endpoint(), out, error)) return false;
  daemon->Stop();
  return true;
}

// ---------------------------------------------------------------------------

bool RunCold(const Args& args, const Scale& scale, Report* report,
             Outcome* out, std::string* error) {
  // The daemon serves the warm_eval EDB, which no cold source reads: set-up
  // is a realistic one, and the cold programs' own facts stay inline.
  const WarmInputs base = MakeWarmInputs(args.seed, scale);
  std::unique_ptr<DaemonProcess> daemon;
  std::string dir;
  auto ready = [&](DaemonProcess& proc, std::string* err) {
    DaemonClient client;
    return ConnectClient(&client, proc.endpoint(), err) &&
           LoadBatches(client, base.edb_batches, err);
  };
  if (!TimedSetups(args, scale, [](const std::string&) { return ServingFlags(); },
                   ready, &daemon, &dir, report, error)) {
    return false;
  }

  struct Reply {
    uint32_t client;
    uint64_t index;
    std::string answers;
  };
  Phase phase;
  std::vector<Reply> replies;
  std::vector<std::unique_ptr<Conn>> conns;
  if (!ConnectAll(*daemon, kSubmitClients, &conns, error)) return false;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kSubmitClients; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = *conns[c];
      Samples mine;
      std::vector<Reply> answered;
      for (uint64_t k = 0; !phase.stop; ++k) {
        const std::string source = MakeColdSource(args.seed, c, k);
        ResultMsg result;
        std::string err;
        ++phase.attempted;
        const int64_t t0 = NowNs();
        const bool ok = SubmitAwait(&conn.client, "cold", source, &result, &err);
        const int64_t t1 = NowNs();
        if (!ok) {
          ++phase.failed;
          std::lock_guard<std::mutex> lock(phase.mu);
          out->Failure("cold source " + std::to_string(c) + "/" +
                       std::to_string(k) + ": " + err);
          conn.Reset();
          continue;
        }
        mine.Add(t0, t1);
        ++phase.submits;
        ++phase.work;
        answered.push_back(Reply{c, k, std::move(result.answers)});
      }
      std::lock_guard<std::mutex> lock(phase.mu);
      phase.submit.Append(mine);
      for (Reply& r : answered) replies.push_back(std::move(r));
    });
  }
  double rss_mb = 0;
  Drive(phase, args, scale, scale.rss_ops, *daemon, &rss_mb);
  for (std::thread& t : threads) t.join();
  out->submit_p50_ms =
      AddLatency(report, "submit", phase.submit, phase, "submit_qps",
                 Report::Kind::kRate);
  FinishReport(report, phase, out, rss_mb);
  if (!ReadStats(daemon->endpoint(), out, error)) return false;
  daemon->Stop();

  // Every reply against a fresh in-process run of the same source, on every
  // CPU (nothing is timed here).
  UnpinCpu();
  std::atomic<size_t> next{0};
  std::vector<std::thread> verifiers;
  for (uint32_t v = 0; v < kVerifiers; ++v) {
    verifiers.emplace_back([&] {
      Reference reference;
      for (size_t i = next++; i < replies.size(); i = next++) {
        const Reply& r = replies[i];
        std::string expected;
        std::string err;
        const bool ok = reference.Answers(
            MakeColdSource(args.seed, r.client, r.index), &expected, &err);
        if (!ok || expected != r.answers) {
          std::lock_guard<std::mutex> lock(phase.mu);
          out->Mismatch("cold source " + std::to_string(r.client) + "/" +
                        std::to_string(r.index) + (ok ? "" : ": " + err));
        }
      }
    });
  }
  for (std::thread& t : verifiers) t.join();
  PinToOneCpu();
  report->Note("verified_replies", std::to_string(replies.size()));
  return true;
}

// ---------------------------------------------------------------------------

bool RunIngest(const Args& args, const Scale& scale, Report* report,
               Outcome* out, std::string* error) {
  const IngestInputs in = MakeIngestInputs(args.seed, scale);
  std::unique_ptr<DaemonProcess> daemon;
  std::string dir;
  std::vector<uint64_t> view_ids;
  // exdld fsyncs every LOAD_FACTS and compacts every 8 loads (default).
  auto flags = [](const std::string& d) {
    std::vector<std::string> f = ServingFlags();
    f.push_back("--data-dir");
    f.push_back(d + "/data");
    return f;
  };
  auto ready = [&](DaemonProcess& proc, std::string* err) {
    DaemonClient client;
    if (!ConnectClient(&client, proc.endpoint(), err)) return false;
    if (!LoadBatches(client, in.edb_batches, err)) return false;
    view_ids.clear();
    for (const Query& view : in.views) {
      SubmitMsg msg;
      msg.name = view.name;
      msg.source = view.source;
      RegisteredMsg registered;
      exdl::Status status = client.RegisterQuery(msg, &registered);
      if (!status.ok()) {
        *err = "REGISTER_QUERY " + view.name + ": " + status.ToString();
        return false;
      }
      view_ids.push_back(registered.standing_id);
    }
    return true;
  };
  if (!TimedSetups(args, scale, flags, ready, &daemon, &dir, report, error)) {
    return false;
  }
  const uint64_t base_generation = in.edb_batches.size();

  // What each reader saw, checked against the final reference afterwards:
  // every answer a load adds contains a constant that load interned first,
  // so the reply at any generation is a line prefix of the final text.
  struct Seen {
    uint32_t query;
    uint64_t generation;  // polls only
    uint64_t count;
    uint64_t hash;
  };
  Phase phase;
  std::atomic<uint64_t> acked{0};
  std::vector<Seen> polled;
  std::vector<Seen> submitted;
  std::vector<std::unique_ptr<Conn>> conns;
  if (!ConnectAll(*daemon, kIngestConnections, &conns, error)) return false;
  std::vector<std::thread> threads;
  // Connection 0: the writer. Closed loop with a pacing floor, so both
  // commits apply the same loads (and grow the EDB equally) per second; the
  // pollers are paced likewise, so a faster daemon does not buy itself more
  // polls competing with the writer and the submitter.
  threads.emplace_back([&] {
    Conn& conn = *conns[0];
    Samples mine;
    const int64_t start = NowNs();
    for (uint64_t i = 0; WaitTurn(phase, start, i, scale.load_interval_us);
         ++i) {
      const std::string batch = MakeLoadBatch(args.seed, i, scale);
      ++phase.attempted;
      const int64_t t0 = NowNs();
      const exdl::Status status = conn.client.LoadFacts(batch);
      const int64_t t1 = NowNs();
      if (!status.ok()) {
        // An unacknowledged load may or may not be durable; stop writing
        // so the final checks see a well-defined prefix.
        ++phase.failed;
        std::lock_guard<std::mutex> lock(phase.mu);
        out->Failure("LOAD_FACTS " + std::to_string(i) + ": " +
                     status.ToString());
        out->Mismatch("writer stopped after a failed load");
        break;
      }
      mine.Add(t0, t1);
      acked = i + 1;
      ++phase.work;
    }
    std::lock_guard<std::mutex> lock(phase.mu);
    phase.load = std::move(mine);
  });
  // Connections 1-2: POLL the views.
  for (uint32_t c = 1; c <= 2; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = *conns[c];
      Rng rng(MixSeed(args.seed, 20, c));
      Samples mine;
      std::vector<Seen> seen;
      const int64_t start = NowNs();
      for (uint64_t i = 0; WaitTurn(phase, start, i, scale.poll_interval_us);
           ++i) {
        const uint32_t v = static_cast<uint32_t>(rng.Below(view_ids.size()));
        StandingResultMsg result;
        ++phase.attempted;
        const int64_t t0 = NowNs();
        const exdl::Status status = conn.client.PollResult(view_ids[v], &result);
        const int64_t t1 = NowNs();
        if (!status.ok()) {
          ++phase.failed;
          std::lock_guard<std::mutex> lock(phase.mu);
          out->Failure("POLL " + in.views[v].name + ": " + status.ToString());
          conn.Reset();
          continue;
        }
        mine.Add(t0, t1);
        seen.push_back(Seen{v, result.generation, result.answer_count,
                            HashText(result.answers)});
        if (result.full_recomputes != 0) {
          std::lock_guard<std::mutex> lock(phase.mu);
          out->Mismatch("view " + in.views[v].name + " fell back to recompute");
        }
      }
      std::lock_guard<std::mutex> lock(phase.mu);
      phase.poll.Append(mine);
      polled.insert(polled.end(), seen.begin(), seen.end());
    });
  }
  // Connection 3: warm one-shot SUBMITs against the moving EDB.
  threads.emplace_back([&] {
    Conn& conn = *conns[3];
    Rng rng(MixSeed(args.seed, 30));
    const std::vector<uint32_t> weights = Weights(in.oneshot);
    Samples mine;
    std::vector<Seen> seen;
    while (!phase.stop) {
      const uint32_t q = static_cast<uint32_t>(rng.Weighted(weights));
      ResultMsg result;
      std::string err;
      ++phase.attempted;
      const int64_t t0 = NowNs();
      const bool ok = SubmitAwait(&conn.client, in.oneshot[q].name,
                                  in.oneshot[q].source, &result, &err);
      const int64_t t1 = NowNs();
      if (!ok) {
        ++phase.failed;
        std::lock_guard<std::mutex> lock(phase.mu);
        out->Failure(in.oneshot[q].name + ": " + err);
        conn.Reset();
        continue;
      }
      mine.Add(t0, t1);
      ++phase.submits;
      seen.push_back(Seen{q, 0, result.answer_count, HashText(result.answers)});
    }
    std::lock_guard<std::mutex> lock(phase.mu);
    phase.submit = std::move(mine);
    submitted = std::move(seen);
  });

  double rss_mb = 0;
  Drive(phase, args, scale, scale.rss_loads, *daemon, &rss_mb);
  for (std::thread& t : threads) t.join();
  out->submit_p50_ms =
      AddLatency(report, "submit", phase.submit, phase, "submit_qps",
                 Report::Kind::kRate);
  // The writer and the pollers are paced: their rates are set, not speeds.
  AddLatency(report, "load", phase.load, phase, "load_per_s",
             Report::Kind::kPlain);
  AddLatency(report, "poll", phase.poll, phase, "poll_per_s",
             Report::Kind::kPlain);
  FinishReport(report, phase, out, rss_mb);
  report->Note("loads_acknowledged", std::to_string(acked.load()));

  // The writer has stopped: POLL, SUBMIT of the same source, and a cold
  // in-process run must agree for every view.
  const uint64_t final_generation = base_generation + acked;
  std::vector<std::string> facts = in.edb_batches;
  for (uint64_t i = 0; i < acked; ++i) {
    facts.push_back(MakeLoadBatch(args.seed, i, scale));
  }
  const std::string all_facts = Join(facts);
  Reference reference;
  if (!reference.LoadFacts(all_facts, error)) return false;
  DaemonClient client;
  if (!ConnectClient(&client, daemon->endpoint(), error)) return false;
  std::vector<std::vector<uint64_t>> view_prefixes;
  for (size_t v = 0; v < in.views.size(); ++v) {
    std::string expected;
    if (!reference.Answers(in.views[v].source, &expected, error)) return false;
    view_prefixes.push_back(LinePrefixHashes(expected));
    StandingResultMsg polled_final;
    exdl::Status status = client.PollResult(view_ids[v], &polled_final);
    ResultMsg submitted_final;
    std::string err;
    const bool ok = SubmitAwait(&client, in.views[v].name, in.views[v].source,
                                &submitted_final, &err);
    if (!status.ok() || !ok) {
      out->Mismatch("final check of " + in.views[v].name + " failed: " +
                    status.ToString() + " " + err);
      continue;
    }
    if (polled_final.generation != final_generation ||
        polled_final.answers != expected || submitted_final.answers != expected) {
      out->Mismatch("view " + in.views[v].name +
                    ": POLL, SUBMIT and the in-process run disagree");
    }
  }
  for (const Seen& s : polled) {
    const std::vector<uint64_t>& prefix = view_prefixes[s.query];
    if (s.generation < base_generation || s.generation > final_generation ||
        s.count >= prefix.size() || prefix[s.count] != s.hash) {
      out->Mismatch("POLL of " + in.views[s.query].name + " at generation " +
                    std::to_string(s.generation) +
                    " is not a prefix of the final answers");
    }
  }
  for (size_t q = 0; q < in.oneshot.size(); ++q) {
    std::string expected;
    if (!reference.Answers(in.oneshot[q].source, &expected, error)) return false;
    const std::vector<uint64_t> prefix = LinePrefixHashes(expected);
    for (const Seen& s : submitted) {
      if (s.query != q) continue;
      if (s.count >= prefix.size() || prefix[s.count] != s.hash) {
        out->Mismatch("SUBMIT of " + in.oneshot[q].name +
                      " is not a prefix of the final answers");
      }
    }
  }
  client.Close();
  if (!ReadStats(daemon->endpoint(), out, error)) return false;

  // Crash and recover: every acknowledged load must come back.
  daemon->Kill();
  DaemonProcess restarted;
  if (!restarted.Start(args.exdld, dir, flags(dir), error)) return false;
  if (!ConnectClient(&client, restarted.endpoint(), error)) return false;
  for (const Query& dump : RecoveryDumpQueries()) {
    std::string expected;
    if (!reference.Answers(dump.source, &expected, error)) return false;
    ResultMsg result;
    std::string err;
    if (!SubmitAwait(&client, dump.name, dump.source, &result, &err) ||
        result.answers != expected) {
      out->Mismatch("after kill -9 and restart, " + dump.name +
                    " lost acknowledged facts " + err);
    }
  }
  client.Close();
  restarted.Stop();
  return true;
}

}  // namespace

bool RunEndToEnd(const Args& args, const Scale& scale, Report* report,
                 Outcome* outcome, std::string* error) {
  if (args.workload == "warm_eval") {
    return RunWarm(args, scale, report, outcome, error);
  }
  if (args.workload == "cold_compile") {
    return RunCold(args, scale, report, outcome, error);
  }
  if (args.workload == "standing_ingest") {
    return RunIngest(args, scale, report, outcome, error);
  }
  *error = "unknown workload " + args.workload;
  return false;
}

}  // namespace e2e
