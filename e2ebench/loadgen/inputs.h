// Seeded input generation for the three workloads. Everything the daemon
// ever sees — fact batches, query sources, load batches — comes from here,
// so one seed names one input set.

#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Input sizes. `full` is the measured configuration; `tiny` keeps every
/// shape but shrinks the data so the self-test runs in seconds.
struct Scale {
  // warm_eval EDB.
  uint32_t graph_nodes;   ///< g: random sparse graph
  uint32_t graph_edges;
  uint32_t graph_exits;   ///< f: exit edges of the existential TC
  uint32_t chains;        ///< ch: disjoint chains
  uint32_t chain_length;
  uint32_t trees;         ///< par: complete trees (fanout 3)
  uint32_t tree_depth;
  uint32_t catalog;       ///< sup rows of the E2 catalog (mach = 1/8)
  // standing_ingest EDB and load stream.
  uint32_t links;         ///< link: chains hanging off the hub
  uint32_t link_length;
  uint32_t load_interval_us;  ///< writer pacing (closed loop with a floor)
  uint32_t poll_interval_us;  ///< per-poller pacing (closed loop with a floor)
  // Every workload.
  uint32_t warmup_ms;     ///< client traffic before the measured window
  uint32_t min_samples;   ///< SUBMITs per window, so their p99 has >= 10 beyond
  uint32_t rss_ops;       ///< completed SUBMITs at which daemon RSS is read
  uint32_t rss_loads;     ///< standing_ingest: the same, in completed loads
  uint32_t replay_ops;    ///< requests replayed by the traced run
  uint32_t setups;        ///< daemon set-ups per run (setup_s = median)
};

Scale FullScale();
Scale TinyScale();

/// A named query source with its draw weight.
struct Query {
  std::string name;
  std::string source;
  uint32_t weight = 1;
};

std::vector<uint32_t> Weights(const std::vector<Query>& queries);

/// warm_eval: one large EDB (random sparse graph + chains + trees + an E2
/// catalog) shipped as LOAD_FACTS batches, and a fixed query pool smaller
/// than the ProgramCache.
struct WarmInputs {
  std::vector<std::string> edb_batches;
  std::vector<Query> pool;
};
WarmInputs MakeWarmInputs(uint64_t seed, const Scale& scale);

/// cold_compile: a never-repeating source for (client, index): four of the
/// paper's example programs under one existential query. Every
/// predicate and constant carries the suffix, so each submit is a cache
/// miss and its constants intern in the same relative order as in a fresh
/// Context (which makes a fresh in-process run a byte-exact reference).
std::string MakeColdSource(uint64_t seed, uint32_t client, uint64_t index);

/// standing_ingest: chains+hub EDB, the standing views, and the one-shot
/// query pool. Every answer a load adds contains a constant that load
/// interned first, so the answer text at any generation is a prefix of the
/// final text (the check for one-shot replies against a moving EDB).
struct IngestInputs {
  std::vector<std::string> edb_batches;
  std::vector<Query> views;
  std::vector<Query> oneshot;
};
IngestInputs MakeIngestInputs(uint64_t seed, const Scale& scale);
/// LOAD_FACTS batch `index` of the writer's stream: one fresh 3-edge chain.
std::string MakeLoadBatch(uint64_t seed, uint64_t index, const Scale& scale);

/// Queries that dump the durable relations after the restart check.
std::vector<Query> RecoveryDumpQueries();

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_
