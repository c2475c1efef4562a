#include "inputs.h"

#include "harness.h"

namespace e2e {

Scale FullScale() {
  Scale s;
  s.graph_nodes = 6000;
  s.graph_edges = 9000;
  s.graph_exits = 60;
  s.chains = 40;
  s.chain_length = 40;
  s.trees = 4;
  s.tree_depth = 4;
  s.catalog = 4000;
  s.links = 120;
  s.link_length = 40;
  s.load_interval_us = 100000;
  s.poll_interval_us = 20000;
  s.warmup_ms = 2000;
  s.min_samples = 1000;
  s.rss_ops = 1000;
  s.rss_loads = 150;
  s.replay_ops = 400;
  s.setups = 11;
  return s;
}

Scale TinyScale() {
  Scale s;
  s.graph_nodes = 300;
  s.graph_edges = 450;
  s.graph_exits = 6;
  s.chains = 6;
  s.chain_length = 12;
  s.trees = 2;
  s.tree_depth = 3;
  s.catalog = 100;
  s.links = 5;
  s.link_length = 6;
  s.load_interval_us = 500;
  s.poll_interval_us = 200;
  s.warmup_ms = 200;
  s.min_samples = 1000;
  s.rss_ops = 200;
  s.rss_loads = 200;
  s.replay_ops = 60;
  s.setups = 2;
  return s;
}

std::vector<uint32_t> Weights(const std::vector<Query>& queries) {
  std::vector<uint32_t> w;
  for (const Query& q : queries) w.push_back(q.weight);
  return w;
}

namespace {

/// Accumulates ground facts and cuts them into LOAD_FACTS batches.
class FactBatcher {
 public:
  void Add(const std::string& fact) {
    current_ += fact;
    current_ += '\n';
    if (++count_ % kFactsPerBatch == 0) Flush();
  }
  std::vector<std::string> Take() {
    Flush();
    return std::move(batches_);
  }

 private:
  static constexpr uint32_t kFactsPerBatch = 5000;
  void Flush() {
    if (!current_.empty()) batches_.push_back(std::move(current_));
    current_.clear();
  }
  std::string current_;
  std::vector<std::string> batches_;
  uint64_t count_ = 0;
};

std::string Fact2(const std::string& pred, const std::string& a,
                  const std::string& b) {
  return pred + "(" + a + ", " + b + ").";
}

std::string Node(const char* prefix, uint64_t i) {
  return std::string(prefix) + std::to_string(i);
}

std::string ChainNode(const char* prefix, uint64_t chain, uint64_t pos) {
  return std::string(prefix) + std::to_string(chain) + "_" + std::to_string(pos);
}

/// `trees` complete fanout-3 trees of `depth` levels below the root;
/// par(child, parent). Node j of tree t is t<t>_<j> in BFS order.
void AddTrees(FactBatcher& out, uint32_t trees, uint32_t depth) {
  for (uint32_t t = 0; t < trees; ++t) {
    uint64_t level_start = 0;
    uint64_t level_size = 1;
    for (uint32_t d = 0; d < depth; ++d) {
      const uint64_t next_start = level_start + level_size;
      for (uint64_t i = 0; i < level_size * 3; ++i) {
        out.Add(Fact2("par", ChainNode("t", t, next_start + i),
                      ChainNode("t", t, level_start + i / 3)));
      }
      level_start = next_start;
      level_size *= 3;
    }
  }
}

/// First node of the deepest level of a tree built by AddTrees.
uint64_t DeepestLevelStart(uint32_t depth) {
  uint64_t start = 0;
  uint64_t size = 1;
  for (uint32_t d = 0; d < depth; ++d) {
    start += size;
    size *= 3;
  }
  return start;
}

uint64_t DeepestLevelSize(uint32_t depth) {
  uint64_t size = 1;
  for (uint32_t d = 0; d < depth; ++d) size *= 3;
  return size;
}

void AddCatalog(FactBatcher& out, Rng& rng, uint32_t catalog) {
  const uint32_t machines = std::max<uint32_t>(1, catalog / 8);
  for (uint32_t i = 0; i < catalog; ++i) {
    out.Add(Fact2("sup", Node("s", i), Node("m", rng.Below(machines * 2))));
  }
  for (uint32_t i = 0; i < machines; ++i) {
    out.Add("mach(" + Node("m", rng.Below(machines * 2)) + ").");
  }
}

const char kSameGen[] =
    "sg(X, Y) :- par(X, P), par(Y, P).\n"
    "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n";

}  // namespace

WarmInputs MakeWarmInputs(uint64_t seed, const Scale& scale) {
  Rng rng(MixSeed(seed, 1));
  FactBatcher facts;
  for (uint32_t i = 0; i < scale.graph_edges; ++i) {
    facts.Add(Fact2("g", Node("g", rng.Below(scale.graph_nodes)),
                    Node("g", rng.Below(scale.graph_nodes))));
  }
  for (uint32_t i = 0; i < scale.graph_exits; ++i) {
    facts.Add(Fact2("f", Node("g", rng.Below(scale.graph_nodes)),
                    Node("x", i)));
  }
  for (uint32_t c = 0; c < scale.chains; ++c) {
    for (uint32_t p = 0; p + 1 < scale.chain_length; ++p) {
      facts.Add(Fact2("ch", ChainNode("c", c, p), ChainNode("c", c, p + 1)));
    }
  }
  AddTrees(facts, scale.trees, scale.tree_depth);
  AddCatalog(facts, rng, scale.catalog);

  WarmInputs in;
  in.edb_batches = facts.Take();
  const std::string tc =
      "tc(X, Y) :- ch(X, Z), tc(Z, Y).\ntc(X, Y) :- ch(X, Y).\n";
  // Bound binary TC: a selective query whose evaluation is the full TC.
  for (int i = 0; i < 3; ++i) {
    const std::string head = ChainNode("c", rng.Below(scale.chains), 0);
    in.pool.push_back({"tc_bound_" + head, tc + "?- tc(" + head + ", Y).\n", 3});
  }
  // The large answer: every pair of the chains' closure.
  in.pool.push_back({"tc_all", tc + "?- tc(X, Y).\n", 2});
  // Existential TC (Example 1): projection makes it unary and deletion
  // removes the recursion.
  in.pool.push_back({"exist_tc",
                     "q(X) :- a(X, Y).\n"
                     "a(X, Y) :- g(X, Z), a(Z, Y).\n"
                     "a(X, Y) :- g(X, Y).\n?- q(X).\n",
                     3});
  // Existential TC whose exit differs (Example 3a): stays recursive but
  // unary, so the bitset kernels run the recursion.
  in.pool.push_back({"exist_exit",
                     "q(X) :- a(X, Y).\n"
                     "a(X, Y) :- g(X, Z), a(Z, Y).\n"
                     "a(X, Y) :- f(X, Y).\n?- q(X).\n",
                     3});
  // E2: a disconnected catalog join becomes a boolean subquery with a cut.
  in.pool.push_back({"e2_cut",
                     "reach(X) :- g(X, Y), sup(S, M), mach(M).\n"
                     "reach(X) :- g(X, Z), reach(Z), sup(S, M), mach(M).\n"
                     "?- reach(X).\n",
                     3});
  // Same generation (nonlinear recursion), bound to deepest-level nodes.
  const uint64_t deep = DeepestLevelStart(scale.tree_depth);
  const uint64_t deep_size = DeepestLevelSize(scale.tree_depth);
  for (int i = 0; i < 3; ++i) {
    const std::string node = ChainNode("t", rng.Below(scale.trees),
                                       deep + rng.Below(deep_size));
    in.pool.push_back(
        {"sg_" + node, std::string(kSameGen) + "?- sg(" + node + ", Y).\n", 3});
  }
  return in;
}

namespace {

std::string Pred(const char* base, const std::string& sfx) {
  return base + sfx;
}

/// `n` random edges among `nodes` fresh constants k<sfx>_<i>.
std::string RandomEdges(Rng& rng, const std::string& pred,
                        const std::string& sfx, int n, int nodes) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += Fact2(pred, "k" + sfx + "_" + std::to_string(rng.Below(nodes)),
                 "k" + sfx + "_" + std::to_string(rng.Below(nodes)));
    out += '\n';
  }
  return out;
}

std::string RandomUnary(Rng& rng, const std::string& pred,
                        const std::string& sfx, int n, int nodes) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += pred + "(k" + sfx + "_" + std::to_string(rng.Below(nodes)) + ").\n";
  }
  return out;
}

/// One paper-example program with suffix `s` and tiny inline facts, no
/// query; `*out` is the body atom that reads its answer predicate.
std::string ColdBlock(Rng& rng, const std::string& s, std::string* out) {
  std::string src;
  switch (rng.Below(9)) {
    case 0: {  // Example 1: existential reachability.
      const std::string q = Pred("q", s), a = Pred("a", s), p = Pred("p", s);
      src = q + "(X) :- " + a + "(X, Y).\n" + a + "(X, Y) :- " + p +
            "(X, Z), " + a + "(Z, Y).\n" + a + "(X, Y) :- " + p +
            "(X, Y).\n" + RandomEdges(rng, p, s, 5, 5);
      *out = q + "(X)";
      break;
    }
    case 1: {  // Example 2: connected components -> boolean subqueries.
      const std::string p = Pred("p", s);
      src = p + "(X) :- q1" + s + "(X, Y), q2" + s + "(Y, Z), q3" + s +
            "(U, V), q4" + s + "(V), q5" + s + "(W).\nq4" + s +
            "(X) :- q6" + s + "(X).\n" + RandomEdges(rng, "q1" + s, s, 3, 4) +
            RandomEdges(rng, "q2" + s, s, 3, 4) +
            RandomEdges(rng, "q3" + s, s, 2, 4) +
            RandomUnary(rng, "q6" + s, s, 2, 4) +
            RandomUnary(rng, "q5" + s, s, 1, 4);
      *out = p + "(X)";
      break;
    }
    case 2: {  // Example 3a: unary recursion with a different exit.
      const std::string a = Pred("a", s);
      src = a + "(X) :- p" + s + "(X, Z), " + a + "(Z).\n" + a + "(X) :- e" +
            s + "(X, Z).\n" + RandomEdges(rng, "p" + s, s, 5, 6) +
            RandomEdges(rng, "e" + s, s, 1, 6);
      *out = a + "(X)";
      break;
    }
    case 3: {  // Examples 5/6: a^nd over a^nn.
      const std::string nd = Pred("and", s), nn = Pred("ann", s),
                        p = Pred("p", s);
      src = nd + "(X) :- " + nn + "(X, Z), " + p + "(Z, Y).\n" + nd +
            "(X) :- " + p + "(X, Y).\n" + nn + "(X, Y) :- " + nn + "(X, Z), " +
            p + "(Z, Y).\n" + nn + "(X, Y) :- " + p + "(X, Y).\n" +
            RandomEdges(rng, p, s, 5, 5);
      *out = nd + "(X)";
      break;
    }
    case 4: {  // Example 12: a ternary recursion with an existential Z.
      const std::string q = Pred("query", s), p = Pred("p", s);
      src = q + "(X, Y) :- " + p + "(X, Y, Z).\n" + p + "(X, Y, Z) :- up" + s +
            "(X, X1), " + p + "(X1, Y1, Z), dn" + s + "(Y1, Y), c" + s +
            "(Z).\n" + p + "(X, Y, Z) :- b" + s + "(X, Y, Z).\n" +
            RandomEdges(rng, "up" + s, s, 3, 5) +
            RandomEdges(rng, "dn" + s, s, 3, 5) + "b" + s + "(k" + s +
            "_1, k" + s + "_2, k" + s + "_3).\nc" + s + "(k" + s + "_3).\n";
      *out = q + "(X, Y)";
      break;
    }
    case 5: {  // E2: disconnected catalog join with the boolean cut.
      const std::string r = Pred("reach", s), e = Pred("edge", s);
      src = r + "(X) :- " + e + "(X, Y), sup" + s + "(S, M), mach" + s +
            "(M).\n" + r + "(X) :- " + e + "(X, Z), " + r + "(Z), sup" + s +
            "(S, M), mach" + s + "(M).\n" + RandomEdges(rng, e, s, 4, 5) +
            RandomEdges(rng, "sup" + s, s, 2, 5) +
            RandomUnary(rng, "mach" + s, s, 2, 5);
      *out = r + "(X)";
      break;
    }
    case 6: {  // Stratified negation (policies shape).
      src = "member" + s + "(U, G) :- belongs" + s + "(U, G).\nmember" + s +
            "(U, G) :- belongs" + s + "(U, H), sub" + s + "(H, G).\nsub" + s +
            "(H, G) :- parent" + s + "(H, G).\nsub" + s + "(H, G) :- parent" +
            s + "(H, K), sub" + s + "(K, G).\nvis" + s + "(U) :- member" + s +
            "(U, G), owns" + s + "(G, D), not revoked" + s + "(U).\n" +
            RandomEdges(rng, "belongs" + s, s, 3, 6) +
            RandomEdges(rng, "parent" + s, s, 3, 6) +
            RandomEdges(rng, "owns" + s, s, 2, 6) +
            RandomUnary(rng, "revoked" + s, s, 1, 6);
      *out = "vis" + s + "(X)";
      break;
    }
    case 7: {  // Examples 3/4: the projected unary recursion, whose
               // recursive rule Sagiv's test deletes.
      const std::string a = Pred("a", s), p = Pred("p", s);
      src = a + "(X) :- " + p + "(X, Z), " + a + "(Z).\n" + a + "(X) :- " +
            p + "(X, Z).\n" + RandomEdges(rng, p, s, 5, 6);
      *out = a + "(X)";
      break;
    }
    default: {  // Example 7 shape: the unit-rule cascade.
      const std::string q = Pred("q", s);
      src = q + "(X) :- a1" + s + "(X, Y).\n" + q + "(X) :- a1" + s +
            "(X, Z), b2" + s + "(Z, W, V).\n" + q + "(X) :- a2" + s +
            "(X, Z), b3" + s + "(Z, W).\na2" + s + "(X, Z) :- a1" + s +
            "(X, U), b4" + s + "(U, Z).\na1" + s + "(X, Y) :- b1" + s +
            "(X, Y).\n" + RandomEdges(rng, "b1" + s, s, 4, 5) +
            RandomEdges(rng, "b4" + s, s, 2, 5);
      *out = q + "(X)";
      break;
    }
  }
  return src;
}

}  // namespace

std::string MakeColdSource(uint64_t seed, uint32_t client, uint64_t index) {
  // Four example programs joined under one existential query: enough rules
  // that parse and optimize, not process scheduling, dominate a request.
  constexpr int kBlocks = 4;
  Rng rng(MixSeed(seed, 2 + client, index));
  const std::string top = "top_" + std::to_string(client) + "_" +
                          std::to_string(index);
  std::string src;
  for (int b = 0; b < kBlocks; ++b) {
    std::string out;
    src += ColdBlock(rng, top.substr(3) + "_" + std::to_string(b), &out);
    src += top + "(X) :- " + out + ".\n";
  }
  return src + "?- " + top + "(X).\n";
}


IngestInputs MakeIngestInputs(uint64_t seed, const Scale& scale) {
  Rng rng(MixSeed(seed, 3));
  FactBatcher facts;
  for (uint32_t c = 0; c < scale.links; ++c) {
    facts.Add(Fact2("link", "hub", ChainNode("s", c, 0)));
    for (uint32_t p = 0; p + 1 < scale.link_length; ++p) {
      facts.Add(Fact2("link", ChainNode("s", c, p), ChainNode("s", c, p + 1)));
    }
    facts.Add(Fact2("stop", ChainNode("s", c, scale.link_length - 1), "end"));
  }
  AddTrees(facts, scale.trees, scale.tree_depth);
  AddCatalog(facts, rng, scale.catalog);

  IngestInputs in;
  in.edb_batches = facts.Take();
  const std::string head = ChainNode("s", rng.Below(scale.links), 0);
  const std::string deep = ChainNode(
      "t", rng.Below(scale.trees),
      DeepestLevelStart(scale.tree_depth) +
          rng.Below(DeepestLevelSize(scale.tree_depth)));
  // Standing views: the paper's shapes, all on the incremental path (no
  // negation, so no view falls back to full recomputation).
  in.views = {
      {"v_exist", "q(X) :- a(X, Y).\na(X, Y) :- link(X, Z), a(Z, Y).\n"
                  "a(X, Y) :- link(X, Y).\n?- q(X).\n"},
      {"v_exist_exit", "q(X) :- a(X, Y).\na(X, Y) :- link(X, Z), a(Z, Y).\n"
                       "a(X, Y) :- stop(X, Y).\n?- q(X).\n"},
      {"v_hub_reach", "r(X, Y) :- link(X, Y).\n"
                      "r(X, Y) :- link(X, Z), r(Z, Y).\n?- r(hub, Y).\n"},
      {"v_chain_reach", "r(X, Y) :- link(X, Y).\n"
                        "r(X, Y) :- r(X, Z), link(Z, Y).\n?- r(" +
                            head + ", Y).\n"},
      {"v_e2", "reach(X) :- link(X, Y), sup(S, M), mach(M).\n"
               "reach(X) :- link(X, Z), reach(Z), sup(S, M), mach(M).\n"
               "?- reach(X).\n"},
      {"v_ex5", "and(X) :- ann(X, Z), link(Z, Y).\nand(X) :- link(X, Y).\n"
                "ann(X, Y) :- ann(X, Z), link(Z, Y).\n"
                "ann(X, Y) :- link(X, Y).\n?- and(X).\n"},
      {"v_two_hop", "two(X, Y) :- link(X, Z), link(Z, Y).\n?- two(hub, Y).\n"},
      {"v_ex2", "p(X) :- link(X, Y), stop(Y, Z), sup(U, V), mach(V).\n"
                "?- p(X).\n"},
      {"v_sg", std::string(kSameGen) + "?- sg(" + deep + ", Y).\n"},
      {"v_ends", "e(X) :- stop(X, Y).\ne(X) :- link(X, Z), e(Z).\n"
                 "?- e(X).\n"},
  };
  in.oneshot = {
      {"o_two_hop", "two(X, Y) :- link(X, Z), link(Z, Y).\n?- two(hub, Y).\n",
       3},
      {"o_exist_exit", "q(X) :- a(X).\na(X) :- link(X, Z), a(Z).\n"
                       "a(X) :- stop(X, Y).\n?- q(X).\n",
       3},
      {"o_e2", "reach(X) :- link(X, Y), sup(S, M), mach(M).\n"
               "reach(X) :- link(X, Z), reach(Z), sup(S, M), mach(M).\n"
               "?- reach(X).\n",
       2},
      {"o_sg", std::string(kSameGen) + "?- sg(" + deep + ", Y).\n", 2},
  };
  return in;
}

std::string MakeLoadBatch(uint64_t seed, uint64_t index,
                          const Scale& scale) {
  Rng rng(MixSeed(seed, 4, index));
  const std::string base = std::string("w") + std::to_string(index) + "_";
  // Hang the new chain off the hub or off a chain node that already has an
  // outgoing link (never a chain end), so every new answer of every one-shot
  // query contains one of this batch's fresh constants. Every fourth batch
  // goes to the hub, not a random quarter: the hub's answers (o_two_hop,
  // v_hub_reach) then grow alike for every seed.
  const std::string attach =
      index % 4 == 0 ? std::string("hub")
                     : ChainNode("s", rng.Below(scale.links),
                                 rng.Below(scale.link_length - 1));
  return Fact2("link", attach, base + "0") + "\n" +
         Fact2("link", base + "0", base + "1") + "\n" +
         Fact2("link", base + "1", base + "2") + "\n" +
         Fact2("stop", base + "2", "end") + "\n";
}

std::vector<Query> RecoveryDumpQueries() {
  return {{"dump_link", "d(X, Y) :- link(X, Y).\n?- d(X, Y).\n"},
          {"dump_stop", "d(X, Y) :- stop(X, Y).\n?- d(X, Y).\n"}};
}

}  // namespace e2e
