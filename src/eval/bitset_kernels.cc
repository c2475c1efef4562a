// Bitset kernels (DESIGN.md §14): JoinExecutor members that run a
// bitset-eligible variant's partition as word-wise loops instead of the
// per-tuple descent, with the descent's derivation order and counters.

#include <bit>

#include "eval/join_executor.h"

namespace exdl {

/// Builds the pre-/post- unary-probe descriptors of a bitset-eligible
/// variant, split around the binary probe step when there is one (no
/// binary probe: everything lands in pre_probes_). Returns false when a
/// probe's backing bitset is unavailable — provenance resolved indexes
/// instead, or a defensive arity mismatch — and the variant must take
/// the generic descent.
bool JoinExecutor::PrepareBitsetVariant(const RulePlan& plan) {
  pre_probes_.clear();
  post_probes_.clear();
  for (size_t s = 1; s < plan.steps.size(); ++s) {
    if (s == plan.binary_probe_step) continue;
    const LiteralStep& step = plan.steps[s];
    BitProbe p;
    p.negated = step.negated;
    const ArgSpec& a = step.args[0];
    if (a.kind == ArgSpec::Kind::kConst) {
      p.const_key = true;
      p.key_const = a.const_value;
    } else {
      p.key_reg = a.reg;
    }
    if (step.negated) {
      // Anti-joins test the full relation (lower stratum: no longer
      // growing); absent/empty relations pass vacuously with no probe,
      // exactly like the generic anti-join branch.
      const Relation* rel = step_rels_[s];
      p.active = rel != nullptr && !rel->empty();
      if (p.active) {
        p.bits = rel->view().bits();
        if (p.bits == nullptr) return false;
      }
    } else {
      p.bits = step_bits_[s];
      if (p.bits == nullptr) return false;
    }
    (s < plan.binary_probe_step ? pre_probes_ : post_probes_).push_back(p);
  }
  return true;
}

// A bitset-eligible partition (`outer` is its slice of step 0's rows)
// runs one of two shapes. Both reproduce the generic descent's derivation
// sequence and counters exactly (DESIGN.md §14).

/// Shape A: unary outer scan, no binary probe. Every surviving binding is
/// a distinct symbol id (the outer relation deduplicates), so the whole
/// partition is one bit mask. Each unary probe is a word-wise AND / ANDNOT
/// over the mask; counters are reconstructed from popcounts (a probe per
/// surviving row, a match per survivor after a positive probe — exactly
/// the generic per-row counts). Emission replays the arena slice in row
/// order against the final mask, so the derivation sequence is the
/// generic one.
void JoinExecutor::RunShapeA(const RulePlan& plan, RowRange outer,
                             DescentState& ws) {
  const Relation::View view = step_rels_[0]->view();
  std::span<const Value> arena = view.Raw();
  std::vector<uint64_t>& mask = ws.mask;
  size_t words = 0;
  if (outer.lo == 0 && outer.hi == view.size()) {
    const UnaryBitset* bits = view.bits();
    words = bits->num_words();
    mask.assign(bits->words(), bits->words() + words);
  } else {
    mask.clear();
    for (uint32_t r = outer.lo; r < outer.hi; ++r) {
      const Value v = arena[r];
      const size_t w = v / UnaryBitset::kWordBits;
      if (w >= words) {
        words = w + 1;
        mask.resize(words, 0);
      }
      mask[w] |= uint64_t{1} << (v % UnaryBitset::kWordBits);
    }
  }
  ws.words_scanned += words;
  uint64_t survivors = outer.hi - outer.lo;
  ws.stats.rows_matched += survivors;

  for (const BitProbe& p : pre_probes_) {
    if (survivors == 0) break;
    if (p.negated && !p.active) continue;  // vacuous pass, no probe
    ws.stats.index_probes += survivors;
    if (p.const_key) {
      ++ws.words_scanned;
      const bool hit = p.bits->Test(p.key_const);
      if (p.negated == hit) {  // positive miss / negated hit: all fail
        survivors = 0;
        break;
      }
      if (!p.negated) ws.stats.rows_matched += survivors;
      continue;  // mask unchanged
    }
    const uint64_t* pb = p.bits->words();
    const size_t pw = p.bits->num_words();
    uint64_t count = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t probe_word = w < pw ? pb[w] : 0;
      mask[w] &= p.negated ? ~probe_word : probe_word;
      count += std::popcount(mask[w]);
    }
    ws.words_scanned += words;
    if (!p.negated) ws.stats.rows_matched += count;
    survivors = count;
  }
  if (survivors == 0) return;

  const uint32_t reg0 = plan.steps[0].args[0].reg;
  for (uint32_t r = outer.lo; r < outer.hi; ++r) {
    const Value v = arena[r];
    const size_t w = v / UnaryBitset::kWordBits;
    if (w >= words || ((mask[w] >> (v % UnaryBitset::kWordBits)) & 1) == 0) {
      continue;
    }
    if (StrideTripped(ws)) return;
    ws.regs[reg0] = v;
    if (!EmitHead(plan, ws, /*extend_run=*/true)) return;
  }
}

/// Shape B: binary outer scan and/or one binary index probe. Per outer
/// row, bind the scan registers straight off the arena, run the
/// pre-probes as single-bit tests, enumerate the one binary index probe
/// (if any) in row-id order binding its fresh register, run the
/// post-probes, emit. One probe / one match count per generic-descent
/// event, in the generic order.
void JoinExecutor::RunShapeB(const RulePlan& plan, RowRange outer,
                             DescentState& ws) {
  const Relation::View view = step_rels_[0]->view();
  std::span<const Value> arena = view.Raw();
  const uint32_t arity = view.arity();
  const LiteralStep& outer_step = plan.steps[0];
  const size_t bp = plan.binary_probe_step;
  const LiteralStep* bstep =
      bp == static_cast<size_t>(-1) ? nullptr : &plan.steps[bp];
  const Relation::Index* bindex = nullptr;
  std::span<const Value> barena;
  uint32_t bfree_pos = 0;
  uint32_t bfree_reg = 0;
  if (bstep != nullptr) {
    bindex = step_indexes_[bp];
    barena = step_rels_[bp]->view().Raw();
    bfree_pos = bstep->index_columns[0] == 0 ? 1 : 0;
    bfree_reg = bstep->args[bfree_pos].reg;
  }
  auto run_probes = [&](const std::vector<BitProbe>& probes) -> bool {
    for (const BitProbe& p : probes) {
      if (p.negated && !p.active) continue;
      ++ws.stats.index_probes;
      ++ws.words_scanned;
      const Value key = p.const_key ? p.key_const : ws.regs[p.key_reg];
      const bool hit = p.bits->Test(key);
      if (p.negated == hit) return false;
      if (!p.negated) ++ws.stats.rows_matched;
    }
    return true;
  };
  for (uint32_t r = outer.lo; r < outer.hi; ++r) {
    if (StrideTripped(ws)) return;
    ++ws.stats.rows_matched;
    const Value* row = arena.data() + static_cast<size_t>(r) * arity;
    for (size_t i = 0; i < outer_step.args.size(); ++i) {
      ws.regs[outer_step.args[i].reg] = row[i];
    }
    if (!run_probes(pre_probes_)) continue;
    if (bstep == nullptr) {
      if (!EmitHead(plan, ws, /*extend_run=*/true)) return;
      continue;
    }
    ++ws.stats.index_probes;
    const Relation::RowIdList* ids =
        bindex->LookupKey(RegKey{bstep, ws.regs.data()});
    if (ids == nullptr) continue;
    for (const uint32_t id : *ids) {
      ++ws.stats.rows_matched;
      ws.regs[bfree_reg] = barena[static_cast<size_t>(id) * 2 + bfree_pos];
      if (!run_probes(post_probes_)) continue;
      if (!EmitHead(plan, ws, /*extend_run=*/true)) return;
    }
  }
}

}  // namespace exdl
