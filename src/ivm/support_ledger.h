// SupportLedger — the counting substrate of incremental view maintenance
// (DESIGN.md §16).
//
// Counting-based maintenance keeps, per derived tuple, the number of
// derivations the fixpoint produced for it; a future retraction pass can
// then decrement supports along the delta and delete only tuples whose
// count reaches zero, instead of recomputing the view (insertions are the
// only delta kind this PR ships, so the ledger is populated but never
// decremented yet). The ledger plugs into the evaluator as a SupportSink:
// Flush reports every buffered head tuple — new and duplicate alike — in
// a deterministic order, so counts are identical across thread counts.
//
// Known limitation, recorded here so the retraction PR does not trip over
// it: the semi-naive variants fire one delta literal per variant with the
// other literals reading the full (delta-inclusive) relation, so a
// derivation whose body uses two delta tuples is reported once per such
// variant. Counts therefore over-approximate true derivation multiplicity
// for multi-delta-literal joins; a DRed-style pass must treat them as an
// upper bound (over-counts delay deletion, they never delete too much —
// but exact counting needs prefix-reads on the non-delta literals first).

#ifndef EXDL_IVM_SUPPORT_LEDGER_H_
#define EXDL_IVM_SUPPORT_LEDGER_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "eval/evaluator.h"
#include "storage/relation.h"

namespace exdl::ivm {

class SupportLedger : public SupportSink {
 public:
  void Derived(PredId pred, std::span<const Value> row,
               bool /*inserted*/) override {
    PerPred& per = counts_[pred];
    key_scratch_.assign(row.begin(), row.end());
    auto it = per.find(key_scratch_);
    if (it == per.end()) {
      per.emplace(key_scratch_, 1);
    } else {
      ++it->second;
    }
    ++derivations_;
  }

  /// Derivation count recorded for one tuple (0 if never derived — EDB
  /// facts are extrinsic and carry no support entry).
  uint64_t SupportOf(PredId pred, std::span<const Value> row) const {
    auto pit = counts_.find(pred);
    if (pit == counts_.end()) return 0;
    std::vector<Value> key(row.begin(), row.end());
    auto it = pit->second.find(key);
    return it == pit->second.end() ? 0 : it->second;
  }

  /// Total derivations tallied (sum of all counts).
  uint64_t total_derivations() const { return derivations_; }

  /// Distinct derived tuples tracked.
  size_t tracked_tuples() const {
    size_t n = 0;
    for (const auto& [pred, per] : counts_) n += per.size();
    return n;
  }

 private:
  using PerPred =
      std::unordered_map<std::vector<Value>, uint64_t, ValueVecHash>;

  std::unordered_map<PredId, PerPred> counts_;
  std::vector<Value> key_scratch_;
  uint64_t derivations_ = 0;
};

}  // namespace exdl::ivm

#endif  // EXDL_IVM_SUPPORT_LEDGER_H_
