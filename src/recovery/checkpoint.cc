#include "recovery/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "recovery/atomic_file.h"

namespace exdl::recovery {

namespace {

constexpr char kMagic[8] = {'E', 'X', 'D', 'L', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8;  // magic, version, flags, len
constexpr size_t kTrailerSize = 4;             // CRC32C

// Section tags. Unknown tags are skipped on decode (a same-version writer
// may append new optional sections); the four below are mandatory.
constexpr uint32_t kTagContext = 1;
constexpr uint32_t kTagDatabase = 2;
constexpr uint32_t kTagCursor = 3;
constexpr uint32_t kTagFingerprint = 4;

// ---- little-endian packing -------------------------------------------

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutBytes(std::string* out, std::string_view bytes) {
  out->append(bytes.data(), bytes.size());
}

/// Appends a section (tag, length, body) to `out`.
void PutSection(std::string* out, uint32_t tag, std::string_view body) {
  PutU32(out, tag);
  PutU64(out, body.size());
  PutBytes(out, body);
}

/// Bounds-checked forward reader over a byte range. Every accessor sets
/// `ok` false (and returns 0/empty) on overrun instead of reading past the
/// end, so decoding can run to completion and fail once at the end.
struct Reader {
  const uint8_t* p;
  size_t n;
  size_t off = 0;
  bool ok = true;

  Reader(const void* data, size_t size)
      : p(static_cast<const uint8_t*>(data)), n(size) {}

  size_t remaining() const { return ok ? n - off : 0; }

  uint32_t U32() {
    if (!ok || n - off < 4) {
      ok = false;
      return 0;
    }
    uint32_t v = static_cast<uint32_t>(p[off]) |
                 (static_cast<uint32_t>(p[off + 1]) << 8) |
                 (static_cast<uint32_t>(p[off + 2]) << 16) |
                 (static_cast<uint32_t>(p[off + 3]) << 24);
    off += 4;
    return v;
  }

  uint64_t U64() {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    return lo | (hi << 32);
  }

  double F64() { return std::bit_cast<double>(U64()); }

  std::string_view Bytes(size_t len) {
    if (!ok || n - off < len) {
      ok = false;
      return {};
    }
    std::string_view v(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return v;
  }

  void Skip(size_t len) { (void)Bytes(len); }
};

Status Corrupt(const std::string& what) {
  return Status::CorruptCheckpoint("corrupt snapshot: " + what);
}

// ---- section encoders -------------------------------------------------

std::string EncodeContext(const Context& ctx) {
  std::string body;
  PutU64(&body, ctx.NumSymbols());
  for (SymbolId s = 0; s < ctx.NumSymbols(); ++s) {
    const std::string& name = ctx.SymbolName(s);
    PutU32(&body, static_cast<uint32_t>(name.size()));
    PutBytes(&body, name);
  }
  PutU64(&body, ctx.NumPredicates());
  for (PredId p = 0; p < ctx.NumPredicates(); ++p) {
    const PredicateInfo& info = ctx.predicate(p);
    PutU32(&body, info.name);
    PutU32(&body, info.arity);
    PutU32(&body, static_cast<uint32_t>(info.adornment.str().size()));
    PutBytes(&body, info.adornment.str());
  }
  return body;
}

std::string EncodeDatabase(const Database& db) {
  // Relations sorted by PredId: the unordered_map iteration order must not
  // leak into the bytes (two checkpoints of the same state must be
  // identical).
  std::vector<std::pair<PredId, const Relation*>> rels;
  rels.reserve(db.relations().size());
  for (const auto& [pred, rel] : db.relations()) rels.emplace_back(pred, &rel);
  std::sort(rels.begin(), rels.end());

  std::string body;
  PutU64(&body, rels.size());
  for (const auto& [pred, rel] : rels) {
    PutU32(&body, pred);
    PutU32(&body, rel->arity());
    PutU64(&body, rel->size());
    for (Value v : rel->view().Raw()) PutU32(&body, v);
  }
  return body;
}

std::string EncodeCursor(const EvalCursor& cursor) {
  std::string body;
  PutU32(&body, cursor.stratum);
  PutU64(&body, cursor.stats.rounds);
  PutU64(&body, cursor.stats.rule_firings);
  PutU64(&body, cursor.stats.tuples_inserted);
  PutU64(&body, cursor.stats.duplicate_inserts);
  PutU64(&body, cursor.stats.index_probes);
  PutU64(&body, cursor.stats.rows_matched);
  PutU64(&body, cursor.stats.rules_retired);
  PutF64(&body, cursor.stats.eval_seconds);
  PutF64(&body, cursor.stats.max_round_seconds);
  PutU64(&body, cursor.delta_lo.size());
  for (const auto& [pred, lo] : cursor.delta_lo) {
    PutU32(&body, pred);
    PutU32(&body, lo);
  }
  PutU64(&body, cursor.retired_rules.size());
  for (uint32_t r : cursor.retired_rules) PutU32(&body, r);
  return body;
}

// ---- section decoders -------------------------------------------------

Status DecodeContextSection(Reader r, Snapshot* snap) {
  const uint64_t num_symbols = r.U64();
  // Every symbol costs at least its 4-byte length prefix: a count larger
  // than that bound cannot be honest, so reject it before reserving.
  if (!r.ok || num_symbols > r.remaining() / 4) {
    return Corrupt("symbol table overruns section");
  }
  snap->symbols.reserve(num_symbols);
  for (uint64_t i = 0; i < num_symbols; ++i) {
    const uint32_t len = r.U32();
    std::string_view name = r.Bytes(len);
    if (!r.ok) return Corrupt("truncated symbol name");
    snap->symbols.emplace_back(name);
  }
  const uint64_t num_preds = r.U64();
  if (!r.ok || num_preds > r.remaining() / 12) {
    return Corrupt("predicate table overruns section");
  }
  snap->preds.reserve(num_preds);
  for (uint64_t i = 0; i < num_preds; ++i) {
    SnapshotPred pred;
    pred.name = r.U32();
    pred.arity = r.U32();
    const uint32_t alen = r.U32();
    std::string_view adornment = r.Bytes(alen);
    if (!r.ok) return Corrupt("truncated predicate entry");
    if (pred.name >= num_symbols) return Corrupt("predicate name id out of range");
    pred.adornment = std::string(adornment);
    if (!pred.adornment.empty()) {
      Result<Adornment> parsed = Adornment::Parse(pred.adornment);
      if (!parsed.ok()) return Corrupt("invalid adornment string");
    }
    snap->preds.push_back(std::move(pred));
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes in context section");
  return Status::Ok();
}

Status DecodeDatabaseSection(Reader r, Snapshot* snap) {
  const uint64_t num_relations = r.U64();
  if (!r.ok || num_relations > r.remaining() / 16) {
    return Corrupt("relation table overruns section");
  }
  for (uint64_t i = 0; i < num_relations; ++i) {
    const PredId pred = r.U32();
    const uint32_t arity = r.U32();
    const uint64_t num_rows = r.U64();
    if (!r.ok) return Corrupt("truncated relation header");
    if (pred >= snap->preds.size()) return Corrupt("relation predicate id out of range");
    if (arity != snap->preds[pred].arity) {
      return Corrupt("relation arity disagrees with predicate table");
    }
    if (snap->db.Find(pred) != nullptr) return Corrupt("duplicate relation entry");
    const uint64_t num_values = num_rows * arity;
    if (arity != 0 && num_values / arity != num_rows) {
      return Corrupt("relation row count overflows");
    }
    if (num_values > r.remaining() / 4) {
      return Corrupt("relation rows overrun section");
    }
    if (arity == 0 && num_rows > 1) {
      return Corrupt("0-ary relation with more than one row");
    }
    std::vector<Value> values;
    values.reserve(num_values);
    for (uint64_t v = 0; v < num_values; ++v) {
      const Value value = r.U32();
      if (value >= snap->symbols.size()) return Corrupt("tuple value out of range");
      values.push_back(value);
    }
    if (!r.ok) return Corrupt("truncated relation rows");
    Relation& rel = snap->db.GetOrCreate(pred, arity);
    if (!rel.LoadRows(values, num_rows)) {
      return Corrupt("duplicate tuple in relation");
    }
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes in database section");
  return Status::Ok();
}

Status DecodeCursorSection(Reader r, Snapshot* snap) {
  EvalCursor& cursor = snap->cursor;
  cursor.stratum = r.U32();
  cursor.stats.rounds = r.U64();
  cursor.stats.rule_firings = r.U64();
  cursor.stats.tuples_inserted = r.U64();
  cursor.stats.duplicate_inserts = r.U64();
  cursor.stats.index_probes = r.U64();
  cursor.stats.rows_matched = r.U64();
  cursor.stats.rules_retired = r.U64();
  cursor.stats.eval_seconds = r.F64();
  cursor.stats.max_round_seconds = r.F64();
  const uint64_t num_delta = r.U64();
  if (!r.ok || num_delta > r.remaining() / 8) {
    return Corrupt("delta watermarks overrun section");
  }
  cursor.delta_lo.reserve(num_delta);
  for (uint64_t i = 0; i < num_delta; ++i) {
    const PredId pred = r.U32();
    const uint32_t lo = r.U32();
    if (!r.ok) return Corrupt("truncated delta watermark");
    if (pred >= snap->preds.size()) return Corrupt("watermark predicate id out of range");
    if (!cursor.delta_lo.empty() && pred <= cursor.delta_lo.back().first) {
      return Corrupt("delta watermarks not strictly sorted");
    }
    const Relation* rel = snap->db.Find(pred);
    const uint32_t size = rel == nullptr ? 0 : static_cast<uint32_t>(rel->size());
    if (lo > size) return Corrupt("delta watermark past relation size");
    cursor.delta_lo.emplace_back(pred, lo);
  }
  const uint64_t num_retired = r.U64();
  if (!r.ok || num_retired > r.remaining() / 4) {
    return Corrupt("retired rules overrun section");
  }
  cursor.retired_rules.reserve(num_retired);
  for (uint64_t i = 0; i < num_retired; ++i) {
    const uint32_t rule = r.U32();
    if (!r.ok) return Corrupt("truncated retired rule list");
    if (!cursor.retired_rules.empty() && rule <= cursor.retired_rules.back()) {
      return Corrupt("retired rules not strictly sorted");
    }
    cursor.retired_rules.push_back(rule);
  }
  if (cursor.stats.rules_retired != cursor.retired_rules.size()) {
    return Corrupt("retired-rule count disagrees with list");
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes in cursor section");
  return Status::Ok();
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n) {
  // Table for the reflected Castagnoli polynomial 0x1EDC6F41 (reversed
  // 0x82F63B78), built on first use.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodeSnapshot(const Context& ctx, const Database& db,
                           const EvalCursor& cursor, uint64_t fingerprint) {
  std::string payload;
  PutSection(&payload, kTagContext, EncodeContext(ctx));
  PutSection(&payload, kTagDatabase, EncodeDatabase(db));
  PutSection(&payload, kTagCursor, EncodeCursor(cursor));
  std::string fp;
  PutU64(&fp, fingerprint);
  PutSection(&payload, kTagFingerprint, fp);

  std::string out;
  out.reserve(kHeaderSize + payload.size() + kTrailerSize);
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kSnapshotVersion);
  PutU32(&out, 0);  // flags
  PutU64(&out, payload.size());
  PutBytes(&out, payload);
  PutU32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Result<Snapshot> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    return Corrupt("shorter than header + checksum");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  Reader header(bytes.data() + sizeof(kMagic),
                kHeaderSize - sizeof(kMagic));
  const uint32_t version = header.U32();
  const uint32_t flags = header.U32();
  const uint64_t payload_len = header.U64();
  if (version != kSnapshotVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  if (flags != 0) return Corrupt("unknown flags");
  if (payload_len != bytes.size() - kHeaderSize - kTrailerSize) {
    return Corrupt("payload length disagrees with file size");
  }
  const size_t checked = kHeaderSize + payload_len;
  Reader trailer(bytes.data() + checked, kTrailerSize);
  const uint32_t stored_crc = trailer.U32();
  const uint32_t actual_crc = Crc32c(bytes.data(), checked);
  if (stored_crc != actual_crc) return Corrupt("checksum mismatch");

  Snapshot snap;
  bool have[5] = {};
  Reader payload(bytes.data() + kHeaderSize, payload_len);
  while (payload.remaining() > 0) {
    const uint32_t tag = payload.U32();
    const uint64_t len = payload.U64();
    std::string_view body = payload.Bytes(len);
    if (!payload.ok) return Corrupt("truncated section");
    if (tag >= 1 && tag <= 4) {
      if (have[tag]) return Corrupt("duplicate section");
      have[tag] = true;
    }
    Reader r(body.data(), body.size());
    switch (tag) {
      case kTagContext:
        EXDL_RETURN_IF_ERROR(DecodeContextSection(r, &snap));
        break;
      case kTagDatabase:
        if (!have[kTagContext]) return Corrupt("database before context");
        EXDL_RETURN_IF_ERROR(DecodeDatabaseSection(r, &snap));
        break;
      case kTagCursor:
        if (!have[kTagContext] || !have[kTagDatabase]) {
          return Corrupt("cursor before context/database");
        }
        EXDL_RETURN_IF_ERROR(DecodeCursorSection(r, &snap));
        break;
      case kTagFingerprint:
        if (r.remaining() != 8) return Corrupt("bad fingerprint section");
        snap.program_fingerprint = r.U64();
        break;
      default:
        break;  // unknown optional section: skip (forward compat)
    }
  }
  for (uint32_t tag = 1; tag <= 4; ++tag) {
    if (!have[tag]) {
      return Corrupt("missing section " + std::to_string(tag));
    }
  }
  return snap;
}

Result<Snapshot> ReadSnapshotFile(const std::string& path) {
  EXDL_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  Result<Snapshot> snap = DecodeSnapshot(bytes);
  if (!snap.ok()) {
    return Status(snap.status().code(),
                  snap.status().message() + " (" + path + ")");
  }
  return snap;
}

std::string Checkpointer::PathIn(const std::string& directory) {
  return directory + "/checkpoint.exdl";
}

Checkpointer::Checkpointer(std::string directory, uint64_t program_fingerprint)
    : path_(PathIn(directory)), fingerprint_(program_fingerprint) {}

Result<uint64_t> Checkpointer::Write(const Context& ctx, const Database& db,
                                     const EvalCursor& cursor) {
  std::string bytes = EncodeSnapshot(ctx, db, cursor, fingerprint_);
  EXDL_RETURN_IF_ERROR(AtomicWriteFile(path_, bytes, /*fault_sites=*/true));
  return static_cast<uint64_t>(bytes.size());
}

}  // namespace exdl::recovery
