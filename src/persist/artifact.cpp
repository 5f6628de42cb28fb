#include "persist/artifact.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/io.hpp"
#include "common/prefix.hpp"

namespace blocktri {

namespace {

// CRC32 shared with the framed-I/O layer (one table for the whole repo).
using io::crc32;

// --- Byte-buffer writer/reader --------------------------------------------
//
// Scalars and vectors of trivially-copyable scalar types are written in the
// host's native byte order; the header's endianness tag lets a
// foreign-endian reader reject the file instead of misreading it. Structs
// are always encoded field by field (never memcpy'd) so padding and enum
// representation cannot leak into the format.

class Writer {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  template <class V>
  void vec(const std::vector<V>& v) {
    static_assert(std::is_arithmetic_v<V>, "field-encode structs explicitly");
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * sizeof(V));
  }

  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  const std::vector<unsigned char>& bytes() const { return buf_; }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked reader over a byte span. The first failed read latches a
/// kTruncated status carrying the absolute byte offset; later reads become
/// no-ops so decode functions can check once at the end.
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t size, std::size_t base)
      : data_(data), size_(size), base_(base) {}

  bool u32(std::uint32_t* v) { return raw(v, sizeof *v); }
  bool u64(std::uint64_t* v) { return raw(v, sizeof *v); }
  bool i32(std::int32_t* v) { return raw(v, sizeof *v); }
  bool i64(std::int64_t* v) { return raw(v, sizeof *v); }
  bool f64(double* v) { return raw(v, sizeof *v); }

  template <class V>
  bool vec(std::vector<V>* out) {
    static_assert(std::is_arithmetic_v<V>, "field-decode structs explicitly");
    std::uint64_t count = 0;
    if (!u64(&count)) return false;
    if (count > (size_ - pos_) / sizeof(V)) return fail();
    out->resize(static_cast<std::size_t>(count));
    if (count != 0) return raw(out->data(), out->size() * sizeof(V));
    return true;
  }

  bool raw(void* p, std::size_t n) {
    if (n > size_ - pos_) return fail();
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// Guards resize() of struct vectors: a legitimate count of items, each at
  /// least `min_item` encoded bytes, cannot exceed the remaining payload —
  /// anything bigger is corruption and must not reach the allocator.
  bool count_ok(std::uint64_t count, std::size_t min_item) {
    if (count > (size_ - pos_) / min_item) return fail();
    return true;
  }

  bool done() const { return pos_ == size_; }
  std::size_t offset() const { return base_ + pos_; }
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  /// Latches a kBadFormat status for a value that decoded cleanly but is
  /// not a legal encoding (e.g. an out-of-range enum), then poisons the
  /// reader like fail(). Always returns false so decoders can `return
  /// r.corrupt(...)`.
  bool corrupt(const std::string& what) {
    if (status_.ok())
      status_ = Status(StatusCode::kBadFormat, "artifact invalid: " + what);
    pos_ = size_;
    return false;
  }

 private:
  bool fail() {
    if (status_.ok())
      status_ = Status(StatusCode::kTruncated,
                       "artifact ends before the encoded data does",
                       static_cast<std::int64_t>(base_ + pos_));
    pos_ = size_;  // poison: every later read fails too
    return false;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t base_;
  std::size_t pos_ = 0;
  Status status_;
};

// --- Field-by-field codecs for the composite types ------------------------

template <class T>
void put_csr(Writer& w, const Csr<T>& a) {
  w.i32(a.nrows);
  w.i32(a.ncols);
  w.vec(a.row_ptr);
  w.vec(a.col_idx);
  w.vec(a.val);
}

template <class T>
bool get_csr(Reader& r, Csr<T>* a) {
  return r.i32(&a->nrows) && r.i32(&a->ncols) && r.vec(&a->row_ptr) &&
         r.vec(&a->col_idx) && r.vec(&a->val);
}

void put_levels(Writer& w, const LevelSets& ls) {
  w.i32(ls.nlevels);
  w.vec(ls.level_of);
  w.vec(ls.level_ptr);
  w.vec(ls.level_item);
}

bool get_levels(Reader& r, LevelSets* ls) {
  return r.i32(&ls->nlevels) && r.vec(&ls->level_of) &&
         r.vec(&ls->level_ptr) && r.vec(&ls->level_item);
}

// --- Section payloads ------------------------------------------------------

enum : std::uint32_t {
  kSectionPlan = 1,
  kSectionStored = 2,
  kSectionTri = 3,
  kSectionSquares = 4,
  kSectionTuning = 5,  // optional: tuned plans only
  kSectionShard = 6,   // optional: shard slices only
  kSectionColor = 7,   // optional: HBMC plans only
};

template <class T>
void encode_plan(Writer& w, const PlanArtifact<T>& art) {
  const BlockPlan& p = art.plan;
  w.u32(static_cast<std::uint32_t>(p.scheme));
  w.i32(p.n);
  w.vec(p.new_of_old);
  w.vec(p.tri_bounds);
  w.u64(p.squares.size());
  for (const SquareBlockRef& s : p.squares) {
    w.i32(s.r0);
    w.i32(s.r1);
    w.i32(s.c0);
    w.i32(s.c1);
  }
  w.u64(p.steps.size());
  for (const ExecStep& s : p.steps) {
    w.u32(static_cast<std::uint32_t>(s.kind));
    w.i32(s.index);
  }
  w.i32(p.depth_used);
  w.i64(p.host_ops);
  w.i64(p.host_bytes);

  w.u64(art.waves.size());
  for (const std::vector<ExecStep>& wave : art.waves) {
    w.u64(wave.size());
    for (const ExecStep& s : wave) {
      w.u32(static_cast<std::uint32_t>(s.kind));
      w.i32(s.index);
    }
  }
  w.i64(art.nnz);
  w.i64(art.build_ops);
  w.i64(art.build_bytes);
}

// Enums are encoded as u32; anything beyond the last enumerator is a
// corrupt file, rejected at decode so a bogus value can never reach an
// executor switch (whose default paths only fire on programmer error).

bool get_step(Reader& r, ExecStep* s) {
  std::uint32_t kind = 0;
  if (!r.u32(&kind) || !r.i32(&s->index)) return false;
  if (kind > static_cast<std::uint32_t>(ExecStep::Kind::kSquare))
    return r.corrupt("execution step kind out of range");
  s->kind = static_cast<ExecStep::Kind>(kind);
  return true;
}

template <class T>
bool decode_plan(Reader& r, PlanArtifact<T>* art) {
  BlockPlan& p = art->plan;
  std::uint32_t scheme = 0;
  if (!r.u32(&scheme)) return false;
  if (scheme > static_cast<std::uint32_t>(BlockScheme::kHbmc))
    return r.corrupt("block scheme out of range");
  p.scheme = static_cast<BlockScheme>(scheme);
  if (!r.i32(&p.n) || !r.vec(&p.new_of_old) || !r.vec(&p.tri_bounds))
    return false;
  std::uint64_t count = 0;
  if (!r.u64(&count) || !r.count_ok(count, 16)) return false;
  p.squares.resize(static_cast<std::size_t>(count));
  for (SquareBlockRef& s : p.squares)
    if (!r.i32(&s.r0) || !r.i32(&s.r1) || !r.i32(&s.c0) || !r.i32(&s.c1))
      return false;
  if (!r.u64(&count) || !r.count_ok(count, 8)) return false;
  p.steps.resize(static_cast<std::size_t>(count));
  for (ExecStep& s : p.steps)
    if (!get_step(r, &s)) return false;
  if (!r.i32(&p.depth_used) || !r.i64(&p.host_ops) || !r.i64(&p.host_bytes))
    return false;

  if (!r.u64(&count) || !r.count_ok(count, 8)) return false;
  art->waves.resize(static_cast<std::size_t>(count));
  for (std::vector<ExecStep>& wave : art->waves) {
    std::uint64_t len = 0;
    if (!r.u64(&len) || !r.count_ok(len, 8)) return false;
    wave.resize(static_cast<std::size_t>(len));
    for (ExecStep& s : wave)
      if (!get_step(r, &s)) return false;
  }
  return r.i64(&art->nnz) && r.i64(&art->build_ops) &&
         r.i64(&art->build_bytes);
}

template <class T>
void encode_stored(Writer& w, const PlanArtifact<T>& art) {
  put_csr(w, art.stored);
}

template <class T>
bool decode_stored(Reader& r, PlanArtifact<T>* art) {
  return get_csr(r, &art->stored);
}

bool has_levels(TriKernelKind kind) {
  return kind == TriKernelKind::kLevelSet ||
         kind == TriKernelKind::kCusparseLike;
}

template <class T>
void encode_tri(Writer& w, const PlanArtifact<T>& art) {
  w.u64(art.tri.size());
  for (const TriBlockArtifact& t : art.tri) {
    w.u32(static_cast<std::uint32_t>(t.kind));
    w.i32(t.nlevels);
    if (has_levels(t.kind)) put_levels(w, t.levels);
  }
}

template <class T>
bool decode_tri(Reader& r, PlanArtifact<T>* art) {
  std::uint64_t count = 0;
  if (!r.u64(&count) || !r.count_ok(count, 8)) return false;
  art->tri.resize(static_cast<std::size_t>(count));
  for (TriBlockArtifact& t : art->tri) {
    std::uint32_t kind = 0;
    if (!r.u32(&kind) || !r.i32(&t.nlevels)) return false;
    if (kind > static_cast<std::uint32_t>(TriKernelKind::kCusparseLike))
      return r.corrupt("triangular kernel kind out of range");
    t.kind = static_cast<TriKernelKind>(kind);
    if (has_levels(t.kind) && !get_levels(r, &t.levels)) return false;
  }
  return true;
}

template <class T>
void encode_squares(Writer& w, const PlanArtifact<T>& art) {
  w.u64(art.squares.size());
  for (const SquareBlockArtifact& q : art.squares) {
    w.u32(static_cast<std::uint32_t>(q.kind));
    w.f64(q.empty_ratio);
  }
}

template <class T>
bool decode_squares(Reader& r, PlanArtifact<T>* art) {
  std::uint64_t count = 0;
  if (!r.u64(&count) || !r.count_ok(count, 12)) return false;
  art->squares.resize(static_cast<std::size_t>(count));
  for (SquareBlockArtifact& q : art->squares) {
    std::uint32_t kind = 0;
    if (!r.u32(&kind) || !r.f64(&q.empty_ratio)) return false;
    if (kind > static_cast<std::uint32_t>(SpmvKernelKind::kVectorDcsr))
      return r.corrupt("square kernel kind out of range");
    q.kind = static_cast<SpmvKernelKind>(kind);
  }
  return true;
}

template <class T>
void encode_tuning(Writer& w, const PlanArtifact<T>& art) {
  w.u32(art.tuned ? 1 : 0);
  w.i64(static_cast<std::int64_t>(art.merge_width));
  w.u32(art.tune_fell_back ? 1 : 0);
  w.u64(art.tune_device);
  w.f64(art.oracle_default_ns);
  w.f64(art.oracle_tuned_ns);
}

template <class T>
bool decode_tuning(Reader& r, PlanArtifact<T>* art) {
  std::uint32_t tuned = 0, fell_back = 0;
  std::int64_t merge_width = 0;
  if (!r.u32(&tuned) || !r.i64(&merge_width) || !r.u32(&fell_back) ||
      !r.u64(&art->tune_device) || !r.f64(&art->oracle_default_ns) ||
      !r.f64(&art->oracle_tuned_ns))
    return false;
  if (merge_width < 1)
    return r.corrupt("tuning section carries a non-positive merge width");
  art->tuned = tuned != 0;
  art->tune_fell_back = fell_back != 0;
  art->merge_width = static_cast<offset_t>(merge_width);
  return true;
}

template <class T>
void encode_shard(Writer& w, const PlanArtifact<T>& art) {
  w.u32(art.shard_index);
  w.u32(art.shard_count);
  w.i32(art.shard_row_begin);
  w.i32(art.shard_row_end);
  w.vec(art.shard_bounds);
}

template <class T>
bool decode_shard(Reader& r, PlanArtifact<T>* art) {
  art->shard = true;
  return r.u32(&art->shard_index) && r.u32(&art->shard_count) &&
         r.i32(&art->shard_row_begin) && r.i32(&art->shard_row_end) &&
         r.vec(&art->shard_bounds);
}

/// HBMC color record (DESIGN.md §16). The fields live inside the BlockPlan;
/// only HBMC plans carry them, so they get an optional section of their own.
template <class T>
void encode_color(Writer& w, const PlanArtifact<T>& art) {
  w.vec(art.plan.color_bounds);
  w.i32(art.plan.hbmc_block_rows);
}

template <class T>
bool decode_color(Reader& r, PlanArtifact<T>* art) {
  if (!r.vec(&art->plan.color_bounds) || !r.i32(&art->plan.hbmc_block_rows))
    return false;
  if (art->plan.color_bounds.empty())
    return r.corrupt("color section carries no color bounds");
  if (art->plan.hbmc_block_rows < 1)
    return r.corrupt("color section carries a non-positive block size");
  return true;
}

// --- File framing -----------------------------------------------------------

constexpr char kMagic[4] = {'B', 'T', 'P', 'A'};
constexpr std::uint32_t kEndianTag = 0x01020304u;

struct SectionSpec {
  std::uint32_t id;
  std::vector<unsigned char> payload;
};

}  // namespace

template <class T>
std::size_t artifact_bytes(const PlanArtifact<T>& art) {
  std::size_t b = sizeof(PlanArtifact<T>);
  b += art.plan.new_of_old.size() * sizeof(index_t);
  b += (art.plan.tri_bounds.size() + art.plan.color_bounds.size() +
        art.shard_bounds.size()) *
       sizeof(index_t);
  b += art.plan.squares.size() * sizeof(SquareBlockRef);
  b += art.plan.steps.size() * sizeof(ExecStep);
  for (const auto& wave : art.waves) b += wave.size() * sizeof(ExecStep);
  b += art.stored.row_ptr.size() * sizeof(offset_t) +
       art.stored.col_idx.size() * sizeof(index_t) +
       art.stored.val.size() * sizeof(T);
  for (const TriBlockArtifact& t : art.tri)
    b += sizeof(TriBlockArtifact) +
         (t.levels.level_of.size() + t.levels.level_item.size()) *
             sizeof(index_t) +
         t.levels.level_ptr.size() * sizeof(offset_t);
  b += art.squares.size() * sizeof(SquareBlockArtifact);
  return b;
}

template <class T>
Status save_artifact(const std::string& path, const PlanArtifact<T>& art) {
  if (Status st = validate_artifact(art); !st.ok()) return st;

  std::vector<SectionSpec> sections;
  {
    Writer w;
    encode_plan(w, art);
    sections.push_back({kSectionPlan, w.bytes()});
  }
  {
    Writer w;
    encode_stored(w, art);
    sections.push_back({kSectionStored, w.bytes()});
  }
  {
    Writer w;
    encode_tri(w, art);
    sections.push_back({kSectionTri, w.bytes()});
  }
  {
    Writer w;
    encode_squares(w, art);
    sections.push_back({kSectionSquares, w.bytes()});
  }
  if (art.tuned) {
    Writer w;
    encode_tuning(w, art);
    sections.push_back({kSectionTuning, w.bytes()});
  }
  if (art.shard) {
    Writer w;
    encode_shard(w, art);
    sections.push_back({kSectionShard, w.bytes()});
  }
  if (!art.plan.color_bounds.empty()) {
    Writer w;
    encode_color(w, art);
    sections.push_back({kSectionColor, w.bytes()});
  }

  Writer file;
  file.raw(kMagic, sizeof kMagic);
  file.u32(kArtifactFormatVersion);
  file.u32(kEndianTag);
  file.u32(static_cast<std::uint32_t>(sizeof(T)));
  file.u64(art.structure);
  file.u64(art.options);
  file.i64(static_cast<std::int64_t>(art.plan.n));
  file.i64(static_cast<std::int64_t>(art.nnz));
  file.u32(static_cast<std::uint32_t>(sections.size()));
  for (const SectionSpec& s : sections) {
    file.u32(s.id);
    file.u64(s.payload.size());
    file.u32(crc32(s.payload.data(), s.payload.size()));
    file.raw(s.payload.data(), s.payload.size());
  }

  // Write to a side file and rename into place so a crashed writer leaves
  // either the old artifact or none — never a truncated new one.
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    return Status(StatusCode::kBadFormat,
                  "cannot open '" + tmp + "' for writing");
  const std::vector<unsigned char>& bytes = file.bytes();
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kBadFormat, "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kBadFormat,
                  "cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

namespace persist_testing {

namespace {
std::atomic<int> g_forced_io_failures{0};
}  // namespace

void force_io_failures(int n) {
  g_forced_io_failures.store(n, std::memory_order_relaxed);
}

int pending_io_failures() {
  return g_forced_io_failures.load(std::memory_order_relaxed);
}

}  // namespace persist_testing

template <class T>
Status load_artifact(const std::string& path, PlanArtifact<T>* out) {
  BLOCKTRI_CHECK(out != nullptr);
  // Transient-I/O fault hook: each armed failure consumes one load attempt,
  // so tests can prove the retry-with-backoff path end to end.
  for (int n = persist_testing::g_forced_io_failures.load(
           std::memory_order_relaxed);
       n > 0;) {
    if (persist_testing::g_forced_io_failures.compare_exchange_weak(
            n, n - 1, std::memory_order_relaxed))
      return Status(StatusCode::kIoError,
                    "injected transient read failure loading '" + path + "'");
  }
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Status(StatusCode::kBadFormat, "cannot open '" + path + "'");
  std::vector<unsigned char> bytes;
  {
    unsigned char chunk[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
      bytes.insert(bytes.end(), chunk, chunk + got);
    // fread stops on both EOF and error; only ferror distinguishes a
    // mid-file I/O failure from a genuinely short file, and the two must
    // not be conflated — a read error says nothing about the file's bytes.
    const bool io_error = std::ferror(f) != 0;
    std::fclose(f);
    if (io_error)
      return Status(StatusCode::kIoError,
                    "read error while loading '" + path + "'");
  }

  Reader header(bytes.data(), bytes.size(), 0);
  char magic[4] = {};
  std::uint32_t version = 0, endian = 0, width = 0, nsections = 0;
  PlanArtifact<T> art;
  std::int64_t n_header = 0, nnz_header = 0;
  if (!header.raw(magic, sizeof magic)) return header.status();
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    return Status(StatusCode::kBadFormat,
                  "'" + path + "' is not a blocktri plan artifact (bad magic)");
  if (!header.u32(&version)) return header.status();
  if (version != kArtifactFormatVersion)
    return Status(StatusCode::kVersionMismatch,
                  "artifact format version " + std::to_string(version) +
                      ", this build reads only version " +
                      std::to_string(kArtifactFormatVersion) +
                      " (recapture the plan from the matrix)");
  if (!header.u32(&endian)) return header.status();
  if (endian != kEndianTag)
    return Status(StatusCode::kBadFormat,
                  "artifact written on a foreign-endian host");
  if (!header.u32(&width)) return header.status();
  if (width != sizeof(T))
    return Status(StatusCode::kBadFormat,
                  "artifact holds " + std::to_string(width * 8) +
                      "-bit values, loader expects " +
                      std::to_string(sizeof(T) * 8) + "-bit");
  if (!header.u64(&art.structure) || !header.u64(&art.options) ||
      !header.i64(&n_header) || !header.i64(&nnz_header) ||
      !header.u32(&nsections))
    return header.status();

  std::size_t offset = header.offset();
  bool have[kSectionColor + 1] = {};
  for (std::uint32_t s = 0; s < nsections; ++s) {
    Reader frame(bytes.data() + offset, bytes.size() - offset, offset);
    std::uint32_t id = 0, crc = 0;
    std::uint64_t size = 0;
    if (!frame.u32(&id) || !frame.u64(&size) || !frame.u32(&crc))
      return frame.status();
    const std::size_t payload_off = frame.offset();
    if (size > bytes.size() - payload_off)
      return Status(StatusCode::kTruncated,
                    "section " + std::to_string(id) + " claims " +
                        std::to_string(size) + " bytes past end of file",
                    static_cast<std::int64_t>(payload_off));
    const unsigned char* payload = bytes.data() + payload_off;
    if (crc32(payload, static_cast<std::size_t>(size)) != crc)
      return Status(StatusCode::kChecksumMismatch,
                    "section " + std::to_string(id) +
                        " payload does not match its CRC32",
                    static_cast<std::int64_t>(payload_off));
    Reader r(payload, static_cast<std::size_t>(size), payload_off);
    bool ok = false;
    switch (id) {
      case kSectionPlan: ok = decode_plan(r, &art); break;
      case kSectionStored: ok = decode_stored(r, &art); break;
      case kSectionTri: ok = decode_tri(r, &art); break;
      case kSectionSquares: ok = decode_squares(r, &art); break;
      case kSectionTuning: ok = decode_tuning(r, &art); break;
      case kSectionShard: ok = decode_shard(r, &art); break;
      case kSectionColor: ok = decode_color(r, &art); break;
      default:
        return Status(StatusCode::kBadFormat,
                      "unknown artifact section id " + std::to_string(id));
    }
    if (!ok || !r.done())
      return r.ok() ? Status(StatusCode::kBadFormat,
                             "section " + std::to_string(id) +
                                 " has trailing or missing bytes")
                    : r.status();
    if (id <= kSectionColor) have[id] = true;
    offset = payload_off + static_cast<std::size_t>(size);
  }
  for (std::uint32_t id : {kSectionPlan, kSectionStored, kSectionTri,
                           kSectionSquares})
    if (!have[id])
      return Status(StatusCode::kTruncated,
                    "artifact is missing section " + std::to_string(id),
                    static_cast<std::int64_t>(offset));

  if (art.plan.n != static_cast<index_t>(n_header) || art.nnz != nnz_header)
    return Status(StatusCode::kBadFormat,
                  "artifact header (n, nnz) disagrees with the plan section");
  if (Status st = validate_artifact(art); !st.ok()) return st;
  *out = std::move(art);
  return Status::Ok();
}

namespace {
Status bad(const std::string& what) {
  return Status(StatusCode::kBadFormat, "artifact invalid: " + what);
}

bool indices_in_range(const std::vector<index_t>& idx, index_t limit) {
  for (const index_t v : idx)
    if (v < 0 || v >= limit) return false;
  return true;
}

/// front == 0, monotonically non-decreasing, back == nnz — the shape every
/// compressed pointer array (row_ptr / level_ptr) must have for
/// `ptr[i]..ptr[i+1]` loops to stay inside the payload arrays.
bool ptr_consistent(const std::vector<offset_t>& ptr, std::size_t nnz) {
  if (ptr.empty() || ptr.front() != 0 ||
      ptr.back() != static_cast<offset_t>(nnz))
    return false;
  for (std::size_t i = 1; i < ptr.size(); ++i)
    if (ptr[i] < ptr[i - 1]) return false;
  return true;
}

bool on_leaf_grid(const std::vector<index_t>& tri_bounds, index_t row) {
  return std::binary_search(tri_bounds.begin(), tri_bounds.end(), row);
}

/// `stored` must be rows [row_begin, row_begin + nrows) of an n × n lower
/// triangle: each row non-empty, columns strictly ascending (extract_block
/// binary-searches them) and non-negative, the diagonal last — the kernels
/// built from it divide by the trailing entry and gather x from the others.
template <class T>
Status check_stored(const Csr<T>& a, index_t row_begin, index_t row_end,
                    index_t n) {
  if (a.nrows != row_end - row_begin || a.ncols != n ||
      a.row_ptr.size() != static_cast<std::size_t>(a.nrows) + 1 ||
      a.col_idx.size() != a.val.size())
    return bad("stored matrix shape does not match its row range");
  if (!ptr_consistent(a.row_ptr, a.val.size()))
    return bad("stored matrix row pointers are inconsistent");
  for (index_t i = 0; i < a.nrows; ++i) {
    const auto lo = static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(i)]);
    const auto hi = static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(i) + 1]);
    if (hi == lo) return bad("stored matrix row is empty");
    if (a.col_idx[lo] < 0) return bad("stored column index out of range");
    for (std::size_t k = lo + 1; k < hi; ++k)
      if (a.col_idx[k] <= a.col_idx[k - 1])
        return bad("stored row columns are not strictly ascending");
    if (a.col_idx[hi - 1] > row_begin + i)
      return bad("stored matrix has an entry above the diagonal");
    if (a.col_idx[hi - 1] != row_begin + i)
      return bad("stored matrix row lacks its diagonal entry");
  }
  return Status::Ok();
}

/// Entries of stored row `i` (local) strictly inside the block's columns
/// [c0, diagonal): the in-block strictly-lower dependencies.
template <class T>
std::pair<std::size_t, std::size_t> strict_in_block(const Csr<T>& a, index_t i,
                                                    index_t c0) {
  const auto* base = a.col_idx.data();
  const auto lo = static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(i)]);
  const auto hi = static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(i) + 1]);
  const auto first = static_cast<std::size_t>(
      std::lower_bound(base + lo, base + hi - 1, c0) - base);
  return {first, hi - 1};  // the diagonal is last (check_stored)
}

/// A persisted level set must be a valid schedule of its block: level_item a
/// permutation of [0, len) grouped by level_ptr, every row's level_of equal
/// to the level of its slot, and every strictly-lower in-block entry (i, j)
/// with level_of[j] < level_of[i] — otherwise a row could run before a row
/// it depends on and the solve would be silently wrong. `local` is false for
/// a shard slice's foreign blocks, whose rows the slice does not hold: only
/// the shape is checked there (the worker never builds them).
template <class T>
Status check_level_sets(const LevelSets& ls, const Csr<T>& stored,
                        index_t row_begin, index_t r0, index_t r1,
                        bool local) {
  const index_t len = r1 - r0;
  if (ls.nlevels < 0 ||
      ls.level_of.size() != static_cast<std::size_t>(len) ||
      ls.level_item.size() != static_cast<std::size_t>(len) ||
      ls.level_ptr.size() != static_cast<std::size_t>(ls.nlevels) + 1)
    return bad("tri block level analysis does not match the block");
  if (!ptr_consistent(ls.level_ptr, static_cast<std::size_t>(len)))
    return bad("tri block level pointers do not cover the block");
  if (!indices_in_range(ls.level_item, len))
    return bad("tri block level item out of range");
  if (!indices_in_range(ls.level_of, ls.nlevels))
    return bad("tri block level assignment out of range");
  if (!local) return Status::Ok();

  std::vector<char> seen(static_cast<std::size_t>(len), 0);
  for (index_t l = 0; l < ls.nlevels; ++l)
    for (offset_t p = ls.level_ptr[static_cast<std::size_t>(l)];
         p < ls.level_ptr[static_cast<std::size_t>(l) + 1]; ++p) {
      const auto item =
          static_cast<std::size_t>(ls.level_item[static_cast<std::size_t>(p)]);
      if (seen[item] != 0) return bad("tri block level items repeat a row");
      seen[item] = 1;
      if (ls.level_of[item] != l)
        return bad("tri block level assignment disagrees with its slot");
    }
  for (index_t i = r0; i < r1; ++i) {
    const auto [first, diag] = strict_in_block(stored, i - row_begin, r0);
    const index_t li = ls.level_of[static_cast<std::size_t>(i - r0)];
    for (std::size_t k = first; k < diag; ++k)
      if (ls.level_of[static_cast<std::size_t>(stored.col_idx[k] - r0)] >= li)
        return bad("tri block level sets are not a valid schedule");
  }
  return Status::Ok();
}
}  // namespace

template <class T>
Status validate_artifact(const PlanArtifact<T>& art) {
  const BlockPlan& p = art.plan;
  if (p.n < 0) return bad("negative dimension");
  if (static_cast<std::uint32_t>(p.scheme) >
      static_cast<std::uint32_t>(BlockScheme::kHbmc))
    return bad("block scheme out of range");
  if (p.new_of_old.size() != static_cast<std::size_t>(p.n))
    return bad("permutation length != n");
  if (!is_permutation_of_iota(p.new_of_old))
    return bad("new_of_old is not a permutation of [0, n)");
  if (p.tri_bounds.size() < 2 || p.tri_bounds.front() != 0 ||
      p.tri_bounds.back() != p.n)
    return bad("triangular bounds do not cover [0, n)");
  if (!std::is_sorted(p.tri_bounds.begin(), p.tri_bounds.end()))
    return bad("triangular bounds are not ascending");
  if ((p.scheme == BlockScheme::kHbmc) != !p.color_bounds.empty())
    return bad("color bounds must be present exactly for the hbmc scheme");
  if (!p.color_bounds.empty()) {
    if (p.hbmc_block_rows < 1)
      return bad("hbmc aggregation block size is not positive");
    if (p.color_bounds.front() != 0 || p.color_bounds.back() != p.n)
      return bad("color bounds do not cover [0, n)");
    if (!std::is_sorted(p.color_bounds.begin(), p.color_bounds.end()))
      return bad("color bounds are not ascending");
    // Every color boundary must be a triangular leaf boundary — the wave
    // builder and the shard planner only ever cut at tri_bounds, so a color
    // bound off the leaf grid would break the per-color independence the
    // scheme's 2C-1-wave schedule relies on.
    for (const index_t c : p.color_bounds)
      if (!on_leaf_grid(p.tri_bounds, c))
        return bad("color bound does not land on a triangular leaf bound");
  }
  if (art.tri.size() != p.tri_bounds.size() - 1)
    return bad("triangular block count != plan leaves");
  if (art.squares.size() != p.squares.size())
    return bad("square block count != plan squares");
  const auto ntri = static_cast<index_t>(art.tri.size());
  const auto nsq = static_cast<index_t>(art.squares.size());
  const auto check_step = [&](const ExecStep& s) {
    if (s.kind != ExecStep::Kind::kTri && s.kind != ExecStep::Kind::kSquare)
      return bad("execution step kind out of range");
    const index_t limit = s.kind == ExecStep::Kind::kTri ? ntri : nsq;
    if (s.index < 0 || s.index >= limit)
      return bad("execution step references a missing block");
    return Status::Ok();
  };
  for (const ExecStep& s : p.steps)
    if (Status st = check_step(s); !st.ok()) return st;
  for (const auto& wave : art.waves)
    for (const ExecStep& s : wave)
      if (Status st = check_step(s); !st.ok()) return st;

  index_t row_begin = 0, row_end = p.n;
  if (art.shard) {
    // A shard slice holds the rows of its interval of the cut; cuts must be
    // actual recursion boundaries (never through a triangle).
    if (art.shard_count < 1 || art.shard_index >= art.shard_count)
      return bad("shard index outside the shard count");
    if (art.shard_bounds.size() !=
        static_cast<std::size_t>(art.shard_count) + 1)
      return bad("shard bound count != shard count + 1");
    if (art.shard_bounds.front() != 0 || art.shard_bounds.back() != p.n)
      return bad("shard bounds do not cover [0, n)");
    for (std::size_t i = 0; i < art.shard_bounds.size(); ++i) {
      if (i > 0 && art.shard_bounds[i] <= art.shard_bounds[i - 1])
        return bad("shard bounds are not strictly ascending");
      if (!on_leaf_grid(p.tri_bounds, art.shard_bounds[i]))
        return bad("shard cut splits a triangular leaf");
    }
    row_begin = art.shard_row_begin;
    row_end = art.shard_row_end;
    if (row_begin != art.shard_bounds[art.shard_index] ||
        row_end != art.shard_bounds[art.shard_index + 1])
      return bad("shard row range disagrees with its bounds entry");
  }
  if (Status st = check_stored(art.stored, row_begin, row_end, p.n); !st.ok())
    return st;
  if (!art.shard && art.stored.nnz() != art.nnz)
    return bad("stored matrix nnz disagrees with the header");

  for (std::size_t t = 0; t < art.tri.size(); ++t) {
    const TriBlockArtifact& b = art.tri[t];
    const index_t r0 = p.tri_bounds[t], r1 = p.tri_bounds[t + 1];
    const bool local = r0 >= row_begin && r1 <= row_end;
    switch (b.kind) {
      case TriKernelKind::kCompletelyParallel:
        // The diagonal kernel ignores off-diagonal entries, so the block
        // must really have none.
        for (index_t i = r0; local && i < r1; ++i) {
          const auto [first, diag] = strict_in_block(art.stored, i - row_begin, r0);
          if (first != diag)
            return bad("completely-parallel block is not diagonal");
        }
        break;
      case TriKernelKind::kLevelSet:
      case TriKernelKind::kCusparseLike:
        if (Status st = check_level_sets(b.levels, art.stored, row_begin, r0,
                                         r1, local);
            !st.ok())
          return st;
        break;
      case TriKernelKind::kSyncFree:
        break;
      default:
        return bad("unknown triangular kernel kind");
    }
  }

  for (std::size_t q = 0; q < art.squares.size(); ++q) {
    const SquareBlockRef& ref = p.squares[q];
    if (ref.r0 < 0 || ref.r0 > ref.r1 || ref.r1 > p.n || ref.c0 < 0 ||
        ref.c0 > ref.c1 || ref.c1 > p.n)
      return bad("square block range is outside the matrix");
    if (static_cast<std::uint32_t>(art.squares[q].kind) >
        static_cast<std::uint32_t>(SpmvKernelKind::kVectorDcsr))
      return bad("unknown square kernel kind");
  }

  if (art.merge_width < 1) return bad("non-positive level-merge width");
  if (art.tuned && (!std::isfinite(art.oracle_default_ns) ||
                    !std::isfinite(art.oracle_tuned_ns) ||
                    art.oracle_default_ns < 0.0 || art.oracle_tuned_ns < 0.0))
    return bad("tuning record carries invalid oracle timings");
  return Status::Ok();
}

#define BLOCKTRI_INSTANTIATE(T)                                             \
  template std::size_t artifact_bytes(const PlanArtifact<T>&);              \
  template Status save_artifact(const std::string&, const PlanArtifact<T>&); \
  template Status load_artifact(const std::string&, PlanArtifact<T>*);      \
  template Status validate_artifact(const PlanArtifact<T>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
