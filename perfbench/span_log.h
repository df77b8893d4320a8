// In-memory span log for the traced run.
//
// Spans mark update-level boundaries only (a Cell::step, the allocator
// call inside it, an arena flush, a shard batch, a serve request from
// submit to completion); per-store-call work is summed into counters
// instead, since a GEO update makes ~10^3 store calls.  Each log is owned
// by one thread; logs are written out together as Chrome trace JSON when
// the run ends, so no file I/O happens while measuring.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kStep,       ///< Cell/Engine::step of one update
  kAlloc,      ///< Allocator::insert/erase inside a step
  kFlush,      ///< ArenaStore::end_update (the pending-payload flush)
  kBatch,      ///< one ShardedEngine::run round
  kRequest,    ///< ServingEngine::submit until the completion was seen
};

struct Span {
  SpanKind kind = SpanKind::kStep;
  std::uint32_t lane = 0;    ///< thread lane (shard index, or 0)
  std::uint64_t id = 0;      ///< update index; children share the parent's
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Keeps at most `cap` spans; later ones are counted as dropped.
  explicit SpanLog(std::size_t cap = std::size_t{1} << 18);

  void add(SpanKind kind, std::uint32_t lane, std::uint64_t id,
           std::int64_t begin_ns, std::int64_t end_ns) {
    if (spans_.size() < cap_) {
      spans_.push_back(Span{kind, lane, id, begin_ns, end_ns});
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Writes every log's spans to `path` as Chrome trace JSON ("X" events,
/// microsecond timestamps relative to `origin_ns`).  Returns false when
/// the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::int64_t origin_ns);

}  // namespace perfbench
