#include "span_log.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStep: return "step";
    case SpanKind::kAlloc: return "alloc";
    case SpanKind::kFlush: return "arena.flush";
    case SpanKind::kBatch: return "shard.batch";
    case SpanKind::kRequest: return "serve.request";
  }
  return "?";
}

}  // namespace

SpanLog::SpanLog(std::size_t cap) : cap_(cap) {
  spans_.reserve(cap_ < 4096 ? cap_ : 4096);
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::int64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"update\":%llu}}",
                    first ? "" : ",", span_name(s.kind), s.lane,
                    static_cast<double>(s.begin_ns - origin_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                    static_cast<unsigned long long>(s.id));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
