#include "trace.h"

#ifdef PERFBENCH_TRACED

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<size_t> open;  // indexes into spans, innermost last
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;  // guarded
std::atomic<int64_t> g_next_id{0};

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

int64_t BeginSpan(const char* name, uint64_t request) {
  ThreadBuffer& buffer = LocalBuffer();
  SpanRecord span;
  span.name = name;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (!buffer.open.empty()) {
    const SpanRecord& parent = buffer.spans[buffer.open.back()];
    span.parent = parent.id;
    if (request == 0) request = parent.request;
  }
  span.request = request;
  buffer.spans.push_back(std::move(span));
  buffer.open.push_back(buffer.spans.size() - 1);
  // Read the clock and the tally last, so the bookkeeping above is not
  // charged to the span.
  SpanRecord& opened = buffer.spans.back();
  opened.allocs = ThreadAllocs();
  opened.start = NowSeconds();
  return opened.id;
}

void EndSpan() {
  const double now = NowSeconds();
  const AllocTally allocs = ThreadAllocs();
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.open.empty()) return;
  SpanRecord& span = buffer.spans[buffer.open.back()];
  buffer.open.pop_back();
  span.end = now;
  span.allocs.count = allocs.count - span.allocs.count;
  span.allocs.bytes = allocs.bytes - span.allocs.bytes;
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& span : buffer->spans) {
      if (span.end > 0.0) all.push_back(span);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

bool WriteSpans(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& s : CollectSpans()) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"id\": %lld, \"parent\": %lld, \"request\": %llu, "
                 "\"allocs\": %llu, \"alloc_bytes\": %llu}\n",
                 s.name.c_str(), s.start, s.end, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.allocs.count),
                 static_cast<unsigned long long>(s.allocs.bytes));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACED
