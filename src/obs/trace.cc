#include "obs/trace.h"

#include <algorithm>
#include <csignal>

namespace ringdb {
namespace obs {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case kTraceQueueWait: return "queue_wait";
    case kTraceCoalesce: return "coalesce";
    case kTraceWalAppend: return "wal_append";
    case kTraceWalFsync: return "wal_fsync";
    case kTraceApply: return "apply";
    case kTraceFanout: return "fanout";
    case kTraceCheckpoint: return "checkpoint";
    default: return "?";
  }
}

const char* TraceSpanKindName(TraceSpanKind kind) {
  switch (kind) {
    case kSpanQueryApply: return "query_apply";
    case kSpanQueryPublish: return "query_publish";
    case kSpanShardApply: return "shard_apply";
    case kSpanShardSteal: return "shard_steal";
    case kSpanShardPublish: return "shard_publish";
    default: return "?";
  }
}

uint64_t WindowTrace::BeginNs() const {
  uint64_t first = 0;
  for (size_t s = 0; s < kTraceStageCount; ++s) {
    const uint64_t b = stage_begin_ns[s];
    if (b != 0 && (first == 0 || b < first)) first = b;
  }
  return first;
}

uint64_t WindowTrace::EndNs() const {
  uint64_t last = 0;
  for (size_t s = 0; s < kTraceStageCount; ++s) {
    if (stage_end_ns[s] > last) last = stage_end_ns[s];
  }
  const uint64_t first = BeginNs();
  return last > first ? last : first;
}

TraceRecorder::TraceRecorder(size_t capacity)
#ifdef RINGDB_NO_METRICS
    : capacity_(0) {
  (void)capacity;
}
#else
    : capacity_(capacity) {
  if (capacity_ != 0) slots_ = std::make_unique<Slot[]>(capacity_);
}
#endif

void TraceRecorder::BeginWindow(uint64_t seq, uint64_t events) {
  Slot* slot = SlotFor(seq);
  if (slot == nullptr || seq == 0) return;
  // Invalidate the overwritten window before clearing: a concurrent
  // Export that re-reads started sees 0 (or the new seq), never the old
  // seq over half-cleared fields. The fence keeps the relaxed stores
  // below (and every later stage/span store of this window) from
  // becoming visible before the invalidation — a release store alone
  // orders only what precedes it.
  slot->started.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot->finished.store(0, std::memory_order_relaxed);
  slot->events.store(events, std::memory_order_relaxed);
  slot->bytes_logged.store(0, std::memory_order_relaxed);
  slot->flags.store(0, std::memory_order_relaxed);
  for (size_t s = 0; s < kTraceStageCount; ++s) {
    slot->stage_begin[s].store(0, std::memory_order_relaxed);
    slot->stage_end[s].store(0, std::memory_order_relaxed);
  }
  slot->nspans.store(0, std::memory_order_relaxed);
  slot->started.store(seq, std::memory_order_release);
}

void TraceRecorder::Stage(uint64_t seq, TraceStage stage, uint64_t begin_ns,
                          uint64_t end_ns) {
  Slot* slot = SlotFor(seq);
  if (slot == nullptr || stage >= kTraceStageCount) return;
  if (slot->started.load(std::memory_order_acquire) != seq) return;
  slot->stage_begin[stage].store(begin_ns, std::memory_order_relaxed);
  slot->stage_end[stage].store(end_ns, std::memory_order_relaxed);
}

void TraceRecorder::SetBytesLogged(uint64_t seq, uint64_t bytes,
                                   bool synced) {
  Slot* slot = SlotFor(seq);
  if (slot == nullptr) return;
  if (slot->started.load(std::memory_order_acquire) != seq) return;
  slot->bytes_logged.store(bytes, std::memory_order_relaxed);
  if (synced) slot->flags.fetch_or(1, std::memory_order_relaxed);
}

void TraceRecorder::AddSpan(uint64_t seq, TraceSpanKind kind, uint32_t query,
                            uint32_t shard, uint32_t mode, uint64_t begin_ns,
                            uint64_t end_ns) {
  Slot* slot = SlotFor(seq);
  if (slot == nullptr) return;
  if (slot->started.load(std::memory_order_acquire) != seq) return;
  const uint32_t i = slot->nspans.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSpans) {
    dropped_spans_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanSlot& span = slot->spans[i];
  // Pairs with Export()'s acquire fence: a reader that sees this
  // payload also sees everything before our acquire of started=seq,
  // including the invalidation that preceded it, so a copy of window
  // seq - capacity that reads these fields fails its started re-check.
  std::atomic_thread_fence(std::memory_order_release);
  const uint64_t meta = static_cast<uint64_t>(kind) |
                        (static_cast<uint64_t>(query & 0xffff) << 8) |
                        (static_cast<uint64_t>(shard & 0xffff) << 24) |
                        (static_cast<uint64_t>(mode & 0xff) << 40);
  span.meta.store(meta, std::memory_order_relaxed);
  span.begin_ns.store(begin_ns, std::memory_order_relaxed);
  span.end_ns.store(end_ns, std::memory_order_relaxed);
  span.seq.store(seq, std::memory_order_release);
}

void TraceRecorder::FinishWindow(uint64_t seq) {
  Slot* slot = SlotFor(seq);
  if (slot == nullptr) return;
  if (slot->started.load(std::memory_order_acquire) != seq) return;
  slot->finished.store(seq, std::memory_order_release);
}

std::vector<WindowTrace> TraceRecorder::Export() const {
  std::vector<WindowTrace> out;
  if (capacity_ == 0) return out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t seq = slot.started.load(std::memory_order_acquire);
    if (seq == 0) continue;
    WindowTrace w;
    w.seq = seq;
    w.complete = slot.finished.load(std::memory_order_acquire) == seq;
    w.events = slot.events.load(std::memory_order_relaxed);
    w.bytes_logged = slot.bytes_logged.load(std::memory_order_relaxed);
    w.wal_synced =
        (slot.flags.load(std::memory_order_relaxed) & 1) != 0;
    for (size_t s = 0; s < kTraceStageCount; ++s) {
      w.stage_begin_ns[s] =
          slot.stage_begin[s].load(std::memory_order_relaxed);
      w.stage_end_ns[s] = slot.stage_end[s].load(std::memory_order_relaxed);
    }
    uint32_t n = slot.nspans.load(std::memory_order_relaxed);
    if (n > kMaxSpans) n = kMaxSpans;
    w.spans.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      const SpanSlot& span = slot.spans[j];
      // Counted but not (yet) published for this window: the payload is
      // half-written or still belongs to an older window.
      if (span.seq.load(std::memory_order_acquire) != seq) continue;
      const uint64_t meta = span.meta.load(std::memory_order_relaxed);
      TraceSpan s;
      s.kind = static_cast<TraceSpanKind>(meta & 0xff);
      s.query = static_cast<uint32_t>((meta >> 8) & 0xffff);
      s.shard = static_cast<uint32_t>((meta >> 24) & 0xffff);
      s.mode = static_cast<uint32_t>((meta >> 40) & 0xff);
      s.begin_ns = span.begin_ns.load(std::memory_order_relaxed);
      s.end_ns = span.end_ns.load(std::memory_order_relaxed);
      w.spans.push_back(s);
    }
    // Seqlock validation: if the slot was recycled while we copied, the
    // frame moved on — drop the torn copy.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.started.load(std::memory_order_acquire) != seq) continue;
    out.push_back(std::move(w));
  }
  std::sort(out.begin(), out.end(),
            [](const WindowTrace& a, const WindowTrace& b) {
              return a.seq < b.seq;
            });
  return out;
}

namespace {
// Async-signal-safe dump request flag: the handler only stores; the
// pipeline thread polls + exchanges at window boundaries.
std::atomic<bool> g_trace_dump_requested{false};

void TraceDumpSignalHandler(int) {
  g_trace_dump_requested.store(true, std::memory_order_relaxed);
}
}  // namespace

void ArmTraceDumpSignal(int signum) {
  struct sigaction sa = {};
  sa.sa_handler = &TraceDumpSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  (void)sigaction(signum, &sa, nullptr);
}

bool ConsumeTraceDumpRequest() {
  return g_trace_dump_requested.exchange(false, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace ringdb
