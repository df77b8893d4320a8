// Timing proxies for the traced run.
//
// The library's layers meet at two virtual interfaces: allocators call
// the LayoutStore they were built on, and the engine calls the Allocator.
// TimedStore and TimedAllocator sit on those seams, forward every call
// unchanged, and sum the time spent behind them plus per-update counts
// (store calls, item moves, reordering moves, queries).  TracedCell wires
// a release cell out of them:
//
//   engine -> TimedAllocator -> allocator -> [TimedStore "arena"
//          -> ArenaStore] -> TimedStore "release" -> SlabStore
//
// (the bracketed part only for arena cells), so every layer's self time
// is its inclusive time minus the inclusive time of the proxy below it.
// A proxy's own bookkeeping (clock reads, the neighbour lookups that flag
// reordering moves) is excluded from every layer and shows up only as
// trace overhead.  Layouts and costs are bit-identical to the bare store;
// the benchmark's tests and its traced run both check that.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "arena/arena_store.h"
#include "core/allocator.h"
#include "core/engine.h"
#include "core/layout_store.h"
#include "harness/cell.h"
#include "release/release_engine.h"
#include "release/slab_store.h"
#include "span_log.h"

namespace perfbench {

using memreal::ItemId;
using memreal::Tick;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The proxies' clock.  On x86-64 it reads the timestamp counter, which
/// costs half a steady_clock read; that matters at ~10^3 timed store
/// calls per update.  Ticks convert to steady_clock nanoseconds with a
/// rate calibrated once per process.
class ProxyClock {
 public:
  static std::uint64_t now() {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(now_ns());
#endif
  }
  /// The process-wide calibration (~20 ms on first use).
  static const ProxyClock& get();

  [[nodiscard]] double ns(std::uint64_t ticks) const {
    return static_cast<double>(ticks) * ns_per_tick_;
  }
  /// A tick stamp as a steady_clock time in ns (span timestamps).
  [[nodiscard]] std::int64_t steady_ns(std::uint64_t stamp) const {
    return ns0_ + static_cast<std::int64_t>(
                      (static_cast<double>(stamp) - static_cast<double>(tick0_)) *
                      ns_per_tick_);
  }

 private:
  ProxyClock();
  double ns_per_tick_ = 1.0;
  std::uint64_t tick0_ = 0;
  std::int64_t ns0_ = 0;
};

/// What the proxies of one cell share: whether the allocator is running
/// (to split store time into allocator-driven and engine-driven), the
/// update being applied, and where update-level spans go.
struct TraceContext {
  bool in_alloc = false;
  std::uint32_t lane = 0;
  std::uint64_t update = 0;
  SpanLog* spans = nullptr;
};

/// Sums kept by one TimedStore.  O(1) scalar getters (capacity,
/// live_mass, ...) are counted but not timed: two clock reads would cost
/// more than the call, and the few ns they take stay in the caller's self
/// time.
struct StoreCounters {
  std::uint64_t calls = 0;          ///< every forwarded call
  std::uint64_t queries = 0;        ///< read-only calls among them
  std::uint64_t moves = 0;          ///< relocations that changed an offset
  std::uint64_t reorder_moves = 0;  ///< ... that also changed its neighbours
  double ns = 0;                 ///< inside the wrapped store (timed calls)
  double outer_ns = 0;           ///< ns plus this proxy's bookkeeping
  double outer_ns_in_alloc = 0;  ///< part of outer_ns under the allocator
  double move_ns = 0;            ///< inside move_to / apply_run
  double end_update_ns = 0;      ///< inside end_update

  StoreCounters& operator+=(const StoreCounters& o);
};

class TimedStore final : public memreal::LayoutStore {
 public:
  /// `flush_spans`: record each end_update as an arena-flush span.
  TimedStore(memreal::LayoutStore& inner, TraceContext& ctx,
             bool flush_spans = false)
      : inner_(&inner),
        ctx_(&ctx),
        clock_(&ProxyClock::get()),
        flush_spans_(flush_spans) {}

  TimedStore(const TimedStore&) = delete;
  TimedStore& operator=(const TimedStore&) = delete;

  [[nodiscard]] const StoreCounters& counters() const { return c_; }
  void reset_counters() { c_ = {}; }

  void begin_update(Tick update_size, bool is_insert) override {
    Timed t(*this);
    inner_->begin_update(update_size, is_insert);
  }
  Tick end_update() override;
  [[nodiscard]] bool in_update() const override {
    return count([&] { return inner_->in_update(); });
  }
  [[nodiscard]] Tick moved_in_update() const override {
    return count([&] { return inner_->moved_in_update(); });
  }

  void place(ItemId id, Tick offset, Tick size, Tick extent = 0) override {
    Timed t(*this);
    inner_->place(id, offset, size, extent);
  }
  void move_to(ItemId id, Tick offset) override;
  void set_extent(ItemId id, Tick extent) override {
    Timed t(*this);
    inner_->set_extent(id, extent);
  }
  void reset_extent(ItemId id) override {
    Timed t(*this);
    inner_->reset_extent(id);
  }
  void reset_extents(std::span<const ItemId> ids) override {
    Timed t(*this);
    inner_->reset_extents(ids);
  }
  void remove(ItemId id) override {
    Timed t(*this);
    inner_->remove(id);
  }
  Tick apply_run(std::span<const ItemId> ids, Tick offset) override;

  [[nodiscard]] bool contains(ItemId id) const override {
    return query([&] { return inner_->contains(id); });
  }
  [[nodiscard]] Tick offset_of(ItemId id) const override {
    return query([&] { return inner_->offset_of(id); });
  }
  [[nodiscard]] Tick size_of(ItemId id) const override {
    return query([&] { return inner_->size_of(id); });
  }
  [[nodiscard]] Tick extent_of(ItemId id) const override {
    return query([&] { return inner_->extent_of(id); });
  }
  [[nodiscard]] Tick end_of(ItemId id) const override {
    return query([&] { return inner_->end_of(id); });
  }
  [[nodiscard]] std::size_t item_count() const override {
    return count([&] { return inner_->item_count(); });
  }
  [[nodiscard]] Tick live_mass() const override {
    return count([&] { return inner_->live_mass(); });
  }
  [[nodiscard]] Tick extent_mass() const override {
    return count([&] { return inner_->extent_mass(); });
  }
  [[nodiscard]] Tick span_end() const override {
    return count([&] { return inner_->span_end(); });
  }
  [[nodiscard]] Tick capacity() const override {
    return count([&] { return inner_->capacity(); });
  }
  [[nodiscard]] Tick eps_ticks() const override {
    return count([&] { return inner_->eps_ticks(); });
  }
  [[nodiscard]] Tick total_moved() const override {
    return count([&] { return inner_->total_moved(); });
  }
  [[nodiscard]] std::size_t update_count() const override {
    return count([&] { return inner_->update_count(); });
  }
  [[nodiscard]] Tick last_update_bytes() const override {
    return count([&] { return inner_->last_update_bytes(); });
  }
  [[nodiscard]] Tick total_bytes_moved() const override {
    return count([&] { return inner_->total_bytes_moved(); });
  }

  [[nodiscard]] std::optional<memreal::PlacedItem> item_at(
      Tick offset) const override {
    return query([&] { return inner_->item_at(offset); });
  }
  [[nodiscard]] std::optional<memreal::PlacedItem> first_at_or_after(
      Tick offset) const override {
    return query([&] { return inner_->first_at_or_after(offset); });
  }
  [[nodiscard]] std::optional<memreal::PlacedItem> last_before(
      Tick offset) const override {
    return query([&] { return inner_->last_before(offset); });
  }
  [[nodiscard]] std::optional<memreal::PlacedItem> first_item()
      const override {
    return query([&] { return inner_->first_item(); });
  }
  [[nodiscard]] std::optional<memreal::PlacedItem> last_item()
      const override {
    return query([&] { return inner_->last_item(); });
  }
  [[nodiscard]] Neighbors neighbors_of(ItemId id) const override {
    return query([&] { return inner_->neighbors_of(id); });
  }
  [[nodiscard]] std::vector<memreal::PlacedItem> items_in(
      Tick from, Tick to) const override {
    return query([&] { return inner_->items_in(from, to); });
  }
  [[nodiscard]] std::vector<memreal::PlacedItem> snapshot() const override {
    return query([&] { return inner_->snapshot(); });
  }
  [[nodiscard]] std::vector<std::pair<Tick, Tick>> gaps() const override {
    return query([&] { return inner_->gaps(); });
  }

  /// Forwarded untimed: audits run between updates, outside every layer
  /// metric.
  void audit() const override { inner_->audit(); }
  [[nodiscard]] memreal::ValidationPolicy& policy() override {
    return inner_->policy();
  }
  [[nodiscard]] const memreal::ValidationPolicy& policy() const override {
    return inner_->policy();
  }

 private:
  /// Charges the enclosing call's duration to this layer.
  class Timed {
   public:
    explicit Timed(const TimedStore& s) : s_(s), t0_(ProxyClock::now()) {}
    ~Timed() { s_.charge(ProxyClock::now() - t0_, 0); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    const TimedStore& s_;
    std::uint64_t t0_;
  };

  template <class F>
  std::invoke_result_t<F> query(F&& f) const {
    ++c_.queries;
    Timed t(*this);
    return f();
  }
  template <class F>
  std::invoke_result_t<F> count(F&& f) const {
    ++c_.queries;
    ++c_.calls;
    return f();
  }

  /// Adds `inner` clock ticks spent behind the proxy and `bookkeeping`
  /// ticks spent in the proxy itself.
  void charge(std::uint64_t inner, std::uint64_t bookkeeping) const;
  [[nodiscard]] std::pair<ItemId, ItemId> neighbour_ids(ItemId id) const;

  memreal::LayoutStore* inner_;
  TraceContext* ctx_;
  const ProxyClock* clock_;
  bool flush_spans_;
  mutable StoreCounters c_;
  // apply_run scratch: offsets and neighbours before the run.
  std::vector<Tick> run_offsets_;
  std::vector<std::pair<ItemId, ItemId>> run_neighbours_;
};

class TimedAllocator final : public memreal::Allocator {
 public:
  TimedAllocator(memreal::Allocator& inner, TraceContext& ctx)
      : inner_(&inner), ctx_(&ctx) {}

  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] bool resizable() const override { return inner_->resizable(); }
  void check_invariants() const override { inner_->check_invariants(); }
  [[nodiscard]] double decision_seconds() const override {
    return inner_->decision_seconds();
  }

  [[nodiscard]] double ns() const { return ns_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  void reset_counters() {
    ns_ = 0;
    calls_ = 0;
  }

 private:
  template <class F>
  void timed(F&& f);

  memreal::Allocator* inner_;
  TraceContext* ctx_;
  const ProxyClock* clock_ = &ProxyClock::get();
  double ns_ = 0;
  std::uint64_t calls_ = 0;
};

/// Per-layer sums of a traced cell (or of several, added up).
struct LayerTotals {
  std::uint64_t updates = 0;
  double step_ns = 0;   ///< inside the engine's step
  double alloc_ns = 0;  ///< inside Allocator::insert/erase
  bool has_arena = false;
  StoreCounters release;  ///< the proxy over the SlabStore
  StoreCounters arena;    ///< the proxy over the ArenaStore (arena cells)
  std::uint64_t arena_bytes = 0;  ///< payload bytes the arena moved

  LayerTotals& operator+=(const LayerTotals& o);

  /// The proxy the allocator and engine talk to.
  [[nodiscard]] const StoreCounters& top() const {
    return has_arena ? arena : release;
  }
  [[nodiscard]] double core_self_ns() const;
  [[nodiscard]] double alloc_self_ns() const;
  [[nodiscard]] double arena_self_ns() const;
  [[nodiscard]] double release_self_ns() const;
};

/// A release cell (CellConfig::engine must be "release"), optionally
/// arena-backed, built from timing proxies around the engine make_cell
/// builds for the same config.  Without an arena that is ReleaseEngine:
/// it takes the concrete SlabStore, so its own begin_update/end_update
/// bracket (two O(1) calls) bypasses the proxy and counts as core time,
/// while every allocator call reaches the store through the proxy.  With
/// an arena it is the generic Engine over the proxied ArenaStore, as in
/// ArenaCell.
class TracedCell {
 public:
  TracedCell(Tick capacity, Tick eps_ticks, const memreal::CellConfig& config,
             SpanLog* spans, std::uint32_t lane);

  TracedCell(const TracedCell&) = delete;
  TracedCell& operator=(const TracedCell&) = delete;

  /// Applies one update (the index-th of its stream) and returns its cost.
  double step(const memreal::Update& update, std::uint64_t index);
  /// Full store audit (payload sweep included) and allocator self-check.
  void audit();

  [[nodiscard]] memreal::LayoutStore& memory() { return top(); }
  [[nodiscard]] const memreal::RunStats& stats() const {
    return release_engine_ ? release_engine_->stats() : engine_->stats();
  }
  [[nodiscard]] LayerTotals totals() const;
  /// Zeroes the layer sums (call between the fill and the timed phase).
  void reset_totals();

 private:
  [[nodiscard]] memreal::LayoutStore& top() {
    return arena_proxy_ ? static_cast<memreal::LayoutStore&>(*arena_proxy_)
                        : release_proxy_;
  }

  TraceContext ctx_;
  memreal::SlabStore slab_;
  TimedStore release_proxy_;
  std::unique_ptr<memreal::ArenaStore> arena_;
  std::unique_ptr<TimedStore> arena_proxy_;
  std::unique_ptr<memreal::Allocator> allocator_;
  std::unique_ptr<TimedAllocator> timed_allocator_;
  std::unique_ptr<memreal::ReleaseEngine> release_engine_;  ///< no arena
  std::unique_ptr<memreal::Engine> engine_;                 ///< arena
  std::uint64_t updates_ = 0;
  double step_ns_ = 0;
  std::uint64_t arena_bytes_ = 0;
};

}  // namespace perfbench
