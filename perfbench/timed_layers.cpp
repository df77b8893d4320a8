#include "timed_layers.h"

#include "alloc/registry.h"
#include "arena/byte_space.h"
#include "util/check.h"

namespace perfbench {

StoreCounters& StoreCounters::operator+=(const StoreCounters& o) {
  calls += o.calls;
  queries += o.queries;
  ns += o.ns;
  outer_ns += o.outer_ns;
  outer_ns_in_alloc += o.outer_ns_in_alloc;
  moves += o.moves;
  reorder_moves += o.reorder_moves;
  move_ns += o.move_ns;
  end_update_ns += o.end_update_ns;
  return *this;
}

ProxyClock::ProxyClock() {
  const std::uint64_t t0 = now();
  const std::int64_t n0 = now_ns();
  std::int64_t n1 = n0;
  while (n1 - n0 < 20'000'000) n1 = now_ns();
  const std::uint64_t t1 = now();
  ns_per_tick_ = static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);
  tick0_ = t1;
  ns0_ = n1;
}

const ProxyClock& ProxyClock::get() {
  static const ProxyClock clock;
  return clock;
}

void TimedStore::charge(std::uint64_t inner, std::uint64_t bookkeeping) const {
  ++c_.calls;
  const double inner_ns = clock_->ns(inner);
  const double outer_ns = clock_->ns(inner + bookkeeping);
  c_.ns += inner_ns;
  c_.outer_ns += outer_ns;
  if (ctx_->in_alloc) c_.outer_ns_in_alloc += outer_ns;
}

std::pair<ItemId, ItemId> TimedStore::neighbour_ids(ItemId id) const {
  const Neighbors n = inner_->neighbors_of(id);
  return {n.prev ? n.prev->id : memreal::kNoItem,
          n.next ? n.next->id : memreal::kNoItem};
}

Tick TimedStore::end_update() {
  const std::uint64_t t0 = ProxyClock::now();
  const Tick moved = inner_->end_update();
  const std::uint64_t t1 = ProxyClock::now();
  c_.end_update_ns += clock_->ns(t1 - t0);
  if (flush_spans_ && ctx_->spans != nullptr) {
    ctx_->spans->add(SpanKind::kFlush, ctx_->lane, ctx_->update,
                     clock_->steady_ns(t0), clock_->steady_ns(t1));
  }
  charge(t1 - t0, ProxyClock::now() - t1);
  return moved;
}

void TimedStore::move_to(ItemId id, Tick offset) {
  const std::uint64_t t0 = ProxyClock::now();
  const Tick before = inner_->offset_of(id);
  const auto neighbours = neighbour_ids(id);
  const std::uint64_t t1 = ProxyClock::now();
  inner_->move_to(id, offset);
  const std::uint64_t t2 = ProxyClock::now();
  if (inner_->offset_of(id) != before) {
    ++c_.moves;
    if (neighbour_ids(id) != neighbours) ++c_.reorder_moves;
  }
  c_.move_ns += clock_->ns(t2 - t1);
  const std::uint64_t t3 = ProxyClock::now();
  charge(t2 - t1, (t1 - t0) + (t3 - t2));
}

Tick TimedStore::apply_run(std::span<const ItemId> ids, Tick offset) {
  const std::uint64_t t0 = ProxyClock::now();
  run_offsets_.clear();
  run_neighbours_.clear();
  for (const ItemId id : ids) {
    run_offsets_.push_back(inner_->offset_of(id));
    run_neighbours_.push_back(neighbour_ids(id));
  }
  const std::uint64_t t1 = ProxyClock::now();
  const Tick end = inner_->apply_run(ids, offset);
  const std::uint64_t t2 = ProxyClock::now();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (inner_->offset_of(ids[i]) == run_offsets_[i]) continue;
    ++c_.moves;
    if (neighbour_ids(ids[i]) != run_neighbours_[i]) ++c_.reorder_moves;
  }
  c_.move_ns += clock_->ns(t2 - t1);
  const std::uint64_t t3 = ProxyClock::now();
  charge(t2 - t1, (t1 - t0) + (t3 - t2));
  return end;
}

template <class F>
void TimedAllocator::timed(F&& f) {
  const bool outer = !ctx_->in_alloc;
  ctx_->in_alloc = true;
  const std::uint64_t t0 = ProxyClock::now();
  try {
    f();
  } catch (...) {
    ctx_->in_alloc = !outer;
    throw;
  }
  const std::uint64_t t1 = ProxyClock::now();
  ctx_->in_alloc = !outer;
  ns_ += clock_->ns(t1 - t0);
  ++calls_;
  if (ctx_->spans != nullptr) {
    ctx_->spans->add(SpanKind::kAlloc, ctx_->lane, ctx_->update,
                     clock_->steady_ns(t0), clock_->steady_ns(t1));
  }
}

void TimedAllocator::insert(ItemId id, Tick size) {
  timed([&] { inner_->insert(id, size); });
}

void TimedAllocator::erase(ItemId id) {
  timed([&] { inner_->erase(id); });
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  updates += o.updates;
  step_ns += o.step_ns;
  alloc_ns += o.alloc_ns;
  has_arena = has_arena || o.has_arena;
  release += o.release;
  arena += o.arena;
  arena_bytes += o.arena_bytes;
  return *this;
}

double LayerTotals::core_self_ns() const {
  const StoreCounters& t = top();
  return step_ns - alloc_ns - (t.outer_ns - t.outer_ns_in_alloc);
}

double LayerTotals::alloc_self_ns() const {
  return alloc_ns - top().outer_ns_in_alloc;
}

double LayerTotals::arena_self_ns() const {
  return has_arena ? arena.ns - release.outer_ns : 0.0;
}

double LayerTotals::release_self_ns() const { return release.ns; }

TracedCell::TracedCell(Tick capacity, Tick eps_ticks,
                       const memreal::CellConfig& config, SpanLog* spans,
                       std::uint32_t lane)
    : slab_(capacity, eps_ticks), release_proxy_(slab_, ctx_) {
  MEMREAL_CHECK_MSG(config.engine == "release",
                    "TracedCell wraps the release store only, not '"
                        << config.engine << "'");
  ctx_.spans = spans;
  ctx_.lane = lane;
  if (config.arena) {
    memreal::ArenaOptions options;
    options.verify_payloads = config.verify_payloads;
    arena_ = std::make_unique<memreal::ArenaStore>(
        release_proxy_, memreal::ByteSpace(config.bytes_per_tick), options);
    arena_proxy_ =
        std::make_unique<TimedStore>(*arena_, ctx_, /*flush_spans=*/true);
  }
  allocator_ = memreal::make_allocator(config.allocator, top(), config.params);
  timed_allocator_ = std::make_unique<TimedAllocator>(*allocator_, ctx_);
  if (!arena_) {
    release_engine_ =
        std::make_unique<memreal::ReleaseEngine>(slab_, *timed_allocator_);
    return;
  }
  memreal::EngineOptions options;
  options.check_invariants_every = config.check_invariants_every;
  options.before_update = [this](const memreal::Update& u) {
    if (u.is_insert()) arena_->stage_insert(u.id, u.size_bytes);
  };
  engine_ = std::make_unique<memreal::Engine>(top(), *timed_allocator_,
                                              std::move(options));
}

double TracedCell::step(const memreal::Update& update, std::uint64_t index) {
  ctx_.update = index;
  const ProxyClock& clock = ProxyClock::get();
  const std::uint64_t t0 = ProxyClock::now();
  const double cost = release_engine_ ? release_engine_->step(update)
                                      : engine_->step(update);
  const std::uint64_t t1 = ProxyClock::now();
  step_ns_ += clock.ns(t1 - t0);
  ++updates_;
  if (arena_) arena_bytes_ += arena_->last_update_bytes();
  if (ctx_.spans != nullptr) {
    ctx_.spans->add(SpanKind::kStep, ctx_.lane, index, clock.steady_ns(t0),
                    clock.steady_ns(t1));
  }
  return cost;
}

void TracedCell::audit() {
  top().audit();
  allocator_->check_invariants();
}

LayerTotals TracedCell::totals() const {
  LayerTotals t;
  t.updates = updates_;
  t.step_ns = step_ns_;
  t.alloc_ns = timed_allocator_->ns();
  t.has_arena = arena_ != nullptr;
  t.release = release_proxy_.counters();
  if (arena_proxy_) t.arena = arena_proxy_->counters();
  t.arena_bytes = arena_bytes_;
  return t;
}

void TracedCell::reset_totals() {
  updates_ = arena_bytes_ = 0;
  step_ns_ = 0;
  timed_allocator_->reset_counters();
  release_proxy_.reset_counters();
  if (arena_proxy_) arena_proxy_->reset_counters();
}

}  // namespace perfbench
