#include "arena/arena_allocator.h"

#include <algorithm>

#include "util/check.h"

namespace memreal {

namespace {

CellConfig adapter_cell_config(const ArenaAllocatorConfig& config) {
  CellConfig cell;
  cell.engine = config.engine;
  cell.allocator = config.allocator;
  cell.params = config.params;
  cell.arena = true;
  cell.bytes_per_tick = config.bytes_per_tick;
  cell.verify_payloads = config.verify_payloads;
  return cell;
}

}  // namespace

ArenaAllocator::ArenaAllocator(const ArenaAllocatorConfig& config)
    : config_(config) {
  const AllocatorInfo info = allocator_info(config.allocator);
  min_ticks_ = info.sizes.min_size(config.params.eps, config.capacity_ticks);
  // SizeProfile bands are half-open in ticks; keep the inclusive max.
  max_ticks_ = std::max(
      min_ticks_,
      info.sizes.max_size(config.params.eps, config.capacity_ticks) - 1);
  const Eps eps = Eps::of(config.params.eps, config.capacity_ticks);
  cell_ = make_cell(config.capacity_ticks, eps.ticks,
                    adapter_cell_config(config));
}

std::uint64_t ArenaAllocator::max_size_bytes() const {
  return cell_->arena()->space().byte_of(config_.capacity_ticks);
}

std::uint64_t ArenaAllocator::min_allocation_size() const {
  return cell_->arena()->space().min_allocation_bytes();
}

std::uint64_t ArenaAllocator::alignment() const {
  return cell_->arena()->space().alignment();
}

std::uint64_t ArenaAllocator::align(std::uint64_t bytes) const {
  return cell_->arena()->space().align_up(bytes);
}

std::uint64_t ArenaAllocator::min_item_bytes() const {
  // The smallest payload that still occupies min_ticks_ ticks.
  const Tick bpt = cell_->arena()->bytes_per_tick();
  return min_ticks_ <= 1 ? 1 : (min_ticks_ - 1) * bpt + 1;
}

std::uint64_t ArenaAllocator::max_item_bytes() const {
  return max_ticks_ * cell_->arena()->bytes_per_tick();
}

Tick ArenaAllocator::ticks_for(std::uint64_t size_bytes) const {
  return cell_->arena()->space().ticks_for_bytes(size_bytes);
}

std::optional<ArenaAllocator::Allocation> ArenaAllocator::allocate(
    std::uint64_t size_bytes) {
  if (size_bytes == 0) return std::nullopt;
  const Tick ticks = ticks_for(size_bytes);
  // Outside the band the registry allocator guarantees to serve.
  if (ticks < min_ticks_ || ticks > max_ticks_) return std::nullopt;
  // The adversary's load budget: live mass stays <= capacity - eps.
  const ArenaStore& store = *cell_->arena();
  if (store.live_mass() + ticks + store.eps_ticks() > store.capacity()) {
    return std::nullopt;
  }
  const ItemId id = next_id_++;
  cell_->step(Update::insert(id, ticks, static_cast<Tick>(size_bytes)));
  return Allocation{id, address_of(id), size_bytes};
}

std::optional<ArenaAllocator::Allocation> ArenaAllocator::allocate_at_address(
    std::uint64_t addr, std::uint64_t size_bytes) {
  if (!cell_->arena()->space().aligned(addr)) return std::nullopt;
  std::optional<Allocation> alloc = allocate(size_bytes);
  if (!alloc) return std::nullopt;
  if (alloc->address == addr) return alloc;
  deallocate_id(alloc->id);
  return std::nullopt;
}

void ArenaAllocator::deallocate(std::uint64_t addr) {
  const ArenaStore& store = *cell_->arena();
  const Tick tick = store.space().tick_of(addr);
  const std::optional<PlacedItem> item = store.item_at(tick);
  MEMREAL_CHECK_MSG(item && item->offset == tick,
                    "deallocate: no allocation starts at byte address "
                        << addr);
  deallocate_id(item->id);
}

void ArenaAllocator::deallocate_id(ItemId id) {
  ArenaStore& store = *cell_->arena();
  const Tick size = store.size_of(id);
  const Tick bytes = store.bytes_of(id);
  cell_->step(Update::erase(id, size, bytes));
}

void ArenaAllocator::clear() {
  while (cell_->arena()->item_count() > 0) {
    deallocate_id(cell_->arena()->first_item()->id);
  }
}

std::size_t ArenaAllocator::allocation_count() const {
  return cell_->arena()->item_count();
}

std::uint64_t ArenaAllocator::allocated_bytes() const {
  std::uint64_t total = 0;
  for (const PlacedItem& item : cell_->arena()->snapshot()) {
    total += cell_->arena()->bytes_of(item.id);
  }
  return total;
}

std::uint64_t ArenaAllocator::address_of(ItemId id) const {
  return cell_->arena()->address_of(id);
}

std::span<const unsigned char> ArenaAllocator::payload(ItemId id) const {
  return cell_->arena()->payload(id);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
ArenaAllocator::available_addresses(std::uint64_t size_bytes) const {
  const ArenaStore& store = *cell_->arena();
  const ByteSpace& space = store.space();
  const Tick need = ticks_for(size_bytes);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [from, to] : store.gaps()) {
    if (to - from >= need) {
      out.emplace_back(space.byte_of(from), space.byte_of(to));
    }
  }
  const Tick span = store.span_end();
  if (store.capacity() - span >= need) {
    out.emplace_back(space.byte_of(span), space.byte_of(store.capacity()));
  }
  return out;
}

}  // namespace memreal
