#include "arena/arena_store.h"

#include <bit>
#include <cstring>

#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace memreal {

ArenaStore::ArenaStore(LayoutStore& inner, ByteSpace space,
                       ArenaOptions options)
    : inner_(&inner), space_(space), options_(options) {}

unsigned char ArenaStore::pattern_byte(ItemId id, std::uint64_t j) {
  // The pattern is position-independent within the payload (indexed by j,
  // not by arena address), so a clean memmove preserves it exactly.  The
  // full-avalanche seed gives adjacent ids unrelated fill bytes (a memmove
  // that lands one granule off cannot reproduce its neighbor's pattern).
  return static_cast<unsigned char>(mix64(id) >> ((j & 7) * 8));
}

void ArenaStore::stage_insert(ItemId id, Tick size_bytes) {
  staged_id_ = id;
  staged_bytes_ = size_bytes;
}

std::span<const unsigned char> ArenaStore::payload(ItemId id) const {
  const std::uint64_t addr = space_.byte_of(inner_->offset_of(id));
  const Tick bytes = bytes_.at(id);
  MEMREAL_CHECK(addr + bytes <= arena_.size());
  return {arena_.data() + addr, static_cast<std::size_t>(bytes)};
}

void ArenaStore::ensure_arena(std::uint64_t byte_end) {
  if (byte_end <= arena_.size()) return;
  MEMREAL_CHECK_MSG(byte_end <= options_.max_arena_bytes,
                    "arena placement ends at byte "
                        << byte_end << ", beyond the max_arena_bytes cap "
                        << options_.max_arena_bytes
                        << " (shrink the capacity or coarsen the granule)");
  std::uint64_t grown = arena_.empty() ? 4096 : arena_.size();
  while (grown < byte_end) grown *= 2;
  if (grown > options_.max_arena_bytes) grown = options_.max_arena_bytes;
  arena_.resize(static_cast<std::size_t>(grown));
}

void ArenaStore::gather(ItemId id, std::uint64_t src, Tick bytes) {
  if (pending_idx_.contains(id)) return;
  if (options_.verify_payloads) verify_at(id, src, bytes);
  std::vector<unsigned char>& buf = new_pending_slot(id);
  buf.resize(static_cast<std::size_t>(bytes));
  std::memcpy(buf.data(), arena_.data() + src, static_cast<std::size_t>(bytes));
}

std::vector<unsigned char>& ArenaStore::new_pending_slot(ItemId id) {
  const auto k = static_cast<std::uint32_t>(pending_used_);
  if (pending_used_ == pending_data_.size()) {
    pending_data_.emplace_back();
    pending_ids_.push_back(id);
  } else {
    pending_ids_[pending_used_] = id;
  }
  ++pending_used_;
  pending_idx_[id] = k;
  std::vector<unsigned char>& buf = pending_data_[k];
  buf.clear();
  return buf;
}

void ArenaStore::flush_pending() {
  obs::ScopedSpan flush_span(obs::SpanPhase::kArenaFlush);
  for (std::size_t k = 0; k < pending_used_; ++k) {
    const ItemId id = pending_ids_[k];
    if (id == kNoItem) continue;  // removed mid-update
    const std::vector<unsigned char>& data = pending_data_[k];
    const std::uint64_t dst = space_.byte_of(inner_->offset_of(id));
    ensure_arena(dst + data.size());
    std::memcpy(arena_.data() + dst, data.data(), data.size());
    pending_idx_.erase(id);
  }
  pending_used_ = 0;
}

void ArenaStore::verify_at(ItemId id, std::uint64_t byte_addr,
                           Tick bytes) const {
  options_.metrics.on_verify(bytes);
  const unsigned char* p = arena_.data() + byte_addr;
  std::uint64_t j = 0;
  // The pattern repeats the little-endian bytes of mix64(id), so aligned
  // 8-byte groups compare as one word; a mismatching word falls through
  // to the byte loop, which names the exact corrupt byte.
  if constexpr (std::endian::native == std::endian::little) {
    const std::uint64_t w = mix64(id);
    for (; j + 8 <= bytes; j += 8) {
      std::uint64_t got;
      std::memcpy(&got, p + j, 8);
      if (got != w) break;
    }
  }
  for (; j < bytes; ++j) {
    MEMREAL_CHECK_MSG(
        p[j] == pattern_byte(id, j),
        "payload corruption: item " << id << " byte " << j << " at address "
                                    << byte_addr + j << " holds "
                                    << static_cast<unsigned>(p[j])
                                    << ", expected "
                                    << static_cast<unsigned>(
                                           pattern_byte(id, j)));
  }
}

void ArenaStore::verify_payload(ItemId id) const {
  verify_at(id, space_.byte_of(inner_->offset_of(id)), bytes_.at(id));
}

void ArenaStore::verify_all_payloads() const {
  for (const PlacedItem& item : inner_->snapshot()) {
    verify_at(item.id, space_.byte_of(item.offset), bytes_.at(item.id));
  }
}

void ArenaStore::begin_update(Tick update_size, bool is_insert) {
  inner_->begin_update(update_size, is_insert);
  bytes_in_update_ = 0;
  // A throwing end_update can leave a stale journal behind; drop it.
  for (std::size_t k = 0; k < pending_used_; ++k) {
    if (pending_ids_[k] != kNoItem) pending_idx_.erase(pending_ids_[k]);
  }
  pending_used_ = 0;
}

Tick ArenaStore::end_update() {
  const Tick moved = inner_->end_update();
  flush_pending();
  last_update_bytes_ = bytes_in_update_;
  return moved;
}

void ArenaStore::place(ItemId id, Tick offset, Tick size, Tick extent) {
  inner_->place(id, offset, size, extent);
  Tick bytes = size * space_.bytes_per_tick();
  if (staged_id_ == id) {
    if (staged_bytes_ != 0) {
      MEMREAL_CHECK_MSG(space_.ticks_for_bytes(staged_bytes_) == size,
                        "staged byte size "
                            << staged_bytes_ << " for item " << id
                            << " rounds to "
                            << space_.ticks_for_bytes(staged_bytes_)
                            << " ticks, but the item was placed with size "
                            << size);
      bytes = staged_bytes_;
    }
    staged_id_ = kNoItem;
    staged_bytes_ = 0;
  }
  bytes_[id] = bytes;
  std::vector<unsigned char>& buf = new_pending_slot(id);
  buf.resize(static_cast<std::size_t>(bytes));
  std::uint64_t j = 0;
  if constexpr (std::endian::native == std::endian::little) {
    const std::uint64_t w = mix64(id);
    for (; j + 8 <= bytes; j += 8) std::memcpy(buf.data() + j, &w, 8);
  }
  for (; j < bytes; ++j) buf[j] = pattern_byte(id, j);
  bytes_in_update_ += bytes;
  total_bytes_ += bytes;
  ++moves_;
  options_.metrics.on_move(bytes);
  if (!inner_->in_update()) flush_pending();
}

void ArenaStore::move_to(ItemId id, Tick offset) {
  const Tick old_offset = inner_->offset_of(id);
  if (offset != old_offset) {
    gather(id, space_.byte_of(old_offset), bytes_.at(id));
  }
  inner_->move_to(id, offset);
  if (offset == old_offset) return;  // free no-op, same as the inner store
  const Tick bytes = bytes_.at(id);
  bytes_in_update_ += bytes;
  total_bytes_ += bytes;
  ++moves_;
  options_.metrics.on_move(bytes);
  if (!inner_->in_update()) flush_pending();
}

Tick ArenaStore::apply_run(std::span<const ItemId> ids, Tick offset) {
  // Capture every payload (and verify it, if enabled) while all sources
  // are still intact, then let the inner store run its own batched move
  // so charges and layout are bit-identical to a plain cell.
  std::vector<Tick> pre;
  pre.reserve(ids.size());
  for (const ItemId id : ids) {
    const Tick at = inner_->offset_of(id);
    pre.push_back(at);
    gather(id, space_.byte_of(at), bytes_.at(id));
  }
  const Tick end = inner_->apply_run(ids, offset);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (inner_->offset_of(ids[k]) == pre[k]) continue;
    const Tick bytes = bytes_.at(ids[k]);
    bytes_in_update_ += bytes;
    total_bytes_ += bytes;
    ++moves_;
    options_.metrics.on_move(bytes);
  }
  if (!inner_->in_update()) flush_pending();
  return end;
}

void ArenaStore::remove(ItemId id) {
  if (const std::uint32_t* slot = pending_idx_.find(id)) {
    // Payload already captured (and verified) this update.
    pending_ids_[*slot] = kNoItem;
    pending_idx_.erase(id);
  } else if (options_.verify_payloads) {
    // Not touched this update, so its arena bytes are still current.
    verify_payload(id);
  }
  inner_->remove(id);
  bytes_.erase(id);
}

void ArenaStore::audit() const {
  inner_->audit();
  if (options_.verify_payloads) verify_all_payloads();
}

}  // namespace memreal
