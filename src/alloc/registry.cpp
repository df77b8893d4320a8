#include "alloc/registry.h"

#include <algorithm>
#include <cmath>

#include "alloc/combined.h"
#include "alloc/discrete.h"
#include "alloc/flexhash.h"
#include "alloc/folklore.h"
#include "alloc/geo.h"
#include "alloc/rsum.h"
#include "alloc/simple.h"
#include "alloc/tinyslab.h"
#include "util/check.h"

namespace memreal {

namespace {

/// factor * eps^pow of `capacity`, floored to ticks.  A linear edge scales
/// the cell's eps tick count (Eps::of) instead, so an allocator that
/// derives its band from eps_ticks — SIMPLE's [eps, 2eps) — sees the same
/// edges at every eps, not only where eps * capacity is an integer.
Tick band_edge(double factor, double pow, double eps, Tick capacity) {
  if (pow == 1.0) {
    return static_cast<Tick>(factor *
                             static_cast<double>(Eps::of(eps, capacity).ticks));
  }
  const double frac = factor * std::pow(eps, pow);
  return static_cast<Tick>(frac * static_cast<double>(capacity));
}

}  // namespace

Tick SizeProfile::min_size(double eps, Tick capacity) const {
  return std::max<Tick>(1, band_edge(lo_factor, lo_pow, eps, capacity));
}

Tick SizeProfile::max_size(double eps, Tick capacity) const {
  // Keep the band non-degenerate even at extreme eps: min < max always.
  return std::max(min_size(eps, capacity) + 1,
                  band_edge(hi_factor, hi_pow, eps, capacity));
}

WorkloadShape SizeProfile::shape(double eps, Tick capacity) const {
  return {min_size(eps, capacity), max_size(eps, capacity) - 1,
          fixed_palette};
}

bool AllocatorInfo::serves(const WorkloadShape& shape, double eps,
                           Tick capacity, std::string* why) const {
  auto reject = [&](const std::string& reason) {
    if (why != nullptr) *why = name + ": " + reason;
    return false;
  };
  if (eps > max_eps) {
    return reject("eps " + std::to_string(eps) +
                  " beyond the supported ceiling " + std::to_string(max_eps));
  }
  if (min_capacity != nullptr && capacity < min_capacity(eps)) {
    return reject("capacity " + std::to_string(capacity) +
                  " below the minimum " + std::to_string(min_capacity(eps)) +
                  " at eps " + std::to_string(eps) +
                  " (size classes would collapse)");
  }
  if (universal) return true;
  if (shape.min_size < 1 || shape.min_size > shape.max_size) {
    return reject("degenerate workload band [" +
                  std::to_string(shape.min_size) + ", " +
                  std::to_string(shape.max_size) + "]");
  }
  if (sizes.fixed_palette && !shape.fixed_palette) {
    return reject(
        "serves structured sizes only — the workload must reuse a small "
        "fixed palette, not sample the band freely");
  }
  const Tick lo = sizes.min_size(eps, capacity);
  const Tick hi = sizes.max_size(eps, capacity) - 1;  // band is [lo, hi)
  if (shape.min_size < lo) {
    return reject("workload min size " + std::to_string(shape.min_size) +
                  " below the served band's " + std::to_string(lo));
  }
  if (shape.max_size > hi) {
    return reject("workload max size " + std::to_string(shape.max_size) +
                  " above the served band's " + std::to_string(hi));
  }
  return true;
}

double CostBudget::bound(double eps) const {
  MEMREAL_CHECK(eps > 0.0 && eps < 1.0);
  const double inv = 1.0 / eps;
  return factor * std::pow(inv, pow) * std::max(1.0, std::log2(inv));
}

namespace {

struct Entry {
  AllocatorInfo info;
  AllocatorFactory factory;
};

/// The built-in allocators with their admissible size regimes.  Bands are
/// fractions of capacity as functions of eps; budgets sit well above the
/// paper's bounds (folklore O(eps^-1), SIMPLE O(eps^-2/3), GEO/COMBINED
/// O~(eps^-1/2), RSUM O(log eps^-1)) so healthy runs never trip them.
const std::vector<Entry>& builtin_entries() {
  static const std::vector<Entry> entries = [] {
    std::vector<Entry> e;
    const SizeProfile band{1.0, 1.0, 2.0, 1.0, false};       // [eps, 2eps)
    const SizeProfile geo_band{1.0 / 51200, 0.5,             // sqrt(eps)/200
                               1.0 / 200, 0.5, false};       //   over 256x
    const SizeProfile tiny{1.0 / 1024, 4.0, 1.0, 4.0, false};  // (0, eps^4]
    const SizeProfile mixed{1.0 / 1024, 4.0, 1.0 / 200, 0.5, false};
    const SizeProfile rsum_band{1.0, 0.75, 2.0, 0.75, false};  // delta=eps^3/4
    const SizeProfile palette{1.0, 1.0, 2.0, 1.0, true};

    e.push_back({{"folklore-compact", band, {4.0, 1.0}, 1.0 / 64, 0.0,
                  /*universal=*/true, true},
                 [](LayoutStore& mem, const AllocatorParams&) {
                   return std::make_unique<FolkloreCompact>(mem);
                 }});
    e.push_back({{"folklore-windowed", band, {4.0, 1.0}, 1.0 / 64, 0.0,
                  /*universal=*/true, true},
                 [](LayoutStore& mem, const AllocatorParams&) {
                   return std::make_unique<FolkloreWindowed>(mem);
                 }});
    e.push_back({{"simple", band, {8.0, 0.75}, 1.0 / 64, 0.0, false, true},
                 [](LayoutStore& mem, const AllocatorParams& p) {
                   return std::make_unique<SimpleAllocator>(mem, p.eps);
                 }});
    e.push_back({{"geo", geo_band, {16.0, 0.5}, 1.0 / 64, 0.0, false, true,
                  /*max_eps=*/0.25, &GeoAllocator::min_capacity},
                 [](LayoutStore& mem, const AllocatorParams& p) {
                   GeoConfig c;
                   c.eps = p.eps;
                   c.seed = p.seed;
                   return std::make_unique<GeoAllocator>(mem, c);
                 }});
    e.push_back({{"tinyslab", tiny, {32.0, 0.5}, 1.0 / 32, 0.0, false, true,
                  /*max_eps=*/0.25, &TinySlabAllocator::min_capacity},
                 [](LayoutStore& mem, const AllocatorParams& p) {
                   TinySlabConfig c;
                   c.eps = p.eps;
                   c.seed = p.seed;
                   return std::make_unique<TinySlabAllocator>(mem, c);
                 }});
    // FLEXHASH builds a default-sized TINYSLAB over the whole memory, so
    // it inherits TINYSLAB's capacity floor.
    e.push_back({{"flexhash", tiny, {32.0, 0.5}, 1.0 / 32, 0.0, false, true,
                  /*max_eps=*/1.0 / 16, &TinySlabAllocator::min_capacity},
                 [](LayoutStore& mem, const AllocatorParams& p) {
                   FlexHashConfig c;
                   c.eps = p.eps;
                   c.seed = p.seed;
                   return std::make_unique<FlexHashAllocator>(mem, c);
                 }});
    // COMBINED runs GEO at eps/2 over the whole memory (Corollary 4.10).
    e.push_back({{"combined", mixed, {32.0, 0.5}, 1.0 / 32, 0.0, false, true,
                  /*max_eps=*/0.25,
                  [](double eps) {
                    return GeoAllocator::min_capacity(eps / 2);
                  }},
                 [](LayoutStore& mem, const AllocatorParams& p) {
                   CombinedConfig c;
                   c.eps = p.eps;
                   c.seed = p.seed;
                   return std::make_unique<CombinedAllocator>(mem, c);
                 }});
    e.push_back({{"rsum", rsum_band, {16.0, 0.5}, 1.0 / 256, 0.0, false,
                  true},
                 [](LayoutStore& mem, const AllocatorParams& p) {
                   RSumConfig c;
                   c.eps = p.eps;
                   c.delta = p.delta;
                   c.seed = p.seed;
                   return std::make_unique<RSumAllocator>(mem, c);
                 }});
    e.push_back({{"discrete", palette, {32.0, 0.5}, 1.0 / 64, 0.0, false,
                  true},
                 [](LayoutStore& mem, const AllocatorParams&) {
                   return std::make_unique<DiscreteAllocator>(mem);
                 }});
    return e;
  }();
  return entries;
}

/// Runtime registrations (test-only planted allocators).  Not synchronized:
/// register/unregister before any concurrent lookups, as the fuzz tests do.
std::vector<Entry>& extra_entries() {
  static std::vector<Entry> entries;
  return entries;
}

const Entry* find_entry(const std::string& name) {
  for (const Entry& e : builtin_entries()) {
    if (e.info.name == name) return &e;
  }
  for (const Entry& e : extra_entries()) {
    if (e.info.name == name) return &e;
  }
  return nullptr;
}

std::string known_names() {
  std::string names;
  for (const std::string& n : allocator_names()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  return names;
}

}  // namespace

AllocatorFactory allocator_factory(const std::string& name) {
  const Entry* e = find_entry(name);
  MEMREAL_CHECK_MSG(e != nullptr, "unknown allocator '"
                                      << name << "' (registered: "
                                      << known_names() << ")");
  return e->factory;
}

std::vector<std::string> allocator_names() {
  std::vector<std::string> names;
  names.reserve(builtin_entries().size() + extra_entries().size());
  for (const Entry& e : builtin_entries()) names.push_back(e.info.name);
  for (const Entry& e : extra_entries()) names.push_back(e.info.name);
  return names;
}

AllocatorInfo allocator_info(const std::string& name) {
  const Entry* e = find_entry(name);
  MEMREAL_CHECK_MSG(e != nullptr, "unknown allocator '"
                                      << name << "' (registered: "
                                      << known_names() << ")");
  return e->info;
}

std::vector<AllocatorInfo> allocator_infos() {
  std::vector<AllocatorInfo> infos;
  infos.reserve(builtin_entries().size() + extra_entries().size());
  for (const Entry& e : builtin_entries()) infos.push_back(e.info);
  for (const Entry& e : extra_entries()) infos.push_back(e.info);
  return infos;
}

void register_allocator(AllocatorInfo info, AllocatorFactory factory) {
  MEMREAL_CHECK_MSG(!info.name.empty(), "allocator name must be non-empty");
  MEMREAL_CHECK_MSG(static_cast<bool>(factory),
                    "allocator factory must be callable");
  MEMREAL_CHECK_MSG(find_entry(info.name) == nullptr,
                    "allocator '" << info.name << "' already registered");
  extra_entries().push_back({std::move(info), std::move(factory)});
}

void unregister_allocator(const std::string& name) {
  auto& extras = extra_entries();
  const auto it =
      std::find_if(extras.begin(), extras.end(),
                   [&](const Entry& e) { return e.info.name == name; });
  MEMREAL_CHECK_MSG(it != extras.end(),
                    "allocator '" << name
                                  << "' is not a runtime registration");
  extras.erase(it);
}

std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          LayoutStore& mem,
                                          const AllocatorParams& params) {
  return allocator_factory(name)(mem, params);
}

}  // namespace memreal
