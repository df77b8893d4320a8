#include "fuzz/differential.h"

#include <memory>
#include <sstream>

#include "harness/cell.h"
#include "release/slab_store.h"
#include "util/check.h"

namespace memreal {

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kInvariantViolation:
      return "invariant-violation";
    case FailureKind::kCostBudget:
      return "cost-budget";
    case FailureKind::kDivergence:
      return "divergence";
    case FailureKind::kEngineDivergence:
      return "engine-divergence";
    case FailureKind::kArenaDivergence:
      return "arena-divergence";
  }
  return "unknown";
}

namespace {

/// Compares the validated layout against another store's; returns a
/// human-readable description of the first difference, or empty if
/// bit-identical.  `label` names the other store in messages.
std::string compare_layouts(LayoutStore& validated, LayoutStore& other,
                            const char* label) {
  const std::vector<PlacedItem> a = validated.snapshot();
  const std::vector<PlacedItem> b = other.snapshot();
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "layout item counts differ: validated " << a.size() << ", "
       << label << " " << b.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id == b[i].id && a[i].offset == b[i].offset &&
        a[i].size == b[i].size && a[i].extent == b[i].extent) {
      continue;
    }
    std::ostringstream os;
    os << "layouts differ at rank " << i << ": validated {id " << a[i].id
       << " off " << a[i].offset << " size " << a[i].size << " ext "
       << a[i].extent << "}, " << label << " {id " << b[i].id << " off "
       << b[i].offset << " size " << b[i].size << " ext " << b[i].extent
       << "}";
    return os.str();
  }
  return {};
}

/// Compares the O(1) model counters after one lockstep step; empty if
/// identical.  `label` names the other store in messages.
std::string compare_counters(double validated_cost, double other_cost,
                             LayoutStore& validated, LayoutStore& other,
                             const char* label) {
  std::ostringstream os;
  if (validated_cost != other_cost) {
    os << "update cost differs: validated " << validated_cost << ", "
       << label << " " << other_cost;
  } else if (validated.item_count() != other.item_count()) {
    os << "item count differs: validated " << validated.item_count() << ", "
       << label << " " << other.item_count();
  } else if (validated.live_mass() != other.live_mass()) {
    os << "live mass differs: validated " << validated.live_mass() << ", "
       << label << " " << other.live_mass();
  } else if (validated.span_end() != other.span_end()) {
    os << "span end differs: validated " << validated.span_end() << ", "
       << label << " " << other.span_end();
  } else if (validated.total_moved() != other.total_moved()) {
    os << "total moved mass differs: validated " << validated.total_moved()
       << ", " << label << " " << other.total_moved();
  }
  return os.str();
}

/// The granule's rounding bound on an arena cell's byte traffic:
///   L * bpt - M * (bpt - 1) <= moved_bytes <= L * bpt
/// where L is the tick moved mass and M the number of payload moves.
std::string check_byte_bound(const ArenaStore& store) {
  const Tick bpt = store.bytes_per_tick();
  const Tick upper = store.total_moved() * bpt;
  const Tick slack = static_cast<Tick>(store.payload_moves()) * (bpt - 1);
  const Tick lower = upper > slack ? upper - slack : 0;
  const Tick bytes = store.total_bytes_moved();
  if (bytes >= lower && bytes <= upper) return {};
  std::ostringstream os;
  os << "arena byte traffic " << bytes << " outside the rounding bound ["
     << lower << ", " << upper << "] (moved mass " << store.total_moved()
     << ", " << store.payload_moves() << " moves, granule " << bpt << ")";
  return os.str();
}

}  // namespace

std::optional<FailureReport> run_differential(
    const Sequence& seq, const DifferentialConfig& config) {
  MEMREAL_CHECK(!config.targets.empty());
  MEMREAL_CHECK(!seq.updates.empty());
  const bool lockstep = config.engine != "validated";
  const bool arena = config.engine == "arena";
  MEMREAL_CHECK_MSG(!lockstep || arena || config.engine == "release",
                    "unknown differential engine '"
                        << config.engine << "' (validated, release, arena)");
  MEMREAL_CHECK_MSG(!config.release_tamper || config.engine == "release",
                    "release_tamper needs engine 'release'");
  // The subject cell's label in messages and its failure kind.
  const char* label = arena ? "arena" : "release";
  const FailureKind subject_kind =
      arena ? FailureKind::kArenaDivergence : FailureKind::kEngineDivergence;

  // One validated reference cell per target, plus the subject cell that
  // runs the same allocator in lockstep on the config.engine stack.
  std::vector<std::unique_ptr<Cell>> cells;
  std::vector<std::unique_ptr<Cell>> subjects;
  cells.reserve(config.targets.size());
  for (const FuzzTarget& t : config.targets) {
    CellConfig cell;
    cell.allocator = t.allocator;
    cell.params = t.params;
    cell.audit_every = config.audit_every;
    cell.check_invariants_every = config.check_invariants_every;
    cells.push_back(make_cell(seq.capacity, seq.eps_ticks, cell));
    if (!lockstep) continue;
    if (arena) {
      cell.arena = true;
      cell.bytes_per_tick = config.arena_bytes_per_tick;
    } else {
      cell.engine = "release";
    }
    subjects.push_back(make_cell(seq.capacity, seq.eps_ticks, cell));
  }
  const std::size_t layout_every =
      config.audit_every == 0 ? 64 : config.audit_every;

  // The reference live set replayed from the sequence itself; every target
  // must agree with it after every update.
  std::size_t live_count = 0;
  Tick live_mass = 0;

  for (std::size_t i = 0; i < seq.updates.size(); ++i) {
    const Update& u = seq.updates[i];
    if (u.is_insert()) {
      ++live_count;
      live_mass += u.size;
    } else {
      --live_count;
      live_mass -= u.size;
    }
    for (std::size_t t = 0; t < cells.size(); ++t) {
      Cell& cell = *cells[t];
      double cost = 0.0;
      try {
        cost = cell.step(u);
      } catch (const InvariantViolation& e) {
        FailureReport r;
        r.kind = FailureKind::kInvariantViolation;
        r.allocator = cell.name();
        r.update_index = i;
        r.message = e.what();
        return r;
      }
      auto diverged = [&](const std::string& what) {
        FailureReport r;
        r.kind = FailureKind::kDivergence;
        r.allocator = cell.name();
        r.update_index = i;
        r.message = what;
        return r;
      };
      if (u.is_insert() && cost < 1.0) {
        std::ostringstream os;
        os << "insert of id " << u.id << " moved less than the item's own "
           << "mass (cost " << cost << " < 1)";
        return diverged(os.str());
      }
      if (cell.memory().item_count() != live_count) {
        std::ostringstream os;
        os << "live item count diverged: allocator holds "
           << cell.memory().item_count() << ", sequence implies "
           << live_count;
        return diverged(os.str());
      }
      if (cell.memory().live_mass() != live_mass) {
        std::ostringstream os;
        os << "live mass diverged: allocator holds "
           << cell.memory().live_mass() << ", sequence implies " << live_mass;
        return diverged(os.str());
      }
      if (cell.memory().span_end() < live_mass) {
        std::ostringstream os;
        os << "span end " << cell.memory().span_end()
           << " undercuts live mass " << live_mass;
        return diverged(os.str());
      }
      if (!lockstep) continue;
      Cell& subject = *subjects[t];
      auto subject_diverged = [&](const std::string& what) {
        FailureReport r;
        r.kind = subject_kind;
        r.allocator = cell.name();
        r.update_index = i;
        r.message = what;
        return r;
      };
      double subject_cost = 0.0;
      try {
        subject_cost = subject.step(u);
      } catch (const InvariantViolation& e) {
        return subject_diverged(std::string(label) + " cell threw: " +
                                e.what());
      }
      std::string diff = compare_counters(cost, subject_cost, cell.memory(),
                                          subject.memory(), label);
      if (diff.empty() && arena) diff = check_byte_bound(*subject.arena());
      if (diff.empty() && (i + 1) % layout_every == 0) {
        diff = compare_layouts(cell.memory(), subject.memory(), label);
      }
      if (!diff.empty()) return subject_diverged(diff);
      if (config.release_tamper) {
        // Checked above: the subject is a release cell, whose top store
        // is the SlabStore.
        config.release_tamper(static_cast<SlabStore&>(subject.memory()), i);
      }
    }
  }

  for (std::size_t t = 0; t < cells.size(); ++t) {
    Cell& cell = *cells[t];
    if (lockstep) {
      Cell& subject = *subjects[t];
      std::string diff =
          compare_layouts(cell.memory(), subject.memory(), label);
      if (diff.empty()) {
        try {
          subject.audit();  // includes the full payload-stamp sweep
        } catch (const InvariantViolation& e) {
          diff = std::string(label) + " cell failed its final audit: " +
                 e.what();
        }
      }
      if (!diff.empty()) {
        FailureReport r;
        r.kind = subject_kind;
        r.allocator = cell.name();
        r.update_index = seq.updates.size();
        r.message = diff;
        return r;
      }
    }
    try {
      cell.audit();
    } catch (const InvariantViolation& e) {
      FailureReport r;
      r.kind = FailureKind::kInvariantViolation;
      r.allocator = cell.name();
      r.update_index = seq.updates.size();
      r.message = e.what();
      return r;
    }
    const double observed = cell.stats().ratio_cost();
    const double bound =
        config.targets[t].budget.bound(seq.eps) * config.budget_slack;
    if (observed > bound) {
      FailureReport r;
      r.kind = FailureKind::kCostBudget;
      r.allocator = cell.name();
      r.update_index = seq.updates.size();
      r.observed_cost = observed;
      r.cost_bound = bound;
      std::ostringstream os;
      os << "amortized ratio cost " << observed << " exceeds the budget "
         << bound << " for eps " << seq.eps;
      r.message = os.str();
      return r;
    }
  }
  return std::nullopt;
}

}  // namespace memreal
