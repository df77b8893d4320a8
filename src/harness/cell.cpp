#include "harness/cell.h"

#include "mem/memory.h"
#include "release/slab_store.h"
#include "util/check.h"

namespace memreal {

namespace {

obs::MetricLabels cell_labels(const CellConfig& config) {
  obs::MetricLabels labels;
  labels.allocator = config.allocator;
  labels.engine = config.arena ? config.engine + "+arena" : config.engine;
  labels.shard = config.shard_index;
  labels.workload = config.workload_label;
  return labels;
}

std::unique_ptr<LayoutStore> make_inner(Tick capacity, Tick eps_ticks,
                                        const CellConfig& config) {
  if (config.engine == "validated") {
    ValidationPolicy policy;
    policy.incremental = config.incremental_validation;
    policy.audit_every_n_updates = config.audit_every;
    return std::make_unique<Memory>(capacity, eps_ticks, policy);
  }
  if (config.engine == "release") {
    return std::make_unique<SlabStore>(capacity, eps_ticks);
  }
  MEMREAL_CHECK_MSG(false, "unknown engine '" << config.engine
                                              << "' (validated, release)");
}

std::unique_ptr<ArenaStore> make_arena(LayoutStore& inner,
                                       const CellConfig& config) {
  if (!config.arena) return nullptr;
  ArenaOptions options;
  options.verify_payloads = config.verify_payloads;
  if (config.metrics != nullptr) {
    options.metrics =
        obs::ArenaMetrics::create(*config.metrics, cell_labels(config));
  }
  return std::make_unique<ArenaStore>(inner, ByteSpace(config.bytes_per_tick),
                                      options);
}

}  // namespace

obs::CellMetrics cell_metrics(const CellConfig& config) {
  if (config.metrics == nullptr) return {};
  return obs::CellMetrics::create(*config.metrics, cell_labels(config));
}

Cell::Cell(Tick capacity, Tick eps_ticks, const CellConfig& config)
    : name_(config.allocator),
      inner_(make_inner(capacity, eps_ticks, config)),
      arena_(make_arena(*inner_, config)),
      top_(arena_ ? static_cast<LayoutStore*>(arena_.get()) : inner_.get()),
      allocator_(make_allocator(config.allocator, *top_, config.params)),
      engine_(*top_, *allocator_, [&] {
        EngineOptions options;
        options.check_invariants_every = config.check_invariants_every;
        options.metrics = cell_metrics(config);
        if (arena_) {
          // Stage the insert's byte size ahead of the allocator's
          // placement, so the payload lands with its true size.
          options.before_update = [arena = arena_.get()](const Update& u) {
            if (u.is_insert()) arena->stage_insert(u.id, u.size_bytes);
          };
        }
        return options;
      }()) {}

void Cell::audit() {
  top_->audit();
  allocator_->check_invariants();
}

std::unique_ptr<Cell> make_cell(Tick capacity, Tick eps_ticks,
                                const CellConfig& config) {
  return std::make_unique<Cell>(capacity, eps_ticks, config);
}

std::vector<std::string> engine_names() { return {"validated", "release"}; }

RunStats run_validated(const Sequence& seq, const CellConfig& config) {
  Cell cell(seq.capacity, seq.eps_ticks, config);
  RunStats stats = cell.run(seq.updates);
  cell.audit();
  return stats;
}

}  // namespace memreal
