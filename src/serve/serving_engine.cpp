#include "serve/serving_engine.h"

#include <algorithm>
#include <utility>

#include "arena/arena_store.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace memreal {

ServingEngine::ServingEngine(const ShardedConfig& config) : base_(config) {
  const std::size_t shards = base_.shard_count();
  if (config.metrics != nullptr) {
    serve_metrics_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      obs::MetricLabels labels;
      labels.allocator = config.allocator;
      labels.engine = config.engine;
      labels.shard = static_cast<int>(s);
      labels.workload = config.workload_label;
      serve_metrics_.push_back(
          obs::ServeMetrics::create(*config.metrics, labels));
    }
  }
  queues_.reserve(shards);
  shard_mu_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    queues_.push_back(std::make_unique<MpscQueue<Request>>());
    shard_mu_.push_back(std::make_unique<std::shared_mutex>());
  }
  workers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::worker_loop(std::size_t shard) {
  const obs::ServeMetrics* metrics =
      serve_metrics_.empty() ? nullptr : &serve_metrics_[shard];
  std::vector<Request> batch;
  while (queues_[shard]->pop_all(batch)) {
    for (Request& r : batch) {
      if (r.traced) {
        obs::TraceSession& trace = obs::TraceSession::global();
        trace.record(obs::SpanPhase::kQueueWait, r.trace_begin, trace.now(),
                     static_cast<std::int32_t>(shard));
      }
      if (metrics != nullptr && metrics->queue_wait_us != nullptr) {
        const auto wait =
            std::chrono::steady_clock::now() - r.enqueue_time;
        metrics->queue_wait_us->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(wait)
                .count()));
      }
      try {
        double cost;
        {
          std::unique_lock<std::shared_mutex> lock(*shard_mu_[shard]);
          cost = base_.cell(shard).step(r.update);
        }
        r.done.set_value(cost);
      } catch (...) {
        r.done.set_exception(std::current_exception());
      }
      finish_request();
    }
  }
}

void ServingEngine::finish_request() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  --in_flight_;
  if (in_flight_ == 0) drain_cv_.notify_all();
}

std::future<double> ServingEngine::submit(const Update& update) {
  Request r;
  r.update = update;
  std::future<double> fut = r.done.get_future();
  // Observability work stays outside the admission lock: stamping and
  // gauge updates on the serialized routing path would tax every client,
  // and the queue-wait measure deliberately includes admission wait
  // (submit-to-pickup is the latency a caller actually experiences).
  const bool wired = !serve_metrics_.empty();
  if (wired) r.enqueue_time = std::chrono::steady_clock::now();
  if (obs::TraceSession::global().active()) {
    r.traced = true;
    r.trace_begin = obs::TraceSession::global().now();
  }
  std::size_t s = 0;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    MEMREAL_CHECK_MSG(!stopped_, "submit after stop()");
    if (!started_) {
      started_ = true;
      first_submit_ = std::chrono::steady_clock::now();
    }
    // route_update mutates placement/live-mass even when the enqueue
    // below would fail, so the stopped_ check above must stay ahead of
    // it.
    s = base_.route_update(update);
    {
      std::lock_guard<std::mutex> dlock(drain_mu_);
      ++in_flight_;
    }
    queues_[s]->push(std::move(r), &depth);
  }
  if (wired && serve_metrics_[s].queue_depth != nullptr) {
    serve_metrics_[s].queue_depth->set(static_cast<std::int64_t>(depth));
  }
  return fut;
}

void ServingEngine::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void ServingEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (stopped_) return;
    stopped_ = true;
    if (started_) {
      wall_seconds_ = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - first_submit_)
                          .count();
    }
  }
  for (auto& q : queues_) q->close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::optional<PlacedItem> ServingEngine::item_at(std::size_t shard,
                                                 Tick offset) {
  MEMREAL_CHECK_MSG(shard < shard_count(),
                    "item_at: shard " << shard << " of " << shard_count());
  std::shared_lock<std::shared_mutex> lock(*shard_mu_[shard]);
  return base_.memory(shard).item_at(offset);
}

std::optional<LayoutStore::Neighbors> ServingEngine::neighbors_of(ItemId id) {
  std::optional<std::size_t> s;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    s = base_.find_shard(id);
  }
  if (!s) return std::nullopt;
  std::shared_lock<std::shared_mutex> lock(*shard_mu_[*s]);
  LayoutStore& mem = base_.memory(*s);
  // Routed but not yet applied by the worker: not observable yet.
  if (!mem.contains(id)) return std::nullopt;
  return mem.neighbors_of(id);
}

std::vector<unsigned char> ServingEngine::payload_of(ItemId id) {
  std::optional<std::size_t> s;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    s = base_.find_shard(id);
  }
  if (!s) return {};
  std::shared_lock<std::shared_mutex> lock(*shard_mu_[*s]);
  ArenaStore* arena = base_.cell(*s).arena();
  if (arena == nullptr || !arena->contains(id)) return {};
  const std::span<const unsigned char> bytes = arena->payload(id);
  return {bytes.begin(), bytes.end()};
}

bool ServingEngine::contains(ItemId id) {
  std::optional<std::size_t> s;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    s = base_.find_shard(id);
  }
  if (!s) return false;
  std::shared_lock<std::shared_mutex> lock(*shard_mu_[*s]);
  return base_.memory(*s).contains(id);
}

ShardedRunStats ServingEngine::stats() {
  drain();
  ShardedRunStats out = base_.stats();
  std::lock_guard<std::mutex> lock(route_mu_);
  out.global.wall_seconds =
      stopped_ || !started_
          ? wall_seconds_
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          first_submit_)
                .count();
  return out;
}

void ServingEngine::audit() {
  drain();
  base_.audit();
}

std::vector<double> serve_deterministic(ServingEngine& engine,
                                        const Sequence& seq,
                                        std::size_t lanes,
                                        std::uint64_t seed) {
  MEMREAL_CHECK_MSG(lanes >= 1, "serve_deterministic: need >= 1 lane");
  const std::size_t n = seq.updates.size();
  // Seed-derived lane schedule: lane_of[i] names the client thread that
  // must submit update i.  The ticket below enforces submission order
  // 0, 1, 2, ... regardless of scheduling, so the route order — and
  // with it every cell's sub-sequence — equals the batch path's.
  std::vector<std::size_t> lane_of(n);
  SplitMix64 mix(seed);
  for (std::size_t i = 0; i < n; ++i) {
    lane_of[i] = static_cast<std::size_t>(mix.next() % lanes);
  }

  std::vector<std::future<double>> futures(n);
  std::mutex ticket_mu;
  std::condition_variable ticket_cv;
  std::size_t next = 0;
  std::exception_ptr first_error;

  auto lane_body = [&](std::size_t lane) {
    for (std::size_t i = 0; i < n; ++i) {
      if (lane_of[i] != lane) continue;
      std::unique_lock<std::mutex> lock(ticket_mu);
      ticket_cv.wait(lock, [&] { return next == i || first_error; });
      if (first_error) return;
      try {
        futures[i] = engine.submit(seq.updates[i]);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        ticket_cv.notify_all();
        return;
      }
      ++next;
      ticket_cv.notify_all();
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    clients.emplace_back(lane_body, lane);
  }
  for (std::thread& c : clients) c.join();
  if (first_error) std::rethrow_exception(first_error);

  std::vector<double> costs;
  costs.reserve(n);
  for (std::future<double>& f : futures) costs.push_back(f.get());
  return costs;
}

}  // namespace memreal
