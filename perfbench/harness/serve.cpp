#include "serve.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "compress/paged.hpp"
#include "compress/quantizer.hpp"
#include "compress/registry.hpp"
#include "compress/workspace.hpp"
#include "data/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/inference_engine.hpp"
#include "serve/load_generator.hpp"

namespace perfbench {

namespace {

using namespace dlcomp;

constexpr std::uint64_t kModelSeed = 42;
constexpr unsigned kReplicas = 3;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMeanQuerySize = 16;
constexpr double kErrorBound = 0.01;
/// Offered rate of the fixed-rate phase, queries per second.
constexpr double kFixedQps = 150.0;
/// Arrival rate the warm-up and capacity batches are planned at. It sets
/// their batch sizes only: those phases run the fleet saturated.
constexpr double kCapacityQps = 1000.0;
/// The synthetic click task is fixed (the training workloads' task); the
/// benchmark seed picks the query stream and the window of the batch
/// stream the queries score.
constexpr std::uint64_t kDataSeed = 1;

DatasetSpec serve_spec() { return DatasetSpec::criteo_kaggle_like(20000); }

ShardStoreConfig store_config() {
  ShardStoreConfig config;
  config.num_shards = 4;
  config.rows_per_page = 256;
  config.cache_budget_bytes = 4u << 20;
  config.codec = "hybrid";
  config.error_bound = kErrorBound;
  return config;
}

// -------------------------------------------------------------- inputs

/// One phase's pre-generated input: the Poisson query stream, its batch
/// plan and the sample batch each planned batch scores.
struct PhaseInput {
  std::vector<Query> queries;
  std::vector<InferenceBatch> batches;
  std::vector<SampleBatch> samples;
};

PhaseInput make_phase(const SyntheticClickDataset& data, double qps,
                      std::size_t num_queries, std::uint64_t seed,
                      std::uint64_t batch_base) {
  LoadGenConfig load;
  load.pattern = ArrivalPattern::kPoisson;
  load.qps = qps;
  load.num_queries = std::max<std::size_t>(1, num_queries);
  load.mean_query_size = kMeanQuerySize;
  load.max_query_size = 8 * kMeanQuerySize;
  load.seed = seed;
  PhaseInput in;
  in.queries = LoadGenerator(load).generate();
  in.batches = BatchScheduler(BatchSchedulerConfig{}).plan(in.queries).batches;
  in.samples.reserve(in.batches.size());
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    in.samples.push_back(
        data.make_batch(in.batches[b].total_samples(), batch_base + b));
  }
  return in;
}

// --------------------------------------------------------------- fleet

struct Fleet {
  std::vector<std::unique_ptr<InferenceEngine>> engines;
  std::unique_ptr<ShardedEmbeddingStore> store;
};

/// Set-up as users pay it: the engine replicas, each restoring the
/// trained checkpoint, and the store build, including page compression.
Fleet build_fleet(const DatasetSpec& spec, const ShardStoreConfig& config,
                  unsigned replicas, const std::string& checkpoint) {
  Fleet fleet;
  EngineConfig engine_config;
  engine_config.checkpoint_path = checkpoint;
  for (unsigned r = 0; r < replicas; ++r) {
    fleet.engines.push_back(std::make_unique<InferenceEngine>(
        spec, DlrmConfig{}, engine_config, kModelSeed));
  }
  ThreadPool build_pool;
  fleet.store = std::make_unique<ShardedEmbeddingStore>(
      spec, fleet.engines.front()->model().tables(), config, &build_pool);
  for (auto& engine : fleet.engines) engine->use_store(fleet.store.get());
  return fleet;
}

// ------------------------------------------------------------ open loop

/// Per-replica gather accounting of a traced phase. The wrapper installed
/// as the model's lookup provider adds into the slot of its replica.
struct GatherSlot {
  std::unique_ptr<ShardRouter> router;
  double seconds = 0.0;
};

void install_traced_provider(InferenceEngine& engine,
                             ShardedEmbeddingStore& store, GatherSlot& slot) {
  slot.router = std::make_unique<ShardRouter>(store);
  engine.model().set_lookup_provider(
      [&slot](std::size_t table, std::span<const std::uint32_t> indices,
              Matrix& out) {
        const double t0 = now_s();
        slot.router->gather(table, indices, out);
        slot.seconds += now_s() - t0;
      });
}

struct PhaseRecord {
  double t0 = 0.0;
  std::vector<double> due, sent, start, end, gather_s;
  std::vector<int> status;  ///< 1 ok, 0 raised, -1 never started
  std::vector<std::vector<float>> scores;
  ShardStoreStats before, after;
};

/// Runs one phase open-loop: a generator thread releases each planned
/// batch at its dispatch time whether or not a replica is free, and the
/// replicas drain a shared FIFO until every batch is served.
PhaseRecord run_phase(Fleet& fleet, const PhaseInput& in,
                      std::vector<GatherSlot>* slots) {
  const std::size_t n = in.batches.size();
  PhaseRecord rec;
  rec.due.assign(n, 0.0);
  rec.sent.assign(n, 0.0);
  rec.start.assign(n, 0.0);
  rec.end.assign(n, 0.0);
  rec.gather_s.assign(n, 0.0);
  rec.status.assign(n, -1);
  rec.scores.assign(n, {});
  rec.before = fleet.store->stats();

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::size_t> queue;
  bool closed = false;

  rec.t0 = now_s() + 0.005;
  for (std::size_t b = 0; b < n; ++b) {
    rec.due[b] = rec.t0 + in.batches[b].dispatch_s;
  }

  const auto worker = [&](unsigned replica) {
    InferenceEngine& engine = *fleet.engines[replica];
    GatherSlot* slot = slots != nullptr ? &(*slots)[replica] : nullptr;
    for (;;) {
      std::size_t b = 0;
      {
        std::unique_lock lock(mutex);
        ready.wait(lock, [&] { return !queue.empty() || closed; });
        if (queue.empty()) return;
        b = queue.front();
        queue.pop_front();
      }
      if (slot != nullptr) slot->seconds = 0.0;
      rec.start[b] = now_s();
      try {
        rec.scores[b] = engine.run(in.samples[b]);
        rec.status[b] = 1;
      } catch (const std::exception&) {
        rec.status[b] = 0;
      }
      rec.end[b] = now_s();
      if (slot != nullptr) rec.gather_s[b] = slot->seconds;
    }
  };
  std::vector<std::thread> workers;
  for (unsigned r = 0; r < fleet.engines.size(); ++r) {
    workers.emplace_back(worker, r);
  }
  std::thread generator([&] {
    for (std::size_t b = 0; b < n; ++b) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(rec.due[b]))));
      {
        std::lock_guard lock(mutex);
        rec.sent[b] = now_s();
        queue.push_back(b);
      }
      ready.notify_one();
    }
    {
      std::lock_guard lock(mutex);
      closed = true;
    }
    ready.notify_all();
  });
  generator.join();
  for (auto& w : workers) w.join();
  rec.after = fleet.store->stats();
  return rec;
}

/// One batch run of a saturated phase.
struct Execution {
  std::size_t batch;
  double start, end;
  int status;  ///< 1 ok, 0 raised
};

struct SaturatedRecord {
  double t0 = 0.0;
  std::vector<Execution> runs;
  bool scores_finite = true;
};

/// Runs the fleet saturated for `window_s`: each replica starts the next
/// planned batch as soon as it finishes the last, recycling the plan when
/// it runs out, so there is always a backlog and the offered rate has no
/// ceiling. A replica starts no batch after the window closes.
SaturatedRecord run_saturated(Fleet& fleet, const PhaseInput& in,
                              double window_s) {
  SaturatedRecord rec;
  std::mutex mutex;
  std::size_t next = 0;
  rec.t0 = now_s();
  const double window_end = rec.t0 + window_s;
  const auto worker = [&](unsigned replica) {
    InferenceEngine& engine = *fleet.engines[replica];
    for (;;) {
      std::size_t b = 0;
      {
        std::lock_guard lock(mutex);
        if (now_s() >= window_end) return;
        b = next++ % in.batches.size();
      }
      Execution run{b, now_s(), 0.0, 1};
      bool finite = true;
      try {
        for (const float p : engine.run(in.samples[b])) {
          finite = finite && std::isfinite(p);
        }
      } catch (const std::exception&) {
        run.status = 0;
      }
      run.end = now_s();
      std::lock_guard lock(mutex);
      rec.runs.push_back(run);
      rec.scores_finite = rec.scores_finite && finite;
    }
  };
  std::vector<std::thread> workers;
  for (unsigned r = 0; r < fleet.engines.size(); ++r) {
    workers.emplace_back(worker, r);
  }
  for (auto& w : workers) w.join();
  return rec;
}

JsonValue stats_json(const ShardStoreStats& s) {
  JsonValue out = JsonValue::object();
  out.set("hits", num(static_cast<double>(s.hits)));
  out.set("misses", num(static_cast<double>(s.misses)));
  out.set("pages_loaded", num(static_cast<double>(s.pages_loaded)));
  return out;
}

/// Mean BCE of the served probabilities against the batch labels, and
/// whether every score is finite. Summed in batch order: deterministic.
void score_summary(const PhaseInput& in, const PhaseRecord& rec,
                   JsonValue& out) {
  double loss = 0.0;
  double count = 0.0;
  bool finite = true;
  for (std::size_t b = 0; b < rec.scores.size(); ++b) {
    if (rec.status[b] != 1) continue;
    const auto& labels = in.samples[b].labels;
    for (std::size_t i = 0; i < rec.scores[b].size(); ++i) {
      const double p = rec.scores[b][i];
      if (!std::isfinite(p)) {
        finite = false;
        continue;
      }
      const double q = std::clamp(p, 1e-7, 1.0 - 1e-7);
      loss -= labels[i] > 0.5f ? std::log(q) : std::log(1.0 - q);
      count += 1.0;
    }
  }
  out.set("loss_sum", num(loss));
  out.set("loss_count", num(count));
  out.set("scores_finite", JsonValue(finite));
}

JsonValue phase_json(const PhaseInput& in, const PhaseRecord& rec) {
  JsonValue out = JsonValue::object();
  out.set("t0", num(rec.t0));
  out.set("due", num_array(rec.due));
  out.set("sent", num_array(rec.sent));
  out.set("start", num_array(rec.start));
  out.set("end", num_array(rec.end));
  out.set("gather_s", num_array(rec.gather_s));
  out.set("status", num_array(rec.status));
  std::vector<double> samples;
  std::vector<double> q_arrival;
  std::vector<double> q_batch;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    samples.push_back(static_cast<double>(in.batches[b].total_samples()));
    for (const Query& q : in.batches[b].queries) {
      q_arrival.push_back(rec.t0 + q.arrival_s);
      q_batch.push_back(static_cast<double>(b));
    }
  }
  out.set("samples", num_array(samples));
  out.set("q_arrival", num_array(q_arrival));
  out.set("q_batch", num_array(q_batch));
  out.set("stats_before", stats_json(rec.before));
  out.set("stats_after", stats_json(rec.after));
  score_summary(in, rec, out);
  return out;
}

/// Scores every `stride`-th served batch through a 1-shard store with no
/// hot tier and compares bitwise with what the fleet served.
JsonValue bitwise_reference(const DatasetSpec& spec, const PhaseInput& in,
                            const PhaseRecord& rec,
                            const std::string& checkpoint) {
  ShardStoreConfig config = store_config();
  config.num_shards = 1;
  config.cache_budget_bytes = 0;
  Fleet ref = build_fleet(spec, config, 1, checkpoint);
  const std::size_t stride = std::max<std::size_t>(1, in.batches.size() / 48);
  std::size_t compared = 0;
  std::size_t equal = 0;
  for (std::size_t b = 0; b < in.batches.size(); b += stride) {
    if (rec.status[b] != 1) continue;
    const std::vector<float> scores = ref.engines.front()->run(in.samples[b]);
    ++compared;
    if (scores.size() == rec.scores[b].size() &&
        std::memcmp(scores.data(), rec.scores[b].data(),
                    scores.size() * sizeof(float)) == 0) {
      ++equal;
    }
  }
  JsonValue out = JsonValue::object();
  out.set("compared", num(static_cast<double>(compared)));
  out.set("equal", num(static_cast<double>(equal)));
  return out;
}

struct SetupResult {
  Fleet fleet;
  std::vector<double> seconds;
};

SetupResult repeated_setup(const DatasetSpec& spec,
                           const std::string& checkpoint) {
  SetupResult out;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    out.fleet = Fleet{};  // release the previous build first
    const double t0 = now_s();
    out.fleet = build_fleet(spec, store_config(), kReplicas, checkpoint);
    out.seconds.push_back(now_s() - t0);
  }
  return out;
}

JsonValue store_json(const Fleet& fleet) {
  const ShardStoreStats s = fleet.store->stats();
  std::size_t pages = 0;
  for (const EmbeddingTable& t : fleet.engines.front()->model().tables()) {
    pages += (t.rows() + store_config().rows_per_page - 1) /
             store_config().rows_per_page;
  }
  JsonValue out = JsonValue::object();
  out.set("input_bytes", num(static_cast<double>(s.input_bytes)));
  out.set("stored_bytes", num(static_cast<double>(s.stored_bytes)));
  out.set("pages", num(static_cast<double>(pages)));
  out.set("max_abs_error", num(s.max_abs_error));
  out.set("error_bound", num(kErrorBound));
  return out;
}

/// The page codec on the workload's own pages: compress, decompress and
/// quantize() each page payload of every fourth table, and time
/// PagedRowStore::load_page per page.
JsonValue page_probe(std::span<const EmbeddingTable> tables) {
  const ShardStoreConfig sc = store_config();
  const Compressor& codec = get_compressor(sc.codec);
  PagedStoreConfig pc;
  pc.codec = &codec;
  pc.params.error_bound = sc.error_bound;
  pc.params.eb_mode = EbMode::kAbsolute;
  pc.params.lz_window_vectors = sc.lz_window_vectors;
  pc.rows_per_page = sc.rows_per_page;

  CompressionWorkspace ws;
  std::vector<std::byte> stream;
  std::vector<float> recon;
  std::vector<std::int32_t> codes;
  double raw_bytes = 0.0;
  double compress_s = 0.0;
  double decompress_s = 0.0;
  double quantize_s = 0.0;
  std::vector<double> load_page_s;
  for (std::size_t t = 0; t < tables.size(); t += 4) {
    const Matrix& w = tables[t].weights();
    const std::size_t dim = w.cols();
    for (std::size_t r0 = 0; r0 < w.rows(); r0 += sc.rows_per_page) {
      const std::size_t rows = std::min(sc.rows_per_page, w.rows() - r0);
      const std::span<const float> page(w.data() + r0 * dim, rows * dim);
      raw_bytes += static_cast<double>(page.size_bytes());
      double t0 = now_s();
      stream.clear();
      (void)codec.compress(page, pc.params, stream, ws);
      compress_s += now_s() - t0;
      recon.resize(page.size());
      t0 = now_s();
      (void)codec.decompress(stream, recon, ws);
      decompress_s += now_s() - t0;
      codes.resize(page.size());
      t0 = now_s();
      quantize(page, sc.error_bound, codes);
      quantize_s += now_s() - t0;
    }
    const PagedRowStore paged(w, pc);
    std::vector<float> out(sc.rows_per_page * dim);
    for (std::size_t p = 0; p < paged.num_pages(); ++p) {
      const std::size_t count = paged.page_rows(p) * dim;
      const double t0 = now_s();
      paged.load_page(p, std::span<float>(out).subspan(0, count), ws);
      load_page_s.push_back(now_s() - t0);
    }
  }
  JsonValue out = JsonValue::object();
  out.set("raw_bytes", num(raw_bytes));
  out.set("compress_s", num(compress_s));
  out.set("decompress_s", num(decompress_s));
  out.set("quantize_s", num(quantize_s));
  out.set("load_page_s", num_array(load_page_s));
  return out;
}

JsonValue saturated_json(const PhaseInput& in, const SaturatedRecord& rec) {
  std::vector<double> batch, start, end, status;
  for (const Execution& run : rec.runs) {
    batch.push_back(static_cast<double>(run.batch));
    start.push_back(run.start);
    end.push_back(run.end);
    status.push_back(run.status);
  }
  std::vector<double> queries, samples;
  for (const InferenceBatch& b : in.batches) {
    queries.push_back(static_cast<double>(b.queries.size()));
    samples.push_back(static_cast<double>(b.total_samples()));
  }
  JsonValue out = JsonValue::object();
  out.set("t0", num(rec.t0));
  out.set("batch", num_array(batch));
  out.set("start", num_array(start));
  out.set("end", num_array(end));
  out.set("status", num_array(status));
  out.set("batch_queries", num_array(queries));
  out.set("batch_samples", num_array(samples));
  out.set("scores_finite", JsonValue(rec.scores_finite));
  return out;
}

/// First batch-stream index of phase `phase` under this seed.
std::uint64_t batch_base(std::uint64_t seed, std::uint64_t phase) {
  return ((seed % 4096) * 4 + phase) << 20;
}

struct Budget {
  double warmup_s;
  double fixed_s;
  double capacity_s;
};

}  // namespace

JsonValue measure_serve(std::uint64_t seed, double seconds,
                        const std::string& checkpoint) {
  const DatasetSpec ds = serve_spec();
  const SyntheticClickDataset data(ds, kDataSeed);
  const Budget budget{0.05 * seconds, 0.7 * seconds, 0.25 * seconds};
  // Inputs first: they come from the seed and are not part of set-up.
  const PhaseInput warmup =
      make_phase(data, kCapacityQps,
                 static_cast<std::size_t>(kCapacityQps * budget.warmup_s),
                 seed ^ 0x11, batch_base(seed, 0));
  const PhaseInput fixed =
      make_phase(data, kFixedQps,
                 static_cast<std::size_t>(kFixedQps * budget.fixed_s),
                 seed ^ 0x22, batch_base(seed, 1));
  const PhaseInput capacity = make_phase(
      data, kCapacityQps,
      static_cast<std::size_t>(kCapacityQps * budget.capacity_s),
      seed ^ 0x33, batch_base(seed, 2));

  SetupResult setup = repeated_setup(ds, checkpoint);
  Fleet& fleet = setup.fleet;
  (void)run_saturated(fleet, warmup, budget.warmup_s);
  const PhaseRecord fixed_rec = run_phase(fleet, fixed, nullptr);
  const SaturatedRecord cap_rec =
      run_saturated(fleet, capacity, budget.capacity_s);

  JsonValue out = JsonValue::object();
  out.set("setup_s", num_array(setup.seconds));
  out.set("fixed_qps", num(kFixedQps));
  out.set("fixed", phase_json(fixed, fixed_rec));
  out.set("capacity", saturated_json(capacity, cap_rec));
  out.set("store", store_json(fleet));
  out.set("peak_rss_mb", num(self_peak_rss_mb()));
  out.set("bitwise", bitwise_reference(ds, fixed, fixed_rec, checkpoint));
  return out;
}

JsonValue trace_serve(std::uint64_t seed, double seconds,
                      const std::string& checkpoint) {
  const DatasetSpec ds = serve_spec();
  const SyntheticClickDataset data(ds, kDataSeed);
  const Budget budget{0.1 * seconds, 0.4 * seconds, 0.0};
  const PhaseInput warmup =
      make_phase(data, kCapacityQps,
                 static_cast<std::size_t>(kCapacityQps * budget.warmup_s),
                 seed ^ 0x11, batch_base(seed, 0));
  const PhaseInput plain =
      make_phase(data, kFixedQps,
                 static_cast<std::size_t>(kFixedQps * budget.fixed_s),
                 seed ^ 0x22, batch_base(seed, 1));
  const PhaseInput traced =
      make_phase(data, kFixedQps,
                 static_cast<std::size_t>(kFixedQps * budget.fixed_s),
                 seed ^ 0x44, batch_base(seed, 3));

  SetupResult setup = repeated_setup(ds, checkpoint);
  Fleet& fleet = setup.fleet;
  (void)run_saturated(fleet, warmup, budget.warmup_s);
  const PhaseRecord plain_rec = run_phase(fleet, plain, nullptr);

  std::vector<GatherSlot> slots(fleet.engines.size());
  for (std::size_t r = 0; r < fleet.engines.size(); ++r) {
    install_traced_provider(*fleet.engines[r], *fleet.store, slots[r]);
  }
  const PhaseRecord traced_rec = run_phase(fleet, traced, &slots);
  double partials = 0.0;
  double gathers = 0.0;
  for (GatherSlot& slot : slots) {
    partials += static_cast<double>(slot.router->partials_issued());
    gathers += static_cast<double>(slot.router->gathers());
  }
  for (auto& engine : fleet.engines) engine->use_store(fleet.store.get());

  JsonValue out = JsonValue::object();
  out.set("setup_s", num_array(setup.seconds));
  out.set("plain", phase_json(plain, plain_rec));
  out.set("traced", phase_json(traced, traced_rec));
  out.set("partials", num(partials));
  out.set("gather_calls", num(gathers));
  out.set("store", store_json(fleet));
  out.set("page_probe", page_probe(fleet.engines.front()->model().tables()));
  out.set("peak_rss_mb", num(self_peak_rss_mb()));
  out.set("bitwise", bitwise_reference(ds, traced, traced_rec, checkpoint));
  return out;
}

}  // namespace perfbench
