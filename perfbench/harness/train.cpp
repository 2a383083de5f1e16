#include "train.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "comm/tcp_runtime.hpp"
#include "common/crc32.hpp"
#include "compress/quantizer.hpp"
#include "compress/registry.hpp"
#include "compress/workspace.hpp"
#include "core/offline_analyzer.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "dlrm/interaction.hpp"

namespace perfbench {

namespace {

using namespace dlcomp;

constexpr int kWorld = 4;
constexpr std::size_t kGlobalBatch = 1024;
constexpr std::uint64_t kModelSeed = 42;
constexpr std::size_t kMaxIters = 64;
constexpr std::size_t kCommRounds = 16;

DatasetSpec train_spec() { return DatasetSpec::criteo_kaggle_like(20000); }

/// Generator seed of the one synthetic click task every run trains on.
/// Chosen because 64 iterations visibly learn it (eval loss well below
/// ln 2), so eval_loss can show the accuracy cost of the error bounds.
constexpr std::uint64_t kTaskSeed = 1;

/// The workload input: the fixed task, read from a window of its batch
/// stream that the benchmark seed selects. Every seed trains the same
/// task on different samples, so seeds vary the inputs without changing
/// how hard the task is.
class SeededStream final : public BatchSource {
 public:
  explicit SeededStream(std::uint64_t seed)
      : data_(train_spec(), kTaskSeed),
        offset_((seed % 4096) * 1000003ULL) {}
  [[nodiscard]] const DatasetSpec& spec() const noexcept override {
    return data_.spec();
  }
  [[nodiscard]] SampleBatch make_batch(std::size_t batch_size,
                                       std::uint64_t index) const override {
    return data_.make_batch(batch_size, offset_ + index);
  }
  [[nodiscard]] SampleBatch make_eval_batch(
      std::size_t batch_size, std::uint64_t index) const override {
    return data_.make_eval_batch(batch_size, offset_ + index);
  }

 private:
  SyntheticClickDataset data_;
  std::uint64_t offset_;
};

// ------------------------------------------------------------- config

struct Analysis {
  AnalysisReport report;
  double seconds = 0.0;
};

/// The offline analysis of the dual-level setting, configured as the
/// Fig. 12 bench configures it.
Analysis analyze(const BatchSource& data) {
  const double t0 = now_s();
  AnalyzerConfig analyzer_config;
  analyzer_config.sample_batches = 2;
  analyzer_config.sampling_eb = 0.01;
  const auto tables = make_embedding_set(data.spec(), kModelSeed);
  Analysis out;
  out.report = OfflineAnalyzer(analyzer_config).analyze(data, tables);
  out.seconds = now_s() - t0;
  return out;
}

TrainerConfig make_config(const TrainSpec& spec, const Analysis* analysis) {
  TrainerConfig config;
  config.world = kWorld;
  config.global_batch = kGlobalBatch;
  config.iterations = spec.iterations;
  config.seed = kModelSeed;
  config.record_every = spec.iterations;
  config.overlap.forward = true;
  config.overlap.backward = true;
  config.overlap.pipeline_stages = 2;
  if (spec.hybrid) {
    config.compression.codec = "hybrid";
    config.compression.table_eb = analysis->report.table_error_bounds();
    config.compression.table_choice = analysis->report.table_choices();
    config.compression.scheduler = {.func = DecayFunc::kStepwise,
                                    .initial_scale = 2.0,
                                    .decay_end_iter = spec.iterations / 2,
                                    .num_steps = 2};
  }
  return config;
}

void join_tcp(TrainerConfig& config, int rank, std::uint16_t port,
              int listen_fd) {
  config.transport.backend = "tcp";
  config.transport.rank = rank;
  config.transport.port = port;
  config.transport.inherited_listen_fd = listen_fd;
}

// ------------------------------------------------- untraced train()

/// What one rank of an untraced launch leaves behind. The timestamps come
/// from TimedSource, the rest from rank 0's TrainingResult.
struct LaunchRecord {
  double t_batch[kMaxIters];  ///< entry of make_batch(., iter)
  std::uint32_t wire_crc32;
  double eval_loss;
  int losses_finite;
  std::uint64_t grow_events;
  std::uint64_t a2a_bytes, ar_bytes;
  double exposed_comm_s;
};

/// Forwards to the workload's dataset and stamps when train() asks for
/// each batch: the first request of iteration i marks that iteration's
/// start on this rank.
class TimedSource final : public BatchSource {
 public:
  TimedSource(const BatchSource& inner, LaunchRecord& record)
      : inner_(inner), record_(record) {}
  [[nodiscard]] const DatasetSpec& spec() const noexcept override {
    return inner_.spec();
  }
  [[nodiscard]] SampleBatch make_batch(std::size_t batch_size,
                                       std::uint64_t index) const override {
    if (index < kMaxIters && record_.t_batch[index] == 0.0) {
      record_.t_batch[index] = now_s();
    }
    return inner_.make_batch(batch_size, index);
  }
  [[nodiscard]] SampleBatch make_eval_batch(
      std::size_t batch_size, std::uint64_t index) const override {
    return inner_.make_eval_batch(batch_size, index);
  }

 private:
  const BatchSource& inner_;
  LaunchRecord& record_;
};

bool losses_finite(const TrainingResult& result) {
  if (!std::isfinite(result.final_eval.loss)) return false;
  for (const IterationRecord& rec : result.history) {
    if (!std::isfinite(rec.train_loss)) return false;
  }
  return true;
}

JsonValue launch_train(const TrainSpec& spec, const BatchSource& data) {
  Analysis analysis;
  if (spec.hybrid) analysis = analyze(data);
  const TrainerConfig base = make_config(spec, &analysis);

  SharedArray<LaunchRecord> records(kWorld);
  const LaunchResult launch =
      launch_ranks(kWorld, [&](int rank, std::uint16_t port, int fd) {
        LaunchRecord& rec = records[static_cast<std::size_t>(rank)];
        TrainerConfig config = base;
        join_tcp(config, rank, port, fd);
        const TimedSource source(data, rec);
        const TrainingResult result =
            HybridParallelTrainer(config).train(source);
        if (rank == 0) {
          rec.wire_crc32 = result.wire_crc32;
          rec.eval_loss = result.final_eval.loss;
          rec.losses_finite = losses_finite(result) ? 1 : 0;
          rec.grow_events = result.steady_state_grow_events;
          rec.a2a_bytes = result.comm_stats.alltoall_wire_bytes;
          rec.ar_bytes = result.comm_stats.allreduce_wire_bytes;
          rec.exposed_comm_s = result.exposed_comm_seconds();
        }
        return 0;
      });

  JsonValue out = JsonValue::object();
  out.set("analysis_s", num(analysis.seconds));
  out.set("fork_s", num(launch.fork_s));
  out.set("exit_codes", num_array(launch.exit_codes));
  out.set("peak_rss_mb", num_array(launch.peak_rss_mb));
  JsonValue t_batch = JsonValue::array();
  for (int r = 0; r < kWorld; ++r) {
    t_batch.push_back(num_array(std::span<const double>(
        records[static_cast<std::size_t>(r)].t_batch, spec.iterations)));
  }
  out.set("t_batch", std::move(t_batch));
  const LaunchRecord& r0 = records[0];
  out.set("wire_crc32", num(r0.wire_crc32));
  out.set("eval_loss", num(r0.eval_loss));
  out.set("losses_finite", JsonValue(r0.losses_finite != 0));
  out.set("grow_events", num(static_cast<double>(r0.grow_events)));
  out.set("a2a_bytes", num(static_cast<double>(r0.a2a_bytes)));
  out.set("ar_bytes", num(static_cast<double>(r0.ar_bytes)));
  out.set("exposed_comm_s", num(r0.exposed_comm_s));
  return out;
}

/// The bitwise reference: the same config on the in-process sim backend.
JsonValue sim_reference(const TrainSpec& spec, const BatchSource& data) {
  Analysis analysis;
  if (spec.hybrid) analysis = analyze(data);
  TrainerConfig config = make_config(spec, &analysis);
  config.transport.backend = "sim";
  const TrainingResult result = HybridParallelTrainer(config).train(data);
  JsonValue out = JsonValue::object();
  out.set("wire_crc32", num(result.wire_crc32));
  out.set("eval_loss", num(result.final_eval.loss));
  out.set("losses_finite", JsonValue(losses_finite(result)));
  return out;
}

// ------------------------------------------------------ traced replay

enum Layer : int {
  kData,
  kLookup,
  kMlpFwd,
  kInteraction,
  kLoss,
  kMlpBwd,
  kA2aFwd,
  kA2aBwd,
  kAllreduce,
  kUpdate,
  kSync,
  kNumLayers
};
constexpr const char* kLayerNames[kNumLayers] = {
    "data",   "lookup",    "mlp_fwd", "interaction", "loss", "mlp_bwd",
    "a2a_fwd", "a2a_bwd", "allreduce", "update",     "sync"};

struct ReplayRecord {
  double layer_s[kMaxIters][kNumLayers];
  double codec_fwd_s[kMaxIters];  ///< A2AStats compress + decompress wall
  double codec_bwd_s[kMaxIters];
  double iter_s[kMaxIters];
  std::uint32_t rank_crc;
  double eval_loss;
  std::uint64_t fwd_raw, fwd_wire, bwd_raw, bwd_wire;
  std::uint64_t collectives;  ///< all-to-all + all-reduce calls, iterations only
  // comm probe on the replay's mesh
  double a2a_probe_bytes[kCommRounds];
  double a2a_probe_s[kCommRounds];
  double ar_probe_s[kCommRounds];
  // codec probe on the last iteration's chunks (rank 0)
  double codec_raw_bytes;
  double compress_s, decompress_s, quantize_s;
};

/// Accumulates steady-clock time into one layer slot.
class LayerClock {
 public:
  explicit LayerClock(double* slots) : slots_(slots) {}
  template <typename F>
  decltype(auto) time(Layer layer, F&& fn) {
    const double t0 = now_s();
    struct Charge {
      double* slot;
      double t0;
      ~Charge() { *slot += now_s() - t0; }
    } charge{&slots_[layer], t0};
    return fn();
  }

 private:
  double* slots_;
};

std::vector<std::size_t> bottom_dims(const DatasetSpec& spec,
                                     const DlrmConfig& model) {
  std::vector<std::size_t> dims{spec.num_dense};
  dims.insert(dims.end(), model.bottom_hidden.begin(),
              model.bottom_hidden.end());
  dims.push_back(spec.embedding_dim);
  return dims;
}

std::vector<std::size_t> top_dims(const DatasetSpec& spec,
                                  const DlrmConfig& model) {
  std::vector<std::size_t> dims{
      DotInteraction::output_dim(spec.num_tables(), spec.embedding_dim)};
  dims.insert(dims.end(), model.top_hidden.begin(), model.top_hidden.end());
  dims.push_back(1);
  return dims;
}

/// Flattens both MLPs' gradients into `flat` (the all-reduce buffer).
void pack_grads(Mlp& bottom, Mlp& top, std::vector<float>& flat) {
  auto views_b = bottom.grad_views();
  auto views_t = top.grad_views();
  std::size_t total = 0;
  for (const auto& v : views_b) total += v.size();
  for (const auto& v : views_t) total += v.size();
  flat.resize(total);
  std::size_t cursor = 0;
  for (auto* views : {&views_b, &views_t}) {
    for (const auto& v : *views) {
      std::copy(v.begin(), v.end(), flat.begin() + cursor);
      cursor += v.size();
    }
  }
}

/// Writes the reduced gradients back, averaged over the world.
void unpack_grads(Mlp& bottom, Mlp& top, const std::vector<float>& flat,
                  int world) {
  const float inv_world = 1.0f / static_cast<float>(world);
  std::size_t cursor = 0;
  auto views_b = bottom.grad_views();
  auto views_t = top.grad_views();
  for (auto* views : {&views_b, &views_t}) {
    for (auto& v : *views) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = flat[cursor + i] * inv_world;
      }
      cursor += v.size();
    }
  }
}

/// Owner broadcast of every table over the raw transport, so rank 0's
/// held-out eval reads current rows (the tables of other owners are
/// stale replicas in this process).
void sync_tables(Communicator& comm, std::vector<EmbeddingTable>& tables) {
  Transport& transport = comm.transport();
  const auto world = static_cast<std::size_t>(transport.world());
  const auto me = static_cast<std::size_t>(transport.rank());
  std::vector<std::vector<std::byte>> controls;
  std::vector<std::vector<std::byte>> recv;
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const std::size_t owner = t % world;
    const std::span<float> weights = tables[t].weights().flat();
    std::vector<std::span<const std::byte>> sends(world);
    if (me == owner) {
      std::fill(sends.begin(), sends.end(),
                std::as_bytes(std::span<const float>(weights)));
    }
    transport.exchange({}, sends, controls, recv);
    if (me != owner) {
      if (recv[owner].size() != weights.size_bytes()) {
        throw std::runtime_error("table sync: short payload");
      }
      std::memcpy(weights.data(), recv[owner].data(), weights.size_bytes());
    }
  }
}

double evaluate(Mlp& bottom, Mlp& top, std::span<EmbeddingTable> tables,
                const DatasetSpec& spec, const BatchSource& data,
                std::size_t batch_size, std::size_t batches) {
  double loss = 0.0;
  std::vector<Matrix> lookups(tables.size());
  for (std::size_t i = 0; i < batches; ++i) {
    const SampleBatch batch = data.make_eval_batch(batch_size, i);
    const Matrix& z0 = bottom.forward(batch.dense);
    for (std::size_t t = 0; t < tables.size(); ++t) {
      lookups[t].resize(batch_size, spec.embedding_dim);
      tables[t].lookup(batch.indices[t], lookups[t]);
    }
    Matrix feat(batch_size, DotInteraction::output_dim(tables.size(),
                                                       spec.embedding_dim));
    DotInteraction::forward(z0, lookups, feat);
    const Matrix& logits = top.forward(feat);
    loss += bce_with_logits(logits.flat(), batch.labels).loss;
  }
  return loss / static_cast<double>(batches);
}

/// The iteration of HybridParallelTrainer::train(), replayed call by call
/// through the library's public API with each call timed. It issues the
/// same float operations and collectives in the same order, which is what
/// makes its wire CRC and eval loss equal train()'s.
int replay_rank(const TrainerConfig& config, const BatchSource& data,
                int rank_i, ReplayRecord& rec) {
  const DatasetSpec& spec = data.spec();
  const std::size_t world = kWorld;
  const std::size_t rank = static_cast<std::size_t>(rank_i);
  const std::size_t global_batch = config.global_batch;
  const std::size_t local_batch = global_batch / world;
  const std::size_t dim = spec.embedding_dim;
  const std::size_t num_tables = spec.num_tables();
  const CompressionPolicy& policy = config.compression;
  const Compressor* codec =
      policy.codec.empty() ? nullptr : &get_compressor(policy.codec);
  const ErrorBoundScheduler scheduler(policy.scheduler);
  std::vector<double> table_eb = policy.table_eb;
  if (table_eb.empty()) table_eb.assign(num_tables, policy.global_eb);
  std::vector<HybridChoice> table_choice = policy.table_choice;
  if (table_choice.empty()) table_choice.assign(num_tables, HybridChoice::kAuto);

  std::vector<EmbeddingTable> tables = make_embedding_set(spec, config.seed);
  std::vector<EmbeddingOptimizer> optimizers;
  optimizers.reserve(num_tables);
  for (std::size_t t = 0; t < num_tables; ++t) {
    optimizers.emplace_back(config.model.embedding_optimizer,
                            config.model.learning_rate);
  }
  ThreadPool codec_pool(
      std::min<unsigned>(4, std::thread::hardware_concurrency()));
  Rng mlp_rng(config.seed);
  auto rng_b = mlp_rng.fork({0xB0});
  auto rng_t = mlp_rng.fork({0x70});
  const auto bdims = bottom_dims(spec, config.model);
  const auto tdims = top_dims(spec, config.model);
  Mlp bottom(bdims, rng_b);
  Mlp top(tdims, rng_t);

  TcpTransportConfig tcfg;
  tcfg.world = kWorld;
  tcfg.rank = rank_i;
  tcfg.port = config.transport.port;
  tcfg.inherited_listen_fd = config.transport.inherited_listen_fd;
  TcpRuntime runtime(tcfg, config.network);
  Communicator& comm = runtime.comm();

  std::vector<std::size_t> owned;
  for (std::size_t t = rank; t < num_tables; t += world) owned.push_back(t);
  std::vector<std::vector<std::size_t>> owned_by(world);
  for (std::size_t t = 0; t < num_tables; ++t) owned_by[t % world].push_back(t);

  CompressedAllToAllConfig a2a_config;
  a2a_config.codec = codec;
  a2a_config.pool = &codec_pool;
  a2a_config.device = config.device;
  a2a_config.pipeline_stages =
      std::max<std::size_t>(1, config.overlap.pipeline_stages);
  const CompressedAllToAll a2a(a2a_config);

  std::uint32_t crc = crc32_init();
  const auto crc_fold = [&crc](std::uint32_t word) {
    crc = crc32_update(crc,
                       std::as_bytes(std::span<const std::uint32_t>(&word, 1)));
  };

  std::vector<Matrix> owned_lookup(num_tables);
  std::vector<Matrix> local_lookup(num_tables);
  std::vector<Matrix> demb(num_tables);
  std::vector<Matrix> grad_assembled(num_tables);
  Matrix local_dense(local_batch, spec.num_dense);
  std::vector<float> local_labels(local_batch);
  std::vector<float> grad_flat;
  std::vector<std::vector<A2AChunkSpec>> send_fwd;
  std::vector<std::vector<A2AChunkSpec>> send_bwd;
  const float lr_scale = 1.0f / static_cast<float>(world);

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    const double iter_t0 = now_s();
    LayerClock clock(rec.layer_s[iter]);
    const double eb_scale = scheduler.scale_at(iter);

    const SampleBatch batch = clock.time(kData, [&] {
      SampleBatch b = data.make_batch(global_batch, iter);
      const std::size_t row0 = rank * local_batch;
      for (std::size_t i = 0; i < local_batch; ++i) {
        for (std::size_t f = 0; f < spec.num_dense; ++f) {
          local_dense(i, f) = b.dense(row0 + i, f);
        }
        local_labels[i] = b.labels[row0 + i];
      }
      return b;
    });

    const Matrix* z0 = nullptr;
    const auto bottom_forward = [&] {
      clock.time(kMlpFwd, [&] {
        z0 = &bottom.forward(local_dense);
        comm.advance_compute(phases::kBottomMlp,
                             config.compute.mlp_seconds(local_batch, bdims));
      });
    };
    if (!config.overlap.forward) bottom_forward();

    clock.time(kLookup, [&] {
      std::size_t lookup_bytes = 0;
      for (const std::size_t t : owned) {
        owned_lookup[t].resize(global_batch, dim);
        tables[t].lookup(batch.indices[t], owned_lookup[t]);
        lookup_bytes += owned_lookup[t].size() * sizeof(float);
      }
      comm.advance_compute(phases::kEmbLookup,
                           config.compute.memory_bound_seconds(lookup_bytes));
    });

    send_fwd.assign(world, {});
    for (std::size_t d = 0; d < world; ++d) {
      for (const std::size_t t : owned) {
        A2AChunkSpec chunk;
        chunk.data = std::span<const float>(
            owned_lookup[t].data() + d * local_batch * dim, local_batch * dim);
        chunk.params.error_bound = table_eb[t] * eb_scale;
        chunk.params.eb_mode = EbMode::kAbsolute;
        chunk.params.vector_dim = dim;
        chunk.params.hybrid_choice = table_choice[t];
        chunk.tag = static_cast<std::uint32_t>(t);
        send_fwd[d].push_back(chunk);
      }
    }
    std::vector<std::vector<std::span<float>>> recv_fwd(world);
    for (std::size_t s = 0; s < world; ++s) {
      for (const std::size_t t : owned_by[s]) {
        local_lookup[t].resize(local_batch, dim);
        recv_fwd[s].push_back(local_lookup[t].flat());
      }
    }
    A2AStats fwd_stats;
    if (config.overlap.forward) {
      auto pending = clock.time(kA2aFwd, [&] {
        return a2a.exchange_begin(comm, send_fwd, recv_fwd,
                                  phases::kAllToAllFwd);
      });
      bottom_forward();
      fwd_stats = clock.time(kA2aFwd, [&] { return pending.finish(); });
    } else {
      fwd_stats = clock.time(kA2aFwd, [&] {
        return a2a.exchange(comm, send_fwd, recv_fwd, phases::kAllToAllFwd);
      });
    }
    rec.fwd_raw += fwd_stats.send_raw_bytes;
    rec.fwd_wire += fwd_stats.send_wire_bytes;
    rec.codec_fwd_s[iter] =
        fwd_stats.compress_wall_seconds + fwd_stats.decompress_wall_seconds;
    crc_fold(fwd_stats.wire_crc32);

    Matrix feat(local_batch, DotInteraction::output_dim(num_tables, dim));
    clock.time(kInteraction, [&] {
      DotInteraction::forward(*z0, local_lookup, feat);
      comm.advance_compute(
          phases::kInteraction,
          config.compute.interaction_seconds(local_batch, num_tables, dim));
    });
    const Matrix& logits = clock.time(kMlpFwd, [&]() -> const Matrix& {
      const Matrix& out = top.forward(feat);
      comm.advance_compute(phases::kTopMlp,
                           config.compute.mlp_seconds(local_batch, tdims));
      return out;
    });
    Matrix dlogits(local_batch, 1);
    clock.time(kLoss, [&] {
      (void)bce_with_logits(logits.flat(), local_labels, dlogits.flat());
    });
    const Matrix dfeat = clock.time(kMlpBwd, [&] {
      Matrix out = top.backward(dlogits);
      comm.advance_compute(
          phases::kTopMlp, 2.0 * config.compute.mlp_seconds(local_batch, tdims));
      return out;
    });
    Matrix dz0(local_batch, dim);
    for (std::size_t t = 0; t < num_tables; ++t) demb[t].resize(local_batch, dim);
    clock.time(kInteraction, [&] {
      DotInteraction::backward(*z0, local_lookup, dfeat, dz0,
                               std::span<Matrix>(demb));
      comm.advance_compute(
          phases::kInteraction,
          2.0 * config.compute.interaction_seconds(local_batch, num_tables, dim));
    });

    send_bwd.assign(world, {});
    for (std::size_t d = 0; d < world; ++d) {
      for (const std::size_t t : owned_by[d]) {
        A2AChunkSpec chunk;
        chunk.data = demb[t].flat();
        chunk.params.error_bound = policy.backward_relative_eb;
        chunk.params.eb_mode = EbMode::kRangeRelative;
        chunk.params.vector_dim = dim;
        chunk.params.hybrid_choice = table_choice[t];
        chunk.tag = static_cast<std::uint32_t>(num_tables + t);
        send_bwd[d].push_back(chunk);
      }
    }
    std::vector<std::vector<std::span<float>>> recv_bwd(world);
    for (const std::size_t t : owned) grad_assembled[t].resize(global_batch, dim);
    for (std::size_t s = 0; s < world; ++s) {
      for (const std::size_t t : owned) {
        recv_bwd[s].push_back(std::span<float>(
            grad_assembled[t].data() + s * local_batch * dim,
            local_batch * dim));
      }
    }
    const auto bwd_exchange = [&] {
      const A2AStats stats = clock.time(kA2aBwd, [&] {
        return a2a.exchange(comm, send_bwd, recv_bwd, phases::kAllToAllBwd);
      });
      rec.bwd_raw += stats.send_raw_bytes;
      rec.bwd_wire += stats.send_wire_bytes;
      rec.codec_bwd_s[iter] =
          stats.compress_wall_seconds + stats.decompress_wall_seconds;
      crc_fold(stats.wire_crc32);
    };
    const auto bottom_backward = [&] {
      clock.time(kMlpBwd, [&] {
        (void)bottom.backward(dz0);
        comm.advance_compute(
            phases::kBottomMlp,
            2.0 * config.compute.mlp_seconds(local_batch, bdims));
      });
    };
    const auto emb_update = [&] {
      clock.time(kUpdate, [&] {
        std::size_t update_bytes = 0;
        for (const std::size_t t : owned) {
          optimizers[t].apply(tables[t], batch.indices[t], grad_assembled[t],
                              lr_scale);
          update_bytes += grad_assembled[t].size() * sizeof(float);
        }
        comm.advance_compute(phases::kEmbUpdate,
                             config.compute.memory_bound_seconds(update_bytes));
      });
    };
    if (config.overlap.backward) {
      bottom_backward();
      auto pending_ar = clock.time(kAllreduce, [&] {
        pack_grads(bottom, top, grad_flat);
        return comm.all_reduce_sum_async(grad_flat, phases::kAllReduce);
      });
      bwd_exchange();
      emb_update();
      clock.time(kAllreduce, [&] {
        pending_ar.wait();
        unpack_grads(bottom, top, grad_flat, kWorld);
      });
    } else {
      bwd_exchange();
      bottom_backward();
      emb_update();
      clock.time(kAllreduce, [&] {
        pack_grads(bottom, top, grad_flat);
        comm.all_reduce_sum(grad_flat, phases::kAllReduce);
        unpack_grads(bottom, top, grad_flat, kWorld);
      });
    }
    clock.time(kUpdate, [&] {
      bottom.sgd_step(config.model.learning_rate);
      top.sgd_step(config.model.learning_rate);
    });

    const bool record = config.record_every == 0 ||
                        iter % std::max<std::size_t>(config.record_every, 1) == 0 ||
                        iter + 1 == config.iterations;
    if (record) {
      clock.time(kSync, [&] {
        comm.barrier();
        comm.barrier();
      });
    }
    rec.iter_s[iter] = now_s() - iter_t0;
  }
  rec.collectives =
      comm.comm_stats().alltoall_count + comm.comm_stats().allreduce_count;

  comm.barrier();
  sync_tables(comm, tables);
  if (rank == 0) {
    rec.eval_loss = evaluate(bottom, top, tables, spec, data,
                             std::min<std::size_t>(global_batch, 512),
                             config.eval_batches);
  }
  comm.barrier();
  rec.rank_crc = crc32_final(crc);

  // Comm probe: the iteration's message sizes on this mesh, alternating
  // the forward and backward per-destination payloads.
  const std::size_t iters = config.iterations;
  const std::size_t sizes[2] = {
      std::max<std::size_t>(1, rec.fwd_wire / iters / world),
      std::max<std::size_t>(1, rec.bwd_wire / iters / world)};
  for (std::size_t round = 0; round < kCommRounds; ++round) {
    const std::size_t bytes = sizes[round % 2];
    std::vector<std::vector<std::byte>> sends(world,
                                              std::vector<std::byte>(bytes));
    comm.barrier();
    const double t0 = now_s();
    (void)comm.all_to_all_v(sends, "bench/alltoall");
    rec.a2a_probe_s[round] = now_s() - t0;
    rec.a2a_probe_bytes[round] = static_cast<double>(bytes * (world - 1));
  }
  for (std::size_t round = 0; round < kCommRounds; ++round) {
    comm.barrier();
    const double t0 = now_s();
    comm.all_reduce_sum(grad_flat, "bench/allreduce");
    rec.ar_probe_s[round] = now_s() - t0;
  }
  comm.barrier();

  // Codec probe: the hybrid codec on this rank's last forward and
  // backward chunks with their own bounds. Runs on rank 0 after the mesh
  // is idle, so the other ranks do not contend for cores.
  if (rank == 0) {
    const Compressor& hybrid = get_compressor("hybrid");
    std::vector<A2AChunkSpec> chunks;
    for (const auto& per_dest : send_fwd) {
      chunks.insert(chunks.end(), per_dest.begin(), per_dest.end());
    }
    for (const auto& per_dest : send_bwd) {
      chunks.insert(chunks.end(), per_dest.begin(), per_dest.end());
    }
    CompressionWorkspace ws;
    std::vector<std::vector<std::byte>> streams(chunks.size());
    std::vector<float> recon;
    std::vector<std::int32_t> codes;
    const double start = now_s();
    do {
      double t0 = now_s();
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        streams[i].clear();
        (void)hybrid.compress(chunks[i].data, chunks[i].params, streams[i], ws);
        rec.codec_raw_bytes += static_cast<double>(chunks[i].data.size_bytes());
      }
      rec.compress_s += now_s() - t0;
      t0 = now_s();
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        recon.resize(chunks[i].data.size());
        (void)hybrid.decompress(streams[i], recon, ws);
      }
      rec.decompress_s += now_s() - t0;
      t0 = now_s();
      for (const A2AChunkSpec& chunk : chunks) {
        codes.resize(chunk.data.size());
        quantize(chunk.data, resolve_error_bound(chunk.data, chunk.params),
                 codes);
      }
      rec.quantize_s += now_s() - t0;
    } while (now_s() - start < 0.3);
  }
  return 0;
}

JsonValue replay_train(const TrainSpec& spec, const BatchSource& data) {
  Analysis analysis;
  if (spec.hybrid) analysis = analyze(data);
  const TrainerConfig base = make_config(spec, &analysis);
  SharedArray<ReplayRecord> records(kWorld);
  const LaunchResult launch =
      launch_ranks(kWorld, [&](int rank, std::uint16_t port, int fd) {
        TrainerConfig config = base;
        join_tcp(config, rank, port, fd);
        return replay_rank(config, data, rank,
                           records[static_cast<std::size_t>(rank)]);
      });

  std::uint32_t crc = crc32_init();
  JsonValue ranks = JsonValue::array();
  for (int r = 0; r < kWorld; ++r) {
    const ReplayRecord& rec = records[static_cast<std::size_t>(r)];
    crc = crc32_update(
        crc, std::as_bytes(std::span<const std::uint32_t>(&rec.rank_crc, 1)));
    JsonValue rank = JsonValue::object();
    JsonValue layers = JsonValue::object();
    for (int l = 0; l < kNumLayers; ++l) {
      std::vector<double> per_iter(spec.iterations);
      for (std::size_t i = 0; i < spec.iterations; ++i) {
        per_iter[i] = rec.layer_s[i][l];
      }
      layers.set(kLayerNames[l], num_array(per_iter));
    }
    rank.set("layer_s", std::move(layers));
    rank.set("codec_fwd_s", num_array(std::span<const double>(
                                rec.codec_fwd_s, spec.iterations)));
    rank.set("codec_bwd_s", num_array(std::span<const double>(
                                rec.codec_bwd_s, spec.iterations)));
    rank.set("iter_s",
             num_array(std::span<const double>(rec.iter_s, spec.iterations)));
    rank.set("fwd_raw", num(static_cast<double>(rec.fwd_raw)));
    rank.set("fwd_wire", num(static_cast<double>(rec.fwd_wire)));
    rank.set("bwd_raw", num(static_cast<double>(rec.bwd_raw)));
    rank.set("bwd_wire", num(static_cast<double>(rec.bwd_wire)));
    rank.set("collectives", num(static_cast<double>(rec.collectives)));
    rank.set("a2a_probe_bytes", num_array(std::span<const double>(
                                    rec.a2a_probe_bytes, kCommRounds)));
    rank.set("a2a_probe_s",
             num_array(std::span<const double>(rec.a2a_probe_s, kCommRounds)));
    rank.set("ar_probe_s",
             num_array(std::span<const double>(rec.ar_probe_s, kCommRounds)));
    ranks.push_back(std::move(rank));
  }
  const ReplayRecord& r0 = records[0];
  JsonValue out = JsonValue::object();
  out.set("exit_codes", num_array(launch.exit_codes));
  out.set("peak_rss_mb", num_array(launch.peak_rss_mb));
  out.set("wire_crc32", num(crc32_final(crc)));
  out.set("eval_loss", num(r0.eval_loss));
  out.set("ranks", std::move(ranks));
  JsonValue codec = JsonValue::object();
  codec.set("raw_bytes", num(r0.codec_raw_bytes));
  codec.set("compress_s", num(r0.compress_s));
  codec.set("decompress_s", num(r0.decompress_s));
  codec.set("quantize_s", num(r0.quantize_s));
  out.set("codec_probe", std::move(codec));
  return out;
}

JsonValue host_record() {
  JsonValue out = JsonValue::object();
  const unsigned hw = std::thread::hardware_concurrency();
  out.set("world", num(kWorld));
  out.set("codec_pool_width", num(std::min<unsigned>(4, hw)));
  out.set("global_batch", num(static_cast<double>(kGlobalBatch)));
  return out;
}

}  // namespace

JsonValue measure_train(const TrainSpec& spec, double seconds) {
  const SeededStream data(spec.data_seed);
  JsonValue launches = JsonValue::array();
  const double start = now_s();
  do {
    launches.push_back(launch_train(spec, data));
  } while (now_s() - start < seconds);
  JsonValue out = JsonValue::object();
  out.set("iterations", num(static_cast<double>(spec.iterations)));
  out.set("launches", std::move(launches));
  out.set("parent_peak_rss_mb", num(self_peak_rss_mb()));
  out.set("sim", sim_reference(spec, data));
  out.set("host", host_record());
  return out;
}

std::string write_serving_checkpoint(const std::string& directory) {
  std::filesystem::remove_all(directory);
  struct PathSlot {
    char path[1024];
  };
  SharedArray<PathSlot> written(1);
  // Trained in a child process, so the serving process's peak resident
  // set does not include training. The launcher's listener goes unused.
  const LaunchResult child = launch_ranks(1, [&](int, std::uint16_t, int) {
    const SeededStream data(0);
    const TrainSpec spec;
    const Analysis analysis = analyze(data);
    TrainerConfig config = make_config(spec, &analysis);
    config.transport.backend = "sim";
    config.checkpoint.directory = directory;
    const TrainingResult result = HybridParallelTrainer(config).train(data);
    const std::string& path = result.checkpoints_written.back();
    if (path.size() >= sizeof(PathSlot::path)) return 1;
    std::memcpy(written[0].path, path.c_str(), path.size() + 1);
    return 0;
  });
  if (child.exit_codes[0] != 0) {
    throw std::runtime_error("training the serving checkpoint failed");
  }
  return written[0].path;
}

JsonValue trace_train(const TrainSpec& spec, double seconds) {
  const SeededStream data(spec.data_seed);
  JsonValue launches = JsonValue::array();
  JsonValue replays = JsonValue::array();
  const double start = now_s();
  do {
    launches.push_back(launch_train(spec, data));
    replays.push_back(replay_train(spec, data));
  } while (now_s() - start < seconds);
  JsonValue out = JsonValue::object();
  out.set("iterations", num(static_cast<double>(spec.iterations)));
  out.set("launches", std::move(launches));
  out.set("replays", std::move(replays));
  out.set("parent_peak_rss_mb", num(self_peak_rss_mb()));
  out.set("sim", sim_reference(spec, data));
  out.set("host", host_record());
  return out;
}

}  // namespace perfbench
