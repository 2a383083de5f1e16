// Codec-throughput trajectory reporter. Runs the codec, all-to-all,
// transport, serving and observability microbenches on the standard
// 1 MiB embedding-shaped payload and writes BENCH_codec.json, the
// per-PR perf record (compare two records with `dlcomp obs diff`).
//
// The report is a table of blocks: each block measures one hot path and
// returns its JSON object; main walks the table once, builds one
// document, echoes each block's summary line from it, and writes it with
// JsonValue::dump. The --history line is flattened from the same
// in-memory document.
//
// Usage: bench_report [--out FILE] [--reps N] [--label NAME] [--smoke]
//                     [--history FILE]
//   --smoke     1 rep per measurement (CI wiring check, numbers noisy)
//   --label     free-form tag stored in the JSON ("pr13", ...)
//   --history   append one JSONL line per run: label, UTC timestamp and
//               every numeric leaf flattened to "codecs/hybrid/ratio" keys

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "comm/calibration.hpp"
#include "comm/communicator.hpp"
#include "comm/tcp_runtime.hpp"
#include "compress/chunked.hpp"
#include "compress/kernels.hpp"
#include "compress/registry.hpp"
#include "compress/simd.hpp"
#include "compress/workspace.hpp"
#include "core/compressed_alltoall.hpp"
#include "data/shard_converter.hpp"
#include "data/shard_reader.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/simulator.hpp"

namespace {

using namespace dlcomp;

/// Codec behind every exchange block (all-to-all, overlap, transport,
/// parallel framing).
constexpr const char* kExchangeCodec = "hybrid";

template <class T>
JsonValue num(T v) {
  return JsonValue(static_cast<double>(v));
}

JsonValue object(
    std::initializer_list<std::pair<std::string, JsonValue>> fields) {
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : fields) out.set(key, value);
  return out;
}

CompressParams bench_params() {
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  return params;
}

/// Embedding-batch-shaped payload, identical to bench_codec_throughput's:
/// repeated vectors from a small pool plus Gaussian jitter. 2^18 floats
/// is the standard 1 MiB payload.
std::vector<float> embedding_payload(std::size_t elems) {
  Rng rng(17);
  std::vector<float> out;
  out.reserve(elems);
  std::vector<float> pool_vec(32);
  for (std::size_t i = 0; i < elems; ++i) {
    if (i % 32 == 0 && rng.bernoulli(0.4)) {
      for (auto& v : pool_vec) v = static_cast<float>(rng.normal(0.0, 0.2));
    }
    out.push_back(pool_vec[i % 32]);
  }
  return out;
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
}

/// Best (minimum) wall seconds over `reps` calls of `body`; `prepare`
/// runs untimed before each call (barriers, scratch resets).
template <class Body>
double best_seconds(std::size_t reps, Body&& body,
                    const std::function<void()>& prepare = {}) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    if (prepare) prepare();
    WallTimer timer;
    body();
    best = std::min(best, timer.seconds());
  }
  return best;
}

template <class T>
T max_of(const std::vector<T>& values) {
  return *std::max_element(values.begin(), values.end());
}

/// Send/receive layout of one all-to-all: `input` split evenly into
/// world x chunks_per_dest chunks, chunk (d, c) sent to rank d.
struct A2ABuffers {
  std::vector<std::vector<A2AChunkSpec>> send;
  std::vector<std::vector<float>> recv_storage;
  std::vector<std::vector<std::span<float>>> recv;

  A2ABuffers(std::span<const float> input, int world,
             std::size_t chunks_per_dest)
      : send(static_cast<std::size_t>(world)),
        recv_storage(static_cast<std::size_t>(world) * chunks_per_dest,
                     std::vector<float>(input.size() /
                                        (static_cast<std::size_t>(world) *
                                         chunks_per_dest))),
        recv(static_cast<std::size_t>(world)) {
    const std::size_t chunk_elems = recv_storage.front().size();
    for (std::size_t d = 0; d < send.size(); ++d) {
      for (std::size_t c = 0; c < chunks_per_dest; ++c) {
        const std::size_t slot = d * chunks_per_dest + c;
        send[d].push_back(
            {input.subspan(slot * chunk_elems, chunk_elems), bench_params()});
        recv[d].push_back(recv_storage[slot]);
      }
    }
  }
};

/// Per-codec compress/decompress throughput, ratio and stream CRC, plus
/// the steady-state allocation check: after the timing loops every
/// scratch buffer has hit its high-water mark, so one more round-trip
/// must not grow anything.
JsonValue measure_codecs(std::span<const float> input, std::size_t reps) {
  JsonValue block = JsonValue::object();
  for (const char* name : {"huffman", "cusz-like", "hybrid", "vector-lz",
                           "fz-gpu-like", "fp16"}) {
    const Compressor& codec = get_compressor(name);
    const CompressParams params = bench_params();
    CompressionWorkspace ws;
    std::vector<std::byte> stream;
    std::vector<float> out(input.size());
    const auto compress = [&] {
      stream.clear();
      codec.compress(input, params, stream, ws);
    };
    const auto decompress = [&] { codec.decompress(stream, out, ws); };

    compress();  // warm-up + reference stream
    const std::uint32_t crc = crc32(stream);
    const double ratio = static_cast<double>(input.size_bytes()) /
                         static_cast<double>(stream.size());
    const double best_compress = best_seconds(reps, compress);
    decompress();  // warm-up
    const double best_decompress = best_seconds(reps, decompress);

    const std::uint64_t grow_before = ws.grow_events();
    compress();
    decompress();
    const std::size_t bytes = input.size_bytes();
    block.set(name, object({{"compress_MBps", num(mbps(bytes, best_compress))},
                            {"decompress_MBps",
                             num(mbps(bytes, best_decompress))},
                            {"roundtrip_MBps",
                             num(mbps(bytes, best_compress + best_decompress))},
                            {"ratio", num(ratio)},
                            {"stream_crc32", num(crc)},
                            {"steady_grow_events",
                             num(ws.grow_events() - grow_before)}}));
  }
  return block;
}

/// Compressed all-to-all on the sim backend, world 4: exchange MB/s of
/// the slowest rank and steady-state workspace growth.
JsonValue measure_alltoall(std::span<const float> input, std::size_t reps) {
  constexpr int kWorld = 4;
  ThreadPool pool(4);
  Cluster cluster(kWorld);
  std::vector<double> rank_seconds(kWorld, 0.0);
  std::vector<double> rank_ratio(kWorld, 0.0);
  std::vector<std::uint64_t> rank_grow(kWorld, 0);

  cluster.run([&](Communicator& comm) {
    CompressedAllToAllConfig config;
    config.codec = &get_compressor(kExchangeCodec);
    config.pool = &pool;
    config.charge_modeled_time = false;
    const CompressedAllToAll a2a(config);
    A2ABuffers buf(input, kWorld, 2);

    // Warm-up.
    A2AStats stats = a2a.exchange(comm, buf.send, buf.recv, "bench");
    const auto rank = static_cast<std::size_t>(comm.rank());
    rank_seconds[rank] = best_seconds(reps, [&] {
      stats = a2a.exchange(comm, buf.send, buf.recv, "bench");
    });
    const std::uint64_t grow_before = a2a.workspace_grow_events();
    a2a.exchange(comm, buf.send, buf.recv, "bench");
    rank_grow[rank] = a2a.workspace_grow_events() - grow_before;
    rank_ratio[rank] = stats.compression_ratio();
  });

  return object(
      {{"exchange_MBps", num(mbps(input.size_bytes(), max_of(rank_seconds)))},
       {"ratio", num(rank_ratio[0])},
       {"steady_grow_events", num(max_of(rank_grow))}});
}

/// Gradient-shaped payload for the overlap measurement: plain Gaussian
/// values compress ~3x instead of the ~9x of the embedding-shaped
/// payload, which is the wire-dominated regime the paper's pipeline (and
/// DLRM's backward direction) lives in — with a 9x ratio the exchange is
/// codec-bound and extra pipeline stages only add launch overhead.
std::vector<float> overlap_payload() {
  Rng rng(23);
  std::vector<float> out(1 << 18);
  for (auto& v : out) v = static_cast<float>(rng.normal(0.0, 0.2));
  return out;
}

/// Simulated (deterministic) exposed-vs-hidden communication for the
/// pipelined exchange against the monolithic path: world 8, hybrid codec,
/// modelled codec + wire charging. These numbers come from the SimClock,
/// not wall time, so the JSON is reproducible across machines.
JsonValue measure_overlap(std::span<const float> input) {
  constexpr int kWorld = 8;
  ThreadPool pool(4);

  struct Mode {
    double exposed_us = 0.0;
    double hidden_us = 0.0;
    double makespan_s = 0.0;
  };
  const auto run_mode = [&](std::size_t stages) {
    Cluster cluster(kWorld);
    std::vector<double> rank_exposed(kWorld, 0.0);
    std::vector<double> rank_hidden(kWorld, 0.0);
    cluster.run([&](Communicator& comm) {
      CompressedAllToAllConfig config;
      config.codec = &get_compressor(kExchangeCodec);
      config.pool = &pool;
      config.pipeline_stages = stages;
      const CompressedAllToAll a2a(config);
      A2ABuffers buf(input, kWorld, 4);
      const A2AStats stats = a2a.exchange(comm, buf.send, buf.recv, "bench");
      const auto rank = static_cast<std::size_t>(comm.rank());
      rank_exposed[rank] = stats.exposed_comm_seconds;
      rank_hidden[rank] = stats.hidden_comm_seconds;
    });
    return Mode{max_of(rank_exposed) * 1e6, max_of(rank_hidden) * 1e6,
                cluster.makespan_seconds()};
  };

  const Mode serial = run_mode(1);
  const Mode pipelined = run_mode(4);
  return object(
      {{"world", num(kWorld)},
       {"serial_exposed_us", num(serial.exposed_us)},
       {"pipelined_exposed_us", num(pipelined.exposed_us)},
       {"pipelined_hidden_us", num(pipelined.hidden_us)},
       {"exposed_reduction_pct",
        num(serial.exposed_us > 0.0
                ? 100.0 * (1.0 - pipelined.exposed_us / serial.exposed_us)
                : 0.0)},
       {"sim_exchange_speedup",
        num(pipelined.makespan_s > 0.0
                ? serial.makespan_s / pipelined.makespan_s
                : 0.0)}});
}

/// Runs `body(rank, runtime)` on `world` threads, each owning one
/// TcpTransport endpoint of a real localhost mesh. The listener is bound
/// here on an ephemeral port and inherited by rank 0's transport, the
/// same race-free handoff the multi-process launcher uses.
void run_tcp_world(int world, const NetworkModel& model,
                   const std::function<void(int, TcpRuntime&)>& body) {
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, world);
  const std::uint16_t port = net::bound_port(listen_fd);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        TcpTransportConfig config;
        config.world = world;
        config.rank = r;
        config.address = "127.0.0.1";
        config.port = port;
        config.inherited_listen_fd = r == 0 ? listen_fd : -1;
        TcpRuntime runtime(config, model);
        body(r, runtime);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Real-socket transport calibration: raw (clock-free) all-to-all
/// exchanges through a world-4 TCP mesh at several payload sizes, OLS
/// fit of seconds on wire bytes recovering the machine's (latency,
/// bandwidth), validation of the fit on a held-out size, then one
/// pipelined compressed exchange under the fitted NetworkModel so the
/// report records how far the simulator's exposed-comm prediction sits
/// from the measured TCP wall on this machine.
JsonValue measure_transport(std::span<const float> input, std::size_t reps) {
  constexpr int kWorld = 4;
  // Bytes per destination. The held-out size (last) is excluded from the
  // fit and used to score prediction error on unseen volume.
  constexpr std::array<std::size_t, 5> kSizes = {
      16u << 10, 64u << 10, 256u << 10, 1u << 20, 512u << 10};
  constexpr std::size_t kFitSizes = kSizes.size() - 1;
  const std::size_t timing_reps = std::max<std::size_t>(reps, 3);

  std::vector<std::array<double, kSizes.size()>> rank_best(kWorld);
  run_tcp_world(kWorld, NetworkModel{}, [&](int r, TcpRuntime& runtime) {
    Transport& transport = runtime.transport();
    std::vector<std::vector<std::byte>> bufs(kWorld);
    std::vector<std::span<const std::byte>> spans(kWorld);
    std::vector<std::vector<std::byte>> controls;
    std::vector<std::vector<std::byte>> recv;
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
      for (int d = 0; d < kWorld; ++d) {
        auto& buf = bufs[static_cast<std::size_t>(d)];
        buf.assign(kSizes[s], static_cast<std::byte>(r * kWorld + d));
        spans[static_cast<std::size_t>(d)] = buf;
      }
      transport.exchange({}, spans, controls, recv);  // warm-up
      rank_best[static_cast<std::size_t>(r)][s] = best_seconds(
          timing_reps, [&] { transport.exchange({}, spans, controls, recv); },
          [&] { transport.barrier(); });
    }
  });

  // Collective completion = the slowest rank; wire volume per rank is
  // (world-1) destinations (the self chunk never crosses the wire) --
  // exactly what NetworkModel::alltoall_seconds charges.
  std::array<double, kSizes.size()> worst{};
  for (std::size_t s = 0; s < kSizes.size(); ++s) {
    for (const auto& best : rank_best) worst[s] = std::max(worst[s], best[s]);
  }
  std::vector<CalibrationSample> samples;
  for (std::size_t s = 0; s < kFitSizes; ++s) {
    samples.push_back({kSizes[s] * (kWorld - 1), worst[s]});
  }
  const LinkCalibration fit = fit_link_parameters(samples);
  const std::size_t holdout_wire_bytes = kSizes[kFitSizes] * (kWorld - 1);
  const NetworkModel fitted = fit.apply(NetworkModel{});
  const double holdout_sim_us =
      fitted.alltoall_seconds(holdout_wire_bytes, kWorld) * 1e6;
  const double holdout_real_us = worst[kFitSizes] * 1e6;

  // Pipelined compressed exchange under the fitted model: the SimClock
  // now predicts *this* fabric, so its exposed-comm number lands next to
  // the measured wall of the identical exchange (wall additionally pays
  // real codec time where the sim charges modelled codec time).
  ThreadPool pool(4);
  std::vector<double> rank_exposed(kWorld, 0.0);
  std::vector<double> rank_wall(kWorld, 0.0);
  std::uint64_t rank0_wire_bytes = 0;
  run_tcp_world(kWorld, fitted, [&](int r, TcpRuntime& runtime) {
    Communicator& comm = runtime.comm();
    CompressedAllToAllConfig config;
    config.codec = &get_compressor(kExchangeCodec);
    config.pool = &pool;
    config.pipeline_stages = 4;
    const CompressedAllToAll a2a(config);
    A2ABuffers buf(input, kWorld, 4);

    // Warm-up.
    A2AStats stats = a2a.exchange(comm, buf.send, buf.recv, "bench");
    rank_wall[static_cast<std::size_t>(r)] = best_seconds(
        timing_reps,
        [&] { stats = a2a.exchange(comm, buf.send, buf.recv, "bench"); },
        [&] { runtime.transport().barrier(); });
    rank_exposed[static_cast<std::size_t>(r)] = stats.exposed_comm_seconds;
    if (r == 0) rank0_wire_bytes = runtime.transport().stats().bytes_sent;
  });

  return object(
      {{"backend", JsonValue(std::string("tcp"))},
       {"world", num(kWorld)},
       {"measured_alltoall_MBps",
        num(mbps(kSizes[kFitSizes - 1] * (kWorld - 1), worst[kFitSizes - 1]))},
       {"fitted_latency_us", num(fit.latency_seconds * 1e6)},
       {"fitted_bandwidth_MBps", num(fit.bandwidth_bytes_per_second / 1e6)},
       {"fit_max_rel_error_pct", num(fit.max_rel_error * 100.0)},
       {"holdout_wire_bytes", num(holdout_wire_bytes)},
       {"holdout_sim_exposed_us", num(holdout_sim_us)},
       {"holdout_real_exposed_us", num(holdout_real_us)},
       {"sim_vs_real_delta_pct",
        num(holdout_real_us > 0.0
                ? 100.0 * (holdout_sim_us - holdout_real_us) / holdout_real_us
                : 0.0)},
       {"pipelined_sim_exposed_us", num(max_of(rank_exposed) * 1e6)},
       {"pipelined_wall_us", num(max_of(rank_wall) * 1e6)},
       {"rank0_wire_bytes", num(rank0_wire_bytes)}});
}

/// Intra-message parallel throughput: one 8 MiB embedding-shaped tensor
/// through the BlockEngine at 1/2/4/8 pool threads. The assembled DLBK
/// container must hash identically at every width (framing is
/// deterministic by construction; this records the proof alongside the
/// numbers). Scaling beyond host_threads is an honest no-op — the rows
/// still show where the pool saturates the machine.
JsonValue measure_parallel_codec(std::size_t reps) {
  const Compressor& codec = get_compressor(kExchangeCodec);
  const CompressParams params = bench_params();
  // 2M floats = 8 blocks at the default 256 Ki block size: enough fan-out
  // for an 8-wide pool, same value distribution as the 1 MiB payload.
  const std::vector<float> input = embedding_payload(1u << 21);
  const std::size_t payload_bytes = input.size() * sizeof(float);
  const std::size_t block_elems = BlockEngine::kDefaultBlockElems;

  JsonValue rows = JsonValue::object();
  std::uint32_t first_crc = 0;
  bool crc_identical = true;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    BlockEngine engine(codec, &pool);
    std::vector<std::byte> stream;
    const auto compress_once = [&] {
      engine.compress_begin();
      const std::size_t slot = engine.add_tensor(input, params);
      engine.compress_run();
      stream.clear();
      engine.append_stream(slot, stream);
    };
    std::vector<float> out(input.size());
    const auto decompress_once = [&] {
      engine.decompress_begin();
      engine.add_stream(stream, out);
      engine.decompress_run();
    };

    compress_once();  // warm-up: lane workspaces + staging hit high water
    const std::uint32_t crc = crc32(stream);
    if (threads == 1) {
      first_crc = crc;
    } else if (crc != first_crc) {
      crc_identical = false;
    }
    const std::string t = "t" + std::to_string(threads) + "_";
    rows.set(t + "compress_MBps",
             num(mbps(payload_bytes, best_seconds(reps, compress_once))));
    decompress_once();  // warm-up
    rows.set(t + "decompress_MBps",
             num(mbps(payload_bytes, best_seconds(reps, decompress_once))));
    const std::uint64_t grow_before = engine.grow_events();
    compress_once();
    decompress_once();
    rows.set(t + "steady_grow_events", num(engine.grow_events() - grow_before));
  }

  JsonValue block = object(
      {{"codec", JsonValue(std::string(kExchangeCodec))},
       {"payload_bytes", num(payload_bytes)},
       {"block_elems", num(block_elems)},
       {"blocks", num((input.size() + block_elems - 1) / block_elems)},
       {"host_threads", num(std::thread::hardware_concurrency())},
       {"simd_isa",
        JsonValue(std::string(simd::isa_name(kernels::dispatched_isa())))},
       {"simd_isa_level", num(static_cast<int>(kernels::dispatched_isa()))},
       {"stream_crc32", num(first_crc)},
       {"crc_identical_across_threads", JsonValue(crc_identical)}});
  for (const auto& [key, value] : rows.members()) block.set(key, value);
  // Self-scaling (8 threads vs 1) so the speedup claim is explicit in
  // the report, not just derivable from the rows.
  for (const std::string what : {"compress", "decompress"}) {
    const double t1 = rows.find("t1_" + what + "_MBps")->as_number();
    const double t8 = rows.find("t8_" + what + "_MBps")->as_number();
    block.set(what + "_scaling_8v1", num(t1 > 0.0 ? t8 / t1 : 0.0));
  }
  return block;
}

/// Sharded serving tier: p99 latency against offered QPS at three hot-
/// cache budgets (the bench_serving_scale curve, sized for a report run).
/// Hit/miss/shed counts and the at-rest ratio are deterministic in the
/// query stream; the latency columns are wall time on this machine.
JsonValue measure_serving_scale(bool smoke) {
  ServingConfig base;
  base.load.num_queries = smoke ? 300 : 1500;
  base.load.mean_query_size = 16;
  base.load.max_query_size = 128;
  base.scheduler.max_batch_samples = 256;
  base.scheduler.max_delay_s = 0.002;
  base.scheduler.slo_s = 0.250;
  base.scheduler.modeled_servers = 4;
  base.replicas = 4;
  base.spec = DatasetSpec::small_training_proxy(26, 16);
  base.seed = 1234;
  base.store.num_shards = 4;
  base.store.rows_per_page = 256;
  base.store.codec = "hybrid";
  base.store.error_bound = 0.01;

  constexpr std::array<double, 2> kQps = {2000.0, 8000.0};
  constexpr std::array<std::size_t, 3> kBudgetsMib = {1, 4, 16};
  JsonValue rows = JsonValue::object();
  double store_ratio = 0.0;
  double store_max_err = 0.0;
  double cache_hit_rate = 0.0;
  for (const std::size_t budget : kBudgetsMib) {
    for (const double qps : kQps) {
      ServingConfig config = base;
      config.load.qps = qps;
      config.store.cache_budget_bytes = budget << 20;
      const ServingReport r = ServingSimulator(config).run();
      const std::string cell = "b" + std::to_string(budget) + "_q" +
                               std::to_string(static_cast<int>(qps)) + "_";
      rows.set(cell + "p99_ms", num(r.latency.p99_s * 1e3));
      rows.set(cell + "hit_rate", num(r.store_stats.hit_rate()));
      rows.set(cell + "pages", num(r.store_stats.pages_loaded));
      rows.set(cell + "shed", num(r.shed_queries));
      store_ratio = r.store_stats.ratio();
      store_max_err = r.store_stats.max_abs_error;
      cache_hit_rate = std::max(cache_hit_rate, r.store_stats.hit_rate());
    }
  }

  JsonValue block = object({{"shards", num(base.store.num_shards)},
                            {"rows_per_page", num(base.store.rows_per_page)},
                            {"budgets", num(kBudgetsMib.size())},
                            {"store_ratio", num(store_ratio)},
                            {"store_max_err", num(store_max_err)},
                            {"cache_hit_rate", num(cache_hit_rate)}});
  for (const auto& [key, value] : rows.members()) block.set(key, value);
  return block;
}

/// Tracer overhead on this machine: one thread recording begin/end span
/// pairs into its ring. The first span allocates the thread's ring; after
/// that warm-up, recording must not grow anything (the `steady_grow_events
/// == 0` line CI asserts on).
JsonValue measure_observability(std::size_t reps) {
  constexpr std::size_t kSpans = 200000;
  const std::size_t timing_reps = std::max<std::size_t>(reps, 3);
  const auto record_spans = [] {
    for (std::size_t i = 0; i < kSpans; ++i) {
      DLCOMP_TRACE_SPAN("bench/span");
    }
  };
  Tracer& tracer = Tracer::instance();

  const double best_disabled = best_seconds(timing_reps, record_spans);
  tracer.enable();
  { DLCOMP_TRACE_SPAN("bench/warmup"); }  // allocates this thread's ring
  const std::uint64_t grow_before = tracer.buffer_grow_events();
  const double best = best_seconds(timing_reps, record_spans);
  const std::uint64_t grow = tracer.buffer_grow_events() - grow_before;
  tracer.disable();

  return object(
      {{"span_ns", num(best / kSpans * 1e9)},
       {"disabled_span_ns", num(best_disabled / kSpans * 1e9)},
       {"events_per_s",
        num(best > 0.0 ? 2.0 * static_cast<double>(kSpans) / best : 0.0)},
       {"steady_grow_events", num(grow)}});
}

/// Converter + reader throughput on a deterministic synthetic Criteo-
/// style TSV (fixed seed and line count, so the shard CRCs are identical
/// on every machine -- they regress like the codec stream CRCs).
JsonValue measure_dataset_pipeline(std::size_t reps) {
  namespace fs = std::filesystem;
  constexpr std::size_t kLines = 8192;
  constexpr std::size_t kSamplesPerShard = 2048;
  constexpr std::size_t kNumDense = 13;
  constexpr std::size_t kNumCat = 26;
  const fs::path root = fs::temp_directory_path() / "dlcomp_bench_dataset";
  fs::remove_all(root);
  fs::create_directories(root);
  const fs::path tsv = root / "input.tsv";
  const fs::path shards_dir = root / "shards";

  {
    Rng rng(31);
    std::ofstream os(tsv);
    char token[16];
    for (std::size_t i = 0; i < kLines; ++i) {
      os << (rng.bernoulli(0.23) ? '1' : '0');
      for (std::size_t d = 0; d < kNumDense; ++d) {
        os << '\t';
        if (!rng.bernoulli(0.1)) os << rng.next_below(4000);
      }
      for (std::size_t c = 0; c < kNumCat; ++c) {
        std::snprintf(token, sizeof(token), "%08llx",
                      static_cast<unsigned long long>(rng.next_u64() & 0xFFFFFFFFull));
        os << '\t' << (rng.bernoulli(0.05) ? "" : token);
      }
      os << '\n';
    }
  }

  ThreadPool pool;
  ConvertOptions options;
  options.input_tsv = tsv.string();
  options.output_dir = shards_dir.string();
  options.samples_per_shard = kSamplesPerShard;
  options.pool = &pool;
  ConvertReport converted;
  const double best_convert = best_seconds(
      reps, [&] { converted = convert_criteo_tsv(options); },
      [&] { fs::remove_all(shards_dir); });

  JsonValue shard_crcs = JsonValue::array();
  std::vector<std::uint32_t> crcs;
  for (const auto& entry : fs::directory_iterator(shards_dir)) {
    std::ifstream is(entry.path(), std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    crcs.push_back(
        crc32({reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()}));
  }
  std::sort(crcs.begin(), crcs.end());
  for (const std::uint32_t crc : crcs) shard_crcs.push_back(num(crc));

  // Streaming read throughput: double-buffered prefetch, batches of 512,
  // epoch 0 is warm-up (buffers reach the largest shard), later epochs
  // must be allocation-free.
  DatasetSpec spec = DatasetSpec::criteo_kaggle_like(100000);
  const ShardedDatasetReader reader(spec, shards_dir.string());
  ShardBatchStream stream(reader, 512);
  SampleBatch batch;
  const std::size_t batches_per_epoch =
      static_cast<std::size_t>(reader.num_samples()) / 512;
  for (std::size_t b = 0; b < 2 * batches_per_epoch; ++b) stream.next(batch);
  const std::uint64_t grow_before = stream.grow_events();
  const std::uint64_t delivered_before = stream.samples_delivered();
  const double best_read = best_seconds(reps, [&] {
    for (std::size_t b = 0; b < batches_per_epoch; ++b) stream.next(batch);
  });
  const double bytes_per_sample =
      static_cast<double>((kNumDense + 1) * sizeof(float) +
                          kNumCat * sizeof(std::uint32_t));
  const double epoch_bytes =
      static_cast<double>(stream.samples_delivered() - delivered_before) /
      static_cast<double>(reps) * bytes_per_sample;
  const std::uint64_t grow = stream.grow_events() - grow_before;
  const auto tsv_bytes = static_cast<std::size_t>(fs::file_size(tsv));
  fs::remove_all(root);

  return object(
      {{"samples", num(converted.samples)},
       {"shards", num(converted.shards)},
       {"convert_MBps", num(mbps(tsv_bytes, best_convert))},
       {"read_MBps",
        num(best_read > 0.0 ? epoch_bytes / best_read / 1e6 : 0.0)},
       {"steady_grow_events", num(grow)},
       {"shard_crc32", std::move(shard_crcs)}});
}

/// One report block: the top-level key it is stored under, the
/// measurement that produces its object, and the keys echoed to stdout.
struct Block {
  const char* name;
  std::function<JsonValue()> measure;
  std::vector<std::string> summary;
};

std::string format_value(const JsonValue& v) {
  if (v.is_string()) return v.as_string();
  if (!v.is_number()) return v.dump();
  char buf[32];
  const double x = v.as_number();
  std::snprintf(buf, sizeof(buf), x == std::floor(x) ? "%.0f" : "%.6g", x);
  return buf;
}

/// Echoes `keys` of one block; a block of per-item objects (codecs)
/// prints one line per item.
void print_summary(const std::string& name, const JsonValue& block,
                   const std::vector<std::string>& keys) {
  const auto& members = block.members();
  if (!members.empty() && members.front().second.is_object()) {
    for (const auto& [item, value] : members) {
      print_summary(name + "/" + item, value, keys);
    }
    return;
  }
  std::string line = name;
  line.resize(std::max<std::size_t>(line.size() + 1, 24), ' ');
  for (const std::string& key : keys) {
    if (const JsonValue* v = block.find(key)) {
      line += " " + key + "=" + format_value(*v);
    }
  }
  std::puts(line.c_str());
}

/// One compact history line: label, UTC timestamp and every numeric leaf
/// of the report flattened to "codecs/hybrid/ratio"-style keys.
JsonValue history_line(const JsonValue& doc, const std::string& label) {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char recorded[32];
  std::strftime(recorded, sizeof(recorded), "%Y-%m-%dT%H:%M:%SZ", &tm);

  std::vector<std::pair<std::string, double>> flat;
  json_flatten_numbers(doc, "", flat);
  JsonValue metrics = JsonValue::object();
  for (auto& [key, value] : flat) metrics.set(std::move(key), num(value));
  return object({{"label", JsonValue(label)},
                 {"recorded", JsonValue(std::string(recorded))},
                 {"metrics", std::move(metrics)}});
}

/// Writes `text` to `path` (appending when `append`), checking the stream
/// after the write so a full disk or vanished directory is not reported
/// as success.
bool write_file(const std::string& path, const std::string& text,
                bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  out << text;
  out.close();
  if (!out) std::cerr << "bench_report: cannot write " << path << "\n";
  return static_cast<bool>(out);
}

constexpr const char* kUsage =
    "usage: bench_report [--out FILE] [--reps N] [--label NAME] [--smoke]\n"
    "                    [--history FILE]\n";

}  // namespace

int main(int argc, char** argv) try {
  std::string out_path;
  std::string history_path;
  std::string label;
  std::size_t reps = 0;
  bool smoke = false;
  try {
    const ArgParser args(argc, argv, 1,
                         {"--out", "--reps", "--label", "--history"},
                         {"--smoke"});
    out_path = args.str("--out", "BENCH_codec.json");
    history_path = args.str("--history", "");
    label = args.str("--label", "current");
    smoke = args.has("--smoke");
    reps = smoke ? 1 : args.uint("--reps", 7);
    if (reps == 0) throw Error("--reps must be at least 1");
  } catch (const Error& e) {
    std::cerr << "bench_report: " << e.what() << "\n" << kUsage;
    return 2;
  }

  // Validate the outputs before burning time on the measurements: both
  // files must land in an existing directory and not be one themselves.
  for (const std::string& path : {out_path, history_path}) {
    namespace fs = std::filesystem;
    if (path.empty()) continue;
    const fs::path parent = fs::path(path).parent_path();
    if (fs::is_directory(path) ||
        (!parent.empty() && !fs::is_directory(parent))) {
      std::cerr << "bench_report: cannot write " << path
                << " (its directory must exist and it must not be one)\n";
      return 2;
    }
  }

  const std::vector<float> input = embedding_payload(1u << 18);
  const std::vector<float> gradient_like = overlap_payload();
  const std::vector<Block> blocks = {
      {"codecs", [&] { return measure_codecs(input, reps); },
       {"compress_MBps", "decompress_MBps", "ratio", "stream_crc32",
        "steady_grow_events"}},
      {"alltoall_hybrid", [&] { return measure_alltoall(input, reps); },
       {"exchange_MBps", "ratio", "steady_grow_events"}},
      {"overlap_alltoall", [&] { return measure_overlap(gradient_like); },
       {"serial_exposed_us", "pipelined_exposed_us", "exposed_reduction_pct",
        "sim_exchange_speedup"}},
      {"transport", [&] { return measure_transport(gradient_like, reps); },
       {"measured_alltoall_MBps", "fitted_latency_us", "fitted_bandwidth_MBps",
        "fit_max_rel_error_pct", "sim_vs_real_delta_pct",
        "pipelined_sim_exposed_us", "pipelined_wall_us"}},
      {"parallel_codec", [&] { return measure_parallel_codec(reps); },
       {"simd_isa", "t1_compress_MBps", "t8_compress_MBps",
        "t8_decompress_MBps", "stream_crc32", "crc_identical_across_threads"}},
      {"serving_scale", [&] { return measure_serving_scale(smoke); },
       {"store_ratio", "cache_hit_rate", "b1_q8000_p99_ms", "b16_q8000_p99_ms",
        "b1_q8000_shed"}},
      {"observability", [&] { return measure_observability(reps); },
       {"span_ns", "disabled_span_ns", "events_per_s", "steady_grow_events"}},
      {"dataset_pipeline", [&] { return measure_dataset_pipeline(reps); },
       {"convert_MBps", "read_MBps", "samples", "shards",
        "steady_grow_events"}},
  };

  JsonValue doc = object({{"label", JsonValue(label)},
                          {"payload_bytes", num(input.size() * sizeof(float))},
                          {"reps", num(reps)}});
  for (const Block& block : blocks) {
    doc.set(block.name, block.measure());
    print_summary(block.name, *doc.find(block.name), block.summary);
  }

  if (!write_file(out_path, doc.dump(2) + "\n", false)) return 2;
  std::cout << "wrote " << out_path << "\n";
  if (!history_path.empty()) {
    const std::string line = history_line(doc, label).dump() + "\n";
    if (!write_file(history_path, line, true)) return 2;
    std::cout << "appended 1 line to " << history_path << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_report: error: " << e.what() << "\n";
  return 1;
}
