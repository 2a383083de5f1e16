// Benchmark harness: runs one workload family through the library's
// public API and prints one JSON document of raw measurements on stdout.
// perfbench/run.py turns it into metrics; see perfbench/README.md.
//
//   perfbench_harness train --codec hybrid|none --seed N --seconds S
//                           --trace 0|1 --workdir DIR
//   perfbench_harness serve --seed N --seconds S --trace 0|1 --workdir DIR
//
// DIR receives the trained checkpoint the serving fleet restores.
//
// A traced run also probes the other family's layers briefly (a short
// serving run inside a training trace, a short training replay inside a
// serving trace), so every per-layer metric is measured on every run.

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/arg_parser.hpp"
#include "compress/kernels.hpp"
#include "compress/simd.hpp"
#include "serve.hpp"
#include "train.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

JsonValue host_json() {
  JsonValue out = JsonValue::object();
  out.set("nproc", num(std::thread::hardware_concurrency()));
  out.set("simd_isa",
          JsonValue(std::string(
              dlcomp::simd::isa_name(dlcomp::kernels::dispatched_isa()))));
  out.set("build_type", JsonValue(std::string(PERFBENCH_BUILD_TYPE)));
  return out;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness train|serve [flags]\n");
    return 2;
  }
  const std::string family = argv[1];
  const dlcomp::ArgParser args(argc, argv, 2,
                               {"--codec", "--seed", "--seconds", "--trace",
                                "--workdir"});
  const std::uint64_t seed = args.u64("--seed", 1);
  const double seconds = args.num("--seconds", 10.0);
  const bool trace = args.uint("--trace", 0) != 0;
  const std::string checkpoint_dir =
      args.str("--workdir", ".") + "/serving_model";

  JsonValue out = JsonValue::object();
  out.set("host", host_json());
  if (family == "train") {
    TrainSpec spec;
    spec.hybrid = args.str("--codec", "hybrid") == "hybrid";
    spec.data_seed = seed;
    if (!trace) {
      out.set("train", measure_train(spec, seconds));
    } else {
      out.set("train", trace_train(spec, seconds));
      // Forks are done; the serving probe may start threads now.
      out.set("serve_probe",
              trace_serve(seed, 2.0, write_serving_checkpoint(checkpoint_dir)));
    }
  } else if (family == "serve") {
    if (!trace) {
      out.set("serve", measure_serve(seed, seconds,
                                     write_serving_checkpoint(checkpoint_dir)));
    } else {
      // The training probe forks rank processes, so it runs before the
      // serving fleet starts any thread.
      out.set("train_probe",
              trace_train(TrainSpec{.hybrid = true,
                                    .data_seed = seed,
                                    .iterations = 8},
                          0.0));
      out.set("serve", trace_serve(seed, seconds,
                                   write_serving_checkpoint(checkpoint_dir)));
    }
  } else {
    std::fprintf(stderr, "unknown workload family: %s\n", family.c_str());
    return 2;
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
