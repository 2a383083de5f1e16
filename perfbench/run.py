#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload train-hybrid --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout. It builds the harness
(perfbench/harness, linked against ../src) into $CARGO_TARGET_DIR or
.bench_build, runs the workload, checks its outputs, prints one line per
metric and, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones (from a separate traced run).
See perfbench/README.md for what each metric measures.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import perfstats  # noqa: E402

WORKLOADS = ("train-hybrid", "train-raw", "serve-zipf")
# Iterations skipped at the start of each launch before timing.
TRAIN_WARMUP = 5
# A serving query slower than this at the fixed rate counts as failed.
SERVE_LIMIT_S = 0.25
HARNESS_TIMEOUT_S = 170


def declared_metrics():
    """(end-to-end, per-layer) name -> unit, as BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------- build

def build_harness():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "trainer.hpp")):
        sys.exit("error: library sources (src/) not found: run from the "
                 "root of a complete source checkout")
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build, "-j4", "--target",
                    "perfbench_harness"], check=True, stdout=sys.stderr)
    return build


def run_harness(build, args):
    binary = os.path.join(build, "perfbench_harness")
    args = args + ["--workdir", build]
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          timeout=HARNESS_TIMEOUT_S, check=True, cwd=ROOT)
    return json.loads(proc.stdout)


# ------------------------------------------------------------- training

def steady_durations(stamps, warmup):
    """Per-iteration durations from make_batch entry stamps, skipping the
    warm-up iterations. The last iteration has no successor stamp."""
    return [b - a for a, b in zip(stamps[warmup:], stamps[warmup + 1:])]


def train_checks(doc):
    """All ranks exit 0, loss finite, and every launch bitwise equal to the
    sim-backend run of the same config. Returns the problems found."""
    sim = doc["sim"]
    problems = []
    if not sim["losses_finite"]:
        problems.append("sim reference loss not finite")
    for i, launch in enumerate(doc["launches"]):
        if any(code != 0 for code in launch["exit_codes"]):
            problems.append(f"launch {i}: exit codes {launch['exit_codes']}")
            continue
        if not launch["losses_finite"]:
            problems.append(f"launch {i}: training loss not finite")
        if launch["wire_crc32"] != sim["wire_crc32"]:
            problems.append(f"launch {i}: wire_crc32 "
                            f"{launch['wire_crc32']:.0f} != sim "
                            f"{sim['wire_crc32']:.0f}")
        if launch["eval_loss"] != sim["eval_loss"]:
            problems.append(f"launch {i}: eval_loss {launch['eval_loss']!r} "
                            f"!= sim {sim['eval_loss']!r}")
    return problems


def replay_checks(doc):
    """The traced replay reproduces train(): same wire CRC and eval loss."""
    problems = train_checks(doc)
    for i, rep in enumerate(doc["replays"]):
        if any(code != 0 for code in rep["exit_codes"]):
            problems.append(f"replay {i}: exit codes {rep['exit_codes']}")
            continue
        for launch in doc["launches"]:
            if rep["wire_crc32"] != launch["wire_crc32"] or \
                    rep["eval_loss"] != launch["eval_loss"]:
                problems.append(
                    f"replay {i} diverged from train(): crc "
                    f"{rep['wire_crc32']:.0f} vs {launch['wire_crc32']:.0f}, "
                    f"eval {rep['eval_loss']!r} vs {launch['eval_loss']!r}")
    return problems


def train_end_to_end(doc):
    iters = int(doc["iterations"])
    launches = doc["launches"]
    world = len(launches[0]["exit_codes"])
    attempted = len(launches) * iters * world
    good = [l for l in launches if all(c == 0 for c in l["exit_codes"])]
    failed = (len(launches) - len(good)) * iters * world
    batch = doc["host"]["global_batch"]

    # Each launch gives its median steady iteration; the run reports the
    # median over launches, which a minority of disturbed launches (another
    # tenant's CPU burst) does not move.
    rank0 = []
    every_rank = []
    every_rank_pooled = []
    for launch in good:
        rank0.append(statistics.median(
            steady_durations(launch["t_batch"][0], TRAIN_WARMUP)))
        ranks = [d for stamps in launch["t_batch"]
                 for d in steady_durations(stamps, TRAIN_WARMUP)]
        every_rank.append(statistics.median(ranks))
        every_rank_pooled += ranks
    iter_s = statistics.median(rank0)
    p, tail_s, n = perfstats.tail(every_rank_pooled)
    log(f"iteration wall: median {iter_s * 1e3:.3f} ms over {len(good)} "
        f"launches (launch medians {min(rank0) * 1e3:.3f} to "
        f"{max(rank0) * 1e3:.3f} ms); p{p:g} {tail_s * 1e3:.3f} ms of n={n} "
        f"rank iterations")
    setups = [l["analysis_s"] + max(s[0] for s in l["t_batch"]) - l["fork_s"]
              for l in good]
    log(f"setup: {len(setups)} launches, median {statistics.median(setups):.4f} s")
    first = good[0]
    wire = (first["a2a_bytes"] + first["ar_bytes"]) / (iters * batch)
    rss = max([doc["parent_peak_rss_mb"]] +
              [statistics.median(max(l["peak_rss_mb"]) for l in launches)])
    metrics = {
        "samples_per_s": batch / iter_s,
        "eval_loss": first["eval_loss"],
        "wire_bytes_per_sample": wire,
        "query_p50_ms": statistics.median(every_rank) * 1e3,
        "capacity_qps": 1.0 / iter_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    return metrics, attempted, failed


def train_layers(doc):
    """Per-layer metrics of a traced training run (replay + launches)."""
    iters = int(doc["iterations"])
    warmup = min(TRAIN_WARMUP, iters - 1)
    replays = doc["replays"]
    launches = doc["launches"]

    layers = {}
    codec = []
    walls = []
    for rep in replays:
        for rank in rep["ranks"]:
            for name, series in rank["layer_s"].items():
                layers.setdefault(name, []).extend(series[warmup:])
            codec += [f + b for f, b in zip(rank["codec_fwd_s"][warmup:],
                                            rank["codec_bwd_s"][warmup:])]
            walls += rank["iter_s"][warmup:]
    med = {name: statistics.median(v) * 1e3 for name, v in layers.items()}
    a2a = [f + b for f, b in zip(layers["a2a_fwd"], layers["a2a_bwd"])]
    wire = [t - c for t, c in zip(a2a, codec)]

    fwd_raw = sum(r["fwd_raw"] for rep in replays for r in rep["ranks"])
    fwd_wire = sum(r["fwd_wire"] for rep in replays for r in rep["ranks"])
    bwd_raw = sum(r["bwd_raw"] for rep in replays for r in rep["ranks"])
    bwd_wire = sum(r["bwd_wire"] for rep in replays for r in rep["ranks"])
    probe = replays[-1]["codec_probe"]
    r0 = replays[-1]["ranks"][0]
    a2a_mbps = [b / s / 1e6 for b, s in zip(r0["a2a_probe_bytes"],
                                             r0["a2a_probe_s"])]
    replay_rank0 = [x for rep in replays
                    for x in rep["ranks"][0]["iter_s"][warmup:iters - 1]]
    launch_rank0 = []
    launch_every_rank = []
    for launch in launches:
        launch_rank0 += steady_durations(launch["t_batch"][0], warmup)
        for stamps in launch["t_batch"]:
            launch_every_rank += steady_durations(stamps, warmup)
    host = doc["host"]
    return {
        "data.batch_ms": med["data"],
        "dlrm.lookup_ms": med["lookup"],
        "dlrm.mlp_fwd_ms": med["mlp_fwd"],
        "dlrm.mlp_bwd_ms": med["mlp_bwd"],
        "dlrm.interaction_ms": med["interaction"],
        "dlrm.update_ms": med["update"],
        "compress.fwd_ratio": fwd_raw / fwd_wire,
        "compress.bwd_ratio": bwd_raw / bwd_wire,
        "compress.compress_MBps": probe["raw_bytes"] / probe["compress_s"] / 1e6,
        "compress.decompress_MBps":
            probe["raw_bytes"] / probe["decompress_s"] / 1e6,
        "compress.quantize_MBps": probe["raw_bytes"] / probe["quantize_s"] / 1e6,
        "core.a2a_fwd_ms": med["a2a_fwd"],
        "core.a2a_bwd_ms": med["a2a_bwd"],
        "core.a2a_codec_ms": statistics.median(codec) * 1e3,
        "core.a2a_wire_ms": statistics.median(wire) * 1e3,
        "core.grow_events": launches[0]["grow_events"],
        "core.model_exposed_comm_ms":
            launches[0]["exposed_comm_s"] / iters * 1e3,
        "comm.alltoall_MBps": statistics.median(a2a_mbps),
        "comm.allreduce_ms": statistics.median(r0["ar_probe_s"]) * 1e3,
        "comm.collectives_per_iter": r0["collectives"] / iters,
        "parallel.threads_per_core":
            host["world"] * host["codec_pool_width"] / doc["nproc"],
        "query_p99_ms": perfstats.tail(launch_every_rank)[1] * 1e3,
        "obs.trace_overhead_pct":
            perfstats.overhead_pct(replay_rank0, launch_rank0),
        "obs.layer_coverage":
            perfstats.layer_coverage(layers, walls),
    }


# -------------------------------------------------------------- serving

def serve_checks(doc):
    """Scores finite, at-rest error within the bound, and sampled batches
    bitwise equal through a 1-shard zero-cache store."""
    problems = []
    store = doc["store"]
    if store["max_abs_error"] > store["error_bound"]:
        problems.append(f"store max_abs_error {store['max_abs_error']} > "
                        f"eb {store['error_bound']}")
    bitwise = doc["bitwise"]
    if bitwise["compared"] < 1 or bitwise["equal"] != bitwise["compared"]:
        problems.append(f"1-shard zero-cache reference: {bitwise['equal']:.0f}"
                        f" of {bitwise['compared']:.0f} batches bitwise equal")
    for key in ("fixed", "capacity", "plain", "traced"):
        if key in doc and not doc[key]["scores_finite"]:
            problems.append(f"{key} phase served a non-finite score")
    return problems


def serve_end_to_end(doc):
    fixed = doc["fixed"]
    cap = doc["capacity"]
    lat = perfstats.query_latencies(fixed["q_arrival"], fixed["q_batch"],
                                    fixed["end"], fixed["status"])
    ok, late, missing = perfstats.classify_queries(lat, SERVE_LIMIT_S)
    # The capacity phase runs the fleet saturated: each record is one batch
    # a replica ran, so every batch there had a backlog behind it.
    cap_queries = [cap["batch_queries"][int(b)] for b in cap["batch"]]
    cap_samples = [cap["batch_samples"][int(b)] for b in cap["batch"]]
    errored_cap = sum(q for q, st in zip(cap_queries, cap["status"])
                      if st != 1)
    attempted = len(lat) + sum(cap_queries)
    failed = late + missing + errored_cap
    log(f"fixed rate {doc['fixed_qps']:g} qps: {len(lat)} queries offered, "
        f"{late} late past {SERVE_LIMIT_S * 1e3:g} ms, {missing} errored or "
        f"unserved; fail ratio {perfstats.failure_ratio(len(lat), late + missing):.4f}")
    served = [x for x in lat if x is not None]
    p, tail_s, n = perfstats.tail(served)
    log(f"query latency: p50 {statistics.median(served) * 1e3:.3f} ms, "
        f"p{p:g} {tail_s * 1e3:.3f} ms, n={n}")
    late_gen = perfstats.generator_lateness(fixed["due"], fixed["sent"])
    gp, gval, gn = perfstats.tail(late_gen)
    log(f"generator lateness p{gp:g} {gval * 1e3:.3f} ms (n={gn})")

    # Saturated drain rate: completions up to the last one.
    window = max(e for e, st in zip(cap["end"], cap["status"]) if st == 1) - \
        cap["t0"]
    done_q = sum(q for q, st in zip(cap_queries, cap["status"]) if st == 1)
    done_samples = sum(s for s, st in zip(cap_samples, cap["status"])
                       if st == 1)
    log(f"capacity: {len(cap['batch'])} saturated batches, {done_q:g} "
        f"queries in {window:.3f} s")
    store = doc["store"]
    page_bytes = store["stored_bytes"] / store["pages"]
    pages = fixed["stats_after"]["pages_loaded"] - \
        fixed["stats_before"]["pages_loaded"]
    fixed_samples = sum(s for s, st in zip(fixed["samples"], fixed["status"])
                        if st == 1)
    metrics = {
        "samples_per_s": done_samples / window,
        "eval_loss": fixed["loss_sum"] / fixed["loss_count"],
        "wire_bytes_per_sample": pages * page_bytes / fixed_samples,
        "query_p50_ms": statistics.median(served) * 1e3,
        "capacity_qps": done_q / window,
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    return metrics, attempted, failed


def serve_layers(doc):
    traced = doc["traced"]
    plain = doc["plain"]
    served = [i for i, s in enumerate(traced["status"]) if s == 1]
    run_s = [traced["end"][i] - traced["start"][i] for i in served]
    gather = [traced["gather_s"][i] for i in served]
    forward = [r - g for r, g in zip(run_s, gather)]
    waits = perfstats.queue_waits([traced["due"][i] for i in served],
                                  [traced["start"][i] for i in served])
    plain_run = [plain["end"][i] - plain["start"][i]
                 for i, s in enumerate(plain["status"]) if s == 1]
    plain_lat = perfstats.query_latencies(plain["q_arrival"], plain["q_batch"],
                                          plain["end"], plain["status"])
    before, after = traced["stats_before"], traced["stats_after"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    pages = after["pages_loaded"] - before["pages_loaded"]
    lat = perfstats.query_latencies(traced["q_arrival"], traced["q_batch"],
                                    traced["end"], traced["status"])
    # Coverage per query: queue wait + gather + forward against its
    # latency from arrival; the remainder is the batching hold.
    cover = {"queue": [], "gather": [], "forward": []}
    walls = []
    for lat_q, b in zip(lat, traced["q_batch"]):
        b = int(b)
        if lat_q is None:
            continue
        cover["queue"].append(traced["start"][b] - traced["due"][b])
        cover["gather"].append(traced["gather_s"][b])
        cover["forward"].append(traced["end"][b] - traced["start"][b] -
                                traced["gather_s"][b])
        walls.append(lat_q)
    late = perfstats.generator_lateness(traced["due"], traced["sent"])
    probe = doc["page_probe"]
    store = doc["store"]
    return {
        "compress.compress_MBps": probe["raw_bytes"] / probe["compress_s"] / 1e6,
        "compress.decompress_MBps":
            probe["raw_bytes"] / probe["decompress_s"] / 1e6,
        "compress.quantize_MBps": probe["raw_bytes"] / probe["quantize_s"] / 1e6,
        "compress.page_decode_us":
            statistics.median(probe["load_page_s"]) * 1e6,
        "serve.gather_ms": statistics.median(gather) * 1e3,
        "serve.hit_rate": hits / (hits + misses),
        "serve.pages_per_query": pages / len(traced["q_arrival"]),
        "serve.fanout": doc["partials"] / doc["gather_calls"],
        "serve.forward_ms": statistics.median(forward) * 1e3,
        "serve.queue_wait_ms": statistics.median(waits) * 1e3,
        "serve.batch_samples": statistics.mean(traced["samples"]),
        "serve.gen_late_ms": perfstats.tail(late)[1] * 1e3,
        "serve.store_ratio": store["input_bytes"] / store["stored_bytes"],
        "query_p99_ms": perfstats.tail(
            [x for x in plain_lat if x is not None])[1] * 1e3,
        "obs.trace_overhead_pct": perfstats.overhead_pct(run_s, plain_run),
        "obs.layer_coverage": perfstats.layer_coverage(cover, walls),
    }


# ----------------------------------------------------------------- main

def harness_args(workload, seed, seconds, trace):
    common = ["--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    if workload == "serve-zipf":
        return ["serve"] + common
    codec = "hybrid" if workload == "train-hybrid" else "none"
    return ["train", "--codec", codec] + common


def measure(workload, seed, seconds, trace, build):
    """Returns (metrics, attempted, failed, problems) for one run."""
    doc = run_harness(build, harness_args(workload, seed, seconds, trace))
    host = doc["host"]
    log(f"host: nproc {host['nproc']:g}, simd {host['simd_isa']}, build "
        f"{host['build_type']}")
    if workload == "serve-zipf":
        body = doc["serve"]
        problems = serve_checks(body)
        if not trace:
            metrics, attempted, failed = serve_end_to_end(body)
        else:
            probe = dict(doc["train_probe"], nproc=host["nproc"])
            problems += replay_checks(probe)
            metrics = train_layers(probe)
            metrics.update(serve_layers(body))
            attempted = failed = 0
            for phase in (body["plain"], body["traced"]):
                lat = perfstats.query_latencies(
                    phase["q_arrival"], phase["q_batch"], phase["end"],
                    phase["status"])
                _, late, missing = perfstats.classify_queries(
                    lat, SERVE_LIMIT_S)
                attempted += len(lat)
                failed += late + missing
        return metrics, attempted, failed, problems

    body = dict(doc["train"], nproc=host["nproc"])
    if not trace:
        metrics, attempted, failed = train_end_to_end(body)
        return metrics, attempted, failed, train_checks(body)
    # The training layers come from this workload's replay; the page
    # decode and serving layers from the short serving probe.
    problems = replay_checks(body) + serve_checks(doc["serve_probe"])
    serve_metrics = serve_layers(doc["serve_probe"])
    metrics = train_layers(body)
    for key in ("compress.page_decode_us",) + tuple(
            k for k in serve_metrics if k.startswith("serve.")):
        metrics[key] = serve_metrics[key]
    per_run = int(body["iterations"]) * body["host"]["world"]
    runs = body["launches"] + body["replays"]
    failed = sum(1 for r in runs if any(c != 0 for c in r["exit_codes"]))
    return metrics, len(runs) * per_run, failed * per_run, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = build_harness()
    end_to_end, per_layer = declared_metrics()
    names = per_layer if args.trace else end_to_end
    metrics, attempted, failed, problems = measure(
        args.workload, args.seed, args.seconds, args.trace, build)
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit(f"error: metrics not produced: {missing}")
    problems += [f"{n} is not finite" for n in names
                 if not math.isfinite(metrics[n])]
    for problem in problems:
        log(f"check failed: {problem}")
    if problems:
        failed = attempted  # a failed check fails the run's operations
    for name in names:
        log(f"{name} = {metrics[name]:.6g} {names[name]}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": metrics[n], "unit": names[n]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
