// End-to-end benchmark of the live Viper engine on the paper's models.
//
//   perfbench_engine --workload tc1-full --seed 1 --seconds 30 --trace 0
//                    --workdir DIR [--source-id ID]
//
// Closed loop, one producer and one consumer: per version the model is
// trained (perturbed, untimed), saved at t0, drained, and served; the
// consumer's swap and the drained journaled flush both end the version.
// Then a fresh stack cold-starts a consumer from the same PFS directory.
// Every served model is compared with the producer's weights outside the
// timed intervals.
//
// --trace 0 prints the end-to-end metrics. --trace 1 arms the version
// ledger on every other version, reads the library's counters around it,
// replays each layer's calls on scratch instances after every version, and
// prints the per-layer metrics. The last stdout line is the result object;
// the line before it is the run record. Exit code 1 on any failure.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "viper/common/thread_pool.hpp"
#include "viper/obs/ledger.hpp"
#include "viper/obs/metrics.hpp"
#include "viper/serial/format.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/// A percentile needs this many samples for ten to lie beyond its p90.
constexpr int kMinTimedVersions = 100;
/// The timed loop stops here whatever --seconds says, so a run ends well
/// inside its 180 s budget.
constexpr double kMaxTimedSeconds = 120.0;
/// Set-up is repeated and its median reported.
constexpr int kSetups = 3;
constexpr double kSwapTimeoutSeconds = 10.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_engine: %s\nusage: perfbench_engine --workload {%s} "
               "--seed N --seconds S --trace {0|1} --workdir DIR "
               "[--source-id ID]\n",
               message.c_str(), workload_names().c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--workdir") args.workdir = value;
      else if (flag == "--source-id") args.source_id = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.workdir.empty()) usage("--workdir is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

/// Library counters read around a traced version's timed interval, keyed
/// by the per-layer metric they feed (times in ms), plus the consumer's
/// install and prefetch counts.
using Counters = std::map<std::string, double>;

/// The per-version counter metrics and their units.
constexpr std::pair<const char*, const char*> kCounterMetrics[] = {
    {"serial.bytes_copied_per_version", "bytes"},
    {"serial.allocs_per_version", "count"},
    {"pool.task_ms_per_version", "ms"},
    {"pool.queue_wait_ms_per_version", "ms"},
    {"memsys.lock_wait_ms_per_version", "ms"},
    {"net.wire_bytes_per_version", "bytes"},
    {"net.requeues_per_version", "count"},
    {"core.retries_per_version", "count"},
    {"core.pfs_fallbacks_per_version", "count"},
};

Counters read_counters(const viper::core::InferenceConsumer& consumer) {
  const viper::obs::MetricsSnapshot snap =
      viper::obs::MetricsRegistry::global().snapshot();
  auto counter = [&](std::string_view name) {
    return static_cast<double>(snap.counter_value(name));
  };
  auto hist_ms = [&](std::string_view name) {
    const auto* h = snap.histogram_sample(name);
    return h == nullptr ? 0.0 : h->sum * 1e3;
  };
  double lock_wait_ms = 0.0;
  for (const auto& h : snap.histograms) {
    const std::string_view name = h.name;
    if (name.starts_with("viper.memsys.") && name.ends_with(".lock_wait_seconds")) {
      lock_wait_ms += h.sum * 1e3;
    }
  }
  return {
      {"serial.bytes_copied_per_version", counter("viper.serial.bytes_copied")},
      {"serial.allocs_per_version", counter("viper.serial.allocations")},
      {"pool.task_ms_per_version", hist_ms("viper.common.pool_task_seconds")},
      {"pool.queue_wait_ms_per_version",
       hist_ms("viper.common.pool_queue_wait_seconds")},
      {"memsys.lock_wait_ms_per_version", lock_wait_ms},
      {"net.wire_bytes_per_version", counter("viper.net.stream_bytes_on_wire")},
      {"net.requeues_per_version", counter("viper.net.stream_requeues")},
      {"core.retries_per_version",
       counter("viper.core.load_retries") + counter("viper.net.stream_retries")},
      {"core.pfs_fallbacks_per_version", counter("viper.core.load_pfs_fallbacks")},
      {"installs", static_cast<double>(consumer.updates_applied())},
      {"prefetches", static_cast<double>(consumer.prefetches_started())},
  };
}

/// Gaps between consecutive VersionLedger stamps of one version, in ms.
void record_stages(const viper::obs::VersionTimeline& t, SampleSet& samples) {
  using viper::obs::Stage;
  auto gap = [&](const char* name, Stage from, Stage to) {
    if (t.has(from) && t.has(to)) {
      samples[name].push_back((t.stamp(to) - t.stamp(from)) * 1e3);
    }
  };
  gap("stage.serialize_ms", Stage::kCaptureStart, Stage::kSerializeDone);
  gap("stage.commit_ms", Stage::kSerializeDone, Stage::kCommitDone);
  gap("stage.notify_ms", Stage::kCommitDone, Stage::kNotified);
  gap("stage.queue_ms", Stage::kNotified, Stage::kFetchStart);
  gap("stage.fetch_ms", Stage::kFetchStart, Stage::kFetchDone);
  gap("stage.decode_ms", Stage::kFetchDone, Stage::kDecodeDone);
  gap("stage.swap_ms", Stage::kDecodeDone, Stage::kSwapDone);
  gap("stage.flush_ms", Stage::kCommitDone, Stage::kFlushDone);
}

/// Per-layer metrics that are medians of a sample series, with units.
/// Every traced run must produce each of them.
constexpr std::pair<const char*, const char*> kLayerSeries[] = {
    {"serial.serialize_ms", "ms"},
    {"serial.serialize_1shard_ms", "ms"},
    {"serial.crc_ms", "ms"},
    {"serial.decode_ms", "ms"},
    {"serial.delta_encode_ms", "ms"},
    {"serial.delta_apply_ms", "ms"},
    {"serial.frame_ratio", "ratio"},
    {"memsys.tier_put_ms", "ms"},
    {"memsys.pfs_put_ms", "ms"},
    {"memsys.pfs_get_ms", "ms"},
    {"memsys.pfs_open_ms", "ms"},
    {"durability.journal_append_ms", "ms"},
    {"durability.journal_load_ms", "ms"},
    {"kvstore.metadata_ms", "ms"},
    {"kvstore.notify_ms", "ms"},
    {"net.stream_ms", "ms"},
    {"net.recv_wait_ms", "ms"},
    {"core.swap_us", "us"},
    {"core.cold_chain_ms", "ms"},
    {"stage.serialize_ms", "ms"},
    {"stage.commit_ms", "ms"},
    {"stage.notify_ms", "ms"},
    {"stage.queue_ms", "ms"},
    {"stage.fetch_ms", "ms"},
    {"stage.decode_ms", "ms"},
    {"stage.swap_ms", "ms"},
    {"stage.flush_ms", "ms"},
};

/// The stages that sum to capture -> swap (the flush runs beside them).
constexpr const char* kUpdateStages[] = {
    "stage.serialize_ms", "stage.commit_ms", "stage.notify_ms", "stage.queue_ms",
    "stage.fetch_ms",     "stage.decode_ms", "stage.swap_ms"};

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    out += (out.size() > 1 ? ", " : "") + json_string(item);
  }
  return out + "]";
}

/// Minimal ordered JSON object writer.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Run {
  // Timed samples, seconds.
  std::vector<double> update, stall, durable, cold;
  std::vector<double> traced_update, untraced_update;
  std::vector<int> cold_depth;
  double busy_seconds = 0.0;
  double served_bytes = 0.0;
  int timed_versions = 0;
  int frames_shipped = 0;
  // Correctness.
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  // Traced run.
  SampleSet layers;
  Counters counter_total;
  int traced_versions = 0;

  void fail(const std::string& error) {
    ++failed;
    if (errors.size() < 8) errors.push_back(error);
    std::fprintf(stderr, "perfbench_engine: FAILED: %s\n", error.c_str());
  }
  /// Records one checked operation; false when it failed.
  bool check(bool ok, const std::string& error) {
    ++attempted;
    if (!ok) fail(error);
    return ok;
  }
};

struct Setup {
  viper::Model model;
  viper::Rng rng{0};
  std::unique_ptr<LivePair> pair;
  std::uint64_t next_version = 1;
};

/// Model build, engine start and warm-up versions: everything before the
/// first timed sample.
bool set_up(const Workload& w, const Args& args, const fs::path& pfs_dir,
            Setup& s, Run& run) {
  std::error_code ec;
  fs::remove_all(pfs_dir, ec);
  fs::create_directories(pfs_dir, ec);
  viper::ArchitectureOptions arch;
  arch.width_scale = w.width_scale;
  arch.seed = args.seed;
  auto built = viper::build_app_model(w.app, arch);
  if (!run.check(built.is_ok(), "build_app_model: " + built.status().to_string())) {
    return false;
  }
  s.model = std::move(built).value();
  s.rng = viper::Rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  s.next_version = 1;
  s.pair = std::make_unique<LivePair>(w, pfs_dir, s.model.name());
  if (!run.check(s.pair->status().is_ok(),
                 "engine start: " + s.pair->status().to_string())) {
    return false;
  }
  for (int i = 0; i < w.warmup_versions; ++i) {
    train_step(s.model, s.rng, w);
    s.model.set_version(s.next_version);
    s.model.set_iteration(static_cast<std::int64_t>(s.next_version) * 100);
    ++s.next_version;
    const UpdateSample sample = s.pair->update(s.model, kSwapTimeoutSeconds);
    if (!run.check(sample.ok, "warm-up: " + sample.error)) return false;
    if (!run.check(s.pair->serves(s.model),
                   "warm-up: consumer serves wrong weights for v" +
                       std::to_string(s.model.version()))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = now_s();
  const Args args = parse_args(argc, argv);
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) usage("unknown workload '" + args.workload + "'");
  const Workload& w = *workload;

  const fs::path work = args.workdir / ("run-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work, ec);
  if (ec) usage("cannot create " + work.string() + ": " + ec.message());

  Run run;
  SpanLog spans(args.trace);
  std::vector<double> setup_seconds;
  Setup s;
  fs::path pfs_dir;
  bool ok = true;
  for (int k = 0; k < kSetups && ok; ++k) {
    s.pair.reset();
    if (!pfs_dir.empty()) fs::remove_all(pfs_dir, ec);
    pfs_dir = work / ("pfs-" + std::to_string(k));
    const double start = k == 0 ? process_start : now_s();
    ok = set_up(w, args, pfs_dir, s, run);
    setup_seconds.push_back(now_s() - start);
  }

  std::optional<Replayer> replayer;
  if (ok && args.trace) {
    replayer.emplace(w, work / "scratch", s.model.name());
    ok = run.check(replayer->status().is_ok(),
                   "replay set-up: " + replayer->status().to_string());
  }

  const bool rss_reset = reset_peak_rss();
  const double timed_start = now_s();
  int i = 0;
  while (ok) {
    const double elapsed = now_s() - timed_start;
    const bool cycle_done = i % w.cycle == 0;
    // Untraced runs report p90s, so they run on until the sample holds
    // enough versions; traced runs report medians only.
    const bool enough = args.trace || i >= kMinTimedVersions;
    if (cycle_done &&
        ((elapsed >= args.seconds && enough) || elapsed >= kMaxTimedSeconds)) {
      break;
    }
    viper::Model& model = s.model;
    train_step(model, s.rng, w);
    model.set_version(s.next_version);
    model.set_iteration(static_cast<std::int64_t>(s.next_version) * 100);
    ++s.next_version;
    const std::uint64_t version = model.version();
    const std::uint64_t trace_id =
        viper::obs::TraceContext::trace_id_for(model.name(), version);
    // Traced runs alternate: odd versions carry the ledger, spans and
    // counter reads; even ones run bare, for the overhead comparison.
    const bool traced = args.trace && i % 2 == 1;

    Counters before;
    if (traced) {
      before = read_counters(s.pair->consumer());
      viper::obs::VersionLedger::set_armed(true);
    }
    const int root = traced ? spans.begin("version", trace_id) : -1;
    const UpdateSample sample =
        s.pair->update(model, kSwapTimeoutSeconds, traced ? &spans : nullptr);
    spans.end(root);
    if (traced) {
      viper::obs::VersionLedger::set_armed(false);
      for (const auto& [name, value] : read_counters(s.pair->consumer())) {
        run.counter_total[name] += value - before[name];
      }
    }
    ok = run.check(sample.ok, sample.error);
    if (!ok) break;
    ok = run.check(s.pair->serves(model),
                   "consumer serves wrong weights for v" + std::to_string(version));
    if (!ok) break;

    ++run.timed_versions;
    run.update.push_back(sample.update);
    run.stall.push_back(sample.stall);
    run.durable.push_back(sample.durable);
    run.busy_seconds += sample.busy;
    run.served_bytes += static_cast<double>(model.payload_bytes());
    if (args.trace) {
      (traced ? run.traced_update : run.untraced_update).push_back(sample.update);
    }
    if (s.pair->is_delta(version)) ++run.frames_shipped;

    const int depth = s.pair->chain_depth(version);
    const ColdSample cold = cold_start(pfs_dir, model.name(), model);
    ok = run.check(cold.ok, cold.error);
    if (!ok) break;
    run.cold.push_back(cold.seconds);
    run.cold_depth.push_back(depth);

    if (args.trace) {
      if (traced) {
        ++run.traced_versions;
        if (auto timeline = viper::obs::VersionLedger::global().timeline(
                model.name(), version)) {
          record_stages(*timeline, run.layers);
        }
        viper::obs::VersionLedger::global().clear();
      }
      std::string error;
      const bool replayed =
          replayer->replay_update(model, sample.metadata, s.pair->journal_state(),
                                  spans, run.layers, error) &&
          replayer->replay_cold_start(pfs_dir, model, spans, run.layers, error);
      ok = run.check(replayed, error);
    }
    ++i;
  }
  const double timed_wall = now_s() - timed_start;
  const double peak_rss = peak_rss_mb();
  replayer.reset();
  s.pair.reset();
  fs::remove_all(work, ec);

  // ---- Metrics --------------------------------------------------------
  std::vector<Metric> metrics;
  const auto ms = [](double seconds) { return seconds * 1e3; };
  if (!args.trace) {
    metrics = {
        {"update_p50_ms", ms(quantile(run.update, 0.5)), "ms"},
        {"update_p90_ms", ms(quantile(run.update, 0.9)), "ms"},
        {"stall_p50_ms", ms(quantile(run.stall, 0.5)), "ms"},
        {"stall_p90_ms", ms(quantile(run.stall, 0.9)), "ms"},
        {"durable_p50_ms", ms(quantile(run.durable, 0.5)), "ms"},
        {"durable_p90_ms", ms(quantile(run.durable, 0.9)), "ms"},
        {"served_mb_s", run.served_bytes / 1e6 / run.busy_seconds, "MB/s"},
        {"cold_start_p50_ms", ms(quantile(run.cold, 0.5)), "ms"},
        {"cold_start_p90_ms", ms(quantile(run.cold, 0.9)), "ms"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"setup_s", median(setup_seconds), "s"},
    };
  } else {
    for (const auto& [name, unit] : kLayerSeries) {
      const auto it = run.layers.find(name);
      if (!run.check(it != run.layers.end(),
                     std::string("no samples for ") + name)) {
        continue;
      }
      metrics.push_back({name, median(it->second), unit});
    }
    const double n = std::max(1, run.traced_versions);
    Counters& total = run.counter_total;
    for (const auto& [name, unit] : kCounterMetrics) {
      metrics.push_back({name, total[name] / n, unit});
    }
    metrics.push_back({"core.useful_apply_ratio",
                       total["prefetches"] > 0 ? total["installs"] / total["prefetches"]
                                               : 0.0,
                       "ratio"});
    const double untraced_p50 = ms(median(run.untraced_update));
    const double traced_p50 = ms(median(run.traced_update));
    metrics.push_back(
        {"trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%"});
    double stage_sum = 0.0;
    for (const char* stage : kUpdateStages) {
      const auto it = run.layers.find(stage);
      if (it != run.layers.end()) stage_sum += median(it->second);
    }
    metrics.push_back({"stage.unaccounted_ms", untraced_p50 - stage_sum, "ms"});
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
  }

  // ---- Run record -----------------------------------------------------
  const int pool_width = viper::ThreadPool::global().num_threads();
  const int requested_shards = w.serialize_shards == 0 ? pool_width : w.serialize_shards;
  int plan_shards = 0;
  if (auto plan = viper::serial::make_viper_format()->shard_plan(s.model, requested_shards);
      plan.is_ok()) {
    plan_shards = static_cast<int>(plan.value().shards.size());
  }
  std::vector<std::string> churn;
  for (const std::string& prefix : w.churn) churn.push_back(prefix + "*");
  if (churn.empty()) churn.push_back("*");
  std::vector<double> depths(run.cold_depth.begin(), run.cold_depth.end());
  JsonObject samples;
  samples.num("update", static_cast<double>(run.update.size()))
      .num("stall", static_cast<double>(run.stall.size()))
      .num("durable", static_cast<double>(run.durable.size()))
      .num("cold_start", static_cast<double>(run.cold.size()))
      .num("setup", static_cast<double>(setup_seconds.size()));
  if (args.trace) {
    samples.num("traced_versions", run.traced_versions)
        .num("untraced_versions", static_cast<double>(run.untraced_update.size()));
    for (const auto& [name, values] : run.layers) {
      samples.num(name, static_cast<double>(values.size()));
    }
  }
  JsonObject record;
  record.str("workload", w.name)
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .num("trace", args.trace ? 1 : 0)
      .str("source_id", args.source_id)
      .num("nproc", std::thread::hardware_concurrency())
      .num("pool_width", pool_width)
      .str("model", s.model.name())
      .num("width_scale", w.width_scale)
      .num("payload_bytes", static_cast<double>(s.model.payload_bytes()))
      .num("records", static_cast<double>(s.model.num_tensors()))
      .num("serialize_shards", requested_shards)
      .num("planned_shards", plan_shards)
      .raw("churn", json_list(churn))
      .num("churn_bytes_fraction",
           static_cast<double>(churn_bytes(s.model, w)) /
               static_cast<double>(std::max<std::uint64_t>(1, s.model.payload_bytes())))
      .raw("delta_updates", w.delta_updates ? "true" : "false")
      .num("delta_chain_max", static_cast<double>(
                                  viper::core::ModelWeightsHandler::Options{}.delta_chain_max))
      .num("keep_last", static_cast<double>(kKeepLast))
      .num("warmup_versions", w.warmup_versions)
      .num("timed_versions", run.timed_versions)
      .num("frames_shipped", run.frames_shipped)
      .num("cold_chain_depth_min",
           depths.empty() ? 0 : *std::min_element(depths.begin(), depths.end()))
      .num("cold_chain_depth_p50", median(depths))
      .num("cold_chain_depth_max",
           depths.empty() ? 0 : *std::max_element(depths.begin(), depths.end()))
      .num("timed_wall_s", timed_wall)
      .raw("peak_rss_reset", rss_reset ? "true" : "false")
      .raw("samples", samples.dump())
      .num("attempted", static_cast<double>(run.attempted))
      .num("failed", static_cast<double>(run.failed))
      .num("failed_frac", run.attempted > 0 ? static_cast<double>(run.failed) /
                                                  static_cast<double>(run.attempted)
                                            : 1.0)
      .raw("errors", json_list(run.errors));

  if (args.trace) {
    const fs::path span_file =
        args.workdir / ("spans-" + w.name + "-seed" + std::to_string(args.seed) + ".json");
    spans.write_json(span_file);
    record.str("spans_file", span_file.string())
        .num("spans", static_cast<double>(spans.size()));
  }

  JsonObject metric_json;
  for (const Metric& m : metrics) {
    metric_json.raw(m.name,
                    JsonObject().num("value", m.value).str("unit", m.unit).dump());
  }
  const bool correct = run.failed == 0 && run.timed_versions > 0;
  JsonObject result;
  result.raw("correct", correct ? "true" : "false")
      .num("attempted", static_cast<double>(std::max<long>(1, run.attempted)))
      .num("failed", static_cast<double>(run.failed))
      .raw("metrics", metric_json.dump());
  std::printf("%s\n", JsonObject().raw("run_record", record.dump()).dump().c_str());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
