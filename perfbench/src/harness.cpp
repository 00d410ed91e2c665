#include "harness.hpp"

#include <algorithm>
#include <climits>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "trace.hpp"
#include "viper/memsys/file_tier.hpp"
#include "viper/memsys/presets.hpp"

namespace perfbench {

namespace core = viper::core;

namespace {

// TC1 at width 0.35 is ~34 MB in 10 records, 99% of it in dense_0/kernel.
// The delta workload's churn set is TC1's head (dense_1, dense_2 and both
// conv1d layers, under 1% of the bytes) with 16 shards, the delta tests'
// setting; one version in 9 re-anchors the chain (delta_chain_max 8), and
// its 9 warm-up versions make the first timed version an anchor.
const std::array<Workload, 2> kWorkloads = {{
    {"tc1-full", viper::AppModel::kTc1, 0.35, false, 0, {}, 1, 3},
    {"tc1-delta", viper::AppModel::kTc1, 0.35, true, 16,
     {"conv1d_", "dense_1/", "dense_2/"}, 9, 9},
}};

bool in_churn_set(const std::string& tensor, const Workload& workload) {
  if (workload.churn.empty()) return true;
  return std::any_of(workload.churn.begin(), workload.churn.end(),
                     [&](const std::string& prefix) {
                       return tensor.compare(0, prefix.size(), prefix) == 0;
                     });
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const Workload& workload : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += workload.name;
  }
  return names;
}

void train_step(viper::Model& model, viper::Rng& rng, const Workload& workload) {
  // Same effect as Tensor::perturb(rng, 1e-3) — every element of every
  // churned float tensor moves by up to 1e-3 — but drawn from a xorshift
  // stream instead of std::uniform_real_distribution, which costs ~10 ns
  // per element (~90 ms per TC1 version of untimed wall time).
  std::uint64_t state =
      static_cast<std::uint64_t>(rng.uniform_int(1, INT64_MAX)) | 1u;
  auto next_delta = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // 24 random bits -> [-1, 1) -> [-1e-3, 1e-3).
    return (static_cast<double>(state >> 40) / 8388608.0 - 1.0) * 1e-3;
  };
  for (auto& [name, tensor] : model.mutable_tensors()) {
    if (!in_churn_set(name, workload)) continue;
    if (tensor.dtype() == viper::DType::kF32) {
      for (float& v : tensor.mutable_data<float>()) v += static_cast<float>(next_delta());
    } else if (tensor.dtype() == viper::DType::kF64) {
      for (double& v : tensor.mutable_data<double>()) v += next_delta();
    }
  }
}

std::uint64_t churn_bytes(const viper::Model& model, const Workload& workload) {
  std::uint64_t bytes = 0;
  for (const auto& [name, tensor] : model.tensors()) {
    if (in_churn_set(name, workload)) bytes += tensor.byte_size();
  }
  return bytes;
}

LivePair::LivePair(const Workload& workload, std::filesystem::path pfs_dir,
                   std::string model_name)
    : model_name_(std::move(model_name)) {
  auto tier =
      viper::memsys::FileTier::open(std::move(pfs_dir), viper::memsys::polaris_lustre());
  if (!tier.is_ok()) {
    status_ = tier.status();
    return;
  }
  services_ = std::make_shared<core::SharedServices>();
  services_->pfs = std::shared_ptr<viper::memsys::StorageTier>(std::move(tier).value());
  world_ = viper::net::CommWorld::create(2);

  core::ModelWeightsHandler::Options producer;
  producer.strategy = core::Strategy::kGpuAsync;
  producer.delta_updates = workload.delta_updates;
  producer.serialize_shards = workload.serialize_shards;
  producer.retention.keep_last = kKeepLast;
  handler_ = std::make_unique<core::ModelWeightsHandler>(services_, producer);
  server_ = std::thread([this] { handler_->serve_transfers(world_->comm(0)); });

  core::InferenceConsumer::Options consumer;
  consumer.on_update = [this](const core::ModelMetadata& metadata) {
    on_update(metadata);
  };
  consumer_ = std::make_unique<core::InferenceConsumer>(
      services_, world_->comm(1), model_name_, consumer);
  consumer_->start();
}

LivePair::~LivePair() {
  if (consumer_) consumer_->stop();
  if (handler_) handler_->drain();
  if (server_.joinable()) {
    (void)core::ModelWeightsHandler::stop_transfer_server(world_->comm(1), 0);
    server_.join();
  }
  consumer_.reset();
  handler_.reset();
  if (world_) world_->shutdown();
}

void LivePair::on_update(const core::ModelMetadata& metadata) {
  const double now = now_s();
  {
    std::lock_guard lock(hook_mutex_);
    hook_version_ = metadata.version;
    hook_time_ = now;
    hook_metadata_ = metadata;
  }
  hook_cv_.notify_all();
}

UpdateSample LivePair::update(const viper::Model& model, double timeout_s,
                              SpanLog* spans) {
  UpdateSample sample;
  const std::uint64_t version = model.version();
  const double t0 = now_s();
  auto receipt = handler_->save_weights(model_name_, model);
  const double saved = now_s();
  if (!receipt.is_ok()) {
    sample.error = "save_weights v" + std::to_string(version) + ": " +
                   receipt.status().to_string();
    return sample;
  }
  handler_->drain();
  const double drained = now_s();

  std::unique_lock lock(hook_mutex_);
  const bool arrived = hook_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s),
      [&] { return hook_version_ >= version; });
  if (spans != nullptr) {
    const std::uint64_t trace =
        viper::obs::TraceContext::trace_id_for(model_name_, version);
    spans->add("core.save_weights", trace, t0, saved);
    spans->add("core.drain", trace, saved, drained);
    spans->add("core.await_swap", trace, drained,
               arrived ? std::max(hook_time_, drained) : now_s());
  }
  if (!arrived) {
    sample.error = "no swap of v" + std::to_string(version) + " within " +
                   std::to_string(timeout_s) + " s";
    return sample;
  }
  if (hook_version_ != version) {
    sample.error = "consumer swapped v" + std::to_string(hook_version_) +
                   " while v" + std::to_string(version) + " was expected";
    return sample;
  }
  sample.ok = true;
  sample.stall = saved - t0;
  sample.durable = drained - t0;
  sample.update = hook_time_ - t0;
  sample.busy = std::max(sample.durable, sample.update);
  sample.metadata = hook_metadata_;
  return sample;
}

bool LivePair::serves(const viper::Model& model) const {
  const auto active = consumer_->active_model();
  return active != nullptr && active->version() == model.version() &&
         active->same_weights(model);
}

viper::durability::ManifestState LivePair::journal_state() {
  auto journal = handler_->journal_for(model_name_);
  return journal.is_ok() ? journal.value()->state()
                         : viper::durability::ManifestState{};
}

int LivePair::chain_depth(std::uint64_t version) {
  const viper::durability::ManifestState state = journal_state();
  int depth = 0;
  for (;;) {
    const auto it = state.committed.find(version);
    if (it == state.committed.end()) return -1;
    if (!it->second.is_delta()) return depth;
    version = it->second.base_version;
    ++depth;
  }
}

bool LivePair::is_delta(std::uint64_t version) {
  const viper::durability::ManifestState state = journal_state();
  const auto it = state.committed.find(version);
  return it != state.committed.end() && it->second.is_delta();
}

ColdSample cold_start(const std::filesystem::path& pfs_dir,
                      const std::string& model_name,
                      const viper::Model& expected) {
  ColdSample sample;
  auto services = std::make_shared<core::SharedServices>();
  auto world = viper::net::CommWorld::create(2);
  core::InferenceConsumer::Options options;
  options.warm_start = true;

  const double start = now_s();
  auto tier = viper::memsys::FileTier::open(pfs_dir, viper::memsys::polaris_lustre());
  if (!tier.is_ok()) {
    sample.error = "FileTier::open: " + tier.status().to_string();
    return sample;
  }
  services->pfs = std::shared_ptr<viper::memsys::StorageTier>(std::move(tier).value());
  core::InferenceConsumer consumer(services, world->comm(1), model_name, options);
  consumer.start();
  sample.seconds = now_s() - start;

  // Closing the bus first releases the listener at once instead of at its
  // next 50 ms poll.
  services->bus->shutdown();
  consumer.stop();
  const auto active = consumer.active_model();
  if (!consumer.warm_started() || active == nullptr) {
    sample.error = "cold start served nothing";
  } else if (active->version() != expected.version()) {
    sample.error = "cold start served v" + std::to_string(active->version()) +
                   ", head is v" + std::to_string(expected.version());
  } else if (!active->same_weights(expected)) {
    sample.error = "cold start served wrong weights for v" +
                   std::to_string(expected.version());
  } else {
    sample.ok = true;
  }
  world->shutdown();
  return sample;
}

bool reset_peak_rss() {
  std::FILE* refs = std::fopen("/proc/self/clear_refs", "w");
  if (refs == nullptr) return false;
  const bool ok = std::fputs("5", refs) >= 0;
  return std::fclose(refs) == 0 && ok;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoll(line.substr(6))) / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace perfbench
