// The live engine under test: one producer (ModelWeightsHandler, GPU-async
// strategy) with its transfer server, and one push-driven InferenceConsumer,
// over a 2-rank CommWorld and a journaled FileTier PFS on disk. Plus the
// cold-start path: a fresh process-like stack that warm-starts a consumer
// from the same PFS directory.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "viper/common/rng.hpp"
#include "viper/core/consumer.hpp"
#include "viper/core/handler.hpp"
#include "viper/net/comm.hpp"
#include "viper/tensor/architectures.hpp"
#include "viper/tensor/model.hpp"
#include "trace.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  viper::AppModel app;
  double width_scale;
  bool delta_updates;
  int serialize_shards;  ///< 0 = pool width (the engine default)
  /// Tensor-name prefixes perturbed each version; empty = every tensor.
  std::vector<std::string> churn;
  /// The timed version count is a multiple of this: one delta chain
  /// (full anchor + delta_chain_max links) for the delta workload.
  int cycle;
  /// Untimed versions saved during set-up.
  int warmup_versions;
};

/// The benchmark's workloads, by name; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::string workload_names();

/// Retention of the live producer: keep one delta chain's worth of
/// versions so the PFS directory (and FileTier::open's scan) stays the same
/// size however long the run is.
inline constexpr std::size_t kKeepLast = 9;

/// Simulated training step: perturb the workload's churn set.
void train_step(viper::Model& model, viper::Rng& rng, const Workload& workload);
/// Payload bytes of the tensors a train step changes.
[[nodiscard]] std::uint64_t churn_bytes(const viper::Model& model,
                                        const Workload& workload);

/// Outcome of one closed-loop version: all times in seconds from t0, the
/// instant save_weights was called.
struct UpdateSample {
  bool ok = false;
  std::string error;
  double stall = 0.0;    ///< save_weights returned
  double durable = 0.0;  ///< drain() returned: the journaled flush landed
  double update = 0.0;   ///< consumer on_update reported this version
  double busy = 0.0;     ///< later of durable and update
  viper::core::ModelMetadata metadata;  ///< as reported to the hook
};

class LivePair {
 public:
  LivePair(const Workload& workload, std::filesystem::path pfs_dir,
           std::string model_name);
  ~LivePair();

  LivePair(const LivePair&) = delete;
  LivePair& operator=(const LivePair&) = delete;

  /// Ok once construction wired every component.
  [[nodiscard]] const viper::Status& status() const noexcept { return status_; }

  /// One closed-loop version: save_weights at t0, drain() right after it
  /// returns, then wait for the consumer's hook to report `model`'s
  /// version. Times out after `timeout_s`. With `spans`, the three calls
  /// are logged under the version's trace id.
  UpdateSample update(const viper::Model& model, double timeout_s,
                      SpanLog* spans = nullptr);

  /// Checks the consumer serves exactly `model` (version and weights).
  [[nodiscard]] bool serves(const viper::Model& model) const;

  /// Delta links from `version` back to its full anchor in the live
  /// journal; -1 when the version is not committed.
  [[nodiscard]] int chain_depth(std::uint64_t version);
  /// True when the live journal committed `version` as a delta frame.
  [[nodiscard]] bool is_delta(std::uint64_t version);
  /// Folded state of the live manifest journal.
  [[nodiscard]] viper::durability::ManifestState journal_state();

  [[nodiscard]] viper::core::InferenceConsumer& consumer() { return *consumer_; }

 private:
  void on_update(const viper::core::ModelMetadata& metadata);

  std::string model_name_;
  viper::Status status_;
  std::shared_ptr<viper::core::SharedServices> services_;
  std::shared_ptr<viper::net::CommWorld> world_;
  std::unique_ptr<viper::core::ModelWeightsHandler> handler_;
  std::thread server_;
  std::unique_ptr<viper::core::InferenceConsumer> consumer_;

  std::mutex hook_mutex_;
  std::condition_variable hook_cv_;
  std::uint64_t hook_version_ = 0;
  double hook_time_ = 0.0;
  viper::core::ModelMetadata hook_metadata_;
};

/// Outcome of one cold start: open of the PFS directory to the first
/// servable model.
struct ColdSample {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
};

/// Build a fresh SharedServices over a newly opened FileTier at `pfs_dir`,
/// warm-start an InferenceConsumer (read-only journal recovery + install)
/// and stop it again. Ok when it served exactly `expected`.
ColdSample cold_start(const std::filesystem::path& pfs_dir,
                      const std::string& model_name,
                      const viper::Model& expected);

/// Forget the process's resident-set high-water mark (Linux clear_refs);
/// false when the kernel refused.
bool reset_peak_rss();
/// VmHWM of this process in MiB; negative when unavailable.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
