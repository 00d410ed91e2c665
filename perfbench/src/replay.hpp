// Per-layer replays for the traced run. After a version's timed interval
// has closed, the same version's bytes are pushed through each layer's
// public calls on scratch instances (own FileTier directory, CommWorld,
// KvStore/PubSub, journal), each call in its own span. The cold-start read
// path is replayed on the live PFS directory the same way.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "harness.hpp"
#include "trace.hpp"
#include "viper/core/consumer.hpp"
#include "viper/durability/journal.hpp"
#include "viper/kvstore/kvstore.hpp"
#include "viper/kvstore/pubsub.hpp"
#include "viper/memsys/file_tier.hpp"
#include "viper/memsys/storage_tier.hpp"
#include "viper/net/comm.hpp"
#include "viper/serial/format.hpp"

namespace perfbench {

class Replayer {
 public:
  Replayer(const Workload& workload, std::filesystem::path scratch_dir,
           std::string model_name);
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  [[nodiscard]] const viper::Status& status() const noexcept { return status_; }

  /// Replay the update path of `model` (the version just served):
  /// serialize, CRC, decode, delta encode/apply, tier and PFS put/get,
  /// journal append, metadata, notify, stream and swap. `meta` is what the
  /// consumer was told; `live` is the live journal after the version.
  /// Returns false, with `error` set, when a replayed call fails or
  /// produces bytes that differ from the live ones.
  bool replay_update(const viper::Model& model,
                     const viper::core::ModelMetadata& meta,
                     const viper::durability::ManifestState& live,
                     SpanLog& spans, SampleSet& samples, std::string& error);

  /// Replay the cold-start read path on the live PFS directory: open,
  /// journal load, chain gets and patches, decode. Must rebuild exactly
  /// `expected`.
  bool replay_cold_start(const std::filesystem::path& live_dir,
                         const viper::Model& expected, SpanLog& spans,
                         SampleSet& samples, std::string& error);

 private:
  const Workload& workload_;
  std::string model_name_;
  viper::Status status_;
  std::unique_ptr<viper::serial::CheckpointFormat> format_;
  std::shared_ptr<viper::memsys::StorageTier> pfs_;
  std::unique_ptr<viper::durability::ManifestJournal> journal_;
  std::unique_ptr<viper::memsys::MemoryTier> memory_tier_;
  viper::kv::KvStore metadata_db_;
  std::shared_ptr<viper::kv::PubSub> bus_;
  std::unique_ptr<viper::kv::Subscription> subscription_;
  std::shared_ptr<viper::net::CommWorld> world_;
  viper::core::DoubleBuffer buffer_;

  /// Previous version's capture: the base the next delta frame patches.
  std::uint64_t prev_version_ = 0;
  viper::serial::ShardDigest prev_digest_;
  viper::serial::SharedBlob prev_blob_;
};

}  // namespace perfbench
