#include "replay.hpp"

#include <cstring>
#include <future>
#include <optional>
#include <vector>

#include "viper/common/thread_pool.hpp"
#include "viper/core/metadata.hpp"
#include "viper/core/notification.hpp"
#include "viper/memsys/presets.hpp"
#include "viper/net/stream.hpp"
#include "viper/obs/context.hpp"
#include "viper/obs/metrics.hpp"
#include "viper/serial/crc32.hpp"
#include "viper/serial/shard_delta.hpp"

namespace perfbench {

namespace core = viper::core;
namespace serial = viper::serial;

namespace {

constexpr int kStreamTag = 900;
/// The transfer server's reply chunk (ModelWeightsHandler::Options default).
constexpr std::uint32_t kChunkBytes = 256 * 1024;
constexpr double kPeerTimeoutSeconds = 10.0;

/// Run `fn` on a shared-pool worker (the peer side of a two-party replay)
/// and return its result through a future.
template <class Fn>
auto on_pool(Fn fn) -> std::future<decltype(fn())> {
  using R = decltype(fn());
  auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
  auto result = task->get_future();
  viper::ThreadPool::global().submit([task] { (*task)(); });
  return result;
}

std::span<const std::byte> bytes_of(const serial::SharedBlob& blob) {
  return {blob->data(), blob->size()};
}

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

Replayer::Replayer(const Workload& workload, std::filesystem::path scratch_dir,
                   std::string model_name)
    : workload_(workload),
      model_name_(std::move(model_name)),
      format_(serial::make_viper_format()),
      memory_tier_(std::make_unique<viper::memsys::MemoryTier>(
          viper::memsys::polaris_gpu_hbm())),
      bus_(viper::kv::PubSub::create()),
      world_(viper::net::CommWorld::create(2)) {
  auto tier = viper::memsys::FileTier::open(std::move(scratch_dir),
                                            viper::memsys::polaris_lustre());
  if (!tier.is_ok()) {
    status_ = tier.status();
    return;
  }
  pfs_ = std::shared_ptr<viper::memsys::StorageTier>(std::move(tier).value());
  journal_ = std::make_unique<viper::durability::ManifestJournal>(pfs_, model_name_);
  status_ = journal_->load();
  subscription_ = std::make_unique<viper::kv::Subscription>(
      bus_->subscribe(core::notification_channel(model_name_)));
}

Replayer::~Replayer() {
  subscription_.reset();
  bus_->shutdown();
  world_->shutdown();
}

bool Replayer::replay_update(const viper::Model& model,
                             const core::ModelMetadata& meta,
                             const viper::durability::ManifestState& live,
                             SpanLog& spans, SampleSet& samples,
                             std::string& error) {
  viper::ThreadPool& pool = viper::ThreadPool::global();
  const std::uint64_t version = model.version();
  const std::uint64_t trace =
      viper::obs::TraceContext::trace_id_for(model_name_, version);
  const ScopedSpan root(spans, "replay.update", trace);

  // serial: the capture encode at the workload's shard count, and at one.
  serial::ShardDigest digest;
  std::optional<viper::Result<serial::PooledBuffer>> captured;
  samples["serial.serialize_ms"].push_back(ms(spans.timed(
      "serial.serialize_pooled_sharded", trace, [&] {
        captured.emplace(format_->serialize_pooled_sharded(
            model, pool, workload_.serialize_shards, &digest));
      })));
  if (!captured->is_ok()) {
    error = "replay serialize: " + captured->status().to_string();
    return false;
  }
  const serial::SharedBlob full = std::move(*captured).value().share();
  std::optional<viper::Result<serial::PooledBuffer>> serial_capture;
  samples["serial.serialize_1shard_ms"].push_back(ms(spans.timed(
      "serial.serialize_pooled_sharded[1]", trace, [&] {
        serial_capture.emplace(format_->serialize_pooled_sharded(model, pool, 1));
      })));
  if (!serial_capture->is_ok() ||
      !same_bytes(bytes_of(full), serial_capture->value().span())) {
    error = "replay: 1-shard and sharded captures of v" +
            std::to_string(version) + " differ";
    return false;
  }
  serial_capture.reset();

  std::uint32_t full_crc = 0;
  samples["serial.crc_ms"].push_back(ms(spans.timed(
      "serial.crc32", trace, [&] { full_crc = serial::crc32(bytes_of(full)); })));

  std::optional<viper::Result<viper::Model>> decoded;
  samples["serial.decode_ms"].push_back(ms(spans.timed(
      "serial.deserialize_shared_sharded", trace,
      [&] { decoded.emplace(format_->deserialize_shared_sharded(full, pool)); })));
  if (!decoded->is_ok() || decoded->value().version() != version ||
      !decoded->value().same_weights(model)) {
    error = "replay decode of v" + std::to_string(version) +
            " does not match the producer's model";
    return false;
  }

  // serial: the delta frame against the previous version, and its patch.
  serial::SharedBlob frame;
  if (prev_blob_ != nullptr && prev_version_ + 1 == version) {
    std::optional<viper::Result<serial::PooledBuffer>> encoded;
    samples["serial.delta_encode_ms"].push_back(ms(spans.timed(
        "serial.plan+encode_shard_delta", trace, [&] {
          const serial::ShardDeltaPlan plan =
              serial::plan_shard_delta(prev_digest_, digest);
          if (plan.compatible) {
            encoded.emplace(serial::encode_shard_delta(
                bytes_of(full), prev_digest_, digest, plan, prev_version_,
                version));
          }
        })));
    if (encoded.has_value() && encoded->is_ok()) {
      frame = std::move(*encoded).value().share();
      samples["serial.frame_ratio"].push_back(
          static_cast<double>(frame->size()) / static_cast<double>(full->size()));
      std::optional<viper::Result<serial::PooledBuffer>> patched;
      samples["serial.delta_apply_ms"].push_back(ms(spans.timed(
          "serial.apply_shard_delta", trace, [&] {
            patched.emplace(
                serial::apply_shard_delta(bytes_of(prev_blob_), bytes_of(frame)));
          })));
      if (!patched->is_ok() || !same_bytes(patched->value().span(), bytes_of(full))) {
        error = "replay: delta frame of v" + std::to_string(version) +
                " does not patch back to the full blob";
        return false;
      }
    }
  }
  prev_version_ = version;
  prev_digest_ = std::move(digest);
  prev_blob_ = full;

  // What the engine shipped for this version: the frame on the delta path.
  const auto record = live.committed.find(version);
  if (record == live.committed.end()) {
    error = "v" + std::to_string(version) + " is not committed in the live journal";
    return false;
  }
  const bool live_delta = record->second.is_delta();
  if (live_delta && frame == nullptr) {
    error = "live v" + std::to_string(version) +
            " is a delta, but no frame could be replayed";
    return false;
  }
  const serial::SharedBlob payload = live_delta ? frame : full;
  if (payload->size() != meta.size_bytes) {
    error = "replayed payload of v" + std::to_string(version) + " has " +
            std::to_string(payload->size()) + " bytes, the engine shipped " +
            std::to_string(meta.size_bytes);
    return false;
  }
  const std::uint32_t payload_crc =
      live_delta ? serial::crc32(bytes_of(payload)) : full_crc;

  // memsys: the producer's memory tier and the PFS tier.
  samples["memsys.tier_put_ms"].push_back(ms(spans.timed(
      "memsys.MemoryTier::put_shared", trace,
      [&] { (void)memory_tier_->put_shared(meta.path, payload, meta.cost_bytes); })));
  const std::string key = viper::durability::checkpoint_key(model_name_, version);
  viper::Status pfs_status;
  samples["memsys.pfs_put_ms"].push_back(ms(spans.timed(
      "memsys.FileTier::put_shared", trace,
      [&] { pfs_status = pfs_->put_shared(key, payload).status(); })));
  std::vector<std::byte> read_back;
  samples["memsys.pfs_get_ms"].push_back(ms(spans.timed(
      "memsys.FileTier::get", trace,
      [&] {
        if (pfs_status.is_ok()) pfs_status = pfs_->get(key, read_back).status();
      })));
  if (!pfs_status.is_ok() || !same_bytes(read_back, bytes_of(payload))) {
    error = "replay PFS round trip of v" + std::to_string(version) + ": " +
            pfs_status.to_string();
    return false;
  }
  read_back = {};
  (void)pfs_->erase(key);

  // durability: INTENT + COMMIT/DELTA on a journal as long as the live one
  // was before this version (padded with RETIRE records).
  const std::uint64_t live_records_before =
      live.next_sequence > 3 ? live.next_sequence - 3 : 0;
  while (journal_->state().next_sequence - 1 < live_records_before) {
    if (!journal_->append_retire(0).is_ok()) break;
  }
  viper::Status journal_status;
  const std::uint64_t base = live_delta ? record->second.base_version : 0;
  samples["durability.journal_append_ms"].push_back(ms(spans.timed(
      "durability.ManifestJournal::append", trace, [&] {
        auto intent = journal_->append_intent(version, payload->size(), payload_crc,
                                              model.iteration(), base);
        if (!intent.is_ok()) {
          journal_status = intent.status();
          return;
        }
        auto commit = live_delta
                          ? journal_->append_delta(version, payload->size(),
                                                   payload_crc, model.iteration(),
                                                   base)
                          : journal_->append_commit(version, payload->size(),
                                                    payload_crc, model.iteration());
        journal_status = commit.status();
      })));
  if (!journal_status.is_ok()) {
    error = "replay journal append: " + journal_status.to_string();
    return false;
  }

  // kvstore: metadata record round trip, and one notification hop.
  viper::Result<core::ModelMetadata> fetched = viper::not_found("unset");
  samples["kvstore.metadata_ms"].push_back(ms(spans.timed(
      "kvstore.put+get_metadata", trace, [&] {
        core::put_metadata(metadata_db_, meta);
        fetched = core::get_metadata(metadata_db_, model_name_);
      })));
  if (!fetched.is_ok() || fetched.value().version != version) {
    error = "replay metadata round trip lost v" + std::to_string(version);
    return false;
  }
  {
    viper::kv::Subscription& subscription = *subscription_;
    auto delivered = on_pool([&subscription] {
      auto event = subscription.next(kPeerTimeoutSeconds);
      return std::make_pair(event.is_ok(), now_s());
    });
    const double published = now_s();
    core::NotificationModule(bus_).publish_update(model_name_, version);
    const auto [ok, received] = delivered.get();
    if (!ok) {
      error = "replay notification of v" + std::to_string(version) + " was lost";
      return false;
    }
    spans.add("kvstore.publish->next", trace, published, received);
    samples["kvstore.notify_ms"].push_back(ms(received - published));
  }

  // net: the transfer server's chunked stream of the shipped payload.
  {
    viper::net::StreamOptions options;
    options.chunk_bytes = kChunkBytes;
    options.timeout_seconds = kPeerTimeoutSeconds;
    const viper::net::Comm receiver = world_->comm(1);
    auto received = on_pool([receiver, options] {
      auto bytes = viper::net::stream_recv(receiver, 0, kStreamTag, options);
      return std::make_pair(std::move(bytes), now_s());
    });
    // Only this replay's receives complete meanwhile (the live transfer
    // server sits in its blocking request receive), so the registry's
    // receive-wait delta is this stream's.
    const viper::obs::Histogram& recv_wait =
        viper::obs::MetricsRegistry::global().histogram("viper.net.recv_wait_seconds");
    const double waited_before = recv_wait.sum();
    const double sent = now_s();
    const viper::Status send_status = viper::net::stream_send(
        world_->comm(0), 1, kStreamTag, bytes_of(payload), options);
    auto [bytes, done] = received.get();
    samples["net.recv_wait_ms"].push_back(ms(recv_wait.sum() - waited_before));
    if (!send_status.is_ok() || !bytes.is_ok() ||
        !same_bytes(bytes.value(), bytes_of(payload))) {
      error = "replay stream of v" + std::to_string(version) + " failed";
      return false;
    }
    spans.add("net.stream_send->stream_recv", trace, sent, done);
    samples["net.stream_ms"].push_back(ms(done - sent));
  }

  // core: the consumer's double-buffer swap.
  viper::Model swapped = std::move(*decoded).value();
  samples["core.swap_us"].push_back(
      1e6 * spans.timed("core.DoubleBuffer::install", trace,
                        [&] { buffer_.install(std::move(swapped)); }));
  return true;
}

bool Replayer::replay_cold_start(const std::filesystem::path& live_dir,
                                 const viper::Model& expected, SpanLog& spans,
                                 SampleSet& samples, std::string& error) {
  const std::uint64_t version = expected.version();
  const std::uint64_t trace =
      viper::obs::TraceContext::trace_id_for(model_name_, version);
  const ScopedSpan root(spans, "replay.cold_start", trace);

  std::optional<viper::Result<std::unique_ptr<viper::memsys::FileTier>>> opened;
  samples["memsys.pfs_open_ms"].push_back(ms(spans.timed(
      "memsys.FileTier::open", trace, [&] {
        opened.emplace(viper::memsys::FileTier::open(
            live_dir, viper::memsys::polaris_lustre()));
      })));
  if (!opened->is_ok()) {
    error = "replay open: " + opened->status().to_string();
    return false;
  }
  std::shared_ptr<viper::memsys::StorageTier> tier(std::move(*opened).value());

  viper::durability::ManifestJournal journal(tier, model_name_);
  viper::Status loaded;
  samples["durability.journal_load_ms"].push_back(ms(spans.timed(
      "durability.ManifestJournal::load", trace, [&] { loaded = journal.load(); })));
  const viper::durability::ManifestState state = journal.state();
  if (!loaded.is_ok() || state.committed.empty() ||
      state.committed.rbegin()->first != version) {
    error = "replay journal load does not end at v" + std::to_string(version);
    return false;
  }

  // The chain from the head back to its full anchor, fetched newest first.
  std::vector<std::vector<std::byte>> chain;
  double chain_seconds = 0.0;
  for (std::uint64_t link = version;;) {
    const auto record = state.committed.find(link);
    if (record == state.committed.end()) {
      error = "replay chain of v" + std::to_string(version) + " is broken at v" +
              std::to_string(link);
      return false;
    }
    std::vector<std::byte> blob;
    viper::Status got;
    const double get_seconds = spans.timed("memsys.FileTier::get", trace, [&] {
      got = tier->get(viper::durability::checkpoint_key(model_name_, link), blob)
                .status();
    });
    samples["memsys.pfs_get_ms"].push_back(ms(get_seconds));
    chain_seconds += get_seconds;
    if (!got.is_ok()) {
      error = "replay get of v" + std::to_string(link) + ": " + got.to_string();
      return false;
    }
    chain.push_back(std::move(blob));
    if (!record->second.is_delta()) break;
    link = record->second.base_version;
  }

  // Patch forward from the anchor.
  serial::SharedBlob head =
      std::make_shared<const std::vector<std::byte>>(std::move(chain.back()));
  for (std::size_t i = chain.size() - 1; i-- > 0;) {
    std::optional<viper::Result<serial::PooledBuffer>> patched;
    chain_seconds += spans.timed("serial.apply_shard_delta", trace, [&] {
      patched.emplace(serial::apply_shard_delta(bytes_of(head), chain[i]));
    });
    if (!patched->is_ok()) {
      error = "replay chain patch: " + patched->status().to_string();
      return false;
    }
    head = std::move(*patched).value().share();
  }
  samples["core.cold_chain_ms"].push_back(ms(chain_seconds));

  std::optional<viper::Result<viper::Model>> decoded;
  spans.timed("serial.deserialize_shared_sharded", trace, [&] {
    decoded.emplace(
        format_->deserialize_shared_sharded(head, viper::ThreadPool::global()));
  });
  if (!decoded->is_ok() || !decoded->value().same_weights(expected)) {
    error = "replay cold start of v" + std::to_string(version) +
            " does not rebuild the head's weights";
    return false;
  }
  return true;
}

}  // namespace perfbench
