// SnapshotRegistry unit tests: validate-then-swap, rollback on every
// corruption mode, same-CRC no-op reloads, RCU generation lifetime
// (held generations outlive the swap), and cache retire/evict.

#include "serve/registry.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"
#include "serve/protocol.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace tpiin {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_reg_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
    path_a_ = dir_ + "/a.snap";
    Status written = WriteSnapshot(BuildWorkedExampleTpiin(), path_a_);
    ASSERT_TRUE(written.ok()) << written.ToString();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A second snapshot with different content (so a different CRC).
  std::string WriteSecondSnapshot() {
    const std::string path = dir_ + "/b.snap";
    ProvinceConfig config = SmallProvinceConfig(150, 20170402);
    config.trading_probability = 0.02;
    Result<Province> province = GenerateProvince(config);
    EXPECT_TRUE(province.ok()) << province.status().ToString();
    Result<FusionOutput> fused = BuildTpiin(province->dataset);
    EXPECT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_TRUE(WriteSnapshot(fused->tpiin, path).ok());
    return path;
  }

  std::unique_ptr<SnapshotRegistry> MakeRegistry() {
    ServiceOptions options;
    options.threads = 1;
    options.cache_entries = 64;
    options.bundle_cache_entries = 4;
    return std::make_unique<SnapshotRegistry>(options, SnapshotOpenOptions{},
                                              metrics_,
                                              /*event_sink=*/nullptr);
  }

  /// The groups payload a generation's service answers with.
  std::string Groups(const SnapshotGeneration& generation) {
    Request req;
    req.verb = "groups";
    Response resp = generation.service->Handle(req);
    EXPECT_EQ(resp.status, "ok") << resp.error;
    return resp.payload;
  }

  std::string dir_;
  std::string path_a_;
  /// Where MakeRegistry's registry counts; outlives the test body.
  MetricsRegistry metrics_;
};

TEST_F(RegistryTest, LoadInitialPublishesGenerationOne) {
  std::unique_ptr<SnapshotRegistry> registry = MakeRegistry();
  ASSERT_TRUE(registry->LoadInitial(path_a_).ok());

  std::shared_ptr<const SnapshotGeneration> gen = registry->Current();
  ASSERT_NE(gen, nullptr);
  EXPECT_EQ(gen->id, 1u);
  EXPECT_EQ(gen->path, path_a_);
  EXPECT_GT(gen->loaded_unix_micros, 0);
  EXPECT_GT(gen->net().NumNodes(), 0u);
  EXPECT_FALSE(Groups(*gen).empty());
  EXPECT_EQ(registry->reload_attempts(), 0u);
}

TEST_F(RegistryTest, ReloadBeforeLoadInitialFails) {
  std::unique_ptr<SnapshotRegistry> registry = MakeRegistry();
  Result<ReloadOutcome> outcome = registry->Reload();
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsFailedPrecondition());
}

TEST_F(RegistryTest, SameCrcReloadIsNoop) {
  std::unique_ptr<SnapshotRegistry> registry = MakeRegistry();
  ASSERT_TRUE(registry->LoadInitial(path_a_).ok());
  std::shared_ptr<const SnapshotGeneration> before = registry->Current();

  // Same path (the SIGHUP-from-logrotate shape) *and* a byte-identical
  // copy at a different path both no-op: identity is content CRC.
  Result<ReloadOutcome> same = registry->Reload();
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_FALSE(same->swapped);
  EXPECT_EQ(same->generation.get(), before.get());

  const std::string copy = dir_ + "/copy.snap";
  std::filesystem::copy_file(path_a_, copy);
  Result<ReloadOutcome> copied = registry->Reload(copy);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_FALSE(copied->swapped);

  EXPECT_EQ(registry->Current()->id, 1u);
  EXPECT_EQ(registry->reload_attempts(), 2u);
  EXPECT_EQ(registry->reload_noops(), 2u);
  EXPECT_EQ(registry->reload_swaps(), 0u);
  EXPECT_EQ(registry->reload_failures(), 0u);
}

TEST_F(RegistryTest, DifferentSnapshotSwapsGenerations) {
  std::unique_ptr<SnapshotRegistry> registry = MakeRegistry();
  ASSERT_TRUE(registry->LoadInitial(path_a_).ok());
  const std::string groups_a = Groups(*registry->Current());
  const uint32_t crc_a = registry->Current()->crc();

  const std::string path_b = WriteSecondSnapshot();
  Result<ReloadOutcome> outcome = registry->Reload(path_b);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->swapped);
  EXPECT_EQ(outcome->generation->id, 2u);
  EXPECT_EQ(outcome->generation->path, path_b);
  EXPECT_NE(outcome->generation->crc(), crc_a);

  std::shared_ptr<const SnapshotGeneration> current = registry->Current();
  EXPECT_EQ(current.get(), outcome->generation.get());
  EXPECT_NE(Groups(*current), groups_a);
  EXPECT_EQ(registry->reload_swaps(), 1u);

  // Reloading the *original* file again is a real swap back (CRC
  // differs from the now-serving generation), minting generation 3.
  Result<ReloadOutcome> back = registry->Reload(path_a_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->swapped);
  EXPECT_EQ(back->generation->id, 3u);
  EXPECT_EQ(Groups(*registry->Current()), groups_a);
}

TEST_F(RegistryTest, HeldGenerationOutlivesSwap) {
  std::unique_ptr<SnapshotRegistry> registry = MakeRegistry();
  ASSERT_TRUE(registry->LoadInitial(path_a_).ok());

  // An "in-flight request": pins generation 1 across the swap.
  std::shared_ptr<const SnapshotGeneration> held = registry->Current();
  const std::string groups_before = Groups(*held);

  ASSERT_TRUE(registry->Reload(WriteSecondSnapshot()).ok());
  EXPECT_EQ(registry->Current()->id, 2u);

  // The held generation still answers, byte-identically, from its own
  // (superseded but still mapped) snapshot.
  EXPECT_EQ(Groups(*held), groups_before);
  EXPECT_EQ(held->id, 1u);
}

TEST_F(RegistryTest, CorruptCandidatesAreRejectedAndOldGenerationServes) {
  std::unique_ptr<SnapshotRegistry> registry = MakeRegistry();
  ASSERT_TRUE(registry->LoadInitial(path_a_).ok());
  const std::string groups_a = Groups(*registry->Current());

  std::ifstream in(path_a_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  struct Mutation {
    const char* name;
    std::string content;
  };
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  // Flip a byte inside a real section payload (the gap between
  // sections is alignment padding no checksum covers), so the per-
  // section CRC rung of the ladder is what rejects it.
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::string flipped_payload = bytes;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + sizeof(SnapshotHeader) +
                    i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.size == 0) continue;
    flipped_payload[entry.offset + entry.size / 2] ^= 0x20;
    break;
  }
  ASSERT_NE(flipped_payload, bytes);
  const Mutation mutations[] = {
      {"truncated", bytes.substr(0, bytes.size() / 2)},
      {"bad magic", bad_magic},
      {"flipped payload byte", flipped_payload},
      {"garbage", std::string(256, 'x')},
      {"empty", std::string()},
  };

  uint64_t failures = 0;
  for (const Mutation& mutation : mutations) {
    const std::string bad_path = dir_ + "/bad.snap";
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(mutation.content.data(),
              static_cast<std::streamsize>(mutation.content.size()));
    out.close();

    Result<ReloadOutcome> outcome = registry->Reload(bad_path);
    EXPECT_FALSE(outcome.ok()) << mutation.name << " was accepted";
    ++failures;
    EXPECT_EQ(registry->reload_failures(), failures) << mutation.name;
    // Rollback is the default: generation 1 is untouched and serving.
    EXPECT_EQ(registry->Current()->id, 1u) << mutation.name;
    EXPECT_EQ(Groups(*registry->Current()), groups_a) << mutation.name;
  }

  // A missing candidate file is a failure too, not a crash.
  Result<ReloadOutcome> missing = registry->Reload(dir_ + "/missing.snap");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(registry->reload_failures(), failures + 1);

  // ... and a valid candidate still swaps after all those rejections.
  Result<ReloadOutcome> good = registry->Reload(WriteSecondSnapshot());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->swapped);
  EXPECT_EQ(good->generation->id, 2u);
}

TEST_F(RegistryTest, SwapEvictsSupersededGenerationsCacheEntries) {
  std::unique_ptr<SnapshotRegistry> registry = MakeRegistry();
  ASSERT_TRUE(registry->LoadInitial(path_a_).ok());

  // Populate generation 1's bundle cache entry.
  (void)Groups(*registry->Current());
  EXPECT_EQ(registry->shared_state().bundle_cache.size(), 1u);

  std::shared_ptr<const SnapshotGeneration> old = registry->Current();
  ASSERT_TRUE(registry->Reload(WriteSecondSnapshot()).ok());

  // The swap evicted the dead generation's entries...
  EXPECT_EQ(registry->shared_state().bundle_cache.size(), 0u);
  // ... and the retired service no longer writes to the shared caches,
  // even though a pinned request can still read through it.
  (void)Groups(*old);
  EXPECT_EQ(registry->shared_state().bundle_cache.size(), 0u);

  // The new generation caches normally.
  (void)Groups(*registry->Current());
  EXPECT_EQ(registry->shared_state().bundle_cache.size(), 1u);
}

}  // namespace
}  // namespace tpiin
