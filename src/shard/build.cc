#include "shard/build.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "fusion/pipeline.h"
#include "io/dataset_csv.h"
#include "obs/report.h"
#include "obs/rss.h"
#include "obs/trace.h"
#include "shard/gids.h"
#include "shard/plan.h"
#include "snapshot/snapshot.h"

namespace tpiin {

namespace {

std::string SpillDirOf(const std::string& out_dir, uint32_t shard) {
  return out_dir + StringPrintf("/spill/shard-%05u", shard);
}

/// One spill file, appended through a buffer that is flushed with
/// open-append-close, so no descriptor stays open between flushes.
class SpillFile {
 public:
  SpillFile(std::string path, size_t buffer_bytes)
      : path_(std::move(path)),
        buffer_bytes_(std::max<size_t>(buffer_bytes, 4096)) {}

  const std::string& path() const { return path_; }

  /// Creates the file empty (or truncates it).
  Status Create() {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    if (!file.good()) return Status::IOError(path_ + ": cannot create spill");
    return Status::OK();
  }

  Status Append(std::string_view bytes) {
    buffer_.append(bytes);
    if (buffer_.size() >= buffer_bytes_) return Flush();
    return Status::OK();
  }

  Status Flush() {
    if (buffer_.empty()) return Status::OK();
    std::ofstream file(path_, std::ios::binary | std::ios::app);
    file.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    file.close();
    if (!file.good()) return Status::IOError(path_ + ": spill append failed");
    buffer_.clear();
    return Status::OK();
  }

 private:
  std::string path_;
  size_t buffer_bytes_;
  std::string buffer_;
};

template <typename T>
std::string_view BytesOf(const T& value) {
  return std::string_view(reinterpret_cast<const char*>(&value),
                          sizeof(value));
}

/// Routes verbatim raw rows into per-(shard, table) spill files.
class SpillRouter {
 public:
  SpillRouter(const std::string& out_dir, uint32_t num_shards,
              size_t buffer_bytes)
      : out_dir_(out_dir), num_shards_(num_shards) {
    files_.reserve(static_cast<size_t>(num_shards) * kNumDatasetTables);
    for (uint32_t s = 0; s < num_shards; ++s) {
      for (size_t t = 0; t < kNumDatasetTables; ++t) {
        files_.emplace_back(SpillDirOf(out_dir, s) + "/" +
                                DatasetTableFile(static_cast<DatasetTable>(t)),
                            buffer_bytes);
      }
    }
  }

  /// Creates every spill directory with header-only CSV files, so each
  /// one is a loadable dataset even for a shard that receives no rows.
  Status Init() {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      const std::string dir = SpillDirOf(out_dir_, s);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        return Status::IOError(dir + ": cannot create spill directory");
      }
      TPIIN_RETURN_IF_ERROR(DatasetCsvWriter(dir).Close());
    }
    return Status::OK();
  }

  Status Append(uint32_t shard, DatasetTable table, std::string_view raw) {
    SpillFile& file =
        files_[shard * kNumDatasetTables + static_cast<size_t>(table)];
    TPIIN_RETURN_IF_ERROR(file.Append(raw));
    return file.Append("\n");
  }

  Status FlushAll() {
    for (SpillFile& file : files_) TPIIN_RETURN_IF_ERROR(file.Flush());
    return Status::OK();
  }

 private:
  std::string out_dir_;
  uint32_t num_shards_;
  std::vector<SpillFile> files_;  ///< Per (shard, table).
};

/// Copies the intra-component trades that the planning pass spilled as
/// (component, length, raw row) records into their shards' trades.csv,
/// in row order.
Status RouteIntraTrades(const std::string& path, const ShardPlan& plan,
                        SpillRouter& router, ShardManifest* manifest) {
  std::error_code ec;
  const uint64_t bytes = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in.is_open()) {
    return Status::IOError(path + ": cannot reopen spill");
  }
  uint64_t rows = 0;
  uint32_t head[2];
  std::string raw;
  while (in.read(reinterpret_cast<char*>(head), sizeof(head))) {
    if (head[0] >= plan.num_components || head[1] > bytes) {
      return Status::Corruption(path + ": trade spill damaged");
    }
    raw.resize(head[1]);
    if (!in.read(raw.data(), head[1])) {
      return Status::Corruption(path + ": trade spill damaged");
    }
    const uint32_t shard = plan.component_shard[head[0]];
    ++manifest->shards[shard].trade_rows;
    TPIIN_RETURN_IF_ERROR(router.Append(shard, DatasetTable::kTrades, raw));
    ++rows;
  }
  if (in.bad() || in.gcount() != 0 ||
      rows != plan.trade_rows - plan.cross_trade_rows) {
    return Status::Corruption(path + ": trade spill damaged");
  }
  return Status::OK();
}

/// Everything of BuildShards after `out_dir` exists; the caller removes
/// the spill whether this succeeds or fails.
Result<ShardManifest> BuildThroughSpill(const std::string& data_dir,
                                        const std::string& out_dir,
                                        const ShardBuildOptions& options,
                                        uint32_t threads,
                                        RunReport* report) {
  const std::string spill_dir = out_dir + "/spill";
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) return Status::IOError(spill_dir + ": cannot create directory");

  // --- Pass 1: plan. Its trade scan is the build's only read of
  // trades.csv: cross-component pairs go to the cross spill as two
  // global company ids, and intra-component rows go, with their
  // component, to a side spill that route copies into the shards.
  WallTimer timer;
  SpillFile cross_spill(spill_dir + "/cross_trades.bin",
                        options.spill_buffer_bytes);
  SpillFile intra_spill(spill_dir + "/intra_trades.bin",
                        options.spill_buffer_bytes);
  TPIIN_RETURN_IF_ERROR(cross_spill.Create());
  TPIIN_RETURN_IF_ERROR(intra_spill.Create());
  ShardPlanOptions plan_options;
  plan_options.num_shards = options.num_shards;
  plan_options.trade_sink = [&](const PlannedTrade& trade) -> Status {
    if (trade.cross) {
      const uint32_t pair[2] = {trade.seller, trade.buyer};
      return cross_spill.Append(BytesOf(pair));
    }
    if (trade.raw.size() > UINT32_MAX) {
      return Status::Corruption("trade row of " +
                                std::to_string(trade.raw.size()) + " bytes");
    }
    const uint32_t head[2] = {trade.component,
                              static_cast<uint32_t>(trade.raw.size())};
    TPIIN_RETURN_IF_ERROR(intra_spill.Append(BytesOf(head)));
    return intra_spill.Append(trade.raw);
  };
  TPIIN_ASSIGN_OR_RETURN(ShardPlan plan, PlanShards(data_dir, plan_options));
  TPIIN_RETURN_IF_ERROR(cross_spill.Flush());
  TPIIN_RETURN_IF_ERROR(intra_spill.Flush());
  if (report != nullptr) report->AddStage("shard_plan", timer.ElapsedSeconds());

  ShardManifest manifest;
  manifest.num_shards = options.num_shards;
  manifest.num_persons = plan.num_persons;
  manifest.num_companies = plan.num_companies;
  manifest.trade_rows = plan.trade_rows;
  manifest.cross_trade_rows = plan.cross_trade_rows;
  manifest.shards.resize(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    manifest.shards[s].shard = s;
  }

  // --- Pass 2: route raw rows (verbatim — per-shard loads then remap
  // ids in global row order, which is what keeps every shard-local
  // structure an order-preserving restriction of the global one). Each
  // row first passes LoadDatasetCsv's value checks, so value damage
  // fails here, at the input table and line, before any shard exists.
  timer.Restart();
  // Global company ids routed to each shard, in row order: becomes the
  // shard's .gids sidecar and the local->global base of cross dedup.
  std::vector<std::vector<uint32_t>> shard_gids(options.num_shards);
  {
    TPIIN_SPAN("shard_route");
    SpillRouter router(out_dir, options.num_shards,
                       options.spill_buffer_bytes);
    TPIIN_RETURN_IF_ERROR(router.Init());
    // The same strict ingest as the planning pass: the two passes must
    // agree row for row.
    const IngestOptions strict;
    LoadReport route_report;
    IngestSink sink(strict, &route_report);
    DatasetRowValues values;
    // Routes each row of `table` to the shard `shard_of(row, cls)`
    // names.
    auto route = [&](DatasetTable table, auto shard_of) -> Status {
      return ScanDatasetTable(
          data_dir, table, sink,
          [&](const CsvRow& row, const char** cls) -> Status {
            TPIIN_ASSIGN_OR_RETURN(uint32_t shard, shard_of(row, cls));
            TPIIN_RETURN_IF_ERROR(
                CheckDatasetRowValues(table, row, cls, &values));
            return router.Append(shard, table, row.raw);
          });
    };
    const EntityIdIndex& persons = plan.person_index;
    const EntityIdIndex& companies = plan.company_index;
    uint64_t person_row = 0;
    TPIIN_RETURN_IF_ERROR(route(
        DatasetTable::kPersons,
        [&](const CsvRow&, const char**) -> Result<uint32_t> {
          const uint32_t shard = plan.ShardOfPersonRow(person_row++);
          ++manifest.shards[shard].persons;
          return shard;
        }));
    uint32_t company_row = 0;
    TPIIN_RETURN_IF_ERROR(route(
        DatasetTable::kCompanies,
        [&](const CsvRow&, const char**) -> Result<uint32_t> {
          const uint32_t shard = plan.ShardOfCompanyRow(company_row);
          ++manifest.shards[shard].companies;
          shard_gids[shard].push_back(company_row++);
          return shard;
        }));
    // A relation row goes with its first endpoint; plan resolved both.
    auto by_person = [&](const CsvRow& row,
                         const char** cls) -> Result<uint32_t> {
      TPIIN_ASSIGN_OR_RETURN(uint32_t p,
                             persons.Resolve(row.fields[0], "person", cls));
      return plan.ShardOfPersonRow(p);
    };
    TPIIN_RETURN_IF_ERROR(route(DatasetTable::kInterdependence, by_person));
    TPIIN_RETURN_IF_ERROR(route(DatasetTable::kInfluence, by_person));
    TPIIN_RETURN_IF_ERROR(route(
        DatasetTable::kInvestment,
        [&](const CsvRow& row, const char** cls) -> Result<uint32_t> {
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t c, companies.Resolve(row.fields[0], "company", cls));
          return plan.ShardOfCompanyRow(c);
        }));
    // Cross-component trades cannot be suspicious (no common antecedent)
    // and are never routed; only their deduplicated arc count is owed to
    // the merged report.
    TPIIN_RETURN_IF_ERROR(
        RouteIntraTrades(intra_spill.path(), plan, router, &manifest));
    TPIIN_RETURN_IF_ERROR(router.FlushAll());
  }
  if (report != nullptr) {
    report->AddStage("shard_route", timer.ElapsedSeconds());
  }

  // --- Pass 3: load, fuse, snapshot one shard at a time. Peak RSS from
  // here on is the largest single shard, which is the point.
  timer.Restart();
  // Global company id -> smallest global company id in its TPIIN node
  // (identity unless an investment SCC merged several companies): the
  // node-level key that makes cross-trade dedup agree with the
  // TpiinBuilder's per-arc dedup in the unsharded run.
  std::vector<uint32_t> company_rep(plan.num_companies);
  for (uint32_t c = 0; c < plan.num_companies; ++c) company_rep[c] = c;

  for (uint32_t s = 0; s < options.num_shards; ++s) {
    ShardEntry& entry = manifest.shards[s];
    if (entry.persons == 0 && entry.companies == 0) {
      entry.empty = true;
      continue;
    }
    entry.empty = false;
    TPIIN_FAILPOINT("shard.fuse");
    TPIIN_ASSIGN_OR_RETURN(RawDataset dataset,
                           LoadDatasetCsv(SpillDirOf(out_dir, s)));
    FusionOptions fusion;
    fusion.num_threads = threads;
    TPIIN_ASSIGN_OR_RETURN(FusionOutput fused, BuildTpiin(dataset, fusion));
    const Tpiin& net = fused.tpiin;

    const std::string snapshot_path =
        out_dir + "/" + ExpandShardPath(manifest.path_template, s);
    SnapshotWriteOptions write_options;
    write_options.include_wcc_index = options.include_wcc_index;
    TPIIN_RETURN_IF_ERROR(WriteSnapshot(net, snapshot_path, write_options));
    TPIIN_RETURN_IF_ERROR(
        WriteShardGids(snapshot_path + ".gids", shard_gids[s]));

    entry.nodes = net.NumNodes();
    entry.arcs = net.NumArcs();
    entry.influence_arcs = net.num_influence_arcs();
    entry.trading_arcs = net.num_trading_arcs();
    entry.intra_trades = net.intra_syndicate_trades().size();
    entry.snapshot_bytes = std::filesystem::file_size(snapshot_path, ec);
    if (ec) entry.snapshot_bytes = 0;

    // Node-level representative per local company; gids are increasing,
    // so the minimum local member is the minimum global member.
    const std::vector<uint32_t>& gids = shard_gids[s];
    std::vector<uint32_t> node_min(net.NumNodes(), UINT32_MAX);
    for (uint32_t lc = 0; lc < gids.size(); ++lc) {
      const NodeId node = net.NodeOfCompany(lc);
      node_min[node] = std::min(node_min[node], lc);
    }
    for (uint32_t lc = 0; lc < gids.size(); ++lc) {
      company_rep[gids[lc]] = gids[node_min[net.NodeOfCompany(lc)]];
    }
    SampleRssGauges();
  }

  // --- Cross-trade dedup at node granularity.
  {
    const std::string& cross_path = cross_spill.path();
    std::ifstream cross(cross_path, std::ios::binary);
    if (!cross.is_open()) {
      return Status::IOError(cross_path + ": cannot reopen spill");
    }
    std::vector<uint64_t> keys;
    keys.reserve(plan.cross_trade_rows);
    uint32_t pair[2];
    while (cross.read(reinterpret_cast<char*>(pair), sizeof(pair))) {
      keys.push_back(
          (static_cast<uint64_t>(company_rep[pair[0]]) << 32) |
          company_rep[pair[1]]);
    }
    if (cross.bad() || keys.size() != plan.cross_trade_rows) {
      return Status::Corruption(cross_path + ": cross spill damaged");
    }
    std::sort(keys.begin(), keys.end());
    manifest.cross_trade_pairs =
        std::unique(keys.begin(), keys.end()) - keys.begin();
  }

  // Manifest last: a crash anywhere above leaves completed shard
  // snapshots (each internally CRC'd) but no manifest, so readers see
  // "no sharded build here" rather than a torn one.
  TPIIN_RETURN_IF_ERROR(
      WriteShardManifest(out_dir + "/" + kShardManifestName, manifest));
  if (report != nullptr) {
    report->AddStage("shard_fuse", timer.ElapsedSeconds());
    ReportSection& section = report->Section("shard");
    section.Set("num_shards", static_cast<int64_t>(manifest.num_shards));
    section.Set("components", static_cast<int64_t>(plan.num_components));
    section.Set("persons", static_cast<int64_t>(manifest.num_persons));
    section.Set("companies", static_cast<int64_t>(manifest.num_companies));
    section.Set("trade_rows", static_cast<int64_t>(manifest.trade_rows));
    section.Set("cross_trade_rows",
                static_cast<int64_t>(manifest.cross_trade_rows));
    section.Set("cross_trade_pairs",
                static_cast<int64_t>(manifest.cross_trade_pairs));
    uint64_t max_weight = 0;
    for (uint64_t w : plan.shard_weight) max_weight = std::max(max_weight, w);
    section.Set("max_shard_weight", static_cast<int64_t>(max_weight));
  }
  return manifest;
}

}  // namespace

Result<ShardManifest> BuildShards(const std::string& data_dir,
                                  const std::string& out_dir,
                                  const ShardBuildOptions& options,
                                  RunReport* report) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  const uint32_t threads = ResolveThreadCount(options.num_threads);
  if (report != nullptr) report->set_threads(threads);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return Status::IOError(out_dir + ": cannot create directory");
  Result<ShardManifest> manifest =
      BuildThroughSpill(data_dir, out_dir, options, threads, report);
  // The spill holds about a copy of the input: it goes once the manifest
  // commits, and on every failure too.
  if (!options.keep_spill) std::filesystem::remove_all(out_dir + "/spill", ec);
  return manifest;
}

}  // namespace tpiin
