#ifndef TPIIN_DATAGEN_STREAM_H_
#define TPIIN_DATAGEN_STREAM_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "datagen/config.h"

namespace tpiin {

/// Row counts of a streamed province, for manifests and logs.
struct StreamStats {
  uint64_t num_groups = 0;
  uint64_t persons = 0;
  uint64_t companies = 0;
  uint64_t interdependence = 0;
  uint64_t influence = 0;
  uint64_t investments = 0;
  uint64_t trades = 0;
};

/// Streams the synthetic province of `config` directly into the six CSV
/// tables under `directory` (which must exist) without ever holding the
/// dataset in memory — the out-of-core path for populations 100×–1000×
/// the paper's, where GenerateProvince + SaveDatasetCsv would cost
/// O(population) RSS just to produce the input.
///
/// Output is byte-identical to SaveDatasetCsv(GenerateProvince(config))
/// for every config (one generator body emits into a RawDataset or a
/// DatasetCsvWriter; tests/datagen/stream_test.cc gates this), so the
/// sharded and in-memory pipelines consume literally the same bytes.
/// Peak memory is O(persons + groups): one role byte per person and a
/// few offsets per business group; companies, relation rows and the
/// trading layer are emitted as they are drawn.
Result<StreamStats> StreamProvinceCsv(const ProvinceConfig& config,
                                      const std::string& directory);

}  // namespace tpiin

#endif  // TPIIN_DATAGEN_STREAM_H_
