// Exports the provincial network layers as Graphviz DOT and Gephi GEXF
// files — the renderable counterparts of the paper's Figs. 11-16 (the
// authors rendered theirs with Gephi). Run, then e.g.:
//
//   dot -Tsvg /tmp/tpiin_figs/g1_interdependence.dot > g1.svg
//   gephi /tmp/tpiin_figs/tpiin.gexf
//
// Flags: --companies=N (default 120), --p=X (default 0.01), --seed=S,
//        --out=DIR (default /tmp/tpiin_figs)

#include <cstdio>
#include <filesystem>

#include "common/flags.h"
#include "common/logging.h"
#include "datagen/province.h"
#include "fusion/layers.h"
#include "fusion/pipeline.h"
#include "io/dot_export.h"
#include "io/gexf_export.h"

namespace tpiin {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.DefineInt64("companies", 120, "number of companies to simulate");
  flags.DefineDouble("p", 0.01, "trading probability");
  flags.DefineInt64("seed", 7, "RNG seed");
  flags.DefineString("out", "/tmp/tpiin_figs", "output directory");
  Status parse = flags.Parse(argc, argv);
  if (!parse.ok()) {
    std::fprintf(stderr, "%s\n%s", parse.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  const std::string out = flags.GetString("out");
  std::filesystem::create_directories(out);

  ProvinceConfig config = SmallProvinceConfig(
      static_cast<uint32_t>(flags.GetInt64("companies")),
      static_cast<uint64_t>(flags.GetInt64("seed")));
  config.trading_probability = flags.GetDouble("p");
  Result<Province> province = GenerateProvince(config);
  TPIIN_CHECK(province.ok()) << province.status().ToString();
  const RawDataset& data = province->dataset;

  std::vector<std::string> person_labels;
  for (const Person& p : data.persons()) person_labels.push_back(p.name);
  std::vector<std::string> company_labels;
  for (const Company& c : data.companies()) {
    company_labels.push_back(c.name);
  }
  std::vector<std::string> mixed_labels = person_labels;
  const NodeId num_persons = static_cast<NodeId>(person_labels.size());
  const NodeId num_companies = static_cast<NodeId>(company_labels.size());
  mixed_labels.insert(mixed_labels.end(), company_labels.begin(),
                      company_labels.end());

  auto save = [&](const std::string& name, const std::string& contents) {
    Status status = WriteStringToFile(out + "/" + name, contents);
    TPIIN_CHECK(status.ok()) << status.ToString();
    std::printf("  wrote %s/%s\n", out.c_str(), name.c_str());
  };

  std::printf("Exporting the network layers (Figs. 11-16):\n");
  save("g1_interdependence.dot",
       LayerToDot(num_persons, BuildInterdependenceGraph(data), person_labels,
                  "G1"));
  save("g2_influence.dot",
       LayerToDot(num_persons + num_companies, BuildInfluenceLayerGraph(data),
                  mixed_labels, "G2"));
  save("g3_investment.dot",
       LayerToDot(num_companies, BuildInvestmentGraph(data), company_labels,
                  "G3"));
  save("g4_trading.dot",
       LayerToDot(num_companies, BuildTradingGraph(data), company_labels,
                  "G4"));

  Result<FusionOutput> fused = BuildTpiin(data);
  TPIIN_CHECK(fused.ok()) << fused.status().ToString();
  save("tpiin.dot", TpiinToDot(fused->tpiin, "TPIIN"));
  save("tpiin.gexf", TpiinToGexf(fused->tpiin));

  std::printf("\nFusion summary:\n%s\n", fused->stats.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace tpiin

int main(int argc, char** argv) { return tpiin::Run(argc, argv); }
