#include "datagen/province.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/stream.h"
#include "io/dataset_csv.h"

namespace tpiin {

namespace {

// LP-eligible reduced role subclasses (§4.1): everything except the bare
// Director.
constexpr PersonRoles kLpRolePool[] = {
    kRoleCeo,
    static_cast<PersonRoles>(kRoleCeo | kRoleDirector),
    static_cast<PersonRoles>(kRoleCeo | kRoleChairman),
    static_cast<PersonRoles>(kRoleDirector | kRoleChairman),
    kRoleChairman,
    static_cast<PersonRoles>(kRoleCeo | kRoleDirector | kRoleChairman),
};

// Director role pool; the Shareholder flag exercises the 15->7 reduction.
constexpr PersonRoles kDirectorRolePool[] = {
    kRoleDirector,
    static_cast<PersonRoles>(kRoleDirector | kRoleShareholder),
    kRoleShareholder,
};

InfluenceKind InfluenceKindForRoles(PersonRoles roles) {
  PersonRoles reduced = ReduceRoles(roles);
  if ((reduced & kRoleCeo) && (reduced & kRoleDirector)) {
    return InfluenceKind::kCeoAndDirectorOf;
  }
  if (reduced & kRoleCeo) return InfluenceKind::kCeoOf;
  if (reduced & kRoleChairman) return InfluenceKind::kChairmanOf;
  return InfluenceKind::kDirectorOf;
}

// Proportional allocation of `total` items over `weights` with the
// largest-remainder method; every bucket gets at least `minimum`.
std::vector<uint32_t> Apportion(const std::vector<uint32_t>& weights,
                                uint32_t total, uint32_t minimum) {
  const size_t n = weights.size();
  std::vector<uint32_t> out(n, minimum);
  TPIIN_CHECK_GE(total, minimum * n);
  uint32_t remaining = total - minimum * static_cast<uint32_t>(n);
  double weight_sum = 0;
  for (uint32_t w : weights) weight_sum += w;
  std::vector<std::pair<double, size_t>> remainders(n);
  uint32_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    double exact = weight_sum == 0
                       ? static_cast<double>(remaining) / n
                       : remaining * (weights[i] / weight_sum);
    uint32_t whole = static_cast<uint32_t>(exact);
    out[i] += whole;
    assigned += whole;
    remainders[i] = {exact - whole, i};
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (uint32_t k = 0; k < remaining - assigned; ++k) {
    ++out[remainders[k % n].second];
  }
  return out;
}

// Calls emit(seller, buyer) for every trade of the directed Erdos-Renyi
// layer over `num_companies`, in slot order.
template <typename Emit>
void EmitTrades(uint32_t num_companies, double p, Rng& rng, Emit&& emit) {
  if (num_companies < 2 || p <= 0.0) return;
  const uint64_t n = num_companies;
  const uint64_t slots = n * (n - 1);
  auto emit_slot = [&](uint64_t s) {
    const uint32_t i = static_cast<uint32_t>(s / (n - 1));
    const uint64_t r = s % (n - 1);
    emit(i, static_cast<uint32_t>(r < i ? r : r + 1));
  };
  if (p >= 1.0) {
    for (uint64_t s = 0; s < slots; ++s) emit_slot(s);
    return;
  }
  // Geometric skipping: jump over non-edges so cost is O(p * n^2), not
  // O(n^2) Bernoulli draws (matters for the twenty-way Table 1 sweep).
  const double log1mp = std::log1p(-p);
  double pos = -1;
  while (true) {
    double u = rng.UniformDouble();
    if (u <= 0) u = 1e-300;
    pos += 1 + std::floor(std::log(u) / log1mp);
    if (pos >= static_cast<double>(slots)) break;
    emit_slot(static_cast<uint64_t>(pos));
  }
}

// The business groups of a province: their company counts, and the legal
// persons (at least one each) and directors apportioned to them. Group g
// owns companies [company_base[g], company_base[g + 1]) and persons
// [person_base[g], person_base[g + 1]), its legal persons first.
struct GroupLayout {
  std::vector<uint32_t> sizes;
  std::vector<uint32_t> lp_count;
  std::vector<uint32_t> dir_count;
  std::vector<uint32_t> person_base;
  std::vector<uint32_t> company_base;

  size_t num_groups() const { return sizes.size(); }
};

// First draws of a province: the configured large groups, then small
// groups of 1..small_group_max companies until the population is
// exhausted. Fails before anything is emitted when the population
// constraints are unsatisfiable.
Result<GroupLayout> DrawGroups(const ProvinceConfig& config, Rng& rng) {
  if (config.num_companies == 0) {
    return Status::InvalidArgument("num_companies must be positive");
  }
  GroupLayout layout;
  std::vector<uint32_t>& sizes = layout.sizes;
  uint32_t used = 0;
  for (uint32_t s : config.large_group_sizes) {
    if (s > config.num_companies - used) break;  // No uint32 wrap.
    sizes.push_back(s);
    used += s;
  }
  while (used < config.num_companies) {
    uint32_t s = static_cast<uint32_t>(
        rng.UniformInt(1, std::max<uint32_t>(1, config.small_group_max)));
    s = std::min(s, config.num_companies - used);
    sizes.push_back(s);
    used += s;
  }
  const size_t num_groups = sizes.size();
  if (config.num_legal_persons < num_groups) {
    return Status::InvalidArgument(StringPrintf(
        "%u legal persons cannot cover %zu business groups (each needs "
        "at least one)",
        config.num_legal_persons, num_groups));
  }
  layout.lp_count = Apportion(sizes, config.num_legal_persons,
                              /*minimum=*/1);
  layout.dir_count = Apportion(sizes, config.num_directors, /*minimum=*/0);
  layout.person_base.assign(num_groups + 1, 0);
  layout.company_base.assign(num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    layout.person_base[g + 1] =
        layout.person_base[g] + layout.lp_count[g] + layout.dir_count[g];
    layout.company_base[g + 1] = layout.company_base[g] + sizes[g];
  }
  return layout;
}

// The province generator: draws every row after the group layout and
// emits it into `sink` (a RawDataset or a DatasetCsvWriter) as it is
// drawn. It keeps only the role of each person, never reading back from
// the sink, so streaming a province to disk costs O(persons + groups).
template <typename Sink>
void EmitProvince(const ProvinceConfig& config, const GroupLayout& layout,
                  Rng& rng, Sink& sink) {
  const size_t num_groups = layout.num_groups();
  const std::vector<uint32_t>& lp_count = layout.lp_count;
  const std::vector<uint32_t>& dir_count = layout.dir_count;
  const std::vector<uint32_t>& person_base = layout.person_base;
  const std::vector<uint32_t>& company_base = layout.company_base;

  // --- Persons and companies, group by group.
  std::vector<PersonRoles> person_roles(person_base[num_groups]);
  PersonId person = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    for (uint32_t k = 0; k < lp_count[g]; ++k, ++person) {
      person_roles[person] =
          kLpRolePool[rng.UniformU64(std::size(kLpRolePool))];
      sink.AddPerson(StringPrintf("L%04zu", static_cast<size_t>(person)),
                     person_roles[person]);
    }
    for (uint32_t k = 0; k < dir_count[g]; ++k, ++person) {
      person_roles[person] =
          kDirectorRolePool[rng.UniformU64(std::size(kDirectorRolePool))];
      sink.AddPerson(StringPrintf("B%04zu", static_cast<size_t>(person)),
                     person_roles[person]);
    }
  }
  for (uint32_t c = 0; c < config.num_companies; ++c) {
    sink.AddCompany(StringPrintf("C%04zu", static_cast<size_t>(c)));
  }

  // --- Per group: the intra-group investment DAG first (later companies
  // receive capital from earlier ones; index order is the topological
  // order, so no cycles), then legal persons — subsidiaries preferentially
  // reuse their investor's LP, which is how real holding structures give
  // one person syndicate both a direct arc and an investment-chain path
  // to the same company — then extra directors.
  for (size_t g = 0; g < num_groups; ++g) {
    const uint32_t group_size = layout.sizes[g];
    const uint32_t cbase = company_base[g];
    const uint32_t lp_base = person_base[g];
    const uint32_t dir_base = lp_base + lp_count[g];

    std::vector<int64_t> primary_investor(group_size, -1);
    for (size_t i = 1; i < group_size; ++i) {
      if (!rng.Bernoulli(config.investment_arc_prob)) continue;
      size_t investor = rng.UniformU64(i);
      primary_investor[i] = static_cast<int64_t>(investor);
      sink.AddInvestment(cbase + static_cast<uint32_t>(investor),
                         cbase + static_cast<uint32_t>(i),
                         rng.UniformDouble(0.51, 1.0));
      if (i >= 2 && rng.Bernoulli(config.second_investor_prob)) {
        size_t second = rng.UniformU64(i);
        if (second != investor) {
          sink.AddInvestment(cbase + static_cast<uint32_t>(second),
                             cbase + static_cast<uint32_t>(i),
                             rng.UniformDouble(0.1, 0.49));
        }
      }
    }

    std::vector<PersonId> lp_of(group_size);
    for (size_t i = 0; i < group_size; ++i) {
      CompanyId c = cbase + static_cast<uint32_t>(i);
      PersonId lp;
      if (primary_investor[i] >= 0 &&
          rng.Bernoulli(config.lp_follow_investor_prob)) {
        lp = lp_of[static_cast<size_t>(primary_investor[i])];
      } else {
        lp = lp_base + static_cast<uint32_t>(rng.UniformU64(lp_count[g]));
      }
      lp_of[i] = lp;
      sink.AddInfluence(lp, c, InfluenceKindForRoles(person_roles[lp]),
                        /*is_legal_person=*/true);
      if (dir_count[g] > 0) {
        // 0, 1 or 2 director links; sum of two Bernoulli(mean/2) draws
        // has expectation exactly `mean`.
        double half = config.director_links_per_company / 2.0;
        uint32_t k = (rng.Bernoulli(half) ? 1u : 0u) +
                     (rng.Bernoulli(half) ? 1u : 0u);
        k = std::min<uint32_t>(k, dir_count[g]);
        std::vector<uint64_t> picks =
            rng.SampleWithoutReplacement(dir_count[g], k);
        for (uint64_t pick : picks) {
          sink.AddInfluence(dir_base + static_cast<uint32_t>(pick), c,
                            InfluenceKind::kDirectorOf,
                            /*is_legal_person=*/false);
        }
      }
    }
  }

  // --- Interdependence chains within each group's person pool.
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<PersonId> pool(person_base[g + 1] - person_base[g]);
    for (size_t i = 0; i < pool.size(); ++i) {
      pool[i] = person_base[g] + static_cast<uint32_t>(i);
    }
    rng.Shuffle(pool);
    for (size_t i = 1; i < pool.size(); ++i) {
      if (!rng.Bernoulli(config.person_chain_link_prob)) continue;
      InterdependenceKind kind = rng.Bernoulli(config.kinship_fraction)
                                     ? InterdependenceKind::kKinship
                                     : InterdependenceKind::kInterlocking;
      sink.AddInterdependence(pool[i - 1], pool[i], kind);
    }
  }

  // --- Cross-group kinship links.
  if (num_groups >= 2) {
    for (uint32_t k = 0; k < config.cross_group_person_links; ++k) {
      size_t ga = rng.UniformU64(num_groups);
      size_t gb = rng.UniformU64(num_groups);
      if (ga == gb || lp_count[ga] == 0 || lp_count[gb] == 0) continue;
      // Draw both endpoints in named locals: argument evaluation order
      // is unspecified, and the RNG sequence must not depend on it.
      PersonId a = person_base[ga] +
                   static_cast<uint32_t>(rng.UniformU64(lp_count[ga]));
      PersonId b = person_base[gb] +
                   static_cast<uint32_t>(rng.UniformU64(lp_count[gb]));
      sink.AddInterdependence(a, b, InterdependenceKind::kKinship);
    }
  }

  // --- Optional investment cycles (strongly connected shareholding
  // circles) for SCC-contraction coverage. The forward arcs of a ring over
  // three consecutive members may duplicate tree arcs, which fusion
  // dedups.
  uint32_t cycles_added = 0;
  for (size_t g = 0;
       g < num_groups && cycles_added < config.num_investment_cycles; ++g) {
    if (layout.sizes[g] < 3) continue;
    uint32_t base = company_base[g] +
                    static_cast<uint32_t>(rng.UniformU64(layout.sizes[g] - 2));
    sink.AddInvestment(base, base + 1, 0.6);
    sink.AddInvestment(base + 1, base + 2, 0.6);
    sink.AddInvestment(base + 2, base, 0.6);
    ++cycles_added;
  }

  // --- Trading layer.
  if (config.generate_trading) {
    EmitTrades(config.num_companies, config.trading_probability, rng,
               [&](CompanyId seller, CompanyId buyer) {
                 sink.AddTrade(seller, buyer);
               });
  }
}

}  // namespace

ProvinceConfig SmallProvinceConfig(uint32_t num_companies, uint64_t seed) {
  ProvinceConfig config;
  config.seed = seed;
  config.num_companies = num_companies;
  config.num_legal_persons = std::max<uint32_t>(2, num_companies / 2);
  config.num_directors = std::max<uint32_t>(1, num_companies / 3);
  config.large_group_sizes.clear();
  if (num_companies >= 12) {
    config.large_group_sizes = {num_companies / 4, num_companies / 6};
  }
  config.cross_group_person_links = num_companies >= 20 ? 2 : 0;
  return config;
}

ProvinceConfig PaperProvinceConfig(uint64_t seed) {
  ProvinceConfig config;
  config.seed = seed;
  return config;
}

ProvinceConfig ScaleConfig(const ProvinceConfig& base, double factor) {
  TPIIN_CHECK(factor > 0) << "scale factor must be positive";
  ProvinceConfig config = base;
  if (factor == 1.0) return config;
  config.num_companies = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             std::llround(base.num_companies * factor)));
  config.num_legal_persons = std::max<uint32_t>(
      4, static_cast<uint32_t>(base.num_legal_persons * factor));
  config.num_directors = std::max<uint32_t>(
      2, static_cast<uint32_t>(base.num_directors * factor));
  config.large_group_sizes.clear();
  if (factor < 1.0) {
    for (uint32_t s : base.large_group_sizes) {
      config.large_group_sizes.push_back(
          std::max<uint32_t>(4, static_cast<uint32_t>(s * factor)));
    }
  } else {
    // Tile: `whole` full copies of the base list keep every group at its
    // base size; the fractional remainder adds one shrunken copy.
    const uint32_t whole = static_cast<uint32_t>(factor);
    const double remainder = factor - whole;
    for (uint32_t copy = 0; copy < whole; ++copy) {
      config.large_group_sizes.insert(config.large_group_sizes.end(),
                                      base.large_group_sizes.begin(),
                                      base.large_group_sizes.end());
    }
    if (remainder > 0) {
      for (uint32_t s : base.large_group_sizes) {
        uint32_t scaled = static_cast<uint32_t>(s * remainder);
        if (scaled >= 4) config.large_group_sizes.push_back(scaled);
      }
    }
  }
  // Tiling may overshoot a small company budget; drop whole groups from
  // the tail until the list fits (GenerateProvince would otherwise stop
  // consuming the list at the first group that no longer fits).
  uint64_t used = 0;
  size_t kept = 0;
  for (uint32_t s : config.large_group_sizes) {
    if (used + s > config.num_companies) break;
    used += s;
    ++kept;
  }
  config.large_group_sizes.resize(kept);
  return config;
}

std::vector<TradeRecord> GenerateTradingNetwork(uint32_t num_companies,
                                                double p, Rng& rng) {
  std::vector<TradeRecord> trades;
  EmitTrades(num_companies, p, rng, [&](CompanyId seller, CompanyId buyer) {
    trades.push_back(TradeRecord{seller, buyer});
  });
  return trades;
}

Result<Province> GenerateProvince(const ProvinceConfig& config) {
  Rng rng(config.seed);
  TPIIN_ASSIGN_OR_RETURN(GroupLayout layout, DrawGroups(config, rng));
  Province province;
  EmitProvince(config, layout, rng, province.dataset);
  province.groups.resize(layout.num_groups());
  for (size_t g = 0; g < layout.num_groups(); ++g) {
    for (CompanyId c = layout.company_base[g]; c < layout.company_base[g + 1];
         ++c) {
      province.groups[g].push_back(c);
    }
  }
  TPIIN_RETURN_IF_ERROR(province.dataset.Validate());
  return province;
}

Result<StreamStats> StreamProvinceCsv(const ProvinceConfig& config,
                                      const std::string& directory) {
  Rng rng(config.seed);
  TPIIN_ASSIGN_OR_RETURN(GroupLayout layout, DrawGroups(config, rng));
  DatasetCsvWriter writer(directory);
  EmitProvince(config, layout, rng, writer);
  TPIIN_RETURN_IF_ERROR(writer.Close());
  StreamStats stats;
  stats.num_groups = layout.num_groups();
  stats.persons = writer.rows(DatasetTable::kPersons);
  stats.companies = writer.rows(DatasetTable::kCompanies);
  stats.interdependence = writer.rows(DatasetTable::kInterdependence);
  stats.influence = writer.rows(DatasetTable::kInfluence);
  stats.investments = writer.rows(DatasetTable::kInvestment);
  stats.trades = writer.rows(DatasetTable::kTrades);
  return stats;
}

}  // namespace tpiin
