#include "engine/portfolio.hpp"

#include <algorithm>

#include "engine/fingerprint.hpp"
#include "partition/partitioner.hpp"
#include "support/strings.hpp"

namespace ppnpart::engine {

Portfolio Portfolio::defaults() {
  return Portfolio{{"gp", "metislike", "tabu"}};
}

support::Result<Portfolio> Portfolio::parse(const std::string& spec) {
  if (spec.empty() || spec == "default") return defaults();
  const std::vector<std::string> names = part::partitioner_names();
  Portfolio p;
  for (const std::string& raw : support::split(spec, ',')) {
    std::string name = raw;
    name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
    if (name.empty()) continue;
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      return support::Status::error(
          support::StatusCode::kInvalidArgument,
          "unknown portfolio member '" + name + "' (see partitioner_names())");
    }
    p.members.push_back(std::move(name));
  }
  if (p.members.empty())
    return support::Status::error(support::StatusCode::kInvalidArgument,
                                  "portfolio spec names no algorithms");
  return p;
}

std::uint64_t Portfolio::fingerprint() const {
  std::uint64_t h = 0x706f7274666f6c69ull;  // "portfoli"
  for (const std::string& m : members) h = hash_string(h, m);
  return h;
}

std::string Portfolio::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ',';
    out += members[i];
  }
  return out;
}

}  // namespace ppnpart::engine
