#include "util/cache.hpp"

#include <sstream>

namespace dpoaf::util {

double CacheStats::hit_rate() const {
  const std::uint64_t lookups = hits + misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

std::string CacheStats::summary() const {
  std::ostringstream os;
  os << "hits=" << hits << " misses=" << misses << " hit_rate=";
  os.precision(1);
  os << std::fixed << hit_rate() * 100.0 << "% inserts=" << inserts
     << " evictions=" << evictions;
  return os.str();
}

}  // namespace dpoaf::util
