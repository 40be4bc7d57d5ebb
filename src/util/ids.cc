#include "util/ids.h"

#include <ostream>

namespace bgpolicy::util {

std::string to_string(AsNumber as) { return "AS" + std::to_string(as.value()); }

std::string to_string(RouterId router) {
  // Appending (rather than `"r" + std::to_string(...)`) sidesteps a GCC 12
  // -Wrestrict false positive at -O3 that -Werror would make fatal.
  std::string out = "r";
  out += std::to_string(router.value());
  return out;
}

std::ostream& operator<<(std::ostream& os, AsNumber as) {
  return os << to_string(as);
}

std::ostream& operator<<(std::ostream& os, RouterId router) {
  return os << to_string(router);
}

}  // namespace bgpolicy::util
