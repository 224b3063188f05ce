#ifndef FCAE_TESTS_TEST_UTIL_H_
#define FCAE_TESTS_TEST_UTIL_H_

#include <string>
#include <type_traits>
#include <vector>

namespace fcae {
namespace test {

/// Concatenates strings and numbers (printed by std::to_string) by appending
/// each part to one named string. Tests build keys with it instead of
/// `"k" + std::to_string(i)`: GCC 12 reports a -Wrestrict false positive
/// (GCC bug 105329) on `const char* + std::string&&`, and the tier-1
/// build treats warnings as errors.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  const auto append = [&out](const auto& part) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(part)>>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (append(parts), ...);
  return out;
}

/// One instrument of src/obs/instruments.def as the registry exports it.
struct Instrument {
  std::string section;  // "counters" | "gauges" | "histograms"
  std::string name;
};

/// Every fixed instrument the list declares, in list order.
inline std::vector<Instrument> DeclaredInstruments() {
  return {
#define FCAE_COUNTER(member, name) {"counters", name},
#define FCAE_GAUGE(member, name) {"gauges", name},
#define FCAE_HISTOGRAM(member, name) {"histograms", name},
#include "obs/instruments.def"
  };
}

/// Card `n`'s instruments, `<layer>.card<n>.<member>`.
inline std::vector<Instrument> CardInstrumentNames(int n) {
  return {
#define FCAE_CARD_COUNTER(member, layer) \
  {"counters", Cat(layer, ".card", n, ".", #member)},
#define FCAE_CARD_GAUGE(member, layer) \
  {"gauges", Cat(layer, ".card", n, ".", #member)},
#include "obs/instruments.def"
  };
}

}  // namespace test
}  // namespace fcae

#endif  // FCAE_TESTS_TEST_UTIL_H_
