#ifndef FCAE_TESTS_TEST_UTIL_H_
#define FCAE_TESTS_TEST_UTIL_H_

#include <string>
#include <type_traits>

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

}  // namespace test
}  // namespace fcae

#endif  // FCAE_TESTS_TEST_UTIL_H_
