// Lightweight runtime-check macros.
//
// DRACONIS_CHECK throws draconis::CheckFailure instead of aborting so that
// unit tests can assert that a contract violation is detected (notably the
// one-register-access-per-packet guard in src/p4/). Checks stay enabled in
// all build types: the simulation is not perf-critical enough to justify
// compiling out its safety net.

#ifndef DRACONIS_COMMON_CHECK_H_
#define DRACONIS_COMMON_CHECK_H_

#include <stdexcept>
#include <string>

namespace draconis {

// Thrown when a DRACONIS_CHECK fails. Deriving from std::logic_error keeps
// the failure catchable in tests while still terminating by default.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace internal {
[[noreturn]] void CheckFailed(const char* expr, const char* file, int line,
                              const std::string& message);
// DRACONIS_CHECK's failure path: builds no std::string at the call site, so
// a check inlined into a hot function adds one cold call and no cleanup.
[[noreturn, gnu::cold]] void CheckFailed(const char* expr, const char* file, int line);
}  // namespace internal

}  // namespace draconis

#define DRACONIS_CHECK(expr)                                                    \
  do {                                                                          \
    if (!(expr)) {                                                              \
      ::draconis::internal::CheckFailed(#expr, __FILE__, __LINE__);             \
    }                                                                           \
  } while (0)

#define DRACONIS_CHECK_MSG(expr, msg)                                           \
  do {                                                                          \
    if (!(expr)) {                                                              \
      ::draconis::internal::CheckFailed(#expr, __FILE__, __LINE__, (msg));      \
    }                                                                           \
  } while (0)

#endif  // DRACONIS_COMMON_CHECK_H_
