#include "common/check.h"

#include <sstream>

namespace draconis::internal {

void CheckFailed(const char* expr, const char* file, int line, const std::string& message) {
  std::ostringstream os;
  os << "DRACONIS_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!message.empty()) {
    os << " — " << message;
  }
  throw CheckFailure(os.str());
}

void CheckFailed(const char* expr, const char* file, int line) {
  CheckFailed(expr, file, line, std::string());
}

}  // namespace draconis::internal
