#include "fingerprint.h"

#include <sstream>
#include <thread>

#include "check/check.h"

#ifndef IOTBENCH_BUILD_TYPE
#define IOTBENCH_BUILD_TYPE ""
#endif
// Set by the benchmark's CMakeLists.txt when CMAKE_CXX_FLAGS carries a
// -fsanitize option (UBSan defines no macro of its own under GCC).
#ifndef IOTBENCH_SANITIZE_FLAGS
#define IOTBENCH_SANITIZE_FLAGS ""
#endif

namespace iotbench {

namespace {

std::string compiled_sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(memory_sanitizer)
  return "memory";
#endif
#endif
  return IOTBENCH_SANITIZE_FLAGS;
}

}  // namespace

Fingerprint fingerprint() {
  Fingerprint fp;
  fp.cores = std::thread::hardware_concurrency();
#if defined(__clang__)
  fp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = "gcc " __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = IOTBENCH_BUILD_TYPE;
  fp.checks = IOTSIM_CHECKS_ENABLED != 0;
  fp.sanitizer = compiled_sanitizer();
  return fp;
}

std::string refusal_reason(const Fingerprint& fp) {
  if (fp.checks) return "IOTSIM_CHECKS is compiled in (a checks-on or Debug build)";
  if (!fp.sanitizer.empty()) return "a sanitizer is compiled in (" + fp.sanitizer + ")";
  return {};
}

std::string to_json(const Fingerprint& fp) {
  std::ostringstream out;
  out << "{\"cores\": " << fp.cores << ", \"compiler\": \"" << fp.compiler
      << "\", \"build_type\": \"" << fp.build_type << "\", \"iotsim_checks\": "
      << (fp.checks ? "true" : "false") << ", \"sanitizer\": \"" << fp.sanitizer << "\"}";
  return out.str();
}

}  // namespace iotbench
