// Host and build fingerprint carried by every result, and the refusal to
// report numbers from a build whose timings do not describe the program as
// shipped (runtime invariant checks or a sanitizer compiled in).
#pragma once

#include <string>

namespace iotbench {

struct Fingerprint {
  unsigned cores = 0;        // std::thread::hardware_concurrency()
  std::string compiler;      // __VERSION__
  std::string build_type;    // CMAKE_BUILD_TYPE the benchmark was built with
  bool checks = false;       // IOTSIM_CHECKS_ENABLED in the linked library
  std::string sanitizer;     // "" when none was compiled in
};

/// The fingerprint of this binary on this host.
[[nodiscard]] Fingerprint fingerprint();

/// Non-empty ⇒ why numbers from this build must not be reported.
[[nodiscard]] std::string refusal_reason(const Fingerprint& fp);

/// One-line JSON object of the fingerprint.
[[nodiscard]] std::string to_json(const Fingerprint& fp);

}  // namespace iotbench
