// Self-checks of the benchmark's own machinery: the percentile rule, the
// reference kernels against src/baseline/, and that a corrupted output is
// caught.
#pragma once

#include <string>

namespace perfbench {

/// Prints one line per check; returns 0 when all pass, 1 otherwise.
[[nodiscard]] int run_self_test(const std::string& designs_dir);

}  // namespace perfbench
