//===----------------------------------------------------------------------===//
///
/// \file
/// The main of every test binary (in place of gtest_main).
///
/// `--jvolve-instrumented` runs the binary's cases with telemetry on,
/// 2,000-tick stats windows and a default JSONL trace session in a
/// temporary file of this process: the streaming paths a plain run never
/// takes. ctest runs every case twice, plain and with the flag
/// (`<name>.Instrumented`, tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/Telemetry.h"
#include "support/TelemetryStream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

static bool Instrumented = false;

bool jvolve::test::instrumentedRun() { return Instrumented; }

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--jvolve-instrumented"))
      Instrumented = true;

  std::string TracePath;
  if (Instrumented) {
    TracePath = (std::filesystem::temp_directory_path() /
                 "jvolve-test-trace.XXXXXX.jsonl")
                    .string();
    int Fd = mkstemps(TracePath.data(), /*suffixlen=*/6);
    if (Fd < 0) {
      std::perror("jvolve tests: cannot create the trace file");
      return 2;
    }
    close(Fd);
    jvolve::Telemetry &Tel = jvolve::Telemetry::global();
    Tel.setEnabled(true);
    Tel.windows().configure(2'000);
    if (!Tel.openTrace(TracePath)) {
      std::fprintf(stderr, "jvolve tests: cannot open trace %s\n",
                   TracePath.c_str());
      std::remove(TracePath.c_str());
      return 2;
    }
  }

  int RC = RUN_ALL_TESTS();
  if (Instrumented) {
    jvolve::Telemetry::global().closeTrace();
    std::remove(TracePath.c_str());
  }
  return RC;
}
