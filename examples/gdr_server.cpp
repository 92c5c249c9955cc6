// Repair-as-a-service over stdin/stdout: a SessionManager multiplexing any
// number of concurrent repair sessions (one per <tenant> <session> pair)
// behind the line protocol of src/server/protocol.h. Sessions exceeding
// the memory budget are snapshotted to the spill directory and rehydrated
// transparently on their next command — the client never sees the
// difference (the differential tests pin this).
//
// Build & run:  ./build/examples/gdr_server [--spill-dir DIR]
//               [--budget-bytes N] [--max-sessions N] [--threads N]
//
// Then type commands, e.g.:
//   open acme s1 figure1 seed=7
//   next acme s1
//   feedback acme s1 1 confirm
//   stats
//   close acme s1
//   quit
//
// Pipe a command file in for scripted use:
//   ./build/examples/gdr_server < commands.txt
#include <cstdio>
#include <iostream>
#include <string>

#include "server/protocol.h"
#include "server/session_manager.h"
#include "util/strings.h"

using namespace gdr;
using namespace gdr::server;

int main(int argc, char** argv) {
  SessionManagerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto numeric = [&](const char* what) -> std::size_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", what);
        std::exit(2);
      }
      const Result<std::uint64_t> parsed = ParseUint64(argv[++i], what);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        std::exit(2);
      }
      return static_cast<std::size_t>(*parsed);
    };
    if (arg == "--spill-dir" && i + 1 < argc) {
      options.spill_dir = argv[++i];
    } else if (arg == "--budget-bytes") {
      options.memory_budget_bytes = numeric("--budget-bytes");
    } else if (arg == "--max-sessions") {
      options.max_sessions = numeric("--max-sessions");
    } else if (arg == "--threads") {
      options.num_threads = numeric("--threads");
    } else {
      std::fprintf(stderr,
                   "usage: %s [--spill-dir DIR] [--budget-bytes N] "
                   "[--max-sessions N] [--threads N]\n",
                   argv[0]);
      return 2;
    }
  }

  SessionManager manager(options);
  const std::size_t commands = ServerLoop(&manager, std::cin, std::cout);
  const WireServerStats stats = manager.Stats();
  std::fprintf(stderr,
               "gdr_server: %zu commands, %zu opens, %zu evictions, "
               "%zu rehydrations\n",
               commands, stats.opens, stats.evictions, stats.rehydrations);
  return 0;
}
