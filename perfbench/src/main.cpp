// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <id>] [--trace-file <path>]
//
// stdout: a "# fingerprint" line, one "name value unit" line per metric,
// and, last, the result object as one JSON line. Exit status 0 when every
// correctness gate held, 1 when one failed, 2 on a usage or runtime error.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--revision <id>] [--trace-file <path>]\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap for the next rep: without this, glibc
  // returns each rep's buffers to the kernel and the next rep pays page
  // faults to get them back, which is host noise, not program cost.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1024 * 1024 * 1024);

  perfbench::RunOptions opts;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = value != "0";
      } else if (arg == "--revision") {
        opts.revision = value;
      } else if (arg == "--trace-file") {
        opts.trace_path = value;
      } else {
        usage();
        return 2;
      }
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  if (!have_workload) {
    usage();
    return 2;
  }

  try {
    const perfbench::WorkloadResult result = perfbench::run_workload(opts);
    std::cout << "# fingerprint " << perfbench::fingerprint_json(opts) << "\n";
    std::cout << "# " << opts.workload << (opts.trace ? " per-layer" : " end-to-end")
              << " metrics (attempted " << result.attempted << ", failed " << result.failed
              << ")\n"
              << perfbench::result_text(result);
    for (const std::string& f : result.failures) std::cout << "# GATE FAILED: " << f << "\n";
    std::cout << perfbench::result_json(result) << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
