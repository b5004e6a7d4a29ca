// reproduce [--json PATH]: the claims ledger (bench/claims.h) over kSeeds
// seeds on every hardware thread -- each figure's tables, one verdict per
// claim, and with --json the ledger document.  A claim that does not
// reproduce is a result: the exit status is 1 only for a bad argument.
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench/claims.h"
#include "common/args.h"
#include "common/thread_pool.h"

int main(int argc, char** argv) {
  using namespace pe;
  try {
    const ArgParser args(argc, argv);
    const auto unknown = args.UnknownKeys({"json"});
    if (!unknown.empty() || args.Subcommand()) {
      throw std::invalid_argument(
          "unexpected argument " +
          (unknown.empty() ? *args.Subcommand() : args.Spelling(unknown[0])));
    }
    const auto json = args.GetString("json");
    if (json && !std::ofstream(*json, std::ios::app)) {
      throw std::invalid_argument("--json: cannot write '" + *json + "'");
    }
    const auto ledger = bench::RunLedger(
        {}, static_cast<int>(ThreadPool::DefaultThreads()), std::cout);
    bench::PrintVerdicts(ledger, std::cout);
    if (json) core::WriteJsonFile(*json, bench::ToJson(ledger));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\nusage: reproduce [--json PATH]\n";
    return 1;
  }
}
