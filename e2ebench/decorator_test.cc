// End-to-end analysis benchmark -- TimedSolver is transparent.
//
// A pipeline run on the timing decorator must give the same witness
// digest and the same Solver::stats() and server-analysis counters as
// the same run on a plain smt::Solver, and every logged call must be
// attributed to exactly one phase. Checked on FSP and on three corpus
// protocols of different dispatch depth.
//
// Build and run: cmake --build <dir> --target e2e_decorator_test &&
//                ctest --test-dir <dir>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/achilles.h"
#include "e2ebench/timed_solver.h"
#include "e2ebench/workload.h"

using namespace achilles;

namespace {

struct Outcome
{
    uint64_t digest = 0;
    std::map<std::string, int64_t> solver_stats;
    std::map<std::string, int64_t> server_stats;
    int64_t logged_calls = 0;
    int64_t attributed_calls = 0;
};

Outcome
Run(const e2e::ProtocolSource &source, bool timed)
{
    const proto::ProtocolBundle bundle = source.make();
    smt::ExprContext ctx;
    std::unique_ptr<smt::Solver> solver;
    if (timed)
        solver = std::make_unique<e2e::TimedSolver>(&ctx);
    else
        solver = std::make_unique<smt::Solver>(&ctx);
    core::AchillesConfig config;
    config.layout = bundle.layout;
    config.clients = bundle.ClientPtrs();
    config.server = &bundle.server;
    const auto start = e2e::TimedSolver::Clock::now();
    const core::AchillesResult result =
        core::RunAchilles(&ctx, solver.get(), config);

    Outcome out;
    out.digest = e2e::WitnessDigest(result.server);
    out.solver_stats = solver->stats().All();
    out.server_stats = result.server.stats.All();
    if (timed) {
        const auto &calls =
            static_cast<const e2e::TimedSolver *>(solver.get())->calls();
        out.logged_calls = static_cast<int64_t>(calls.size());
        out.attributed_calls =
            e2e::Attribute(calls, start, result.timings).Calls();
    }
    return out;
}

}  // namespace

int
main()
{
    // Run from the repository root (the corpus reads examples/*.spec).
    std::string error;
    e2e::Workload fsp, corpus;
    if (!e2e::MakeWorkload("fsp", 0, ".", &fsp, &error) ||
        !e2e::MakeWorkload("corpus", 0, ".", &corpus, &error)) {
        std::fprintf(stderr, "setup failed: %s\n", error.c_str());
        return 1;
    }
    std::vector<e2e::ProtocolSource> sources = {fsp.protocols[0]};
    for (size_t i : {0, 60, 119})
        sources.push_back(corpus.protocols[i]);

    int failures = 0;
    for (const e2e::ProtocolSource &source : sources) {
        const Outcome plain = Run(source, false);
        const Outcome timed = Run(source, true);
        const auto check = [&](bool ok, const char *what) {
            if (ok)
                return;
            ++failures;
            std::printf("FAIL %s: %s\n", source.name.c_str(), what);
        };
        check(plain.digest == timed.digest, "witness digest differs");
        check(plain.solver_stats == timed.solver_stats,
              "Solver::stats() differ");
        check(plain.server_stats == timed.server_stats,
              "server-analysis stats differ");
        check(timed.logged_calls > 0, "no solver call logged");
        check(timed.attributed_calls == timed.logged_calls,
              "calls lost in phase attribution");
        std::printf("%s %s: %lld calls, digest %016llx\n",
                    failures == 0 ? "ok  " : "FAIL", source.name.c_str(),
                    static_cast<long long>(timed.logged_calls),
                    static_cast<unsigned long long>(timed.digest));
    }
    return failures == 0 ? 0 : 1;
}
