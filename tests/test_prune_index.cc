// Achilles reproduction -- tests.
//
// The unified pruning knowledge base (exec/prune_index.h) and its
// consumers: two-part core subsumption, the differentFrom overlay,
// delegated query-core storage, ReduceDB-style eviction, and the
// end-to-end contracts -- cross-worker subsumption fires, witness sets
// stay bitwise identical at 1/2/4/8 workers with the index on or off,
// and capped stores never flip a verdict.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "proto/synth/synth_family.h"
#include "core/achilles.h"
#include "exec/expr_transfer.h"
#include "exec/prune_index.h"
#include "proto/fsp/fsp_protocol.h"

namespace achilles {
namespace {

using exec::PruneFp;
using exec::PruneFpVec;
using exec::PruneIndex;
using exec::PruneIndexConfig;

// ------------------------------------------------------- store 1: cores

TEST(PruneIndexTest, CoreSubsumptionIsTwoPartContainment)
{
    PruneIndex index;
    const PruneFpVec path{{1, 1}, {2, 2}};
    const PruneFpVec negs{{9, 9}};
    index.RecordCore(0, path, negs);

    // Exact query and supersets hit; missing either part misses.
    EXPECT_TRUE(index.SubsumesCore(0, path, negs));
    EXPECT_TRUE(index.SubsumesCore(
        0, PruneFpVec{{1, 1}, {2, 2}, {3, 3}}, PruneFpVec{{8, 8}, {9, 9}}));
    EXPECT_FALSE(index.SubsumesCore(0, PruneFpVec{{1, 1}}, negs));
    EXPECT_FALSE(index.SubsumesCore(0, path, PruneFpVec{{8, 8}}));
    // Parts are not interchangeable: the path part must be contained
    // in the path set, the negation part in the negation set.
    EXPECT_FALSE(index.SubsumesCore(0, negs, path));
}

TEST(PruneIndexTest, CrossWorkerHitsAreAttributed)
{
    PruneIndex index;
    index.RecordCore(/*publisher=*/3, PruneFpVec{{1, 1}},
                     PruneFpVec{{2, 2}});
    EXPECT_TRUE(
        index.SubsumesCore(/*consumer=*/3, PruneFpVec{{1, 1}},
                           PruneFpVec{{2, 2}}));
    EXPECT_EQ(index.cross_worker_hits(), 0);
    EXPECT_TRUE(
        index.SubsumesCore(/*consumer=*/1, PruneFpVec{{1, 1}},
                           PruneFpVec{{2, 2}}));
    EXPECT_EQ(index.cross_worker_hits(), 1);
}

TEST(PruneIndexTest, FingerprintRespectsSharedVarLimit)
{
    smt::ExprContext ctx;
    smt::ExprRef x = ctx.FreshVar("x", 8);
    smt::ExprRef e = ctx.MakeUlt(x, ctx.MakeConst(8, 5));

    PruneIndexConfig limited;
    limited.shared_var_limit = ctx.NumVars();
    PruneIndex portable(limited);
    PruneFpVec fps;
    EXPECT_TRUE(portable.Fingerprint({e}, &fps));
    EXPECT_EQ(fps.size(), 1u);

    // A variable past the id-aligned prefix is not portable.
    smt::ExprRef late = ctx.FreshVar("late", 8);
    smt::ExprRef bad = ctx.MakeEq(late, ctx.MakeConst(8, 1));
    EXPECT_FALSE(portable.Fingerprint({e, bad}, &fps));
}

TEST(PruneIndexTest, FingerprintsTranslateAcrossIdAlignedContexts)
{
    // The portability property the whole subsystem rests on: a core
    // recorded from one worker's context subsumes a query built in
    // another id-aligned context, with no expression bridging.
    smt::ExprContext home;
    smt::ExprRef x = home.FreshVar("x", 8);
    smt::ExprRef lt = home.MakeUlt(x, home.MakeConst(8, 10));
    smt::ExprRef ge = home.MakeUge(x, home.MakeConst(8, 20));

    smt::ExprContext remote;
    std::mutex mutex;
    exec::ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();

    PruneIndexConfig config;
    config.shared_var_limit = home.NumVars();
    PruneIndex index(config);

    PruneFpVec home_path, home_negs;
    ASSERT_TRUE(index.Fingerprint({lt}, &home_path));
    ASSERT_TRUE(index.Fingerprint({ge}, &home_negs));
    index.RecordCore(/*publisher=*/0, home_path, home_negs);

    PruneFpVec remote_path, remote_negs;
    ASSERT_TRUE(index.Fingerprint({bridge.ToRemote(lt)}, &remote_path));
    ASSERT_TRUE(index.Fingerprint({bridge.ToRemote(ge)}, &remote_negs));
    EXPECT_TRUE(
        index.SubsumesCore(/*consumer=*/1, remote_path, remote_negs));
    EXPECT_EQ(index.cross_worker_hits(), 1);
}

// ------------------------------------------------------------- eviction

TEST(PruneIndexTest, EvictionCapsHoldUnderLoad)
{
    PruneIndexConfig config;
    config.shards = 2;
    config.core_cap = 16;
    config.overlay_cap = 8;
    config.query_core_cap = 16;
    PruneIndex index(config);

    for (uint64_t i = 0; i < 1000; ++i) {
        index.RecordCore(0, PruneFpVec{{i, i}}, PruneFpVec{{i + 1, 0}});
        index.RecordFieldCore(0, /*field_token=*/7,
                              PruneFpVec{{i, i}}, PruneFpVec{{i, 1}});
        index.RecordQueryCore(PruneFpVec{{i, 2}}, PruneFpVec{{i, 3}});
    }
    EXPECT_LE(index.core_entries(), config.core_cap);
    EXPECT_LE(index.overlay_entries(), config.overlay_cap);
    EXPECT_LE(index.query_core_entries(), config.query_core_cap);
    EXPECT_GT(index.evictions(), 0);

    // Probes after heavy eviction still answer soundly: whatever
    // survived still subsumes, everything else just misses.
    int64_t hits = 0;
    for (uint64_t i = 0; i < 1000; ++i) {
        if (index.SubsumesCore(0, PruneFpVec{{i, i}},
                               PruneFpVec{{i + 1, 0}}))
            ++hits;
    }
    EXPECT_GT(hits, 0);
    EXPECT_LE(hits, static_cast<int64_t>(config.core_cap));
}

TEST(PruneIndexTest, ActiveEntriesSurviveEviction)
{
    PruneIndexConfig config;
    config.shards = 1;
    config.core_cap = 8;
    PruneIndex index(config);

    // One hot entry, kept alive by hits while cold entries churn past
    // the cap: ReduceDB keeps the active half.
    index.RecordCore(0, PruneFpVec{{1000, 1}}, PruneFpVec{});
    for (uint64_t i = 0; i < 200; ++i) {
        EXPECT_TRUE(index.SubsumesCore(0, PruneFpVec{{1000, 1}},
                                       PruneFpVec{{5, 5}}));
        index.RecordCore(0, PruneFpVec{{i, 2}}, PruneFpVec{});
    }
    EXPECT_TRUE(index.SubsumesCore(0, PruneFpVec{{1000, 1}},
                                   PruneFpVec{}));
}

TEST(PruneIndexTest, CrossWorkerHitEntrySurvivesHalvingRound)
{
    PruneIndexConfig config;
    config.shards = 1;
    config.core_cap = 8;
    PruneIndex index(config);

    // Oldest entry in the shard, hit once by another worker: a hot
    // core, proven to transfer.
    index.RecordCore(/*publisher=*/0, PruneFpVec{{1000, 1}},
                     PruneFpVec{});
    EXPECT_TRUE(index.SubsumesCore(/*consumer=*/1, PruneFpVec{{1000, 1}},
                                   PruneFpVec{}));
    EXPECT_EQ(index.cross_worker_hits(), 1);

    // Pin the shard at capacity with cold entries of strictly higher
    // activity (re-discovered twice each): on plain (activity, stamp)
    // order the hot entry -- lowest activity, oldest stamp -- would be
    // the first one halved away.
    for (uint64_t i = 0; i < 8; ++i) {
        index.RecordCore(0, PruneFpVec{{i, 2}}, PruneFpVec{});
        index.RecordCore(0, PruneFpVec{{i, 2}}, PruneFpVec{});
        index.RecordCore(0, PruneFpVec{{i, 2}}, PruneFpVec{});
    }
    EXPECT_GT(index.evictions(), 0);
    EXPECT_GT(index.hot_exemptions(), 0);
    // The cross-worker-hit entry survived the round; cold entries with
    // more activity were evicted in its stead.
    EXPECT_TRUE(index.SubsumesCore(0, PruneFpVec{{1000, 1}},
                                   PruneFpVec{}));

    // The exemption is consumed: with no further cross-worker hits the
    // next halving evicts the entry on plain (activity, stamp) order.
    for (uint64_t i = 100; i < 110; ++i) {
        index.RecordCore(0, PruneFpVec{{i, 2}}, PruneFpVec{});
        index.RecordCore(0, PruneFpVec{{i, 2}}, PruneFpVec{});
        index.RecordCore(0, PruneFpVec{{i, 2}}, PruneFpVec{});
    }
    EXPECT_FALSE(index.SubsumesCore(0, PruneFpVec{{1000, 1}},
                                    PruneFpVec{}));
}

// ------------------------------------------------- store 2: the overlay

TEST(PruneIndexTest, OverlayRoundTripsFieldToken)
{
    PruneIndex index;
    const uint64_t token = core::DifferentFromMatrix::FieldToken("cmd");
    index.RecordFieldCore(0, token, PruneFpVec{{1, 1}},
                          PruneFpVec{{2, 2}});
    uint64_t out_token = 0;
    EXPECT_TRUE(index.OverlaySubsumes(
        0, PruneFpVec{{1, 1}, {3, 3}}, PruneFpVec{{2, 2}, {4, 4}},
        &out_token));
    EXPECT_EQ(out_token, token);
    EXPECT_FALSE(index.OverlaySubsumes(0, PruneFpVec{{3, 3}},
                                       PruneFpVec{{2, 2}}, &out_token));
}

// ------------------------------------------- store 3: query-core store

TEST(PruneIndexTest, QueryCoreStoreVerifiesFullFingerprints)
{
    PruneIndex index;
    const PruneFpVec query{{1, 1}, {2, 2}};
    const PruneFpVec core{{2, 2}};
    index.RecordQueryCore(query, core);

    PruneFpVec out;
    ASSERT_TRUE(index.LookupQueryCore(query, &out));
    EXPECT_EQ(out, core);
    // A different query (even a subset) misses.
    EXPECT_FALSE(index.LookupQueryCore(PruneFpVec{{1, 1}}, &out));

    // First writer wins on re-record.
    index.RecordQueryCore(query, PruneFpVec{{1, 1}});
    ASSERT_TRUE(index.LookupQueryCore(query, &out));
    EXPECT_EQ(out, core);
}

// ------------------------------------------------------- end to end

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct PipelineRun
{
    std::vector<WitnessSummary> witnesses;
    int64_t solver_queries = 0;
    int64_t trojan_subsumed = 0;
    int64_t overlay_drops = 0;
    int64_t cross_hits = 0;
    int64_t states_pruned = 0;
};

PipelineRun
RunPipeline(const std::vector<const symexec::Program *> &clients,
            const symexec::Program *server,
            const core::MessageLayout &layout,
            const core::ServerExplorerConfig &server_config,
            size_t workers)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    core::AchillesConfig config;
    config.layout = layout;
    config.clients = clients;
    config.server = server;
    config.server_config = server_config;
    config.server_config.engine.num_workers = workers;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PipelineRun run;
    run.solver_queries =
        result.server.stats.Get("explorer.match_queries") +
        result.server.stats.Get("explorer.trojan_queries");
    run.trojan_subsumed =
        result.server.stats.Get("explorer.trojan_core_subsumed");
    run.overlay_drops = result.server.stats.Get("explorer.overlay_drops");
    run.cross_hits = result.server.stats.Get("prune.cross_worker_hits");
    run.states_pruned = result.server.stats.Get("explorer.states_pruned");
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        run.witnesses.emplace_back(t.accept_label, t.concrete,
                                   hasher.HashExprs(t.definition));
    }
    std::sort(run.witnesses.begin(), run.witnesses.end());
    return run;
}

TEST(PruneIndexPipelineTest, CrossWorkerSubsumptionPrunesSiblingRegions)
{
    // The guarded protocol's server re-derives the same dead-end state
    // in 8 sibling regions; every region after the first is subsumed by
    // the recorded core instead of queried. With 4 workers the regions
    // are spread over the pool, so some hits must land on cores another
    // worker recorded -- a worker pruning the descendant of another
    // worker's dead state. Scheduling decides *which* worker records
    // first, so allow a few attempts for the cross-worker split.
    const symexec::Program client = synth::MakeGuardedClient(2);
    const std::vector<const symexec::Program *> clients{&client};
    const symexec::Program server = synth::MakeGuardedServer(2, 8);
    const core::MessageLayout layout = synth::MakeGuardedLayout();
    core::ServerExplorerConfig config;

    const PipelineRun serial =
        RunPipeline(clients, &server, layout, config, 1);
    EXPECT_GT(serial.trojan_subsumed, 0)
        << "sibling regions must hit the cross-state core index";
    EXPECT_GT(serial.states_pruned, 0);
    EXPECT_TRUE(serial.witnesses.empty());  // fully validated protocol

    bool cross = false;
    int64_t subsumed = 0;
    for (int attempt = 0; attempt < 5 && !cross; ++attempt) {
        const PipelineRun parallel =
            RunPipeline(clients, &server, layout, config, 4);
        EXPECT_EQ(parallel.witnesses, serial.witnesses);
        subsumed = parallel.trojan_subsumed + parallel.overlay_drops;
        cross = parallel.cross_hits > 0;
    }
    EXPECT_TRUE(cross) << "no cross-worker subsumption hit in 5 runs "
                       << "(last run subsumed " << subsumed << ")";
}

TEST(PruneIndexPipelineTest, WitnessesIdenticalAcrossWorkersAndIndex)
{
    // The hard determinism contract: every index hit answers exactly
    // what the skipped query would have answered, so witness sets are
    // bitwise identical at every worker count with the index on or
    // off. FSP exercises the overlay, the guarded protocol the
    // Trojan-core store; sweep both.
    const std::vector<symexec::Program> fsp_clients =
        fsp::MakeAllClients();
    std::vector<const symexec::Program *> clients;
    for (size_t i = 0; i < 2; ++i)
        clients.push_back(&fsp_clients[i]);
    const symexec::Program fsp_server = fsp::MakeServer();
    const core::MessageLayout fsp_layout = fsp::MakeLayout();

    core::ServerExplorerConfig on;
    core::ServerExplorerConfig off;
    off.use_prune_index = false;

    const PipelineRun baseline =
        RunPipeline(clients, &fsp_server, fsp_layout, on, 1);
    ASSERT_FALSE(baseline.witnesses.empty());
    for (size_t workers : {1, 2, 4, 8}) {
        const PipelineRun with_index =
            RunPipeline(clients, &fsp_server, fsp_layout, on, workers);
        const PipelineRun without_index =
            RunPipeline(clients, &fsp_server, fsp_layout, off, workers);
        EXPECT_EQ(with_index.witnesses, baseline.witnesses)
            << "index-on diverged at " << workers << " workers";
        EXPECT_EQ(without_index.witnesses, baseline.witnesses)
            << "index-off diverged at " << workers << " workers";
        EXPECT_LE(with_index.solver_queries, without_index.solver_queries)
            << "a subsumption hit can only skip queries";
    }
}

TEST(PruneIndexPipelineTest, TinyCapsNeverFlipVerdicts)
{
    // Stores pinned at capacity (cap 2, far below the workload's core
    // count) must only cost skips: same witnesses, same pruning
    // decisions as the uncapped run -- the eviction acceptance
    // criterion.
    const symexec::Program client = synth::MakeGuardedClient(2);
    const std::vector<const symexec::Program *> clients{&client};
    const symexec::Program server = synth::MakeGuardedServer(2, 8);
    const core::MessageLayout layout = synth::MakeGuardedLayout();

    core::ServerExplorerConfig uncapped;
    core::ServerExplorerConfig capped;
    capped.prune_core_cap = 2;
    capped.prune_overlay_cap = 2;

    for (size_t workers : {1, 4}) {
        const PipelineRun big =
            RunPipeline(clients, &server, layout, uncapped, workers);
        const PipelineRun small =
            RunPipeline(clients, &server, layout, capped, workers);
        EXPECT_EQ(small.witnesses, big.witnesses);
        EXPECT_EQ(small.states_pruned, big.states_pruned);
    }
}

}  // namespace
}  // namespace achilles
