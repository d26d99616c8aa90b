// Achilles reproduction -- parallel exploration subsystem.

#include "exec/worker.h"

#include <algorithm>
#include <thread>

namespace achilles {
namespace exec {

ParallelEngine::ParallelEngine(smt::ExprContext *home,
                               const symexec::Program *program,
                               symexec::EngineConfig config,
                               smt::SolverConfig solver_config)
    : home_(home), program_(program), config_(config),
      solver_config_(solver_config)
{
    if (config_.num_workers < 1)
        config_.num_workers = 1;
}

void
ParallelEngine::SetIncomingMessage(std::vector<smt::ExprRef> bytes)
{
    incoming_ = std::move(bytes);
}

std::vector<symexec::PathResult>
ParallelEngine::Run()
{
    ACHILLES_CHECK(!ran_, "ParallelEngine is one-shot");
    ran_ = true;

    const size_t n = config_.num_workers;

    scheduler_ =
        std::make_unique<WorkStealingScheduler>(n, config_.max_states);

    // Phase 2's frontier is the scheduler's queue. Each worker engine
    // attaches its own frontier under the same name, and it stays 0.
    if (config_.obs.metrics_on())
        config_.obs.registry->Attach("engine.frontier", scheduler_->queued());

    // Per-worker engines explore disjoint subtrees; ids must therefore
    // come from the fork tree, not from per-engine counters.
    symexec::EngineConfig engine_config = config_;
    engine_config.deterministic_state_ids = true;

    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        auto wc = std::make_unique<WorkerContext>();
        wc->worker_id = i;
        // Worker w owns obs lane 1 + w: its own trace track (lane 0
        // stays with the main/pipeline thread).
        engine_config.obs = config_.obs.ForLane(i + 1);
        wc->bridge =
            std::make_unique<ExprBridge>(home_, &wc->ctx, &home_mutex_);
        wc->bridge->MirrorHomeVars();
        smt::SolverConfig worker_config = solver_config_;
        worker_config.obs = solver_config_.obs.ForLane(i + 1);
        wc->solver = std::make_unique<smt::Solver>(&wc->ctx, worker_config);
        wc->engine = std::make_unique<symexec::Engine>(
            &wc->ctx, wc->solver.get(), program_, symexec::Mode::kServer,
            engine_config);
        wc->engine->SetFinalizeGate([this] {
            const size_t slot =
                finished_paths_.fetch_add(1, std::memory_order_acq_rel);
            if (slot + 1 >= config_.max_finished_paths)
                scheduler_->Stop();
            return slot < config_.max_finished_paths;
        });
        if (!incoming_.empty()) {
            wc->incoming.reserve(incoming_.size());
            for (smt::ExprRef b : incoming_)
                wc->incoming.push_back(wc->bridge->ToRemote(b));
            wc->engine->SetIncomingMessage(wc->incoming);
        }
        if (factory_)
            wc->engine->SetListener(factory_(wc.get()));
        workers_.push_back(std::move(wc));
    }

    scheduler_->Seed(0, workers_[0]->engine->MakeInitialState());

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i)
        threads.emplace_back([this, i] { WorkerLoop(i); });
    for (std::thread &t : threads)
        t.join();

    // Merge: translate every worker's finished paths into the home
    // context and order them by their schedule-independent state ids.
    std::vector<symexec::PathResult> results;
    for (auto &wc : workers_) {
        std::vector<symexec::PathResult> part = wc->engine->TakeResults();
        for (symexec::PathResult &r : part) {
            for (smt::ExprRef &c : r.constraints)
                c = wc->bridge->ToHome(c);
            for (symexec::SentMessage &m : r.sent)
                for (smt::ExprRef &b : m.bytes)
                    b = wc->bridge->ToHome(b);
            results.push_back(std::move(r));
        }
        stats_.Merge(wc->engine->stats());
        stats_.Merge(wc->solver->stats());
    }
    std::stable_sort(results.begin(), results.end(),
                     [](const symexec::PathResult &a,
                        const symexec::PathResult &b) {
                         return a.state_id < b.state_id;
                     });
    scheduler_->ExportStats(&stats_);
    stats_.Add("exec.workers", static_cast<int64_t>(n));
    if (config_.obs.metrics_on())
        config_.obs.registry->Detach(scheduler_->queued());
    return results;
}

void
ParallelEngine::WorkerLoop(size_t worker_id)
{
    WorkerContext &wc = *workers_[worker_id];
    WorkStealingScheduler::Batch batch;
    std::vector<std::unique_ptr<symexec::State>> spawned;

    while (scheduler_->Next(worker_id, &batch)) {
        if (batch.owner != worker_id) {
            // Stolen work: re-home it into this worker's context, queue
            // it locally (preserving deque order) and go pop normally.
            for (auto &s : batch.states) {
                s = TransferState(*s, workers_[batch.owner]->bridge.get(),
                                  wc.bridge.get());
                scheduler_->Push(worker_id, &s, /*fresh=*/false);
            }
            continue;
        }
        auto state = std::move(batch.states.front());
        spawned.clear();
        wc.engine->AdvanceState(*state, &spawned);
        for (auto &s : spawned) {
            if (!scheduler_->Push(worker_id, &s, /*fresh=*/true))
                wc.engine->FinalizeLimit(*s);
        }
        if (state->Finished())
            scheduler_->OnStateFinished();
        else
            scheduler_->Push(worker_id, &state, /*fresh=*/false);
    }
}

}  // namespace exec
}  // namespace achilles
