// Achilles reproduction -- tests.
//
// The bit-blaster's CNF, pinned. A seeded stream of expressions covering
// every Kind is blasted, each instance on a new SatSolver + BitBlaster
// pair, and the variable count, clause count, SAT counters and models
// must equal the values recorded for it. The order in which the blaster
// visits kids and creates gates fixes the CNF numbering; a change to it
// can keep every verdict and witness byte and still move these pins.
//
// The solver path's flat side tables (smt/stamp_table.h) are indexed by
// node id and reused across queries, calls and contexts. The other tests
// check that reuse: the epoch wrap of a StampTable, and one thread's SAT
// pair, Substitute scratch and Evaluate scratch shared by two contexts
// whose node ids overlap, each query against fresh state.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/bitblast.h"
#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/sat.h"
#include "smt/solver.h"
#include "smt/stamp_table.h"
#include "support/hash.h"
#include "support/rng.h"

namespace achilles {
namespace smt {

/** Sets a table's epoch, so a test can reach the wrap. */
struct StampTablePeer
{
    template <typename T>
    static void
    SetEpoch(StampTable<T> *table, uint32_t epoch)
    {
        table->epoch_ = epoch;
    }
};

namespace {

/**
 * Random expressions over a few variables per width, built through the
 * factories. Every operand is drawn in its own statement, so the stream
 * does not depend on the compiler's argument evaluation order.
 */
class ExprGen
{
  public:
    ExprGen(ExprContext *ctx, uint64_t seed) : ctx_(ctx), rng_(seed) {}

    /** A width-`w` term of depth at most `depth`. */
    ExprRef
    Term(uint32_t w, int depth)
    {
        if (depth <= 0 || rng_.Chance(0.15))
            return Leaf(w);
        const int d = depth - 1;
        switch (rng_.Below(17)) {
          case 0: {
            const ExprRef a = Term(w, d);
            const ExprRef b = Term(w, d);
            return ctx_->MakeAdd(a, b);
          }
          case 1: {
            const ExprRef a = Term(w, d);
            const ExprRef b = Term(w, d);
            return ctx_->MakeSub(a, b);
          }
          case 2:
          case 3:
          case 4: {
            // Multipliers and dividers grow fast: keep them narrow.
            const uint32_t n = std::min<uint32_t>(w, 6);
            const ExprRef a = Term(n, d);
            const ExprRef b = Term(n, d);
            const ExprRef r = rng_.Below(3) == 0   ? ctx_->MakeMul(a, b)
                              : rng_.Below(2) == 0 ? ctx_->MakeUDiv(a, b)
                                                   : ctx_->MakeURem(a, b);
            return Resize(r, w);
          }
          case 5: {
            const ExprRef a = Term(w, d);
            const ExprRef b = Term(w, d);
            return ctx_->MakeAnd(a, b);
          }
          case 6: {
            const ExprRef a = Term(w, d);
            const ExprRef b = Term(w, d);
            return ctx_->MakeOr(a, b);
          }
          case 7: {
            const ExprRef a = Term(w, d);
            const ExprRef b = Term(w, d);
            return ctx_->MakeXor(a, b);
          }
          case 8:
            return ctx_->MakeNot(Term(w, d));
          case 9:
          case 10:
          case 11: {
            const ExprRef a = Term(w, d);
            const ExprRef s = rng_.Chance(0.5)
                                  ? Term(w, d)
                                  : ctx_->MakeConst(w, rng_.Below(w + 1));
            switch (rng_.Below(3)) {
              case 0: return ctx_->MakeShl(a, s);
              case 1: return ctx_->MakeLShr(a, s);
              default: return ctx_->MakeAShr(a, s);
            }
          }
          case 12: {
            if (w < 2)
                return Term(w, d);
            const uint32_t high = 1 + static_cast<uint32_t>(rng_.Below(w - 1));
            const ExprRef h = Term(high, d);
            const ExprRef l = Term(w - high, d);
            return ctx_->MakeConcat(h, l);
          }
          case 13: {
            const uint32_t extra = 1 + static_cast<uint32_t>(rng_.Below(4));
            const ExprRef a = Term(w + extra, d);
            const uint32_t offset =
                static_cast<uint32_t>(rng_.Below(extra + 1));
            return ctx_->MakeExtract(a, offset, w);
          }
          case 14:
          case 15: {
            if (w < 2)
                return Term(w, d);
            const uint32_t from = 1 + static_cast<uint32_t>(rng_.Below(w - 1));
            const ExprRef a = Term(from, d);
            return rng_.Chance(0.5) ? ctx_->MakeZExt(a, w)
                                    : ctx_->MakeSExt(a, w);
          }
          default: {
            const ExprRef c = Pred(d);
            const ExprRef t = Term(w, d);
            const ExprRef e = Term(w, d);
            return ctx_->MakeIte(c, t, e);
          }
        }
    }

    /** A width-1 predicate of depth at most `depth`. */
    ExprRef
    Pred(int depth)
    {
        if (depth <= 0 || rng_.Chance(0.1))
            return Leaf(1);
        const int d = depth - 1;
        const uint32_t w = rng_.Chance(0.5) ? 4 : 8;
        switch (rng_.Below(9)) {
          case 5: {
            const ExprRef a = Pred(d);
            const ExprRef b = Pred(d);
            return ctx_->MakeAnd(a, b);
          }
          case 6: {
            const ExprRef a = Pred(d);
            const ExprRef b = Pred(d);
            return ctx_->MakeOr(a, b);
          }
          case 7:
            return ctx_->MakeNot(Pred(d));
          default:
            break;
        }
        const ExprRef a = Term(w, d);
        const ExprRef b = rng_.Chance(0.3) ? Leaf(w) : Term(w, d);
        switch (rng_.Below(6)) {
          case 0: return ctx_->MakeEq(a, b);
          case 1: return ctx_->MakeUlt(a, b);
          case 2: return ctx_->MakeUle(a, b);
          case 3: return ctx_->MakeSlt(a, b);
          case 4: return ctx_->MakeSle(a, b);
          default: return ctx_->MakeNe(a, b);
        }
    }

  private:
    ExprRef
    Leaf(uint32_t w)
    {
        if (rng_.Chance(0.3))
            return ctx_->MakeConst(w, rng_.Next());
        std::vector<ExprRef> &pool = vars_[w];
        const size_t pick = rng_.Below(3);
        while (pool.size() <= pick)
            pool.push_back(ctx_->FreshVar("v" + std::to_string(w), w));
        return pool[pick];
    }

    /** `e` zero-extended or truncated to width `w`. */
    ExprRef
    Resize(ExprRef e, uint32_t w)
    {
        if (e->width() < w)
            return ctx_->MakeZExt(e, w);
        return ctx_->MakeExtract(e, 0, w);
    }

    ExprContext *ctx_;
    Rng rng_;
    std::map<uint32_t, std::vector<ExprRef>> vars_;
};

/** Assertions of instance `index` of the seeded stream, built in `ctx`. */
std::vector<ExprRef>
StreamInstance(ExprContext *ctx, uint64_t index)
{
    ExprGen gen(ctx, 0xb1a57ull * (index + 1));
    Rng rng(0xc0ffeeull + index);
    const int count = 2 + static_cast<int>(rng.Below(4));
    std::vector<ExprRef> assertions;
    for (int i = 0; i < count; ++i)
        assertions.push_back(gen.Pred(3 + static_cast<int>(rng.Below(2))));
    return assertions;
}

void
CollectKinds(ExprRef e, std::set<Kind> *kinds, std::set<ExprRef> *seen)
{
    if (!seen->insert(e).second)
        return;
    kinds->insert(e->kind());
    for (ExprRef kid : e->kids())
        CollectKinds(kid, kinds, seen);
}

uint64_t
Fnv(uint64_t digest, uint64_t value)
{
    return (digest ^ value) * 0x100000001b3ull;
}

/** Digest of a kSat instance's SAT assignment (every var, in index
 *  order) and of the model read back from the blaster. */
uint64_t
ModelDigest(uint64_t digest, const SatSolver &sat, const Model &model)
{
    for (uint32_t v = 0; v < sat.NumVars(); ++v)
        digest = Fnv(digest, sat.Value(v) ? 1 : 0);
    std::vector<std::pair<uint32_t, uint64_t>> values(model.values().begin(),
                                                      model.values().end());
    std::sort(values.begin(), values.end());
    for (const auto &[var, value] : values) {
        digest = Fnv(digest, var);
        digest = Fnv(digest, value);
    }
    return digest;
}

constexpr uint64_t kCnfInstances = 160;

TEST(BitBlastCnfTest, SeededStreamCnfIsPinned)
{
    // Summed over the stream: CNF size (cnf.vars, cnf.clauses), SAT
    // counters and verdict counts (verdict.<SatStatus>), plus a digest
    // of every instance's size and one of every model. The values were
    // recorded with the blaster's memo, variable bits and gate cache in
    // hash maps; the flat tables must give the same CNF.
    obs::CounterView total;
    uint64_t shape_digest = 0xcbf29ce484222325ull;
    uint64_t model_digest = 0xcbf29ce484222325ull;
    std::set<Kind> kinds;
    for (uint64_t i = 0; i < kCnfInstances; ++i) {
        ExprContext ctx;
        const std::vector<ExprRef> assertions = StreamInstance(&ctx, i);
        std::set<ExprRef> seen;
        for (ExprRef e : assertions)
            CollectKinds(e, &kinds, &seen);

        SatSolver sat;
        BitBlaster blaster(&sat);
        for (ExprRef e : assertions)
            blaster.AssertTrue(e);
        const SatStatus status = sat.Solve();
        total.Merge(sat.stats());
        total.Add("cnf.vars", sat.NumVars());
        total.Add("cnf.clauses", static_cast<int64_t>(sat.NumClauses()));
        total.Add("verdict." + std::to_string(static_cast<int>(status)), 1);
        shape_digest = Fnv(shape_digest, sat.NumVars());
        shape_digest = Fnv(shape_digest, sat.NumClauses());
        shape_digest = Fnv(shape_digest, static_cast<uint64_t>(status));
        if (status != SatStatus::kSat)
            continue;
        Model model;
        blaster.ExtractModel(&model);
        for (ExprRef e : assertions)
            ASSERT_TRUE(EvaluateBool(e, model))
                << "instance " << i << ": " << ctx.ToString(e);
        model_digest = ModelDigest(model_digest, sat, model);
    }
    // The stream blasts every kind of node.
    EXPECT_EQ(kinds.size(), static_cast<size_t>(Kind::kIte) + 1);

    const std::map<std::string, int64_t> want = {
        {"cnf.clauses", 131099},       {"cnf.vars", 50969},
        {"sat.budget_exhausted", 0},   {"sat.conflicts", 118},
        {"sat.decisions", 3514},       {"sat.learnt_clauses", 104},
        {"sat.learnts_removed", 0},    {"sat.propagations", 48863},
        {"sat.reduce_dbs", 0},         {"sat.restarts", 0},
        {"sat.solve_calls", 119},      {"verdict.0", 118},
        {"verdict.1", 42},
    };
    EXPECT_EQ(total.All(), want);
    EXPECT_EQ(shape_digest, 9057121481477266911ull);
    EXPECT_EQ(model_digest, 9416856758046278288ull);
}

TEST(StampTableTest, ClearForgetsEveryEntryAcrossTheEpochWrap)
{
    StampTable<int> table;
    EXPECT_EQ(table.Find(3), nullptr);
    table.Set(3, 30);  // written in epoch 1, where the wrap restarts
    table.Set(5, 50);
    ASSERT_NE(table.Find(3), nullptr);
    EXPECT_EQ(*table.Find(3), 30);
    table.Clear();
    EXPECT_EQ(table.Find(3), nullptr);
    EXPECT_EQ(table.Find(5), nullptr);

    // The last epoch before the wrap: slot 5 is written in it, slot 3
    // still carries epoch 1.
    StampTablePeer::SetEpoch(&table, 0xffffffffu);
    table.Set(5, 55);
    EXPECT_EQ(table.Find(3), nullptr);
    ASSERT_NE(table.Find(5), nullptr);
    EXPECT_EQ(*table.Find(5), 55);
    // The wrap zeroes every stamp: the new epoch 1 must not revive
    // slot 3, nor keep slot 5.
    table.Clear();
    EXPECT_EQ(table.Find(3), nullptr);
    EXPECT_EQ(table.Find(5), nullptr);
    table.Set(7, 70);
    ASSERT_NE(table.Find(7), nullptr);
    EXPECT_EQ(*table.Find(7), 70);
    EXPECT_EQ(table.Find(3), nullptr);
    table.Clear();
    EXPECT_EQ(table.Find(7), nullptr);
    EXPECT_GE(table.capacity(), 8u);
}

/** What one SAT instance gives: verdict, CNF size, SAT counters, the
 *  SAT assignment and the model read back from the blaster. */
struct Blasted
{
    SatStatus status = SatStatus::kUnknown;
    uint32_t vars = 0;
    size_t clauses = 0;
    std::map<std::string, int64_t> counters;
    std::vector<bool> assignment;
    std::map<uint32_t, uint64_t> model;
};

Blasted
BlastAndSolve(SatSolver *sat, BitBlaster *blaster,
              const std::vector<ExprRef> &assertions)
{
    for (ExprRef e : assertions)
        blaster->AssertTrue(e);
    Blasted out;
    out.status = sat->Solve();
    out.vars = sat->NumVars();
    out.clauses = sat->NumClauses();
    out.counters = sat->stats().All();
    if (out.status == SatStatus::kSat) {
        for (uint32_t v = 0; v < sat->NumVars(); ++v)
            out.assignment.push_back(sat->Value(v));
        Model model;
        blaster->ExtractModel(&model);
        out.model.insert(model.values().begin(), model.values().end());
    }
    return out;
}

/** Query `index` of the reuse stream, built in `ctx`: every third one
 *  is large, the others small. */
std::vector<ExprRef>
ReuseQuery(ExprContext *ctx, uint64_t index)
{
    ExprGen gen(ctx, 0x5eedull * (index + 7));
    const int depth = index % 3 == 0 ? 5 : 2;
    const int count = 1 + static_cast<int>(index % 4);
    std::vector<ExprRef> assertions;
    for (int i = 0; i < count; ++i)
        assertions.push_back(gen.Pred(depth));
    return assertions;
}

/** What Substitute, Evaluate and a model-less and a model query on the
 *  thread's solver instance give for one query. */
struct ScratchAnswers
{
    std::vector<ExprRef> substituted;
    std::vector<uint64_t> values;
    CheckResult verdict = CheckResult::kUnknown;
    CheckResult verdict_only = CheckResult::kUnknown;
    std::map<uint32_t, uint64_t> model;
};

ScratchAnswers
AnswerWithScratch(ExprContext *ctx, const std::vector<ExprRef> &query,
                  uint64_t index)
{
    ScratchAnswers out;
    // Bind up to two variables of each assertion to constants, and give
    // every variable of the context a value to evaluate under.
    Model values;
    for (uint32_t v = 0; v < ctx->NumVars(); ++v)
        values.Set(v, MixBits(v + 1000 * index));
    for (ExprRef e : query) {
        std::unordered_map<uint32_t, ExprRef> map;
        for (uint32_t v : ctx->VarsOf(e)) {
            if (map.size() == 2)
                break;
            map.emplace(v, ctx->MakeConst(ctx->InfoOf(v).width,
                                          MixBits(v ^ index)));
        }
        out.substituted.push_back(ctx->Substitute(e, map));
        out.values.push_back(Evaluate(e, values));
        for (ExprRef kid : e->kids())
            out.values.push_back(Evaluate(kid, values));
    }
    SolverConfig config;
    config.enable_cache = false;
    Solver solver(ctx, config);
    Model model;
    out.verdict = solver.CheckSat(query, &model);
    out.verdict_only = solver.CheckSat(query);
    out.model.insert(model.values().begin(), model.values().end());
    return out;
}

TEST(FlatTableReuseTest, TwoContextsInterleavedMatchFreshState)
{
    // Both contexts number their nodes from 0, so their ids overlap.
    // Queries alternate between them and between large and small, on
    // one reused SAT pair (Reset between queries) and on this thread's
    // Substitute and Evaluate scratch and solver instance. A new pair,
    // and a new thread whose scratch and instance start empty, must
    // give each query the same answers.
    ExprContext contexts[2];
    constexpr uint64_t kQueries = 60;
    std::vector<std::vector<ExprRef>> queries;
    for (uint64_t i = 0; i < kQueries; ++i)
        queries.push_back(ReuseQuery(&contexts[i % 2], i));
    ASSERT_GT(std::min(contexts[0].NumNodes(), contexts[1].NumNodes()),
              size_t{200});

    SatSolver sat;
    BitBlaster blaster(&sat);
    int verdicts[3] = {0, 0, 0};
    uint32_t largest = 0;
    for (uint64_t i = 0; i < kQueries; ++i) {
        ExprContext *ctx = &contexts[i % 2];
        const std::vector<ExprRef> &query = queries[i];
        if (i > 0)
            blaster.Reset();
        const Blasted got = BlastAndSolve(&sat, &blaster, query);
        SatSolver fresh_sat;
        BitBlaster fresh_blaster(&fresh_sat);
        const Blasted want = BlastAndSolve(&fresh_sat, &fresh_blaster, query);
        ASSERT_EQ(got.status, want.status) << "query " << i;
        ASSERT_EQ(got.vars, want.vars) << "query " << i;
        ASSERT_EQ(got.clauses, want.clauses) << "query " << i;
        ASSERT_EQ(got.counters, want.counters) << "query " << i;
        ASSERT_EQ(got.assignment, want.assignment) << "query " << i;
        ASSERT_EQ(got.model, want.model) << "query " << i;
        ++verdicts[static_cast<int>(want.status)];
        largest = std::max(largest, want.vars);

        const ScratchAnswers reused = AnswerWithScratch(ctx, query, i);
        ScratchAnswers fresh;
        std::thread([&] { fresh = AnswerWithScratch(ctx, query, i); })
            .join();
        ASSERT_EQ(reused.substituted, fresh.substituted) << "query " << i;
        ASSERT_EQ(reused.values, fresh.values) << "query " << i;
        ASSERT_EQ(reused.verdict, fresh.verdict) << "query " << i;
        ASSERT_EQ(reused.verdict_only, fresh.verdict_only) << "query " << i;
        ASSERT_EQ(reused.model, fresh.model) << "query " << i;
        ASSERT_EQ(reused.verdict == CheckResult::kSat,
                  want.status == SatStatus::kSat)
            << "query " << i;
    }
    EXPECT_GT(verdicts[static_cast<int>(SatStatus::kSat)], 0);
    EXPECT_GT(verdicts[static_cast<int>(SatStatus::kUnsat)], 0);
    // Some instances outgrow what the solver keeps between queries.
    EXPECT_GT(largest, Solver::kMaxRetainedSatVars);
}

}  // namespace
}  // namespace smt
}  // namespace achilles
