// Achilles reproduction -- parallel exploration subsystem.

#include "exec/expr_transfer.h"

#include <string>

#include "support/logging.h"

namespace achilles {
namespace exec {

namespace {

/** Strip the "!id" uniquifier FreshVar appends, to reuse as a base. */
std::string
VarBaseName(const std::string &name)
{
    const size_t bang = name.rfind('!');
    return bang == std::string::npos ? name : name.substr(0, bang);
}

/** Rebuild one node in `dst` from translated kids (non-leaf, non-var). */
smt::ExprRef
Rebuild(smt::ExprContext *dst, smt::ExprRef e,
        const std::vector<smt::ExprRef> &kids)
{
    using smt::Kind;
    switch (e->kind()) {
      case Kind::kConst: return dst->MakeConst(e->width(), e->aux());
      case Kind::kAdd: return dst->MakeAdd(kids[0], kids[1]);
      case Kind::kSub: return dst->MakeSub(kids[0], kids[1]);
      case Kind::kMul: return dst->MakeMul(kids[0], kids[1]);
      case Kind::kUDiv: return dst->MakeUDiv(kids[0], kids[1]);
      case Kind::kURem: return dst->MakeURem(kids[0], kids[1]);
      case Kind::kAnd: return dst->MakeAnd(kids[0], kids[1]);
      case Kind::kOr: return dst->MakeOr(kids[0], kids[1]);
      case Kind::kXor: return dst->MakeXor(kids[0], kids[1]);
      case Kind::kNot: return dst->MakeNot(kids[0]);
      case Kind::kShl: return dst->MakeShl(kids[0], kids[1]);
      case Kind::kLShr: return dst->MakeLShr(kids[0], kids[1]);
      case Kind::kAShr: return dst->MakeAShr(kids[0], kids[1]);
      case Kind::kConcat: return dst->MakeConcat(kids[0], kids[1]);
      case Kind::kExtract:
        return dst->MakeExtract(kids[0],
                                static_cast<uint32_t>(e->aux()),
                                e->width());
      case Kind::kZExt: return dst->MakeZExt(kids[0], e->width());
      case Kind::kSExt: return dst->MakeSExt(kids[0], e->width());
      case Kind::kEq: return dst->MakeEq(kids[0], kids[1]);
      case Kind::kUlt: return dst->MakeUlt(kids[0], kids[1]);
      case Kind::kUle: return dst->MakeUle(kids[0], kids[1]);
      case Kind::kSlt: return dst->MakeSlt(kids[0], kids[1]);
      case Kind::kSle: return dst->MakeSle(kids[0], kids[1]);
      case Kind::kIte: return dst->MakeIte(kids[0], kids[1], kids[2]);
      case Kind::kVar: break;  // handled by the caller
    }
    ACHILLES_UNREACHABLE("bad Kind in expression transfer");
}

}  // namespace

ExprBridge::ExprBridge(smt::ExprContext *home, smt::ExprContext *remote,
                       std::mutex *home_mutex)
    : home_(home), remote_(remote), mutex_(home_mutex)
{
    ACHILLES_CHECK(home != remote, "bridge endpoints must differ");
    to_remote_.dst = remote;
    to_home_.dst = home;
}

void
ExprBridge::MirrorHomeVars()
{
    std::lock_guard<std::mutex> lock(*mutex_);
    const uint32_t n = home_->NumVars();
    for (uint32_t id = 0; id < n; ++id) {
        if (to_remote_.var_map.count(id))
            continue;
        const smt::VarInfo &info = home_->InfoOf(id);
        smt::ExprRef remote_var =
            remote_->FreshVar(VarBaseName(info.name), info.width);
        // Id alignment is what makes models, structural fingerprints and
        // the explorer's var->offset map portable; it requires mirroring
        // into a context that has not created variables of its own yet.
        ACHILLES_CHECK(remote_var->VarId() == id,
                       "worker context variables out of alignment");
        to_remote_.var_map.emplace(id, remote_var);
        to_home_.var_map.emplace(id, home_->VarById(id));
    }
}

smt::ExprRef
ExprBridge::Translate(smt::ExprRef e, Direction *fwd, Direction *rev)
{
    auto it = fwd->memo.find(e);
    if (it != fwd->memo.end())
        return it->second;

    smt::ExprRef out;
    if (e->IsVar()) {
        auto vit = fwd->var_map.find(e->VarId());
        if (vit != fwd->var_map.end()) {
            out = vit->second;
        } else {
            // A variable born on the source side mid-run (e.g. an
            // unconstrained out-of-bounds read): create a counterpart
            // and remember the correspondence both ways. The width
            // comes from the immutable node; the source context's var
            // table must NOT be consulted here -- when a thief re-homes
            // a stolen state, the victim may be growing that table
            // concurrently (only the node graph is immutable).
            out = fwd->dst->FreshVar("xfer", e->width());
            fwd->var_map.emplace(e->VarId(), out);
            rev->var_map.emplace(out->VarId(), e);
            rev->memo.emplace(out, e);
        }
    } else {
        std::vector<smt::ExprRef> kids;
        kids.reserve(e->kids().size());
        for (smt::ExprRef kid : e->kids())
            kids.push_back(Translate(kid, fwd, rev));
        out = Rebuild(fwd->dst, e, kids);
    }
    fwd->memo.emplace(e, out);
    return out;
}

smt::ExprRef
ExprBridge::ToRemote(smt::ExprRef e)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    return Translate(e, &to_remote_, &to_home_);
}

smt::ExprRef
ExprBridge::ToHome(smt::ExprRef e)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    return Translate(e, &to_home_, &to_remote_);
}

smt::ExprRef
ExprBridge::ToRemoteLocked(smt::ExprRef e)
{
    return Translate(e, &to_remote_, &to_home_);
}

smt::ExprRef
ExprBridge::ToHomeLocked(smt::ExprRef e)
{
    return Translate(e, &to_home_, &to_remote_);
}

std::unique_ptr<symexec::State>
TransferState(const symexec::State &state, ExprBridge *from, ExprBridge *to)
{
    ACHILLES_CHECK(from->shared_mutex() == to->shared_mutex(),
                   "bridges from different parallel runs");
    std::lock_guard<std::mutex> lock(*from->shared_mutex());
    auto copy = state.Clone(state.id());
    copy->TranslateExprs([from, to](smt::ExprRef e) {
        return to->ToRemoteLocked(from->ToHomeLocked(e));
    });
    return copy;
}

}  // namespace exec
}  // namespace achilles
