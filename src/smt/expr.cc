// Achilles reproduction -- SMT library.
//
// Expression construction, canonicalization and constant folding.

#include "smt/expr.h"

#include <algorithm>
#include <new>
#include <sstream>
#include <type_traits>

#include "smt/stamp_table.h"
#include "support/hash.h"

namespace achilles {
namespace smt {

const char *
KindName(Kind kind)
{
    switch (kind) {
      case Kind::kConst: return "const";
      case Kind::kVar: return "var";
      case Kind::kAdd: return "add";
      case Kind::kSub: return "sub";
      case Kind::kMul: return "mul";
      case Kind::kUDiv: return "udiv";
      case Kind::kURem: return "urem";
      case Kind::kAnd: return "and";
      case Kind::kOr: return "or";
      case Kind::kXor: return "xor";
      case Kind::kNot: return "not";
      case Kind::kShl: return "shl";
      case Kind::kLShr: return "lshr";
      case Kind::kAShr: return "ashr";
      case Kind::kConcat: return "concat";
      case Kind::kExtract: return "extract";
      case Kind::kZExt: return "zext";
      case Kind::kSExt: return "sext";
      case Kind::kEq: return "eq";
      case Kind::kUlt: return "ult";
      case Kind::kUle: return "ule";
      case Kind::kSlt: return "slt";
      case Kind::kSle: return "sle";
      case Kind::kIte: return "ite";
    }
    ACHILLES_UNREACHABLE("bad Kind");
}

namespace {

// Inline kids keep a node at one cache line, and chunks free nodes
// without running destructors.
static_assert(sizeof(Expr) == 64, "Expr should stay one cache line");
static_assert(std::is_trivially_destructible<Expr>::value,
              "chunks free nodes without destroying them");

/** Combine hashes (boost::hash_combine recipe). */
size_t
HashCombine(size_t seed, size_t value)
{
    return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/** Expr::hash() of the node (kind, width, aux, kids), finalized so its
 *  low bits can index the intern table. */
size_t
NodeHash(Kind kind, uint32_t width, uint64_t aux,
         std::initializer_list<ExprRef> kids)
{
    size_t h = HashCombine(static_cast<size_t>(kind), width);
    h = HashCombine(h, static_cast<size_t>(aux));
    for (ExprRef kid : kids)
        h = HashCombine(h, reinterpret_cast<size_t>(kid));
    return static_cast<size_t>(MixBits(h));
}

/** Scratch of the variable walks (CollectVars, VarsOf on a memo miss):
 *  per thread, and cleared by each walk before use. */
struct VarWalk
{
    StampTable<bool> seen;  // by Expr::id()
    std::vector<ExprRef> stack;
};

VarWalk &
ThreadVarWalk(ExprRef root)
{
    thread_local VarWalk walk;
    walk.seen.Clear();
    walk.seen.Reserve(root->id() + size_t{1});
    walk.stack.assign(1, root);
    return walk;
}

bool
IsCommutative(Kind kind)
{
    switch (kind) {
      case Kind::kAdd:
      case Kind::kMul:
      case Kind::kAnd:
      case Kind::kOr:
      case Kind::kXor:
      case Kind::kEq:
        return true;
      default:
        return false;
    }
}

}  // namespace

Expr::Expr(Kind kind, uint32_t width, uint64_t aux,
           std::initializer_list<ExprRef> kids, size_t hash, uint32_t id)
    : kind_(kind),
      num_kids_(static_cast<uint8_t>(kids.size())),
      width_(width),
      aux_(aux),
      kids_{nullptr, nullptr, nullptr},
      hash_(hash),
      id_(id)
{
    ACHILLES_CHECK(kids.size() <= 3, "a node has at most 3 kids");
    std::copy(kids.begin(), kids.end(), kids_);

    // Pointer-free fingerprint (see struct_hash()): kids contribute
    // their own, so this is O(1) per node.
    uint64_t s = MixBits((static_cast<uint64_t>(kind_) << 32) | width_);
    s = MixBits(s + 0x9e3779b97f4a7c15ull * (aux_ + 1));
    max_var_bound_ =
        kind_ == Kind::kVar ? static_cast<uint32_t>(aux_) + 1 : 0;
    for (ExprRef kid : kids) {
        s = MixBits(s + 0xff51afd7ed558ccdull * kid->struct_hash());
        max_var_bound_ = std::max(max_var_bound_, kid->max_var_bound());
    }
    struct_hash_ = s;
}

int
StructuralCompare(ExprRef a, ExprRef b)
{
    if (a == b)
        return 0;
    if (a->struct_hash() != b->struct_hash())
        return a->struct_hash() < b->struct_hash() ? -1 : 1;
    // Fingerprint collision (vanishingly rare): full structural walk so
    // the order stays deterministic across contexts and runs.
    if (a->kind() != b->kind())
        return a->kind() < b->kind() ? -1 : 1;
    if (a->width() != b->width())
        return a->width() < b->width() ? -1 : 1;
    if (a->aux() != b->aux())
        return a->aux() < b->aux() ? -1 : 1;
    if (a->kids().size() != b->kids().size())
        return a->kids().size() < b->kids().size() ? -1 : 1;
    for (size_t i = 0; i < a->kids().size(); ++i) {
        const int c = StructuralCompare(a->kid(i), b->kid(i));
        if (c != 0)
            return c;
    }
    return 0;
}

ExprContext::ExprContext() : table_(64, nullptr)
{
    true_ = MakeConst(1, 1);
    false_ = MakeConst(1, 0);
}

ExprRef
ExprContext::Intern(Kind kind, uint32_t width, uint64_t aux,
                    std::initializer_list<ExprRef> kids)
{
    ACHILLES_CHECK(width >= 1 && width <= 64, "width=", width);
    const size_t hash = NodeHash(kind, width, aux, kids);
    const size_t mask = table_.size() - 1;
    size_t pos = hash & mask;
    for (; table_[pos] != nullptr; pos = (pos + 1) & mask) {
        const Expr *e = table_[pos];
        if (e->hash_ == hash && e->kind_ == kind && e->width_ == width &&
            e->aux_ == aux &&
            std::equal(kids.begin(), kids.end(), e->kids().begin(),
                       e->kids().end())) {
            return e;
        }
    }
    const Expr *node = new (NextNodeSlot()) Expr(
        kind, width, aux, kids, hash, static_cast<uint32_t>(num_nodes_));
    table_[pos] = node;
    if (2 * ++num_nodes_ > table_.size())
        GrowTable();
    return node;
}

void *
ExprContext::NextNodeSlot()
{
    if (chunk_free_ == 0) {
        chunk_free_ =
            std::min<size_t>(1024, std::max<size_t>(16, num_nodes_));
        chunks_.emplace_back(new NodeSlot[chunk_free_]);
        chunk_next_ = chunks_.back().get();
    }
    --chunk_free_;
    return chunk_next_++;
}

void
ExprContext::GrowTable()
{
    std::vector<const Expr *> grown(2 * table_.size(), nullptr);
    const size_t mask = grown.size() - 1;
    for (const Expr *e : table_) {
        if (e == nullptr)
            continue;
        size_t pos = e->hash() & mask;
        while (grown[pos] != nullptr)
            pos = (pos + 1) & mask;
        grown[pos] = e;
    }
    table_ = std::move(grown);
}

ExprRef
ExprContext::MakeConst(uint32_t width, uint64_t value)
{
    return Intern(Kind::kConst, width, value & WidthMask(width), {});
}

ExprRef
ExprContext::FreshVar(const std::string &base, uint32_t width)
{
    const uint32_t id = static_cast<uint32_t>(vars_.size());
    std::ostringstream name;
    name << base << "!" << id;
    vars_.push_back(VarInfo{name.str(), width});
    ExprRef node = Intern(Kind::kVar, width, id, {});
    var_nodes_.push_back(node);
    return node;
}

ExprRef
ExprContext::VarById(uint32_t id) const
{
    ACHILLES_CHECK(id < var_nodes_.size());
    return var_nodes_[id];
}

const VarInfo &
ExprContext::InfoOf(uint32_t var_id) const
{
    ACHILLES_CHECK(var_id < vars_.size());
    return vars_[var_id];
}

ExprRef
ExprContext::MakeBinary(Kind kind, ExprRef a, ExprRef b)
{
    // Canonical operand order for commutative operators: constants last,
    // otherwise structural order. Improves interning hit rate; using the
    // context-independent fingerprint (not pointer order) keeps the
    // canonical form identical across runs and across the per-worker
    // ExprContexts of the parallel exploration subsystem.
    if (IsCommutative(kind)) {
        if (a->IsConst() && !b->IsConst())
            std::swap(a, b);
        else if (a->IsConst() == b->IsConst() &&
                 StructuralCompare(b, a) < 0)
            std::swap(a, b);
    }
    return Intern(kind, a->width(), 0, {a, b});
}

ExprRef
ExprContext::MakeAdd(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst())
        return MakeConst(a->width(), a->ConstValue() + b->ConstValue());
    if (b->IsConst() && b->ConstValue() == 0)
        return a;
    if (a->IsConst() && a->ConstValue() == 0)
        return b;
    return MakeBinary(Kind::kAdd, a, b);
}

ExprRef
ExprContext::MakeSub(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst())
        return MakeConst(a->width(), a->ConstValue() - b->ConstValue());
    if (b->IsConst() && b->ConstValue() == 0)
        return a;
    if (a == b)
        return MakeConst(a->width(), 0);
    return Intern(Kind::kSub, a->width(), 0, {a, b});
}

ExprRef
ExprContext::MakeMul(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst())
        return MakeConst(a->width(), a->ConstValue() * b->ConstValue());
    if (b->IsConst() && b->ConstValue() == 0)
        return b;
    if (a->IsConst() && a->ConstValue() == 0)
        return a;
    if (b->IsConst() && b->ConstValue() == 1)
        return a;
    if (a->IsConst() && a->ConstValue() == 1)
        return b;
    return MakeBinary(Kind::kMul, a, b);
}

ExprRef
ExprContext::MakeUDiv(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst()) {
        // SMT-LIB: division by zero yields all-ones.
        const uint64_t d = b->ConstValue();
        return MakeConst(a->width(),
                         d == 0 ? WidthMask(a->width())
                                : a->ConstValue() / d);
    }
    if (b->IsConst() && b->ConstValue() == 1)
        return a;
    return Intern(Kind::kUDiv, a->width(), 0, {a, b});
}

ExprRef
ExprContext::MakeURem(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst()) {
        // SMT-LIB: remainder by zero yields the dividend.
        const uint64_t d = b->ConstValue();
        return MakeConst(a->width(),
                         d == 0 ? a->ConstValue() : a->ConstValue() % d);
    }
    if (b->IsConst() && b->ConstValue() == 1)
        return MakeConst(a->width(), 0);
    return Intern(Kind::kURem, a->width(), 0, {a, b});
}

ExprRef
ExprContext::MakeNeg(ExprRef a)
{
    return MakeSub(MakeConst(a->width(), 0), a);
}

ExprRef
ExprContext::MakeAnd(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst())
        return MakeConst(a->width(), a->ConstValue() & b->ConstValue());
    if (a == b)
        return a;
    const uint64_t mask = WidthMask(a->width());
    if (b->IsConst())
        return b->ConstValue() == 0 ? b
               : b->ConstValue() == mask ? a
               : MakeBinary(Kind::kAnd, a, b);
    if (a->IsConst())
        return a->ConstValue() == 0 ? a
               : a->ConstValue() == mask ? b
               : MakeBinary(Kind::kAnd, a, b);
    return MakeBinary(Kind::kAnd, a, b);
}

ExprRef
ExprContext::MakeOr(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst())
        return MakeConst(a->width(), a->ConstValue() | b->ConstValue());
    if (a == b)
        return a;
    const uint64_t mask = WidthMask(a->width());
    if (b->IsConst())
        return b->ConstValue() == mask ? b
               : b->ConstValue() == 0 ? a
               : MakeBinary(Kind::kOr, a, b);
    if (a->IsConst())
        return a->ConstValue() == mask ? a
               : a->ConstValue() == 0 ? b
               : MakeBinary(Kind::kOr, a, b);
    return MakeBinary(Kind::kOr, a, b);
}

ExprRef
ExprContext::MakeXor(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a->IsConst() && b->IsConst())
        return MakeConst(a->width(), a->ConstValue() ^ b->ConstValue());
    if (a == b)
        return MakeConst(a->width(), 0);
    if (b->IsConst() && b->ConstValue() == 0)
        return a;
    if (a->IsConst() && a->ConstValue() == 0)
        return b;
    return MakeBinary(Kind::kXor, a, b);
}

ExprRef
ExprContext::MakeNot(ExprRef a)
{
    if (a->IsConst())
        return MakeConst(a->width(), ~a->ConstValue());
    if (a->kind() == Kind::kNot)
        return a->kid(0);
    return Intern(Kind::kNot, a->width(), 0, {a});
}

ExprRef
ExprContext::MakeShl(ExprRef a, ExprRef amount)
{
    ACHILLES_CHECK(a->width() == amount->width());
    if (amount->IsConst()) {
        const uint64_t s = amount->ConstValue();
        if (s == 0)
            return a;
        if (s >= a->width())
            return MakeConst(a->width(), 0);
        if (a->IsConst())
            return MakeConst(a->width(), a->ConstValue() << s);
    }
    return Intern(Kind::kShl, a->width(), 0, {a, amount});
}

ExprRef
ExprContext::MakeLShr(ExprRef a, ExprRef amount)
{
    ACHILLES_CHECK(a->width() == amount->width());
    if (amount->IsConst()) {
        const uint64_t s = amount->ConstValue();
        if (s == 0)
            return a;
        if (s >= a->width())
            return MakeConst(a->width(), 0);
        if (a->IsConst())
            return MakeConst(a->width(), a->ConstValue() >> s);
    }
    return Intern(Kind::kLShr, a->width(), 0, {a, amount});
}

ExprRef
ExprContext::MakeAShr(ExprRef a, ExprRef amount)
{
    ACHILLES_CHECK(a->width() == amount->width());
    if (amount->IsConst()) {
        const uint64_t s = amount->ConstValue();
        if (s == 0)
            return a;
        if (a->IsConst()) {
            const int64_t sv = SignExtendTo64(a->ConstValue(), a->width());
            const uint64_t shifted =
                s >= 63 ? static_cast<uint64_t>(sv < 0 ? -1 : 0)
                        : static_cast<uint64_t>(sv >> s);
            return MakeConst(a->width(), shifted);
        }
        if (s >= a->width()) {
            // Result is a sign-fill of the MSB.
            ExprRef msb = MakeExtract(a, a->width() - 1, 1);
            return MakeSExt(msb, a->width());
        }
    }
    return Intern(Kind::kAShr, a->width(), 0, {a, amount});
}

ExprRef
ExprContext::MakeConcat(ExprRef high, ExprRef low)
{
    const uint32_t width = high->width() + low->width();
    ACHILLES_CHECK(width <= 64, "concat width overflow");
    if (high->IsConst() && low->IsConst()) {
        return MakeConst(width, (high->ConstValue() << low->width()) |
                                    low->ConstValue());
    }
    if (high->IsConst() && high->ConstValue() == 0)
        return MakeZExt(low, width);
    // Reassemble adjacent extracts of the same source:
    // concat(extract[k+n:+m](x), extract[k:+n](x)) == extract[k:+n+m](x).
    if (high->kind() == Kind::kExtract && low->kind() == Kind::kExtract &&
        high->kid(0) == low->kid(0) &&
        high->aux() == low->aux() + low->width()) {
        return MakeExtract(low->kid(0), static_cast<uint32_t>(low->aux()),
                           width);
    }
    return Intern(Kind::kConcat, width, 0, {high, low});
}

ExprRef
ExprContext::MakeExtract(ExprRef a, uint32_t offset, uint32_t width)
{
    ACHILLES_CHECK(offset + width <= a->width(), "extract out of range");
    if (offset == 0 && width == a->width())
        return a;
    if (a->IsConst())
        return MakeConst(width, a->ConstValue() >> offset);
    if (a->kind() == Kind::kConcat) {
        ExprRef high = a->kid(0);
        ExprRef low = a->kid(1);
        if (offset + width <= low->width())
            return MakeExtract(low, offset, width);
        if (offset >= low->width())
            return MakeExtract(high, offset - low->width(), width);
    }
    if (a->kind() == Kind::kZExt) {
        ExprRef inner = a->kid(0);
        if (offset + width <= inner->width())
            return MakeExtract(inner, offset, width);
        if (offset >= inner->width())
            return MakeConst(width, 0);
    }
    if (a->kind() == Kind::kExtract)
        return MakeExtract(a->kid(0),
                           static_cast<uint32_t>(a->aux()) + offset, width);
    return Intern(Kind::kExtract, width, offset, {a});
}

ExprRef
ExprContext::MakeZExt(ExprRef a, uint32_t width)
{
    ACHILLES_CHECK(width >= a->width());
    if (width == a->width())
        return a;
    if (a->IsConst())
        return MakeConst(width, a->ConstValue());
    if (a->kind() == Kind::kZExt)
        return MakeZExt(a->kid(0), width);
    return Intern(Kind::kZExt, width, 0, {a});
}

ExprRef
ExprContext::MakeSExt(ExprRef a, uint32_t width)
{
    ACHILLES_CHECK(width >= a->width());
    if (width == a->width())
        return a;
    if (a->IsConst()) {
        return MakeConst(width, static_cast<uint64_t>(SignExtendTo64(
                                    a->ConstValue(), a->width())));
    }
    if (a->kind() == Kind::kSExt)
        return MakeSExt(a->kid(0), width);
    return Intern(Kind::kSExt, width, 0, {a});
}

ExprRef
ExprContext::MakeEq(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a == b)
        return True();
    if (a->IsConst() && b->IsConst())
        return MakeBool(a->ConstValue() == b->ConstValue());
    // Boolean special cases: (x == true) -> x, (x == false) -> !x.
    if (a->width() == 1) {
        if (b->IsConst())
            return b->ConstValue() ? a : MakeNot(a);
        if (a->IsConst())
            return a->ConstValue() ? b : MakeNot(b);
    }
    // kEq result width is 1, not the operand width, so it cannot reuse
    // MakeBinary -- but it must apply the same structural (not pointer)
    // canonical operand order.
    ExprRef lo = a, hi = b;
    if (lo->IsConst() && !hi->IsConst())
        std::swap(lo, hi);
    else if (lo->IsConst() == hi->IsConst() &&
             StructuralCompare(hi, lo) < 0)
        std::swap(lo, hi);
    return Intern(Kind::kEq, 1, 0, {lo, hi});
}

ExprRef
ExprContext::MakeUlt(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a == b)
        return False();
    if (a->IsConst() && b->IsConst())
        return MakeBool(a->ConstValue() < b->ConstValue());
    if (b->IsConst() && b->ConstValue() == 0)
        return False();
    if (a->IsConst() && a->ConstValue() == WidthMask(a->width()))
        return False();
    return Intern(Kind::kUlt, 1, 0, {a, b});
}

ExprRef
ExprContext::MakeUle(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a == b)
        return True();
    if (a->IsConst() && b->IsConst())
        return MakeBool(a->ConstValue() <= b->ConstValue());
    if (a->IsConst() && a->ConstValue() == 0)
        return True();
    if (b->IsConst() && b->ConstValue() == WidthMask(b->width()))
        return True();
    return Intern(Kind::kUle, 1, 0, {a, b});
}

ExprRef
ExprContext::MakeSlt(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a == b)
        return False();
    if (a->IsConst() && b->IsConst()) {
        return MakeBool(SignExtendTo64(a->ConstValue(), a->width()) <
                        SignExtendTo64(b->ConstValue(), b->width()));
    }
    return Intern(Kind::kSlt, 1, 0, {a, b});
}

ExprRef
ExprContext::MakeSle(ExprRef a, ExprRef b)
{
    ACHILLES_CHECK(a->width() == b->width());
    if (a == b)
        return True();
    if (a->IsConst() && b->IsConst()) {
        return MakeBool(SignExtendTo64(a->ConstValue(), a->width()) <=
                        SignExtendTo64(b->ConstValue(), b->width()));
    }
    return Intern(Kind::kSle, 1, 0, {a, b});
}

ExprRef
ExprContext::MakeIte(ExprRef cond, ExprRef then_e, ExprRef else_e)
{
    ACHILLES_CHECK(cond->width() == 1);
    ACHILLES_CHECK(then_e->width() == else_e->width());
    if (cond->IsConst())
        return cond->ConstValue() ? then_e : else_e;
    if (then_e == else_e)
        return then_e;
    if (then_e->width() == 1) {
        // (ite c 1 0) -> c; (ite c 0 1) -> !c.
        if (then_e->IsTrue() && else_e->IsFalse())
            return cond;
        if (then_e->IsFalse() && else_e->IsTrue())
            return MakeNot(cond);
    }
    return Intern(Kind::kIte, then_e->width(), 0, {cond, then_e, else_e});
}

ExprRef
ExprContext::MakeAndList(const std::vector<ExprRef> &conjuncts)
{
    ExprRef acc = True();
    for (ExprRef e : conjuncts) {
        ACHILLES_CHECK(e->width() == 1);
        acc = MakeAnd(acc, e);
        if (acc->IsFalse())
            return acc;
    }
    return acc;
}

ExprRef
ExprContext::MakeOrList(const std::vector<ExprRef> &disjuncts)
{
    ExprRef acc = False();
    for (ExprRef e : disjuncts) {
        ACHILLES_CHECK(e->width() == 1);
        acc = MakeOr(acc, e);
        if (acc->IsTrue())
            return acc;
    }
    return acc;
}

void
ExprContext::CollectVars(ExprRef e, std::unordered_set<uint32_t> *out) const
{
    // Iterative DFS with a visited set keyed by node id; the DAG can be
    // deep for CRC-style accumulation chains.
    VarWalk &walk = ThreadVarWalk(e);
    while (!walk.stack.empty()) {
        ExprRef node = walk.stack.back();
        walk.stack.pop_back();
        if (walk.seen.Find(node->id()))
            continue;
        walk.seen.Set(node->id(), true);
        if (node->IsVar())
            out->insert(node->VarId());
        for (ExprRef kid : node->kids())
            walk.stack.push_back(kid);
    }
}

const std::vector<uint32_t> &
ExprContext::VarsOf(ExprRef e)
{
    auto it = var_sets_.find(e);
    if (it != var_sets_.end())
        return it->second;
    std::vector<uint32_t> vars;
    VarWalk &walk = ThreadVarWalk(e);
    while (!walk.stack.empty()) {
        ExprRef node = walk.stack.back();
        walk.stack.pop_back();
        // max_var_bound() == 0: a variable-free sub-DAG.
        if (node->max_var_bound() == 0 || walk.seen.Find(node->id()))
            continue;
        walk.seen.Set(node->id(), true);
        if (node->IsVar()) {
            vars.push_back(node->VarId());
            continue;
        }
        auto memo = var_sets_.find(node);
        if (memo != var_sets_.end()) {
            vars.insert(vars.end(), memo->second.begin(), memo->second.end());
            continue;
        }
        for (ExprRef kid : node->kids())
            walk.stack.push_back(kid);
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    vars.shrink_to_fit();
    return var_sets_.emplace(e, std::move(vars)).first->second;
}

ExprRef
ExprContext::Substitute(ExprRef e,
                        const std::unordered_map<uint32_t, ExprRef> &map)
{
    // Per-thread memo by node id, cleared per call: an entry never
    // outlives the call, so ids of another context cannot collide.
    thread_local StampTable<ExprRef> memo;
    memo.Clear();
    memo.Reserve(e->id() + size_t{1});
    // Recursive lambda with explicit memoization.
    auto rec = [&](auto &&self, ExprRef node) -> ExprRef {
        if (const ExprRef *hit = memo.Find(node->id()))
            return *hit;
        ExprRef result = node;
        if (node->IsVar()) {
            auto mit = map.find(node->VarId());
            if (mit != map.end()) {
                ACHILLES_CHECK(mit->second->width() == node->width(),
                               "substitution width mismatch");
                result = mit->second;
            }
        } else if (!node->kids().empty()) {
            ExprRef kids[3];
            bool changed = false;
            for (size_t i = 0; i < node->kids().size(); ++i) {
                const ExprRef kid = node->kid(i);
                kids[i] = self(self, kid);
                changed |= (kids[i] != kid);
            }
            if (changed) {
                switch (node->kind()) {
                  case Kind::kAdd: result = MakeAdd(kids[0], kids[1]); break;
                  case Kind::kSub: result = MakeSub(kids[0], kids[1]); break;
                  case Kind::kMul: result = MakeMul(kids[0], kids[1]); break;
                  case Kind::kUDiv:
                    result = MakeUDiv(kids[0], kids[1]);
                    break;
                  case Kind::kURem:
                    result = MakeURem(kids[0], kids[1]);
                    break;
                  case Kind::kAnd: result = MakeAnd(kids[0], kids[1]); break;
                  case Kind::kOr: result = MakeOr(kids[0], kids[1]); break;
                  case Kind::kXor: result = MakeXor(kids[0], kids[1]); break;
                  case Kind::kNot: result = MakeNot(kids[0]); break;
                  case Kind::kShl: result = MakeShl(kids[0], kids[1]); break;
                  case Kind::kLShr:
                    result = MakeLShr(kids[0], kids[1]);
                    break;
                  case Kind::kAShr:
                    result = MakeAShr(kids[0], kids[1]);
                    break;
                  case Kind::kConcat:
                    result = MakeConcat(kids[0], kids[1]);
                    break;
                  case Kind::kExtract:
                    result = MakeExtract(kids[0],
                                         static_cast<uint32_t>(node->aux()),
                                         node->width());
                    break;
                  case Kind::kZExt:
                    result = MakeZExt(kids[0], node->width());
                    break;
                  case Kind::kSExt:
                    result = MakeSExt(kids[0], node->width());
                    break;
                  case Kind::kEq: result = MakeEq(kids[0], kids[1]); break;
                  case Kind::kUlt: result = MakeUlt(kids[0], kids[1]); break;
                  case Kind::kUle: result = MakeUle(kids[0], kids[1]); break;
                  case Kind::kSlt: result = MakeSlt(kids[0], kids[1]); break;
                  case Kind::kSle: result = MakeSle(kids[0], kids[1]); break;
                  case Kind::kIte:
                    result = MakeIte(kids[0], kids[1], kids[2]);
                    break;
                  default:
                    ACHILLES_UNREACHABLE("substitute: bad kind");
                }
            }
        }
        memo.Set(node->id(), result);
        return result;
    };
    return rec(rec, e);
}

std::string
ExprContext::ToString(ExprRef e) const
{
    std::ostringstream os;
    auto rec = [&](auto &&self, ExprRef node, int depth) -> void {
        if (depth > 64) {
            os << "...";
            return;
        }
        switch (node->kind()) {
          case Kind::kConst:
            os << node->ConstValue() << ":" << node->width();
            return;
          case Kind::kVar:
            os << InfoOf(node->VarId()).name;
            return;
          case Kind::kExtract:
            os << "(extract[" << node->aux() << ":+" << node->width()
               << "] ";
            self(self, node->kid(0), depth + 1);
            os << ")";
            return;
          default:
            os << "(" << KindName(node->kind());
            if (node->kind() == Kind::kZExt || node->kind() == Kind::kSExt)
                os << node->width();
            for (ExprRef kid : node->kids()) {
                os << " ";
                self(self, kid, depth + 1);
            }
            os << ")";
            return;
        }
    };
    rec(rec, e, 0);
    return os.str();
}

}  // namespace smt
}  // namespace achilles
