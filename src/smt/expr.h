// Achilles reproduction -- SMT library.
//
// Hash-consed bitvector expression DAG. This is the reproduction's
// substitute for the expression layer of STP/Z3 that the paper relies on:
// path constraints, symbolic message buffers, client/server predicates and
// Trojan queries are all built from these nodes.
//
// Design notes (see DESIGN.md "Key design decisions"):
//  * Expressions are immutable and interned in an ExprContext, so
//    structural equality is pointer equality and sub-DAGs are shared
//    across path predicates (essential: thousands of client path
//    predicates share most of their structure).
//  * Each node has a dense id in its context (the n-th node interned gets
//    n), so the solver path keeps its per-node side tables in flat
//    arrays (smt/stamp_table.h) rather than hash maps.
//  * Booleans are width-1 bitvectors; kAnd/kOr/kNot on width 1 double as
//    the logical connectives.
//  * Widths are limited to 64 bits. Messages are modelled as arrays of
//    8-bit expressions rather than one wide bitvector, so the limit is
//    never binding in practice.

#ifndef ACHILLES_SMT_EXPR_H_
#define ACHILLES_SMT_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/logging.h"

namespace achilles {
namespace smt {

/** Operation performed by an expression node. */
enum class Kind : uint8_t {
    kConst,    ///< Literal bitvector value.
    kVar,      ///< Free symbolic variable.

    // Arithmetic (operands and result share a width).
    kAdd,
    kSub,
    kMul,
    kUDiv,     ///< Unsigned division; x/0 == all-ones (SMT-LIB).
    kURem,     ///< Unsigned remainder; x%0 == x (SMT-LIB).

    // Bitwise (width 1 doubles as the logical connectives).
    kAnd,
    kOr,
    kXor,
    kNot,

    // Shifts (shift amount is the second operand, same width).
    kShl,
    kLShr,
    kAShr,

    // Structural.
    kConcat,   ///< kids[0] is the high part, kids[1] the low part.
    kExtract,  ///< bits [offset, offset+width) of kids[0]; offset in aux.
    kZExt,     ///< zero-extend kids[0] to this node's width.
    kSExt,     ///< sign-extend kids[0] to this node's width.

    // Predicates (result width 1).
    kEq,
    kUlt,
    kUle,
    kSlt,
    kSle,

    kIte,      ///< kids[0] width-1 condition, kids[1]/kids[2] branches.
};

/** Human-readable mnemonic for a Kind. */
const char *KindName(Kind kind);

class Expr;
/** Expressions are interned; clients pass bare pointers owned by the
 *  ExprContext that created them. */
using ExprRef = const Expr *;

/** A node's kids (at most 3, stored in the node), as a read-only span. */
class KidSpan
{
  public:
    KidSpan(const ExprRef *data, size_t size) : data_(data), size_(size) {}
    const ExprRef *begin() const { return data_; }
    const ExprRef *end() const { return data_ + size_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    ExprRef operator[](size_t i) const { return data_[i]; }

  private:
    const ExprRef *data_;
    size_t size_;
};

/**
 * One immutable node in the expression DAG.
 *
 * Nodes are created only through ExprContext factory methods, which
 * canonicalize, constant-fold and intern them.
 */
class Expr
{
  public:
    Kind kind() const { return kind_; }
    /** Result width in bits (1..64). */
    uint32_t width() const { return width_; }
    /** Constant value (kConst), variable id (kVar) or extract offset. */
    uint64_t aux() const { return aux_; }
    KidSpan kids() const { return KidSpan(kids_, num_kids_); }
    ExprRef kid(size_t i) const { return kids_[i]; }
    /** Interning hash: of kind, width, aux and the kids' addresses. */
    size_t hash() const { return hash_; }

    /**
     * Dense index in the owning context: the n-th node interned there
     * gets n, so every node of a DAG has an id no larger than its
     * root's. Ids restart at 0 in every context; a table indexed by them
     * must not mix contexts (see StampTable).
     */
    uint32_t id() const { return id_; }

    /**
     * Context-independent structural fingerprint: a function of kind,
     * width, aux (constant value / variable id / extract offset) and the
     * kids' fingerprints only -- never of pointer values. Two nodes built
     * in different ExprContexts from id-aligned variables get the same
     * fingerprint, which is what lets the parallel exploration subsystem
     * canonicalize operand order and sort solver assertions identically
     * on every worker.
     */
    uint64_t struct_hash() const { return struct_hash_; }
    /** Max variable id occurring in this DAG, plus 1 (0 = no vars). */
    uint32_t max_var_bound() const { return max_var_bound_; }

    bool IsConst() const { return kind_ == Kind::kConst; }
    bool IsVar() const { return kind_ == Kind::kVar; }
    /** True iff this is the width-1 constant 1. */
    bool IsTrue() const { return IsConst() && width_ == 1 && aux_ == 1; }
    /** True iff this is the width-1 constant 0. */
    bool IsFalse() const { return IsConst() && width_ == 1 && aux_ == 0; }
    bool IsBool() const { return width_ == 1; }

    /** Constant value; only valid for kConst nodes. */
    uint64_t
    ConstValue() const
    {
        ACHILLES_CHECK(IsConst());
        return aux_;
    }

    /** Variable id; only valid for kVar nodes. */
    uint32_t
    VarId() const
    {
        ACHILLES_CHECK(IsVar());
        return static_cast<uint32_t>(aux_);
    }

  private:
    friend class ExprContext;

    Expr(Kind kind, uint32_t width, uint64_t aux,
         std::initializer_list<ExprRef> kids, size_t hash, uint32_t id);

    Kind kind_;
    uint8_t num_kids_;
    uint32_t width_;
    uint64_t aux_;
    ExprRef kids_[3];
    size_t hash_;
    uint64_t struct_hash_;
    uint32_t max_var_bound_;
    uint32_t id_;
};

/**
 * Deterministic, context-independent total order on expressions:
 * fingerprint order with a full structural walk as tie-break. Returns
 * <0, 0, >0. Used to canonicalize commutative operands and to order
 * solver assertions identically on every worker context.
 */
int StructuralCompare(ExprRef a, ExprRef b);

/** Metadata for one symbolic variable. */
struct VarInfo
{
    std::string name;
    uint32_t width = 0;
};

/** All-ones mask for a width in [1, 64]. */
inline uint64_t
WidthMask(uint32_t width)
{
    return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

/** Sign-extend a width-bit value to 64 bits. */
inline int64_t
SignExtendTo64(uint64_t value, uint32_t width)
{
    const uint64_t masked = value & WidthMask(width);
    if (width >= 64 || !(masked >> (width - 1)))
        return static_cast<int64_t>(masked);
    return static_cast<int64_t>(masked | ~WidthMask(width));
}

/**
 * Factory and interning arena for expressions.
 *
 * The context owns every node it creates; node lifetime is the context
 * lifetime. A single context backs one Achilles analysis run (client
 * extraction, preprocessing and server exploration share nodes).
 */
class ExprContext
{
  public:
    ExprContext();
    ExprContext(const ExprContext &) = delete;
    ExprContext &operator=(const ExprContext &) = delete;

    // -- Leaves ------------------------------------------------------

    /** Bitvector constant of the given width. */
    ExprRef MakeConst(uint32_t width, uint64_t value);
    /** Width-1 constant from a bool. */
    ExprRef MakeBool(bool value) { return MakeConst(1, value ? 1 : 0); }
    ExprRef True() { return true_; }
    ExprRef False() { return false_; }

    /**
     * Create a fresh symbolic variable. Each call returns a distinct
     * variable; `base` is only a label (the final name is unique).
     */
    ExprRef FreshVar(const std::string &base, uint32_t width);
    /** Look up an existing variable node by id. */
    ExprRef VarById(uint32_t id) const;
    const VarInfo &InfoOf(uint32_t var_id) const;
    uint32_t NumVars() const { return static_cast<uint32_t>(vars_.size()); }

    // -- Arithmetic ---------------------------------------------------

    ExprRef MakeAdd(ExprRef a, ExprRef b);
    ExprRef MakeSub(ExprRef a, ExprRef b);
    ExprRef MakeMul(ExprRef a, ExprRef b);
    ExprRef MakeUDiv(ExprRef a, ExprRef b);
    ExprRef MakeURem(ExprRef a, ExprRef b);
    /** Two's-complement negation (0 - a). */
    ExprRef MakeNeg(ExprRef a);

    // -- Bitwise ------------------------------------------------------

    ExprRef MakeAnd(ExprRef a, ExprRef b);
    ExprRef MakeOr(ExprRef a, ExprRef b);
    ExprRef MakeXor(ExprRef a, ExprRef b);
    ExprRef MakeNot(ExprRef a);

    ExprRef MakeShl(ExprRef a, ExprRef amount);
    ExprRef MakeLShr(ExprRef a, ExprRef amount);
    ExprRef MakeAShr(ExprRef a, ExprRef amount);

    // -- Structural ---------------------------------------------------

    /** Concatenate: `high` occupies the most significant bits. */
    ExprRef MakeConcat(ExprRef high, ExprRef low);
    /** Extract bits [offset, offset+width) of a. */
    ExprRef MakeExtract(ExprRef a, uint32_t offset, uint32_t width);
    ExprRef MakeZExt(ExprRef a, uint32_t width);
    ExprRef MakeSExt(ExprRef a, uint32_t width);

    // -- Predicates (width-1 results) ----------------------------------

    ExprRef MakeEq(ExprRef a, ExprRef b);
    ExprRef MakeNe(ExprRef a, ExprRef b) { return MakeNot(MakeEq(a, b)); }
    ExprRef MakeUlt(ExprRef a, ExprRef b);
    ExprRef MakeUle(ExprRef a, ExprRef b);
    ExprRef MakeUgt(ExprRef a, ExprRef b) { return MakeUlt(b, a); }
    ExprRef MakeUge(ExprRef a, ExprRef b) { return MakeUle(b, a); }
    ExprRef MakeSlt(ExprRef a, ExprRef b);
    ExprRef MakeSle(ExprRef a, ExprRef b);
    ExprRef MakeSgt(ExprRef a, ExprRef b) { return MakeSlt(b, a); }
    ExprRef MakeSge(ExprRef a, ExprRef b) { return MakeSle(b, a); }

    ExprRef MakeIte(ExprRef cond, ExprRef then_e, ExprRef else_e);

    /** Conjoin a list of width-1 expressions (True for an empty list). */
    ExprRef MakeAndList(const std::vector<ExprRef> &conjuncts);
    /** Disjoin a list of width-1 expressions (False for an empty list). */
    ExprRef MakeOrList(const std::vector<ExprRef> &disjuncts);

    /** Number of distinct live nodes (for stats / tests); the next
     *  node interned gets this id. */
    size_t NumNodes() const { return num_nodes_; }

    /** Collect the set of variable ids appearing in `e`. The walk's
     *  visited set is per-thread scratch, cleared per call. */
    void CollectVars(ExprRef e, std::unordered_set<uint32_t> *out) const;

    /**
     * The sorted, duplicate-free ids of the variables appearing in `e`,
     * memoized per node asked about: the first call walks e's DAG
     * (taking the sets of memoized sub-nodes whole), later calls are one
     * lookup. The reference stays valid for the context's lifetime.
     */
    const std::vector<uint32_t> &VarsOf(ExprRef e);

    /**
     * Substitute variables in `e` according to `map` (var id -> expr).
     * Unmapped variables are left untouched. Used by the negate
     * operator's exact fast path, by predicate renaming and by the
     * solver's equality substitution. The walk memoizes per node in
     * per-thread scratch indexed by Expr::id(), cleared per call.
     */
    ExprRef Substitute(ExprRef e,
                       const std::unordered_map<uint32_t, ExprRef> &map);

    /** Render an expression as a compact s-expression string. */
    std::string ToString(ExprRef e) const;

  private:
    /** The node (kind, width, aux, kids), looked up first and created
     *  only if it is new. */
    ExprRef Intern(Kind kind, uint32_t width, uint64_t aux,
                   std::initializer_list<ExprRef> kids);
    ExprRef MakeBinary(Kind kind, ExprRef a, ExprRef b);
    /** Storage for the next node, from the current chunk. */
    void *NextNodeSlot();
    /** Doubles the intern table and re-inserts every node. */
    void GrowTable();

    /** Raw storage for one node; nodes are placed in chunks of these. */
    struct alignas(Expr) NodeSlot
    {
        unsigned char bytes[sizeof(Expr)];
    };

    /** Every node, in chunks that double from 16 to 1,024 nodes; a
     *  node never moves. */
    std::vector<std::unique_ptr<NodeSlot[]>> chunks_;
    NodeSlot *chunk_next_ = nullptr;
    size_t chunk_free_ = 0;
    size_t num_nodes_ = 0;
    /** Open-addressing intern table of node pointers, probed linearly
     *  from Expr::hash(); a power of two, at most half full. It starts
     *  at 64 slots: a context holds from a few dozen nodes to tens of
     *  thousands. */
    std::vector<const Expr *> table_;
    std::vector<VarInfo> vars_;
    std::vector<ExprRef> var_nodes_;
    /** VarsOf's memo. */
    std::unordered_map<const Expr *, std::vector<uint32_t>> var_sets_;
    ExprRef true_ = nullptr;
    ExprRef false_ = nullptr;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_EXPR_H_
