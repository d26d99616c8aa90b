// Achilles reproduction -- SMT library.
//
// Bit-blasting of bitvector expressions to CNF over a SatSolver, the way
// STP lowers QF_BV queries. Each expression node maps to a little-endian
// vector of SAT literals; gates are Tseitin-encoded with structural
// hashing at both the expression level (hash-consed DAG) and the gate
// level (AND/OR/XOR gate cache).

#ifndef ACHILLES_SMT_BITBLAST_H_
#define ACHILLES_SMT_BITBLAST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/sat.h"
#include "smt/stamp_table.h"

namespace achilles {
namespace smt {

/**
 * Bit-blaster for one SAT instance.
 *
 * Owns the mapping from expression nodes to literal vectors. Multiple
 * assertions may be blasted into the same SatSolver; shared sub-DAGs are
 * encoded once. The mapping lives in flat tables: every node's literals
 * sit back to back in one pool, a StampTable indexed by Expr::id() holds
 * each node's offset in it, and the gate cache is an open-addressing
 * table. So every expression asserted between two Resets must come from
 * one ExprContext, whose node ids the tables are indexed by.
 */
class BitBlaster
{
  public:
    /** Blasts into `solver`; its next var (var 0 if it is empty)
     *  becomes the true literal. */
    explicit BitBlaster(SatSolver *solver);

    /**
     * Reset the SatSolver, forget every encoding in O(1) (the node and
     * gate tables start a new epoch, and the literal pool and the list
     * of blasted variables are emptied; all keep their capacity), and
     * make var 0 the true literal again: the pair is then in its
     * just-constructed state, so the next instance gets the CNF
     * numbering, clause order and model a new pair would give it.
     */
    void Reset();

    /** Assert a width-1 expression as a unit constraint. */
    void AssertTrue(ExprRef e);

    /**
     * After a kSat Solve, set in `model` the value of every symbolic
     * variable blasted since construction or Reset -- every variable of
     * the asserted expressions.
     */
    void ExtractModel(Model *model) const;

    /** True literal (always-satisfied). */
    Lit TrueLit() const { return true_lit_; }

  private:
    /**
     * The gate cache: an open-addressing map from a gate's key (its tag
     * and input literal codes) to its output literal, probed linearly.
     * Its slots are a StampTable indexed by probe position, so Clear()
     * is O(1); it doubles when half full.
     */
    class GateTable
    {
      public:
        /** The output cached for `key`, or null. */
        const Lit *Find(uint64_t key) const;
        /** Cache `out` for `key`, which must be absent. */
        void Insert(uint64_t key, Lit out);
        void
        Clear()
        {
            slots_.Clear();
            size_ = 0;
        }

      private:
        struct Entry
        {
            uint64_t key;
            Lit out;
        };
        size_t Home(uint64_t key) const;
        void Grow();

        StampTable<Entry> slots_;
        size_t size_ = 0;
    };

    Lit NewLit();
    Lit AndGate(Lit a, Lit b);
    Lit OrGate(Lit a, Lit b);
    Lit XorGate(Lit a, Lit b);
    Lit MuxGate(Lit sel, Lit then_l, Lit else_l);
    Lit EqGate(Lit a, Lit b) { return ~XorGate(a, b); }
    /** (sum, carry) of a full adder. */
    std::pair<Lit, Lit> FullAdder(Lit a, Lit b, Lit cin);

    /** Offset in pool_ of e's bits (LSB first), blasting e and the
     *  kids it needs if this instance has not. */
    uint32_t Blast(ExprRef e);
    /** e's bits into out_, from its kids' bits at pool_ offsets
     *  `kid_bits`. Blasts nothing, so pool_ stays put meanwhile. */
    void Encode(ExprRef e, const uint32_t *kid_bits);
    /** out[0..w) = a + b + cin; `out` may be `a`. */
    void AddVectors(const Lit *a, const Lit *b, size_t w, Lit cin, Lit *out);
    Lit UltVector(const Lit *a, const Lit *b, size_t w);
    void ShiftVector(Kind kind, const Lit *in, const Lit *amount, size_t w,
                     std::vector<Lit> *out);
    void DivRem(const Lit *a, const Lit *b, size_t w, bool want_quotient,
                std::vector<Lit> *out);

    /** The literals at `at` in pool_, valid until pool_ grows. */
    const Lit *Bits(uint32_t at) const { return pool_.data() + at; }
    bool IsTrueLit(Lit l) const { return l == true_lit_; }
    bool IsFalseLit(Lit l) const { return l == ~true_lit_; }
    Lit ConstLit(bool b) const { return b ? true_lit_ : ~true_lit_; }

    SatSolver *solver_;
    Lit true_lit_;
    /** Every blasted node's bits, back to back. */
    std::vector<Lit> pool_;
    /** Expr::id() -> offset of the node's bits in pool_. */
    StampTable<uint32_t> node_bits_;
    /** The variables blasted, with their bits' offsets in pool_: what
     *  ExtractModel reads. */
    std::vector<std::pair<ExprRef, uint32_t>> vars_;
    GateTable gates_;
    /** The node Encode is building, and operand scratch. */
    std::vector<Lit> out_;
    std::vector<Lit> lhs_;
    std::vector<Lit> rhs_;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_BITBLAST_H_
