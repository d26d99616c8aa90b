// Achilles reproduction -- SMT library.
//
// Bit-blasting implementation.

#include "smt/bitblast.h"

#include <algorithm>

#include "support/hash.h"

namespace achilles {
namespace smt {

namespace {

/** Pack a gate cache key from a tag and two literal codes. */
uint64_t
GateKey(uint32_t tag, Lit a, Lit b)
{
    // Commutative gates are normalized by the caller.
    return (static_cast<uint64_t>(tag) << 58) |
           (static_cast<uint64_t>(a.code()) << 29) |
           static_cast<uint64_t>(b.code());
}

}  // namespace

size_t
BitBlaster::GateTable::Home(uint64_t key) const
{
    return static_cast<size_t>(MixBits(key)) & (slots_.capacity() - 1);
}

const Lit *
BitBlaster::GateTable::Find(uint64_t key) const
{
    if (slots_.capacity() == 0)
        return nullptr;
    const size_t mask = slots_.capacity() - 1;
    for (size_t pos = Home(key);; pos = (pos + 1) & mask) {
        const Entry *entry = slots_.Find(pos);
        if (entry == nullptr)
            return nullptr;
        if (entry->key == key)
            return &entry->out;
    }
}

void
BitBlaster::GateTable::Insert(uint64_t key, Lit out)
{
    if (2 * (size_ + 1) > slots_.capacity())
        Grow();
    const size_t mask = slots_.capacity() - 1;
    size_t pos = Home(key);
    while (slots_.Find(pos) != nullptr)
        pos = (pos + 1) & mask;
    slots_.Set(pos, Entry{key, out});
    ++size_;
}

void
BitBlaster::GateTable::Grow()
{
    StampTable<Entry> old;
    std::swap(old, slots_);
    slots_.Reserve(std::max<size_t>(64, 2 * old.capacity()));
    size_ = 0;
    for (size_t pos = 0; pos < old.capacity(); ++pos) {
        if (const Entry *entry = old.Find(pos))
            Insert(entry->key, entry->out);
    }
}

BitBlaster::BitBlaster(SatSolver *solver) : solver_(solver)
{
    true_lit_ = NewLit();
    solver_->AddUnit(true_lit_);
}

void
BitBlaster::Reset()
{
    solver_->Reset();
    pool_.clear();
    node_bits_.Clear();
    vars_.clear();
    gates_.Clear();
    true_lit_ = NewLit();
    solver_->AddUnit(true_lit_);
}

Lit
BitBlaster::NewLit()
{
    return Lit(solver_->NewVar(), false);
}

Lit
BitBlaster::AndGate(Lit a, Lit b)
{
    if (IsFalseLit(a) || IsFalseLit(b))
        return ConstLit(false);
    if (IsTrueLit(a))
        return b;
    if (IsTrueLit(b))
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return ConstLit(false);
    if (b.code() < a.code())
        std::swap(a, b);
    const uint64_t key = GateKey(1, a, b);
    if (const Lit *cached = gates_.Find(key))
        return *cached;
    const Lit o = NewLit();
    solver_->AddBinary(~o, a);
    solver_->AddBinary(~o, b);
    solver_->AddTernary(o, ~a, ~b);
    gates_.Insert(key, o);
    return o;
}

Lit
BitBlaster::OrGate(Lit a, Lit b)
{
    return ~AndGate(~a, ~b);
}

Lit
BitBlaster::XorGate(Lit a, Lit b)
{
    if (IsFalseLit(a))
        return b;
    if (IsFalseLit(b))
        return a;
    if (IsTrueLit(a))
        return ~b;
    if (IsTrueLit(b))
        return ~a;
    if (a == b)
        return ConstLit(false);
    if (a == ~b)
        return ConstLit(true);
    // Normalize: smaller positive-form code first; fold sign into output.
    bool flip = false;
    if (a.negated()) {
        a = ~a;
        flip = !flip;
    }
    if (b.negated()) {
        b = ~b;
        flip = !flip;
    }
    if (b.code() < a.code())
        std::swap(a, b);
    const uint64_t key = GateKey(2, a, b);
    Lit o;
    if (const Lit *cached = gates_.Find(key)) {
        o = *cached;
    } else {
        o = NewLit();
        solver_->AddTernary(~o, a, b);
        solver_->AddTernary(~o, ~a, ~b);
        solver_->AddTernary(o, ~a, b);
        solver_->AddTernary(o, a, ~b);
        gates_.Insert(key, o);
    }
    return flip ? ~o : o;
}

Lit
BitBlaster::MuxGate(Lit sel, Lit then_l, Lit else_l)
{
    if (IsTrueLit(sel))
        return then_l;
    if (IsFalseLit(sel))
        return else_l;
    if (then_l == else_l)
        return then_l;
    if (IsTrueLit(then_l) && IsFalseLit(else_l))
        return sel;
    if (IsFalseLit(then_l) && IsTrueLit(else_l))
        return ~sel;
    const Lit o = NewLit();
    solver_->AddTernary(~sel, ~then_l, o);
    solver_->AddTernary(~sel, then_l, ~o);
    solver_->AddTernary(sel, ~else_l, o);
    solver_->AddTernary(sel, else_l, ~o);
    return o;
}

std::pair<Lit, Lit>
BitBlaster::FullAdder(Lit a, Lit b, Lit cin)
{
    const Lit axb = XorGate(a, b);
    const Lit sum = XorGate(axb, cin);
    // The carry's two AND gates, (axb & cin) first: the order numbers
    // the CNF (see Blast).
    const Lit carry_in = AndGate(axb, cin);
    const Lit carry_gen = AndGate(a, b);
    return {sum, OrGate(carry_gen, carry_in)};
}

void
BitBlaster::AddVectors(const Lit *a, const Lit *b, size_t w, Lit cin,
                       Lit *out)
{
    Lit carry = cin;
    for (size_t i = 0; i < w; ++i) {
        auto [sum, cout] = FullAdder(a[i], b[i], carry);
        out[i] = sum;
        carry = cout;
    }
}

Lit
BitBlaster::UltVector(const Lit *a, const Lit *b, size_t w)
{
    // Ripple comparison from LSB: lt' = (~a & b) | ((a == b) & lt).
    Lit lt = ConstLit(false);
    for (size_t i = 0; i < w; ++i) {
        const Lit less_here = AndGate(~a[i], b[i]);
        const Lit eq_here = EqGate(a[i], b[i]);
        lt = OrGate(less_here, AndGate(eq_here, lt));
    }
    return lt;
}

void
BitBlaster::ShiftVector(Kind kind, const Lit *in, const Lit *amount,
                        size_t w, std::vector<Lit> *out)
{
    const Lit fill_base = kind == Kind::kAShr ? in[w - 1] : ConstLit(false);
    std::vector<Lit> acc(in, in + w);
    std::vector<Lit> shifted(w);
    // Barrel stages for amount bits that denote in-range distances.
    for (size_t k = 0; k < w && (1ull << k) < w; ++k) {
        const size_t dist = 1ull << k;
        for (size_t i = 0; i < w; ++i) {
            Lit src;
            if (kind == Kind::kShl)
                src = i >= dist ? acc[i - dist] : ConstLit(false);
            else
                src = i + dist < w ? acc[i + dist] : fill_base;
            shifted[i] = MuxGate(amount[k], src, acc[i]);
        }
        acc.swap(shifted);
    }
    // If any amount bit at or above log2(w) is set (or the low bits
    // encode a distance >= w), the result is all-fill. The barrel stages
    // above already handle distances < w; compute an "out of range" flag
    // for amount >= w.
    Lit oor = ConstLit(false);
    for (size_t k = 0; k < w; ++k) {
        if ((1ull << k) >= w)
            oor = OrGate(oor, amount[k]);
    }
    // Low-bit combinations never exceed w-1 when w is a power of two;
    // for non-power-of-two widths compare the low field against w.
    size_t covered_bits = 0;
    while ((1ull << covered_bits) < w)
        ++covered_bits;
    if ((1ull << covered_bits) != w && covered_bits <= w) {
        // amount_low >= w?
        std::vector<Lit> wconst(covered_bits);
        for (size_t i = 0; i < covered_bits; ++i)
            wconst[i] = ConstLit((w >> i) & 1);
        const Lit low_lt_w = UltVector(amount, wconst.data(), covered_bits);
        oor = OrGate(oor, ~low_lt_w);
    }
    out->resize(w);
    for (size_t i = 0; i < w; ++i)
        (*out)[i] = MuxGate(oor, fill_base, acc[i]);
}

void
BitBlaster::DivRem(const Lit *a, const Lit *b, size_t w, bool want_quotient,
                   std::vector<Lit> *out)
{
    // Restoring division with a (w+1)-bit partial remainder.
    std::vector<Lit> rem(w + 1, ConstLit(false));
    std::vector<Lit> bext(b, b + w);
    bext.push_back(ConstLit(false));
    std::vector<Lit> neg_b(w + 1);
    for (size_t i = 0; i <= w; ++i)
        neg_b[i] = ~bext[i];
    std::vector<Lit> diff(w + 1);
    std::vector<Lit> q(w, ConstLit(false));
    for (size_t step = 0; step < w; ++step) {
        const size_t bit = w - 1 - step;
        // rem = (rem << 1) | a[bit], dropping the top bit (it is always
        // zero before the shift because rem < b <= 2^w - 1).
        for (size_t i = w; i > 0; --i)
            rem[i] = rem[i - 1];
        rem[0] = a[bit];
        // geq = rem >= bext
        const Lit geq = ~UltVector(rem.data(), bext.data(), w + 1);
        // rem = geq ? rem - bext : rem
        AddVectors(rem.data(), neg_b.data(), w + 1, ConstLit(true),
                   diff.data());
        for (size_t i = 0; i <= w; ++i)
            rem[i] = MuxGate(geq, diff[i], rem[i]);
        q[bit] = geq;
    }
    if (want_quotient)
        out->assign(q.begin(), q.end());
    else
        out->assign(rem.begin(), rem.begin() + w);
    // SMT-LIB semantics for division by zero (x/0 = all-ones, x%0 = x)
    // fall out of the circuit: with b == 0, geq is always true and the
    // subtraction is a no-op, so q = ~0 and rem = a.
}

uint32_t
BitBlaster::Blast(ExprRef e)
{
    if (const uint32_t *at = node_bits_.Find(e->id()))
        return *at;
    // Kids first, in a fixed order, since it numbers the CNF
    // (tests/test_smt_bitblast.cc pins it): kid 1 before kid 0 for
    // these kinds, kid order for the rest.
    uint32_t kid_bits[3] = {0, 0, 0};
    switch (e->kind()) {
      case Kind::kAdd:
      case Kind::kSub:
      case Kind::kUDiv:
      case Kind::kURem:
      case Kind::kShl:
      case Kind::kLShr:
      case Kind::kAShr:
      case Kind::kUlt:
        kid_bits[1] = Blast(e->kid(1));
        kid_bits[0] = Blast(e->kid(0));
        break;
      default:
        for (size_t i = 0; i < e->kids().size(); ++i)
            kid_bits[i] = Blast(e->kid(i));
        break;
    }
    Encode(e, kid_bits);
    ACHILLES_CHECK(out_.size() == e->width(), "blast width mismatch");
    const uint32_t at = static_cast<uint32_t>(pool_.size());
    pool_.insert(pool_.end(), out_.begin(), out_.end());
    node_bits_.Set(e->id(), at);
    if (e->IsVar())
        vars_.emplace_back(e, at);
    return at;
}

void
BitBlaster::Encode(ExprRef e, const uint32_t *kid_bits)
{
    const uint32_t w = e->width();
    const size_t num_kids = e->kids().size();
    const Lit *a = num_kids > 0 ? Bits(kid_bits[0]) : nullptr;
    const Lit *b = num_kids > 1 ? Bits(kid_bits[1]) : nullptr;
    // Operand width: differs from w for extensions and predicates.
    const uint32_t kw = num_kids > 0 ? e->kid(0)->width() : w;
    out_.clear();
    switch (e->kind()) {
      case Kind::kConst:
        for (uint32_t i = 0; i < w; ++i)
            out_.push_back(ConstLit((e->ConstValue() >> i) & 1));
        return;
      case Kind::kVar:
        for (uint32_t i = 0; i < w; ++i)
            out_.push_back(NewLit());
        return;
      case Kind::kAdd:
        out_.resize(w);
        AddVectors(a, b, w, ConstLit(false), out_.data());
        return;
      case Kind::kSub:
        rhs_.resize(w);
        for (uint32_t i = 0; i < w; ++i)
            rhs_[i] = ~b[i];
        out_.resize(w);
        AddVectors(a, rhs_.data(), w, ConstLit(true), out_.data());
        return;
      case Kind::kMul: {
        out_.assign(w, ConstLit(false));
        std::vector<Lit> &partial = rhs_;
        for (uint32_t i = 0; i < w; ++i) {
            if (IsFalseLit(b[i]))
                continue;
            // out += (a << i) & replicate(b[i])
            partial.assign(w, ConstLit(false));
            for (uint32_t j = i; j < w; ++j)
                partial[j] = AndGate(a[j - i], b[i]);
            AddVectors(out_.data(), partial.data(), w, ConstLit(false),
                       out_.data());
        }
        return;
      }
      case Kind::kUDiv:
      case Kind::kURem:
        DivRem(a, b, w, e->kind() == Kind::kUDiv, &out_);
        return;
      case Kind::kAnd:
        for (uint32_t i = 0; i < w; ++i)
            out_.push_back(AndGate(a[i], b[i]));
        return;
      case Kind::kOr:
        for (uint32_t i = 0; i < w; ++i)
            out_.push_back(OrGate(a[i], b[i]));
        return;
      case Kind::kXor:
        for (uint32_t i = 0; i < w; ++i)
            out_.push_back(XorGate(a[i], b[i]));
        return;
      case Kind::kNot:
        for (uint32_t i = 0; i < w; ++i)
            out_.push_back(~a[i]);
        return;
      case Kind::kShl:
      case Kind::kLShr:
      case Kind::kAShr:
        ShiftVector(e->kind(), a, b, w, &out_);
        return;
      case Kind::kConcat:
        // kid 0 is the high part, kid 1 the low part.
        out_.assign(b, b + e->kid(1)->width());
        out_.insert(out_.end(), a, a + kw);
        return;
      case Kind::kExtract: {
        const uint32_t off = static_cast<uint32_t>(e->aux());
        out_.assign(a + off, a + off + w);
        return;
      }
      case Kind::kZExt:
        out_.assign(a, a + kw);
        out_.resize(w, ConstLit(false));
        return;
      case Kind::kSExt:
        out_.assign(a, a + kw);
        out_.resize(w, a[kw - 1]);
        return;
      case Kind::kEq: {
        Lit acc = ConstLit(true);
        for (uint32_t i = 0; i < kw; ++i)
            acc = AndGate(acc, EqGate(a[i], b[i]));
        out_.push_back(acc);
        return;
      }
      case Kind::kUlt:
        out_.push_back(UltVector(a, b, kw));
        return;
      case Kind::kUle:
        out_.push_back(~UltVector(b, a, kw));
        return;
      case Kind::kSlt:
      case Kind::kSle:
        // Flip the sign bits: signed order becomes unsigned order.
        lhs_.assign(a, a + kw);
        rhs_.assign(b, b + kw);
        lhs_.back() = ~lhs_.back();
        rhs_.back() = ~rhs_.back();
        if (e->kind() == Kind::kSlt)
            out_.push_back(UltVector(lhs_.data(), rhs_.data(), kw));
        else
            out_.push_back(~UltVector(rhs_.data(), lhs_.data(), kw));
        return;
      case Kind::kIte: {
        const Lit cond = a[0];
        const Lit *then_bits = b;
        const Lit *else_bits = Bits(kid_bits[2]);
        for (uint32_t i = 0; i < w; ++i)
            out_.push_back(MuxGate(cond, then_bits[i], else_bits[i]));
        return;
      }
    }
    ACHILLES_UNREACHABLE("blast: bad kind");
}

void
BitBlaster::AssertTrue(ExprRef e)
{
    ACHILLES_CHECK(e->width() == 1, "asserting non-boolean");
    // Every node of e's DAG has an id no larger than e's.
    node_bits_.Reserve(e->id() + size_t{1});
    const Lit bit = pool_[Blast(e)];
    solver_->AddUnit(bit);
}

void
BitBlaster::ExtractModel(Model *model) const
{
    for (const auto &[var, at] : vars_) {
        const Lit *bits = Bits(at);
        uint64_t value = 0;
        for (uint32_t i = 0; i < var->width(); ++i) {
            const Lit l = bits[i];
            const bool bit = solver_->Value(l.var()) != l.negated();
            value |= static_cast<uint64_t>(bit) << i;
        }
        model->Set(var->VarId(), value);
    }
}

}  // namespace smt
}  // namespace achilles
