// Achilles reproduction -- SMT library.
//
// Flat side tables for the solver path. The bit-blaster, Substitute,
// Evaluate and the variable walks each keep one entry per expression
// node they visit, and start empty on every query or call. A hash map
// pays for that with an allocation per entry and a clear that touches
// every bucket; these tables are indexed by a dense id (Expr::id(), a
// probe position) and forget everything in O(1), the way STP's
// bit-blaster and MiniSat's seen-arrays keep theirs.

#ifndef ACHILLES_SMT_STAMP_TABLE_H_
#define ACHILLES_SMT_STAMP_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace achilles {
namespace smt {

/**
 * A table of T indexed by a dense id, emptied in O(1) by Clear().
 *
 * Each slot keeps the epoch it was written in, and a slot from an older
 * epoch reads as absent. Clear() starts a new epoch; when the 32-bit
 * epoch wraps, it zeroes every stamp once, so a slot written 2^32
 * epochs ago cannot pass for a new one. Slots are added as ids grow and
 * kept for reuse.
 *
 * A table may hold ids of different ExprContexts over its life (node
 * ids restart at 0 in every context), so its owner clears it whenever
 * the context can change: per query or per call.
 */
template <typename T>
class StampTable
{
  public:
    /** Forget every entry. */
    void
    Clear()
    {
        if (++epoch_ != 0)
            return;
        for (Slot &slot : slots_)
            slot.stamp = 0;
        epoch_ = 1;
    }

    /** The entry of `id`, or null if it has none this epoch. */
    const T *
    Find(size_t id) const
    {
        return id < slots_.size() && slots_[id].stamp == epoch_
                   ? &slots_[id].value
                   : nullptr;
    }

    /** Give `id` the entry `value`, growing the table if needed. */
    void
    Set(size_t id, const T &value)
    {
        if (id >= slots_.size())
            slots_.resize(id + 1);
        slots_[id].stamp = epoch_;
        slots_[id].value = value;
    }

    /** Make room for ids below `n` (new slots are empty). */
    void
    Reserve(size_t n)
    {
        if (slots_.size() < n)
            slots_.resize(n);
    }

    /** Ids below this have a slot. */
    size_t capacity() const { return slots_.size(); }

  private:
    friend struct StampTablePeer;  // tests start an epoch near the wrap

    struct Slot
    {
        uint32_t stamp = 0;  // 0: never written since the last wrap
        T value{};
    };

    std::vector<Slot> slots_;
    uint32_t epoch_ = 1;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_STAMP_TABLE_H_
