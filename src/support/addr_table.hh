/**
 * @file
 * A flat open-addressing table keyed by 64-bit code addresses.
 *
 * The analyzer's hot loops look up code addresses (block starts,
 * branch sources) once per LBR stream or stack slot — hundreds of
 * thousands of times per analysis. A linear-probing array of
 * {key, value} slots kept at most half full answers in one or two
 * cache lines, where std::unordered_map chases a node pointer per
 * lookup. Keys are never erased.
 *
 * Iteration (forEach) runs in slot order, which depends on the hash:
 * a caller that emits what it iterates must sort it first.
 */

#ifndef HBBP_SUPPORT_ADDR_TABLE_HH
#define HBBP_SUPPORT_ADDR_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hbbp {

/** Address-keyed hash table of small values; see the file comment. */
template <typename V>
class AddrTable
{
  public:
    /** An empty table sized for about @p expected keys. */
    explicit AddrTable(size_t expected = 0)
    {
        size_t cap = 16;
        while (cap < 2 * expected)
            cap *= 2;
        resize(cap);
    }

    /** The value for @p key, value-initialized on first use. */
    V &
    operator[](uint64_t key)
    {
        if (key == kEmpty) {
            has_empty_key_ = true;
            return empty_key_value_;
        }
        for (size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &slot = slots_[i];
            if (slot.key == key)
                return slot.value;
            if (slot.key != kEmpty)
                continue;
            if (2 * (used_ + 1) > slots_.size()) {
                resize(2 * slots_.size());
                return (*this)[key];
            }
            slot.key = key;
            used_++;
            return slot.value;
        }
    }

    /** The value for @p key, or null when absent. */
    const V *
    find(uint64_t key) const
    {
        if (key == kEmpty)
            return has_empty_key_ ? &empty_key_value_ : nullptr;
        for (size_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &slot = slots_[i];
            if (slot.key == key)
                return &slot.value;
            if (slot.key == kEmpty)
                return nullptr;
        }
    }

    /** Number of keys. */
    size_t size() const { return used_ + (has_empty_key_ ? 1 : 0); }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.key != kEmpty)
                fn(slot.key, slot.value);
        if (has_empty_key_)
            fn(kEmpty, empty_key_value_);
    }

  private:
    /** Marks a free slot; the key itself lives outside the slots. */
    static constexpr uint64_t kEmpty = UINT64_MAX;

    struct Slot
    {
        uint64_t key = kEmpty;
        V value{};
    };

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    size_t
    home(uint64_t key) const
    {
        return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                   shift_);
    }

    void
    resize(size_t cap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        shift_ = 64;
        for (size_t c = cap; c > 1; c /= 2)
            shift_--;
        used_ = 0;
        for (Slot &slot : old)
            if (slot.key != kEmpty)
                (*this)[slot.key] = std::move(slot.value);
    }

    std::vector<Slot> slots_;
    size_t used_ = 0; ///< Occupied slots.
    size_t mask_ = 0;
    unsigned shift_ = 64;
    bool has_empty_key_ = false;
    V empty_key_value_{};
};

} // namespace hbbp

#endif // HBBP_SUPPORT_ADDR_TABLE_HH
