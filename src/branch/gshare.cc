#include "branch/gshare.hh"

#include "common/log.hh"

namespace mtdae {

Gshare::Gshare(std::uint32_t entries, std::uint32_t history_bits)
    : table_(entries, 2),
      mask_(entries - 1)
{
    MTDAE_ASSERT(entries > 0 && (entries & (entries - 1)) == 0,
                 "gshare table size must be a power of two");
    MTDAE_ASSERT(history_bits > 0 && history_bits <= 32,
                 "gshare history length out of range");
    // Only after the range check: a shift by 64 or more is undefined.
    historyMask_ = (std::uint64_t(1) << history_bits) - 1;
}

bool
Gshare::predict(Addr pc) const
{
    return table_[index(pc)] >= 2;
}

bool
Gshare::update(Addr pc, bool taken)
{
    std::uint8_t &ctr = table_[index(pc)];
    const bool predicted = ctr >= 2;
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    history_ = (history_ << 1) | (taken ? 1 : 0);
    const bool correct = predicted == taken;
    outcome_.event(!correct);
    return correct;
}

} // namespace mtdae
