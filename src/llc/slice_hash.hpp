/**
 * @file
 * Slice-selection hash in front of a banked LLC.
 *
 * A banked LLC routes every access to exactly one bank (slice) by a
 * pure function of the block address. Two hashes are provided:
 *
 *  - Mod: the degenerate reference — the bank bits are taken directly
 *    above the block offset and the bank-local set index, so
 *    consecutive set-aligned regions stripe across banks. This is the
 *    "no hash" baseline (FlexiCAS's LLCHashNorm) and the default.
 *  - Xor: an XOR-fold bit-mask hash in the style of FlexiCAS's
 *    llchash.hpp: output bit i is the parity of the address bits
 *    (above the block offset) whose fold position is i. Every address
 *    bit above the block offset contributes to the bank choice, which
 *    breaks the power-of-two stride pathologies the Mod hash suffers.
 *
 * Both are pure functions of (address, geometry): no seed, no state —
 * the same address maps to the same bank in every run, which is what
 * keeps banked runs deterministic and replayable.
 */

#ifndef COOPSIM_LLC_SLICE_HASH_HPP
#define COOPSIM_LLC_SLICE_HASH_HPP

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace coopsim::llc
{

/** Which slice-selection hash a banked LLC routes through. */
enum class SliceHashKind : std::uint8_t
{
    Mod,
    Xor,
};

/**
 * The hash stage itself. Constructed per banked LLC from its
 * geometry; bank() is the per-access routing function.
 */
class SliceHash
{
  public:
    /**
     * @param kind       Mod or Xor.
     * @param banks      Bank count; must be a power of two (fatal with
     *                   a descriptive message otherwise).
     * @param block_bytes Block size (locates the block-offset bits).
     * @param bank_sets  Sets per bank (locates the Mod hash's bank
     *                   bits above the bank-local set index).
     */
    SliceHash(SliceHashKind kind, std::uint32_t banks,
              std::uint32_t block_bytes, std::uint64_t bank_sets);

    /** The bank @p addr routes to (in [0, banks)). */
    std::uint32_t bank(Addr addr) const
    {
        if (banks_ == 1) {
            return 0;
        }
        if (kind_ == SliceHashKind::Mod) {
            return static_cast<std::uint32_t>(addr >> mod_shift_) &
                   (banks_ - 1);
        }
        std::uint32_t out = 0;
        for (std::uint32_t bit = 0; bit < bank_bits_; ++bit) {
            out |= static_cast<std::uint32_t>(
                       __builtin_parityll(addr & fold_masks_[bit]))
                   << bit;
        }
        return out;
    }

    SliceHashKind kind() const { return kind_; }
    std::uint32_t banks() const { return banks_; }

    /** The XOR-fold mask feeding output bit @p bit (tests). */
    std::uint64_t foldMask(std::uint32_t bit) const
    {
        return fold_masks_[bit];
    }

  private:
    SliceHashKind kind_;
    std::uint32_t banks_;
    /** log2(banks); the fold width of the Xor hash. */
    std::uint32_t bank_bits_ = 0;
    /** Mod: bank bits sit above block offset + bank-local set index. */
    std::uint32_t mod_shift_ = 0;
    /** Xor: per-output-bit parity masks (<= 64 banks -> 6 bits). */
    std::array<std::uint64_t, 6> fold_masks_{};
};

} // namespace coopsim::llc

#endif // COOPSIM_LLC_SLICE_HASH_HPP
