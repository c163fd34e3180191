#include "llc/slice_hash.hpp"

#include "common/geometry.hpp"
#include "common/logging.hpp"

namespace coopsim::llc
{

SliceHash::SliceHash(SliceHashKind kind, std::uint32_t banks,
                     std::uint32_t block_bytes, std::uint64_t bank_sets)
    : kind_(kind), banks_(banks)
{
    if (banks == 0 || !isPowerOfTwo(banks)) {
        COOPSIM_FATAL("slice hash over ", banks,
                      " banks: bank count must be a power of two "
                      "(address bits cannot select a fractional bank)");
    }
    COOPSIM_ASSERT(banks <= 64, "at most 64 banks");
    COOPSIM_ASSERT(block_bytes > 0 && isPowerOfTwo(block_bytes),
                   "block size must be a power of two");
    COOPSIM_ASSERT(bank_sets > 0 && isPowerOfTwo(bank_sets),
                   "per-bank set count must be a power of two");

    bank_bits_ = floorLog2(banks_);
    const std::uint32_t block_bits = floorLog2(block_bytes);
    mod_shift_ =
        block_bits + static_cast<std::uint32_t>(floorLog2(bank_sets));

    // XOR-fold masks: address bit j (for j >= block_bits) folds into
    // output bit (j - block_bits) % bank_bits, so every block-address
    // bit participates in the bank choice. With sequential block
    // addresses the lowest bank_bits bits dominate, giving the same
    // perfect striping as Mod, while higher bits perturb power-of-two
    // strides instead of aliasing onto one bank.
    if (bank_bits_ > 0) {
        for (std::uint32_t j = block_bits; j < 64; ++j) {
            fold_masks_[(j - block_bits) % bank_bits_] |=
                std::uint64_t{1} << j;
        }
    }
}

} // namespace coopsim::llc
