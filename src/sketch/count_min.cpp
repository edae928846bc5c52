#include "sketch/count_min.hpp"

#include "hash/two_universal.hpp"
#include "sketch/kernels_impl.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace unisamp {

namespace {

using sketch_detail::AlignedU64Buffer;
using sketch_detail::HashBlockArgs;
using sketch_detail::kPrefetchMinBytes;
using sketch_detail::kPrehashBlock;
using sketch_detail::scalar_row_hash;

/// Draws the Carter-Wegman coefficient bank into SoA form, consuming the
/// seed stream exactly as TwoUniversalFamily does — sketches stay
/// bit-compatible with every state produced by the row-major era.
void draw_coefficients(std::size_t depth, std::size_t width,
                       std::uint64_t seed, AlignedU64Buffer& a,
                       AlignedU64Buffer& b) {
  const TwoUniversalFamily family(depth, width, seed);
  for (std::size_t row = 0; row < depth; ++row) {
    a[row] = family.at(row).coeff_a();
    b[row] = family.at(row).coeff_b();
  }
}

std::uint64_t reciprocal_magic(std::uint64_t range) {
  return std::numeric_limits<std::uint64_t>::max() / range;
}

}  // namespace

CountMinParams CountMinParams::from_error(double epsilon, double delta,
                                          std::uint64_t seed) {
  if (epsilon <= 0.0 || epsilon > 1.0)
    throw std::invalid_argument("epsilon must be in (0, 1]");
  if (delta <= 0.0 || delta >= 1.0)
    throw std::invalid_argument("delta must be in (0, 1)");
  CountMinParams p;
  p.width = static_cast<std::size_t>(std::ceil(std::exp(1.0) / epsilon));
  p.depth = static_cast<std::size_t>(std::ceil(std::log2(1.0 / delta)));
  p.depth = std::max<std::size_t>(p.depth, 1);
  p.seed = seed;
  return p;
}

CountMinParams CountMinParams::from_dimensions(std::size_t k, std::size_t s,
                                               std::uint64_t seed) {
  if (k == 0 || s == 0)
    throw std::invalid_argument("sketch dimensions must be positive");
  CountMinParams p;
  p.width = k;
  p.depth = s;
  p.seed = seed;
  return p;
}

double CountMinParams::epsilon() const {
  return std::exp(1.0) / static_cast<double>(width);
}

double CountMinParams::delta() const {
  return std::pow(2.0, -static_cast<double>(depth));
}

CountMinSketch::CountMinSketch(const CountMinParams& params)
    : layout_(sketch_detail::make_layout(params.width, params.depth)),
      a_(params.depth),
      b_(params.depth),
      magic_(reciprocal_magic(params.width)),
      kernel_(sketch_detail::kernel_fn(
          sketch_detail::resolve_kernel(params.kernel))),
      resolved_(sketch_detail::resolve_kernel(params.kernel)),
      table_(layout_.padded_count()),
      min_multiplicity_(params.width * params.depth) {
  draw_coefficients(params.depth, params.width, params.seed, a_, b_);
}

void CountMinSketch::update(std::uint64_t item, std::uint64_t count) {
  (void)update_and_estimate(item, count);
}

std::uint64_t CountMinSketch::update_and_estimate(std::uint64_t item,
                                                  std::uint64_t count) {
  const std::uint64_t mixed = premix(item);
  // Single pass: each row hashes once, and the post-increment cell value
  // feeds the estimate directly — the separate estimate() call would hash
  // the same s rows again to read back exactly these cells.  Each row maps
  // the item to a distinct cell, so the multiplicity of the global minimum
  // adjusts cell-by-cell (counted branchlessly — min_counter_ cannot change
  // mid-pass) and the full rescan happens only when the last minimal cell
  // was raised (rare: amortized O(1) over a stream).
  // Locals for everything the loop reads: the table stores could alias the
  // members (and the coefficient banks) through the u64* otherwise.
  std::uint64_t* const table = table_.data();
  const std::uint64_t* const a = a_.data();
  const std::uint64_t* const b = b_.data();
  const std::uint64_t min_c = min_counter_;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  std::size_t hits = 0;
  for (std::size_t row = 0; row < layout_.depth; ++row) {
    const std::uint64_t col =
        scalar_row_hash(a[row], b[row], magic_, layout_.width, mixed);
    std::uint64_t& cell = table[col * layout_.stride + row];
    hits += (cell == min_c);
    cell += count;
    best = std::min(best, cell);
  }
  min_multiplicity_ -= hits;
  total_ += count;
  if (min_multiplicity_ == 0) recompute_min();
  return best;
}

std::uint64_t CountMinSketch::estimate(std::uint64_t item) const {
  const std::uint64_t mixed = premix(item);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t row = 0; row < layout_.depth; ++row) {
    const std::uint64_t col = scalar_row_hash(a_[row], b_[row], magic_,
                                              layout_.width, mixed);
    best = std::min(best, table_[col * layout_.stride + row]);
  }
  return best;
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (other.layout_.width != layout_.width ||
      other.layout_.depth != layout_.depth)
    throw std::invalid_argument("cannot merge sketches of different shapes");
  // Identical shapes share a stride; padding cells add 0 + 0.
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] += other.table_[i];
  total_ += other.total_;
  recompute_min();
}

void CountMinSketch::halve() {
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] /= 2;
  total_ /= 2;
  recompute_min();
}

void CountMinSketch::rekey(const CountMinParams& params) {
  if (params.width != layout_.width || params.depth != layout_.depth)
    throw std::invalid_argument("rekey must preserve the sketch dimensions");
  *this = CountMinSketch(params);
}

void CountMinSketch::recompute_min() {
  // Logical cells only: the padding rows of each column stay zero forever
  // and must not masquerade as the matrix minimum.
  std::uint64_t m = std::numeric_limits<std::uint64_t>::max();
  std::size_t mult = 0;
  for (std::size_t col = 0; col < layout_.width; ++col) {
    const std::uint64_t* column = table_.data() + col * layout_.stride;
    for (std::size_t row = 0; row < layout_.depth; ++row) {
      const std::uint64_t v = column[row];
      if (v < m) {
        m = v;
        mult = 1;
      } else if (v == m) {
        ++mult;
      }
    }
  }
  min_counter_ = m;
  min_multiplicity_ = mult;
}

void ConservativeCountMinSketch::update(std::uint64_t item,
                                        std::uint64_t count) {
  (void)update_and_estimate(item, count);
}

std::uint64_t ConservativeCountMinSketch::raise_cells(const std::uint32_t* idx,
                                                      std::size_t idx_stride,
                                                      std::uint64_t count) {
  // Pass 1: read the current estimate (the row minimum the conservative
  // rule raises everything to), keeping each cell's value on the stack so
  // the raise pass never re-loads it (depth is capped at kMaxDepth).
  std::uint64_t* const table = table_.data();
  const std::uint64_t min_c = min_counter_;
  std::uint64_t val[kMaxDepth];
  std::uint64_t est = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t row = 0; row < layout_.depth; ++row) {
    val[row] = table[idx[row * idx_stride]];
    est = std::min(est, val[row]);
  }
  // Pass 2: raise the lagging cells, tracking the global minimum exactly as
  // CountMinSketch::update does (amortized O(1): the full rescan happens
  // only when the last minimal cell leaves the minimum).
  const std::uint64_t target = est + count;
  std::size_t hits = 0;
  for (std::size_t row = 0; row < layout_.depth; ++row) {
    if (val[row] < target) {
      hits += (val[row] == min_c);
      table[idx[row * idx_stride]] = target;
    }
  }
  min_multiplicity_ -= hits;
  total_ += count;
  if (min_multiplicity_ == 0) recompute_min();
  // After the raise, every cell the item maps to is >= target and at least
  // one (a former minimum) equals it, so the post-update point estimate is
  // exactly `target` — no second read pass needed.
  return target;
}

std::uint64_t ConservativeCountMinSketch::update_and_estimate(
    std::uint64_t item, std::uint64_t count) {
  const std::uint64_t mixed = premix(item);
  std::uint32_t idx[kMaxDepth];
  for (std::size_t row = 0; row < layout_.depth; ++row) {
    const std::uint64_t col = scalar_row_hash(a_[row], b_[row], magic_,
                                              layout_.width, mixed);
    idx[row] = static_cast<std::uint32_t>(col * layout_.stride + row);
  }
  return raise_cells(idx, 1, count);
}

}  // namespace unisamp
