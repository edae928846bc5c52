// Cache-conscious storage layout and SIMD-kernel dispatch for the Count-Min
// family (sketch/count_min.hpp).
//
// Layout.  The sketches historically stored their s x k counter matrix
// row-major (`row * width + col`): one item's s counters — one per row, at
// s independent hashed columns — were scattered across s row-planes, so the
// hot fused update/estimate pass touched ~s distinct cache lines.  The
// interleaved layout here stores the matrix column-major with the depth
// padded to a whole number of cache lines (`col * stride + row`): all s
// counters of one COLUMN are contiguous, so whenever two or more of an
// item's rows hash to the same column (guaranteed often for the paper's
// k=10, s=17 setting: 17 throws into 10 columns hit ~8 distinct columns in
// expectation) they share 1-2 lines instead of landing s planes apart.
// The layout is a pure bijection of physical addresses: every logical
// counter (row, col), every estimate and every checksum is bit-identical
// to the row-major layout — pinned by tests/sketch_layout_differential_test.
//
// Kernels.  The per-item cost of the sketch is dominated by evaluating the
// s Carter-Wegman row hashes (hash/two_universal.hpp).  The batch front-end
// (CountMinSketch::prehash_block) hashes kPrehashBlock ids ahead of use
// and software-prefetches their counter lines; the hashing itself is done
// by one of three interchangeable kernels selected at runtime:
//
//   kScalar — portable reference loop, same arithmetic as TwoUniversalHash.
//   AVX2 / AVX-512 — gcc-vector-extension kernels (4 / 8 ids per pass,
//     see kernels_impl.hpp) compiled in per-ISA translation units and
//     picked via __builtin_cpu_supports.
//
// Every kernel computes the exact canonical value ((a*x + b) mod p) mod k
// per row — the residues are unique, so kernel choice can never change a
// counter, an estimate, or a checksum; the differential suite replays all
// of them against each other to prove it.
//
// The environment knob UNISAMP_FORCE_SCALAR=1 pins kAuto resolution to the
// scalar kernel process-wide (CI runs the whole unit suite once per
// setting).  An explicit CountMinParams::kernel request overrides the
// environment — that is what lets one test process compare scalar and SIMD
// sketches side by side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

namespace unisamp {

/// Which hashing kernel a sketch should use (CountMinParams::kernel).
enum class SketchKernel {
  kAuto,    ///< UNISAMP_FORCE_SCALAR=1 ? scalar : best SIMD the CPU has
  kScalar,  ///< portable reference loop, always available
  kSimd,    ///< best SIMD kernel the CPU has (scalar if none compiled in)
};

namespace sketch_detail {

/// Counters per cache line; the interleave stride pads the depth up to a
/// multiple of this so every column block starts on its own line.
inline constexpr std::size_t kCountersPerLine = 8;  // 64 B / sizeof(u64)

/// Hard depth cap (rows).  Bounds the stack scratch of the single-item
/// paths and keeps a prehash block comfortably L1-resident; far above the
/// paper's s=17 and anything from_error can produce for a sane delta.
inline constexpr std::size_t kMaxDepth = 64;

/// Ids hashed ahead per prehash_block call (the batch front-end window).
inline constexpr std::size_t kPrehashBlock = 16;

/// Tables at least this large get their counter lines software-prefetched
/// at prehash time; smaller tables stay L1-resident through a batch, so the
/// per-id prefetch would be pure overhead.  A small table that went cold
/// between batches is warmed whole by CountMinSketch::prefetch instead.
inline constexpr std::size_t kPrefetchMinBytes = 16 * 1024;

/// The concrete kernel a request resolved to (what actually runs).
enum class ResolvedKernel { kScalar, kAvx2, kAvx512 };

/// Row-hash coefficient bank in SoA form plus the layout geometry — the
/// argument block every hashing kernel consumes.  `a`/`b` are the
/// Carter-Wegman coefficients per row, `magic` the fixed-point reciprocal
/// of `range` (floor((2^64-1)/range), see TwoUniversalHash::fast_mod_range),
/// `stride` the padded depth of the interleaved layout.
struct HashBlockArgs {
  const std::uint64_t* a = nullptr;
  const std::uint64_t* b = nullptr;
  std::uint64_t magic = 0;
  std::uint64_t range = 0;
  std::uint32_t depth = 0;
  std::uint32_t stride = 0;
};

/// Hashes `n <= kPrehashBlock` RAW stream ids into physical table indices:
/// out[row * kPrehashBlock + i] = col * stride + row for item i.  The
/// kernel performs the whole front end — SplitMix64 premix, Mersenne
/// reduction, then the per-row Carter-Wegman hashes — so the vector
/// variants keep even the premix off the scalar ports.  All kernels
/// produce identical output.
using HashBlockFn = void (*)(const HashBlockArgs& args,
                             const std::uint64_t* items, std::size_t n,
                             std::uint32_t* out);

void hash_block_scalar(const HashBlockArgs& args, const std::uint64_t* items,
                       std::size_t n, std::uint32_t* out);
#if defined(UNISAMP_HAVE_AVX2_KERNEL)
void hash_block_avx2(const HashBlockArgs& args, const std::uint64_t* items,
                     std::size_t n, std::uint32_t* out);
#endif
#if defined(UNISAMP_HAVE_AVX512_KERNEL)
void hash_block_avx512(const HashBlockArgs& args, const std::uint64_t* items,
                       std::size_t n, std::uint32_t* out);
#endif

/// Resolves a kernel request against UNISAMP_FORCE_SCALAR and the CPU.
/// kScalar always resolves to itself; kSimd ignores the environment (the
/// knob pins defaults, not explicit requests); kAuto honours it.
ResolvedKernel resolve_kernel(SketchKernel requested);

/// Function pointer for a resolved kernel.
HashBlockFn kernel_fn(ResolvedKernel kernel);

/// "scalar" / "avx2" / "avx512" — for tests and diagnostics.
std::string_view kernel_name(ResolvedKernel kernel);

/// Interleaved (column-major, line-padded) geometry of a sketch table.
struct InterleavedLayout {
  std::size_t width = 0;   ///< k — columns (hash range)
  std::size_t depth = 0;   ///< s — rows
  std::size_t stride = 0;  ///< depth padded to a multiple of kCountersPerLine

  /// Physical index of logical counter (row, col).  Padding rows
  /// depth..stride-1 of each column are never addressed and stay zero.
  std::size_t index(std::size_t row, std::size_t col) const noexcept {
    return col * stride + row;
  }
  std::size_t padded_count() const noexcept { return width * stride; }
};

/// Validates (width, depth) and builds the layout.  Throws
/// std::invalid_argument on zero dimensions, depth > kMaxDepth, or a
/// padded table that would not fit 32-bit physical indices (the prehash
/// buffers store indices as u32).
InterleavedLayout make_layout(std::size_t width, std::size_t depth);

/// Minimal 64-byte-aligned uint64 buffer so column blocks start on cache
/// lines.  Zero-initialised; only what the sketches need (no resize).
class AlignedU64Buffer {
 public:
  AlignedU64Buffer() = default;
  explicit AlignedU64Buffer(std::size_t count)
      : data_(count == 0 ? nullptr
                         : new (std::align_val_t{64}) std::uint64_t[count]{}),
        size_(count) {}
  AlignedU64Buffer(const AlignedU64Buffer& other)
      : AlignedU64Buffer(other.size_) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  }
  AlignedU64Buffer& operator=(const AlignedU64Buffer& other) {
    if (this != &other) {
      AlignedU64Buffer copy(other);
      swap(copy);
    }
    return *this;
  }
  AlignedU64Buffer(AlignedU64Buffer&& other) noexcept { swap(other); }
  AlignedU64Buffer& operator=(AlignedU64Buffer&& other) noexcept {
    swap(other);
    return *this;
  }
  ~AlignedU64Buffer() {
    operator delete[](data_, std::align_val_t{64});
  }

  void swap(AlignedU64Buffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  std::uint64_t* data() noexcept { return data_; }
  const std::uint64_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::uint64_t& operator[](std::size_t i) noexcept { return data_[i]; }
  const std::uint64_t& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

 private:
  std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace sketch_detail
}  // namespace unisamp
